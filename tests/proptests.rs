//! Workspace-level property-based tests (proptest): the paper's invariants
//! under randomized functions, vtrees, and circuits.

use boolfunc::{factors, BoolFn, VarSet};
use proptest::prelude::*;
use sdd::SddEval;
use sentential::prelude::*;

/// Strategy: a Boolean function over `n` variables as a raw table plus a
/// random vtree seed.
fn table(n: usize) -> impl Strategy<Value = BoolFn> {
    let bits = 1usize << n;
    prop::collection::vec(any::<bool>(), bits).prop_map(move |bs| {
        let vars = VarSet::from_iter((0..n as u32).map(VarId));
        BoolFn::from_fn(vars, |i| bs[i as usize])
    })
}

fn vtree_of(n: usize, seed: u64) -> Vtree {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vars: Vec<VarId> = (0..n as u32).map(VarId).collect();
    Vtree::random(&vars, &mut rng).expect("nonempty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. (10): factors partition the guard space, with pairwise distinct
    /// cofactors.
    #[test]
    fn factors_partition(f in table(5), ymask in 0u32..32) {
        let y = VarSet::from_iter((0..5u32).filter(|i| ymask >> i & 1 == 1).map(VarId));
        let fs = factors(&f, &y);
        let total: u64 = fs.iter().map(|fac| fac.guard.count_models()).sum();
        prop_assert_eq!(total, 1u64 << y.len());
        for (i, a) in fs.iter().enumerate() {
            for b in &fs[i + 1..] {
                prop_assert_eq!(a.guard.and(&b.guard).count_models(), 0);
                prop_assert!(!a.cofactor.equivalent(&b.cofactor));
            }
        }
    }

    /// Lemma 4 / Theorem 3: C_{F,T} computes F and respects the size bound.
    #[test]
    fn cft_correct_and_linear(f in table(5), seed in 0u64..1000) {
        let t = vtree_of(5, seed);
        let r = sentential_core::cft(&f, &t);
        prop_assert!(r.circuit.to_boolfn().unwrap().equivalent(&f));
        prop_assert!(r.circuit.reachable_size()
            <= sentential_core::bounds::thm3_size(r.fiw, 5));
    }

    /// Lemma 6 / canonicity: S_{F,T} equals the apply-compiled canonical SDD.
    #[test]
    fn sft_canonical(f in table(4), seed in 0u64..1000) {
        let t = vtree_of(4, seed);
        let mut r = sentential_core::sft(&f, &t);
        prop_assert!(r.manager.to_boolfn(r.root).equivalent(&f));
        let applied = r.manager.from_boolfn(&f);
        prop_assert_eq!(r.root, applied);
    }

    /// OBDD and SDD model counts always agree with the kernel.
    #[test]
    fn counts_agree(f in table(6), seed in 0u64..1000) {
        let vars: Vec<VarId> = (0..6u32).map(VarId).collect();
        let mut ob = Obdd::new(vars.clone());
        let oroot = ob.from_boolfn(&f);
        prop_assert_eq!(ob.count_models(oroot) as u64, f.count_models());
        let t = vtree_of(6, seed);
        let mut mgr = SddManager::new(t);
        let sroot = mgr.from_boolfn(&f);
        prop_assert_eq!(mgr.count_models(sroot) as u64, f.count_models());
    }

    /// SDD negation and conditioning are semantically exact.
    #[test]
    fn sdd_negate_condition(f in table(5), var in 0u32..5, val: bool) {
        let vars: Vec<VarId> = (0..5u32).map(VarId).collect();
        let t = Vtree::balanced(&vars).unwrap();
        let mut mgr = SddManager::new(t);
        let root = mgr.from_boolfn(&f);
        let neg = mgr.negate(root);
        prop_assert!(mgr.to_boolfn(neg).equivalent(&f.not()));
        let cond = mgr.condition(root, VarId(var), val);
        prop_assert!(mgr.to_boolfn(cond).equivalent(&f.restrict(VarId(var), val)));
    }

    /// Weighted counts match the kernel on random weights.
    #[test]
    fn wmc_matches(f in table(5), probs in prop::collection::vec(0.01f64..0.99, 5)) {
        let vars: Vec<VarId> = (0..5u32).map(VarId).collect();
        let mut ob = Obdd::new(vars.clone());
        let oroot = ob.from_boolfn(&f);
        let t = Vtree::balanced(&vars).unwrap();
        let mut mgr = SddManager::new(t);
        let sroot = mgr.from_boolfn(&f);
        let kernel = f.probability(|v| probs[v.index()]);
        prop_assert!((ob.probability(oroot, |v| probs[v.index()]) - kernel).abs() < 1e-10);
        prop_assert!((mgr.probability(sroot, |v| probs[v.index()]) - kernel).abs() < 1e-10);
    }

    /// NNF conversion preserves semantics on random circuits.
    #[test]
    fn nnf_roundtrip(seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = circuit::families::random_circuit(5, 15, &mut rng);
        let n = c.to_nnf();
        n.check_nnf().unwrap();
        prop_assert!(c.to_boolfn().unwrap().equivalent(&n.to_boolfn().unwrap()));
    }

    /// Tree decompositions from random orders are always valid; nice TDs
    /// preserve width.
    #[test]
    fn td_validity(seed in 0u64..500, n in 4usize..10, p in 0.2f64..0.8) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = Graph::random_gnp(n, p, &mut rng);
        let order = graphtw::min_fill_order(&g);
        let td = graphtw::TreeDecomposition::from_elimination_order(&g, &order);
        prop_assert!(td.validate(&g).is_ok());
        let nice = graphtw::NiceTd::from_td(&td, g.num_vertices());
        prop_assert!(nice.validate(g.num_vertices()).is_ok());
        prop_assert_eq!(nice.width(), td.width());
    }

    /// Under the truth-table kernel cap, `Route::Auto` resolves to (and
    /// exactly matches) `Route::Semantic`: same canonical SDD size, same
    /// widths, same model count, on random circuits.
    #[test]
    fn route_auto_matches_semantic_under_kernel_cap(seed in 0u64..400) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = circuit::families::random_circuit(6, 18, &mut rng);
        prop_assume!(!c.vars().is_empty());
        let auto = Compiler::builder().route(Route::Auto).build().compile(&c).unwrap();
        let semantic = Compiler::builder().route(Route::Semantic).build().compile(&c).unwrap();
        prop_assert_eq!(auto.report.route, sentential_core::ResolvedRoute::Semantic);
        prop_assert_eq!(auto.count_models(), semantic.count_models());
        prop_assert_eq!(auto.sdd_size(), semantic.sdd_size());
        prop_assert_eq!(auto.report.sdw, semantic.report.sdw);
        prop_assert_eq!(auto.report.fw, semantic.report.fw);
        prop_assert!(auto.nnf.is_some() && semantic.nnf.is_some());
        prop_assert!(auto.sdd.to_boolfn(auto.root)
            .equivalent(&semantic.sdd.to_boolfn(semantic.root)));
    }

    /// Exact treewidth is never beaten by any random elimination order, and
    /// the MMD lower bound never exceeds it.
    #[test]
    fn exact_tw_sandwich(seed in 0u64..300, n in 4usize..9) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = Graph::random_gnp(n, 0.5, &mut rng);
        let (tw, _) = graphtw::exact_treewidth(&g).unwrap();
        prop_assert!(graphtw::mmd_lower_bound(&g) <= tw);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        prop_assert!(graphtw::width_of_order(&g, &order) >= tw);
    }
}
