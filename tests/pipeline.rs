//! Cross-crate integration tests: the Result 1 pipeline on the circuit
//! families, with every paper invariant checked at once.

use boolfunc::factor_width;
use sdd::SddEval;
use sentential::prelude::*;

fn family_zoo(n: u32) -> Vec<(&'static str, Circuit)> {
    let vars: Vec<VarId> = (0..n).map(VarId).collect();
    vec![
        ("and_or_chain", circuit::families::and_or_chain(&vars)),
        ("clause_chain_w2", circuit::families::clause_chain(&vars, 2)),
        ("clause_chain_w3", circuit::families::clause_chain(&vars, 3)),
        ("parity_chain", circuit::families::parity_chain(&vars)),
        (
            "and_or_tree",
            circuit::families::and_or_tree(&vars[..(n as usize).next_power_of_two() / 2]),
        ),
        (
            "disjointness",
            circuit::families::disjointness_circuit(
                &vars[..(n as usize) / 2],
                &vars[(n as usize) / 2..2 * ((n as usize) / 2)],
            ),
        ),
    ]
}

#[test]
fn result1_full_stack() {
    let compiler = Compiler::builder()
        .route(Route::Semantic)
        .exact_tw_limit(18)
        .validation(Validation::Full)
        .build();
    for (name, c) in family_zoo(8) {
        let f = c.to_boolfn().unwrap();
        let r = compiler
            .compile(&c)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let treewidth = r.report.treewidth.expect("Lemma-1 vtree");
        let rfw = r.report.fw.expect("semantic route");
        let fiw = r.report.fiw.expect("semantic route");
        let sdw = r.report.sdw;

        // Lemma 1: factor width within the triple-exponential bound.
        let fw = factor_width(&f, &r.vtree);
        assert!(
            sentential_core::bounds::lemma1_fw_bound(treewidth).admits(fw as u128),
            "{name}: Lemma 1 violated"
        );

        // Theorem 3: C_{F,T} is a deterministic structured NNF computing F
        // with O(fiw·n) gates.
        let nnf = &r.nnf.as_ref().expect("semantic route").circuit;
        assert!(nnf.to_boolfn().unwrap().equivalent(&f), "{name}: C_F,T");
        nnf.check_nnf().unwrap();
        nnf.check_decomposable().unwrap();
        nnf.check_deterministic().unwrap();
        nnf.check_structured_by(&r.vtree).unwrap();
        let n = f.vars().len();
        assert!(
            nnf.reachable_size() <= sentential_core::bounds::thm3_size(fiw, n),
            "{name}: Theorem 3 size"
        );

        // Theorem 4: S_{F,T} is the canonical SDD, linear size.
        let mgr = &r.sdd;
        assert!(mgr.to_boolfn(r.root).equivalent(&f), "{name}: S_F,T");
        mgr.validate(r.root).unwrap();
        assert!(
            mgr.size(r.root) <= sentential_core::bounds::thm4_size(sdw, n),
            "{name}: Theorem 4 size"
        );

        // Eq. (22): fiw ≤ fw².
        assert!(
            fiw as u128 <= sentential_core::bounds::eq22_fiw_from_fw(rfw),
            "{name}: Eq. 22"
        );
        // Eq. (29): sdw ≤ 2^(2·fw+1).
        assert!(
            sentential_core::bounds::eq29_sdw_from_fw(rfw).admits(sdw as u128),
            "{name}: Eq. 29"
        );
    }
}

#[test]
fn canonicity_three_routes_one_node() {
    // S_{F,T} (direct), apply-from-circuit, apply-from-truth-table: all
    // three must produce the same canonical node in the same manager.
    let vars: Vec<VarId> = (0..7).map(VarId).collect();
    let c = circuit::families::clause_chain(&vars, 2);
    let f = c.to_boolfn().unwrap();
    let (vt, _) = sentential_core::vtree_from_circuit(&c, 18).unwrap();
    let mut r = sentential_core::sft(&f, &vt);
    let from_circuit = r.manager.from_circuit(&c);
    let from_table = r.manager.from_boolfn(&f);
    assert_eq!(r.root, from_circuit);
    assert_eq!(r.root, from_table);
}

#[test]
fn counts_agree_across_all_representations() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let vars: Vec<VarId> = (0..7).map(VarId).collect();
    for _ in 0..5 {
        let c = circuit::families::random_circuit(7, 20, &mut rng);
        let f = c.to_boolfn().unwrap();
        let expect = f.count_models_over(&boolfunc::VarSet::from_slice(&vars)) as u128;

        let mut ob = Obdd::new(vars.clone());
        let oroot = ob.from_circuit(&c);
        assert_eq!(ob.count_models(oroot), expect, "OBDD count");

        let vt = Vtree::balanced(&vars).unwrap();
        let mut mgr = SddManager::new(vt);
        let sroot = mgr.from_circuit(&c);
        assert_eq!(mgr.count_models(sroot), expect, "SDD count");

        if !c.vars().is_empty() {
            let r = Compiler::new().compile(&c).unwrap();
            let pipeline_count = r.count_models() << (vars.len() - r.vtree.num_vars());
            assert_eq!(pipeline_count, expect, "pipeline count");
        }
    }
}

#[test]
fn obdd_is_sdd_on_right_linear_vtree() {
    // The OBDD special case (paper §3.2.2): right-linear vtrees make SDDs
    // behave like OBDDs — identical counts and comparable widths.
    let vars: Vec<VarId> = (0..8).map(VarId).collect();
    let f = boolfunc::families::majority(&vars);
    let vt = Vtree::right_linear(&vars).unwrap();
    let mut mgr = SddManager::new(vt);
    let sroot = mgr.from_boolfn(&f);
    let mut ob = Obdd::new(vars.clone());
    let oroot = ob.from_boolfn(&f);
    assert_eq!(mgr.count_models(sroot), ob.count_models(oroot));
    // Widths track each other within a small constant factor.
    let sw = mgr.width(sroot);
    let ow = ob.width(oroot);
    assert!(sw <= 3 * (ow + 1), "sdw {sw} vs OBDD width {ow}");
}

#[test]
fn pathwidth_regime_gives_small_obdd_width() {
    // Eq. (2): bounded circuit pathwidth ⇒ bounded OBDD width. The
    // and_or_chain family has pathwidth ≤ 2; its OBDD width stays constant
    // while n grows.
    let mut widths = Vec::new();
    for n in [6u32, 9, 12] {
        let vars: Vec<VarId> = (0..n).map(VarId).collect();
        let c = circuit::families::and_or_chain(&vars);
        let f = c.to_boolfn().unwrap();
        let mut ob = Obdd::new(vars);
        let root = ob.from_boolfn(&f);
        widths.push(ob.width(root));
    }
    assert!(
        widths.iter().all(|&w| w == widths[0]),
        "OBDD width must be constant along the chain family: {widths:?}"
    );
}
