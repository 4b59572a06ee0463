//! The canonical SDD construction `S_{F,T}` (paper §3.2.2, Eqs. 24–28,
//! Lemmas 5–6, Theorem 4) and SDD width (Definition 5).
//!
//! The construction generalizes `C_{F,T}` from single factors to **sets of
//! factors** `H ⊆ factors(F, Y_v)`, computing `⋁_{H ∈ H} H`. At an internal
//! node, each left factor `G` determines the set `S_G` of right factors it
//! can be completed with (Lemma 5); grouping left factors by equal `S_G`
//! yields the sentential decision `⋁ (P_i ∧ S_i)` satisfying the SDD
//! conditions (SD1)–(SD3) — built here directly into an [`SddManager`], so
//! canonicity can be *checked by node identity* against apply-based
//! compilation.

use crate::implicants::{ImplicantTable, VtreeFactors};
use boolfunc::BoolFn;
use sdd::{SddId, SddManager, FALSE, TRUE};
use vtree::fxhash::FxHashMap;
use vtree::{Vtree, VtreeNodeId};

/// Output of the `S_{F,T}` construction.
pub struct SftResult {
    /// Manager holding the SDD (over the input vtree).
    pub manager: SddManager,
    /// Root node of `S_{F,T}`.
    pub root: SddId,
    /// `sdw(F, T)` (Definition 5): max ∧-gates structured by one vtree node.
    pub sdw: usize,
    /// `fw(F, T)` measured along the way.
    pub fw: usize,
}

/// Build the canonical SDD `S_{F,T}` by the paper's direct construction.
pub fn sft(f: &BoolFn, t: &Vtree) -> SftResult {
    assert!(
        f.vars().iter().all(|v| t.contains_var(v)),
        "vtree must cover the support"
    );
    let ctx = VtreeFactors::compute(f, t);
    let fw = ctx.width();
    // Implicant tables for every internal node, computed once.
    let tables: FxHashMap<VtreeNodeId, ImplicantTable> = t
        .internal_nodes()
        .map(|v| (v, ImplicantTable::build(&ctx, v)))
        .collect();
    let mut mgr = SddManager::new(t.clone());
    let mut memo: FxHashMap<(VtreeNodeId, Vec<usize>), SddId> = FxHashMap::default();
    let root_node = t.root();
    let target = ctx
        .at(root_node)
        .iter()
        .position(|fac| fac.cofactor.as_constant() == Some(true));
    let root = match target {
        Some(h) => build(&ctx, &tables, &mut mgr, t, root_node, &[h], &mut memo),
        None => FALSE,
    };
    let sdw = mgr.width(root);
    SftResult {
        manager: mgr,
        root,
        sdw,
        fw,
    }
}

/// `C_{v,H}` for a sorted set `hs` of factor indices at `v` (Eq. 27 / the
/// leaf cases of §3.2.2).
fn build(
    ctx: &VtreeFactors<'_>,
    tables: &FxHashMap<VtreeNodeId, ImplicantTable>,
    mgr: &mut SddManager,
    t: &Vtree,
    v: VtreeNodeId,
    hs: &[usize],
    memo: &mut FxHashMap<(VtreeNodeId, Vec<usize>), SddId>,
) -> SddId {
    if hs.is_empty() {
        return FALSE;
    }
    if hs.len() == ctx.at(v).len() {
        // ⋁ over all factors = ⊤ (Eq. 10: factors partition the space).
        return TRUE;
    }
    if let Some(&id) = memo.get(&(v, hs.to_vec())) {
        return id;
    }
    let id = if t.is_leaf(v) {
        // At most two factors at a leaf; a proper nonempty subset is a
        // single factor whose guard is a literal (⊤/⊥ handled above).
        debug_assert_eq!(hs.len(), 1);
        let guard = &ctx.at(v)[hs[0]].guard;
        debug_assert_eq!(guard.num_vars(), 1, "proper subset implies 2 factors");
        let var = guard.vars().iter().next().expect("one var");
        let positive = guard.eval_index(1);
        mgr.literal(var, positive)
    } else {
        let (w, w2) = t.children(v).expect("internal");
        let table = &tables[&v];
        // S_G for each left factor, grouped by equality (Eq. 25 → Eq. 26).
        let mut groups: FxHashMap<Vec<usize>, Vec<usize>> = FxHashMap::default();
        for (i, row) in table.class.iter().enumerate() {
            let s_g: Vec<usize> = (0..row.len()).filter(|&j| hs.contains(&row[j])).collect();
            groups.entry(s_g).or_default().push(i);
        }
        let mut elems = Vec::with_capacity(groups.len());
        // Deterministic iteration order for reproducibility.
        let mut entries: Vec<(Vec<usize>, Vec<usize>)> = groups.into_iter().collect();
        entries.sort();
        for (s_set, p_set) in entries {
            let prime = build(ctx, tables, mgr, t, w, &p_set, memo);
            let sub = build(ctx, tables, mgr, t, w2, &s_set, memo);
            elems.push((prime, sub));
        }
        mgr.decision(v, elems)
    };
    memo.insert((v, hs.to_vec()), id);
    id
}

/// `sdw(F) = min_T sdw(F, T)` by exhaustive vtree enumeration (guarded).
pub fn min_sdw(f: &BoolFn, max_n: usize) -> (usize, Vtree) {
    let ess = f.minimize_support();
    let vars: Vec<_> = ess.vars().iter().collect();
    if vars.is_empty() {
        let v = f.vars().iter().next().unwrap_or(vtree::VarId(0));
        let t = Vtree::right_linear(&[v]).expect("single leaf");
        return (sft(&ess, &t).sdw, t);
    }
    let mut best: Option<(usize, Vtree)> = None;
    for t in vtree::all_vtrees(&vars, max_n) {
        let w = sft(&ess, &t).sdw;
        if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
            best = Some((w, t));
        }
    }
    best.expect("at least one vtree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::{families, VarSet};
    use sdd::SddEval;
    use vtree::VarId;

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    /// Lemma 6 + canonicity: S_{F,T} computes F, satisfies the SDD
    /// invariants, and — being canonical — is the *same node* the manager's
    /// apply-based compiler produces.
    #[test]
    fn sft_is_the_canonical_sdd() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..15 {
            let f = BoolFn::random(VarSet::from_slice(&vars(5)), &mut rng);
            let t = Vtree::random(&vars(5), &mut rng).unwrap();
            let mut r = sft(&f, &t);
            assert!(
                r.manager.to_boolfn(r.root).equivalent(&f),
                "trial {trial}: semantics"
            );
            r.manager.validate(r.root).unwrap();
            let applied = r.manager.from_boolfn(&f);
            assert_eq!(
                r.root, applied,
                "trial {trial}: S_F,T differs from the canonical apply-compiled SDD"
            );
        }
    }

    /// Theorem 4: canonical SDD size O(sdw · n).
    #[test]
    fn theorem4_size_bound() {
        for n in [4u32, 6, 8] {
            let f = families::parity(&vars(n));
            let t = Vtree::balanced(&vars(n)).unwrap();
            let r = sft(&f, &t);
            let size = r.manager.size(r.root);
            let bound = crate::bounds::thm4_size(r.sdw, n as usize);
            assert!(size <= bound, "n={n}: SDD size {size} > bound {bound}");
            assert_eq!(r.sdw, 4, "parity sdw");
        }
    }

    /// Degenerate cases.
    #[test]
    fn constants() {
        let t = Vtree::balanced(&vars(3)).unwrap();
        let bot = BoolFn::constant(VarSet::from_slice(&vars(3)), false);
        let r = sft(&bot, &t);
        assert_eq!(r.root, FALSE);
        let top = BoolFn::constant(VarSet::from_slice(&vars(3)), true);
        let r = sft(&top, &t);
        assert_eq!(r.root, TRUE);
    }

    /// A single literal compiles to the literal node.
    #[test]
    fn literal_compiles_to_literal() {
        let f = BoolFn::literal(VarId(1), false);
        let t = Vtree::balanced(&vars(3)).unwrap();
        let mut r = sft(&f, &t);
        let lit = r.manager.literal(VarId(1), false);
        assert_eq!(r.root, lit);
    }

    /// OBDD special case: on right-linear vtrees, sdw coincides (up to the
    /// ⊥-sub element) with OBDD width behaviour — checked via counts.
    #[test]
    fn right_linear_matches_obdd_counts() {
        let f = families::majority(&vars(5));
        let t = Vtree::right_linear(&vars(5)).unwrap();
        let r = sft(&f, &t);
        assert_eq!(r.manager.count_models(r.root) as u64, f.count_models());
    }

    /// Eq. 29 (first inequality): sdw(F,T) ≤ 2^{2·fw(F,T)+1}.
    #[test]
    fn eq29_width_bound() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let f = BoolFn::random(VarSet::from_slice(&vars(5)), &mut rng);
            let t = Vtree::random(&vars(5), &mut rng).unwrap();
            let r = sft(&f, &t);
            let bound = 1usize << (2 * r.fw + 1).min(30);
            assert!(r.sdw <= bound, "sdw {} > 2^(2·{}+1)", r.sdw, r.fw);
        }
    }

    /// min_sdw is never larger than any fixed-vtree sdw.
    #[test]
    fn min_sdw_minimizes() {
        let (f, xs, ys) = families::disjointness(2);
        let (w_min, _) = min_sdw(&f, 4);
        let mut separated = Vec::new();
        separated.extend_from_slice(&xs);
        separated.extend_from_slice(&ys);
        let t = Vtree::right_linear(&separated).unwrap();
        let w_sep = sft(&f, &t).sdw;
        assert!(w_min <= w_sep);
    }
}
