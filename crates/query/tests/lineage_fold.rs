//! Apply-work guard for compiling lineages' wide gates.
//!
//! A UCQ lineage is one wide OR over the query's matches. Folding that OR
//! left to right re-applies an ever-growing accumulator against each new
//! match; the vtree-order fold of `SddManager::from_circuit` merges the
//! matches where they meet in the vtree. The bounds below sit well above
//! the vtree-order fold's work and far below the left fold's (8.74M apply
//! calls on the self-join, 5.0M on the hierarchical query), so a return to
//! an accumulator-style fold fails here. Each answer is also checked
//! against an independent route.
//!
//! The unsafe `uh(k)` lineages guard apply itself: an apply's element rows
//! and columns whose sub is the op's absorbing element (⊥ for And, ⊤ for
//! Or) go to the result whole instead of through the cross product. The
//! full product made 2.95M apply calls on `uh(1)` over domain 4 and 449k
//! on `uh(2)` over domain 3.

use query::prob::{probability_via_obdd, safe_probability};
use query::{families, Database, QueryCompiler, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOLERANCE: f64 = 1e-9;

/// `n` distinct values below `bound`, in draw order.
fn distinct(rng: &mut StdRng, n: usize, bound: u64) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(n);
    while out.len() < n {
        let y = rng.gen_range(0..bound);
        if !out.contains(&y) {
            out.push(y);
        }
    }
    out
}

#[test]
fn self_join_lineage_folds_along_the_vtree() {
    let (q, schema) = families::sjoin_inequality_query();
    let s = schema.by_name("S").expect("S");
    let mut db = Database::new(schema);
    let mut rng = StdRng::seed_from_u64(26);
    for (i, y) in distinct(&mut rng, 26, 1000).into_iter().enumerate() {
        db.insert(s, vec![i as u64 % 2, y], rng.gen_range(0.02..0.2));
    }
    let answer = QueryCompiler::new().probability(&q, &db).expect("compiles");
    let report = answer.report.expect("non-constant lineage");
    assert!(
        report.apply.apply_calls < 500_000,
        "self-join over 26 tuples made {} apply calls",
        report.apply.apply_calls
    );
    let oracle = probability_via_obdd(&q, &db);
    assert!(
        (answer.probability - oracle).abs() < TOLERANCE,
        "sdd {} vs obdd {oracle}",
        answer.probability
    );
}

#[test]
fn hierarchical_lineage_folds_along_the_vtree() {
    let (q, schema) = families::two_atom_hierarchical();
    let r = schema.by_name("R").expect("R");
    let s = schema.by_name("S").expect("S");
    let mut db = Database::new(schema);
    let mut rng = StdRng::seed_from_u64(1100);
    let mut x = 0u64;
    while db.num_tuples() < 1100 {
        x += 1;
        db.insert(r, vec![x], rng.gen_range(0.001..0.01));
        let fan = 1 + (x % 4) as usize;
        for y in distinct(&mut rng, fan, 8) {
            db.insert(s, vec![x, y], rng.gen_range(0.05..0.5));
        }
    }
    let answer = QueryCompiler::new().probability(&q, &db).expect("compiles");
    let report = answer.report.expect("non-constant lineage");
    assert!(
        report.apply.apply_calls < 200_000,
        "R(x)S(x,y) over {} tuples made {} apply calls",
        db.num_tuples(),
        report.apply.apply_calls
    );
    let oracle = safe_probability(&q.cqs[0], &db).expect("R(x)S(x,y) has a safe plan");
    assert!(
        (answer.probability - oracle).abs() < TOLERANCE,
        "sdd {} vs safe plan {oracle}",
        answer.probability
    );
}

#[test]
fn uh_lineages_skip_absorbing_rows() {
    // (k, domain, SDD size, apply-call bound)
    for (k, n, size, max_calls) in [(1, 4, 3_356, 20_000), (2, 3, 1_482, 10_000)] {
        let (q, schema) = families::uh(k);
        let mut db = families::uh_complete_db(&schema, k, n, 0.5);
        let mut rng = StdRng::seed_from_u64(k as u64);
        for id in 0..db.num_tuples() as u32 {
            let t = db.tuple(TupleId(id)).clone();
            db.insert(t.rel, t.args, rng.gen_range(0.02..0.3));
        }
        let answer = QueryCompiler::new().probability(&q, &db).expect("compiles");
        let report = answer.report.expect("non-constant lineage");
        assert_eq!(report.sdd_size, size, "uh({k}) over domain {n}: SDD size");
        assert!(
            report.apply.apply_calls <= max_calls,
            "uh({k}) over domain {n} made {} apply calls",
            report.apply.apply_calls
        );
        let oracle = probability_via_obdd(&q, &db);
        assert!(
            (answer.probability - oracle).abs() < TOLERANCE,
            "uh({k}) over domain {n}: sdd {} vs obdd {oracle}",
            answer.probability
        );
    }
}
