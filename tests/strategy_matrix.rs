//! The acceptance matrix for the `Compiler` session API: every
//! tree-decomposition backend × construction route must agree on model
//! counts across the bounded-treewidth circuit families, and the vtree
//! strategies must agree with them too.

use sdd::SddEval;
use sentential::prelude::*;

fn families(n: u32) -> Vec<(&'static str, Circuit)> {
    let vars: Vec<VarId> = (0..n).map(VarId).collect();
    vec![
        ("and_or_chain", circuit::families::and_or_chain(&vars)),
        ("clause_chain_w2", circuit::families::clause_chain(&vars, 2)),
        ("clause_chain_w3", circuit::families::clause_chain(&vars, 3)),
        ("parity_chain", circuit::families::parity_chain(&vars)),
    ]
}

const BACKENDS: [TwBackend; 4] = [
    TwBackend::Exact,
    TwBackend::MinFill,
    TwBackend::MinDegree,
    TwBackend::Auto,
];

const ROUTES: [Route; 3] = [Route::Semantic, Route::Apply, Route::Auto];

/// Every backend × route combination agrees with the truth-table kernel on
/// every family. `Exact` is exercised where the primal graph fits the
/// subset-DP cap, and must fail *typed* where it does not.
#[test]
fn backend_route_matrix_agrees_on_model_counts() {
    for (name, c) in families(8) {
        let expect = c.to_boolfn().unwrap().count_models();
        let (primal, _) = c.primal_graph();
        let exact_feasible = primal.num_vertices() <= graphtw::exact::MAX_EXACT_VERTICES;
        for backend in BACKENDS {
            for route in ROUTES {
                let compiler = Compiler::builder()
                    .tw_backend(backend)
                    .route(route)
                    .validation(Validation::Full)
                    .build();
                if backend == TwBackend::Exact && !exact_feasible {
                    assert!(
                        matches!(
                            compiler.compile(&c),
                            Err(CompileError::ExactTreewidthIntractable(_))
                        ),
                        "{name}: Exact beyond the cap must fail typed"
                    );
                    continue;
                }
                let compiled = compiler
                    .compile(&c)
                    .unwrap_or_else(|e| panic!("{name} via {backend}/{route}: {e}"));
                assert_eq!(
                    compiled.count_models() as u64,
                    expect,
                    "{name} via {backend}/{route}"
                );
                // The report reflects the Lemma-1 decomposition.
                assert!(compiled.report.treewidth.is_some(), "{name}: no treewidth");
            }
        }
    }
}

/// The vtree strategies agree with each other (and the kernel) on every
/// family, across both construction routes.
#[test]
fn vtree_strategies_agree_on_model_counts() {
    for (name, c) in families(8) {
        let expect = c.to_boolfn().unwrap().count_models();
        for strategy in [
            VtreeStrategy::Lemma1,
            VtreeStrategy::Search,
            VtreeStrategy::Balanced,
        ] {
            for route in [Route::Semantic, Route::Apply] {
                let compiled = Compiler::builder()
                    .vtree_strategy(strategy)
                    .route(route)
                    .validation(Validation::Full)
                    .build()
                    .compile(&c)
                    .unwrap_or_else(|e| panic!("{name} via {strategy}/{route}: {e}"));
                assert_eq!(
                    compiled.count_models() as u64,
                    expect,
                    "{name} via {strategy}/{route}"
                );
            }
        }
    }
}

/// Both routes produce the *same canonical SDD* over the same vtree — not
/// just the same counts. Canonicity is the paper's Lemma 6; here it falls
/// out as node identity when the apply route rebuilds the semantic result
/// in the same manager.
#[test]
fn routes_are_canonical_per_vtree() {
    for (name, c) in families(8) {
        let f = c.to_boolfn().unwrap();
        let mut compiled = Compiler::builder()
            .route(Route::Semantic)
            .build()
            .compile(&c)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let rebuilt = compiled.sdd.from_circuit(&c);
        assert_eq!(compiled.root, rebuilt, "{name}: canonicity by identity");
        assert!(compiled.sdd.to_boolfn(compiled.root).equivalent(&f));
    }
}

/// The three instantiations of the semiring engine agree on every
/// strategy-matrix family: `probability` (f64), `weighted_count` (f64), and
/// the exact `Rational` semiring — and all of them match the truth-table
/// kernel. Probabilities are dyadic, so the `Rational` answer is the exact
/// value the f64 paths approximate.
#[test]
fn semiring_engines_agree_on_weighted_counts() {
    let probs = [
        0.5, 0.25, 0.75, 0.125, 0.375, 0.0625, 0.875, 0.625, // dyadic
    ];
    for (name, c) in families(8) {
        let f = c.to_boolfn().unwrap();
        let compiled = Compiler::new().compile(&c).unwrap();
        let (m, root) = (&compiled.sdd, compiled.root);

        let via_prob = m.probability(root, |v| probs[v.index()]);
        let via_wc = m.weighted_count(root, |v| {
            let p = probs[v.index()];
            (1.0 - p, p)
        });
        let exact = m.probability_exact(root, |v| Rational::from_f64(probs[v.index()]));
        let kernel = f.probability(|v| probs[v.index()]);

        assert_eq!(via_prob, via_wc, "{name}: probability is weighted_count");
        assert!(
            (via_prob - kernel).abs() < 1e-12,
            "{name}: f64 {via_prob} vs kernel {kernel}"
        );
        assert!(
            (exact.to_f64() - kernel).abs() < 1e-12,
            "{name}: exact {exact} vs kernel {kernel}"
        );

        // And the exact rational is identical across vtree strategies —
        // exactness means structure independence is an equality, not an eps.
        let balanced = Compiler::builder()
            .vtree_strategy(VtreeStrategy::Balanced)
            .build()
            .compile(&c)
            .unwrap();
        let exact_bal = balanced
            .sdd
            .probability_exact(balanced.root, |v| Rational::from_f64(probs[v.index()]));
        assert_eq!(exact, exact_bal, "{name}: exact WMC across vtrees");
    }
}

/// Reports carry consistent sizes: the recorded SDD size matches a fresh
/// measurement, and stage timings sum to at most the total.
#[test]
fn reports_are_consistent() {
    let vars: Vec<VarId> = (0..9).map(VarId).collect();
    let c = circuit::families::clause_chain(&vars, 2);
    for route in ROUTES {
        let compiled = Compiler::builder()
            .route(route)
            .build()
            .compile(&c)
            .unwrap();
        let r = &compiled.report;
        assert_eq!(r.sdd_size, compiled.sdd_size());
        assert_eq!(r.num_vars, 9);
        let stage_sum =
            r.timings.kernel + r.timings.vtree + r.timings.nnf + r.timings.sdd + r.timings.validate;
        assert!(
            stage_sum <= r.timings.total,
            "stages {stage_sum:?} exceed total {:?}",
            r.timings.total
        );
    }
}
