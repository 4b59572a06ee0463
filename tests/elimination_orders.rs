//! Lineage-shaped inputs for the decomposition and SDD layers: the greedy
//! elimination heuristics must pick their plain reference's orders on the
//! primal graphs of query lineages (the hub-heavy hierarchical `R(x)S(x,y)`,
//! `uh(k)`, the self-join), and the SDD unique table must keep its probe
//! runs short on a fixed lineage compile.

use graphtw::{greedy_order, width_of_order, Graph, Heuristic};
use query::{families, lineage_circuit, Database, QueryCompiler, Ucq};

#[path = "../crates/graphtw/src/elimination/reference.rs"]
mod reference;

/// `R(x)S(x,y)` with `R(x)` for `x` in `1..=xs` and `1 + x mod 4` tuples
/// `S(x, y)` each: the lineage's top OR gate is a hub of degree `xs`.
fn hierarchical(xs: u64) -> (Ucq, Database) {
    let (q, schema) = families::two_atom_hierarchical();
    let r = schema.by_name("R").expect("R");
    let s = schema.by_name("S").expect("S");
    let mut db = Database::new(schema);
    for x in 1..=xs {
        db.insert(r, vec![x], 0.1);
        for y in 0..=x % 4 {
            db.insert(s, vec![x, 3 * y + x % 3], 0.2);
        }
    }
    (q, db)
}

fn unsafe_uh(k: usize, n: usize) -> (Ucq, Database) {
    let (q, schema) = families::uh(k);
    let db = families::uh_complete_db(&schema, k, n, 0.5);
    (q, db)
}

/// `S(x,y), S(x',y'), x ≠ x'` over `n` tuples split between `x = 0, 1`.
fn self_join(n: u64) -> (Ucq, Database) {
    let (q, schema) = families::sjoin_inequality_query();
    let s = schema.by_name("S").expect("S");
    let mut db = Database::new(schema);
    for i in 0..n {
        db.insert(s, vec![i % 2, 7 * i + 1], 0.1);
    }
    (q, db)
}

fn primal_graph(q: &Ucq, db: &Database) -> Graph {
    lineage_circuit(q, db).primal_graph().0
}

#[test]
fn lineage_orders_match_reference() {
    let instances = [
        hierarchical(40),
        hierarchical(80),
        unsafe_uh(1, 3),
        unsafe_uh(2, 3),
        unsafe_uh(1, 4),
        self_join(10),
        self_join(14),
    ];
    for (q, db) in &instances {
        let g = primal_graph(q, db);
        for (heuristic, min_fill) in [(Heuristic::MinFill, true), (Heuristic::MinDegree, false)] {
            let (width, order) = greedy_order(&g, heuristic);
            assert_eq!(
                order,
                reference::reference_order(&g, min_fill),
                "{heuristic:?} on {} vertices",
                g.num_vertices()
            );
            assert_eq!(width, width_of_order(&g, &order));
        }
    }
}

/// Decision hashes are FxHash folds; indexing the unique table by their low
/// bits clustered the uh(1) domain-4 compile into about 210 probes per
/// insert. Fibonacci indexing keeps the rate far below that. The counts are
/// deterministic, so the bound is exact, not statistical.
#[test]
fn unique_table_probe_runs_stay_short() {
    let (q, db) = unsafe_uh(1, 4);
    let compiled = QueryCompiler::new()
        .compiler()
        .compile(&lineage_circuit(&q, &db))
        .expect("uh(1) lineage compiles");
    let stats = compiled.report.apply;
    assert!(stats.unique_inserts > 0);
    let per_insert = stats.unique_probes as f64 / stats.unique_inserts as f64;
    assert!(
        per_insert < 30.0,
        "{} probes over {} inserts",
        stats.unique_probes,
        stats.unique_inserts
    );
}
