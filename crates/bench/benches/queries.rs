//! Criterion benchmarks for the database layer: lineage construction and
//! compilation, probability computation through each route, and inversion
//! detection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use query::{families, lineage_circuit, prob, Database, QueryCompiler};

fn safe_db(n: u64) -> (query::Ucq, Database) {
    let (q, schema) = families::two_atom_hierarchical();
    let r = schema.by_name("R").unwrap();
    let s = schema.by_name("S").unwrap();
    let mut db = Database::new(schema);
    for l in 1..=n {
        db.insert(r, vec![l], 0.5);
        for m in 1..=3u64 {
            db.insert(s, vec![l, m], 0.5);
        }
    }
    (q, db)
}

/// `S(x,y), S(x',y'), x ≠ x'` over `n` tuples split between two x-values.
fn sjoin_db(n: u64) -> (query::Ucq, Database) {
    let (q, schema) = families::sjoin_inequality_query();
    let s = schema.by_name("S").unwrap();
    let mut db = Database::new(schema);
    for i in 0..n {
        db.insert(s, vec![i % 2, 37 * i + 1], 0.02 + 0.006 * i as f64);
    }
    (q, db)
}

fn bench_lineage(c: &mut Criterion) {
    let mut g = c.benchmark_group("lineage");
    for n in [4u64, 8, 16] {
        let (q, db) = safe_db(n);
        g.bench_with_input(BenchmarkId::new("hierarchical", n), &n, |b, _| {
            b.iter(|| black_box(lineage_circuit(&q, &db).size()))
        });
    }
    let (q, schema) = families::uh(2);
    let db = families::uh_complete_db(&schema, 2, 3, 0.5);
    g.bench_function("uh2_dom3", |b| {
        b.iter(|| black_box(lineage_circuit(&q, &db).size()))
    });
    // Lineage → Lemma-1 vtree → SDD → probability: each lineage is one wide
    // OR, so these time `SddManager::from_circuit`'s gate fold.
    let qc = QueryCompiler::new();
    for n in [22u64, 26] {
        let (q, db) = sjoin_db(n);
        g.bench_with_input(BenchmarkId::new("compile_sjoin", n), &n, |b, _| {
            b.iter(|| black_box(qc.probability(&q, &db).unwrap().probability))
        });
    }
    let (q, schema) = families::uh(1);
    let db = families::uh_complete_db(&schema, 1, 4, 0.5);
    g.bench_function("compile_uh1_dom4", |b| {
        b.iter(|| black_box(qc.probability(&q, &db).unwrap().probability))
    });
    g.finish();
}

fn bench_probability_routes(c: &mut Criterion) {
    let mut g = c.benchmark_group("probability");
    g.sample_size(20);
    let (q, db) = safe_db(5);
    g.bench_function("obdd_route", |b| {
        b.iter(|| black_box(prob::probability_via_obdd(&q, &db)))
    });
    g.bench_function("sdd_route", |b| {
        b.iter(|| black_box(prob::probability_via_sdd(&q, &db)))
    });
    g.bench_function("pipeline_route", |b| {
        b.iter(|| black_box(prob::probability_via_pipeline(&q, &db).0))
    });
    g.bench_function("safe_plan", |b| {
        b.iter(|| black_box(prob::safe_probability(&q.cqs[0], &db).unwrap()))
    });
    g.finish();
}

fn bench_inversion_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("inversion");
    for k in [1usize, 3, 5] {
        let (q, _) = families::uh(k);
        g.bench_with_input(BenchmarkId::new("uh", k), &k, |b, _| {
            b.iter(|| black_box(query::find_inversion(&q).map(|w| w.length)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_lineage,
    bench_probability_routes,
    bench_inversion_detection
);
criterion_main!(benches);
