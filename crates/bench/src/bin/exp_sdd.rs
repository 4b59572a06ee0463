//! E15 — SDD kernel microbenchmark: apply throughput, interning traffic,
//! and bytes/node across the chain and band CNF families and the unsafe
//! `uh(k)` query lineages.
//!
//! The paper's guarantees bound compiled *size*; this experiment tracks the
//! kernel *constants* the arena overhaul targets — how fast the worklist
//! engine drives apply, how much unique-table probing interning costs, and
//! how many bytes the manager spends per node (element arena + packed
//! caches vs the former node-owned `Vec` storage that duplicated every
//! element list into the unique-table key). Steady-state engine latency is
//! measured separately from compilation: a conditioning sweep and a
//! negation round trip over the compiled diagram. The lineages compile
//! through a `QueryCompiler` session's compiler, the paper's own apply
//! layer: there the work is in applies whose lca normalization meets
//! absorbing subs, not in the CNF conjunction.
//!
//! Regenerate: `cargo run --release -p sentential-bench --bin exp_sdd`
//! (`--smoke` for the CI-sized subset, `--json <path>` for records —
//! committed as `BENCH_sdd.json`, diffed by `bench_diff` in CI).

use cnf::{families, CnfFormula};
use query::prob::probability_via_obdd;
use query::{lineage_circuit, QueryCompiler};
use sdd::{ApplyStats, SddEval, SddId, SddManager};
use sentential_bench::{maybe_write_json, Record, Table};
use sentential_core::Compiler;
use std::hint::black_box;
use std::time::Instant;
use vtree::VarId;

/// One compiled diagram and the report figures E15 records.
struct Kernel {
    sdd: SddManager,
    root: SddId,
    sdd_size: usize,
    sdd_nodes: usize,
    mem_bytes: usize,
    apply: ApplyStats,
    sdd_ms: f64,
}

/// The [`Kernel`] of a `Compilation` or a `CnfCompilation`: both carry
/// the manager, the root and a report with these fields.
macro_rules! kernel {
    ($compiled:expr) => {{
        let c = $compiled;
        Kernel {
            sdd: c.sdd,
            root: c.root,
            sdd_size: c.report.sdd_size,
            sdd_nodes: c.report.sdd_nodes,
            mem_bytes: c.report.mem_bytes,
            apply: c.report.apply,
            sdd_ms: c.report.timings.sdd.as_secs_f64() * 1e3,
        }
    }};
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "E15: SDD kernel — apply throughput, interning rate, bytes/node{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = Table::new(&[
        "family",
        "n",
        "sdd",
        "nodes",
        "applies",
        "hit%",
        "probes/insert",
        "apply/µs",
        "B/node",
        "sdd ms",
        "cond µs",
        "neg µs",
    ]);
    let mut records = Vec::new();

    // Serving posture: the kernel is the thing under test, not the exact
    // counting stage.
    let compiler = Compiler::builder().exact_counts(false).build();

    let mut run = |label: &str, n: u32, k: Kernel| {
        let Kernel {
            sdd: mut mgr,
            root,
            sdd_size,
            sdd_nodes,
            mem_bytes,
            apply,
            sdd_ms,
        } = k;
        assert!(apply.unique_inserts > 0, "{label} n={n}: nothing interned?");
        assert!(
            apply.unique_probes >= apply.unique_inserts,
            "every insert probes at least once"
        );
        let apply_per_us = apply.apply_calls as f64 / (sdd_ms * 1e3);
        let hit_pct = 100.0 * apply.cache_hits as f64 / apply.apply_calls as f64;
        let probes_per_insert = apply.unique_probes as f64 / apply.unique_inserts as f64;
        let bytes_per_node = mem_bytes as f64 / sdd_nodes as f64;

        // Steady-state engine latency on the compiled diagram: one
        // conditioning per variable (bounded), then a negation round trip.
        let cond_vars = (n as usize).min(64);
        let t0 = Instant::now();
        for i in 0..cond_vars {
            black_box(mgr.condition(root, VarId(i as u32), i % 2 == 0));
        }
        let cond_us = t0.elapsed().as_secs_f64() * 1e6 / cond_vars as f64;
        let t0 = Instant::now();
        let nr = mgr.negate(root);
        assert_eq!(mgr.negate(nr), root, "negation must round-trip");
        let neg_us = t0.elapsed().as_secs_f64() * 1e6 / 2.0;

        // Exact-count sanity on the chain family (cheap sizes only).
        if label == "chain" && n <= 200 {
            assert_eq!(
                mgr.count_models_exact(root),
                families::chain_count(n),
                "chain n={n}: kernel must still count the closed form"
            );
        }

        t.row(&[
            &label,
            &n,
            &sdd_size,
            &sdd_nodes,
            &apply.apply_calls,
            &format!("{hit_pct:.0}"),
            &format!("{probes_per_insert:.2}"),
            &format!("{apply_per_us:.2}"),
            &format!("{bytes_per_node:.0}"),
            &format!("{sdd_ms:.2}"),
            &format!("{cond_us:.1}"),
            &format!("{neg_us:.1}"),
        ]);
        records.push(Record {
            experiment: "E15".into(),
            series: label.into(),
            x: n as u64,
            values: vec![
                ("sdd_size".into(), sdd_size as f64),
                ("sdd_nodes".into(), sdd_nodes as f64),
                ("mem_bytes".into(), mem_bytes as f64),
                ("bytes_per_node".into(), bytes_per_node),
                ("apply_calls".into(), apply.apply_calls as f64),
                ("cache_hits".into(), apply.cache_hits as f64),
                ("unique_probes".into(), apply.unique_probes as f64),
                ("unique_inserts".into(), apply.unique_inserts as f64),
                ("apply_per_us".into(), apply_per_us),
                ("sdd_stage_ms".into(), sdd_ms),
                ("condition_us".into(), cond_us),
                ("negate_us".into(), neg_us),
            ],
        });
    };

    let cnf = |label: &str, n: u32, f: &CnfFormula| {
        kernel!(compiler
            .compile_cnf(f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}")))
    };

    // Chains: vtree depth = n, the worklist engine's deep regime.
    let chain_ns: &[u32] = if smoke { &[200] } else { &[200, 1_000, 5_000] };
    for &n in chain_ns {
        run("chain", n, cnf("chain", n, &families::chain_cnf(n)));
    }
    // Bands: wider decisions, heavier cross products per apply.
    let bands: &[(u32, u32)] = if smoke {
        &[(60, 3)]
    } else {
        &[(60, 3), (120, 3), (60, 4)]
    };
    for &(n, w) in bands {
        let label = format!("band_w{w}");
        run(&label, n, cnf(&label, n, &families::band_cnf(n, w)));
    }
    // Lineages of the unsafe uh(k) over the complete database on domain
    // [d]: x is the lineage's variable count.
    let lineages: &[(usize, usize)] = if smoke { &[(2, 3)] } else { &[(1, 4), (2, 3)] };
    let qc = QueryCompiler::new();
    for &(k, d) in lineages {
        let label = format!("uh{k}_d{d}");
        let (q, schema) = query::families::uh(k);
        let db = query::families::uh_complete_db(&schema, k, d, 0.5);
        let c = qc
            .compiler()
            .compile(&lineage_circuit(&q, &db))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let p = c.probability(|v: VarId| db.prob_of_var(v));
        let oracle = probability_via_obdd(&q, &db);
        assert!(
            (p - oracle).abs() < 1e-9,
            "{label}: sdd {p} vs obdd {oracle}"
        );
        let n = c.report.num_vars as u32;
        run(&label, n, kernel!(c));
    }

    t.print();
    println!(
        "\nInterning stores each element list once (arena) and probes it in place: \
         probes/insert near 1 means\nthe open-addressed table is uncrowded; apply/µs \
         is the frame machine's steady throughput; B/node\ncounts node table + arena \
         + unique table + caches."
    );
    maybe_write_json(&records);
}
