//! E15 — SDD kernel microbenchmark: apply throughput, interning traffic,
//! and bytes/node across the chain and band families.
//!
//! The paper's guarantees bound compiled *size*; this experiment tracks the
//! kernel *constants* the arena overhaul targets — how fast the worklist
//! engine drives apply, how much unique-table probing interning costs, and
//! how many bytes the manager spends per node (element arena + packed
//! caches vs the former node-owned `Vec` storage that duplicated every
//! element list into the unique-table key). Steady-state engine latency is
//! measured separately from compilation: a conditioning sweep and a
//! negation round trip over the compiled diagram.
//!
//! Regenerate: `cargo run --release -p sentential-bench --bin exp_sdd`
//! (`--smoke` for the CI-sized subset, `--json <path>` for records —
//! committed as `BENCH_sdd.json`, diffed by `bench_diff` in CI).

use cnf::{families, CnfFormula};
use sdd::SddEval;
use sentential_bench::{maybe_write_json, Record, Table};
use sentential_core::Compiler;
use std::hint::black_box;
use std::time::Instant;
use vtree::VarId;

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

    let mut run = |label: &str, n: u32, f: &CnfFormula| {
        let compiled = compiler
            .compile_cnf(f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        let r = &compiled.report;
        let apply = r.apply;
        assert!(apply.unique_inserts > 0, "{label} n={n}: nothing interned?");
        assert!(
            apply.unique_probes >= apply.unique_inserts,
            "every insert probes at least once"
        );
        let sdd_ms = r.timings.sdd.as_secs_f64() * 1e3;
        let apply_per_us = apply.apply_calls as f64 / (sdd_ms * 1e3);
        let hit_pct = 100.0 * apply.cache_hits as f64 / apply.apply_calls as f64;
        let probes_per_insert = apply.unique_probes as f64 / apply.unique_inserts as f64;
        let bytes_per_node = r.mem_bytes as f64 / r.sdd_nodes as f64;

        // Steady-state engine latency on the compiled diagram: one
        // conditioning per variable (bounded), then a negation round trip.
        let mut mgr = compiled.sdd;
        let root = compiled.root;
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
            &r.sdd_size,
            &r.sdd_nodes,
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
                ("sdd_size".into(), r.sdd_size as f64),
                ("sdd_nodes".into(), r.sdd_nodes as f64),
                ("mem_bytes".into(), r.mem_bytes as f64),
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

    // Chains: vtree depth = n, the worklist engine's deep regime.
    let chain_ns: &[u32] = if smoke { &[200] } else { &[200, 1_000, 5_000] };
    for &n in chain_ns {
        run("chain", n, &families::chain_cnf(n));
    }
    // Bands: wider decisions, heavier cross products per apply.
    let bands: &[(u32, u32)] = if smoke {
        &[(60, 3)]
    } else {
        &[(60, 3), (120, 3), (60, 4)]
    };
    for &(n, w) in bands {
        run(&format!("band_w{w}"), n, &families::band_cnf(n, w));
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
