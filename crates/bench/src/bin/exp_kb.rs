//! E14 — the compile-once/serve-many regime: warm `kb::KbSession`
//! queries vs recompile-per-query.
//!
//! For each strategy-matrix CNF family the experiment compiles and freezes
//! **one** knowledge base, then serves from one session a stream of
//! marginal queries where every
//! query first perturbs one variable's weight (so the marginals memo is
//! really invalidated and each query pays a full two-pass sweep, not a
//! memoized answer) — against the baseline that recompiles the formula
//! from scratch for every query, the way the pre-KB pipeline had to. The answers are cross-checked against
//! each other, MPE / top-k / condition-retract cycles are timed on the
//! warm base, and the run **asserts** the ≥ 10× warm speedup the serving
//! layer exists for.
//!
//! The `batch_size` axis rides along: after the scalar menu, a fresh
//! session serves the same stream shape (one perturbing literal per query) is
//! served as evidence-set batches of B = 1 / 8 / 64 lanes through
//! [`kb::KbSession::marginal_batch`] — the per-lane latency curve that
//! E19 (`exp_batch`) certifies at the 5× bar.
//!
//! Regenerate: `cargo run --release -p sentential-bench --bin exp_kb`
//! (`--smoke` for the CI-sized subset, `--json <path>` for records).

use cnf::{families, CnfFormula};
use kb::{KnowledgeBase, Lit};
use sentential_bench::{maybe_write_json, Record, Table};
use sentential_core::Compiler;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vtree::VarId;

/// Queries served against the warm base per family.
const WARM_QUERIES: usize = 32;
/// Recompile-per-query baseline samples (averaged; fewer, they are slow).
const RECOMPILE_QUERIES: usize = 6;
/// The speedup a full run certifies (the committed `BENCH_kb.json`
/// evidence; measured 20–77× locally).
const REQUIRED_SPEEDUP: f64 = 10.0;
/// The sanity floor `--smoke` asserts instead: CI runners are noisy
/// enough that a scheduler stall inside the ~millisecond warm window can
/// halve the measured ratio, and the same workflow's `bench_diff` step is
/// warn-only for exactly that reason — smoke checks the *mechanism*
/// (warm clearly beats recompile), the full run checks the *number*.
const SMOKE_SPEEDUP: f64 = 3.0;
/// Evidence sets served per batch size on the `batch_size` axis (enough
/// for two full 64-lane batches).
const BATCH_STREAM: usize = 128;
/// The batch widths of the `batch_size` axis.
const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// Deterministic prior of variable `i`.
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

/// Deterministic perturbed probability for query `j`.
fn perturbed(j: usize) -> f64 {
    0.1 + 0.8 * ((j * 3) % 10) as f64 / 10.0
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "E14: warm knowledge-base queries vs recompile-per-query{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = Table::new(&[
        "family",
        "n",
        "sdd",
        "ac gates",
        "compile ms",
        "warm q µs",
        "recompile q µs",
        "speedup",
        "mpe µs",
        "top-5 µs",
        "evidence µs",
        "b1 µs",
        "b8 µs",
        "b64 µs",
    ]);
    let mut records = Vec::new();

    let mut run = |label: &str, n: u32, f: &CnfFormula, compiler: &Compiler| {
        let nv = f.num_vars() as usize;

        // Compile once, weight once, freeze (the AC unfolds inside the
        // compile cost): the serving session under test.
        let t0 = Instant::now();
        let mut kb = KnowledgeBase::compile_cnf(compiler, f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        for i in 0..nv {
            kb.set_probability(VarId(i as u32), prior(i)).unwrap();
        }
        let frozen = Arc::new(kb.freeze());
        let mut s = frozen.session();
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Warm stream: perturb one weight, ask one marginal — each query
        // re-runs the two-pass sweep over the unfolded circuit (the memo
        // is epoch-invalidated), but never recompiles.
        let t0 = Instant::now();
        let mut last_warm = 0.0;
        for j in 0..WARM_QUERIES {
            let v = VarId((j % nv) as u32);
            s.set_probability(v, perturbed(j)).unwrap();
            last_warm = black_box(s.marginal(v).unwrap());
        }
        let warm_us = t0.elapsed().as_secs_f64() * 1e6 / WARM_QUERIES as f64;

        // Baseline: the same queries, recompiling the formula every time —
        // the only option before the serving layer existed.
        let t0 = Instant::now();
        let mut last_cold = 0.0;
        for j in WARM_QUERIES - RECOMPILE_QUERIES..WARM_QUERIES {
            let v = VarId((j % nv) as u32);
            let mut cold = KnowledgeBase::compile_cnf(compiler, f)
                .unwrap_or_else(|e| panic!("{label} n={n} (recompile): {e}"));
            for i in 0..nv {
                cold.set_probability(VarId(i as u32), prior(i)).unwrap();
            }
            // Replay the weight history the warm base accumulated.
            for jj in 0..=j {
                cold.set_probability(VarId((jj % nv) as u32), perturbed(jj))
                    .unwrap();
            }
            let mut cold = Arc::new(cold.freeze()).session();
            last_cold = black_box(cold.marginal(v).unwrap());
        }
        let recompile_us = t0.elapsed().as_secs_f64() * 1e6 / RECOMPILE_QUERIES as f64;
        assert!(
            (last_warm - last_cold).abs() < 1e-9,
            "{label} n={n}: warm ({last_warm}) and recompiled ({last_cold}) marginals must agree"
        );

        let speedup = recompile_us / warm_us;
        let required = if smoke {
            SMOKE_SPEEDUP
        } else {
            REQUIRED_SPEEDUP
        };
        assert!(
            speedup >= required,
            "{label} n={n}: warm queries must be ≥ {required}× faster than \
             recompile-per-query, measured {speedup:.1}×"
        );

        // The rest of the query menu on the warm base.
        let t0 = Instant::now();
        let mpe = s.mpe().unwrap();
        let mpe_us = t0.elapsed().as_secs_f64() * 1e6;
        assert!(mpe.log_weight.is_finite());
        let t0 = Instant::now();
        let top = s.enumerate_models(5);
        let topk_us = t0.elapsed().as_secs_f64() * 1e6;
        assert!(!top.is_empty());
        assert!(
            (top[0].log_weight - mpe.log_weight).abs() < 1e-9,
            "top-1 = MPE"
        );
        let t0 = Instant::now();
        let pivot = VarId(((nv / 2) % nv) as u32);
        s.condition(&[(pivot, true)]).unwrap();
        let conditioned = s.marginal(pivot).unwrap();
        s.retract();
        let evidence_us = t0.elapsed().as_secs_f64() * 1e6;
        assert!((conditioned - 1.0).abs() < 1e-9, "pinned marginal is 1");

        let (sdd_size, ac_gates) = (frozen.sdd_size(), frozen.unfolded_size());
        // Slab memory after the whole query mix: sessions intern no node,
        // so this is the frozen slab's size.
        let mem_bytes = frozen.memory_bytes();

        // The batch_size axis: a fresh session (the frozen weights, not the
        // perturbed ones) serves the same stream shape (one perturbing
        // literal per query) as evidence-set batches — every lane of a
        // batch is one query, answered in a single lane-parallel up+down
        // sweep.
        let mut s = frozen.session();
        let target = VarId((nv / 2) as u32 % nv as u32);
        let stream: Vec<Vec<Lit>> = (0..BATCH_STREAM)
            .map(|j| vec![(VarId((j % nv) as u32), j % 2 == 0)])
            .collect();
        let mut batch_us = [0.0f64; BATCH_SIZES.len()];
        for (bi, &bsz) in BATCH_SIZES.iter().enumerate() {
            let t0 = Instant::now();
            for chunk in stream.chunks(bsz) {
                for r in black_box(s.marginal_batch(target, chunk)) {
                    r.unwrap_or_else(|e| panic!("{label} n={n} batch {bsz}: {e}"));
                }
            }
            batch_us[bi] = t0.elapsed().as_secs_f64() * 1e6 / BATCH_STREAM as f64;
        }

        t.row(&[
            &label,
            &n,
            &sdd_size,
            &ac_gates,
            &format!("{compile_ms:.2}"),
            &format!("{warm_us:.1}"),
            &format!("{recompile_us:.1}"),
            &format!("{speedup:.1}x"),
            &format!("{mpe_us:.1}"),
            &format!("{topk_us:.1}"),
            &format!("{evidence_us:.1}"),
            &format!("{:.1}", batch_us[0]),
            &format!("{:.1}", batch_us[1]),
            &format!("{:.1}", batch_us[2]),
        ]);
        records.push(Record {
            experiment: "E14".into(),
            series: label.into(),
            x: n as u64,
            values: vec![
                ("sdd_size".into(), sdd_size as f64),
                ("ac_gates".into(), ac_gates as f64),
                ("mem_bytes".into(), mem_bytes as f64),
                ("compile_ms".into(), compile_ms),
                ("warm_query_us".into(), warm_us),
                ("recompile_query_us".into(), recompile_us),
                ("speedup".into(), speedup),
                ("mpe_us".into(), mpe_us),
                ("topk_us".into(), topk_us),
                ("evidence_cycle_us".into(), evidence_us),
                ("batch1_query_us".into(), batch_us[0]),
                ("batch8_query_us".into(), batch_us[1]),
                ("batch64_query_us".into(), batch_us[2]),
            ],
        });
    };

    // The strategy-matrix families: chains (treewidth 1) and bands
    // (treewidth w-1), the same shapes exp_mc counts.
    let default_compiler = Compiler::new();
    let chain_ns: &[u32] = if smoke { &[60] } else { &[60, 120, 240] };
    for &n in chain_ns {
        run("chain", n, &families::chain_cnf(n), &default_compiler);
    }
    let bands: &[(u32, u32)] = if smoke {
        &[(30, 3)]
    } else {
        &[(30, 3), (60, 3), (60, 4)]
    };
    for &(n, w) in bands {
        run(
            &format!("band_w{w}"),
            n,
            &families::band_cnf(n, w),
            &default_compiler,
        );
    }

    // Deep chains: vtree depth = variable count, the worklist engines'
    // home turf (the recursive engines needed a wide custom stack here;
    // these run on the process default). Serving posture: the exact
    // BigUint counting stage is off — it is quadratic at this depth and a
    // serving session counts on demand.
    let serving_compiler = Compiler::builder().exact_counts(false).build();
    let deep_ns: &[u32] = if smoke { &[1_000] } else { &[2_000, 5_000] };
    for &n in deep_ns {
        run("chain_deep", n, &families::chain_cnf(n), &serving_compiler);
    }

    t.print();
    let bar = if smoke {
        SMOKE_SPEEDUP
    } else {
        REQUIRED_SPEEDUP
    };
    println!(
        "\nEvery warm marginal agrees with its recompiled twin to 1e-9, and every family \
         clears the ≥ {bar}× warm-vs-recompile bar: the compilation is paid once, \
         the queries ride the epoch cache."
    );
    maybe_write_json(&records);
}
