//! E16 — the freeze-and-serve regime: a sharded pool of per-client
//! sessions vs one session replaying every client's context, on the same
//! multi-client stream.
//!
//! The workload is C = 8 concurrent clients over **one** compiled and
//! frozen base. Each client holds its own context — a private weight
//! override plus one evidence literal — and streams marginal queries. The
//! architectures under comparison:
//!
//! * **replay (single-threaded):** one `kb::KbSession` serves all clients
//!   interleaved. A session holds exactly one weight vector and one
//!   evidence set, so every client switch replays the incoming client's
//!   full context (retract, restore the previous override, set the new
//!   one, assert the evidence pin) — which bumps the eval-cache epoch and
//!   invalidates the marginals memo, so every query pays a fresh two-pass
//!   sweep.
//! * **frozen × T:** the same slab registered as 8 replicas (one per
//!   client, all `Arc`-sharing it) across a `serve::KbServer` pool of T
//!   shard threads. Each client's context lives in its replica's session,
//!   set once — repeated marginals ride that session's private warm
//!   caches.
//!
//! Every pooled answer is cross-checked **string-identically** (floats
//! travel through Rust's shortest-round-trip `Display`, so string
//! equality is bit equality) against the replay session under the same
//! context. The full run asserts the ≥ 4× aggregate-throughput bar for
//! the 8-shard pool over the single-threaded replay baseline — the gain
//! is architectural (8 persistent warm sessions vs one thrashed cache),
//! so it holds even on a single-core runner; core counts only add to it.
//!
//! Regenerate: `cargo run --release -p sentential-bench --bin exp_serve`
//! (`--smoke` for the CI-sized subset, `--json <path>` for records).

use cnf::{families, CnfFormula};
use kb::KnowledgeBase;
use sentential_bench::{maybe_write_json, Record, Table};
use sentential_core::Compiler;
use serve::{Command, KbServer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vtree::VarId;

/// Concurrent clients (= replicas of the frozen base).
const CLIENTS: usize = 8;
/// Marginal queries each client streams per run. Smoke keeps the full
/// stream and trims only the family set: a shorter batch across 8 shard
/// threads is scheduling-dominated, and the per-query latencies feed the
/// CI bench_diff gate, so the measurement window must stay comparable.
const ROUNDS: usize = 40;
/// Shard-pool sizes swept for the throughput series.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The aggregate-throughput bar the committed `BENCH_serve.json`
/// certifies: 8 shards of per-client sessions vs the single-threaded
/// replay baseline (warm memo hits vs a full sweep per client switch).
const REQUIRED_SPEEDUP: f64 = 4.0;
/// What `--smoke` asserts instead: the mechanism (per-client sessions
/// clearly beat the thrashed replay session), with headroom for CI scheduler
/// noise inside the short smoke windows.
const SMOKE_SPEEDUP: f64 = 2.0;
/// The micro-batch window the window-on axis opens (the workload is fully
/// pipelined, so grouping drains the hot queue and the timer rarely arms).
const BATCH_WINDOW: Duration = Duration::from_micros(100);
/// The window-axis bar the committed `BENCH_serve.json` certifies: eight
/// independent single-query clients on ONE shard must serve ≥ 2× faster
/// with the window open (coalesced lane sweeps) than with it closed
/// (per-job scalar sweeps).
const WINDOW_SPEEDUP: f64 = 2.0;
/// What `--smoke` asserts for the window axis (CI noise headroom).
const WINDOW_SMOKE_SPEEDUP: f64 = 1.3;

/// Deterministic prior of variable `i` (exp_kb's shape).
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

/// Client `c`'s private context: one weight override + one evidence pin.
fn ctx(c: usize, n: u32) -> ((VarId, f64), (VarId, bool)) {
    let v = VarId((c as u32 * 5 + 1) % n);
    let p = 0.1 + 0.8 * ((c * 3 + 1) % 10) as f64 / 10.0;
    ((v, p), (VarId((c as u32 * 11 + 2) % n), true))
}

/// The variable client `c` asks about in round `j` (distinct from its
/// context variables often enough to keep the stream non-degenerate).
fn query_var(c: usize, j: usize, n: u32) -> VarId {
    VarId(((c * 13 + j * 7 + 3) % n as usize) as u32)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds = ROUNDS;
    println!(
        "E16: sharded frozen serving vs one replaying session, {CLIENTS} clients{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = Table::new(&[
        "family",
        "n",
        "sdd",
        "queries",
        "replay q/s",
        "frozen q/s T=1",
        "T=2",
        "T=4",
        "T=8",
        "speedup",
    ]);
    let mut records = Vec::new();

    let mut run = |label: &str, n: u32, f: &CnfFormula, compiler: &Compiler| {
        let queries = CLIENTS * rounds;

        // Compile, weight and freeze once; the baseline and every pool size
        // serve this one slab.
        let mut base = KnowledgeBase::compile_cnf(compiler, f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        for i in 0..n as usize {
            base.set_probability(VarId(i as u32), prior(i)).unwrap();
        }
        let frozen = Arc::new(base.freeze());
        let (sdd_size, mem_bytes) = (frozen.sdd_size(), frozen.memory_bytes());

        // The replay baseline: one session serves the whole interleaved
        // stream, replaying each incoming client's context at every
        // switch.
        let mut replay = frozen.session();
        let mut replay_answers: Vec<String> = Vec::with_capacity(queries);
        let t0 = Instant::now();
        for j in 0..rounds {
            for c in 0..CLIENTS {
                let ((wv, wp), ev) = ctx(c, n);
                // Client switch: restore the previous override, apply ours.
                let ((pv, _), _) = ctx((c + CLIENTS - 1) % CLIENTS, n);
                replay.retract();
                replay.set_probability(pv, prior(pv.0 as usize)).unwrap();
                replay.set_probability(wv, wp).unwrap();
                replay.condition(&[ev]).unwrap();
                let m = replay.marginal(query_var(c, j, n)).unwrap();
                replay_answers.push(format!("ok {}", black_box(m)));
            }
        }
        let replay_s = t0.elapsed().as_secs_f64();
        let replay_qps = queries as f64 / replay_s;

        let mut frozen_qps = Vec::new();
        for &threads in &THREADS {
            let kbs: Vec<_> = (0..CLIENTS).map(|_| Arc::clone(&frozen)).collect();
            let server = KbServer::new(kbs, threads);
            let mut client = server.client();
            // Set each client's context once — it persists in the replica's
            // session, which is the point of the architecture.
            for c in 0..CLIENTS {
                let ((wv, wp), ev) = ctx(c, n);
                client.submit(c, Command::SetProbability(wv, wp)).unwrap();
                client.submit(c, Command::Condition(vec![ev])).unwrap();
            }
            client.sync();
            let t0 = Instant::now();
            for j in 0..rounds {
                for c in 0..CLIENTS {
                    client
                        .submit(c, Command::Marginal(query_var(c, j, n)))
                        .unwrap();
                }
            }
            let responses = client.sync();
            let frozen_s = t0.elapsed().as_secs_f64();
            server.shutdown();
            assert_eq!(responses.len(), queries);
            // Bit-fidelity: the pool's answers are the replay session's
            // answers, replica by replica, in submission order.
            for (i, (_, resp)) in responses.iter().enumerate() {
                assert_eq!(
                    resp, &replay_answers[i],
                    "{label} n={n} T={threads}: query {i} diverged from the replay session"
                );
            }
            frozen_qps.push(queries as f64 / frozen_s);
        }

        let speedup = frozen_qps[THREADS.len() - 1] / replay_qps;
        let required = if smoke {
            SMOKE_SPEEDUP
        } else {
            REQUIRED_SPEEDUP
        };
        assert!(
            speedup >= required,
            "{label} n={n}: the 8-shard frozen pool must serve ≥ {required}× the \
             single-threaded replay baseline, measured {speedup:.1}×"
        );

        t.row(&[
            &label,
            &n,
            &sdd_size,
            &queries,
            &format!("{replay_qps:.0}"),
            &format!("{:.0}", frozen_qps[0]),
            &format!("{:.0}", frozen_qps[1]),
            &format!("{:.0}", frozen_qps[2]),
            &format!("{:.0}", frozen_qps[3]),
            &format!("{speedup:.1}x"),
        ]);
        records.push(Record {
            experiment: "E16".into(),
            series: label.into(),
            x: n as u64,
            values: vec![
                ("sdd_size".into(), sdd_size as f64),
                ("mem_bytes".into(), mem_bytes as f64),
                ("queries".into(), queries as f64),
                ("qps_replay_1thread".into(), replay_qps),
                ("qps_frozen_t1".into(), frozen_qps[0]),
                ("qps_frozen_t2".into(), frozen_qps[1]),
                ("qps_frozen_t4".into(), frozen_qps[2]),
                ("qps_frozen_t8".into(), frozen_qps[3]),
                ("speedup_t8_vs_replay".into(), speedup),
                ("speedup_t8_vs_t1".into(), frozen_qps[3] / frozen_qps[0]),
                // Per-query latencies in µs — the `_us` suffix is what the
                // CI bench_diff hard gate keys on.
                ("replay_query_us".into(), 1e6 / replay_qps),
                ("frozen_t8_query_us".into(), 1e6 / frozen_qps[3]),
            ],
        });
    };

    // The strategy-matrix families (exp_kb's shapes), plus a deep chain in
    // serving posture (exact up-front counting off — quadratic at depth).
    let default_compiler = Compiler::new();
    // chain 60 runs in both modes so the CI bench_diff gate always has
    // shared keys between the committed full run and the smoke run.
    let chain_ns: &[u32] = if smoke { &[60] } else { &[60, 120, 240] };
    for &n in chain_ns {
        run("chain", n, &families::chain_cnf(n), &default_compiler);
    }
    if !smoke {
        run("band_w4", 60, &families::band_cnf(60, 4), &default_compiler);
        let serving = Compiler::builder().exact_counts(false).build();
        run("chain_deep", 2_000, &families::chain_cnf(2_000), &serving);
    }

    t.print();
    let bar = if smoke {
        SMOKE_SPEEDUP
    } else {
        REQUIRED_SPEEDUP
    };
    println!(
        "\nEvery pooled answer is string-identical (= bit-identical) to the replay \
         session's, and every family clears the ≥ {bar}× aggregate-throughput bar: \
         eight per-client sessions keep eight warm caches where one replaying \
         session thrashes a single one."
    );

    // ---- The micro-batch window axis (protocol v4) ----------------------
    //
    // Eight independent clients, each on its own forked handle with its
    // own baseline replica of ONE slab, all routed to ONE shard, streaming
    // fully pipelined single-literal `query` requests. Window off: the
    // worker answers job by job (scalar sweeps, per-job overhead). Window
    // on: the worker coalesces the hot queue into cross-client groups and
    // answers each group as one lane sweep. Same thread count, same
    // workload — the speedup is pure coalescing.
    println!("\nE16b: adaptive micro-batch window, {CLIENTS} clients on one shard\n");
    let mut tw = Table::new(&[
        "family",
        "n",
        "queries",
        "qps window off",
        "qps window on",
        "coalesced",
        "speedup",
    ]);
    let mut run_window = |label: &str, n: u32, f: &CnfFormula, compiler: &Compiler| {
        let queries = CLIENTS * rounds;
        let mut base = KnowledgeBase::compile_cnf(compiler, f)
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        for i in 0..n as usize {
            base.set_probability(VarId(i as u32), prior(i)).unwrap();
        }
        let frozen = Arc::new(base.freeze());
        let lit_of = |c: usize, j: usize| (query_var(c, j, n), (c + j).is_multiple_of(2));

        // Both servers: one shard, one replica per client, baseline
        // posture throughout (queries never mutate the sessions).
        let kbs: Vec<_> = (0..CLIENTS).map(|_| Arc::clone(&frozen)).collect();
        let server_off = KbServer::new(kbs.clone(), 1);
        let server_on = KbServer::with_batch_window(kbs, 1, BATCH_WINDOW);

        // Bit-identity gate BEFORE any timing: one full round through each
        // server, every line compared against the scalar session answer.
        let mut oracle = frozen.session();
        for server in [&server_off, &server_on] {
            let mut handles: Vec<_> = (0..CLIENTS).map(|_| server.client()).collect();
            for (c, h) in handles.iter_mut().enumerate() {
                for j in 0..rounds {
                    h.submit(c, Command::Query(vec![lit_of(c, j)])).unwrap();
                }
            }
            for (c, h) in handles.iter_mut().enumerate() {
                for (j, (_, line)) in h.sync().into_iter().enumerate() {
                    let want = format!("ok {}", oracle.query(&[lit_of(c, j)]).unwrap());
                    assert_eq!(
                        line, want,
                        "{label} n={n} client {c} round {j}: answer diverged from \
                         the scalar path"
                    );
                }
            }
        }

        // Timed: the same pipelined stream, per server.
        let mut qps = Vec::new();
        let mut coalesced = 0u64;
        for (wi, server) in [&server_off, &server_on].into_iter().enumerate() {
            let mut handles: Vec<_> = (0..CLIENTS).map(|_| server.client()).collect();
            let t0 = Instant::now();
            for (c, h) in handles.iter_mut().enumerate() {
                for j in 0..rounds {
                    h.submit(c, Command::Query(vec![lit_of(c, j)])).unwrap();
                }
            }
            let mut answered = 0usize;
            for h in &mut handles {
                answered += h.sync().len();
            }
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(answered, queries);
            qps.push(queries as f64 / secs);
            if wi == 1 {
                let stats = handles[0].stats();
                coalesced = serve::ShardStats::merged(&stats).coalesced;
            }
        }
        server_off.shutdown();
        server_on.shutdown();
        assert!(
            coalesced > 0,
            "{label} n={n}: a pipelined 8-client stream through an open window \
             must coalesce"
        );
        let speedup = qps[1] / qps[0];
        let required = if smoke {
            WINDOW_SMOKE_SPEEDUP
        } else {
            WINDOW_SPEEDUP
        };
        assert!(
            speedup >= required,
            "{label} n={n}: the open window must serve ≥ {required}× the closed \
             window on one shard, measured {speedup:.2}×"
        );
        tw.row(&[
            &label,
            &n,
            &queries,
            &format!("{:.0}", qps[0]),
            &format!("{:.0}", qps[1]),
            &coalesced,
            &format!("{speedup:.1}x"),
        ]);
        records.push(Record {
            experiment: "E16b".into(),
            series: format!("window_{label}"),
            x: n as u64,
            values: vec![
                ("queries".into(), queries as f64),
                ("qps_window_off".into(), qps[0]),
                ("qps_window_on".into(), qps[1]),
                ("coalesced".into(), coalesced as f64),
                ("window_speedup".into(), speedup),
                // Per-query latencies in µs — the `_us` suffix is what the
                // CI bench_diff hard gate keys on.
                ("window_off_query_us".into(), 1e6 / qps[0]),
                ("window_on_query_us".into(), 1e6 / qps[1]),
            ],
        });
    };

    for &n in chain_ns {
        run_window("chain", n, &families::chain_cnf(n), &default_compiler);
    }
    if !smoke {
        let serving = Compiler::builder().exact_counts(false).build();
        run_window("chain_deep", 2_000, &families::chain_cnf(2_000), &serving);
    }
    tw.print();
    let wbar = if smoke {
        WINDOW_SMOKE_SPEEDUP
    } else {
        WINDOW_SPEEDUP
    };
    println!(
        "\nWindow-on answers were asserted bit-identical to the scalar path before \
         any timing, and every family clears the ≥ {wbar}× window speedup bar on \
         one shard: coalesced cross-client lane sweeps amortize what per-job \
         scalar sweeps pay {CLIENTS} times over."
    );
    maybe_write_json(&records);
}
