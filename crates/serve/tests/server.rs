//! End-to-end server smoke: one frozen base replicated across shards must
//! answer a concurrent query batch **bit-identically** to one sequential
//! [`kb::KbSession`] — floats travel the wire through Rust's
//! shortest-round-trip `Display`, so string equality here is bit equality
//! of the underlying `f64`s.

use kb::{KbSession, KnowledgeBase};
use sentential_core::Compiler;
use serve::{parse_request, Command, KbServer, Request};
use std::sync::Arc;
use std::time::Duration;
use vtree::VarId;

fn v(i: u32) -> VarId {
    VarId(i)
}

/// Deterministic prior of variable `i` (the bench's shape).
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

fn chain_kb(n: u32) -> KnowledgeBase {
    let f = cnf::families::chain_cnf(n);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
    for i in 0..n as usize {
        kb.set_probability(v(i as u32), prior(i)).unwrap();
    }
    kb
}

/// A fresh sequential session over the same chain — the oracle.
fn chain_session(n: u32) -> KbSession {
    Arc::new(chain_kb(n).freeze()).session()
}

#[test]
fn replicated_shards_answer_bit_identically_to_the_sequential_path() {
    const N: u32 = 40;
    const REPLICAS: usize = 8;
    let frozen = Arc::new(chain_kb(N).freeze());
    let kbs: Vec<Arc<kb::FrozenKb>> = (0..REPLICAS).map(|_| Arc::clone(&frozen)).collect();
    let server = KbServer::new(kbs, 4);
    let mut client = server.client();
    assert_eq!(client.num_shards(), 4);
    assert_eq!(client.num_kbs(), REPLICAS);

    // Fire the whole batch before collecting anything: every replica gets
    // a marginal, a conjunction query, a log-weight, and a count, all
    // in flight at once across the 4 shard workers.
    let mut expected = Vec::new();
    let mut seqs = Vec::new();
    for r in 0..REPLICAS {
        let m = v((3 + 5 * r as u32) % N);
        let q = [(v((7 * r as u32 + 1) % N), r % 2 == 0)];
        seqs.push(client.submit(r, Command::Marginal(m)).unwrap());
        seqs.push(client.submit(r, Command::Query(q.to_vec())).unwrap());
        seqs.push(client.submit(r, Command::LogWeight).unwrap());
        seqs.push(client.submit(r, Command::Count).unwrap());
        expected.push((m, q));
    }
    let responses = client.sync();
    assert_eq!(responses.len(), 4 * REPLICAS);

    // One sequential session answers the same queries.
    let mut oracle = chain_session(N);
    let mut iter = responses.into_iter();
    for (r, &(m, q)) in expected.iter().enumerate() {
        let (s0, a_marginal) = iter.next().unwrap();
        let (_, a_query) = iter.next().unwrap();
        let (_, a_logw) = iter.next().unwrap();
        let (_, a_count) = iter.next().unwrap();
        assert_eq!(s0, seqs[4 * r]);
        assert_eq!(a_marginal, format!("ok {}", oracle.marginal(m).unwrap()));
        assert_eq!(a_query, format!("ok {}", oracle.query(&q).unwrap()));
        assert_eq!(a_logw, format!("ok {}", oracle.log_weight()));
        assert_eq!(a_count, format!("ok {}", oracle.count_models()));
    }

    // Per-shard stats cover the whole batch, and the merged roll-up sums
    // every shard.
    let stats = client.stats();
    assert_eq!(stats.len(), 4);
    let served: u64 = stats.iter().map(|s| s.served).sum();
    assert_eq!(served, 4 * REPLICAS as u64);
    assert!(stats.iter().all(|s| s.kbs == REPLICAS / 4));
    assert!(stats.iter().any(|s| s.eval_lookups > 0));
    let merged = serve::ShardStats::merged(&stats);
    assert_eq!(merged.served, served);
    assert_eq!(merged.kbs, REPLICAS);
    let final_stats = server.shutdown();
    assert_eq!(final_stats.len(), 4);
}

#[test]
fn session_state_is_sticky_per_replica() {
    let frozen = Arc::new(chain_kb(16).freeze());
    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::new(kbs, 2);
    let mut client = server.client();

    // Replica 0 asserts evidence; replica 1 must stay at the baseline.
    client
        .submit(0, Command::Condition(vec![(v(2), true)]))
        .unwrap();
    client.submit(0, Command::LogWeight).unwrap();
    client.submit(1, Command::LogWeight).unwrap();
    let responses = client.sync();
    assert_eq!(responses[0].1, "ok");

    let mut oracle = chain_session(16);
    let baseline = format!("ok {}", oracle.log_weight());
    oracle.condition(&[(v(2), true)]).unwrap();
    let conditioned = format!("ok {}", oracle.log_weight());
    assert_eq!(responses[1].1, conditioned);
    assert_eq!(responses[2].1, baseline);
    assert_ne!(conditioned, baseline);

    // Retract restores the frozen baseline on the conditioned replica.
    client.submit(0, Command::Retract).unwrap();
    client.submit(0, Command::LogWeight).unwrap();
    let responses = client.sync();
    assert_eq!(responses[1].1, baseline);
    server.shutdown();
}

#[test]
fn wire_protocol_round_trips_through_parse_and_answer() {
    let frozen = Arc::new(chain_kb(8).freeze());
    let server = KbServer::new(vec![frozen], 1);
    let mut client = server.client();
    let script = [
        "kb 0 marginal 3",
        "kb 0 condition 2 -5",
        "kb 0 consistent",
        "kb 0 count",
        "kb 0 entails 2",
        "kb 0 mpe",
        "kb 0 top 3",
        "kb 0 pe",
        "kb 0 retract",
        "kb 0 setp 1 0.5",
        "kb 0 marginals",
    ];
    for line in script {
        match parse_request(line).unwrap().unwrap() {
            Request::Query { kb, cmd } => {
                client.submit(kb, cmd).unwrap();
            }
            other => panic!("unexpected request {other:?}"),
        }
    }
    let responses = client.sync();
    assert_eq!(responses.len(), script.len());
    for (i, (_, resp)) in responses.iter().enumerate() {
        assert!(
            resp.starts_with("ok"),
            "script line {:?} answered {resp:?}",
            script[i]
        );
    }
    // Evidence asserted over the wire really bites: x2 entailed after
    // `condition 2`.
    assert_eq!(responses[4].1, "ok true");
    // Bad kb ids surface as submit errors, not worker panics.
    assert!(client.submit(7, Command::LogWeight).is_err());
    server.shutdown();
}

#[test]
fn pool_metrics_cover_kernel_kb_and_serve_families() {
    let frozen = Arc::new(chain_kb(12).freeze());

    // Boot-time families (compile stages, widths, per-kb sizes) come from
    // the base; per-query families from the shard sessions.
    let boot = obs::MetricsRegistry::new();
    frozen.publish_boot_metrics(&boot, 0);

    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::new(kbs, 2);
    let mut client = server.client();
    for r in 0..2 {
        client.submit(r, Command::Marginal(v(3))).unwrap();
        client.submit(r, Command::AllMarginals).unwrap();
        client.submit(r, Command::LogWeight).unwrap();
    }
    let text = client.metrics_text(Some(&boot.snapshot()));

    // Kernel tier (apply/unique-table, published from compile provenance).
    assert!(text.contains("sdd_apply_calls_total"), "{text}");
    // Compile tier: stage timings and the paper's width parameters (the
    // chain base compiles on the CNF lane).
    assert!(
        text.contains("compile_stage_us_count{lane=\"cnf\""),
        "{text}"
    );
    assert!(text.contains("compile_last_width{param=\"sdw\"}"), "{text}");
    // Kb tier: per-kind latency histograms and eval-cache counters.
    assert!(
        text.contains("kb_query_us_count{kind=\"marginal\"}"),
        "{text}"
    );
    assert!(text.contains("kb_query_us_count{kind=\"logw\"}"), "{text}");
    assert!(
        text.contains("kb_eval_lookups_total{kind=\"logw\"}"),
        "{text}"
    );
    assert!(text.contains("kb_vars{kb=\"0\"}"), "{text}");
    // Serve tier: per-shard families plus the shard="all" roll-up.
    assert!(
        text.contains("serve_requests_total{shard=\"0\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("serve_requests_total{shard=\"1\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("serve_requests_total{shard=\"all\"} 6"),
        "{text}"
    );
    assert!(text.contains("serve_kbs{shard=\"all\"} 2"), "{text}");
    assert!(
        text.contains("serve_queue_wait_us_total{shard=\"all\"}"),
        "{text}"
    );

    // Prometheus shape: every family gets exactly one TYPE line even with
    // several label sets.
    assert_eq!(
        text.matches("# TYPE serve_requests_total counter").count(),
        1,
        "{text}"
    );
    server.shutdown();
}

#[test]
fn slow_log_retains_traces_that_the_trace_verb_can_look_up() {
    let frozen = Arc::new(chain_kb(12).freeze());
    let server = KbServer::new(vec![frozen], 1);
    let mut client = server.client();
    for _ in 0..4 {
        client.submit(0, Command::AllMarginals).unwrap();
        client.submit(0, Command::Mpe).unwrap();
    }
    let _ = client.sync();

    let worst = client.slow_traces();
    assert!(
        !worst.is_empty(),
        "queries must leave traces in the pool log"
    );
    // Slowest-first ordering, and every retained trace is addressable.
    for pair in worst.windows(2) {
        assert!(pair[0].total >= pair[1].total);
    }
    let head = &worst[0];
    let fetched = client.trace(head.id).expect("retained trace by id");
    assert_eq!(fetched.id, head.id);
    assert_eq!(fetched.to_json(), head.to_json());
    // Labels are the wire-level query kinds; stages carry timings.
    assert!(worst
        .iter()
        .all(|t| t.label == "marginals" || t.label == "mpe"));
    assert!(client.trace(u64::MAX).is_none());
    server.shutdown();
}

/// A coalesced cross-client group must answer every member bit-identically
/// to the scalar (window-off) path, and a poisoned lane — one naming an
/// unknown variable — must err alone: the seven lanes around it keep
/// their exact scalar answers (including the zero-weight contradiction).
#[test]
fn coalesced_groups_isolate_poisoned_lanes_bit_identically() {
    const N: u32 = 16;
    let frozen = Arc::new(chain_kb(N).freeze());

    // Eight single-query requests: lane 3 is poisoned (it names a variable
    // the base has never heard of), lane 6 is a contradiction (weight 0).
    let requests: Vec<Vec<(VarId, bool)>> = vec![
        vec![(v(0), true)],
        vec![(v(2), false), (v(5), true)],
        vec![(v(7), true)],
        vec![(v(99), true)], // poisoned: unknown variable
        vec![(v(9), false)],
        vec![(v(11), true), (v(1), true)],
        vec![(v(4), true), (v(4), false)], // contradiction: weight zero
        vec![(v(14), false)],
    ];

    // Scalar oracle: the same wire requests through a window-off pool.
    let scalar = KbServer::new(vec![Arc::clone(&frozen)], 1);
    let mut scalar_client = scalar.client();
    for q in &requests {
        scalar_client.submit(0, Command::Query(q.clone())).unwrap();
    }
    let scalar_lines: Vec<String> = scalar_client.sync().into_iter().map(|(_, l)| l).collect();
    scalar.shutdown();
    assert!(scalar_lines[3].starts_with("err"), "{:?}", scalar_lines[3]);
    assert_eq!(scalar_lines[6], "ok 0", "contradiction has weight zero");

    // Windowed pool, one shard: each request arrives on its own client
    // handle, so the group the worker coalesces spans eight clients.
    let server =
        KbServer::with_batch_window(vec![Arc::clone(&frozen)], 1, Duration::from_millis(200));
    let mut handles: Vec<_> = requests.iter().map(|_| server.client()).collect();
    for (h, q) in handles.iter_mut().zip(&requests) {
        h.submit(0, Command::Query(q.clone())).unwrap();
    }
    let grouped: Vec<String> = handles
        .iter_mut()
        .map(|h| {
            let (seq, line) = h.recv().expect("answer per client");
            assert_eq!(seq, 0, "each handle has a private sequence space");
            line
        })
        .collect();
    assert_eq!(grouped, scalar_lines);

    // The window really grouped across clients (the healthy lanes around
    // the poisoned ones rode one sweep).
    let mut control = server.client();
    let stats = control.stats();
    let merged = serve::ShardStats::merged(&stats);
    assert_eq!(merged.served, requests.len() as u64);
    assert!(
        merged.coalesced > 0,
        "window open + eight queued clients must coalesce"
    );
    let text = control.metrics_text(None);
    assert!(
        text.contains("serve_coalesced_total{shard=\"all\"}"),
        "{text}"
    );
    assert!(
        text.contains("serve_batch_depth_count{shard=\"0\"}"),
        "{text}"
    );
    assert!(
        text.contains("serve_window_wait_us_total{shard=\"all\"}"),
        "{text}"
    );
    server.shutdown();
}

/// Forked client handles have private sequence spaces and reply channels:
/// interleaved submissions over one shard pool never leak answers across
/// handles, and cross-kb groups (replicas of one slab at baseline posture)
/// stay bit-identical to the scalar path.
#[test]
fn concurrent_client_handles_demux_their_own_answers() {
    const N: u32 = 16;
    let frozen = Arc::new(chain_kb(N).freeze());
    let kbs = vec![Arc::clone(&frozen), Arc::clone(&frozen)];
    let server = KbServer::with_batch_window(kbs, 1, Duration::from_millis(100));
    let mut alice = server.client();
    let mut bob = server.client();

    // Alice queries kb 0, Bob queries kb 1 (a replica of the same slab):
    // both sides use the same sequence numbers on purpose.
    let mut oracle = chain_session(N);
    let mut expect_alice = Vec::new();
    let mut expect_bob = Vec::new();
    for i in 0..6u32 {
        let qa = [(v(i), true)];
        let qb = [(v(i + 8), false)];
        alice.submit(0, Command::Query(qa.to_vec())).unwrap();
        bob.submit(1, Command::Query(qb.to_vec())).unwrap();
        expect_alice.push(format!("ok {}", oracle.query(&qa).unwrap()));
        expect_bob.push(format!("ok {}", oracle.query(&qb).unwrap()));
    }
    let got_bob: Vec<String> = bob.sync().into_iter().map(|(_, l)| l).collect();
    let got_alice: Vec<String> = alice.sync().into_iter().map(|(_, l)| l).collect();
    assert_eq!(got_alice, expect_alice);
    assert_eq!(got_bob, expect_bob);
    assert_eq!(alice.outstanding(), 0);
    assert_eq!(bob.outstanding(), 0);
    server.shutdown();
}

#[test]
fn batch_requests_answer_bit_identically_to_the_scalar_wire() {
    let frozen = Arc::new(chain_kb(24).freeze());
    let server = KbServer::new(vec![frozen], 2);
    let mut client = server.client();

    // An all-`query` batch (the lane-parallel fast path) must render the
    // exact lines the same sub-commands produce when submitted one by one.
    let line = "batch 0 query 1 -2 ; query 5 ; query 3 9 -11 ; query -24";
    let Some(Request::Batch { kb, cmds }) = parse_request(line).unwrap() else {
        panic!("batch line must parse as a batch request");
    };
    let scalar_seqs: Vec<u64> = cmds
        .iter()
        .map(|c| client.submit(kb, c.clone()).unwrap())
        .collect();
    let batch_seq = client.submit_batch(kb, cmds.clone()).unwrap();
    let responses = client.sync();
    assert_eq!(responses.len(), scalar_seqs.len() + 1);
    let batch_line = &responses
        .iter()
        .find(|(s, _)| *s == batch_seq)
        .expect("batch response present")
        .1;
    let mut expected = format!("ok batch {}", cmds.len());
    for &s in &scalar_seqs {
        expected.push_str(" ; ");
        expected.push_str(&responses.iter().find(|(q, _)| *q == s).unwrap().1);
    }
    assert_eq!(batch_line, &expected);

    // A heterogeneous batch runs sequentially on the owning session, so
    // mid-batch state changes bite the later sub-commands.
    let line = "batch 0 logw ; condition 2 ; logw ; query 7 ; retract ; logw";
    let Some(Request::Batch { kb, cmds }) = parse_request(line).unwrap() else {
        panic!("mixed batch line must parse");
    };
    client.submit_batch(kb, cmds).unwrap();
    let responses = client.sync();
    let mut oracle = chain_session(24);
    let base = oracle.log_weight();
    oracle.condition(&[(v(1), true)]).unwrap();
    let conditioned = oracle.log_weight();
    let q = oracle.query(&[(v(6), true)]).unwrap();
    assert_eq!(
        responses[0].1,
        format!("ok batch 6 ; ok {base} ; ok ; ok {conditioned} ; ok {q} ; ok ; ok {base}")
    );

    // Batch stats: one request served per batch, eval cost aggregated.
    let stats = client.stats();
    let merged = serve::ShardStats::merged(&stats);
    assert_eq!(merged.served, 4 + 2);
    assert!(merged.eval_lookups > 0);
    assert!(merged.busy > std::time::Duration::ZERO);
    server.shutdown();
}

/// Sessions intern nothing: 10k structurally distinct `condition` and
/// `entails` queries (5k rounds, each retracted) through the serving path
/// leave the frozen slab's resident size exactly where it was, and the
/// pool's `sdd_mem_bytes` gauge (set from every query's stats) reads that
/// same size at the end. A smoke check of the serving contract, not a
/// leak detector: the slab sits behind an `Arc` with no interior
/// mutability, so its size cannot change by construction, and
/// session-private state is not measured here.
#[test]
fn ten_thousand_distinct_structural_queries_leave_memory_flat() {
    const N: u32 = 24;
    const ROUNDS: u32 = 5_000;
    let frozen = Arc::new(chain_kb(N).freeze());
    let before = frozen.memory_bytes();
    let server = KbServer::new(vec![Arc::clone(&frozen)], 1);
    let mut client = server.client();
    // Round i's three literals: i's base-N digits as variables, its low
    // bits as polarities — no two rounds ask the same thing.
    let lits = |i: u32, flip: bool| -> Vec<(VarId, bool)> {
        (0..3)
            .map(|d| (v(i / N.pow(d) % N), (i >> d & 1 == 0) != flip))
            .collect()
    };
    let mut answered = 0;
    for i in 0..ROUNDS {
        client.submit(0, Command::Condition(lits(i, true))).unwrap();
        client.submit(0, Command::Entails(lits(i, false))).unwrap();
        client.submit(0, Command::Retract).unwrap();
        if i % 1000 == 999 {
            answered += client.sync().len();
        }
    }
    assert_eq!(answered, 3 * ROUNDS as usize);
    assert_eq!(frozen.memory_bytes(), before);
    let text = client.metrics_text(None);
    let gauge = format!("sdd_mem_bytes {before}");
    assert!(text.lines().any(|l| l == gauge), "{text}");
    server.shutdown();
}
