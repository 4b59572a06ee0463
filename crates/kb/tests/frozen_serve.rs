//! Concurrent-read stress: 8 threads over one frozen slab, every answer
//! cross-checked **bit-for-bit** against one sequential session.
//!
//! Each thread opens its own [`kb::KbSession`] on a shared
//! [`kb::FrozenKb`], asserts a thread-specific evidence script, runs the
//! full query menu, retracts, and repeats — while seven other threads do
//! the same with *different* evidence over the very same `Arc`'d slab.
//! The expected answers are computed up front by one sequential session
//! (over a separately compiled copy of the base) running every thread's
//! script in turn; every float is compared by bit pattern, every count by
//! exact `BigUint` equality.
//! This is the concurrency half of the freeze-and-serve contract (the
//! compile-time `Send + Sync` half is asserted inside the crates).

use arith::BigUint;
use cnf::{families, CnfFormula};
use kb::{KbSession, KnowledgeBase, Lit};
use sentential_core::Compiler;
use std::sync::Arc;
use vtree::VarId;

const THREADS: usize = 8;
/// Condition → query-menu → retract cycles per thread.
const ROUNDS: usize = 3;

/// Deterministic, non-degenerate prior of variable `i`.
fn prior(i: usize) -> f64 {
    0.2 + 0.6 * ((i * 7) % 10) as f64 / 10.0
}

fn build(f: &CnfFormula) -> KnowledgeBase {
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), f).expect("fixture compiles");
    for i in 0..f.num_vars() as usize {
        kb.set_probability(VarId(i as u32), prior(i)).unwrap();
    }
    kb
}

/// Thread `t`'s evidence: one polarity-alternating pin plus one distant
/// positive pin (distinct variables, so the script is never
/// self-contradictory; at most one `false` pin keeps the chain fixture
/// consistent).
fn script(t: usize, n: u32) -> Vec<Lit> {
    let a = VarId(t as u32 % n);
    let b = VarId((t as u32 + n / 2) % n);
    vec![(a, t.is_multiple_of(2)), (b, true)]
}

/// Everything one serving round answers, with floats as raw bits so
/// "close enough" can't mask a divergence.
#[derive(Debug, PartialEq)]
struct Answers {
    consistent: bool,
    log_weight: u64,
    prob_evidence: u64,
    query: u64,
    marginals: Vec<u64>,
    mpe_log_weight: u64,
    mpe_bits: Vec<bool>,
    count: BigUint,
    entailed: bool,
}

/// The query menu under `evidence` on one session — the same call
/// sequence for the sequential oracle and every thread.
fn answers_session(s: &mut KbSession, evidence: &[Lit], n: u32) -> Answers {
    s.condition(evidence).expect("scripts are consistent");
    let out = Answers {
        consistent: s.is_consistent(),
        log_weight: s.log_weight().to_bits(),
        prob_evidence: s.probability_of_evidence().unwrap().to_bits(),
        query: s.query(&[(VarId(n - 1), true)]).unwrap().to_bits(),
        marginals: s
            .all_marginals()
            .unwrap()
            .into_iter()
            .map(|(_, m)| m.to_bits())
            .collect(),
        mpe_log_weight: s.mpe().unwrap().log_weight.to_bits(),
        mpe_bits: {
            let m = s.mpe().unwrap();
            (0..n)
                .map(|i| m.assignment.get(VarId(i)) == Some(true))
                .collect()
        },
        count: s.count_models(),
        entailed: s.entails(&[(VarId(0), true), (VarId(1), true)]).unwrap(),
    };
    s.retract();
    out
}

#[test]
fn eight_threads_over_one_slab_match_the_sequential_engine() {
    let fixtures: [(&str, CnfFormula); 2] = [
        ("chain", families::chain_cnf(60)),
        ("band_w3", families::band_cnf(30, 3)),
    ];
    for (label, f) in &fixtures {
        let n = f.num_vars();
        // Sequential oracle: one session runs every thread's script.
        let mut seq = Arc::new(build(f).freeze()).session();
        let expected: Vec<Answers> = (0..THREADS)
            .map(|t| answers_session(&mut seq, &script(t, n), n))
            .collect();

        // 8 threads, one shared slab, private sessions — repeated rounds
        // so warm-cache answers are checked too, not just cold ones.
        let frozen = Arc::new(build(f).freeze());
        std::thread::scope(|sc| {
            for (t, want) in expected.iter().enumerate() {
                let frozen = &frozen;
                let ev = script(t, n);
                sc.spawn(move || {
                    let mut s = frozen.session();
                    for round in 0..ROUNDS {
                        let got = answers_session(&mut s, &ev, n);
                        assert_eq!(
                            &got, want,
                            "{label}: thread {t} round {round} diverged from the sequential session"
                        );
                    }
                });
            }
        });
    }
}
