//! Freeze-and-serve — the walkthrough for the frozen tier and the
//! `kb-server` shard pool.
//!
//! A [`KnowledgeBase`] is the build step: compile, weight, optionally
//! condition. Freezing it moves the compiled SDD and its unfolded
//! arithmetic circuit into an immutable `Send + Sync` slab ([`FrozenKb`])
//! that any number of threads share through an `Arc` — each opening its
//! own [`kb::KbSession`] with private warm caches and its own evidence.
//! A [`KbServer`] wraps that pattern into a shard pool speaking a
//! line-delimited protocol (the `kb-server` binary is the stdin/TCP
//! front-end over the same type).
//!
//! Run: `cargo run --example kb_server`

use sentential::prelude::*;
use serve::{parse_request, Command, Request};
use std::sync::Arc;

fn main() {
    // Compile once: the same diagnosis toy the kb_session example serves,
    // now destined for concurrent serving.
    let dimacs = "\
c diagnosis toy
p cnf 4 4
c p weight 1 0.3 0
c p weight -1 0.7 0
c p weight 2 0.2 0
c p weight -2 0.8 0
c p weight 3 0.6 0
c p weight -3 0.4 0
c p weight 4 0.5 0
c p weight -4 0.5 0
-1 3 0
-2 3 0
-3 4 0
-4 3 0
";
    let f = CnfFormula::from_dimacs(dimacs).expect("well-formed DIMACS");
    let kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("compiles");

    // Freeze: the manager's arenas become one contiguous immutable slab.
    let frozen: Arc<FrozenKb> = Arc::new(kb.freeze());
    println!(
        "frozen: {} SDD elements over {} vars, {} gates, {} bytes of slab\n",
        frozen.sdd_size(),
        frozen.vars().len(),
        frozen.unfolded_size(),
        frozen.memory_bytes()
    );

    // Any number of threads now serve concurrently from the one slab —
    // each session holds its own evidence, weights, and warm caches.
    std::thread::scope(|s| {
        for (name, lit) in [
            ("alarm", (VarId(3), true)),
            ("no-sensor", (VarId(2), false)),
        ] {
            let frozen = &frozen;
            s.spawn(move || {
                let mut session = frozen.session();
                session.condition(&[lit]).expect("consistent evidence");
                let p0 = session.marginal(VarId(0)).expect("consistent");
                println!("thread {name:>9}: P(pump-worn | {name}) = {p0:.4}");
            });
        }
    });

    // A branch reopens the builder over a copy-on-write overlay (the slab
    // itself never changes): re-weight it, freeze it again, serve it.
    let mut branch = frozen.branch();
    branch.set_probability(VarId(0), 0.9).expect("known var");
    let mut what_if = Arc::new(branch.freeze()).session();
    what_if.condition(&[(VarId(3), true)]).expect("consistent");
    println!(
        "\nbranch with P(pump-worn) = 0.9: posterior alarm marginal {:.4}",
        what_if.marginal(VarId(0)).expect("consistent")
    );

    // The shard pool: replicas of the slab pinned to worker threads,
    // driven by the same line protocol the kb-server binary speaks.
    let server = KbServer::new(vec![Arc::clone(&frozen), Arc::clone(&frozen)], 2);
    let mut client = server.client();
    let script = [
        "kb 0 condition 4", // client 0: the alarm rings (1-based wire ids)
        "kb 0 marginals",   // …posterior over everything
        "kb 1 marginal 1",  // client 1 stays at the prior
        "kb 1 count",
    ];
    println!("\nwire protocol, two replicas over one slab:");
    for line in script {
        match parse_request(line)
            .expect("well-formed")
            .expect("not a comment")
        {
            Request::Query { kb, cmd } => {
                client.submit(kb, cmd).expect("valid kb id");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    for (seq, answer) in client.sync() {
        println!("  {seq} {answer}");
    }

    // Ad-hoc commands skip the wire format entirely.
    client.submit(1, Command::Mpe).expect("valid kb id");
    let (_, mpe) = client.sync().pop().expect("one answer");
    println!("  prior MPE via replica 1: {mpe}");

    for stats in server.shutdown() {
        println!("{}", stats.render());
    }
}
