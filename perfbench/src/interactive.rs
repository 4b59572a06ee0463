//! `wire_interactive`: two connections each run seeded user scripts —
//! `condition`, 4× `marginal`, `query`, `entails`, `mpe`, `retract` — one
//! request per round trip, against a server booted from a snapshot.

use crate::kbs::{compile_band, render_lits};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::speed::Gauge;
use crate::stats::{mean, median, Figures, Sample, SLICE_S};
use crate::wire::{boot_repeated, Conn, Scrape};
use crate::{Ctx, Mode};
use kb::{FrozenKb, KbSession, Lit};
use serve::{answer, parse_request, Command, KbServer};
use std::io::{BufReader, BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vtree::VarId;

const N: u32 = 60;
const W: u32 = 4;
const CONNS: usize = 2;
/// Server boots per run; their median spawn → banner time is `setup_s`.
const BOOTS: usize = 9;
/// Reference kernel runs (see `speed`) right before and right after the
/// loop. Unlike wire_pipelined's lockstep, the two connections' loops have
/// no moment at which the server is idle, and kernel runs made while it
/// works would slow with the load under test.
const REFERENCE_REPS: u32 = 10;
/// Scripts per connection whose session calls are timed one by one in the
/// traced replay.
const TIMED_SCRIPTS: usize = 300;
const KINDS: [&str; 6] = [
    "condition",
    "marginal",
    "query",
    "entails",
    "mpe",
    "retract",
];

/// One connection's seeded script stream.
pub struct Scripts {
    rng: Rng,
}

impl Scripts {
    pub fn new(seed: u64, conn: usize) -> Scripts {
        Scripts {
            rng: Rng::new(seed, 200 + conn as u64),
        }
    }

    fn lits(&mut self, k: usize) -> Vec<Lit> {
        self.rng
            .distinct(k, N as u64)
            .into_iter()
            .map(|v| (VarId(v as u32), self.rng.coin()))
            .collect()
    }

    /// The next script. Two distinct evidence literals never contradict a
    /// width-4 band of positive clauses, so no request in it fails.
    pub fn next_script(&mut self) -> Vec<Command> {
        let mut s = vec![Command::Condition(self.lits(2))];
        for _ in 0..4 {
            s.push(Command::Marginal(VarId(self.rng.below(N as u64) as u32)));
        }
        let k = 1 + self.rng.below(3) as usize;
        s.push(Command::Query(self.lits(k)));
        let k = 1 + self.rng.below(3) as usize;
        s.push(Command::Entails(self.lits(k)));
        s.push(Command::Mpe);
        s.push(Command::Retract);
        s
    }
}

/// The request line for `cmd` against base `kb`.
pub fn wire_line(kb: usize, cmd: &Command) -> String {
    let mut line = format!("kb {kb} ");
    match cmd {
        Command::Condition(l) => {
            line.push_str("condition");
            render_lits(&mut line, l);
        }
        Command::Marginal(v) => line.push_str(&format!("marginal {}", v.0 + 1)),
        Command::Query(l) => {
            line.push_str("query");
            render_lits(&mut line, l);
        }
        Command::Entails(l) => {
            line.push_str("entails");
            render_lits(&mut line, l);
        }
        Command::Mpe => line.push_str("mpe"),
        Command::Retract => line.push_str("retract"),
        other => unreachable!("scripts never send {other:?}"),
    }
    line
}

fn kind(cmd: &Command) -> usize {
    match cmd {
        Command::Condition(_) => 0,
        Command::Marginal(_) => 1,
        Command::Query(_) => 2,
        Command::Entails(_) => 3,
        Command::Mpe => 4,
        _ => 5,
    }
}

#[derive(Default)]
struct ConnRun {
    scripts: usize,
    responses: Vec<String>,
    samples: Vec<Sample>,
}

impl ConnRun {
    fn append(&mut self, later: ConnRun) {
        self.scripts += later.scripts;
        self.responses.extend(later.responses);
        self.samples.extend(later.samples);
    }
}

fn samples(runs: &[ConnRun]) -> Vec<Sample> {
    runs.iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect()
}

/// Closed loop of whole scripts on one connection until `deadline`.
fn drive(
    conn: &mut Conn,
    kb: usize,
    scripts: &mut Scripts,
    next_seq: &mut u64,
    start: Instant,
    deadline: Instant,
) -> Result<ConnRun, String> {
    let mut r = ConnRun::default();
    while Instant::now() < deadline {
        for cmd in scripts.next_script() {
            let line = wire_line(kb, &cmd);
            let t0 = Instant::now();
            let got = conn.exchange(&line)?;
            let now = Instant::now();
            r.samples.push(Sample {
                done_s: (now - start).as_secs_f64(),
                latency_us: (now - t0).as_secs_f64() * 1e6,
            });
            let want_seq = next_seq.to_string();
            *next_seq += 1;
            // Anything but one answer line carrying this request's sequence
            // number is recorded empty, which fails the replay comparison.
            let resp = match got.as_slice() {
                [one] => one
                    .split_once(' ')
                    .filter(|(seq, _)| *seq == want_seq)
                    .map_or(String::new(), |(_, resp)| resp.to_string()),
                _ => String::new(),
            };
            r.responses.push(resp);
        }
        r.scripts += 1;
    }
    Ok(r)
}

/// Both connections over `seconds`, one thread each; connection `c` owns
/// replica `c`.
fn drive_all(
    conns: &mut [Conn],
    scripts: &mut [Scripts],
    seqs: &mut [u64],
    seconds: f64,
) -> Result<(Vec<ConnRun>, f64), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<Result<ConnRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(scripts.iter_mut())
            .zip(seqs.iter_mut())
            .enumerate()
            .map(|(c, ((conn, s), q))| scope.spawn(move || drive(conn, c, s, q, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    Ok((results.into_iter().collect::<Result<_, _>>()?, elapsed))
}

/// Per-kind session-call timings from the traced replay.
#[derive(Default)]
struct Replay {
    mismatches: u64,
    kind_us: [Vec<f64>; 6],
    /// `serve::answer` time minus the bare call's, per request.
    format_us: Vec<f64>,
    parse_us: Vec<f64>,
    eval_lookups: u64,
    eval_hits: u64,
}

/// One session call, as `serve::answer` would make it minus the rendering.
fn call(s: &mut KbSession, cmd: &Command) {
    match cmd {
        Command::Condition(l) => drop(s.condition(l)),
        Command::Marginal(v) => drop(s.marginal(*v)),
        Command::Query(l) => drop(s.query(l)),
        Command::Entails(l) => drop(s.entails(l)),
        Command::Mpe => drop(s.mpe()),
        _ => s.retract(),
    }
}

/// Sequential in-process replay of one connection's executed scripts on a
/// fresh session over the loaded snapshot: every wire answer must match
/// `serve::answer` exactly. Traced, a twin session times the bare calls.
fn replay(
    kb: &Arc<FrozenKb>,
    seed: u64,
    conn: usize,
    run: &ConnRun,
    corrupt: bool,
    traced: bool,
) -> Replay {
    let mut r = Replay::default();
    let mut scripts = Scripts::new(seed, conn);
    let (mut oracle, mut twin) = (kb.session(), kb.session());
    let mut got = run.responses.iter();
    for i in 0..run.scripts {
        let timed = traced && i < TIMED_SCRIPTS;
        for cmd in scripts.next_script() {
            let t = Instant::now();
            let mut want = answer(&mut oracle, &cmd);
            let answer_us = t.elapsed().as_secs_f64() * 1e6;
            if corrupt && i == 0 {
                want.push_str(" corrupted");
            }
            if got.next() != Some(&want) {
                r.mismatches += 1;
            }
            if timed {
                let line = wire_line(conn, &cmd);
                let t = Instant::now();
                let parsed = parse_request(&line);
                r.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                if !matches!(parsed, Ok(Some(serve::Request::Query { .. }))) {
                    r.mismatches += 1;
                }
                let t = Instant::now();
                call(&mut twin, &cmd);
                let us = t.elapsed().as_secs_f64() * 1e6;
                r.kind_us[kind(&cmd)].push(us);
                r.format_us.push(answer_us - us);
                let q = twin.last_query();
                r.eval_lookups += q.eval.lookups;
                r.eval_hits += q.eval.hits;
            }
        }
    }
    r
}

/// The same scripts through an in-process `KbServer` with the wire flags,
/// one `submit` + `sync` per request: mean microseconds per request.
fn inproc_roundtrip_us(kb: &Arc<FrozenKb>, seed: u64, seconds: f64) -> f64 {
    let server = KbServer::with_batch_window(
        vec![Arc::clone(kb), Arc::clone(kb)],
        2,
        Duration::from_micros(500),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let per_req: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let mut client = server.client();
                scope.spawn(move || {
                    let mut scripts = Scripts::new(seed, c);
                    let (mut us, mut reqs) = (0.0, 0u64);
                    while Instant::now() < deadline {
                        for cmd in scripts.next_script() {
                            let t = Instant::now();
                            client.submit(c, cmd).expect("in-process shard alive");
                            let got = client.sync();
                            us += t.elapsed().as_secs_f64() * 1e6;
                            reqs += got.len() as u64;
                        }
                    }
                    us / reqs.max(1) as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process client panicked"))
            .collect()
    });
    let _ = server.shutdown();
    mean(&per_req)
}

/// Compile and save the served KB with the code under test (untimed).
fn save_snapshot(ctx: &Ctx) -> Result<(std::path::PathBuf, u64), String> {
    let (kb, _, _) = compile_band(N, W)?;
    let path = ctx.tmp_dir.join(format!("band-{N}-{W}.snap"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    kb.save(&mut w).map_err(|e| format!("save snapshot: {e}"))?;
    w.flush().map_err(|e| format!("save snapshot: {e}"))?;
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok((path, bytes))
}

fn load_snapshot(path: &std::path::Path) -> Result<(FrozenKb, f64), String> {
    let t = Instant::now();
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let kb = FrozenKb::load(BufReader::new(file)).map_err(|e| format!("load snapshot: {e}"))?;
    Ok((kb, t.elapsed().as_secs_f64() * 1e3))
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (snap, snap_bytes) = save_snapshot(ctx)?;
    let mut load_ms = Vec::new();
    let mut kb = None;
    for _ in 0..5 {
        let (k, ms) = load_snapshot(&snap)?;
        load_ms.push(ms);
        kb = Some(k);
    }
    let kb = Arc::new(kb.expect("loaded at least once"));

    let spec = ["--snapshot".to_string(), snap.display().to_string()];
    let boots = if mode == Mode::Probe { 1 } else { BOOTS };
    let (server, first, setups) = boot_repeated(&ctx.server, &spec, boots)?;
    let mut conns = vec![first];
    for _ in 1..CONNS {
        conns.push(server.connect()?);
    }
    let mut seqs = vec![0u64; CONNS];
    let mut scripts: Vec<Scripts> = (0..CONNS).map(|c| Scripts::new(ctx.seed, c)).collect();

    let mut gauge = Gauge::default();
    gauge.sample(REFERENCE_REPS);
    let traced = mode != Mode::Untraced;
    let (runs, loop_s, timed, overhead_pct) = if traced {
        // Two halves of the same loop; the throughput change between them
        // is the overhead the traced run adds. They continue the same
        // script streams, so they are replayed as one.
        let half = ctx.seconds / 2.0;
        let (mut runs, el_u) = drive_all(&mut conns, &mut scripts, &mut seqs, half)?;
        let ops_u = samples(&runs).len() as f64;
        let (runs_t, el_t) = drive_all(&mut conns, &mut scripts, &mut seqs, half)?;
        let timed = samples(&runs_t);
        let overhead = 100.0 * ((ops_u / el_u) / (timed.len() as f64 / el_t) - 1.0);
        for (a, b) in runs.iter_mut().zip(runs_t) {
            a.append(b);
        }
        (runs, el_t, timed, overhead)
    } else {
        let (runs, el) = drive_all(&mut conns, &mut scripts, &mut seqs, ctx.seconds)?;
        let timed = samples(&runs);
        (runs, el, timed, 0.0)
    };
    gauge.sample(REFERENCE_REPS);
    let figures = Figures::of(&timed, loop_s, &[gauge]);
    let rss = server.peak_rss_mb()?;
    let scrape = if traced {
        Some(Scrape::read(&mut conns[0])?)
    } else {
        None
    };
    server.quit(conns.swap_remove(0))?;
    drop(conns);

    let wire = samples(&runs);
    out.attempted += wire.len() as u64;

    let replays: Vec<Replay> = std::thread::scope(|scope| {
        let hs: Vec<_> = runs
            .iter()
            .enumerate()
            .map(|(c, run)| {
                let kb = &kb;
                let corrupt = ctx.corrupt_oracle && c == 0;
                scope.spawn(move || replay(kb, ctx.seed, c, run, corrupt, traced))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    out.failed += replays.iter().map(|r| r.mismatches).sum::<u64>();

    out.note(format!(
        "wire_interactive: latency samples {} in {} slices of {SLICE_S} s, scripts {}, setup samples {}, snapshot {} bytes",
        figures.samples,
        figures.slices,
        runs.iter().map(|r| r.scripts).sum::<usize>(),
        setups.len(),
        snap_bytes
    ));
    let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    // Spawn → banner takes the factor of the kernel runs around the loop.
    out.e2e("setup_s", median(&setups) * gauge.factor(), "s");
    out.e2e("throughput_ops", figures.throughput, "1/s");
    out.e2e("latency_p50_us", figures.p50, "us");
    out.e2e("latency_p99_us", figures.p99, "us");
    out.e2e("ok_ratio", ok, "ratio");
    out.e2e("rss_peak_mb", rss, "MB");
    out.e2e("output_size", kb.sdd_size() as f64, "elements");

    if let Some(scrape) = scrape {
        scrape.publish(&mut out);
        let all = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
            replays.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        for (k, name) in KINDS.iter().enumerate() {
            let v: Vec<f64> = replays
                .iter()
                .flat_map(|r| r.kind_us[k].iter().copied())
                .collect();
            out.layer(&format!("kb.{name}_us"), mean(&v), "us");
        }
        let lookups: u64 = replays.iter().map(|r| r.eval_lookups).sum();
        let hits: u64 = replays.iter().map(|r| r.eval_hits).sum();
        out.layer(
            "kb.eval_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
        out.layer("snap.load_ms", median(&load_ms), "ms");
        out.layer("snap.artifact_bytes", snap_bytes as f64, "bytes");
        out.layer("serve.parse_us", median(&all(|r| &r.parse_us)), "us");
        out.layer("serve.format_us", median(&all(|r| &r.format_us)), "us");
        let inproc = inproc_roundtrip_us(&kb, ctx.seed, (ctx.seconds / 4.0).clamp(0.5, 3.0));
        out.layer("serve.inproc_roundtrip_us", inproc, "us");
        let wire_us: Vec<f64> = wire.iter().map(|s| s.latency_us).collect();
        out.layer("frontend.residual_us", mean(&wire_us) - inproc, "us");
        out.layer("trace.overhead_pct", overhead_pct, "%");
    }
    let _ = std::fs::remove_file(&snap);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(seed: u64, conn: usize, scripts: usize) -> String {
        let mut s = Scripts::new(seed, conn);
        let mut all = String::new();
        for _ in 0..scripts {
            for cmd in s.next_script() {
                all.push_str(&wire_line(conn, &cmd));
                all.push_str("\nsync\n");
            }
        }
        all
    }

    #[test]
    fn same_seed_same_request_bytes() {
        assert_eq!(bytes(11, 0, 40), bytes(11, 0, 40));
        assert_ne!(bytes(11, 0, 40), bytes(12, 0, 40));
    }

    #[test]
    fn script_lines_round_trip_through_the_parser() {
        let mut s = Scripts::new(5, 1);
        for _ in 0..20 {
            let script = s.next_script();
            assert_eq!(script.len(), 9);
            for cmd in script {
                let line = wire_line(1, &cmd);
                match parse_request(&line) {
                    Ok(Some(serve::Request::Query { kb: 1, cmd: back })) => assert_eq!(back, cmd),
                    other => panic!("{line:?} parsed as {other:?}"),
                }
            }
        }
    }

    /// A deliberately corrupted expected answer fails the replay check.
    #[test]
    fn corrupted_expectation_is_a_mismatch() {
        let (kb, _, _) = compile_band(N, W).unwrap();
        let kb = Arc::new(kb);
        let mut run = ConnRun {
            scripts: 3,
            ..ConnRun::default()
        };
        let mut s = kb.session();
        let mut scripts = Scripts::new(9, 0);
        for _ in 0..3 {
            for cmd in scripts.next_script() {
                run.responses.push(answer(&mut s, &cmd));
            }
        }
        assert_eq!(replay(&kb, 9, 0, &run, false, true).mismatches, 0);
        assert!(replay(&kb, 9, 0, &run, true, false).mismatches > 0);
        run.responses[4].push('0');
        assert_eq!(replay(&kb, 9, 0, &run, false, false).mismatches, 1);
    }
}
