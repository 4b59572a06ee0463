//! `wire_pipelined`: two connections, driven in lockstep from one thread,
//! each send windows of 64 seeded 1–3-literal `query` requests, each window
//! closed by `sync`, against a server that compiled `band:400:4` at boot.

use crate::kbs::{compile_band, render_lits};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::speed::Gauge;
use crate::stats::{mean, median, Figures, Sample, SLICE_S};
use crate::wire::{boot_repeated, boot_times, Conn, Scrape};
use crate::{Ctx, Mode};
use kb::{FrozenKb, Lit};
use serve::{answer, parse_request, Command, KbServer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vtree::VarId;

const N: u32 = 400;
const W: u32 = 4;
/// Requests per window; every window ends with `sync`.
pub const WINDOW: usize = 64;
/// Distinct queries per connection. Queries are stateless, so the
/// sequential replay answers each once and the wire answers of every
/// repetition must match it exactly.
const POOL: usize = 512;
const CONNS: usize = 2;
/// Server boots before the loop and again after it; the median spawn →
/// banner time of all of them is `setup_s`.
const BOOTS: usize = 10;
/// The reference kernel runs `REFERENCE_REPS` times every
/// `REFERENCE_EVERY` steps of the loop (see `speed`).
const REFERENCE_EVERY: u64 = 8;
const REFERENCE_REPS: u32 = 2;

/// One connection's seeded request stream: a pool of distinct queries
/// against the connection's own replica, and the seeded picks that fill
/// each window.
pub struct Stream {
    pub pool: Vec<Vec<Lit>>,
    lines: Vec<String>,
    picks: Rng,
}

impl Stream {
    pub fn new(seed: u64, conn: usize) -> Stream {
        let mut rng = Rng::new(seed, 100 + conn as u64);
        let mut pool = Vec::with_capacity(POOL);
        let mut lines = Vec::with_capacity(POOL);
        while pool.len() < POOL {
            let k = 1 + rng.below(3) as usize;
            let lits: Vec<Lit> = rng
                .distinct(k, N as u64)
                .into_iter()
                .map(|v| (VarId(v as u32), rng.coin()))
                .collect();
            let mut line = format!("kb {conn} query");
            render_lits(&mut line, &lits);
            line.push('\n');
            pool.push(lits);
            lines.push(line);
        }
        Stream {
            pool,
            lines,
            picks: Rng::new(seed, 150 + conn as u64),
        }
    }

    /// The next window: pool indices into `picks`, wire bytes into `buf`.
    pub fn next_window(&mut self, picks: &mut Vec<usize>, buf: &mut Vec<u8>) {
        picks.clear();
        buf.clear();
        for _ in 0..WINDOW {
            let i = self.picks.below(POOL as u64) as usize;
            picks.push(i);
            buf.extend_from_slice(self.lines[i].as_bytes());
        }
        buf.extend_from_slice(b"sync\n");
    }
}

/// Sequential scalar replay of one connection's pool on a fresh session:
/// the expected wire answers, and the time of each `answer` call.
fn replay(kb: &Arc<FrozenKb>, stream: &Stream) -> (Vec<String>, Vec<f64>) {
    let mut s = kb.session();
    let mut times = Vec::with_capacity(stream.pool.len());
    let expected = stream
        .pool
        .iter()
        .map(|lits| {
            let t = Instant::now();
            let a = answer(&mut s, &Command::Query(lits.clone()));
            times.push(t.elapsed().as_secs_f64() * 1e6);
            a
        })
        .collect();
    (expected, times)
}

/// One closed-loop pass over both connections.
#[derive(Default)]
struct Pass {
    samples: Vec<Sample>,
    sent: u64,
    failed: u64,
    windows: u64,
    /// Summed send → `synced` time of every window.
    window_us: f64,
    /// Loop time, less the reference kernel's.
    elapsed: f64,
    /// The reference kernel, run between steps, per slice of the loop.
    gauges: Vec<Gauge>,
}

impl Pass {
    /// Requests per second and their p50 and p99, at the reference speed.
    fn scaled(&self) -> Figures {
        Figures::of(&self.samples, self.elapsed, &self.gauges)
    }

    /// Wire time per request: window round trips over requests answered.
    fn us_per_request(&self) -> f64 {
        self.window_us / (self.windows.max(1) * WINDOW as u64) as f64
    }
}

/// One connection's window in flight: its pool picks, its first sequence
/// number and when it was sent.
struct InFlight {
    picks: Vec<usize>,
    base: u64,
    sent: Instant,
}

/// Read one window's answers up to its `synced`, checking each against the
/// expected strings.
fn read_window(
    conn: &mut Conn,
    w: &InFlight,
    expected: &[String],
    start: Instant,
    r: &mut Pass,
) -> Result<(), String> {
    let mut answered = [false; WINDOW];
    loop {
        let line = conn.read_line()?;
        if line == "synced" {
            break;
        }
        let now = Instant::now();
        let slot = line
            .split_once(' ')
            .and_then(|(seq, resp)| Some((seq.parse::<u64>().ok()?, resp)))
            .and_then(|(seq, resp)| {
                let i = seq.checked_sub(w.base).filter(|&i| i < WINDOW as u64)? as usize;
                Some((i, resp))
            });
        // A line that answers no outstanding request of this window is
        // skipped: the request it should have answered counts as missing
        // below.
        if let Some((i, resp)) = slot.filter(|&(i, _)| !answered[i]) {
            answered[i] = true;
            r.samples.push(Sample {
                done_s: (now - start).as_secs_f64(),
                latency_us: (now - w.sent).as_secs_f64() * 1e6,
            });
            if resp != expected[w.picks[i]] {
                r.failed += 1;
            }
        }
    }
    r.window_us += w.sent.elapsed().as_secs_f64() * 1e6;
    r.failed += answered.iter().filter(|a| !**a).count() as u64;
    r.windows += 1;
    Ok(())
}

/// Both connections over `seconds` from one thread, in lockstep: each step
/// sends every connection's next window, then reads each connection to its
/// `synced`. A window's latency runs from its send to the answer line's
/// read, so it includes reading the connections before it in the step.
/// Every `REFERENCE_EVERY` steps the reference kernel runs, outside the
/// loop's time.
fn drive_all(
    conns: &mut [Conn],
    streams: &mut [Stream],
    expected: &[Vec<String>],
    seqs: &mut [u64],
    seconds: f64,
) -> Result<Pass, String> {
    let mut r = Pass::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut buf = Vec::with_capacity(WINDOW * 32);
    let mut flights: Vec<InFlight> = (0..conns.len())
        .map(|_| InFlight {
            picks: Vec::with_capacity(WINDOW),
            base: 0,
            sent: start,
        })
        .collect();
    let mut reference = Duration::ZERO;
    let mut step = 0u64;
    while Instant::now() < deadline {
        if step.is_multiple_of(REFERENCE_EVERY) {
            let t = Instant::now();
            Gauge::sample_into(&mut r.gauges, (t - start).as_secs_f64(), REFERENCE_REPS);
            reference += t.elapsed();
        }
        for (c, w) in flights.iter_mut().enumerate() {
            streams[c].next_window(&mut w.picks, &mut buf);
            w.base = seqs[c];
            seqs[c] += WINDOW as u64;
            w.sent = Instant::now();
            conns[c].send(&buf)?;
            r.sent += WINDOW as u64;
        }
        for (c, w) in flights.iter().enumerate() {
            read_window(&mut conns[c], w, &expected[c], start, &mut r)?;
        }
        step += 1;
    }
    r.elapsed = (start.elapsed() - reference).as_secs_f64();
    Ok(r)
}

/// Windows of 64 through an in-process `KbServer` with the wire flags:
/// the serve-layer cost of one request without TCP, read and write.
fn inproc_roundtrip_us(kb: &Arc<FrozenKb>, streams: &mut [Stream], seconds: f64) -> f64 {
    let server = KbServer::with_batch_window(
        vec![Arc::clone(kb), Arc::clone(kb)],
        2,
        Duration::from_micros(500),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let per_req: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mut client = server.client();
                scope.spawn(move || {
                    let (mut picks, mut buf) = (Vec::new(), Vec::new());
                    let (mut us, mut reqs) = (0.0, 0u64);
                    while Instant::now() < deadline {
                        stream.next_window(&mut picks, &mut buf);
                        let t = Instant::now();
                        for &i in &picks {
                            let cmd = Command::Query(stream.pool[i].clone());
                            client.submit(c, cmd).expect("in-process shard alive");
                        }
                        let got = client.sync();
                        us += t.elapsed().as_secs_f64() * 1e6;
                        reqs += got.len() as u64;
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

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut streams: Vec<Stream> = (0..CONNS).map(|c| Stream::new(ctx.seed, c)).collect();

    // The oracle: the same KB compiled in process, each connection's pool
    // replayed sequentially on its own fresh session (one per replica, as
    // on the server). Untimed.
    let (kb, cnf_timings, freeze) = compile_band(N, W)?;
    let kb = Arc::new(kb);
    let (mut expected, mut query_us) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let hs: Vec<_> = streams
            .iter()
            .map(|s| {
                let kb = &kb;
                scope.spawn(move || replay(kb, s))
            })
            .collect();
        for h in hs {
            let (e, t) = h.join().expect("replay thread panicked");
            expected.push(e);
            query_us.extend(t);
        }
    });
    if ctx.corrupt_oracle {
        expected[0][0] = "ok corrupted".into();
    }

    let spec = [format!("band:{N}:{W}")];
    let boots = if mode == Mode::Probe { 1 } else { BOOTS };
    let (server, first, mut setups) = boot_repeated(&ctx.server, &spec, boots)?;
    let mut conns = vec![first];
    for _ in 1..CONNS {
        conns.push(server.connect()?);
    }
    let mut seqs = vec![0u64; CONNS];

    let (pass, overhead_pct) = if mode == Mode::Untraced {
        (
            drive_all(&mut conns, &mut streams, &expected, &mut seqs, ctx.seconds)?,
            0.0,
        )
    } else {
        // Two halves of the same loop; the throughput change between them
        // is the overhead the traced run adds.
        let half = ctx.seconds / 2.0;
        let plain = drive_all(&mut conns, &mut streams, &expected, &mut seqs, half)?;
        let traced = drive_all(&mut conns, &mut streams, &expected, &mut seqs, half)?;
        out.attempted += plain.sent;
        out.failed += plain.failed;
        let overhead = 100.0 * (plain.scaled().throughput / traced.scaled().throughput - 1.0);
        (traced, overhead)
    };
    out.attempted += pass.sent;
    out.failed += pass.failed;
    let figures = pass.scaled();
    let rss = server.peak_rss_mb()?;
    let scrape = if mode == Mode::Untraced {
        None
    } else {
        Some(Scrape::read(&mut conns[0])?)
    };
    server.quit(conns.swap_remove(0))?;
    drop(conns);
    if mode != Mode::Probe {
        setups.extend(boot_times(&ctx.server, &spec, BOOTS)?);
    }

    out.note(format!(
        "wire_pipelined: {} windows of {WINDOW}, latency samples {} in {} slices of {SLICE_S} s, setup samples {}",
        pass.windows,
        figures.samples,
        figures.slices,
        setups.len()
    ));
    out.note(format!(
        "wire_pipelined: reference kernel {:.1} us (factor {:.4}); wall throughput_ops {:.2}, \
         wall setup_s {:.6}",
        Gauge::combined(&pass.gauges).kernel_us(),
        Gauge::combined(&pass.gauges).factor(),
        figures.samples as f64 / pass.elapsed,
        median(&setups)
    ));
    let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    // The boots run in another process, and kernel runs between boots
    // read slower than the loop's without the boots being slower, so
    // spawn → banner takes the loop's factor.
    out.e2e(
        "setup_s",
        median(&setups) * Gauge::combined(&pass.gauges).factor(),
        "s",
    );
    out.e2e("throughput_ops", figures.throughput, "1/s");
    out.e2e("latency_p50_us", figures.p50, "us");
    out.e2e("latency_p99_us", figures.p99, "us");
    out.e2e("ok_ratio", ok, "ratio");
    out.e2e("rss_peak_mb", rss, "MB");
    out.e2e("output_size", kb.sdd_size() as f64, "elements");

    if let Some(scrape) = scrape {
        layers(
            ctx,
            &kb,
            &mut streams,
            &scrape,
            &query_us,
            pass.us_per_request(),
            &mut out,
        )?;
        // The boot path's compile stages, median of five compiles.
        let (mut vtree_ms, mut sdd_ms, mut freeze_ms) = (vec![], vec![], vec![]);
        for i in 0..5 {
            let (t, f) = if i == 0 {
                (cnf_timings, freeze)
            } else {
                let (_, t, f) = compile_band(N, W)?;
                (t, f)
            };
            vtree_ms.push(t.vtree.as_secs_f64() * 1e3);
            sdd_ms.push(t.sdd.as_secs_f64() * 1e3);
            freeze_ms.push(f.as_secs_f64() * 1e3);
        }
        out.layer("core.cnf_vtree_ms", median(&vtree_ms), "ms");
        out.layer("core.cnf_sdd_ms", median(&sdd_ms), "ms");
        out.layer("kb.freeze_ms", median(&freeze_ms), "ms");
        out.layer("trace.overhead_pct", overhead_pct, "%");
    }
    Ok(out)
}

/// The per-layer metrics this workload moves, measured from outside.
fn layers(
    ctx: &Ctx,
    kb: &Arc<FrozenKb>,
    streams: &mut [Stream],
    scrape: &Scrape,
    query_us: &[f64],
    wire_us_per_req: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    scrape.publish(out);
    out.layer("kb.query_us", mean(query_us), "us");

    // query_batch replayed at the group width the server reported.
    let width = (scrape.depth_sum / scrape.depth_count.max(1.0)).round() as usize;
    let width = width.clamp(1, WINDOW);
    let mut s = kb.session();
    let mut lane_us = Vec::new();
    for chunk in streams[0].pool.chunks_exact(width) {
        let t = Instant::now();
        let answers = s.query_batch(chunk);
        lane_us.push(t.elapsed().as_secs_f64() * 1e6 / width as f64);
        if let Some(Err(e)) = answers.into_iter().find(|a| a.is_err()) {
            return Err(format!("query_batch replay failed: {e}"));
        }
    }
    out.layer("kb.query_batch_us_per_lane", median(&lane_us), "us");

    let inproc = inproc_roundtrip_us(kb, streams, (ctx.seconds / 4.0).clamp(0.5, 3.0));
    out.layer("serve.inproc_roundtrip_us", inproc, "us");
    out.layer("frontend.residual_us", wire_us_per_req - inproc, "us");

    // Parse and format costs on the pool's own lines.
    let (mut parse_us, mut fmt_us) = (Vec::new(), Vec::new());
    let (mut a, mut b) = (kb.session(), kb.session());
    for (line, lits) in streams[0].lines.iter().zip(&streams[0].pool).take(128) {
        let t = Instant::now();
        let req = parse_request(line);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(req, Ok(Some(serve::Request::Query { .. }))) {
            return Err(format!("request line did not parse back: {line:?}"));
        }
        let cmd = Command::Query(lits.clone());
        let t = Instant::now();
        let _ = answer(&mut a, &cmd);
        let with_format = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let _ = b.query(lits);
        fmt_us.push(with_format - t.elapsed().as_secs_f64() * 1e6);
    }
    out.layer("serve.parse_us", median(&parse_us), "us");
    out.layer("serve.format_us", median(&fmt_us), "us");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(seed: u64, conn: usize, windows: usize) -> Vec<u8> {
        let mut s = Stream::new(seed, conn);
        let (mut picks, mut buf, mut all) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..windows {
            s.next_window(&mut picks, &mut buf);
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn same_seed_same_request_bytes() {
        assert_eq!(bytes(7, 0, 50), bytes(7, 0, 50));
        assert_ne!(bytes(7, 0, 50), bytes(8, 0, 50));
        assert_ne!(bytes(7, 0, 50), bytes(7, 1, 50));
    }

    #[test]
    fn windows_are_closed_by_sync_and_parse() {
        let b = bytes(3, 1, 1);
        let text = String::from_utf8(b).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), WINDOW + 1);
        assert_eq!(lines[WINDOW], "sync");
        for l in &lines[..WINDOW] {
            match parse_request(l) {
                Ok(Some(serve::Request::Query {
                    kb: 1,
                    cmd: Command::Query(lits),
                })) => {
                    assert!((1..=3).contains(&lits.len()));
                    assert!(lits.iter().all(|(v, _)| v.0 < N));
                }
                other => panic!("{l:?} parsed as {other:?}"),
            }
        }
    }
}
