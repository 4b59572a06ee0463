//! `kb-server` — compile once (or load a snapshot), freeze, serve
//! line-delimited queries from stdin or a TCP socket across a shard pool.
//!
//! ```text
//! kb-server [--shards N] [--replicas R] [--batch-window MICROS]
//!           [--listen ADDR] [--snapshot PATH]... SPEC...
//!
//! SPEC:  path/to/file.cnf   a (weighted) DIMACS CNF file
//!        chain:N            the treewidth-1 chain family, N variables
//!        band:N:W           the width-W band family, N variables
//!        snap:PATH          a saved snapshot artifact (kb::FrozenKb::save)
//! ```
//!
//! `--snapshot PATH` is sugar for a `snap:PATH` spec: the base boots
//! straight from disk — a validated read of the frozen slab and circuit,
//! no compilation — which is the cold-start path the `exp_snap` benchmark
//! measures. Each base is pinned to shard `id % shards`. `--replicas R`
//! registers every loaded base `R` times (ids `kbs*r + i`): replicas share
//! one slab via `Arc`, so a hot base serves from several shards at the
//! cost of one session's caches per replica — no SDD is copied.
//!
//! `--batch-window MICROS` (default 0: off) opens the adaptive micro-batch
//! window: a shard worker dequeuing a `query`/`marginal` job waits up to
//! that long for compatible jobs — across connections — and answers the
//! group as one lane sweep, bit-identically to the scalar path.
//!
//! TCP connections are served concurrently (protocol v4): each gets its
//! own conversation with a private sequence space over the shared shard
//! pool, so two clients' jobs interleave in the shard queues and coalesce
//! when the window is open. `quit` from any client stops the server.
//! `save` writes a file on the server, so only the stdin conversation may
//! use it; a TCP client gets `err save is not accepted over TCP`. A
//! request line longer than [`MAX_LINE_BYTES`] (newline included) gets
//! `err line exceeds 1048576 bytes` and ends its conversation.
//!
//! Every conversation opens with a versioned banner so clients can check
//! compatibility before sending anything:
//!
//! ```text
//! hello kb-server protocol 4 snap 1 obs 1
//! ```
//!
//! Protocol (one request per line; answers are `<seq> ok …` / `<seq> err …`
//! and may arrive out of order — `sync` flushes, `stats` prints per-shard
//! counters plus an `all …` merged line, `metrics` dumps the pool-wide
//! telemetry in Prometheus text format, `slow` / `trace <id>` inspect the
//! slow-query log as single-line JSON, `save <id> <path>` persists a
//! base's frozen state as a snapshot (stdin only), `quit` exits):
//!
//! ```text
//! kb <id> marginal <var> | marginals | mpe | top <k> | query <lit>… |
//!         logw | pe | count | entails <lit>… | consistent |
//!         condition <lit>… | retract | setp <var> <p>
//! batch <id> <cmd> ; <cmd> ; …
//! save <id> <path>
//! metrics | slow | trace <id>
//! ```
//!
//! `batch` carries N sub-commands (the same grammar as after `kb <id>`,
//! `;`-separated) and is answered as one seq-tagged block —
//! `<seq> ok batch <n> ; <sub> ; …`. An all-`query` batch runs as a
//! single lane-parallel sweep on the owning shard.
//!
//! Variables are 1-based on the wire, literal sign is polarity (DIMACS).

use kb::{FrozenKb, KnowledgeBase};
use obs::{MetricsRegistry, MetricsSnapshot};
use sentential_core::Compiler;
use serve::{parse_request, ClientHandle, KbServer, Request, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The longest request line a conversation reads, newline included. A
/// line is read through a `take` of one byte more, so a client that never
/// sends a newline holds at most this much server memory.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Per-connection socket setup: turn Nagle off and split the stream into
/// a buffered reader and writer. An answer and the `synced` after it can
/// leave in two writes; with Nagle on, the second waits for the client's
/// delayed ACK (~40 ms) before it is sent.
fn open_connection(
    stream: TcpStream,
) -> std::io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), BufWriter::new(stream)))
}

fn usage() -> ! {
    eprintln!(
        "usage: kb-server [--shards N] [--replicas R] [--batch-window MICROS] \
         [--listen ADDR] [--snapshot PATH]... SPEC...\n\
         SPEC: path.cnf | chain:N | band:N:W | snap:PATH"
    );
    std::process::exit(2);
}

/// Compile one SPEC into a frozen base (serving posture: the up-front
/// exact count is skipped — sessions count on demand), or load it straight
/// from a snapshot artifact.
fn load(spec: &str) -> Result<FrozenKb, String> {
    if let Some(path) = spec.strip_prefix("snap:") {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        return FrozenKb::load(BufReader::new(file)).map_err(|e| format!("{path}: {e}"));
    }
    let compiler = Compiler::builder().exact_counts(false).build();
    let f = if let Some(n) = spec.strip_prefix("chain:") {
        let n: u32 = n.parse().map_err(|_| format!("bad chain spec {spec:?}"))?;
        cnf::families::chain_cnf(n)
    } else if let Some(nw) = spec.strip_prefix("band:") {
        let (n, w) = nw
            .split_once(':')
            .ok_or_else(|| format!("bad band spec {spec:?} (want band:N:W)"))?;
        cnf::families::band_cnf(
            n.parse().map_err(|_| format!("bad band n in {spec:?}"))?,
            w.parse().map_err(|_| format!("bad band w in {spec:?}"))?,
        )
    } else {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        cnf::CnfFormula::from_dimacs(&text).map_err(|e| format!("{spec}: {e}"))?
    };
    let kb = KnowledgeBase::compile_cnf(&compiler, &f).map_err(|e| format!("{spec}: {e}"))?;
    Ok(kb.freeze())
}

/// Persist base `kb`'s frozen state (the `save` verb). Session-local
/// evidence and weights live in the shards and are *not* captured — a
/// snapshot is the base, not one client's view of it.
fn save_kb(kbs: &[Arc<FrozenKb>], kb: usize, path: &str) -> Result<(), String> {
    let base = kbs
        .get(kb)
        .ok_or_else(|| format!("kb {kb} not loaded ({} available)", kbs.len()))?;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BufWriter::new(file);
    base.save(&mut out).map_err(|e| format!("{path}: {e}"))?;
    out.flush().map_err(|e| format!("{path}: {e}"))?;
    Ok(())
}

/// One protocol conversation: read lines from `input`, write responses to
/// `output`. Returns `false` when the client asked the server to quit.
/// Each conversation runs over its own [`ClientHandle`], so concurrent
/// connections have private sequence spaces and never steal each other's
/// answers. `save_to` holds the bases the `save` verb may persist: the
/// stdin conversation passes them, TCP conversations pass `None` and get
/// an error instead of a file written on the server.
fn converse(
    server: &mut ClientHandle,
    save_to: Option<&[Arc<FrozenKb>]>,
    boot: &MetricsSnapshot,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> std::io::Result<bool> {
    writeln!(
        output,
        "hello kb-server protocol {PROTOCOL_VERSION} snap {} obs {}",
        snap::FORMAT_VERSION,
        obs::OBS_VERSION
    )?;
    let mut line = String::new();
    loop {
        // Print whatever the shards finished while we were reading.
        for (seq, resp) in server.try_drain() {
            writeln!(output, "{seq} {resp}")?;
        }
        output.flush()?;
        line.clear();
        if (&mut *input)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_line(&mut line)?
            == 0
        {
            break; // EOF: flush and return
        }
        if line.len() > MAX_LINE_BYTES {
            for (seq, resp) in server.sync() {
                writeln!(output, "{seq} {resp}")?;
            }
            writeln!(output, "err line exceeds {MAX_LINE_BYTES} bytes")?;
            output.flush()?;
            return Ok(true);
        }
        match parse_request(&line) {
            Ok(None) => {}
            Ok(Some(Request::Quit)) => {
                for (seq, resp) in server.sync() {
                    writeln!(output, "{seq} {resp}")?;
                }
                output.flush()?;
                return Ok(false);
            }
            Ok(Some(Request::Sync)) => {
                for (seq, resp) in server.sync() {
                    writeln!(output, "{seq} {resp}")?;
                }
                writeln!(output, "synced")?;
            }
            Ok(Some(Request::Stats)) => {
                let stats = server.stats();
                for s in &stats {
                    writeln!(output, "{}", s.render())?;
                }
                writeln!(output, "{}", serve::ShardStats::render_merged(&stats))?;
            }
            Ok(Some(Request::Metrics)) => {
                write!(output, "{}", server.metrics_text(Some(boot)))?;
            }
            Ok(Some(Request::Slow)) => {
                let worst = server.slow_traces();
                if worst.is_empty() {
                    writeln!(output, "slow-log empty")?;
                }
                for t in worst {
                    writeln!(output, "{}", t.to_json())?;
                }
            }
            Ok(Some(Request::Trace(id))) => match server.trace(id) {
                Some(t) => writeln!(output, "{}", t.to_json())?,
                None => writeln!(output, "err trace {id} not retained")?,
            },
            Ok(Some(Request::Save { kb, path })) => match save_to {
                None => writeln!(output, "err save is not accepted over TCP")?,
                Some(kbs) => match save_kb(kbs, kb, &path) {
                    Ok(()) => writeln!(output, "saved {path}")?,
                    Err(e) => writeln!(output, "err {e}")?,
                },
            },
            Ok(Some(Request::Query { kb, cmd })) => match server.submit(kb, cmd) {
                Ok(_) => {}
                Err(e) => writeln!(output, "err {e}")?,
            },
            Ok(Some(Request::Batch { kb, cmds })) => match server.submit_batch(kb, cmds) {
                Ok(_) => {}
                Err(e) => writeln!(output, "err {e}")?,
            },
            Err(e) => writeln!(output, "err {e}")?,
        }
    }
    for (seq, resp) in server.sync() {
        writeln!(output, "{seq} {resp}")?;
    }
    output.flush()?;
    Ok(true)
}

/// Serve TCP connections concurrently over one shard pool: fork one
/// [`ClientHandle`] per accepted connection and run its conversation on a
/// thread of its own. TCP conversations may not `save`. A `quit` from any
/// of them is signalled on `quit`; the caller shuts the pool down (the
/// process exit then tears this accept loop down with it).
fn serve_tcp(
    listener: TcpListener,
    client: ClientHandle,
    boot: Arc<MetricsSnapshot>,
    quit: mpsc::Sender<()>,
) {
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let peer = stream.peer_addr().ok();
                let mut handle = client.fork();
                let boot = Arc::clone(&boot);
                let quit = quit.clone();
                std::thread::spawn(move || {
                    let (mut input, mut output) = match open_connection(stream) {
                        Ok(io) => io,
                        Err(e) => {
                            eprintln!("kb-server: {e}");
                            return;
                        }
                    };
                    match converse(&mut handle, None, &boot, &mut input, &mut output) {
                        Ok(true) => eprintln!("kb-server: {peer:?} disconnected"),
                        Ok(false) => {
                            let _ = quit.send(());
                        }
                        Err(e) => eprintln!("kb-server: {peer:?}: {e}"),
                    }
                });
            }
            Err(e) => eprintln!("kb-server: accept: {e}"),
        }
    }
}

fn main() {
    let mut shards = 4usize;
    let mut replicas = 1usize;
    let mut batch_window = Duration::ZERO;
    let mut listen: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => shards = v,
                _ => usage(),
            },
            "--replicas" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => replicas = v,
                _ => usage(),
            },
            "--batch-window" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => batch_window = Duration::from_micros(v),
                None => usage(),
            },
            "--listen" => match args.next() {
                Some(v) => listen = Some(v),
                None => usage(),
            },
            "--snapshot" => match args.next() {
                Some(v) => specs.push(format!("snap:{v}")),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => specs.push(a),
        }
    }
    if specs.is_empty() {
        usage();
    }

    let mut kbs = Vec::new();
    for spec in &specs {
        match load(spec) {
            Ok(kb) => kbs.push(Arc::new(kb)),
            Err(e) => {
                eprintln!("kb-server: {e}");
                std::process::exit(1);
            }
        }
    }
    let base = kbs.len();
    for r in 1..replicas {
        for i in 0..base {
            kbs.push(Arc::clone(&kbs[i]));
        }
        let _ = r;
    }
    for (i, kb) in kbs.iter().enumerate() {
        eprintln!(
            "kb {i} ({}): vars={} sdd={} gates={} mem_bytes={} shard={}",
            specs[i % base],
            kb.vars().len(),
            kb.sdd_size(),
            kb.unfolded_size(),
            kb.memory_bytes(),
            i % shards,
        );
    }

    // Boot-time telemetry: compile/load reports and per-kb sizes land in a
    // registry snapshotted once — per-query families live in the shard
    // registries and are merged in by `metrics_text`. Only the unique
    // bases publish (replicas share slabs; re-publishing would duplicate
    // the gauges under the replica's id).
    let boot_registry = MetricsRegistry::new();
    for (i, kb) in kbs.iter().take(base).enumerate() {
        kb.publish_boot_metrics(&boot_registry, i);
    }
    let boot = boot_registry.snapshot();

    // The shard pool takes ownership of one Arc per base; this second list
    // serves the stdin conversation's `save` verb.
    let kbs_for_save = kbs.clone();
    let boot = Arc::new(boot);
    let server = KbServer::with_batch_window(kbs, shards, batch_window);
    match listen {
        None => {
            let mut handle = server.client();
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut input = stdin.lock();
            let mut output = BufWriter::new(stdout.lock());
            if let Err(e) = converse(
                &mut handle,
                Some(kbs_for_save.as_slice()),
                &boot,
                &mut input,
                &mut output,
            ) {
                eprintln!("kb-server: {e}");
            }
        }
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("kb-server: bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "kb-server: listening on {addr} (batch window {} us)",
                batch_window.as_micros()
            );
            let (quit_tx, quit_rx) = mpsc::channel::<()>();
            let accept_client = server.client();
            std::thread::spawn(move || serve_tcp(listener, accept_client, boot, quit_tx));
            let _ = quit_rx.recv();
        }
    }
    for s in server.shutdown() {
        eprintln!("{}", s.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_have_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (input, output) = open_connection(stream).unwrap();
        assert!(output.get_ref().nodelay().unwrap());
        assert!(input.get_ref().nodelay().unwrap());
    }

    /// A one-base pool over `chain:6` (21 models), its TCP conversations
    /// served by `serve_tcp` exactly as `main` serves them.
    fn loopback_server() -> (KbServer, std::net::SocketAddr) {
        let kb = load("chain:6").unwrap();
        let server = KbServer::new(vec![Arc::new(kb)], 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = server.client();
        let boot = Arc::new(MetricsRegistry::new().snapshot());
        let (quit, _) = mpsc::channel();
        std::thread::spawn(move || serve_tcp(listener, client, boot, quit));
        (server, addr)
    }

    /// Connect and consume the banner. Reads time out, so a server that
    /// never answers fails the test instead of hanging it.
    fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut input = BufReader::new(stream.try_clone().unwrap());
        assert!(next_line(&mut input).starts_with("hello kb-server protocol"));
        (input, stream)
    }

    fn next_line(input: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        input.read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn tcp_clients_cannot_save() {
        let (server, addr) = loopback_server();
        let path = std::env::temp_dir().join(format!("kb_server_tcp_save_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut input, mut output) = connect(addr);
        writeln!(output, "save 0 {}\nkb 0 count\nsync", path.display()).unwrap();
        assert_eq!(next_line(&mut input), "err save is not accepted over TCP\n");
        assert_eq!(next_line(&mut input), "0 ok 21\n");
        assert_eq!(next_line(&mut input), "synced\n");
        assert!(!path.exists(), "no file may be written for a TCP client");
        server.shutdown();
    }

    #[test]
    fn an_overlong_line_closes_only_its_own_conversation() {
        let (server, addr) = loopback_server();
        let (mut long_in, long_out) = connect(addr);
        let (mut input, mut output) = connect(addr);
        // 2 MiB and no newline, from a thread of its own: the server stops
        // reading after MAX_LINE_BYTES + 1 and closes, so the tail of the
        // write may be refused.
        let writer = std::thread::spawn(move || {
            let mut long_out = long_out;
            let _ = long_out.write_all(&vec![b'x'; 2 << 20]);
        });
        writeln!(output, "kb 0 count\nsync").unwrap();
        assert_eq!(next_line(&mut input), "0 ok 21\n");
        assert_eq!(next_line(&mut input), "synced\n");

        assert_eq!(
            next_line(&mut long_in),
            format!("err line exceeds {MAX_LINE_BYTES} bytes\n")
        );
        let mut rest = String::new();
        assert!(
            matches!(long_in.read_line(&mut rest), Ok(0) | Err(_)),
            "the conversation closed, got {rest:?}"
        );
        writer.join().unwrap();

        // The other conversation is untouched.
        writeln!(output, "kb 0 count\nsync").unwrap();
        assert_eq!(next_line(&mut input), "1 ok 21\n");
        assert_eq!(next_line(&mut input), "synced\n");
        server.shutdown();
    }
}
