//! Driving the real `kb-server` binary over loopback TCP: boot it on a free
//! port, time spawn → banner, talk the line protocol, scrape its
//! `stats`/`metrics` verbs, and stop it.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server command line both wire workloads share (before `--listen`
/// and the knowledge-base spec).
pub const SERVER_FLAGS: [&str; 6] = ["--shards", "2", "--replicas", "2", "--batch-window", "500"];

/// How long a boot may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// Spawns on fresh ports before giving up on binding.
const BIND_ATTEMPTS: usize = 8;

/// One line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let stream = TcpStream::connect((Ipv4Addr::LOCALHOST, port))
            .map_err(|e| format!("connect 127.0.0.1:{port}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// The next response line, without its newline.
    pub fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end_matches(['\n', '\r'])),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send `request` followed by `sync` and collect every line up to the
    /// `synced` marker. The front-end writes finished answers only before
    /// it reads its next line, so a client that waits without sending
    /// anything waits forever: every exchange here ends with `sync`.
    pub fn exchange(&mut self, request: &str) -> Result<Vec<String>, String> {
        self.send(format!("{request}\nsync\n").as_bytes())?;
        let mut lines = Vec::new();
        loop {
            let l = self.read_line()?;
            if l == "synced" {
                return Ok(lines);
            }
            lines.push(l.to_string());
        }
    }
}

/// A running `kb-server` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub port: u16,
    log: Option<JoinHandle<()>>,
}

/// A port the kernel just handed out. `kb-server --listen 127.0.0.1:0`
/// never reports the port it bound, so the benchmark picks one and retries
/// on a bind race.
fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(|e| format!("bind: {e}"))?;
    l.local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("local_addr: {e}"))
}

impl Server {
    /// Spawn `bin` with the shared flags and `specs`, wait for it to
    /// listen, open the first connection and read the banner. Returns the
    /// server, that connection, and the spawn → banner time.
    pub fn boot(bin: &Path, specs: &[String]) -> Result<(Server, Conn, Duration), String> {
        let mut last_err = String::new();
        for _ in 0..BIND_ATTEMPTS {
            let port = free_port()?;
            let t0 = Instant::now();
            let mut child = Command::new(bin)
                .args(SERVER_FLAGS)
                .arg("--listen")
                .arg(format!("127.0.0.1:{port}"))
                .args(specs)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let stderr = child.stderr.take().expect("stderr is piped");
            let (tx, rx) = mpsc::channel::<String>();
            // Drain stderr for the server's whole life (a full pipe would
            // block it), forwarding lines until the boot is settled.
            let log = std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    let _ = tx.send(line);
                }
            });
            let mut server = Server {
                child,
                port,
                log: Some(log),
            };
            let mut seen = Vec::new();
            let listening = loop {
                match rx.recv_timeout(BOOT_TIMEOUT) {
                    Ok(line) if line.contains("listening on") => break true,
                    Ok(line) => seen.push(line),
                    Err(_) => break false,
                }
            };
            drop(rx);
            if !listening {
                server.stop_now();
                last_err = format!("kb-server did not come up: {}", seen.join(" | "));
                if seen.iter().any(|l| l.contains("bind")) {
                    continue; // lost a race for the port: try another
                }
                return Err(last_err);
            }
            let mut conn = Conn::open(port)?;
            let banner = conn.read_line()?.to_string();
            let setup = t0.elapsed();
            if !banner.starts_with("hello kb-server protocol") {
                return Err(format!("unexpected banner {banner:?}"));
            }
            return Ok((server, conn, setup));
        }
        Err(last_err)
    }

    /// Open another conversation (banner consumed).
    pub fn connect(&self) -> Result<Conn, String> {
        let mut conn = Conn::open(self.port)?;
        let banner = conn.read_line()?.to_string();
        if !banner.starts_with("hello kb-server protocol") {
            return Err(format!("unexpected banner {banner:?}"));
        }
        Ok(conn)
    }

    /// `VmHWM` of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the server to quit over `conn` and reap it.
    pub fn quit(mut self, mut conn: Conn) -> Result<(), String> {
        conn.send(b"quit\n")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.stop_now();
                    return Err("kb-server did not exit on quit".into());
                }
            }
        }
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
        Ok(())
    }

    fn stop_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.log.is_some() {
            self.stop_now();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

/// Boot the server `reps` times and keep the last one running: the median
/// of the spawn → banner times is the workload's `setup_s`.
/// Spawn → banner times of `reps` more boots, each server stopped again.
pub fn boot_times(bin: &Path, specs: &[String], reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let (server, conn, setup) = Server::boot(bin, specs)?;
            server.quit(conn)?;
            Ok(setup.as_secs_f64())
        })
        .collect()
}

/// Boot `reps` times and keep the last server running: it, its first
/// connection, and every boot's spawn → banner time.
pub fn boot_repeated(
    bin: &Path,
    specs: &[String],
    reps: usize,
) -> Result<(Server, Conn, Vec<f64>), String> {
    let mut setups = boot_times(bin, specs, reps.saturating_sub(1))?;
    let (server, conn, setup) = Server::boot(bin, specs)?;
    setups.push(setup.as_secs_f64());
    Ok((server, conn, setups))
}

/// The server's own accounting, read through its public verbs after the
/// timed loop: the merged `stats` line and the batch-depth histogram of
/// `metrics`.
#[derive(Debug, Default)]
pub struct Scrape {
    pub served: f64,
    pub busy_us: f64,
    pub queue_us: f64,
    pub coalesced: f64,
    pub window_wait_us: f64,
    pub depth_sum: f64,
    pub depth_count: f64,
}

impl Scrape {
    pub fn read(conn: &mut Conn) -> Result<Scrape, String> {
        let mut s = Scrape::default();
        let stats = conn.exchange("stats")?;
        let all = stats
            .iter()
            .find(|l| l.starts_with("all "))
            .ok_or("stats printed no merged line")?;
        let toks: Vec<&str> = all.split_whitespace().collect();
        let field = |name: &str| -> Result<f64, String> {
            toks.iter()
                .position(|t| *t == name)
                .and_then(|i| toks.get(i + 1))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("stats line lacks {name}: {all}"))
        };
        s.served = field("served")?;
        s.busy_us = field("busy_us")?;
        s.queue_us = field("queue_us")?;
        s.coalesced = field("coalesced")?;
        s.window_wait_us = field("window_wait_us")?;
        for line in conn.exchange("metrics")? {
            let value = || line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
            if line.starts_with("serve_batch_depth_sum") {
                s.depth_sum += value().ok_or("bad batch depth sum")?;
            } else if line.starts_with("serve_batch_depth_count") {
                s.depth_count += value().ok_or("bad batch depth count")?;
            }
        }
        Ok(s)
    }

    /// The per-request serve-layer metrics.
    pub fn publish(&self, out: &mut crate::report::Outcome) {
        let per_req = |v: f64| v / self.served.max(1.0);
        out.layer("serve.queue_us_per_req", per_req(self.queue_us), "us");
        out.layer(
            "serve.window_wait_us_per_req",
            per_req(self.window_wait_us),
            "us",
        );
        out.layer("serve.busy_us_per_req", per_req(self.busy_us), "us");
        out.layer("serve.coalesced_ratio", per_req(self.coalesced), "ratio");
        out.layer(
            "serve.batch_depth_mean",
            self.depth_sum / self.depth_count.max(1.0),
            "lanes",
        );
    }
}
