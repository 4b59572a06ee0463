//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server PATH [--corrupt-oracle]
//! ```
//!
//! Workloads: `compile_lineage` (in process), `wire_pipelined` and
//! `wire_interactive` (the `kb-server` binary at `--server`, over loopback).
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer metrics, measuring its own workload's layers in full and the
//! other workloads' layers with a short probe on the same seed. Every
//! answer is checked against an oracle. The last line of standard output is
//! the JSON result; the exit code is nonzero if any answer failed or
//! disagreed with its oracle. `--corrupt-oracle` falsifies one expected
//! answer, to show that the check fails the run.

mod interactive;
mod kbs;
mod lineage;
mod pipelined;
mod report;
mod rng;
mod speed;
mod stats;
mod wire;

use report::{result_json, Outcome};
use std::path::PathBuf;

/// What a workload run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics only.
    Untraced,
    /// The loop split into an untraced and a traced half, plus layers.
    Traced,
    /// A short traced run for another workload's layer metrics.
    Probe,
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub server: PathBuf,
    /// Scratch space inside the checkout, removed on exit.
    pub tmp_dir: PathBuf,
    pub corrupt_oracle: bool,
}

const WORKLOADS: [&str; 3] = ["compile_lineage", "wire_pipelined", "wire_interactive"];
/// Seconds each other workload's layer probe runs in a traced run.
const PROBE_SECONDS: f64 = 1.0;

fn run(name: &str, ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    match name {
        "compile_lineage" => lineage::run(ctx, mode),
        "wire_pipelined" => pipelined::run(ctx, mode),
        "wire_interactive" => interactive::run(ctx, mode),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         --server PATH [--corrupt-oracle]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    let mut corrupt_oracle = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--server" => server = Some(PathBuf::from(value())),
            "--corrupt-oracle" => corrupt_oracle = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let tmp_dir = std::env::current_dir()
        .unwrap_or_else(|e| usage(&format!("cwd: {e}")))
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp_dir) {
        usage(&format!("{}: {e}", tmp_dir.display()));
    }
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        server: server.unwrap_or_else(|| usage("--server is required")),
        tmp_dir,
        corrupt_oracle,
    };
    speed::warm_up();
    let result = measure(
        &workload,
        &ctx,
        trace.unwrap_or_else(|| usage("--trace is required")),
    );
    let _ = std::fs::remove_dir_all(&ctx.tmp_dir);
    if let Some(parent) = ctx.tmp_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    match result {
        Ok((out, traced)) => {
            for n in &out.notes {
                println!("{n}");
            }
            let metrics = if traced { &out.layers } else { &out.e2e };
            let correct = out.failed == 0;
            println!(
                "{}",
                result_json(correct, out.attempted, out.failed, metrics)
            );
            if !correct {
                eprintln!(
                    "perfbench: {} of {} operations failed",
                    out.failed, out.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run the workload; traced, add the other workloads' layer probes (a
/// layer metric keeps the first value measured, so the workload's own wins).
fn measure(workload: &str, ctx: &Ctx, traced: bool) -> Result<(Outcome, bool), String> {
    if !traced {
        return Ok((run(workload, ctx, Mode::Untraced)?, false));
    }
    let mut out = run(workload, ctx, Mode::Traced)?;
    let probe_ctx = Ctx {
        seconds: PROBE_SECONDS,
        tmp_dir: ctx.tmp_dir.clone(),
        server: ctx.server.clone(),
        ..*ctx
    };
    for other in ["wire_interactive", "wire_pipelined", "compile_lineage"] {
        if other == workload {
            continue;
        }
        let probe = run(other, &probe_ctx, Mode::Probe)?;
        out.attempted += probe.attempted;
        out.failed += probe.failed;
        out.notes
            .extend(probe.notes.into_iter().map(|n| format!("probe {n}")));
        for m in probe.layers {
            if !out.layers.iter().any(|l| l.name == m.name) {
                out.layers.push(m);
            }
        }
    }
    Ok((out, true))
}
