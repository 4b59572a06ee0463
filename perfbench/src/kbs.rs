//! In-process twins of what `kb-server` builds at boot, for the oracles
//! and the per-layer timings.

use kb::{FrozenKb, KnowledgeBase, Lit};
use sentential_core::{Compiler, CountTimings};
use std::time::Duration;

/// A band CNF compiled exactly as `kb-server` compiles a `band:N:W` spec
/// (serving posture: no up-front exact count), then frozen.
pub fn compile_band(n: u32, w: u32) -> Result<(FrozenKb, CountTimings, Duration), String> {
    let f = cnf::families::band_cnf(n, w);
    let compiler = Compiler::builder().exact_counts(false).build();
    let c = compiler
        .compile_cnf(&f)
        .map_err(|e| format!("band:{n}:{w}: {e}"))?;
    let timings = c.report.timings;
    let kb =
        KnowledgeBase::from_cnf_compilation(c, &f).map_err(|e| format!("band:{n}:{w}: {e}"))?;
    let t = std::time::Instant::now();
    let frozen = kb.freeze();
    Ok((frozen, timings, t.elapsed()))
}

/// Literals on the wire: 1-based variables, sign is polarity.
pub fn render_lits(out: &mut String, lits: &[Lit]) {
    for &(v, pos) in lits {
        out.push(' ');
        if !pos {
            out.push('-');
        }
        out.push_str(&(v.0 + 1).to_string());
    }
}
