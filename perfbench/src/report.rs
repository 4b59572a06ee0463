//! What one run measured, and the one-line JSON result it prints last.

use std::fmt::Write;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// One workload run: operation counts, the end-to-end metrics (untraced
/// loop) and the per-layer metrics (traced loop and replays).
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: lineages compiled, or wire requests sent.
    pub attempted: u64,
    /// Operations that failed, were refused, or disagreed with the oracle.
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable lines (sample counts, sizes) printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        // Rust's f64 Display is shortest-round-trip and never uses an
        // exponent, so every value is a valid JSON number with all its digits.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_result_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[
                metric("latency_p50_us", 0.000125, "us"),
                metric("setup_s", 2.0, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 0.000125, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
