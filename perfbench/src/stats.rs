//! Order statistics over latency samples.

use crate::speed::Gauge;

/// Percentile `q ∈ [0, 1]` of ascending `sorted` by linear interpolation
/// between closest ranks (rank `q·(n−1)`), the convention of numpy's
/// default and of Python's `statistics.quantiles(method="inclusive")`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median and 99th percentile of one latency population.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50: f64,
    pub p99: f64,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Latency {
            p50: percentile(&v, 0.50),
            p99: percentile(&v, 0.99),
        }
    }
}

/// Slice length of the wire workloads' per-slice percentiles.
pub const SLICE_S: f64 = 1.0;

/// One timed operation: when it completed (seconds from the loop start)
/// and how long it took (microseconds).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub done_s: f64,
    pub latency_us: f64,
}

/// A wire loop's end-to-end figures at the reference speed (see `speed`):
/// operations per second over the whole run, scaled by the whole run's
/// kernel runs; and p50 and p99 per slice of `SLICE_S` seconds by
/// completion time, each scaled by the kernel runs made in its slice, of
/// which the lower quartile over the slices is reported. The host's bursts
/// of contention only ever add latency, and they hit a varying share of a
/// run's slices: over nine runs of the same code on a contended host, the
/// lower quartile of the slices' p99 spread half as much as their median.
#[derive(Clone, Copy, Debug)]
pub struct Figures {
    pub samples: usize,
    pub slices: usize,
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
}

impl Figures {
    /// `samples` of every operation a loop of `elapsed_s` seconds
    /// completed; `gauges[i]` holds the kernel runs made in slice `i`.
    /// Slices end at whole multiples of `SLICE_S` from the loop's start; a
    /// trailing part shorter than half a slice joins the slice before it.
    pub fn of(samples: &[Sample], elapsed_s: f64, gauges: &[Gauge]) -> Figures {
        let last = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
        let slices = ((last / SLICE_S).round() as usize).max(1);
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for s in samples {
            let i = ((s.done_s / SLICE_S) as usize).min(slices - 1);
            buckets[i].push(s.latency_us);
        }
        let mut slice_gauges = vec![Gauge::default(); slices];
        for (i, g) in gauges.iter().enumerate() {
            slice_gauges[i.min(slices - 1)].absorb(*g);
        }
        let run = Gauge::combined(gauges);
        let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        for (b, g) in buckets.iter().zip(&slice_gauges) {
            if b.is_empty() {
                continue;
            }
            let f = if g.is_empty() {
                run.factor()
            } else {
                g.factor()
            };
            let l = Latency::of(b);
            p50.push(l.p50 * f);
            p99.push(l.p99 * f);
        }
        p50.sort_by(f64::total_cmp);
        p99.sort_by(f64::total_cmp);
        Figures {
            samples: samples.len(),
            slices: p50.len(),
            throughput: samples.len() as f64 / (elapsed_s * run.factor()),
            p50: percentile(&p50, 0.25),
            p99: percentile(&p99, 0.25),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::NOMINAL_US;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        let l = Latency::of(&v);
        assert_eq!(l.p50, 51.0);
        assert_eq!(l.p99, 100.0);
        let l = Latency::of(&[10.0, 0.0]);
        assert_eq!(l.p50, 5.0);
        assert!((l.p99 - 9.9).abs() < 1e-12);
    }

    #[test]
    fn slices_take_the_lower_quartile_of_percentiles() {
        // Three one-second slices; the middle one is disturbed.
        let mut v = Vec::new();
        for (slice, lat, n) in [(0.0, 10.0, 100), (1.0, 1000.0, 10), (2.0, 12.0, 120)] {
            for i in 0..n {
                v.push(Sample {
                    done_s: slice + i as f64 / n as f64,
                    latency_us: lat,
                });
            }
        }
        let nominal = Gauge::at(NOMINAL_US);
        let f = Figures::of(&v, 3.0, &[nominal; 3]);
        assert_eq!((f.samples, f.slices), (230, 3));
        assert_eq!(f.throughput, 230.0 / 3.0);
        // Slices 10, 1000 and 12: the lower quartile is 11.
        assert_eq!((f.p50, f.p99), (11.0, 11.0));
        // Each slice takes its own kernel time; throughput the mean one.
        let slow = Gauge::at(2.0 * NOMINAL_US);
        let f = Figures::of(&v, 3.0, &[slow, slow, nominal]);
        assert_eq!((f.p50, f.p99), (8.5, 8.5));
        assert_eq!(f.throughput, 230.0 / 3.0 * 5.0 / 3.0);
        // A slice without kernel runs takes the whole run's.
        let f = Figures::of(&v, 3.0, &[slow]);
        assert_eq!((f.p50, f.p99), (5.5, 5.5));
        // A short trailing part joins the last whole slice.
        v.push(Sample {
            done_s: 3.4,
            latency_us: 12.0,
        });
        assert_eq!(Figures::of(&v, 3.4, &[nominal]).slices, 3);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_is_a_bug() {
        percentile(&[], 0.5);
    }
}
