//! Timings scaled to a reference host speed.
//!
//! A guest's speed drifts with the load of the host's other tenants: on a
//! 2-vCPU x86-64 VM with nothing else running in the guest, a fixed loop's
//! time stepped between two levels about 40% apart within a minute, and
//! other tenants stole up to a tenth of the vCPUs' time. A run's wall-clock
//! figures follow that drift, so two runs of the same code disagree by more
//! than any useful bound. The benchmark therefore times a fixed reference kernel, its own
//! code and untouched by the code under test, between the operations it
//! measures, and reports each timing as it would read on a host that runs
//! the kernel in `NOMINAL_US`: measured time × `NOMINAL_US` / mean kernel
//! time alongside it. The raw figures and the factor are printed too.

use crate::stats::SLICE_S;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// The reference host's time for one kernel run.
pub const NOMINAL_US: f64 = 2000.0;

/// Multiplicative hashing, so the kernel's table layout, unlike std's
/// randomly seeded default, is the same in every process.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

const KEYS: usize = 1 << 14;

/// The kind of work compilation and evaluation do: hash-table inserts and
/// probes, small heap allocations, and a sort that chases pointers.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (2 * KEYS as u64)
        })
        .collect();
    let mut map: HashMap<u64, u32, BuildHasherDefault<MulHasher>> = HashMap::default();
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u32);
    }
    let mut acc: u64 = keys.iter().rev().map(|k| map[k] as u64).sum();
    let mut boxed: Vec<Box<[u64; 4]>> = keys
        .iter()
        .map(|&k| Box::new([k, k >> 1, k >> 2, k >> 3]))
        .collect();
    boxed.sort_unstable_by_key(|b| b[0] ^ b[3]);
    acc = acc.wrapping_add(boxed[KEYS / 2][1]);
    acc
}

/// Run the kernel untimed, so that no sample pays for the heap's first
/// growth.
pub fn warm_up() {
    for _ in 0..3 {
        std::hint::black_box(kernel());
    }
}

/// Kernel runs timed alongside a stretch of measured work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge {
    us: f64,
    runs: u32,
}

impl Gauge {
    /// Time `reps` more kernel runs.
    pub fn sample(&mut self, reps: u32) {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(kernel());
        }
        self.us += t.elapsed().as_secs_f64() * 1e6;
        self.runs += reps;
    }

    /// Mean time of one kernel run, in microseconds.
    pub fn kernel_us(&self) -> f64 {
        assert!(self.runs > 0, "gauge read before any sample");
        self.us / self.runs as f64
    }

    /// What a time measured alongside the samples is multiplied by to read
    /// as on the reference host.
    pub fn factor(&self) -> f64 {
        NOMINAL_US / self.kernel_us()
    }

    pub fn absorb(&mut self, other: Gauge) {
        self.us += other.us;
        self.runs += other.runs;
    }

    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// All kernel runs of `gauges` together.
    pub fn combined(gauges: &[Gauge]) -> Gauge {
        let mut all = Gauge::default();
        gauges.iter().for_each(|g| all.absorb(*g));
        all
    }

    /// Add `reps` kernel runs to `gauges[at_s / SLICE_S]`, growing the
    /// list as needed.
    pub fn sample_into(gauges: &mut Vec<Gauge>, at_s: f64, reps: u32) {
        let i = (at_s / SLICE_S) as usize;
        if gauges.len() <= i {
            gauges.resize(i + 1, Gauge::default());
        }
        gauges[i].sample(reps);
    }

    /// One kernel run of `us` microseconds, for tests.
    #[cfg(test)]
    pub fn at(us: f64) -> Gauge {
        Gauge { us, runs: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn factor_scales_to_the_nominal_kernel_time() {
        let mut g = Gauge::default();
        g.sample(2);
        assert_eq!(g.runs, 2);
        assert!((g.factor() * g.kernel_us() - NOMINAL_US).abs() < 1e-6);
        let mut h = Gauge {
            us: 3.0 * NOMINAL_US,
            runs: 1,
        };
        h.absorb(Gauge {
            us: NOMINAL_US,
            runs: 3,
        });
        assert_eq!(h.factor(), 1.0);
    }
}
