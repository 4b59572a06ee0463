//! `compile_lineage`: an in-process closed loop compiling a seeded mix of
//! query lineages through `QueryCompiler::probability`, each answer checked
//! against an independent route.

use crate::report::Outcome;
use crate::rng::Rng;
use crate::speed::Gauge;
use crate::stats::{mean, median, Latency};
use crate::{Ctx, Mode};
use query::prob::{brute_force_probability, probability_via_obdd, safe_probability};
use query::{families, lineage_circuit, Database, QueryCompiler, Ucq};
use std::time::{Duration, Instant};

/// Answers must agree with the oracle to this absolute tolerance.
const TOLERANCE: f64 = 1e-9;
/// At most this many tuples, the brute-force route is the oracle.
const BRUTE_FORCE_MAX_TUPLES: usize = 20;
/// How many times the databases are built to time `setup_s`, before the
/// loop and again after it.
const SETUP_REPS: usize = 25;
/// Reference kernel runs after each operation.
const REFERENCE_REPS: u32 = 3;

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// `R(x)S(x,y)` over about this many tuples.
    Hierarchical(usize),
    /// `uh(k)` over the complete database on domain `[n]`.
    Unsafe { k: usize, n: usize },
    /// `S(x,y), S(x',y'), x ≠ x'` over this many tuples.
    SelfJoin(usize),
}

/// The full mix: one round compiles each of these once. The mix fixes
/// every lineage's shape and the seed draws the data (marginals, constants),
/// so a round costs about the same under every seed. The middle of the mix
/// is a cluster of five lineages of three kinds with about the same cost
/// (20–40 ms), seven lighter and eight heavier: a round's median falls
/// inside the cluster, so it does not hinge on one instance, whose share of
/// the host's drift differs from its neighbours'. Self-join sizes skip
/// 16–21 tuples, where the brute-force oracle would cost seconds.
const FULL_MIX: [Kind; 20] = [
    // Lighter.
    Kind::SelfJoin(10),
    Kind::SelfJoin(11),
    Kind::SelfJoin(12),
    Kind::SelfJoin(13),
    Kind::Unsafe { k: 1, n: 3 },
    Kind::Unsafe { k: 1, n: 3 },
    Kind::Hierarchical(200),
    // The middle cluster.
    Kind::SelfJoin(14),
    Kind::Unsafe { k: 2, n: 3 },
    Kind::Unsafe { k: 2, n: 3 },
    Kind::Hierarchical(280),
    Kind::Hierarchical(300),
    // Heavier.
    Kind::Hierarchical(400),
    Kind::Hierarchical(500),
    Kind::Hierarchical(600),
    Kind::Hierarchical(800),
    Kind::Hierarchical(1100),
    Kind::Unsafe { k: 1, n: 4 },
    Kind::SelfJoin(22),
    Kind::SelfJoin(26),
];

/// The members of the mix that compile in well under 100 ms, for the short
/// layer probe other workloads' traced runs make.
const LIGHT_MIX: [Kind; 7] = [
    Kind::Hierarchical(300),
    Kind::Hierarchical(450),
    Kind::Unsafe { k: 1, n: 3 },
    Kind::Unsafe { k: 2, n: 3 },
    Kind::SelfJoin(10),
    Kind::SelfJoin(12),
    Kind::SelfJoin(14),
];

struct Instance {
    label: String,
    q: Ucq,
    db: Database,
    hierarchical: bool,
}

fn build(kind: Kind, rng: &mut Rng) -> Instance {
    match kind {
        Kind::Hierarchical(target) => {
            let (q, schema) = families::two_atom_hierarchical();
            let r = schema.by_name("R").expect("R");
            let s = schema.by_name("S").expect("S");
            let mut db = Database::new(schema);
            let mut x = 0u64;
            while db.num_tuples() < target {
                x += 1;
                // Small marginals keep P(Q) well inside (0, 1) at a
                // thousand tuples.
                db.insert(r, vec![x], rng.uniform(0.001, 0.01));
                let fan = 1 + (x % 4) as usize;
                for y in rng.distinct(fan, 8) {
                    db.insert(s, vec![x, y], rng.uniform(0.05, 0.5));
                }
            }
            Instance {
                label: format!("hier{target}"),
                q,
                db,
                hierarchical: true,
            }
        }
        Kind::Unsafe { k, n } => {
            let (q, schema) = families::uh(k);
            let mut db = families::uh_complete_db(&schema, k, n, 0.5);
            let vars = db.vars();
            let rels: Vec<_> = vars
                .iter()
                .map(|v| db.tuple(query::TupleId(v.0)).clone())
                .collect();
            for t in rels {
                db.insert(t.rel, t.args, rng.uniform(0.02, 0.3));
            }
            Instance {
                label: format!("uh{k}_d{n}"),
                q,
                db,
                hierarchical: false,
            }
        }
        Kind::SelfJoin(n) => {
            let (q, schema) = families::sjoin_inequality_query();
            let s = schema.by_name("S").expect("S");
            let mut db = Database::new(schema);
            let ys = rng.distinct(n, 1000);
            for (i, y) in ys.into_iter().enumerate() {
                db.insert(s, vec![i as u64 % 2, y], rng.uniform(0.02, 0.2));
            }
            Instance {
                label: format!("sjoin{n}"),
                q,
                db,
                hierarchical: false,
            }
        }
    }
}

/// The mix in its fixed order: the order, like the shapes, does not depend
/// on the seed, so rounds do the same work under every seed.
fn build_mix(mix: &[Kind], seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed, 300);
    mix.iter().map(|&k| build(k, &mut rng)).collect()
}

/// The independent route for one instance: the lifted safe plan for the
/// hierarchical query, brute force over subdatabases at ≤ 20 tuples, the
/// OBDD route otherwise.
fn oracle(inst: &Instance) -> (f64, &'static str) {
    if inst.hierarchical {
        let p = safe_probability(&inst.q.cqs[0], &inst.db).expect("R(x)S(x,y) has a safe plan");
        (p, "safe")
    } else if inst.db.num_tuples() <= BRUTE_FORCE_MAX_TUPLES {
        (brute_force_probability(&inst.q, &inst.db), "brute")
    } else {
        (probability_via_obdd(&inst.q, &inst.db), "obdd")
    }
}

/// Layer time and counters summed over the traced loop.
#[derive(Default)]
struct Layers {
    ops: u64,
    lineage: Duration,
    vtree: Duration,
    sdd: Duration,
    validate: Duration,
    eval: Duration,
    apply_calls: u64,
    cache_hits: u64,
    unique_probes: u64,
    unique_inserts: u64,
}

/// One compile-and-evaluate: `QueryCompiler::probability` untraced; traced,
/// the same steps called one by one with a span around each.
fn compile_once(
    qc: &QueryCompiler,
    inst: &Instance,
    layers: Option<&mut Layers>,
) -> Result<(f64, usize), String> {
    let Some(l) = layers else {
        let a = qc
            .probability(&inst.q, &inst.db)
            .map_err(|e| format!("{}: {e}", inst.label))?;
        return Ok((a.probability, a.report.map_or(0, |r| r.sdd_size)));
    };
    inst.q
        .validate(inst.db.schema())
        .map_err(|e| format!("{}: {e}", inst.label))?;
    let t = Instant::now();
    let lineage = lineage_circuit(&inst.q, &inst.db);
    l.lineage += t.elapsed();
    let compiled = qc
        .compiler()
        .compile(&lineage)
        .map_err(|e| format!("{}: {e}", inst.label))?;
    let t = Instant::now();
    let p = compiled.probability(|v| inst.db.prob_of_var(v));
    l.eval += t.elapsed();
    let r = &compiled.report;
    l.ops += 1;
    l.vtree += r.timings.vtree;
    l.sdd += r.timings.sdd;
    l.validate += r.timings.validate;
    l.apply_calls += r.apply.apply_calls;
    l.cache_hits += r.apply.cache_hits;
    l.unique_probes += r.apply.unique_probes;
    l.unique_inserts += r.apply.unique_inserts;
    Ok((p, r.sdd_size))
}

struct LoopResult {
    /// Wall time of each operation, round after round.
    latencies_us: Vec<f64>,
    /// The reference-speed factor of each round (see `speed`).
    round_factor: Vec<f64>,
    /// The reference kernel over the whole loop.
    gauge: Gauge,
    failed: u64,
    /// SDD elements of one round (each instance compiled once).
    round_elements: usize,
}

impl LoopResult {
    /// Each round's operation latencies, scaled to the reference speed.
    fn scaled_rounds(&self, round_len: usize) -> Vec<Vec<f64>> {
        self.latencies_us
            .chunks(round_len)
            .zip(&self.round_factor)
            .map(|(round, f)| round.iter().map(|us| us * f).collect())
            .collect()
    }

    /// Operations per second of operation time: raw, and at the reference
    /// speed.
    fn throughput(&self, round_len: usize) -> (f64, f64) {
        let ops = self.latencies_us.len() as f64;
        let raw: f64 = self.latencies_us.iter().sum();
        let scaled: f64 = self.scaled_rounds(round_len).iter().flatten().sum();
        (ops * 1e6 / raw, ops * 1e6 / scaled)
    }
}

/// Whole rounds over the mix until `seconds` have passed. The reference
/// kernel runs after every operation, outside its timing.
fn closed_loop(
    qc: &QueryCompiler,
    mix: &[Instance],
    expected: &[f64],
    seconds: f64,
    mut layers: Option<&mut Layers>,
) -> Result<LoopResult, String> {
    let mut r = LoopResult {
        latencies_us: Vec::new(),
        round_factor: Vec::new(),
        gauge: Gauge::default(),
        failed: 0,
        round_elements: 0,
    };
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut gauge = Gauge::default();
        for (inst, &want) in mix.iter().zip(expected) {
            let t = Instant::now();
            let (p, elements) = compile_once(qc, inst, layers.as_deref_mut())?;
            r.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            gauge.sample(REFERENCE_REPS);
            // A NaN answer fails too.
            if (p - want).abs().is_nan() || (p - want).abs() > TOLERANCE {
                r.failed += 1;
            }
            if round == 0 {
                r.round_elements += elements;
            }
        }
        r.round_factor.push(gauge.factor());
        r.gauge.absorb(gauge);
        round += 1;
    }
    Ok(r)
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kinds: &[Kind] = if mode == Mode::Probe {
        &LIGHT_MIX
    } else {
        &FULL_MIX
    };

    // Set-up: build the seeded databases, several times for a median.
    let mut setup_gauge = Gauge::default();
    let mut setup_times = || -> (Vec<Instance>, Vec<f64>) {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut mix = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            mix = build_mix(kinds, ctx.seed);
            setups.push(t.elapsed().as_secs_f64());
            setup_gauge.sample(REFERENCE_REPS);
        }
        (mix, setups)
    };
    let (mix, mut setups) = setup_times();

    // Oracles, untimed.
    let mut routes = Vec::new();
    let mut expected: Vec<f64> = mix
        .iter()
        .map(|inst| {
            let (p, route) = oracle(inst);
            routes.push(format!("{}:{}t:{route}", inst.label, inst.db.num_tuples()));
            p
        })
        .collect();
    if ctx.corrupt_oracle {
        expected[0] += 1e-3;
    }
    out.note(format!("compile_lineage: mix {}", routes.join(" ")));

    let qc = QueryCompiler::new();
    let (main, overhead_pct, layers) = match mode {
        Mode::Untraced => (
            closed_loop(&qc, &mix, &expected, ctx.seconds, None)?,
            0.0,
            None,
        ),
        Mode::Traced | Mode::Probe => {
            let half = ctx.seconds / 2.0;
            let plain = closed_loop(&qc, &mix, &expected, half, None)?;
            let mut l = Layers::default();
            let traced = closed_loop(&qc, &mix, &expected, half, Some(&mut l))?;
            let thr = |r: &LoopResult| r.throughput(mix.len()).1;
            let overhead = 100.0 * (thr(&plain) / thr(&traced) - 1.0);
            out.attempted += plain.latencies_us.len() as u64;
            out.failed += plain.failed;
            (traced, overhead, Some(l))
        }
    };
    out.attempted += main.latencies_us.len() as u64;
    out.failed += main.failed;
    setups.extend(setup_times().1);

    // Throughput over all whole rounds; latency percentiles per round and
    // their median over rounds: a round is the loop's natural slice, and
    // the median shrugs off a disturbed one. All at the reference speed.
    let rounds: Vec<Latency> = main
        .scaled_rounds(mix.len())
        .iter()
        .map(|r| Latency::of(r))
        .collect();
    let (raw_thr, thr) = main.throughput(mix.len());
    let p50: Vec<f64> = rounds.iter().map(|l| l.p50).collect();
    let p99: Vec<f64> = rounds.iter().map(|l| l.p99).collect();
    let per_instance: Vec<String> = mix
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let own: Vec<f64> = main
                .latencies_us
                .iter()
                .skip(i)
                .step_by(mix.len())
                .copied()
                .collect();
            format!("{}={:.1}", inst.label, median(&own) / 1e3)
        })
        .collect();
    out.note(format!(
        "compile_lineage: median wall ms per instance {}",
        per_instance.join(" ")
    ));
    out.note(format!(
        "compile_lineage: latency samples {} over {} rounds of {}, setup samples {}",
        main.latencies_us.len(),
        rounds.len(),
        mix.len(),
        setups.len()
    ));
    let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    let setup_factor = setup_gauge.factor();
    out.note(format!(
        "compile_lineage: reference kernel {:.1} us in the loop (factor {:.4}), {:.1} us in set-up \
         (factor {:.4}); wall throughput_ops {raw_thr:.4}, wall setup_s {:.6}",
        main.gauge.kernel_us(),
        main.gauge.factor(),
        setup_gauge.kernel_us(),
        setup_factor,
        median(&setups)
    ));
    out.e2e("setup_s", median(&setups) * setup_factor, "s");
    out.e2e("throughput_ops", thr, "1/s");
    out.e2e("latency_p50_us", median(&p50), "us");
    out.e2e("latency_p99_us", median(&p99), "us");
    out.e2e("ok_ratio", ok, "ratio");
    out.e2e(
        "rss_peak_mb",
        crate::wire::vm_hwm_mb("/proc/self/status")?,
        "MB",
    );
    out.e2e("output_size", main.round_elements as f64, "elements");

    if let Some(l) = layers {
        let per_op_ms = |d: Duration| d.as_secs_f64() * 1e3 / l.ops.max(1) as f64;
        out.layer("query.lineage_ms", per_op_ms(l.lineage), "ms");
        out.layer("core.vtree_ms", per_op_ms(l.vtree), "ms");
        out.layer("core.sdd_ms", per_op_ms(l.sdd), "ms");
        out.layer("core.validate_ms", per_op_ms(l.validate), "ms");
        out.layer("sdd.eval_ms", per_op_ms(l.eval), "ms");
        out.layer(
            "sdd.apply_calls",
            l.apply_calls as f64 / l.ops.max(1) as f64,
            "count",
        );
        out.layer(
            "sdd.apply_hit_ratio",
            l.cache_hits as f64 / l.apply_calls.max(1) as f64,
            "ratio",
        );
        out.layer(
            "sdd.unique_probes_per_insert",
            l.unique_probes as f64 / l.unique_inserts.max(1) as f64,
            "ratio",
        );
        graphtw_layers(&mix, &mut out);
        out.layer("trace.overhead_pct", overhead_pct, "%");
    }
    Ok(out)
}

/// The decomposition layer on each lineage's primal graph, once per
/// instance of the mix: both elimination heuristics, and the tree and nice
/// tree decompositions built from the min-fill order.
fn graphtw_layers(mix: &[Instance], out: &mut Outcome) {
    let (mut fill, mut degree, mut td, mut width) = (vec![], vec![], vec![], vec![]);
    for inst in mix {
        let (g, _) = lineage_circuit(&inst.q, &inst.db).primal_graph();
        let t = Instant::now();
        let order = graphtw::min_fill_order(&g);
        fill.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let _ = std::hint::black_box(graphtw::min_degree_order(&g));
        degree.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let dec = graphtw::TreeDecomposition::from_elimination_order(&g, &order);
        let nice = graphtw::NiceTd::from_td(&dec, g.num_vertices());
        td.push(t.elapsed().as_secs_f64() * 1e3);
        width.push(std::hint::black_box(nice).width() as f64);
    }
    out.layer("graphtw.min_fill_ms", mean(&fill), "ms");
    out.layer("graphtw.min_degree_ms", mean(&degree), "ms");
    out.layer("graphtw.td_ms", mean(&td), "ms");
    out.layer("graphtw.width", mean(&width), "count");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ctx(corrupt: bool) -> Ctx {
        Ctx {
            seed: 4,
            seconds: 0.0,
            server: PathBuf::new(),
            tmp_dir: PathBuf::new(),
            corrupt_oracle: corrupt,
        }
    }

    #[test]
    fn same_seed_same_databases() {
        let a = build_mix(&FULL_MIX, 21);
        let b = build_mix(&FULL_MIX, 21);
        let c = build_mix(&FULL_MIX, 22);
        let shape = |m: &[Instance]| -> Vec<(String, usize, Vec<u64>)> {
            m.iter()
                .map(|i| {
                    let probs =
                        i.db.vars()
                            .iter()
                            .map(|&v| i.db.prob_of_var(v).to_bits())
                            .collect();
                    (i.label.clone(), i.db.num_tuples(), probs)
                })
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(shape(&a), shape(&c));
    }

    #[test]
    fn light_mix_answers_match_their_oracles() {
        let out = run(&ctx(false), Mode::Probe).unwrap();
        assert_eq!(out.attempted, 2 * LIGHT_MIX.len() as u64);
        assert_eq!(out.failed, 0);
    }

    /// A deliberately corrupted expected answer fails the run.
    #[test]
    fn corrupted_oracle_fails_the_run() {
        let out = run(&ctx(true), Mode::Probe).unwrap();
        assert!(out.failed >= 2, "failed {}", out.failed);
    }
}
