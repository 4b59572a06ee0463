//! The frozen serving tier: **one compiled base, many concurrent readers**.
//!
//! [`KnowledgeBase::freeze`] turns the builder into a [`FrozenKb`] — the
//! read-only serving form built on the immutable [`FrozenSdd`] slab —
//! which is `Send + Sync` and shared via [`Arc`]:
//!
//! * [`FrozenKb::session`] hands out a [`KbSession`] per serving thread: a
//!   thin handle holding private epoch-tagged [`EvalCache`]s over the
//!   shared slab. Sessions are the one query engine: every numeric query
//!   evaluates the compiled root under evidence-pinned weights, so
//!   evidence never changes the diagram.
//! * [`KbSession::condition`] / [`KbSession::retract`] are pure
//!   weight-space operations (pin the opposing polarity to log 0) — no node
//!   is ever interned, so any number of sessions condition independently
//!   over one slab. Structural consistency and entailment come from a third
//!   cache carrying `(1, 1)` weights with the same pins: its root value is
//!   `-∞` exactly when no model satisfies the evidence. Exact counting is
//!   a `Nat` sweep under `(0, 1)`-pinned weights.
//! * [`FrozenKb::branch`] reopens the builder on an overlay manager
//!   ([`FrozenSdd::branch`]) that interns new nodes *on top of* the shared
//!   slab without touching it, carrying the frozen weights and evidence.
//!   Branching is cheap on purpose: the arena and node table are not
//!   copied.
//!
//! Evidence frozen into the base stays asserted in every session; a
//! session's own evidence is local to it and [`KbSession::retract`]
//! restores the frozen baseline, never less.

use crate::ac::{Ac, SweepBufs};
use crate::{stats_sum, KbError, KbProvenance, KbQueryStats, KnowledgeBase, Lit, Model, QueryKind};
use arith::{log_sum_exp, BigUint, LogF64, Nat};
use boolfunc::Assignment;
use sdd::eval::{EvalCache, EvalCacheStats, EvalLanes};
use sdd::{FrozenSdd, SddEval, SddId};
use std::sync::Arc;
use std::time::Instant;
use vtree::fxhash::FxHashMap;
use vtree::VarId;

/// The read-only serving form of a [`KnowledgeBase`]: the frozen SDD slab
/// plus everything a query needs (weights, evidence pins, the unfolded
/// arithmetic circuit, provenance). `Send + Sync`; share with [`Arc`] and
/// open one [`KbSession`] per serving thread.
pub struct FrozenKb {
    pub(crate) sdd: Arc<FrozenSdd>,
    pub(crate) root: SddId,
    pub(crate) vars: Vec<VarId>,
    pub(crate) var_index: FxHashMap<VarId, usize>,
    pub(crate) weights: FxHashMap<VarId, (f64, f64)>,
    pub(crate) evidence: Vec<Lit>,
    pub(crate) pinned: FxHashMap<VarId, Option<bool>>,
    pub(crate) ac: Ac,
    pub(crate) provenance: KbProvenance,
}

/// Compile-time proof that the frozen tier is shareable: this never runs,
/// it just fails to compile if any field loses `Send + Sync`.
#[allow(dead_code)]
fn frozen_kb_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<FrozenKb>();
    assert_send_sync::<Arc<FrozenKb>>();
    // A session is owned by one serving thread but may be *moved* to it.
    assert_send::<KbSession>();
}

impl KnowledgeBase {
    /// Freeze this knowledge base into its immutable serving form. The
    /// arithmetic circuit is unfolded here, so every session gets the
    /// two-pass queries without a build step; the manager's slabs then
    /// move into the [`FrozenSdd`] without copying. Current weights and
    /// evidence are frozen in — sessions start from this exact state.
    pub fn freeze(self) -> FrozenKb {
        let ac = Ac::build(&self.mgr, self.root);
        FrozenKb {
            sdd: Arc::new(self.mgr.freeze()),
            root: self.root,
            vars: self.vars,
            var_index: self.var_index,
            weights: self.weights,
            evidence: self.evidence,
            pinned: self.pinned,
            ac,
            provenance: self.provenance,
        }
    }
}

impl FrozenKb {
    /// The variables served by this knowledge base.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The shared frozen slab.
    pub fn sdd(&self) -> &FrozenSdd {
        &self.sdd
    }

    /// The compiled (unconditioned) root.
    pub fn root(&self) -> SddId {
        self.root
    }

    /// Elements in the compiled SDD.
    pub fn sdd_size(&self) -> usize {
        self.sdd.size(self.root)
    }

    /// Gates in the unfolded arithmetic circuit.
    pub fn unfolded_size(&self) -> usize {
        self.ac.size()
    }

    /// The evidence frozen into the base (asserted in every session).
    pub fn evidence(&self) -> &[Lit] {
        &self.evidence
    }

    /// The frozen weight pair `(w⁻, w⁺)` of `v`.
    pub fn weights_of(&self, v: VarId) -> Option<(f64, f64)> {
        self.weights.get(&v).copied()
    }

    /// Where the SDD came from, with its compilation report.
    pub fn provenance(&self) -> &KbProvenance {
        &self.provenance
    }

    /// Estimated resident bytes of the shared slab — the frozen analogue
    /// of [`sdd::SddManager::memory_bytes`], so `mem_bytes` metrics stay
    /// comparable across a freeze.
    pub fn memory_bytes(&self) -> usize {
        self.sdd.memory_bytes()
    }

    /// Publish this base's boot-time telemetry: size gauges
    /// (`kb_vars{kb}`, `kb_sdd_size{kb}`, `kb_ac_gates{kb}`,
    /// `kb_mem_bytes{kb}`) plus — when the base still carries its
    /// compilation provenance — the full compile-time families (stage
    /// timings, the paper's widths, kernel apply counters) via the
    /// report's `publish`. Sessions never run apply, so a serving
    /// process's kernel apply/unique-table metrics come entirely from
    /// here. Snapshot-loaded bases have [`KbProvenance::Raw`] provenance
    /// and publish sizes only.
    pub fn publish_boot_metrics(&self, reg: &obs::MetricsRegistry, id: usize) {
        let id_s = id.to_string();
        let kb_label = [("kb", id_s.as_str())];
        reg.gauge("kb_vars", &kb_label).set(self.vars.len() as f64);
        reg.gauge("kb_sdd_size", &kb_label)
            .set(self.sdd_size() as f64);
        reg.gauge("kb_ac_gates", &kb_label)
            .set(self.unfolded_size() as f64);
        reg.gauge("kb_mem_bytes", &kb_label)
            .set(self.memory_bytes() as f64);
        match &self.provenance {
            KbProvenance::Circuit(report) => report.publish(reg),
            KbProvenance::Cnf(report) => report.publish(reg),
            KbProvenance::Raw => {}
        }
    }

    /// Open a private serving session: fresh epoch caches over the shared
    /// slab, initialized to the frozen weights and evidence. Cheap enough
    /// to hand one to every serving thread; sessions never contend.
    pub fn session(self: &Arc<Self>) -> KbSession {
        let weights = &self.weights;
        let pinned = &self.pinned;
        let slab = self.sdd.as_ref();
        let prior = EvalCache::new(slab, LogF64, |v, pos| {
            let (wn, wp) = weights[&v];
            if pos {
                wp.ln()
            } else {
                wn.ln()
            }
        });
        let posterior = EvalCache::new(slab, LogF64, |v, pos| {
            let (ln, lp) = pinned_log_pair(weights, pinned, v);
            if pos {
                lp
            } else {
                ln
            }
        });
        let structural = EvalCache::new(slab, LogF64, |v, pos| {
            let (sn, sp) = structural_log_pair(pinned, v);
            if pos {
                sp
            } else {
                sn
            }
        });
        KbSession {
            kb: Arc::clone(self),
            weights: self.weights.clone(),
            evidence: Vec::new(),
            pinned: self.pinned.clone(),
            prior,
            posterior,
            structural,
            marginals_memo: None,
            sweep: SweepBufs::default(),
            last_query: KbQueryStats::default(),
            memo_hit_scratch: false,
            lanes_scratch: 1,
            lane_stats_scratch: EvalCacheStats::default(),
            obs: None,
        }
    }

    /// Reopen the builder as a copy-on-write overlay on the shared slab:
    /// new nodes intern on top of the frozen base without touching it.
    /// The returned builder starts from the frozen weights and evidence and
    /// can be re-weighted, conditioned further and frozen again;
    /// provenance is [`KbProvenance::Raw`] (the report stays with the
    /// frozen original).
    pub fn branch(&self) -> KnowledgeBase {
        KnowledgeBase {
            mgr: self.sdd.branch(),
            root: self.root,
            vars: self.vars.clone(),
            var_index: self.var_index.clone(),
            weights: self.weights.clone(),
            evidence: self.evidence.clone(),
            pinned: self.pinned.clone(),
            provenance: KbProvenance::Raw,
        }
    }
}

/// One serving thread's handle on a shared [`FrozenKb`] — the query
/// engine: private epoch-tagged evaluation caches (numeric
/// prior/posterior plus the structural consistency cache), session-local
/// evidence and weights. Every query takes `&mut self`: answers are cached
/// (epoch-tagged per-node values, memoized marginals) and every query
/// snapshots its cost into [`KbSession::last_query`].
pub struct KbSession {
    kb: Arc<FrozenKb>,
    /// Session-local base weights (start as the frozen table;
    /// [`KbSession::set_weights`] diverges them per session).
    weights: FxHashMap<VarId, (f64, f64)>,
    /// Session-local evidence, in assertion order (the frozen evidence is
    /// not repeated here — see [`FrozenKb::evidence`]).
    evidence: Vec<Lit>,
    /// Combined pin table: the frozen pins plus the session's.
    pinned: FxHashMap<VarId, Option<bool>>,
    /// log W(F): the prior partition function, no evidence pins.
    prior: EvalCache<LogF64>,
    /// log W(F ∧ e): evidence-pinned weights.
    posterior: EvalCache<LogF64>,
    /// Weights forced to `(1, 1)`, evidence pins kept: the root value is
    /// `-∞` exactly when no model satisfies the evidence — no node is
    /// interned to find out.
    structural: EvalCache<LogF64>,
    /// Marginals memo, keyed by the posterior cache's epoch: the sweep's
    /// unnormalized `(m⁻, m⁺)` pairs, normalized per variable on read (a
    /// single [`KbSession::marginal`] pays for one variable, not all).
    /// The [`KbError::Inconsistent`] verdict is memoized too —
    /// rediscovering it per variable would cost a full sweep each time.
    marginals_memo: Option<(u64, Result<LogPairs, KbError>)>,
    /// The marginal sweeps' value and derivative tables, reused across
    /// queries.
    sweep: SweepBufs<f64>,
    last_query: KbQueryStats,
    /// Scratch flag queries raise inside [`KbSession::tracked`] when they
    /// answered from the marginals memo.
    memo_hit_scratch: bool,
    /// Scratch batch width the `*_batch` queries set inside
    /// [`KbSession::tracked`] (scalar queries leave it at 1); feeds
    /// [`KbQueryStats::lanes`] and the per-lane latency telemetry.
    lanes_scratch: usize,
    /// Scratch eval traffic of a batch query's lane evaluator (a local
    /// [`EvalLanes`], not one of the session's three caches).
    lane_stats_scratch: EvalCacheStats,
    /// Telemetry attachment ([`KbSession::attach_obs`]); `None` keeps the
    /// query path free of instrumentation work.
    obs: Option<SessionObs>,
}

/// Unnormalized log marginal pairs `(ln m⁻, ln m⁺)`, one per variable
/// (or per variable and lane, at `var * lanes + l`).
type LogPairs = Vec<(f64, f64)>;

/// One batch's per-lane inputs, from [`KbSession::lane_columns`].
struct LaneColumns {
    /// Per lane: the error that poisons it (an unknown evidence variable).
    lane_err: Vec<Option<KbError>>,
    /// Per lane: the session pins with the lane's evidence merged in.
    merged: Vec<FxHashMap<VarId, Option<bool>>>,
    /// Var-major evidence-adjusted log pairs, `vars.len() × lanes`.
    cols: Vec<(f64, f64)>,
}

/// Pre-resolved telemetry handles for one query kind — resolved once per
/// session so the per-query path records through lock-free atomics.
struct KindHandles {
    queries: obs::Counter,
    latency_us: obs::Histogram,
    eval_lookups: obs::Counter,
    eval_hits: obs::Counter,
    eval_recomputed: obs::Counter,
    memo_hits: obs::Counter,
    /// Total lanes served by batch queries of this kind.
    batch_lanes: obs::Counter,
    /// Per-lane latency of batch queries: duration divided by batch width.
    lane_us: obs::Histogram,
}

/// A session's telemetry attachment: the registry it publishes to, the
/// optional slow-query log, and cached handles (kernel-level plus lazily
/// per query kind).
struct SessionObs {
    registry: Arc<obs::MetricsRegistry>,
    slow: Option<Arc<obs::SlowLog>>,
    kernel_lookups: obs::Counter,
    kernel_hits: obs::Counter,
    kernel_recomputed: obs::Counter,
    mem_gauge: obs::Gauge,
    kinds: [Option<KindHandles>; QueryKind::ALL.len()],
}

impl SessionObs {
    fn new(registry: Arc<obs::MetricsRegistry>, slow: Option<Arc<obs::SlowLog>>) -> SessionObs {
        SessionObs {
            kernel_lookups: registry.counter("sdd_eval_lookups_total", &[]),
            kernel_hits: registry.counter("sdd_eval_hits_total", &[]),
            kernel_recomputed: registry.counter("sdd_eval_recomputed_total", &[]),
            mem_gauge: registry.gauge("sdd_mem_bytes", &[]),
            registry,
            slow,
            kinds: std::array::from_fn(|_| None),
        }
    }

    fn kind(&mut self, k: QueryKind) -> &KindHandles {
        let i = k.index();
        if self.kinds[i].is_none() {
            let kind = [("kind", k.as_str())];
            self.kinds[i] = Some(KindHandles {
                queries: self.registry.counter("kb_queries_total", &kind),
                latency_us: self.registry.histogram("kb_query_us", &kind),
                eval_lookups: self.registry.counter("kb_eval_lookups_total", &kind),
                eval_hits: self.registry.counter("kb_eval_hits_total", &kind),
                eval_recomputed: self.registry.counter("kb_eval_recomputed_total", &kind),
                memo_hits: self.registry.counter("kb_memo_hits_total", &kind),
                batch_lanes: self.registry.counter("kb_batch_lanes_total", &kind),
                lane_us: self.registry.histogram("kb_lane_us", &kind),
            });
        }
        self.kinds[i].as_ref().expect("just initialized")
    }
}

impl KbSession {
    /// The shared base this session serves.
    pub fn kb(&self) -> &Arc<FrozenKb> {
        &self.kb
    }

    /// The variables served by this session.
    pub fn vars(&self) -> &[VarId] {
        &self.kb.vars
    }

    /// Cost of the most recent query (per-query snapshot, not a running
    /// total — see [`KbQueryStats`]).
    pub fn last_query(&self) -> KbQueryStats {
        self.last_query
    }

    /// The session's evidence literals, in assertion order (on top of the
    /// frozen base's own evidence).
    pub fn evidence(&self) -> &[Lit] {
        &self.evidence
    }

    /// The session's current weight pair `(w⁻, w⁺)` of `v`.
    pub fn weights_of(&self, v: VarId) -> Option<(f64, f64)> {
        self.weights.get(&v).copied()
    }

    // ------------------------------------------------------------------
    // Weights (session-local)
    // ------------------------------------------------------------------

    /// Set `P(v = 1) = p` for this session only.
    pub fn set_probability(&mut self, v: VarId, p: f64) -> Result<(), KbError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(KbError::InvalidWeight(v));
        }
        self.set_weights(v, 1.0 - p, p)
    }

    /// Set the weight pair `(w⁻, w⁺)` of `v` for this session only — other
    /// sessions over the same [`FrozenKb`] are unaffected.
    pub fn set_weights(&mut self, v: VarId, neg: f64, pos: f64) -> Result<(), KbError> {
        if !self.kb.var_index.contains_key(&v) {
            return Err(KbError::UnknownVariable(v));
        }
        if !(neg >= 0.0 && neg.is_finite() && pos >= 0.0 && pos.is_finite()) {
            return Err(KbError::InvalidWeight(v));
        }
        self.weights.insert(v, (neg, pos));
        self.prior
            .set_weight(self.kb.sdd.as_ref(), v, neg.ln(), pos.ln());
        let (ln, lp) = self.pinned_log_pair(v);
        self.posterior.set_weight(self.kb.sdd.as_ref(), v, ln, lp);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Evidence (weight-space only — nothing is interned)
    // ------------------------------------------------------------------

    /// Assert evidence literals: each `(v, b)` pins `v := b` by zeroing
    /// `v`'s opposing weight — purely in weight space, so concurrent
    /// sessions condition independently over one shared slab. Evidence
    /// accumulates across calls; asserting both polarities of a variable
    /// makes the session inconsistent, and the call returns
    /// [`KbError::Inconsistent`] (structurally: a model of weight 0 still
    /// counts) with the evidence retained — use [`KbSession::retract`] to
    /// recover.
    pub fn condition(&mut self, lits: &[Lit]) -> Result<(), KbError> {
        for &(v, _) in lits {
            if !self.kb.var_index.contains_key(&v) {
                return Err(KbError::UnknownVariable(v));
            }
        }
        self.tracked(QueryKind::Condition, |s| {
            for &(v, b) in lits {
                if !pin(&mut s.pinned, v, b) {
                    continue;
                }
                s.evidence.push((v, b));
                let (ln, lp) = s.pinned_log_pair(v);
                s.posterior.set_weight(s.kb.sdd.as_ref(), v, ln, lp);
                let (sn, sp) = structural_log_pair(&s.pinned, v);
                s.structural.set_weight(s.kb.sdd.as_ref(), v, sn, sp);
            }
            if s.consistent() {
                Ok(())
            } else {
                Err(KbError::Inconsistent)
            }
        })
    }

    /// Drop the session's evidence, restoring the **frozen baseline** (the
    /// base's own evidence stays asserted — it is part of the slab's
    /// identity, not this session's state).
    pub fn retract(&mut self) {
        self.tracked(QueryKind::Retract, |s| {
            let touched: Vec<VarId> = s.pinned.keys().copied().collect();
            s.pinned = s.kb.pinned.clone();
            for v in touched {
                let (ln, lp) = s.pinned_log_pair(v);
                s.posterior.set_weight(s.kb.sdd.as_ref(), v, ln, lp);
                let (sn, sp) = structural_log_pair(&s.pinned, v);
                s.structural.set_weight(s.kb.sdd.as_ref(), v, sn, sp);
            }
            s.evidence.clear();
        })
    }

    /// Does the formula have a model consistent with the evidence?
    /// (Structural: ignores weights — a model whose weight is 0 still
    /// counts. The numeric queries additionally fail with
    /// [`KbError::Inconsistent`] when every such model weighs nothing.
    /// `&mut` because the verdict comes from the session's structural
    /// cache.)
    pub fn is_consistent(&mut self) -> bool {
        self.tracked(QueryKind::Consistent, |s| s.consistent())
    }

    fn consistent(&mut self) -> bool {
        self.structural.evaluate(self.kb.sdd.as_ref(), self.kb.root) != f64::NEG_INFINITY
    }

    // ------------------------------------------------------------------
    // Numeric queries (log-space, cached)
    // ------------------------------------------------------------------

    /// `ln W(F ∧ e)`: the log weighted model count under the current
    /// evidence (`-∞` when inconsistent). The underflow-safe primitive the
    /// probability queries are ratios of.
    pub fn log_weight(&mut self) -> f64 {
        self.tracked(QueryKind::LogWeight, |s| {
            let _sp = obs::span("eval");
            s.posterior.evaluate(s.kb.sdd.as_ref(), s.kb.root)
        })
    }

    /// `W(F ∧ e)` in the linear domain — underflows to 0 where
    /// [`KbSession::log_weight`] would not.
    pub fn weighted_count(&mut self) -> f64 {
        self.log_weight().exp()
    }

    /// `P(e) = W(F ∧ e) / W(F)`: how much of the prior weight the evidence
    /// retained. Errors when the formula itself carries no weight.
    pub fn probability_of_evidence(&mut self) -> Result<f64, KbError> {
        self.tracked(QueryKind::ProbEvidence, |s| {
            let _sp = obs::span("eval");
            let prior = s.prior.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            if prior == f64::NEG_INFINITY {
                return Err(KbError::Inconsistent);
            }
            let post = s.posterior.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            Ok((post - prior).exp())
        })
    }

    /// `P(⋀ lits | F ∧ e)`: the conditional probability of a conjunction
    /// of literals given the formula and current evidence. Computed by
    /// temporarily pinning the literals' weights — the epoch cache
    /// re-evaluates only the affected cones, twice (pin and restore).
    pub fn query(&mut self, lits: &[Lit]) -> Result<f64, KbError> {
        for &(v, _) in lits {
            if !self.kb.var_index.contains_key(&v) {
                return Err(KbError::UnknownVariable(v));
            }
        }
        self.tracked(QueryKind::Query, |s| {
            let _sp = obs::span("eval");
            let epoch_before = s.posterior.epoch();
            let denom = s.posterior.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            if denom == f64::NEG_INFINITY {
                return Err(KbError::Inconsistent);
            }
            let mut saved: Vec<(VarId, (f64, f64))> = Vec::with_capacity(lits.len());
            for &(v, b) in lits {
                let (ln, lp) = *s.posterior.weight(v);
                saved.push((v, (ln, lp)));
                let pinned = if b {
                    (f64::NEG_INFINITY, lp)
                } else {
                    (ln, f64::NEG_INFINITY)
                };
                s.posterior
                    .set_weight(s.kb.sdd.as_ref(), v, pinned.0, pinned.1);
            }
            let numer = s.posterior.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            for (v, (ln, lp)) in saved.into_iter().rev() {
                s.posterior.set_weight(s.kb.sdd.as_ref(), v, ln, lp);
            }
            // Pin/restore advanced the epoch with a bit-identical weight
            // table: carry a current marginals memo forward.
            if let Some((e, _)) = &mut s.marginals_memo {
                if *e == epoch_before {
                    *e = s.posterior.epoch();
                }
            }
            Ok((numer - denom).exp())
        })
    }

    /// Answer `queries.len()` conjunction queries in one lane-parallel
    /// sweep: lane `l` computes exactly `self.query(&queries[l])`,
    /// **bit-identically**. One [`EvalLanes`] evaluator is seeded from the
    /// session's posterior weight table, each lane pins its own literals
    /// (composing repeated pins in assertion order, like the scalar
    /// pin-evaluate-restore dance), and a single sweep of the slab yields
    /// every numerator column. The denominator comes from the shared
    /// scalar posterior cache — it is the same value for every lane, and
    /// bit-identical to the scalar query's denominator. Per-lane errors
    /// follow the scalar path: an unknown variable in lane `l`'s literals
    /// yields `Err(UnknownVariable)` for that lane only; an inconsistent
    /// session yields `Err(Inconsistent)` in every remaining lane.
    pub fn query_batch(&mut self, queries: &[Vec<Lit>]) -> Vec<Result<f64, KbError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let lanes = queries.len();
        self.tracked(QueryKind::QueryBatch, |s| {
            s.lanes_scratch = lanes;
            let _sp = obs::span("eval_lanes");
            let mut lane_err: Vec<Option<KbError>> = vec![None; lanes];
            for (l, lits) in queries.iter().enumerate() {
                for &(v, _) in lits {
                    if !s.kb.var_index.contains_key(&v) {
                        lane_err[l] = Some(KbError::UnknownVariable(v));
                        break;
                    }
                }
            }
            let denom = s.posterior.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            if denom == f64::NEG_INFINITY {
                return lane_err
                    .into_iter()
                    .map(|e| Err(e.unwrap_or(KbError::Inconsistent)))
                    .collect();
            }
            let posterior = &s.posterior;
            let mut ev = EvalLanes::new(s.kb.sdd.as_ref(), LogF64, lanes, |v, pos| {
                let (ln, lp) = *posterior.weight(v);
                if pos {
                    lp
                } else {
                    ln
                }
            });
            for (l, lits) in queries.iter().enumerate() {
                if lane_err[l].is_some() {
                    continue;
                }
                // Compose repeated pins of one variable exactly as the
                // scalar path does (each pin reads the previous pin's
                // table), then stamp the final pair into the lane.
                let mut local: FxHashMap<VarId, (f64, f64)> = FxHashMap::default();
                for &(v, b) in lits {
                    let (ln, lp) = local
                        .get(&v)
                        .copied()
                        .unwrap_or_else(|| *s.posterior.weight(v));
                    let pinned = if b {
                        (f64::NEG_INFINITY, lp)
                    } else {
                        (ln, f64::NEG_INFINITY)
                    };
                    local.insert(v, pinned);
                }
                for (&v, &(ln, lp)) in &local {
                    ev.set_lane_weight(s.kb.sdd.as_ref(), v, l, ln, lp);
                }
            }
            let numer = ev.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            s.lane_stats_scratch = ev.stats();
            lane_err
                .into_iter()
                .zip(numer)
                .map(|(e, n)| match e {
                    Some(e) => Err(e),
                    None => Ok((n - denom).exp()),
                })
                .collect()
        })
    }

    /// `P(v = 1 | F ∧ e)`: one posterior marginal. The first marginal
    /// after a weight or evidence change runs the two-pass sweep and
    /// memoizes all of them, so a scan over variables costs one sweep.
    pub fn marginal(&mut self, v: VarId) -> Result<f64, KbError> {
        let i = *self
            .kb
            .var_index
            .get(&v)
            .ok_or(KbError::UnknownVariable(v))?;
        Ok(normalized(self.marginals_table(QueryKind::Marginal)?[i]))
    }

    /// All posterior marginals `P(v = 1 | F ∧ e)`, in vtree variable
    /// order, from one upward + downward sweep of the unfolded circuit.
    pub fn all_marginals(&mut self) -> Result<Vec<(VarId, f64)>, KbError> {
        let kb = Arc::clone(&self.kb);
        let table = self.marginals_table(QueryKind::AllMarginals)?;
        Ok(kb
            .vars
            .iter()
            .zip(table)
            .map(|(&v, &pair)| (v, normalized(pair)))
            .collect())
    }

    fn marginals_table(&mut self, kind: QueryKind) -> Result<&[(f64, f64)], KbError> {
        self.tracked(kind, |s| {
            let epoch = s.posterior.epoch();
            if matches!(&s.marginals_memo, Some((e, _)) if *e == epoch) {
                s.memo_hit_scratch = true;
                return;
            }
            let weights = s.posterior_log_weights();
            let (total, pairs) = {
                let _sp = obs::span("ac_sweep");
                s.kb.ac.marginals(&LogF64, &weights, &mut s.sweep)
            };
            let result = if total == f64::NEG_INFINITY {
                Err(KbError::Inconsistent)
            } else {
                Ok(pairs)
            };
            s.marginals_memo = Some((epoch, result));
        });
        match &self.marginals_memo.as_ref().expect("just set").1 {
            Ok(table) => Ok(table),
            Err(e) => Err(e.clone()),
        }
    }

    /// `P(v = 1 | F ∧ e ∧ e_l)` for each evidence set `e_l` — lane `l`
    /// answers exactly what the scalar loop `condition(&e_l); marginal(v);
    /// retract-to-here` would, **bit-identically**, from one lane-parallel
    /// up+down sweep of the arithmetic circuit. The session's own pins and
    /// memo are untouched. An unknown `v` fails every lane.
    pub fn marginal_batch(&mut self, v: VarId, evidence: &[Vec<Lit>]) -> Vec<Result<f64, KbError>> {
        let Some(&i) = self.kb.var_index.get(&v) else {
            return vec![Err(KbError::UnknownVariable(v)); evidence.len()];
        };
        let lanes = evidence.len();
        let (status, pairs) = self.marginals_batch_pairs(QueryKind::MarginalBatch, evidence);
        status
            .into_iter()
            .enumerate()
            .map(|(l, r)| r.map(|()| normalized(pairs[i * lanes + l])))
            .collect()
    }

    /// All posterior marginals under each evidence set — the batched
    /// [`KbSession::all_marginals`], one table per lane (see
    /// [`KbSession::marginal_batch`] for the per-lane contract).
    pub fn all_marginals_batch(
        &mut self,
        evidence: &[Vec<Lit>],
    ) -> Vec<Result<Vec<(VarId, f64)>, KbError>> {
        let lanes = evidence.len();
        let (status, pairs) = self.marginals_batch_pairs(QueryKind::AllMarginalsBatch, evidence);
        status
            .into_iter()
            .enumerate()
            .map(|(l, r)| {
                r.map(|()| {
                    self.kb
                        .vars
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, normalized(pairs[i * lanes + l])))
                        .collect()
                })
            })
            .collect()
    }

    /// Shared engine of the batched marginal queries: build the lane
    /// weight columns ([`KbSession::lane_columns`]) and run one
    /// [`Ac::marginals_lanes`] sweep. Returns each lane's status — an
    /// unknown evidence variable is that lane's error; a `-∞` total (no
    /// model under the merged pins) is `Inconsistent` — and the
    /// unnormalized `(m⁻, m⁺)` pairs at `var * lanes + l`, left for the
    /// caller to normalize only the variables it reports.
    fn marginals_batch_pairs(
        &mut self,
        kind: QueryKind,
        evidence: &[Vec<Lit>],
    ) -> (Vec<Result<(), KbError>>, LogPairs) {
        if evidence.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let lanes = evidence.len();
        self.tracked(kind, |s| {
            s.lanes_scratch = lanes;
            let LaneColumns { lane_err, cols, .. } = s.lane_columns(evidence);
            let (total, pairs) = {
                let _sp = obs::span("ac_sweep_lanes");
                s.kb.ac.marginals_lanes(&LogF64, lanes, &cols, &mut s.sweep)
            };
            let status = (0..lanes)
                .map(|l| match &lane_err[l] {
                    Some(e) => Err(e.clone()),
                    None if total[l] == f64::NEG_INFINITY => Err(KbError::Inconsistent),
                    None => Ok(()),
                })
                .collect();
            (status, pairs)
        })
    }

    /// Merge each lane's evidence onto a copy of the session pins (by
    /// [`pin`], the [`KbSession::condition`] rule) and lay out the
    /// var-major lane columns of evidence-adjusted log pairs:
    /// `cols[i * lanes + l]` is variable `vars[i]` in lane `l`. Every lane
    /// is seeded with the session's own pinned pair and only its evidence
    /// variables are overwritten — `pinned_log_pair` is deterministic, so
    /// the seeded entries are bit-identical to evaluating it under the
    /// merged pins. An unknown evidence variable is that lane's error.
    fn lane_columns(&self, evidence: &[Vec<Lit>]) -> LaneColumns {
        let lanes = evidence.len();
        let mut lane_err: Vec<Option<KbError>> = vec![None; lanes];
        let mut merged: Vec<FxHashMap<VarId, Option<bool>>> = Vec::with_capacity(lanes);
        for (l, lits) in evidence.iter().enumerate() {
            let mut pins = self.pinned.clone();
            for &(v, b) in lits {
                if !self.kb.var_index.contains_key(&v) {
                    lane_err[l] = Some(KbError::UnknownVariable(v));
                    break;
                }
                pin(&mut pins, v, b);
            }
            merged.push(pins);
        }
        let mut cols: Vec<(f64, f64)> = Vec::with_capacity(self.kb.vars.len() * lanes);
        for &v in &self.kb.vars {
            let base = pinned_log_pair(&self.weights, &self.pinned, v);
            cols.extend(std::iter::repeat_n(base, lanes));
        }
        for (l, lits) in evidence.iter().enumerate() {
            if lane_err[l].is_some() {
                continue;
            }
            for &(v, _) in lits {
                let i = self.kb.var_index[&v];
                cols[i * lanes + l] = pinned_log_pair(&self.weights, &merged[l], v);
            }
        }
        LaneColumns {
            lane_err,
            merged,
            cols,
        }
    }

    /// The most probable explanation: the model of maximum weight
    /// consistent with the current evidence, found by a [`arith::MaxPlus`]
    /// sweep with argmax back-pointers. The witness is **verified** before
    /// it is returned: it satisfies the compiled SDD, agrees with every
    /// pin, and its literal weights multiply to the reported maximum (any
    /// violation is a bug and panics).
    pub fn mpe(&mut self) -> Result<Model, KbError> {
        self.tracked(QueryKind::Mpe, |s| {
            let weights = s.posterior_log_weights();
            let (best, polarity) = {
                let _sp = obs::span("ac_mpe");
                s.kb.ac.mpe(&weights).ok_or(KbError::Inconsistent)?
            };
            let assignment =
                Assignment::from_pairs(s.kb.vars.iter().copied().zip(polarity.iter().copied()));
            assert!(
                s.kb.sdd.eval(s.kb.root, &assignment),
                "MPE witness must satisfy the compiled SDD"
            );
            for (&v, &pin) in &s.pinned {
                if let Some(b) = pin {
                    assert_eq!(
                        assignment.get(v),
                        Some(b),
                        "MPE witness must agree with the evidence on {v}"
                    );
                }
            }
            let recomputed: f64 =
                s.kb.vars
                    .iter()
                    .zip(&polarity)
                    .map(|(&v, &b)| {
                        let (ln, lp) = s.pinned_log_pair(v);
                        if b {
                            lp
                        } else {
                            ln
                        }
                    })
                    .sum();
            assert!(
                (recomputed - best).abs() <= 1e-9 * best.abs().max(1.0),
                "MPE witness weight {recomputed} must reproduce the maximum {best}"
            );
            Ok(Model {
                assignment,
                log_weight: best,
            })
        })
    }

    /// The most probable explanation under each evidence set — lane `l`
    /// answers exactly what the scalar loop `condition(&evidence[l]);
    /// mpe(); retract-to-here` would, **bit-identically in both the score
    /// and the decoded witness**, from one lane-parallel [`arith::MaxPlus`]
    /// sweep (`Ac::mpe_lanes` resolves `⊕`-gate ties through the same
    /// last-maximal-child rule as the scalar descent). The session's own
    /// pins and memo are untouched. Per lane: an unknown evidence variable
    /// is that lane's error; a `-∞` maximum (no model under the merged
    /// pins) is `Inconsistent`; otherwise the witness carries the same
    /// guarantees as [`KbSession::mpe`] — it satisfies the circuit, agrees
    /// with every merged pin, and reproduces the maximum weight — but the
    /// satisfaction and weight checks are amortized into ONE extra
    /// [`arith::MaxPlus`] sweep over witness-pinned columns instead of a
    /// per-lane SDD traversal plus recompute: the circuit is
    /// deterministic, so under a complete assignment the pinned root is
    /// the witness's weight iff the witness is a model and `-∞` otherwise.
    pub fn mpe_batch(&mut self, evidence: &[Vec<Lit>]) -> Vec<Result<Model, KbError>> {
        if evidence.is_empty() {
            return Vec::new();
        }
        let lanes = evidence.len();
        self.tracked(QueryKind::MpeBatch, |s| {
            s.lanes_scratch = lanes;
            let LaneColumns {
                lane_err,
                merged,
                cols,
            } = s.lane_columns(evidence);
            let decoded = {
                let _sp = obs::span("ac_mpe_lanes");
                s.kb.ac.mpe_lanes(lanes, &cols)
            };
            // Batched witness verification: pin every healthy lane's
            // columns to its own decoded witness and re-run ONE MaxPlus
            // lane sweep. The circuit is deterministic, so a complete
            // assignment keeps exactly one child of every ⊕-gate finite:
            // the pinned root is the witness's own weight when the witness
            // satisfies the circuit and `-∞` when it does not — one
            // amortized sweep carries the per-lane satisfaction AND weight
            // checks that the scalar path pays one SDD traversal each for
            // (that traversal survives below as the debug-build check).
            let mut verify_cols = cols;
            for (l, lane) in decoded.iter().enumerate() {
                let Some((_, polarity)) = lane else { continue };
                if lane_err[l].is_some() {
                    continue;
                }
                for (i, &b) in polarity.iter().enumerate() {
                    let c = &mut verify_cols[i * lanes + l];
                    if b {
                        c.0 = f64::NEG_INFINITY;
                    } else {
                        c.1 = f64::NEG_INFINITY;
                    }
                }
            }
            let mut verified = Vec::new();
            {
                let _sp = obs::span("ac_mpe_verify_lanes");
                s.kb.ac
                    .eval_lanes(&arith::MaxPlus, lanes, &verify_cols, &mut verified);
            }
            let root_row = s.kb.ac.root as usize * lanes;
            decoded
                .into_iter()
                .enumerate()
                .map(|(l, lane)| {
                    if let Some(e) = &lane_err[l] {
                        return Err(e.clone());
                    }
                    let (best, polarity) = lane.ok_or(KbError::Inconsistent)?;
                    let reweighed = verified[root_row + l];
                    assert!(
                        reweighed.is_finite()
                            && (reweighed - best).abs() <= 1e-9 * best.abs().max(1.0),
                        "MPE witness must satisfy the circuit and reproduce the \
                         maximum: re-evaluated {reweighed}, swept {best}"
                    );
                    let assignment = Assignment::from_pairs(
                        s.kb.vars.iter().copied().zip(polarity.iter().copied()),
                    );
                    debug_assert!(
                        s.kb.sdd.eval(s.kb.root, &assignment),
                        "MPE witness must satisfy the compiled SDD"
                    );
                    for (&v, &pin) in &merged[l] {
                        if let Some(b) = pin {
                            assert_eq!(
                                assignment.get(v),
                                Some(b),
                                "MPE witness must agree with the evidence on {v}"
                            );
                        }
                    }
                    Ok(Model {
                        assignment,
                        log_weight: best,
                    })
                })
                .collect()
        })
    }

    /// The `k` heaviest models consistent with the current evidence,
    /// heaviest first (fewer than `k` when the model set is smaller; empty
    /// when inconsistent). Each returned model satisfies the SDD —
    /// determinism guarantees the list has no duplicates.
    pub fn enumerate_models(&mut self, k: usize) -> Vec<Model> {
        self.tracked(QueryKind::TopK, |s| {
            let _sp = obs::span("ac_topk");
            let weights = s.posterior_log_weights();
            s.kb.ac
                .top_k(&weights, k)
                .into_iter()
                .map(|(log_weight, polarity)| {
                    let assignment = Assignment::from_pairs(
                        s.kb.vars.iter().copied().zip(polarity.iter().copied()),
                    );
                    debug_assert!(s.kb.sdd.eval(s.kb.root, &assignment));
                    Model {
                        assignment,
                        log_weight,
                    }
                })
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // Structural queries (weight-free, but still apply-free)
    // ------------------------------------------------------------------

    /// Does `F ∧ e` entail the clause `⋁ lits`? The session pins the
    /// clause's negation into its structural cache — `F ∧ e ∧ ⋀ ¬lit` has
    /// no model exactly when the clause is entailed — and restores the
    /// pins afterwards; no node is interned. Pin conflicts do the case
    /// analysis for free: a clause literal the evidence satisfies, or a
    /// complementary pair within the clause, zero both polarities of that
    /// variable, and the count collapses. An empty clause is entailed
    /// exactly when the session is inconsistent.
    pub fn entails(&mut self, clause: &[Lit]) -> Result<bool, KbError> {
        for &(v, _) in clause {
            if !self.kb.var_index.contains_key(&v) {
                return Err(KbError::UnknownVariable(v));
            }
        }
        self.tracked(QueryKind::Entails, |s| {
            let _sp = obs::span("structural_eval");
            let mut saved: Vec<(VarId, (f64, f64))> = Vec::with_capacity(clause.len());
            for &(v, b) in clause {
                let (sn, sp) = *s.structural.weight(v);
                saved.push((v, (sn, sp)));
                // Assert ¬lit: zero the polarity the clause literal names.
                let pinned = if b {
                    (sn, f64::NEG_INFINITY)
                } else {
                    (f64::NEG_INFINITY, sp)
                };
                s.structural
                    .set_weight(s.kb.sdd.as_ref(), v, pinned.0, pinned.1);
            }
            let negated = s.structural.evaluate(s.kb.sdd.as_ref(), s.kb.root);
            for (v, (sn, sp)) in saved.into_iter().rev() {
                s.structural.set_weight(s.kb.sdd.as_ref(), v, sn, sp);
            }
            Ok(negated == f64::NEG_INFINITY)
        })
    }

    /// The exact number of models of `F ∧ e` over all variables
    /// ([`arith::BigUint`] — no overflow at any size), computed as one
    /// `Nat` sweep of the compiled root under `(0, 1)`-pinned weights
    /// (each pinned variable keeps exactly its asserted polarity).
    pub fn count_models(&mut self) -> BigUint {
        self.tracked(QueryKind::Count, |s| {
            let _sp = obs::span("nat_sweep");
            let pinned = &s.pinned;
            s.kb.sdd.evaluate(s.kb.root, &Nat, |v, pos| {
                match pinned.get(&v) {
                    None => BigUint::one(),
                    Some(Some(b)) if *b == pos => BigUint::one(),
                    _ => BigUint::zero(), // opposing polarity, or contradicted
                }
            })
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The evidence-adjusted log-weight pair of `v`, over the session's
    /// weights and combined pins.
    fn pinned_log_pair(&self, v: VarId) -> (f64, f64) {
        pinned_log_pair(&self.weights, &self.pinned, v)
    }

    /// Dense evidence-adjusted log-weight table in vtree variable order:
    /// the posterior cache's weight table, which every weight and
    /// evidence update keeps equal to [`KbSession::pinned_log_pair`].
    fn posterior_log_weights(&self) -> Vec<(f64, f64)> {
        self.kb
            .vars
            .iter()
            .map(|&v| *self.posterior.weight(v))
            .collect()
    }

    /// Attach telemetry: per-query latency/hit-rate families land in
    /// `registry` (labelled by [`QueryKind`]), and — when `slow` is given
    /// — every query is traced, with the worst retained in the slow log.
    /// Handles are resolved here and cached, so the per-query cost is a
    /// handful of relaxed atomic ops.
    pub fn attach_obs(
        &mut self,
        registry: Arc<obs::MetricsRegistry>,
        slow: Option<Arc<obs::SlowLog>>,
    ) {
        self.obs = Some(SessionObs::new(registry, slow));
    }

    /// Run a query body, snapshotting its eval/wall-clock cost into
    /// [`KbSession::last_query`] and — when telemetry is attached —
    /// publishing it under `kind` and tracing it for the slow log.
    fn tracked<T>(&mut self, kind: QueryKind, body: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let eval0 = stats_sum(
            stats_sum(self.prior.stats(), self.posterior.stats()),
            self.structural.stats(),
        );
        self.memo_hit_scratch = false;
        self.lanes_scratch = 1;
        self.lane_stats_scratch = EvalCacheStats::default();
        if self.obs.as_ref().is_some_and(|o| o.slow.is_some()) {
            obs::trace_begin(kind.as_str());
        }
        let out = body(self);
        self.last_query = KbQueryStats {
            eval: stats_sum(
                stats_sum(
                    stats_sum(self.prior.stats(), self.posterior.stats()),
                    self.structural.stats(),
                )
                .delta_since(eval0),
                self.lane_stats_scratch,
            ),
            mem_bytes: self.kb.sdd.memory_bytes(),
            duration: t0.elapsed(),
            memo_hit: self.memo_hit_scratch,
            lanes: self.lanes_scratch,
        };
        if let Some(o) = self.obs.as_mut() {
            let q = &self.last_query;
            o.kernel_lookups.add(q.eval.lookups);
            o.kernel_hits.add(q.eval.hits);
            o.kernel_recomputed.add(q.eval.recomputed);
            o.mem_gauge.set(q.mem_bytes as f64);
            let h = o.kind(kind);
            h.queries.inc();
            h.latency_us.record_duration_us(q.duration);
            h.eval_lookups.add(q.eval.lookups);
            h.eval_hits.add(q.eval.hits);
            h.eval_recomputed.add(q.eval.recomputed);
            if q.memo_hit {
                h.memo_hits.inc();
            }
            if matches!(
                kind,
                QueryKind::QueryBatch
                    | QueryKind::MarginalBatch
                    | QueryKind::AllMarginalsBatch
                    | QueryKind::MpeBatch
            ) {
                h.batch_lanes.add(q.lanes as u64);
                h.lane_us
                    .record_duration_us(q.duration / q.lanes.max(1) as u32);
            }
            if obs::trace_active() {
                obs::trace_note("eval_lookups", q.eval.lookups);
                obs::trace_note("eval_recomputed", q.eval.recomputed);
                obs::trace_note("memo_hit", u64::from(q.memo_hit));
                if let (Some(rec), Some(slow)) = (obs::trace_end(), &o.slow) {
                    if slow.would_admit(rec.total) {
                        slow.offer(rec);
                    }
                }
            }
        }
        out
    }
}

/// Assert `v := b` on a pin table: a repeat keeps the pin, the opposite
/// polarity contradicts the variable (`None`), and a contradicted variable
/// stays contradicted. Returns whether the table changed — the rule every
/// conditioning path shares (builder, session, and each batch lane).
pub(crate) fn pin(pinned: &mut FxHashMap<VarId, Option<bool>>, v: VarId, b: bool) -> bool {
    match pinned.get(&v).copied() {
        Some(Some(prev)) if prev == b => false,
        Some(None) => false,
        Some(Some(_)) => {
            pinned.insert(v, None);
            true
        }
        None => {
            pinned.insert(v, Some(b));
            true
        }
    }
}

/// `P(v = 1)` from a variable's unnormalized log marginal pair
/// `(ln m⁻, ln m⁺)`.
fn normalized((mn, mp): (f64, f64)) -> f64 {
    (mp - log_sum_exp(mn, mp)).exp()
}

/// The evidence-adjusted log-weight pair of `v`.
fn pinned_log_pair(
    weights: &FxHashMap<VarId, (f64, f64)>,
    pinned: &FxHashMap<VarId, Option<bool>>,
    v: VarId,
) -> (f64, f64) {
    let (wn, wp) = weights[&v];
    match pinned.get(&v) {
        None => (wn.ln(), wp.ln()),
        Some(Some(true)) => (f64::NEG_INFINITY, wp.ln()),
        Some(Some(false)) => (wn.ln(), f64::NEG_INFINITY),
        Some(None) => (f64::NEG_INFINITY, f64::NEG_INFINITY),
    }
}

/// The *structural* log pair of `v`: weights forced to `(1, 1)` so only
/// the pins matter. Evaluating the root under this table yields `-∞`
/// exactly when `F ∧ e` has no model.
pub(crate) fn structural_log_pair(pinned: &FxHashMap<VarId, Option<bool>>, v: VarId) -> (f64, f64) {
    match pinned.get(&v) {
        None => (0.0, 0.0),
        Some(Some(true)) => (f64::NEG_INFINITY, 0.0),
        Some(Some(false)) => (0.0, f64::NEG_INFINITY),
        Some(None) => (f64::NEG_INFINITY, f64::NEG_INFINITY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::CnfFormula;
    use sentential_core::Compiler;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// `(x0 ∨ x1) ∧ (¬x1 ∨ x2)` with distinct probabilities — the same
    /// fixture as the builder's tests in `lib.rs`.
    fn demo_kb() -> KnowledgeBase {
        let f = CnfFormula::from_clauses(
            3,
            vec![
                vec![(v(0), true), (v(1), true)],
                vec![(v(1), false), (v(2), true)],
            ],
        );
        let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
        for (i, &p) in [0.3, 0.6, 0.8].iter().enumerate() {
            kb.set_probability(v(i as u32), p).unwrap();
        }
        kb
    }

    /// Each `mpe_batch` lane must match the scalar `condition; mpe` loop
    /// bit-for-bit (score *and* witness), with per-lane error isolation:
    /// a poisoned lane errs alone, its neighbors answer normally.
    #[test]
    fn mpe_batch_lanes_match_the_scalar_loop_with_error_isolation() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        let batch: Vec<Vec<Lit>> = vec![
            vec![],
            vec![(v(1), true)],
            vec![(v(0), false), (v(2), true)],
            vec![(v(9), true)],                // unknown variable
            vec![(v(0), true), (v(0), false)], // contradiction
            vec![(v(2), false)],
        ];
        let got = s.mpe_batch(&batch);
        assert_eq!(got.len(), batch.len());
        for (l, e) in batch.iter().enumerate() {
            let mut lane = frozen.session();
            let want = match lane.condition(e) {
                Err(err) => Err(err),
                Ok(()) => lane.mpe(),
            };
            match (&got[l], &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.log_weight.to_bits(), w.log_weight.to_bits(), "lane {l}");
                    assert_eq!(g.assignment, w.assignment, "lane {l}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "lane {l}"),
                (g, w) => panic!("lane {l}: batched {g:?} vs scalar {w:?}"),
            }
        }
        // The batch left the session's own posture untouched.
        assert!(s.evidence().is_empty());
        assert_eq!(s.last_query().lanes, batch.len());
    }

    /// Evidence frozen in by the builder and the same evidence asserted by
    /// a session are the same pins: bit-identical answers either way.
    #[test]
    fn evidence_frozen_into_the_base_persists_across_session_retract() {
        let mut plain = Arc::new(demo_kb().freeze()).session();
        plain.condition(&[(v(2), true)]).unwrap();
        let expect = plain.log_weight();
        let mut kb = demo_kb();
        kb.condition(&[(v(2), true)]).unwrap();
        let frozen = Arc::new(kb.freeze());
        assert_eq!(frozen.evidence(), &[(v(2), true)]);
        let mut s = frozen.session();
        assert_eq!(s.log_weight().to_bits(), expect.to_bits());
        // A session conditions further, retracts, and lands back on the
        // frozen baseline — not the unconditioned formula.
        s.condition(&[(v(1), false)]).unwrap();
        s.retract();
        assert_eq!(s.log_weight().to_bits(), expect.to_bits());
        assert!(s.evidence().is_empty());
    }

    /// A base reopened through `branch`, re-conditioned or re-weighted,
    /// and frozen again.
    fn rebranched(frozen: &FrozenKb, edit: impl FnOnce(&mut KnowledgeBase)) -> KbSession {
        let mut b = frozen.branch();
        edit(&mut b);
        Arc::new(b.freeze()).session()
    }

    #[test]
    fn sessions_condition_independently_over_one_slab() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut a = frozen.session();
        let mut b = frozen.session();
        a.condition(&[(v(1), true)]).unwrap();
        b.condition(&[(v(1), false)]).unwrap();
        // Each session sees its own posterior; cross-check against bases
        // with the same evidence frozen in through a branch.
        let mut ka = rebranched(&frozen, |k| k.condition(&[(v(1), true)]).unwrap());
        let mut kb2 = rebranched(&frozen, |k| k.condition(&[(v(1), false)]).unwrap());
        assert_eq!(a.log_weight().to_bits(), ka.log_weight().to_bits());
        assert_eq!(b.log_weight().to_bits(), kb2.log_weight().to_bits());
        assert_eq!(a.count_models(), ka.count_models());
        assert_eq!(b.count_models(), kb2.count_models());
    }

    #[test]
    fn session_weight_changes_stay_session_local() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut a = frozen.session();
        let mut b = frozen.session();
        let before = b.log_weight();
        a.set_probability(v(0), 0.99).unwrap();
        assert_ne!(a.log_weight().to_bits(), before.to_bits());
        assert_eq!(b.log_weight().to_bits(), before.to_bits());
        assert_eq!(frozen.weights_of(v(0)), Some((0.7, 0.3)));
        // And the session's answers match a base frozen with the same
        // weight change.
        let mut k = rebranched(&frozen, |k| k.set_probability(v(0), 0.99).unwrap());
        assert_eq!(a.log_weight().to_bits(), k.log_weight().to_bits());
        assert_eq!(
            a.marginal(v(2)).map(f64::to_bits),
            k.marginal(v(2)).map(f64::to_bits)
        );
    }

    #[test]
    fn branch_reopens_the_builder_over_the_shared_slab() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut br = frozen.branch();
        assert_eq!(br.weights_of(v(1)), frozen.weights_of(v(1)));
        assert_eq!(br.sdd().num_allocated(), frozen.sdd().num_allocated());
        // Conditioning the branch pins; the overlay gains no node.
        br.condition(&[(v(1), true)]).unwrap();
        assert_eq!(br.sdd().num_allocated(), frozen.sdd().num_allocated());
        // The branch refreezes (flattening the overlay) and serves what a
        // session conditioning the original base answers.
        let mut s = Arc::new(br.freeze()).session();
        let mut t = frozen.session();
        t.condition(&[(v(1), true)]).unwrap();
        assert_eq!(s.log_weight().to_bits(), t.log_weight().to_bits());
        assert_eq!(s.count_models(), t.count_models());
        assert_eq!(s.entails(&[(v(2), true)]), t.entails(&[(v(2), true)]));
        assert_eq!(
            s.marginal(v(0)).map(f64::to_bits),
            t.marginal(v(0)).map(f64::to_bits)
        );
    }

    #[test]
    fn memory_bytes_parity_with_the_builder_manager() {
        let kb = demo_kb();
        let builder = kb.sdd().memory_bytes();
        let frozen = Arc::new(kb.freeze());
        let slab = frozen.memory_bytes();
        assert!(slab > 0);
        // Freezing moves the slabs (exact-length allocations), so the
        // frozen report never exceeds the builder's.
        assert!(
            slab <= builder,
            "frozen slab {slab} vs builder manager {builder}"
        );
        let mut s = frozen.session();
        let _ = s.log_weight();
        assert_eq!(s.last_query().mem_bytes, slab);
    }

    /// The memo-hit flag separates the memoized-marginals fast path from a
    /// real sweep — both report zero recomputation on a warm cache, but
    /// only the memo hit skips the sweep entirely.
    #[test]
    fn memo_hit_flag_distinguishes_the_fast_path() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        let _ = s.marginal(v(0)).unwrap();
        assert!(!s.last_query().memo_hit, "first marginal runs the sweep");
        let _ = s.marginal(v(1)).unwrap();
        assert!(s.last_query().memo_hit, "second marginal is a memo hit");
        s.set_probability(v(0), 0.5).unwrap();
        let _ = s.marginal(v(1)).unwrap();
        assert!(
            !s.last_query().memo_hit,
            "weight change invalidates the memo"
        );
        let _ = s.log_weight();
        assert!(!s.last_query().memo_hit, "non-marginal queries never hit");
    }

    /// An attached registry sees exact per-kind totals, the trace pipeline
    /// feeds the slow log, and answers stay bit-identical to an
    /// uninstrumented session.
    #[test]
    fn attached_obs_records_queries_and_slow_traces() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut plain = frozen.session();
        let mut s = frozen.session();
        let registry = Arc::new(obs::MetricsRegistry::new());
        let slow = Arc::new(obs::SlowLog::new(4));
        s.attach_obs(Arc::clone(&registry), Some(Arc::clone(&slow)));

        assert_eq!(s.log_weight().to_bits(), plain.log_weight().to_bits());
        for i in 0..3u32 {
            assert_eq!(
                s.marginal(v(i)).map(f64::to_bits),
                plain.marginal(v(i)).map(f64::to_bits)
            );
        }
        let _ = s.mpe().unwrap();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("kb_queries_total", &[("kind", "logw")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("kb_queries_total", &[("kind", "marginal")]),
            Some(3)
        );
        assert_eq!(
            snap.counter_value("kb_queries_total", &[("kind", "mpe")]),
            Some(1)
        );
        // Two of the three marginals were memo hits.
        assert_eq!(
            snap.counter_value("kb_memo_hits_total", &[("kind", "marginal")]),
            Some(2)
        );
        let lat = snap
            .histogram_value("kb_query_us", &[("kind", "marginal")])
            .expect("latency histogram exists");
        assert_eq!(lat.count, 3);
        // Kernel families aggregate the same eval traffic.
        let lookups = snap
            .counter_value("sdd_eval_lookups_total", &[])
            .expect("kernel family exists");
        assert!(lookups > 0);

        // Every query was traced; the slow log retained the worst with
        // stage breakdowns and renders single-line JSON.
        assert!(!slow.is_empty());
        let worst = slow.worst();
        assert!(worst.len() <= slow.capacity());
        let rec = &worst[0];
        assert!(slow.get(rec.id).is_some());
        let json = rec.to_json();
        assert!(json.contains("\"label\":\"") && !json.contains('\n'));
        assert!(rec.notes.iter().any(|(k, _)| *k == "memo_hit"));
    }

    /// `query_batch` lane `l` must be bit-identical to `query` on lane
    /// `l`'s literals — including error lanes, repeated pins, and lanes
    /// whose conjunction has zero weight.
    #[test]
    fn query_batch_is_bit_identical_to_the_scalar_query_per_lane() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        s.condition(&[(v(2), true)]).unwrap();
        let queries: Vec<Vec<Lit>> = vec![
            vec![],
            vec![(v(0), true)],
            vec![(v(0), false), (v(1), true)],
            vec![(v(1), true), (v(1), false)], // contradictory pins: P = 0
            vec![(v(0), true), (v(0), true)],  // repeated pin
            vec![(v(7), true)],                // unknown variable lane
            vec![(v(2), false)],               // against the evidence: P = 0
        ];
        let batch = s.query_batch(&queries);
        assert_eq!(s.last_query().lanes, queries.len());
        for (l, q) in queries.iter().enumerate() {
            assert_eq!(
                batch[l].as_ref().map(|p| p.to_bits()),
                s.query(q).as_ref().map(|p| p.to_bits()),
                "lane {l} ({q:?})"
            );
        }
        assert_eq!(s.last_query().lanes, 1, "scalar queries report one lane");
        assert!(s.query_batch(&[]).is_empty());
    }

    /// Batched marginals lane `l` must be bit-identical to the scalar
    /// loop `condition(e_l); marginal(v)` on a fresh session — and leave
    /// the batching session's own evidence untouched.
    #[test]
    fn marginal_batches_are_bit_identical_to_the_scalar_loop_per_lane() {
        let frozen = Arc::new(demo_kb().freeze());
        let mut s = frozen.session();
        s.condition(&[(v(2), true)]).unwrap();
        let evidence: Vec<Vec<Lit>> = vec![
            vec![],
            vec![(v(0), true)],
            vec![(v(1), false)],
            vec![(v(0), false), (v(1), false)], // zero weight under x2
            vec![(v(9), true)],                 // unknown variable lane
            vec![(v(2), true)],                 // repeats the session pin
        ];
        let before = s.evidence().to_vec();
        let tables = s.all_marginals_batch(&evidence);
        assert_eq!(s.last_query().lanes, evidence.len());
        let singles = s.marginal_batch(v(1), &evidence);
        assert_eq!(s.evidence(), before, "batching leaves the session pins");
        for (l, e) in evidence.iter().enumerate() {
            // Scalar comparator: a fresh session with the same script.
            let mut f = frozen.session();
            f.condition(&[(v(2), true)]).unwrap();
            let scalar = match f.condition(e) {
                Ok(()) => f.all_marginals(),
                Err(err) => Err(err),
            };
            match (&tables[l], &scalar) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.len(), want.len());
                    for ((gv, gp), (wv, wp)) in got.iter().zip(want) {
                        assert_eq!(gv, wv);
                        assert_eq!(gp.to_bits(), wp.to_bits(), "lane {l} ({e:?}) var {gv}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "lane {l} ({e:?})"),
                (a, b) => panic!("lane {l} ({e:?}): batch {a:?} vs scalar {b:?}"),
            }
            assert_eq!(
                singles[l]
                    .as_ref()
                    .map(|p| p.to_bits())
                    .map_err(Clone::clone),
                tables[l]
                    .as_ref()
                    .map(|t| t.iter().find(|(var, _)| *var == v(1)).unwrap().1.to_bits())
                    .map_err(Clone::clone),
                "marginal_batch extracts the all_marginals_batch column"
            );
        }
        // Unknown target variable fails every lane.
        let bad = s.marginal_batch(v(42), &evidence);
        assert!(bad
            .iter()
            .all(|r| matches!(r, Err(KbError::UnknownVariable(x)) if *x == v(42))));
        assert!(s.all_marginals_batch(&[]).is_empty());
    }
}
