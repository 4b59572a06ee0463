//! The unified compilation session API: [`Compiler`], configured through
//! [`CompilerBuilder`], turning circuits into canonical SDDs (and, on the
//! semantic route, `C_{F,T}` NNFs) with every strategy choice of the
//! pipeline exposed as an enum instead of hard-coded:
//!
//! * [`TwBackend`] — how the primal graph is decomposed (exact subset DP,
//!   min-fill, min-degree, or the size-dispatched `Auto`);
//! * [`VtreeStrategy`] — where the vtree comes from (the paper's Lemma 1,
//!   SDD-size search, or a balanced baseline);
//! * [`Route`] — how the SDD is built (the paper's semantic `S_{F,T}`
//!   construction, bottom-up apply, or `Auto`, which picks apply exactly
//!   when the variable count exceeds the truth-table kernel cap);
//! * [`Validation`] — how much of the result is re-checked.
//!
//! Every compilation returns a [`Compilation`] carrying a [`CompileReport`]
//! with per-stage wall-clock timings and all the widths the paper defines
//! (`tw`, `fw`, `fiw`, `sdw`), and fails with the unified [`CompileError`].
//!
//! ```
//! use sentential_core::{Compiler, Route, TwBackend};
//! use vtree::VarId;
//!
//! let vars: Vec<VarId> = (0..8).map(VarId).collect();
//! let c = circuit::families::clause_chain(&vars, 2);
//! let compiled = Compiler::builder()
//!     .tw_backend(TwBackend::Exact)
//!     .route(Route::Semantic)
//!     .build()
//!     .compile(&c)
//!     .unwrap();
//! assert_eq!(
//!     compiled.count_models() as u64,
//!     c.to_boolfn().unwrap().count_models(),
//! );
//! println!("{}", compiled.report);
//! ```

use crate::cft::{cft, CftResult};
use crate::sft::sft;
use crate::vtree_extract::{vtree_from_circuit_with, ExtractError, ExtractStats};
use crate::vtree_search;
use boolfunc::{BoolFn, BoolFnError};
use circuit::{Circuit, StructureError};
use graphtw::ExactError;
use rand::SeedableRng;
use sdd::{ApplyStats, SddId, SddManager};
use std::fmt;
use std::time::{Duration, Instant};
use vtree::{VarId, Vtree};

/// How to decompose the circuit's primal graph (the Lemma-1 ingredient).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TwBackend {
    /// Exact subset dynamic programming ([`graphtw::exact_treewidth`]);
    /// fails with [`CompileError::ExactTreewidthIntractable`] beyond
    /// [`graphtw::exact::MAX_EXACT_VERTICES`] vertices.
    Exact,
    /// The min-fill elimination heuristic.
    MinFill,
    /// The min-degree elimination heuristic.
    MinDegree,
    /// Exact when the graph is within the session's `exact_tw_limit`,
    /// otherwise the better of min-fill and min-degree.
    #[default]
    Auto,
}

impl fmt::Display for TwBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TwBackend::Exact => "exact",
            TwBackend::MinFill => "min-fill",
            TwBackend::MinDegree => "min-degree",
            TwBackend::Auto => "auto",
        })
    }
}

/// Where the vtree guiding the compilation comes from.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum VtreeStrategy {
    /// The paper's Lemma 1: hang variable leaves off the forget nodes of a
    /// nice tree decomposition. Comes with the `fw ≤ 2^{(k+2)·2^{k+1}}`
    /// guarantee.
    #[default]
    Lemma1,
    /// Random-restart search minimizing SDD size
    /// ([`vtree_search::best_vtree_sampled`]); semantic, so it requires the
    /// truth-table kernel.
    Search,
    /// A balanced vtree over the circuit's variables — the baseline SDD
    /// compilers start from.
    Balanced,
}

impl fmt::Display for VtreeStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VtreeStrategy::Lemma1 => "lemma1",
            VtreeStrategy::Search => "search",
            VtreeStrategy::Balanced => "balanced",
        })
    }
}

/// Which structural graph of a CNF formula drives the Lemma-1
/// decomposition in [`Compiler::compile_cnf`](crate::Compiler::compile_cnf).
///
/// The primal graph cliques every clause (a single `n`-literal clause costs
/// treewidth `n - 1`); the incidence graph replaces each clique by a star
/// through a clause vertex (its treewidth never exceeds primal + 1 and can
/// be arbitrarily smaller on long clauses). [`GraphKind::Auto`] decomposes
/// both and keeps whichever reported the smaller width.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// The variable-interaction graph (one vertex per variable, cliques
    /// per clause) — the classical primal-treewidth route.
    #[default]
    Primal,
    /// The bipartite variable/clause graph; clause vertices enter the
    /// decomposition as auxiliary (variable-free) vertices.
    Incidence,
    /// Decompose both graphs with the session's backend and take the one
    /// with the smaller reported width.
    Auto,
}

impl fmt::Display for GraphKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphKind::Primal => "primal",
            GraphKind::Incidence => "incidence",
            GraphKind::Auto => "auto",
        })
    }
}

/// The graph a CNF compilation actually decomposed after resolving
/// [`GraphKind::Auto`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ResolvedGraph {
    /// The primal (variable-interaction) graph.
    Primal,
    /// The incidence (variable/clause) graph.
    Incidence,
}

impl fmt::Display for ResolvedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResolvedGraph::Primal => "primal",
            ResolvedGraph::Incidence => "incidence",
        })
    }
}

/// One decomposition probe a CNF compilation actually ran (recorded in
/// `CountReport::probes`): which graph was decomposed and the width it
/// reported. Under [`GraphKind::Auto`] this shows whether the second
/// probe was skipped — a primal width ≤ 1 is already minimal (the
/// incidence width can only tie on a nonempty formula), so Auto stops
/// after the first probe instead of decomposing both graphs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GraphProbe {
    /// The graph that was decomposed.
    pub graph: ResolvedGraph,
    /// The width its decomposition reported.
    pub width: usize,
}

/// How the SDD is built once the vtree is fixed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Route {
    /// The paper's `S_{F,T}` construction (Theorem 4) plus the `C_{F,T}`
    /// NNF (Theorem 3). Requires the truth-table kernel
    /// (≤ [`boolfunc::MAX_VARS`] variables).
    Semantic,
    /// Bottom-up apply over the circuit — no kernel cap, no NNF output.
    Apply,
    /// [`Route::Semantic`] when the variable count fits the kernel,
    /// [`Route::Apply`] beyond it.
    #[default]
    Auto,
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Route::Semantic => "semantic",
            Route::Apply => "apply",
            Route::Auto => "auto",
        })
    }
}

/// The route a compilation actually took after resolving [`Route::Auto`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ResolvedRoute {
    Semantic,
    Apply,
}

impl fmt::Display for ResolvedRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResolvedRoute::Semantic => "semantic",
            ResolvedRoute::Apply => "apply",
        })
    }
}

/// How much of the output is re-checked before it is returned.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Validation {
    /// Trust the constructions.
    None,
    /// Validate the SDD's structural invariants (placement, compression,
    /// ⊥-primes) — linear in the SDD, safe at any size.
    #[default]
    Basic,
    /// [`Validation::Basic`] plus the semantic partition checks, the NNF's
    /// determinism/structuredness checks (semantic route), and — on any
    /// route whose variable count fits the truth-table kernel — semantic
    /// equivalence of every output against the input circuit.
    Full,
}

impl fmt::Display for Validation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Validation::None => "none",
            Validation::Basic => "basic",
            Validation::Full => "full",
        })
    }
}

/// A [`Compiler`]'s configuration. Build one with [`Compiler::builder`];
/// the `Default` matches the former free-function behavior
/// (`Auto`/`Lemma1`/`Auto`, exact-treewidth limit 16).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// Decomposition backend for [`VtreeStrategy::Lemma1`].
    pub tw_backend: TwBackend,
    /// Vtree provenance.
    pub vtree_strategy: VtreeStrategy,
    /// SDD construction route.
    pub route: Route,
    /// Which CNF graph drives [`Compiler::compile_cnf`]'s decomposition
    /// (ignored by the circuit pipeline, which always uses the circuit's
    /// own primal graph).
    pub graph_kind: GraphKind,
    /// Largest primal graph handed to exact treewidth under
    /// [`TwBackend::Auto`].
    pub exact_tw_limit: usize,
    /// Whether [`Compiler::compile_cnf`] runs the exact counting stage
    /// (`BigUint` model count, `Rational` weighted count) after compiling.
    /// Exact bignum arithmetic is quadratic in the variable count on
    /// chain-scale inputs, so serving sessions that only need the compiled
    /// SDD (e.g. `kb::KnowledgeBase`) turn it off and query counts on
    /// demand instead.
    pub exact_counts: bool,
    /// Output checking level.
    pub validation: Validation,
    /// Random restarts for [`VtreeStrategy::Search`].
    pub search_samples: usize,
    /// Seed for [`VtreeStrategy::Search`] (search is deterministic per seed).
    pub search_seed: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            tw_backend: TwBackend::Auto,
            vtree_strategy: VtreeStrategy::Lemma1,
            route: Route::Auto,
            graph_kind: GraphKind::Primal,
            exact_tw_limit: 16,
            exact_counts: true,
            validation: Validation::Basic,
            search_samples: 64,
            search_seed: 0xC0FFEE,
        }
    }
}

/// Builder for [`Compiler`] sessions.
///
/// ```
/// use sentential_core::{Compiler, Route, TwBackend, Validation, VtreeStrategy};
///
/// let compiler = Compiler::builder()
///     .tw_backend(TwBackend::MinFill)
///     .vtree_strategy(VtreeStrategy::Lemma1)
///     .route(Route::Apply)
///     .exact_tw_limit(20)
///     .validation(Validation::Full)
///     .build();
/// # let _ = compiler;
/// ```
#[derive(Clone, Debug, Default)]
pub struct CompilerBuilder {
    opts: CompileOptions,
}

impl CompilerBuilder {
    /// Start from the default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Choose the tree-decomposition backend.
    pub fn tw_backend(mut self, backend: TwBackend) -> Self {
        self.opts.tw_backend = backend;
        self
    }

    /// Choose the vtree strategy.
    pub fn vtree_strategy(mut self, strategy: VtreeStrategy) -> Self {
        self.opts.vtree_strategy = strategy;
        self
    }

    /// Choose the SDD construction route.
    pub fn route(mut self, route: Route) -> Self {
        self.opts.route = route;
        self
    }

    /// Choose which CNF graph [`Compiler::compile_cnf`] decomposes.
    pub fn graph_kind(mut self, kind: GraphKind) -> Self {
        self.opts.graph_kind = kind;
        self
    }

    /// Bound the exact-treewidth computation under [`TwBackend::Auto`].
    pub fn exact_tw_limit(mut self, limit: usize) -> Self {
        self.opts.exact_tw_limit = limit;
        self
    }

    /// Enable or disable [`Compiler::compile_cnf`]'s exact counting stage
    /// (on by default; serving sessions turn it off).
    pub fn exact_counts(mut self, on: bool) -> Self {
        self.opts.exact_counts = on;
        self
    }

    /// Choose the output checking level.
    pub fn validation(mut self, level: Validation) -> Self {
        self.opts.validation = level;
        self
    }

    /// Random restarts for [`VtreeStrategy::Search`].
    pub fn search_samples(mut self, samples: usize) -> Self {
        self.opts.search_samples = samples;
        self
    }

    /// Seed for [`VtreeStrategy::Search`].
    pub fn search_seed(mut self, seed: u64) -> Self {
        self.opts.search_seed = seed;
        self
    }

    /// Finish the session.
    pub fn build(self) -> Compiler {
        Compiler { opts: self.opts }
    }
}

/// A configured compilation session: circuit in, canonical SDD (plus report,
/// plus `C_{F,T}` on the semantic route) out. Sessions are cheap, immutable,
/// and reusable across circuits.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    opts: CompileOptions,
}

/// Unified error for the whole pipeline. Absorbs the per-stage errors
/// (`ExtractError`, `BoolFnError`, `SddError`, `StructureError`) through
/// `From` impls.
#[derive(Debug)]
pub enum CompileError {
    /// Constant circuit — nothing to hang a vtree on.
    NoVariables,
    /// A semantic stage (the `Semantic` route or `Search` vtrees) needs a
    /// truth table exceeding the kernel cap.
    TooManyVars(BoolFnError),
    /// [`TwBackend::Exact`] was forced on a primal graph beyond the exact
    /// solver's hard cap.
    ExactTreewidthIntractable(ExactError),
    /// The compiled SDD failed validation.
    Validation(sdd::SddError),
    /// The compiled NNF failed a structure check.
    Structure(StructureError),
    /// Full validation found an output not equivalent to the input.
    NotEquivalent {
        /// Which output disagreed ("nnf" or "sdd").
        output: &'static str,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoVariables => write!(f, "circuit has no variables"),
            CompileError::TooManyVars(e) => write!(f, "semantic route unavailable: {e}"),
            CompileError::ExactTreewidthIntractable(e) => {
                write!(f, "exact treewidth backend unavailable: {e}")
            }
            CompileError::Validation(e) => write!(f, "SDD validation failed: {e}"),
            CompileError::Structure(e) => write!(f, "NNF structure check failed: {e}"),
            CompileError::NotEquivalent { output } => {
                write!(
                    f,
                    "compiled {output} is not equivalent to the input circuit"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::TooManyVars(e) => Some(e),
            CompileError::ExactTreewidthIntractable(e) => Some(e),
            CompileError::Validation(e) => Some(e),
            CompileError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExtractError> for CompileError {
    fn from(_: ExtractError) -> Self {
        CompileError::NoVariables
    }
}

impl From<BoolFnError> for CompileError {
    fn from(e: BoolFnError) -> Self {
        CompileError::TooManyVars(e)
    }
}

impl From<ExactError> for CompileError {
    fn from(e: ExactError) -> Self {
        CompileError::ExactTreewidthIntractable(e)
    }
}

impl From<sdd::SddError> for CompileError {
    fn from(e: sdd::SddError) -> Self {
        CompileError::Validation(e)
    }
}

impl From<StructureError> for CompileError {
    fn from(e: StructureError) -> Self {
        CompileError::Structure(e)
    }
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Copy, Clone, Debug, Default)]
pub struct StageTimings {
    /// Truth-table construction (semantic route / search vtrees only).
    pub kernel: Duration,
    /// Decomposition + vtree extraction (or search / balancing).
    pub vtree: Duration,
    /// The `C_{F,T}` construction (semantic route only).
    pub nnf: Duration,
    /// SDD construction (`S_{F,T}` or apply).
    pub sdd: Duration,
    /// Output checking.
    pub validate: Duration,
    /// End-to-end, including bookkeeping.
    pub total: Duration,
}

/// Everything a compilation measured: strategy resolution, widths, sizes,
/// and per-stage timings. `Display` renders a human-readable block.
#[must_use]
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// The options the session ran with.
    pub options: CompileOptions,
    /// Route taken after resolving [`Route::Auto`].
    pub route: ResolvedRoute,
    /// Variables in the input circuit.
    pub num_vars: usize,
    /// Gates in the input circuit.
    pub circuit_size: usize,
    /// Width of the tree decomposition used (Lemma-1 vtrees only).
    pub treewidth: Option<usize>,
    /// Nodes in the nice tree decomposition (Lemma-1 vtrees only).
    pub nice_nodes: Option<usize>,
    /// Vertices of the primal graph (Lemma-1 vtrees only).
    pub primal_vertices: Option<usize>,
    /// `fw(F, T)` (Definition 2; semantic route only).
    pub fw: Option<usize>,
    /// `fiw(F, T)` (Definition 4; semantic route only).
    pub fiw: Option<usize>,
    /// `sdw(F, T)` (Definition 5).
    pub sdw: usize,
    /// Gates in the `C_{F,T}` NNF (semantic route only).
    pub nnf_size: Option<usize>,
    /// Elements in the compiled SDD.
    pub sdd_size: usize,
    /// Nodes allocated by the SDD manager.
    pub sdd_nodes: usize,
    /// Apply/cache counters from the SDD manager (nonzero on the apply
    /// route; the semantic construction bypasses apply).
    pub apply: ApplyStats,
    /// Estimated resident bytes of the SDD manager — node table, element
    /// arena, unique table and caches ([`SddManager::memory_bytes`]).
    pub mem_bytes: usize,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl CompileReport {
    /// Publish the run into telemetry: one `compile_runs_total{lane="circuit"}`
    /// tick, stage wall-clock into `compile_stage_us{lane,stage}` histograms,
    /// the paper's width parameters into `compile_width{param}` histograms
    /// (and `compile_last_width{param}` gauges for at-a-glance dashboards),
    /// and the kernel's apply counters via [`ApplyStats::publish`].
    pub fn publish(&self, reg: &obs::MetricsRegistry) {
        let lane = [("lane", "circuit")];
        reg.counter("compile_runs_total", &lane).inc();
        for (stage, d) in [
            ("kernel", self.timings.kernel),
            ("vtree", self.timings.vtree),
            ("nnf", self.timings.nnf),
            ("sdd", self.timings.sdd),
            ("validate", self.timings.validate),
            ("total", self.timings.total),
        ] {
            reg.histogram("compile_stage_us", &[("lane", "circuit"), ("stage", stage)])
                .record_duration_us(d);
        }
        let widths = [
            ("tw", self.treewidth),
            ("fw", self.fw),
            ("fiw", self.fiw),
            ("sdw", Some(self.sdw)),
        ];
        for (param, w) in widths {
            if let Some(w) = w {
                reg.histogram("compile_width", &[("param", param)])
                    .record(w as u64);
                reg.gauge("compile_last_width", &[("param", param)])
                    .set(w as f64);
            }
        }
        self.apply.publish(reg);
        reg.gauge("sdd_mem_bytes", &[]).set(self.mem_bytes as f64);
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compiled {} vars, {} gates via {}/{}/{} in {:.2?}",
            self.num_vars,
            self.circuit_size,
            self.options.vtree_strategy,
            self.options.tw_backend,
            self.route,
            self.timings.total,
        )?;
        if let Some(tw) = self.treewidth {
            writeln!(f, "  treewidth {tw}")?;
        }
        match (self.fw, self.fiw) {
            (Some(fw), Some(fiw)) => writeln!(f, "  fw {fw}  fiw {fiw}  sdw {}", self.sdw)?,
            _ => writeln!(f, "  sdw {}", self.sdw)?,
        }
        if let Some(n) = self.nnf_size {
            writeln!(f, "  C_F,T {n} gates")?;
        }
        writeln!(
            f,
            "  SDD {} elements ({} nodes allocated, ~{} KiB, {} applies, {} cache hits)",
            self.sdd_size,
            self.sdd_nodes,
            self.mem_bytes / 1024,
            self.apply.apply_calls,
            self.apply.cache_hits
        )?;
        write!(
            f,
            "  stages: kernel {:.2?} | vtree {:.2?} | nnf {:.2?} | sdd {:.2?} | validate {:.2?}",
            self.timings.kernel,
            self.timings.vtree,
            self.timings.nnf,
            self.timings.sdd,
            self.timings.validate,
        )
    }
}

/// A compiled circuit: the canonical SDD, the vtree that shaped it, the
/// `C_{F,T}` NNF when the semantic route ran, and the session report.
pub struct Compilation {
    /// The vtree the compilation was structured by.
    pub vtree: Vtree,
    /// Manager holding the compiled SDD.
    pub sdd: SddManager,
    /// Root of the compiled SDD.
    pub root: SddId,
    /// The `C_{F,T}` construction (semantic route only).
    pub nnf: Option<CftResult>,
    /// Strategy resolution, widths, sizes, timings.
    pub report: CompileReport,
}

impl fmt::Debug for Compilation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compilation")
            .field("root", &self.root)
            .field("nnf", &self.nnf.as_ref().map(|_| "CftResult"))
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl Compilation {
    /// Models of the compiled function over the vtree's variables.
    ///
    /// Panics when the count exceeds `u128` (see
    /// [`sdd::SddManager::count_models`]); use
    /// [`Compilation::count_models_exact`] or
    /// [`Compilation::count_models_checked`] on inputs with more than 128
    /// variables.
    pub fn count_models(&self) -> u128 {
        self.sdd.count_models(self.root)
    }

    /// Exact model count at any size (`arith::BigUint` — never overflows).
    pub fn count_models_exact(&self) -> arith::BigUint {
        self.sdd.count_models_exact(self.root)
    }

    /// Exact model count as `u128`, `None` when it needs more than 128
    /// bits — the typed-overflow alternative to [`Compilation::count_models`].
    pub fn count_models_checked(&self) -> Option<u128> {
        self.sdd.count_models_checked(self.root)
    }

    /// Weighted model count under independent `P(v = 1) = prob(v)`.
    pub fn probability(&self, prob: impl Fn(VarId) -> f64) -> f64 {
        self.sdd.probability(self.root, prob)
    }

    /// Elements in the compiled SDD.
    pub fn sdd_size(&self) -> usize {
        self.sdd.size(self.root)
    }
}

impl Compiler {
    /// A session with [`CompileOptions::default`].
    pub fn new() -> Self {
        Compiler::default()
    }

    /// Start configuring a session.
    pub fn builder() -> CompilerBuilder {
        CompilerBuilder::new()
    }

    /// A session with explicit options.
    pub fn with_options(opts: CompileOptions) -> Self {
        Compiler { opts }
    }

    /// The session's configuration.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Compile a circuit end to end: vtree (per [`VtreeStrategy`]) → SDD
    /// (per [`Route`]), validated per [`Validation`], everything timed.
    pub fn compile(&self, c: &Circuit) -> Result<Compilation, CompileError> {
        let t_total = Instant::now();
        let opts = &self.opts;
        let circuit_vars = c.vars();
        let num_vars = circuit_vars.len();
        if num_vars == 0 {
            return Err(CompileError::NoVariables);
        }

        let route = match opts.route {
            Route::Semantic => ResolvedRoute::Semantic,
            Route::Apply => ResolvedRoute::Apply,
            Route::Auto => {
                if num_vars <= boolfunc::MAX_VARS {
                    ResolvedRoute::Semantic
                } else {
                    ResolvedRoute::Apply
                }
            }
        };

        // Kernel stage: the truth table, wherever a semantic stage needs it
        // (Full validation takes it opportunistically — apply-route outputs
        // can only be equivalence-checked while the kernel cap holds).
        let t_kernel = Instant::now();
        let needs_kernel = route == ResolvedRoute::Semantic
            || opts.vtree_strategy == VtreeStrategy::Search
            || (opts.validation == Validation::Full && num_vars <= boolfunc::MAX_VARS);
        let f: Option<BoolFn> = if needs_kernel {
            Some(c.to_boolfn()?)
        } else {
            None
        };
        let kernel_time = t_kernel.elapsed();

        // Vtree stage.
        let t_vtree = Instant::now();
        let (vtree, stats): (Vtree, Option<ExtractStats>) = match opts.vtree_strategy {
            VtreeStrategy::Lemma1 => {
                let (vt, st) = self.lemma1_vtree(c)?;
                (vt, Some(st))
            }
            VtreeStrategy::Balanced => {
                let vars: Vec<VarId> = circuit_vars.iter().collect();
                (Vtree::balanced(&vars).expect("nonempty"), None)
            }
            VtreeStrategy::Search => {
                let f = f.as_ref().expect("search is semantic");
                let mut rng = rand::rngs::StdRng::seed_from_u64(opts.search_seed);
                let (_, vt) = vtree_search::best_vtree_sampled(
                    f,
                    vtree_search::Objective::Size,
                    opts.search_samples,
                    &mut rng,
                );
                (vt, None)
            }
        };
        let vtree_time = t_vtree.elapsed();

        // NNF + SDD stages.
        let mut nnf: Option<CftResult> = None;
        let mut nnf_time = Duration::ZERO;
        let (manager, root, fw, sdw) = match route {
            ResolvedRoute::Semantic => {
                let f = f.as_ref().expect("semantic route");
                let t_nnf = Instant::now();
                nnf = Some(cft(f, &vtree));
                nnf_time = t_nnf.elapsed();
                let t_sdd = Instant::now();
                let r = sft(f, &vtree);
                let sdd_time = t_sdd.elapsed();
                (r.manager, r.root, Some(r.fw), (r.sdw, sdd_time))
            }
            ResolvedRoute::Apply => {
                let t_sdd = Instant::now();
                let mut mgr = SddManager::new(vtree.clone());
                let root = mgr.from_circuit(c);
                let sdw = mgr.width(root);
                let sdd_time = t_sdd.elapsed();
                (mgr, root, None, (sdw, sdd_time))
            }
        };
        let (sdw, sdd_time) = sdw;

        // Validation stage.
        let t_validate = Instant::now();
        match opts.validation {
            Validation::None => {}
            Validation::Basic => manager.validate_structure(root)?,
            Validation::Full => manager.validate(root)?,
        }
        if opts.validation == Validation::Full {
            if let Some(nnf) = &nnf {
                nnf.circuit.check_deterministic()?;
                nnf.circuit.check_structured_by(&vtree)?;
            }
            if let Some(f) = &f {
                if let Some(nnf) = &nnf {
                    let computed = nnf.circuit.to_boolfn()?;
                    if !computed.equivalent(f) {
                        return Err(CompileError::NotEquivalent { output: "nnf" });
                    }
                }
                if !manager.to_boolfn(root).equivalent(f) {
                    return Err(CompileError::NotEquivalent { output: "sdd" });
                }
            }
        }
        let validate_time = t_validate.elapsed();

        let report = CompileReport {
            options: opts.clone(),
            route,
            num_vars,
            circuit_size: c.size(),
            treewidth: stats.as_ref().map(|s| s.treewidth),
            nice_nodes: stats.as_ref().map(|s| s.nice_nodes),
            primal_vertices: stats.as_ref().map(|s| s.primal_vertices),
            fw,
            fiw: nnf.as_ref().map(|r| r.fiw),
            sdw,
            nnf_size: nnf.as_ref().map(|r| r.circuit.reachable_size()),
            sdd_size: manager.size(root),
            sdd_nodes: manager.num_allocated(),
            apply: manager.apply_stats(),
            mem_bytes: manager.memory_bytes(),
            timings: StageTimings {
                kernel: kernel_time,
                vtree: vtree_time,
                nnf: nnf_time,
                sdd: sdd_time,
                validate: validate_time,
                total: t_total.elapsed(),
            },
        };

        Ok(Compilation {
            vtree,
            sdd: manager,
            root,
            nnf,
            report,
        })
    }

    /// The Lemma-1 vtree under the session's [`TwBackend`].
    fn lemma1_vtree(&self, c: &Circuit) -> Result<(Vtree, ExtractStats), CompileError> {
        if self.opts.tw_backend == TwBackend::Exact {
            let (g, _) = c.primal_graph();
            self.ensure_exact_feasible(&g)?;
        }
        let (vt, st) = vtree_from_circuit_with(c, |g| self.decompose_graph(g))?;
        Ok((vt, st))
    }

    /// Can the exact subset-DP backend afford this graph? The single
    /// source of truth for the cap — [`Compiler::ensure_exact_feasible`]
    /// and `GraphKind::Auto`'s probe both consult it.
    pub(crate) fn exact_feasible(&self, g: &graphtw::Graph) -> bool {
        g.num_vertices() <= graphtw::exact::MAX_EXACT_VERTICES
    }

    /// Fail eagerly (and typed) when [`TwBackend::Exact`] is forced on a
    /// graph beyond the subset-DP cap, instead of panicking inside
    /// [`Compiler::decompose_graph`].
    pub(crate) fn ensure_exact_feasible(&self, g: &graphtw::Graph) -> Result<(), CompileError> {
        if !self.exact_feasible(g) {
            return Err(CompileError::ExactTreewidthIntractable(
                ExactError::TooLarge {
                    vertices: g.num_vertices(),
                },
            ));
        }
        Ok(())
    }

    /// The session's `(width, elimination order)` decomposition — the
    /// [`TwBackend`] seam shared by the circuit pipeline (gate-level primal
    /// graphs) and the CNF pipeline (variable-level primal graphs,
    /// [`Compiler::compile_cnf`]).
    pub(crate) fn decompose_graph(&self, g: &graphtw::Graph) -> (usize, graphtw::EliminationOrder) {
        match self.opts.tw_backend {
            TwBackend::Auto => graphtw::treewidth(g, self.opts.exact_tw_limit),
            TwBackend::Exact => {
                graphtw::exact_treewidth(g).expect("checked via ensure_exact_feasible")
            }
            TwBackend::MinFill => graphtw::greedy_order(g, graphtw::Heuristic::MinFill),
            TwBackend::MinDegree => graphtw::greedy_order(g, graphtw::Heuristic::MinDegree),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::families;

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn defaults_match_former_pipeline() {
        let c = families::clause_chain(&vars(8), 2);
        let compiled = Compiler::new().compile(&c).unwrap();
        assert_eq!(compiled.report.route, ResolvedRoute::Semantic);
        assert!(compiled.nnf.is_some());
        let f = c.to_boolfn().unwrap();
        assert_eq!(compiled.count_models() as u64, f.count_models());
        assert!(compiled.sdd.to_boolfn(compiled.root).equivalent(&f));
    }

    #[test]
    fn builder_sets_every_knob() {
        let compiler = Compiler::builder()
            .tw_backend(TwBackend::MinDegree)
            .vtree_strategy(VtreeStrategy::Balanced)
            .route(Route::Apply)
            .graph_kind(GraphKind::Auto)
            .exact_tw_limit(4)
            .validation(Validation::None)
            .search_samples(7)
            .search_seed(99)
            .build();
        let o = compiler.options();
        assert_eq!(o.tw_backend, TwBackend::MinDegree);
        assert_eq!(o.vtree_strategy, VtreeStrategy::Balanced);
        assert_eq!(o.route, Route::Apply);
        assert_eq!(o.graph_kind, GraphKind::Auto);
        assert_eq!(o.exact_tw_limit, 4);
        assert_eq!(o.validation, Validation::None);
        assert_eq!(o.search_samples, 7);
        assert_eq!(o.search_seed, 99);
    }

    #[test]
    fn apply_route_reports_apply_stats() {
        let c = families::clause_chain(&vars(9), 3);
        let compiled = Compiler::builder()
            .route(Route::Apply)
            .build()
            .compile(&c)
            .unwrap();
        assert_eq!(compiled.report.route, ResolvedRoute::Apply);
        assert!(compiled.nnf.is_none());
        assert!(compiled.report.apply.apply_calls > 0);
        assert_eq!(
            compiled.count_models() as u64,
            c.to_boolfn().unwrap().count_models()
        );
    }

    #[test]
    fn exact_backend_rejects_large_primal_graphs() {
        // A clause chain over 30 variables has > 24 primal vertices.
        let c = families::clause_chain(&vars(30), 2);
        let err = Compiler::builder()
            .tw_backend(TwBackend::Exact)
            .route(Route::Apply)
            .build()
            .compile(&c)
            .unwrap_err();
        assert!(matches!(err, CompileError::ExactTreewidthIntractable(_)));
    }

    #[test]
    fn semantic_route_rejects_beyond_kernel_cap() {
        let c = families::clause_chain(&vars(boolfunc::MAX_VARS as u32 + 1), 2);
        let err = Compiler::builder()
            .route(Route::Semantic)
            .build()
            .compile(&c)
            .unwrap_err();
        assert!(matches!(err, CompileError::TooManyVars(_)));
    }

    #[test]
    fn auto_route_switches_on_kernel_cap() {
        let small = families::and_or_chain(&vars(6));
        let compiled = Compiler::new().compile(&small).unwrap();
        assert_eq!(compiled.report.route, ResolvedRoute::Semantic);

        let big = families::and_or_chain(&vars(boolfunc::MAX_VARS as u32 + 4));
        let compiled = Compiler::new().compile(&big).unwrap();
        assert_eq!(compiled.report.route, ResolvedRoute::Apply);
        assert_eq!(
            compiled.count_models(),
            // and_or_chain is satisfiable; spot-check against the OBDD.
            {
                let mut ob = obdd::Obdd::new(vars(boolfunc::MAX_VARS as u32 + 4));
                let root = ob.from_circuit(&big);
                ob.count_models(root)
            }
        );
    }

    #[test]
    fn search_and_balanced_vtrees_agree_with_lemma1() {
        let c = families::parity_chain(&vars(7));
        let expect = c.to_boolfn().unwrap().count_models();
        for strategy in [
            VtreeStrategy::Lemma1,
            VtreeStrategy::Search,
            VtreeStrategy::Balanced,
        ] {
            let compiled = Compiler::builder()
                .vtree_strategy(strategy)
                .validation(Validation::Full)
                .build()
                .compile(&c)
                .unwrap();
            assert_eq!(compiled.count_models() as u64, expect, "{strategy}");
        }
    }

    #[test]
    fn full_validation_covers_apply_route() {
        // Within the kernel cap, Full validation equivalence-checks the
        // apply route too (the kernel is built just for the check) …
        let c = families::clause_chain(&vars(8), 2);
        let compiled = Compiler::builder()
            .route(Route::Apply)
            .validation(Validation::Full)
            .build()
            .compile(&c)
            .unwrap();
        assert_eq!(compiled.report.route, ResolvedRoute::Apply);
        assert!(compiled.nnf.is_none());
        // … and beyond the cap it degrades gracefully instead of erroring.
        let big = families::and_or_chain(&vars(boolfunc::MAX_VARS as u32 + 2));
        Compiler::builder()
            .route(Route::Apply)
            .validation(Validation::Full)
            .build()
            .compile(&big)
            .unwrap();
    }

    #[test]
    fn constant_circuit_rejected() {
        let mut b = circuit::CircuitBuilder::new();
        let t = b.constant(true);
        let c = b.build(t);
        assert!(matches!(
            Compiler::new().compile(&c),
            Err(CompileError::NoVariables)
        ));
    }

    #[test]
    fn report_displays_and_times() {
        let c = families::clause_chain(&vars(8), 2);
        let compiled = Compiler::new().compile(&c).unwrap();
        let shown = compiled.report.to_string();
        assert!(shown.contains("sdw"), "report: {shown}");
        assert!(compiled.report.timings.total >= compiled.report.timings.sdd);
        assert!(compiled.report.treewidth.is_some());
    }

    #[test]
    fn errors_compose_via_from() {
        fn api() -> Result<(), CompileError> {
            Err(ExtractError::NoVariables)?;
            Ok(())
        }
        assert!(matches!(api(), Err(CompileError::NoVariables)));
    }
}
