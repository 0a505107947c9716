//! The staged compile pipeline: typed stage artifacts, stage-keyed
//! caching, and per-stage trace hooks.
//!
//! [`CompileSession`] splits [`Compiler::compile`](crate::Compiler::compile)
//! into four explicit stages, each returning a typed artifact with a stable
//! fingerprint:
//!
//! ```text
//! CompileSession::new(options)
//!     .prepare(&circuit)? -> Prepared   (front-end optimisation pre-pass)
//!     .lower()            -> Lowered    (gate-set lowering)
//!     .map()?             -> Mapped     (layout + placement + routing)
//!     .schedule()?        -> CompiledProgram  (move elimination + re-timing)
//! ```
//!
//! Each stage consults a [`StageCache`] keyed on *exactly* the inputs that
//! stage consumes: the upstream artifact's fingerprint combined with the
//! digest of the option subset the stage reads. A sweep that varies only
//! scheduling knobs (`eliminate_redundant_moves`,
//! [`CompilerOptions::schedule_timing`]) therefore reuses the routed-op
//! artifact — the dominant compile cost — and re-runs scheduling alone,
//! while a routing-grid sweep (`routing_paths` × `factories`) still reuses
//! the prepare and lower artifacts.
//!
//! Fingerprints are content-addressed where possible: the lower stage keys
//! on the *prepared circuit's* canonical gate sequence, so `optimize = true`
//! on a circuit the peephole pass cannot improve shares artifacts with
//! `optimize = false`.
//!
//! The schedule stage builds its program one way, cache or no cache: the
//! [`CompiledProgram`] holds the lowered, map and schedule artifacts
//! behind `Arc`s (the cached ones, when there is a cache) and the four
//! stage keys. Only the routed ops are copied, and only when a cache shares
//! the map artifact: the cache keeps them as routed, while the schedule
//! stage eliminates redundant moves in place. A map artifact with one
//! owner moves its ops into the schedule.
//!
//! [`TraceHook`] observers see one [`StageEvent`] per stage (fingerprint,
//! cache provenance, wall-clock micros); the CLI's `--explain` report and
//! the service's stage accounting are built on them.

use crate::engine::{route_circuit, RoutedProgram};
use crate::error::CompileError;
use crate::metrics::{lower_bound, Metrics};
use crate::options::CompilerOptions;
use crate::pipeline::{lower, prepare, CompiledProgram};
use crate::redundant::eliminate_redundant_moves;
use crate::routed::RoutedOp;
use crate::timer::time_schedule;
use ftqc_arch::Ticks;
use ftqc_circuit::{Circuit, Gate};
use ftqc_route::incremental::{RouteCounters, Router};
use ftqc_service::json::{ToJson, Value};
use ftqc_service::{fingerprint, CacheStats, SharedCache, StageOutcome};
use ftqc_sim::Schedule;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-stage capacity of a [`StageCache`]. Stage artifacts (routed
/// op sequences, schedules) are far heavier than the metrics the whole-job
/// cache holds, so the default tier is smaller.
pub const DEFAULT_STAGE_CACHE_CAPACITY: usize = 256;

/// The four pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Front-end preparation (the peephole optimisation pre-pass).
    Prepare,
    /// Gate-set lowering (`CZ → H·CX·H`, `SWAP → CX·CX·CX`).
    Lower,
    /// Layout construction, initial placement, and greedy routing.
    Map,
    /// Redundant-move elimination and resource re-timing.
    Schedule,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 4] = [Stage::Prepare, Stage::Lower, Stage::Map, Stage::Schedule];

    /// The wire/display name (`"prepare"`, `"lower"`, `"map"`,
    /// `"schedule"`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prepare => "prepare",
            Stage::Lower => "lower",
            Stage::Map => "map",
            Stage::Schedule => "schedule",
        }
    }

    /// Parses a wire name back to a stage.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|stage| stage.name() == s)
    }

    /// [`Stage::parse`] with the canonical error message — the single
    /// wording every layer (CLI, client, server, service bridge) shows
    /// for an unknown stage name.
    ///
    /// # Errors
    ///
    /// The rendered "unknown stage" message listing the valid names.
    pub fn parse_or_err(s: &str) -> Result<Stage, String> {
        Stage::parse(s)
            .ok_or_else(|| format!("unknown stage {s:?} (use prepare|lower|map|schedule)"))
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finished pipeline stage, as seen by a [`TraceHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// Which stage finished.
    pub stage: Stage,
    /// The stage artifact's cache key / fingerprint.
    pub fingerprint: u64,
    /// Whether the artifact came from the stage cache.
    pub cached: bool,
    /// Wall-clock microseconds the stage took (lookup included).
    pub micros: u64,
}

/// Observer of per-stage progress. Implementations must be cheap and
/// panic-free; they run inline on the compiling thread.
pub trait TraceHook: Send + Sync {
    /// Called once per successfully finished stage, in execution order.
    fn on_stage(&self, event: &StageEvent);
}

/// A [`TraceHook`] that records every event — the collector behind the
/// CLI's `--explain` report.
#[derive(Debug, Default)]
pub struct StageTrace {
    events: Mutex<Vec<StageEvent>>,
}

impl StageTrace {
    /// A fresh shared collector.
    pub fn new() -> Arc<Self> {
        Arc::new(StageTrace::default())
    }

    /// The events recorded so far, in arrival order.
    pub fn events(&self) -> Vec<StageEvent> {
        self.events.lock().expect("trace lock").clone()
    }
}

impl TraceHook for StageTrace {
    fn on_stage(&self, event: &StageEvent) {
        self.events.lock().expect("trace lock").push(*event);
    }
}

// Stage artifacts. Each is a pure function of its cache key, so they can be
// shared (behind `Arc`) between sessions, worker threads, and server
// requests. Per-job context (the input gate count, the caller's options)
// deliberately lives *outside* the artifacts, in the typed stage structs.

/// The prepare stage's artifact: the (possibly peephole-optimised) circuit.
#[derive(Debug)]
pub struct PreparedArt {
    circuit: Circuit,
    /// Canonical content digest of `circuit` — the lower stage's key.
    content_fp: u64,
}

/// The lower stage's artifact: the surgery-gate-set circuit.
#[derive(Debug)]
pub struct LoweredArt {
    pub(crate) circuit: Circuit,
    /// Canonical content digest of `circuit` — half of the map stage's key.
    content_fp: u64,
}

/// The schedule stage's artifact: the timed schedules and op accounting.
#[derive(Debug)]
pub struct ScheduledArt {
    pub(crate) schedule: Schedule<RoutedOp>,
    pub(crate) unit_makespan: Ticks,
    pub(crate) n_moves: usize,
    pub(crate) n_moves_eliminated: usize,
}

/// Per-stage hit/miss/insertion counters of a [`StageCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Prepare-tier counters.
    pub prepare: CacheStats,
    /// Lower-tier counters.
    pub lower: CacheStats,
    /// Map-tier counters.
    pub map: CacheStats,
    /// Schedule-tier counters.
    pub schedule: CacheStats,
}

impl StageCacheStats {
    /// The counters of one stage's tier.
    pub fn for_stage(&self, stage: Stage) -> CacheStats {
        match stage {
            Stage::Prepare => self.prepare,
            Stage::Lower => self.lower,
            Stage::Map => self.map,
            Stage::Schedule => self.schedule,
        }
    }

    /// Hits summed across all four tiers.
    pub fn hits(&self) -> u64 {
        Stage::ALL.iter().map(|s| self.for_stage(*s).hits).sum()
    }

    /// Misses summed across all four tiers.
    pub fn misses(&self) -> u64 {
        Stage::ALL.iter().map(|s| self.for_stage(*s).misses).sum()
    }
}

/// A cloneable, thread-safe, stage-keyed artifact cache: one in-memory
/// [`SharedCache`] tier per pipeline stage, with per-stage counters.
///
/// Share one `StageCache` across sessions (the HTTP server holds a
/// process-wide one) so concurrent compiles warm each other stage by
/// stage. Artifacts are memory-only: unlike the metrics cache there is no
/// file tier — routed-op sequences are large and cheap to drop.
#[derive(Debug, Clone)]
pub struct StageCache {
    prepare: SharedCache<Arc<PreparedArt>>,
    lower: SharedCache<Arc<LoweredArt>>,
    map: SharedCache<Arc<RoutedProgram>>,
    schedule: SharedCache<Arc<ScheduledArt>>,
    /// Cumulative incremental-router counters across every map stage that
    /// actually routed through this cache (misses only — a map-tier hit
    /// runs no routing). This is what `/v1/cache/stats` and `/metrics`
    /// report process-wide.
    route_totals: Arc<Mutex<RouteCounters>>,
}

impl StageCache {
    /// A cache holding at most `capacity` artifacts per stage tier.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        StageCache {
            prepare: SharedCache::in_memory(capacity),
            lower: SharedCache::in_memory(capacity),
            map: SharedCache::in_memory(capacity),
            schedule: SharedCache::in_memory(capacity),
            route_totals: Arc::new(Mutex::new(RouteCounters::default())),
        }
    }

    /// Folds one routing run's counters into the cumulative totals.
    fn add_route(&self, counters: RouteCounters) {
        let mut totals = self.route_totals.lock().expect("route totals lock");
        *totals = totals.merged(counters);
    }

    /// Cumulative router counters over every routing run this cache saw.
    pub fn route_stats(&self) -> RouteCounters {
        *self.route_totals.lock().expect("route totals lock")
    }

    /// Whether the named stage's tier holds `key` (no counter or LRU
    /// effects — this is a probe, not a lookup).
    pub fn contains(&self, stage: Stage, key: u64) -> bool {
        match stage {
            Stage::Prepare => self.prepare.contains(key),
            Stage::Lower => self.lower.contains(key),
            Stage::Map => self.map.contains(key),
            Stage::Schedule => self.schedule.contains(key),
        }
    }

    /// The per-stage counters so far.
    pub fn stats(&self) -> StageCacheStats {
        StageCacheStats {
            prepare: self.prepare.stats(),
            lower: self.lower.stats(),
            map: self.map.stats(),
            schedule: self.schedule.stats(),
        }
    }
}

impl Default for StageCache {
    fn default() -> Self {
        Self::new(DEFAULT_STAGE_CACHE_CAPACITY)
    }
}

// Option subsets each stage actually reads; the union covers every
// `CompilerOptions` field (`schedule_timing` belongs to the schedule
// stage, folded into the effective timing below). The `"target"` key is
// the codec's extension field — present only for targets the flat legacy
// fields cannot express (explicit bus masks, capability flags) — so the
// target digest is part of the map-stage key exactly when it matters.
const PREPARE_OPTION_KEYS: &[&str] = &["optimize"];
const MAP_OPTION_KEYS: &[&str] = &[
    "routing_paths",
    "factories",
    "timing",
    "penalty_weight",
    "lookahead",
    "mapping",
    "t_state_policy",
    "port_placement",
    "unbounded_magic",
    "target",
];

/// Digest of the named fields of the canonical options rendering.
fn subset_fp(options: &CompilerOptions, keys: &[&str]) -> u64 {
    let Value::Obj(fields) = options.to_json() else {
        unreachable!("CompilerOptions renders as an object");
    };
    let filtered: Vec<_> = fields
        .into_iter()
        .filter(|(k, _)| keys.contains(&k.as_str()))
        .collect();
    fingerprint::fingerprint_value(&Value::Obj(filtered))
}

/// Digest of the schedule stage's inputs: the *effective* timing model
/// (so `schedule_timing: Some(paper)` shares artifacts with the default)
/// plus the re-timing knobs.
fn schedule_subset_fp(options: &CompilerOptions) -> u64 {
    let doc = Value::Obj(vec![
        (
            "eliminate_redundant_moves".into(),
            Value::Bool(options.eliminate_redundant_moves),
        ),
        (
            "factories".into(),
            Value::Num(f64::from(options.target.factories)),
        ),
        (
            "unbounded_magic".into(),
            Value::Bool(options.target.unbounded_magic),
        ),
        (
            "timing".into(),
            crate::codec::timing_to_json(options.effective_schedule_timing()),
        ),
    ]);
    fingerprint::fingerprint_value(&doc)
}

/// The stable key of one stage invocation: a stage tag combined with the
/// upstream artifact's fingerprint and the stage's option-subset digest.
fn stage_key(stage: Stage, upstream: u64, options_fp: u64) -> u64 {
    let tag = fingerprint::fingerprint_bytes(stage.name().as_bytes());
    fingerprint::combine(fingerprint::combine(tag, upstream), options_fp)
}

/// A staged compile pipeline over one option set: the session produces
/// typed stage artifacts, checkpoints them into an optional [`StageCache`],
/// and reports per-stage progress to [`TraceHook`]s.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{CompileSession, CompilerOptions};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).t(1);
/// let program = CompileSession::new(CompilerOptions::default())
///     .prepare(&c)?
///     .lower()
///     .map()?
///     .schedule()?;
/// println!("{}", program.metrics());
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
#[derive(Clone)]
pub struct CompileSession {
    options: CompilerOptions,
    cache: Option<StageCache>,
    hooks: Vec<Arc<dyn TraceHook>>,
    /// Per-stage option-subset digests, computed once — the options are
    /// immutable for the session's lifetime and these sit on every stage's
    /// key path.
    prepare_opts_fp: u64,
    map_opts_fp: u64,
    sched_opts_fp: u64,
}

impl fmt::Debug for CompileSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileSession")
            .field("options", &self.options)
            .field("cached", &self.cache.is_some())
            .field("hooks", &self.hooks.len())
            .finish()
    }
}

impl CompileSession {
    /// A session compiling under `options`, without a cache or hooks.
    pub fn new(options: CompilerOptions) -> Self {
        let prepare_opts_fp = subset_fp(&options, PREPARE_OPTION_KEYS);
        let map_opts_fp = subset_fp(&options, MAP_OPTION_KEYS);
        let sched_opts_fp = schedule_subset_fp(&options);
        CompileSession {
            options,
            cache: None,
            hooks: Vec::new(),
            prepare_opts_fp,
            map_opts_fp,
            sched_opts_fp,
        }
    }

    /// Checkpoints stage artifacts into `cache` (and answers from it).
    pub fn with_cache(mut self, cache: StageCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Adds a per-stage observer (several may be attached).
    pub fn with_hook(mut self, hook: Arc<dyn TraceHook>) -> Self {
        self.hooks.push(hook);
        self
    }

    /// The session's options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    fn emit(&self, stage: Stage, fingerprint: u64, cached: bool, micros: u64) {
        let event = StageEvent {
            stage,
            fingerprint,
            cached,
            micros,
        };
        for hook in &self.hooks {
            hook.on_stage(&event);
        }
    }

    /// Runs the prepare stage.
    ///
    /// # Errors
    ///
    /// [`CompileError::EmptyRegister`] (stage-tagged) for a zero-qubit
    /// circuit.
    pub fn prepare(&self, circuit: &Circuit) -> Result<Prepared, CompileError> {
        let started = Instant::now();
        if circuit.num_qubits() == 0 {
            return Err(CompileError::EmptyRegister.at_stage(Stage::Prepare, 0));
        }
        let input_fp = fingerprint::fingerprint_circuit(circuit);
        let key = stage_key(Stage::Prepare, input_fp, self.prepare_opts_fp);
        let (art, cached) = match self.cache.as_ref().and_then(|c| c.prepare.get(key)) {
            Some(hit) => (hit.value, true),
            None => {
                let prepared = prepare(circuit, &self.options);
                // Without `optimize` the prepared circuit is the input.
                let content_fp = if self.options.optimize {
                    fingerprint::fingerprint_circuit(&prepared)
                } else {
                    input_fp
                };
                debug_assert_eq!(content_fp, fingerprint::fingerprint_circuit(&prepared));
                let art = Arc::new(PreparedArt {
                    circuit: prepared,
                    content_fp,
                });
                if let Some(c) = &self.cache {
                    c.prepare.insert(key, Arc::clone(&art));
                }
                (art, false)
            }
        };
        self.emit(
            Stage::Prepare,
            key,
            cached,
            started.elapsed().as_micros() as u64,
        );
        Ok(Prepared {
            session: self.clone(),
            art,
            key,
            input_gates: circuit.len(),
        })
    }

    /// Runs the whole pipeline: prepare → lower → map → schedule.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`], tagged with the stage it occurred in.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        self.prepare(circuit)?.lower().map()?.schedule()
    }

    /// Runs the pipeline up to and including `stop`, reporting the stage
    /// trail. `program` is populated only when `stop` is
    /// [`Stage::Schedule`].
    ///
    /// # Errors
    ///
    /// Any [`CompileError`], tagged with the stage it occurred in.
    pub fn run_until(&self, circuit: &Circuit, stop: Stage) -> Result<StageRun, CompileError> {
        let trace = StageTrace::new();
        let mut session = self.clone();
        session.hooks.push(Arc::<StageTrace>::clone(&trace));
        let done = |fingerprint: u64, stage: Stage, program: Option<CompiledProgram>| StageRun {
            stage,
            fingerprint,
            events: trace.events(),
            program,
        };

        let prepared = session.prepare(circuit)?;
        if stop == Stage::Prepare {
            let fp = prepared.fingerprint();
            return Ok(done(fp, Stage::Prepare, None));
        }
        let lowered = prepared.lower();
        if stop == Stage::Lower {
            let fp = lowered.fingerprint();
            return Ok(done(fp, Stage::Lower, None));
        }
        let mapped = lowered.map()?;
        if stop == Stage::Map {
            let fp = mapped.fingerprint();
            return Ok(done(fp, Stage::Map, None));
        }
        let program = mapped.schedule()?;
        let fp = program.stage_keys()[3];
        Ok(done(fp, Stage::Schedule, Some(program)))
    }

    /// Computes all four stage keys by running only the cheap front-end
    /// stages (prepare and lower, cache-assisted); routing and scheduling
    /// do **not** execute. The map and schedule keys are derivable without
    /// their artifacts — each is a digest of the upstream key/content plus
    /// an option subset — which is what makes cheap cache probes possible.
    ///
    /// # Errors
    ///
    /// [`CompileError::EmptyRegister`] (stage-tagged) for a zero-qubit
    /// circuit.
    pub fn stage_keys(&self, circuit: &Circuit) -> Result<[u64; 4], CompileError> {
        // Hook-less clone: a probe must not show up in --explain traces.
        let mut probe = self.clone();
        probe.hooks.clear();
        Ok(probe.prepare(circuit)?.lower().stage_keys())
    }

    /// Checks that `program` was routed from `circuit` under this
    /// session's prepare and map options, at the cost of one circuit
    /// fingerprint: the program's prepare and map keys must be the ones
    /// they give. Schedule knobs may differ, as after
    /// [`Mapped::reschedule`].
    pub(crate) fn check_routed(
        &self,
        circuit: &Circuit,
        program: &CompiledProgram,
    ) -> Result<(), CompileError> {
        let [prepare, _, map, _] = program.stage_keys();
        let input_fp = fingerprint::fingerprint_circuit(circuit);
        let stage = if prepare != stage_key(Stage::Prepare, input_fp, self.prepare_opts_fp) {
            Stage::Prepare
        } else if map != stage_key(Stage::Map, program.lowered.content_fp, self.map_opts_fp) {
            Stage::Map
        } else {
            return Ok(());
        };
        Err(CompileError::ProgramMismatch { stage })
    }

    /// Whether the artifact for `stage` is already present in this
    /// session's stage cache, without computing anything past the cheap
    /// front end. Deriving the keys runs (cache-assisted, counted-as-usual)
    /// prepare/lower lookups; only the final presence check on `stage`'s
    /// tier is a silent probe. Always `false` when the session has no
    /// cache.
    ///
    /// # Errors
    ///
    /// As [`CompileSession::stage_keys`].
    pub fn stage_cached(&self, circuit: &Circuit, stage: Stage) -> Result<bool, CompileError> {
        let Some(cache) = &self.cache else {
            return Ok(false);
        };
        let keys = self.stage_keys(circuit)?;
        Ok(cache.contains(stage, keys[stage as usize]))
    }
}

/// What [`CompileSession::run_until`] did: the terminal stage, its
/// artifact fingerprint, the full per-stage event trail, and — when the
/// run reached [`Stage::Schedule`] — the compiled program.
#[derive(Debug)]
pub struct StageRun {
    /// The terminal stage reached.
    pub stage: Stage,
    /// The terminal stage artifact's fingerprint.
    pub fingerprint: u64,
    /// One event per stage run, in execution order.
    pub events: Vec<StageEvent>,
    /// The compiled program, when the run went all the way.
    pub program: Option<CompiledProgram>,
}

/// Output of the prepare stage; continue with [`Prepared::lower`].
#[derive(Debug, Clone)]
pub struct Prepared {
    session: CompileSession,
    art: Arc<PreparedArt>,
    key: u64,
    input_gates: usize,
}

impl Prepared {
    /// The stage artifact's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.key
    }

    /// The prepared circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.art.circuit
    }

    /// Runs the lower stage.
    pub fn lower(self) -> Lowered {
        let started = Instant::now();
        // Content-addressed: keyed on the prepared circuit itself, so two
        // option sets that prepare to the same circuit share the artifact.
        let key = stage_key(Stage::Lower, self.art.content_fp, 0);
        let (art, cached) = match self.session.cache.as_ref().and_then(|c| c.lower.get(key)) {
            Some(hit) => (hit.value, true),
            None => {
                let lowered = lower(&self.art.circuit);
                // Lowering only expands CZ and SWAP; without them the
                // lowered circuit is the prepared one.
                let expands = self
                    .art
                    .circuit
                    .iter()
                    .any(|g| matches!(g, Gate::Cz(..) | Gate::Swap(..)));
                let content_fp = if expands {
                    fingerprint::fingerprint_circuit(&lowered)
                } else {
                    self.art.content_fp
                };
                debug_assert_eq!(content_fp, fingerprint::fingerprint_circuit(&lowered));
                let art = Arc::new(LoweredArt {
                    circuit: lowered,
                    content_fp,
                });
                if let Some(c) = &self.session.cache {
                    c.lower.insert(key, Arc::clone(&art));
                }
                (art, false)
            }
        };
        self.session.emit(
            Stage::Lower,
            key,
            cached,
            started.elapsed().as_micros() as u64,
        );
        Lowered {
            session: self.session,
            art,
            key,
            prepare_key: self.key,
            input_gates: self.input_gates,
        }
    }
}

/// Output of the lower stage; continue with [`Lowered::map`].
#[derive(Debug, Clone)]
pub struct Lowered {
    session: CompileSession,
    art: Arc<LoweredArt>,
    key: u64,
    /// The key of the prepare stage this artifact was lowered from.
    prepare_key: u64,
    input_gates: usize,
}

impl Lowered {
    /// The stage artifact's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.key
    }

    /// The lowered circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.art.circuit
    }

    /// The map-stage key: the lowered content under the map option subset.
    fn map_key(&self) -> u64 {
        stage_key(Stage::Map, self.art.content_fp, self.session.map_opts_fp)
    }

    /// All four stage keys of this compile: the prepare and lower keys it
    /// ran under, and the map and schedule keys it would finish under.
    /// Neither later stage runs; each key is a digest of its upstream key
    /// or content and an option subset.
    pub(crate) fn stage_keys(&self) -> [u64; 4] {
        let map_key = self.map_key();
        let schedule_key = stage_key(Stage::Schedule, map_key, self.session.sched_opts_fp);
        [self.prepare_key, self.key, map_key, schedule_key]
    }

    /// Runs the map stage: layout construction, initial placement, factory
    /// docking, and greedy routing.
    ///
    /// # Errors
    ///
    /// [`CompileError::Layout`] or [`CompileError::RoutingFailed`], tagged
    /// with [`Stage::Map`].
    pub fn map(self) -> Result<Mapped, CompileError> {
        let started = Instant::now();
        let options = &self.session.options;
        let key = self.map_key();
        let (art, cached) = match self.session.cache.as_ref().and_then(|c| c.map.get(key)) {
            Some(hit) => (hit.value, true),
            None => {
                let art = route_circuit(&self.art.circuit, options, Router::new)
                    .map_err(|e| e.at_stage(Stage::Map, started.elapsed().as_micros() as u64))?;
                let art = Arc::new(art);
                if let Some(c) = &self.session.cache {
                    c.map.insert(key, Arc::clone(&art));
                    c.add_route(art.route);
                }
                (art, false)
            }
        };
        self.session.emit(
            Stage::Map,
            key,
            cached,
            started.elapsed().as_micros() as u64,
        );
        Ok(Mapped {
            session: self.session,
            lowered: self.art,
            art,
            prepare_key: self.prepare_key,
            lower_key: self.key,
            key,
            input_gates: self.input_gates,
        })
    }
}

/// Output of the map stage; finish with [`Mapped::schedule`] or re-time
/// under different scheduling knobs with [`Mapped::reschedule`].
#[derive(Debug, Clone)]
pub struct Mapped {
    session: CompileSession,
    lowered: Arc<LoweredArt>,
    art: Arc<RoutedProgram>,
    /// The keys of the prepare and lower stages this artifact came from.
    prepare_key: u64,
    lower_key: u64,
    key: u64,
    input_gates: usize,
}

impl Mapped {
    /// The stage artifact's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.key
    }

    /// The routed operation sequence (before redundant-move elimination).
    pub fn ops(&self) -> &[RoutedOp] {
        &self.art.ops
    }

    /// Magic states the routed program consumes.
    pub fn n_magic_states(&self) -> u64 {
        self.art.n_magic_states
    }

    /// The incremental router's counters for the routing run that produced
    /// this artifact.
    pub fn route_counters(&self) -> RouteCounters {
        self.art.route
    }

    /// Runs the schedule stage: redundant-move elimination, the paired
    /// realistic and unit-cost timing replay, and metrics assembly.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for parity with the
    /// other stages and future scheduling passes.
    pub fn schedule(mut self) -> Result<CompiledProgram, CompileError> {
        // When nothing else holds the map artifact (no stage cache kept it,
        // no clone of this stage shares it), its routed ops move into the
        // schedule stage uncloned.
        let owned = Arc::get_mut(&mut self.art).map(|art| std::mem::take(&mut art.ops));
        self.finish(&self.session.options, self.session.sched_opts_fp, owned)
    }

    /// Re-times this routed program under `options`, which may differ from
    /// the session's only in schedule-stage knobs
    /// (`eliminate_redundant_moves`, `schedule_timing`). The expensive
    /// prepare/lower/map artifacts are reused as-is; only scheduling runs.
    ///
    /// # Errors
    ///
    /// [`CompileError::Stage`] tagged [`Stage::Schedule`] when `options`
    /// disagree with this artifact's upstream option subsets (the artifact
    /// would not correspond to the requested compilation).
    pub fn reschedule(&self, options: &CompilerOptions) -> Result<CompiledProgram, CompileError> {
        let diverged = subset_fp(options, PREPARE_OPTION_KEYS) != self.session.prepare_opts_fp
            || subset_fp(options, MAP_OPTION_KEYS) != self.session.map_opts_fp;
        if diverged {
            return Err(CompileError::OptionsDiverged {
                stage: Stage::Schedule,
            }
            .at_stage(Stage::Schedule, 0));
        }
        self.finish(options, schedule_subset_fp(options), None)
    }

    /// The schedule stage under `options`, and the program as a view over
    /// the stage artifacts. `owned` holds the routed ops when the caller
    /// could take them out of a sole-owned map artifact; otherwise a cache
    /// miss copies them, since the shared artifact keeps them as routed
    /// (before redundant-move elimination).
    fn finish(
        &self,
        options: &CompilerOptions,
        sched_fp: u64,
        owned: Option<Vec<RoutedOp>>,
    ) -> Result<CompiledProgram, CompileError> {
        let started = Instant::now();
        let key = stage_key(Stage::Schedule, self.key, sched_fp);
        let (art, cached) = match self
            .session
            .cache
            .as_ref()
            .and_then(|c| c.schedule.get(key))
        {
            Some(hit) => (hit.value, true),
            None => {
                let ops = owned.unwrap_or_else(|| self.art.ops.clone());
                let art = Arc::new(compute_schedule(
                    ops,
                    &self.art,
                    self.lowered.circuit.num_qubits(),
                    options,
                ));
                if let Some(c) = &self.session.cache {
                    c.schedule.insert(key, Arc::clone(&art));
                }
                (art, false)
            }
        };
        self.session.emit(
            Stage::Schedule,
            key,
            cached,
            started.elapsed().as_micros() as u64,
        );

        let timing = options.effective_schedule_timing();
        let metrics = Metrics {
            execution_time: art.schedule.makespan(),
            unit_cost_time: art.unit_makespan,
            lower_bound: if options.target.unbounded_magic {
                Ticks::ZERO
            } else {
                lower_bound(
                    self.art.n_magic_states,
                    timing.magic_production,
                    options.target.factories,
                )
            },
            grid_patches: self.art.layout.total_patches(),
            factory_patches: self.art.factory_patches,
            routing_paths: options.target.routing_paths(),
            factories: options.target.factories,
            n_gates: self.input_gates,
            n_surgery_ops: art.schedule.len(),
            n_moves: art.n_moves,
            n_moves_eliminated: art.n_moves_eliminated,
            n_magic_states: self.art.n_magic_states,
            route: self.art.route,
        };
        Ok(CompiledProgram {
            lowered: Arc::clone(&self.lowered),
            mapped: Arc::clone(&self.art),
            scheduled: art,
            metrics,
            options: options.clone(),
            keys: [self.prepare_key, self.lower_key, self.key, key],
        })
    }
}

/// The schedule stage's computation, a pure function of the routed ops
/// (`ops`, `mapped`'s own or a copy of them) and the schedule-stage option
/// subset. `ops` becomes the schedule's op array as it is, after
/// redundant-move elimination.
fn compute_schedule(
    mut ops: Vec<RoutedOp>,
    mapped: &RoutedProgram,
    num_qubits: u32,
    options: &CompilerOptions,
) -> ScheduledArt {
    let n_moves_eliminated = if options.eliminate_redundant_moves {
        eliminate_redundant_moves(&mut ops)
    } else {
        0
    };
    let n_moves = ops.iter().filter(|o| o.is_movement()).count();
    let (schedule, unit_makespan) = time_schedule(
        ops,
        mapped.layout.grid(),
        num_qubits,
        options.target.factories as usize,
        options.effective_schedule_timing(),
        options.target.unbounded_magic,
    );
    ScheduledArt {
        unit_makespan,
        n_moves,
        n_moves_eliminated,
        schedule,
    }
}

/// Runs a session up to `stop_after` (default: the full pipeline) and
/// folds the result into the service's generic [`StageOutcome`] — the
/// single compile recipe behind the HTTP server's job endpoints and the
/// CLI's batch command.
///
/// `resume_from` requires the named stage's artifact to already be in the
/// stage cache. The probe runs **before** anything expensive: only the
/// cheap prepare/lower front end executes to derive the stage keys, so a
/// cold-cache job fails without paying the routing cost the field exists
/// to avoid. (Should the artifact be evicted concurrently between probe
/// and run, the run recomputes it — still correct, just slower.)
///
/// # Errors
///
/// A rendered error string (bad stage names, stage-tagged compile
/// failures, unmet `resume_from` requirements) — the shape
/// [`BatchService::run`](ftqc_service::BatchService::run) expects.
pub fn stage_outcome(
    session: &CompileSession,
    circuit: &Circuit,
    stop_after: Option<&str>,
    resume_from: Option<&str>,
) -> Result<StageOutcome<Metrics>, String> {
    let stop = match stop_after {
        None => Stage::Schedule,
        Some(name) => Stage::parse_or_err(name)?,
    };
    if let Some(stage) = resume_from.map(Stage::parse_or_err).transpose()? {
        if stage > stop {
            return Err(format!(
                "resume_from={}: stage not reached (stop_after={})",
                stage.name(),
                stop.name()
            ));
        }
        let cached = session
            .stage_cached(circuit, stage)
            .map_err(|e| e.to_string())?;
        if !cached {
            return Err(format!(
                "resume_from={}: stage artifact was not in the stage cache",
                stage.name()
            ));
        }
    }

    let run = session
        .run_until(circuit, stop)
        .map_err(|e| e.to_string())?;
    Ok(match run.program {
        Some(program) if stop_after.is_none() => StageOutcome::complete(*program.metrics()),
        Some(program) => StageOutcome {
            metrics: Some(*program.metrics()),
            stage: Some(Stage::Schedule.name().to_string()),
            fingerprint: Some(run.fingerprint),
        },
        None => StageOutcome::partial(run.stage.name(), run.fingerprint),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;
    use ftqc_arch::TimingModel;

    fn circuit() -> Circuit {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        c.cnot(0, 1).t(1).cnot(2, 3).t(4).cz(4, 5).measure(5);
        c
    }

    fn assert_programs_equal(a: &CompiledProgram, b: &CompiledProgram) {
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.schedule().len(), b.schedule().len());
        for (x, y) in a.schedule().iter().zip(b.schedule().iter()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.lowered_circuit(), b.lowered_circuit());
        assert_eq!(a.initial_mapping(), b.initial_mapping());
    }

    #[test]
    fn staged_equals_monolithic() {
        for options in [
            CompilerOptions::default(),
            CompilerOptions::default()
                .routing_paths(3)
                .factories(2)
                .optimize(true),
            CompilerOptions::default().eliminate_redundant_moves(false),
            CompilerOptions::default().unbounded_magic(true),
        ] {
            let c = circuit();
            let mono = Compiler::new(options.clone()).compile(&c).expect("mono");
            let staged = CompileSession::new(options)
                .prepare(&c)
                .expect("prepare")
                .lower()
                .map()
                .expect("map")
                .schedule()
                .expect("schedule");
            assert_programs_equal(&mono, &staged);
        }
    }

    #[test]
    fn stage_names_roundtrip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
            assert_eq!(stage.to_string(), stage.name());
        }
        assert_eq!(Stage::parse("banana"), None);
    }

    #[test]
    fn second_compile_hits_every_stage() {
        let cache = StageCache::new(64);
        let session = CompileSession::new(CompilerOptions::default()).with_cache(cache.clone());
        let c = circuit();
        let first = session.compile(&c).expect("first");
        let stats = cache.stats();
        for stage in Stage::ALL {
            assert_eq!(stats.for_stage(stage).misses, 1, "{stage} missed once");
            assert_eq!(stats.for_stage(stage).hits, 0);
        }
        let second = session.compile(&c).expect("second");
        assert_programs_equal(&first, &second);
        let stats = cache.stats();
        for stage in Stage::ALL {
            assert_eq!(stats.for_stage(stage).hits, 1, "{stage} hit on repeat");
        }
        assert_eq!(stats.hits(), 4);
        assert_eq!(stats.misses(), 4);
    }

    #[test]
    fn schedule_only_sweep_reuses_routing() {
        // Varying only scheduling knobs must hit prepare/lower/map and
        // re-run scheduling alone — the tentpole's payoff.
        let cache = StageCache::new(64);
        let c = circuit();
        let variants = [
            CompilerOptions::default(),
            CompilerOptions::default().eliminate_redundant_moves(false),
            CompilerOptions::default().schedule_timing(TimingModel {
                cnot: Ticks::from_d(4.0),
                ..TimingModel::paper()
            }),
            CompilerOptions::default().schedule_timing(TimingModel {
                move_op: Ticks::from_d(2.0),
                ..TimingModel::paper()
            }),
        ];
        for options in &variants {
            CompileSession::new(options.clone())
                .with_cache(cache.clone())
                .compile(&c)
                .expect("compiles");
        }
        let stats = cache.stats();
        let n = variants.len() as u64;
        assert_eq!(stats.prepare.misses, 1);
        assert_eq!(stats.prepare.hits, n - 1);
        assert_eq!(stats.lower.misses, 1);
        assert_eq!(stats.lower.hits, n - 1);
        assert_eq!(stats.map.misses, 1, "routing ran exactly once");
        assert_eq!(stats.map.hits, n - 1);
        assert_eq!(stats.schedule.misses, n, "every variant re-schedules");
    }

    #[test]
    fn grid_sweep_reuses_front_end() {
        let cache = StageCache::new(64);
        let c = circuit();
        let mut grid = 0u64;
        for r in [2u32, 3, 4] {
            for f in [1u32, 2] {
                grid += 1;
                CompileSession::new(CompilerOptions::default().routing_paths(r).factories(f))
                    .with_cache(cache.clone())
                    .compile(&c)
                    .expect("compiles");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.prepare.misses, 1);
        assert_eq!(stats.prepare.hits, grid - 1);
        assert_eq!(stats.lower.misses, 1);
        assert_eq!(stats.map.misses, grid, "each grid point routes");
    }

    #[test]
    fn noop_optimize_shares_lower_artifact() {
        // The circuit has nothing to peephole away, so optimize on/off
        // prepares to the same content and the lower tier converges.
        let cache = StageCache::new(64);
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).t(2);
        for optimize in [false, true] {
            CompileSession::new(CompilerOptions::default().optimize(optimize))
                .with_cache(cache.clone())
                .compile(&c)
                .expect("compiles");
        }
        let stats = cache.stats();
        assert_eq!(stats.prepare.misses, 2, "prepare keys differ on optimize");
        assert_eq!(stats.lower.misses, 1, "identical content shares lowering");
        assert_eq!(stats.lower.hits, 1);
        assert_eq!(stats.map.hits, 1);
    }

    #[test]
    fn with_schedule_leaves_the_cached_schedule_alone() {
        let cache = StageCache::new(8);
        let session = CompileSession::new(CompilerOptions::default()).with_cache(cache.clone());
        let c = circuit();
        let first = session.compile(&c).expect("compiles");
        let compiled = first.schedule().clone();
        let edited = first.with_schedule(Schedule::new());
        assert!(edited.schedule().is_empty());
        let again = session.compile(&c).expect("compiles");
        assert_eq!(
            cache.stats().schedule.hits,
            1,
            "the schedule came from the cache"
        );
        assert_eq!(again.schedule(), &compiled);
    }

    #[test]
    fn trace_hook_sees_all_stages() {
        let trace = StageTrace::new();
        let session = CompileSession::new(CompilerOptions::default())
            .with_hook(trace.clone() as Arc<dyn TraceHook>);
        session.compile(&circuit()).expect("compiles");
        let events = trace.events();
        let stages: Vec<Stage> = events.iter().map(|e| e.stage).collect();
        assert_eq!(stages, Stage::ALL.to_vec());
        assert!(events.iter().all(|e| !e.cached), "no cache attached");
        assert!(events.iter().all(|e| e.fingerprint != 0));
    }

    #[test]
    fn run_until_stops_early() {
        let session = CompileSession::new(CompilerOptions::default());
        let c = circuit();
        let run = session.run_until(&c, Stage::Map).expect("runs");
        assert_eq!(run.stage, Stage::Map);
        assert!(run.program.is_none());
        assert_eq!(run.events.len(), 3);
        let full = session.run_until(&c, Stage::Schedule).expect("runs");
        assert_eq!(full.events.len(), 4);
        let program = full.program.expect("full run compiles");
        let mono = Compiler::default().compile(&c).expect("mono");
        assert_programs_equal(&mono, &program);
    }

    #[test]
    fn errors_carry_their_stage() {
        let c = circuit();
        let err = CompileSession::new(CompilerOptions::default().routing_paths(99))
            .prepare(&c)
            .expect("prepare fine")
            .lower()
            .map()
            .expect_err("layout invalid");
        assert_eq!(err.stage(), Some(Stage::Map));
        assert!(matches!(err.into_root(), CompileError::Layout(_)));

        let err = CompileSession::new(CompilerOptions::default())
            .prepare(&Circuit::new(0))
            .expect_err("empty register");
        assert_eq!(err.stage(), Some(Stage::Prepare));
    }

    #[test]
    fn reschedule_varies_schedule_knobs_only() {
        let c = circuit();
        let base = CompilerOptions::default();
        let mapped = CompileSession::new(base.clone())
            .prepare(&c)
            .unwrap()
            .lower()
            .map()
            .unwrap();
        let slow = base.clone().schedule_timing(TimingModel {
            cnot: Ticks::from_d(6.0),
            ..TimingModel::paper()
        });
        let retimed = mapped.reschedule(&slow).expect("re-times");
        let mono = Compiler::new(slow).compile(&c).expect("mono");
        assert_programs_equal(&mono, &retimed);

        // Upstream divergence is rejected, not silently mis-compiled.
        let err = mapped
            .reschedule(&base.routing_paths(3))
            .expect_err("diverged");
        assert_eq!(err.stage(), Some(Stage::Schedule));
    }

    #[test]
    fn stage_outcome_bridges_to_the_service() {
        let cache = StageCache::new(64);
        let session = CompileSession::new(CompilerOptions::default()).with_cache(cache.clone());
        let c = circuit();

        let partial = stage_outcome(&session, &c, Some("map"), None).expect("partial");
        assert_eq!(partial.stage.as_deref(), Some("map"));
        assert!(partial.metrics.is_none());
        assert!(partial.fingerprint.is_some());

        // resume_from now holds: the map artifact is cached.
        let full = stage_outcome(&session, &c, None, Some("map")).expect("resumes");
        assert!(full.metrics.is_some());
        assert_eq!(full.stage, None);

        // On a cold cache the same assertion fails loudly.
        let cold = CompileSession::new(CompilerOptions::default()).with_cache(StageCache::new(8));
        let err = stage_outcome(&cold, &c, None, Some("map")).expect_err("cold cache");
        assert!(err.contains("not in the stage cache"), "got {err}");

        let err = stage_outcome(&session, &c, Some("banana"), None).expect_err("bad stage");
        assert!(err.contains("unknown stage"), "got {err}");

        let err = stage_outcome(&session, &c, Some("lower"), Some("map")).expect_err("not reached");
        assert!(err.contains("not reached"), "got {err}");
    }
}
