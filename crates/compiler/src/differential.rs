//! Differential recompilation: the engine behind interactive edit
//! sessions.
//!
//! A [`DifferentialCompiler`] holds the complete artifact chain of its
//! last compile — the lowered circuit, the routed op sequence, a ladder of
//! [`EngineCheckpoint`]s captured at causal cuts, the compiled program
//! (whose schedule is the post-elimination op sequence), and timer-state
//! snapshots from both timing replays — and, given an edited circuit,
//! re-runs only what the edit can actually influence:
//!
//! 1. **prepare / lower** re-run in full (they are linear-time and
//!    microsecond-cheap; re-running them also makes the dirty-index
//!    computation exact rather than an estimate from the edit span);
//! 2. **map** resumes the routing engine from the deepest checkpoint that
//!    is *causally sound* for the edited gate sequence (the causal
//!    bound), re-routing only the suffix, through the persistent warm
//!    [`SearchArena`] so the resumed searches skip buffer allocation;
//! 3. **schedule** re-runs redundant-move elimination in full (its
//!    fixed-point cancellation is not prefix-stable near an edit
//!    boundary) as a mask over the routed ops, splices the unchanged
//!    schedule prefix, and resumes both timing replays, in one pass, from
//!    the deepest [`Timer`] snapshot at or below the first changed op.
//!
//! The discipline throughout is *verify the result, not the
//! recomputation*: every differentially produced program passes the full
//! six-invariant [`verify`] before it is returned, and any fallback
//! trigger (qubit count change, initial-placement change, verification
//! failure) discards the held artifacts and recompiles clean. The
//! differential proptest harness (`tests/edit_differential.rs`) pins the
//! stronger property that schedules and metrics are byte-identical to a
//! cold compile; the only intentional difference is
//! [`Metrics::route`](crate::Metrics) — the router's counters are
//! provenance of *how* the result was computed, and a resumed run over a
//! warm arena legitimately reports different activity.

use crate::engine::{Engine, EngineCheckpoint};
use crate::error::CompileError;
use crate::mapping::InitialMapping;
use crate::metrics::{lower_bound, Metrics};
use crate::options::CompilerOptions;
use crate::pipeline::{lower, prepare, CompiledProgram};
use crate::redundant::cancelled_moves;
use crate::routed::RoutedOp;
use crate::timer::{CostKind, Timer};
use crate::verify::verify;
use ftqc_arch::{Layout, Ticks};
use ftqc_circuit::Circuit;
use ftqc_route::incremental::{RouterMode, SearchArena};
use ftqc_route::RouteCounters;
use ftqc_sim::Schedule;

/// Engine checkpoints are captured every this many contiguous gates unless
/// overridden with [`DifferentialCompiler::checkpoint_every`].
pub const DEFAULT_CHECKPOINT_EVERY: usize = 8;

/// Timer snapshots are captured every this many timed ops unless
/// overridden with [`DifferentialCompiler::timer_every`].
pub const DEFAULT_TIMER_EVERY: usize = 32;

/// Which path produced a [`DifferentialCompiler::recompile`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Artifacts from the previous compile were reused; only the affected
    /// suffix was re-routed and re-timed.
    Differential,
    /// A clean full compile (first compile, or a fallback trigger fired).
    Full,
}

impl DeltaKind {
    /// Stable lower-case label (`"differential"` / `"full"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaKind::Differential => "differential",
            DeltaKind::Full => "full",
        }
    }
}

/// What one [`DifferentialCompiler::recompile`] reused and recomputed —
/// the delta annotation an edit session attaches to its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileDelta {
    /// Differential or full.
    pub kind: DeltaKind,
    /// Gates in the lowered circuit.
    pub gates_total: usize,
    /// First lowered gate index that differs from the previous compile
    /// (`gates_total` when the lowered circuit is unchanged).
    pub dirty_from: usize,
    /// Gate index routing resumed from (0 = routed from scratch).
    pub resume_cut: usize,
    /// Gates actually re-routed (`gates_total - resume_cut`).
    pub gates_rerouted: usize,
    /// Ops in the post-elimination sequence.
    pub ops_total: usize,
    /// Ops re-timed by the realistic replay (the rest were spliced from
    /// the previous schedule).
    pub ops_retimed: usize,
    /// Why a full compile ran, when it did.
    pub full_reason: Option<String>,
}

/// One mid-replay snapshot of both timing replays: their state *before*
/// timing op `idx`, plus the unit-cost makespan over ops `0..idx` (the
/// realistic one is the makespan of the held schedule's first `idx` ops).
#[derive(Debug, Clone)]
struct TimerSnap {
    idx: usize,
    real: Timer,
    unit: Timer,
    unit_makespan: Ticks,
}

/// The map stage's output on either path, as the schedule stage takes it
/// and the next recompile resumes from it.
struct Routed {
    lowered: Circuit,
    layout: Layout,
    mapping: InitialMapping,
    factory_patches: u32,
    /// Routed ops before redundant-move elimination — the sequence the
    /// checkpoints' `ops_len` indices refer to. The ops elimination keeps
    /// are the program's schedule, which the timer snapshots index.
    raw_ops: Vec<RoutedOp>,
    /// Causal-cut snapshots, ascending by cut.
    checkpoints: Vec<EngineCheckpoint>,
    n_magic_states: u64,
    route: RouteCounters,
}

/// Everything the previous compile left behind.
struct DiffState {
    routed: Routed,
    /// The raw-op index of each op of the program's schedule.
    kept: Vec<usize>,
    /// Timer snapshots, ascending by op index.
    snaps: Vec<TimerSnap>,
    program: CompiledProgram,
}

/// What the schedule stage reuses from the previous compile (nothing, by
/// default).
#[derive(Default)]
struct Held {
    snaps: Vec<TimerSnap>,
    schedule: Schedule<RoutedOp>,
    /// The raw-op index of each of `schedule`'s ops.
    kept: Vec<usize>,
    /// Leading raw ops the new run took over unchanged.
    shared: usize,
}

/// A compiler that remembers its last run and recompiles edited circuits
/// differentially. See the [module docs](self) for the reuse strategy and
/// the soundness argument.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{CompilerOptions, DeltaKind, DifferentialCompiler};
///
/// let mut diff = DifferentialCompiler::new(CompilerOptions::default().routing_paths(4));
/// let mut c = Circuit::new(4);
/// c.h(0).cnot(0, 1).t(1);
/// let (first, delta) = diff.recompile(&c)?;
/// assert_eq!(delta.kind, DeltaKind::Full); // nothing to reuse yet
///
/// c.t(1); // edit: append a gate
/// let (second, delta) = diff.recompile(&c)?;
/// assert_eq!(delta.kind, DeltaKind::Differential);
/// assert!(second.metrics().execution_time >= first.metrics().execution_time);
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
pub struct DifferentialCompiler {
    options: CompilerOptions,
    checkpoint_every: usize,
    timer_every: usize,
    arena: Option<SearchArena>,
    state: Option<DiffState>,
}

impl DifferentialCompiler {
    /// A differential compiler for `options`; the first
    /// [`recompile`](Self::recompile) is necessarily a full compile.
    pub fn new(options: CompilerOptions) -> Self {
        DifferentialCompiler {
            options,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            timer_every: DEFAULT_TIMER_EVERY,
            arena: None,
            state: None,
        }
    }

    /// Sets the engine-checkpoint stride (gates between causal-cut
    /// snapshots). Smaller = finer resume granularity, more snapshot
    /// memory.
    pub fn checkpoint_every(mut self, gates: usize) -> Self {
        self.checkpoint_every = gates.max(1);
        self
    }

    /// Sets the timer-snapshot stride (ops between timing-state
    /// snapshots).
    pub fn timer_every(mut self, ops: usize) -> Self {
        self.timer_every = ops.max(1);
        self
    }

    /// The options every compile runs under.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The last compiled program, if any compile has succeeded.
    pub fn last_program(&self) -> Option<&CompiledProgram> {
        self.state.as_ref().map(|s| &s.program)
    }

    /// Compiles `circuit`, reusing as much of the previous compile as the
    /// edit allows. Returns the program plus a [`CompileDelta`] describing
    /// what was reused. The result is byte-identical to a cold
    /// [`Compiler::compile`](crate::Compiler) except for the
    /// routing-activity counters in [`Metrics::route`](crate::Metrics),
    /// and has passed [`verify`] whenever the differential path ran.
    ///
    /// # Errors
    ///
    /// Exactly the cold pipeline's errors: [`CompileError::Target`],
    /// [`CompileError::Layout`], or [`CompileError::RoutingFailed`].
    pub fn recompile(
        &mut self,
        circuit: &Circuit,
    ) -> Result<(CompiledProgram, CompileDelta), CompileError> {
        let input_gates = circuit.len();
        let prepared = prepare(circuit, &self.options);
        let lowered = lower(&prepared);

        let Some(DiffState {
            routed: mut old,
            kept,
            snaps,
            program,
        }) = self.state.take()
        else {
            return self.full(lowered, input_gates, "no previous compile");
        };
        if old.lowered.num_qubits() != lowered.num_qubits() {
            return self.full(lowered, input_gates, "qubit count changed");
        }
        // The grid layout depends only on the qubit count (unchanged), but
        // the initial placement may read the whole circuit
        // (interaction-aware mapping): recompute and compare.
        let mapping = InitialMapping::for_circuit(&old.layout, &lowered, self.options.mapping);
        if mapping != old.mapping {
            return self.full(lowered, input_gates, "initial placement changed");
        }

        let gates_total = lowered.len();
        let dirty_from = first_divergence(&old.lowered, &lowered);
        let bound = causal_bound(&lowered, dirty_from);

        // ---- map: resume routing from the deepest sound checkpoint ----
        // The checkpoints past it are dropped; the resumed run appends its
        // own after the rest.
        let sound = old
            .checkpoints
            .iter()
            .take_while(|c| c.cut <= bound)
            .count();
        old.checkpoints.truncate(sound);
        let resume_cut = old.checkpoints.last().map_or(0, |c| c.cut);
        let shared = old.checkpoints.last().map_or(0, |c| c.ops_len);
        let arena = self.arena.take().unwrap_or_default();
        let mut engine = match old.checkpoints.last() {
            Some(c) => {
                // The held raw ops are replaced wholesale after this
                // recompile, so the checkpoint prefix is moved out rather
                // than cloned (the clone was measurable at interactive
                // edit rates).
                let mut prefix = std::mem::take(&mut old.raw_ops);
                prefix.truncate(c.ops_len);
                Engine::resume(
                    &old.layout,
                    &self.options,
                    c,
                    prefix,
                    RouterMode::Incremental,
                    arena,
                )
            }
            // No sound checkpoint: route from scratch, still through the
            // warm router (warmth never changes results).
            None => Engine::with_arena(
                &old.layout,
                &mapping,
                self.options.target.factory_bank(&old.layout),
                &self.options,
                RouterMode::Incremental,
                arena,
            ),
        };
        engine.run_from(
            &lowered,
            resume_cut,
            self.checkpoint_every,
            &mut old.checkpoints,
        )?;
        let route = engine.route_counters();
        let (raw_ops, n_magic_states, arena) = engine.into_ops_and_arena();
        let routed = Routed {
            lowered,
            mapping,
            raw_ops,
            n_magic_states,
            route,
            ..old
        };

        // ---- schedule: full elimination, spliced timing replays ----
        let held = Held {
            snaps,
            schedule: program.into_schedule(),
            kept,
            shared,
        };
        let (program, state, retimed) = self.schedule(routed, input_gates, held);

        // A wrong shortcut must never escape: every differential result
        // passes the full invariant check or the whole state is discarded
        // and the compile redone from nothing.
        let timing = self.options.effective_schedule_timing();
        if let Err(e) = verify(&program, timing) {
            self.arena = None;
            let lowered = state.routed.lowered;
            return self.full(lowered, input_gates, &format!("verification failed: {e}"));
        }

        let delta = CompileDelta {
            kind: DeltaKind::Differential,
            gates_total,
            dirty_from,
            resume_cut,
            gates_rerouted: gates_total - resume_cut,
            ops_total: program.schedule().len(),
            ops_retimed: retimed,
            full_reason: None,
        };
        self.arena = Some(arena);
        self.state = Some(state);
        Ok((program, delta))
    }

    /// The clean path: compile from nothing (but still through the warm
    /// search arena, which never changes results), repopulating every held
    /// artifact.
    fn full(
        &mut self,
        lowered: Circuit,
        input_gates: usize,
        reason: &str,
    ) -> Result<(CompiledProgram, CompileDelta), CompileError> {
        self.state = None;
        let target = &self.options.target;
        target.validate(lowered.num_qubits(), lowered.t_count() as u64)?;
        let layout = target.build_layout(lowered.num_qubits())?;
        let mapping = InitialMapping::for_circuit(&layout, &lowered, self.options.mapping);
        let bank = target.factory_bank(&layout);
        let factory_patches = bank.total_tiles();
        let arena = self.arena.take().unwrap_or_default();
        let mut engine = Engine::with_arena(
            &layout,
            &mapping,
            bank,
            &self.options,
            RouterMode::Incremental,
            arena,
        );
        let mut checkpoints = Vec::new();
        engine.run_from(&lowered, 0, self.checkpoint_every, &mut checkpoints)?;
        let route = engine.route_counters();
        let (raw_ops, n_magic_states, arena) = engine.into_ops_and_arena();
        let gates_total = lowered.len();
        let routed = Routed {
            lowered,
            layout,
            mapping,
            factory_patches,
            raw_ops,
            checkpoints,
            n_magic_states,
            route,
        };
        let (program, state, retimed) = self.schedule(routed, input_gates, Held::default());
        let delta = CompileDelta {
            kind: DeltaKind::Full,
            gates_total,
            dirty_from: 0,
            resume_cut: 0,
            gates_rerouted: gates_total,
            ops_total: program.schedule().len(),
            ops_retimed: retimed,
            full_reason: Some(reason.to_string()),
        };
        self.arena = Some(arena);
        self.state = Some(state);
        Ok((program, delta))
    }

    /// The schedule stage of both paths: eliminates redundant moves in the
    /// routed ops and times the ops left under both cost tables in one
    /// pass. Both replays resume from the deepest of `held`'s snapshots at
    /// or below the first op that differs from its schedule, whose head is
    /// kept instead of re-timed. Returns the program, the state to hold for
    /// the next recompile, and how many ops were re-timed.
    fn schedule(
        &self,
        routed: Routed,
        input_gates: usize,
        held: Held,
    ) -> (CompiledProgram, DiffState, usize) {
        let raw = &routed.raw_ops;
        let cancel = if self.options.eliminate_redundant_moves {
            cancelled_moves(raw)
        } else {
            vec![false; raw.len()]
        };
        let kept: Vec<usize> = (0..raw.len()).filter(|&i| !cancel[i]).collect();
        let Held {
            mut snaps,
            mut schedule,
            kept: held_kept,
            shared,
        } = held;
        // An op at the same raw index inside the shared raw prefix is the
        // same op; only the others are compared.
        let common = kept
            .iter()
            .zip(&held_kept)
            .zip(schedule.items())
            .take_while(|((&i, &j), item)| (i == j && i < shared) || raw[i] == item.op)
            .count();
        snaps.truncate(snaps.iter().take_while(|s| s.idx <= common).count());

        let timing = *self.options.effective_schedule_timing();
        let target = &self.options.target;
        let TimerSnap {
            idx: start,
            mut real,
            mut unit,
            mut unit_makespan,
        } = snaps.last().cloned().unwrap_or_else(|| {
            let timer = |cost| {
                Timer::new(
                    routed.layout.grid(),
                    routed.lowered.num_qubits(),
                    target.factories as usize,
                    &timing,
                    cost,
                    target.unbounded_magic,
                )
            };
            TimerSnap {
                idx: 0,
                real: timer(CostKind::Realistic),
                unit: timer(CostKind::UnitCost),
                unit_makespan: Ticks::ZERO,
            }
        });
        schedule.truncate(start);
        for (i, op) in kept.iter().map(|&k| &raw[k]).enumerate().skip(start) {
            if i > start && i % self.timer_every == 0 {
                snaps.push(TimerSnap {
                    idx: i,
                    real: real.clone(),
                    unit: unit.clone(),
                    unit_makespan,
                });
            }
            let (s, d) = unit.push(op);
            unit_makespan = unit_makespan.max(s + d);
            let (s, d) = real.push(op);
            schedule.push(op.clone(), s, d);
        }

        let metrics = Metrics {
            execution_time: schedule.makespan(),
            unit_cost_time: unit_makespan,
            lower_bound: if target.unbounded_magic {
                Ticks::ZERO
            } else {
                lower_bound(
                    routed.n_magic_states,
                    timing.magic_production,
                    target.factories,
                )
            },
            grid_patches: routed.layout.total_patches(),
            factory_patches: routed.factory_patches,
            routing_paths: target.routing_paths(),
            factories: target.factories,
            n_gates: input_gates,
            n_surgery_ops: kept.len(),
            n_moves: kept.iter().filter(|&&k| raw[k].is_movement()).count(),
            n_moves_eliminated: raw.len() - kept.len(),
            n_magic_states: routed.n_magic_states,
            route: routed.route,
        };
        let retimed = kept.len() - start;
        let program = CompiledProgram::assemble(
            routed.layout.clone(),
            schedule,
            metrics,
            routed.lowered.clone(),
            routed.mapping.clone(),
            self.options.clone(),
        );
        let state = DiffState {
            routed,
            kept,
            snaps,
            program: program.clone(),
        };
        (program, state, retimed)
    }
}

/// First index at which the two gate sequences differ (`min(len)` when one
/// is a prefix of the other).
fn first_divergence(old: &Circuit, new: &Circuit) -> usize {
    let (a, b) = (old.gates(), new.gates());
    let n = a.len().min(b.len());
    (0..n).find(|&i| a[i] != b[i]).unwrap_or(n)
}

/// The deepest causally sound resume cut for `new` when gates before
/// `dirty_from` are unchanged.
///
/// The engine selects gates by `(max qubit-ready over operands, id)` from
/// the DAG front layer, so a resumed run is byte-identical to a cold run
/// over the edited circuit iff no gate at or past `dirty_from` can enter
/// the ready set before the cut state (completed = exactly `0..cut`) is
/// reached. A gate `s` stays out of the pre-cut ready set iff one of its
/// DAG predecessors (the last writer of one of its operand qubits) has id
/// `>= cut` — that predecessor only completes after the cut. Hence every
/// cut `c <= max_pred(s)` is sound for `s`, and the bound is the minimum
/// of `dirty_from` and `max_pred(s)` over all changed gates; a changed
/// gate with no predecessors forces 0 (route from scratch). Gates past
/// `dirty_from` that existed before the edit but were removed or shifted
/// only ever *shrink* the pre-cut ready set by losing candidates, which
/// cannot change any argmin selection.
fn causal_bound(new: &Circuit, dirty_from: usize) -> usize {
    let mut bound = dirty_from;
    let mut last_writer: Vec<Option<usize>> = vec![None; new.num_qubits() as usize];
    for (s, gate) in new.gates().iter().enumerate() {
        if s >= dirty_from {
            let max_pred = gate.qubits().filter_map(|q| last_writer[q as usize]).max();
            bound = bound.min(max_pred.unwrap_or(0));
            if bound == 0 {
                return 0;
            }
        }
        for q in gate.qubits() {
            last_writer[q as usize] = Some(s);
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;
    use ftqc_route::RouteCounters;

    /// Byte-identical programs modulo the routing-activity counters, which
    /// are provenance of the computation (a resumed run legitimately
    /// reports different arena activity).
    fn assert_programs_equal(a: &CompiledProgram, b: &CompiledProgram) {
        let mut ma = *a.metrics();
        let mut mb = *b.metrics();
        ma.route = RouteCounters::default();
        mb.route = RouteCounters::default();
        assert_eq!(ma, mb);
        assert_eq!(a.schedule().len(), b.schedule().len());
        for (x, y) in a.schedule().iter().zip(b.schedule().iter()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.lowered_circuit(), b.lowered_circuit());
        assert_eq!(a.initial_mapping(), b.initial_mapping());
    }

    fn storm_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n.saturating_sub(1) {
            c.cnot(q, q + 1);
            c.t(q + 1);
        }
        for q in (0..n.saturating_sub(1)).rev() {
            c.cnot(q, q + 1);
        }
        c
    }

    /// The core contract: after any edit, the differential result equals a
    /// cold compile of the edited circuit (modulo route counters).
    #[test]
    fn differential_matches_cold_compile() {
        let options = CompilerOptions::default().routing_paths(4);
        let mut diff = DifferentialCompiler::new(options.clone()).checkpoint_every(4);
        let mut c = storm_circuit(6);
        diff.recompile(&c).expect("seed compile");

        // Append, then mutate mid-circuit, then truncate-ish (replace).
        c.t(5).cnot(4, 5);
        let (p, delta) = diff.recompile(&c).expect("append edit");
        assert_eq!(delta.kind, DeltaKind::Differential);
        assert!(delta.resume_cut > 0, "append should resume mid-circuit");
        let cold = Compiler::new(options.clone()).compile(&c).expect("cold");
        assert_programs_equal(&p, &cold);

        c.h(3);
        let (p, delta) = diff.recompile(&c).expect("second edit");
        assert_eq!(delta.kind, DeltaKind::Differential);
        let cold = Compiler::new(options).compile(&c).expect("cold");
        assert_programs_equal(&p, &cold);
    }

    #[test]
    fn qubit_count_change_falls_back_to_full() {
        let options = CompilerOptions::default().routing_paths(4);
        let mut diff = DifferentialCompiler::new(options);
        diff.recompile(&storm_circuit(4)).expect("seed");
        let (_, delta) = diff.recompile(&storm_circuit(5)).expect("grown");
        assert_eq!(delta.kind, DeltaKind::Full);
        assert_eq!(delta.full_reason.as_deref(), Some("qubit count changed"));
    }

    #[test]
    fn identical_recompile_is_differential_and_equal() {
        let options = CompilerOptions::default().routing_paths(4);
        let mut diff = DifferentialCompiler::new(options.clone()).checkpoint_every(2);
        let c = storm_circuit(5);
        let (first, _) = diff.recompile(&c).expect("seed");
        let (again, delta) = diff.recompile(&c).expect("identical");
        assert_eq!(delta.kind, DeltaKind::Differential);
        assert_eq!(delta.dirty_from, delta.gates_total);
        assert_programs_equal(&first, &again);
    }

    #[test]
    fn causal_bound_respects_fresh_qubit_gates() {
        // A new gate on a so-far-untouched qubit has no predecessors: it
        // could be selected first in a cold run, so no cut is sound.
        let mut old = Circuit::new(4);
        old.h(0).cnot(0, 1);
        let mut new = Circuit::new(4);
        new.h(0).cnot(0, 1).h(3);
        let dirty = first_divergence(&old, &new);
        assert_eq!(dirty, 2);
        assert_eq!(causal_bound(&new, dirty), 0);

        // A new gate whose operand was last written by gate 1 allows any
        // cut up to 1.
        let mut chained = Circuit::new(4);
        chained.h(0).cnot(0, 1).t(1);
        assert_eq!(causal_bound(&chained, 2), 1);
    }
}
