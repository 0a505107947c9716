//! The compiler façade: lowering → mapping → routing → scheduling.
//!
//! [`Compiler::compile`] is a thin compatibility wrapper over the staged
//! [`CompileSession`] pipeline; use the session directly for stage-level
//! caching, partial runs, and per-stage trace hooks. Either way the result
//! is a [`CompiledProgram`]: a view over the stage artifacts, shared
//! behind `Arc`s, with the metrics and the stage keys of its compile.

use crate::engine::RoutedProgram;
use crate::error::CompileError;
use crate::mapping::InitialMapping;
use crate::metrics::Metrics;
use crate::options::CompilerOptions;
use crate::routed::RoutedOp;
use crate::session::{CompileSession, LoweredArt, ScheduledArt};
use ftqc_arch::Layout;
use ftqc_circuit::{Circuit, Gate};
use ftqc_sim::Schedule;
use std::sync::Arc;

/// The compiler. Construct with options, then call
/// [`Compiler::compile`] for each circuit.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{Compiler, CompilerOptions};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).t(1);
/// let compiled = Compiler::new(CompilerOptions::default()).compile(&c)?;
/// println!("{}", compiled.metrics());
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    options: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompilerOptions) -> Self {
        Self { options }
    }

    /// The configured options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compiles `circuit` to a timed lattice-surgery schedule.
    ///
    /// Equivalent to running the staged
    /// [`CompileSession`] end to end
    /// without a stage cache; stage context is stripped from errors so
    /// callers see the same [`CompileError`] values as before the staged
    /// redesign.
    ///
    /// # Errors
    ///
    /// * [`CompileError::EmptyRegister`] for a zero-qubit circuit.
    /// * [`CompileError::Layout`] when `routing_paths` is out of range for
    ///   the circuit's register.
    /// * [`CompileError::RoutingFailed`] when a gate cannot be realised.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        CompileSession::new(self.options.clone())
            .compile(circuit)
            .map_err(CompileError::into_root)
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new(CompilerOptions::default())
    }
}

/// The front-end preparation [`Compiler::compile`] applies before
/// lowering: the peephole optimisation pre-pass when
/// [`CompilerOptions::optimize`] is set, otherwise the circuit unchanged.
///
/// Public so the semantic verifier can reproduce the exact circuit whose
/// gate indices a schedule refers to.
pub fn prepare(circuit: &Circuit, options: &CompilerOptions) -> Circuit {
    if options.optimize {
        ftqc_circuit::optimize(circuit).0
    } else {
        circuit.clone()
    }
}

/// Lowers the input gate set to the surgery-supported set: `CZ → H·CX·H`,
/// `SWAP → CX·CX·CX`. Everything else passes through.
///
/// [`Compiler::compile`] applies this before routing; it is public so the
/// semantic verifier (and tests) can reproduce the gate indices that
/// [`RoutedOp::gate`] refers to.
pub fn lower(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name());
    for g in circuit.iter() {
        match *g {
            Gate::Cz(a, b) => {
                out.h(b).cnot(a, b).h(b);
            }
            Gate::Swap(a, b) => {
                out.cnot(a, b).cnot(b, a).cnot(a, b);
            }
            g => {
                out.push(g);
            }
        }
    }
    out
}

/// A compiled program: a view over what the stages produced. It shares
/// the lowered circuit, the map artifact (layout and placement) and the
/// timed schedule with the session that compiled it (and with its stage
/// cache, if any), and keeps the metrics, the options and the four stage
/// keys it was compiled under. A clone bumps three reference counts and
/// copies the metrics, options and keys.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) lowered: Arc<LoweredArt>,
    /// The map artifact; when nothing else held it, its routed ops have
    /// moved into the schedule.
    pub(crate) mapped: Arc<RoutedProgram>,
    pub(crate) scheduled: Arc<ScheduledArt>,
    pub(crate) metrics: Metrics,
    pub(crate) options: CompilerOptions,
    pub(crate) keys: [u64; 4],
}

impl CompiledProgram {
    /// The layout the program was compiled for.
    pub fn layout(&self) -> &Layout {
        &self.mapped.layout
    }

    /// The timed schedule (realistic latencies).
    pub fn schedule(&self) -> &Schedule<RoutedOp> {
        &self.scheduled.schedule
    }

    /// The evaluation metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The lowered circuit the schedule realises; [`RoutedOp::gate`] indices
    /// refer to gates of this circuit (in DAG node order = gate order).
    pub fn lowered_circuit(&self) -> &Circuit {
        &self.lowered.circuit
    }

    /// The initial placement of each program qubit on the grid.
    pub fn initial_mapping(&self) -> &InitialMapping {
        &self.mapped.mapping
    }

    /// The options the program was compiled with (for a program re-timed
    /// by [`Mapped::reschedule`](crate::Mapped::reschedule), the options
    /// it was re-timed with).
    pub fn compile_options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The prepare, lower, map and schedule keys the program was compiled
    /// under: [`CompileSession::stage_keys`] of its circuit and options.
    pub fn stage_keys(&self) -> [u64; 4] {
        self.keys
    }

    /// Replaces the schedule, keeping layout, metrics and provenance. The
    /// new schedule is the program's own; a cached one is left as it is.
    ///
    /// For downstream custom passes (and the verifier-mutation tests): the
    /// returned program should be re-validated with
    /// [`crate::verify()`](crate::verify::verify) and [`crate::check_semantics`] — nothing
    /// re-derives the metrics from the new schedule.
    pub fn with_schedule(mut self, schedule: Schedule<RoutedOp>) -> Self {
        self.scheduled = Arc::new(ScheduledArt {
            schedule,
            ..*self.scheduled
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::Ticks;

    fn compile(c: &Circuit, options: CompilerOptions) -> CompiledProgram {
        Compiler::new(options).compile(c).expect("compiles")
    }

    #[test]
    fn empty_register_rejected() {
        let c = Circuit::new(0);
        assert_eq!(
            Compiler::default().compile(&c).unwrap_err(),
            CompileError::EmptyRegister
        );
    }

    #[test]
    fn empty_circuit_compiles_to_empty_schedule() {
        let c = Circuit::new(4);
        let p = compile(&c, CompilerOptions::default());
        assert_eq!(p.metrics().execution_time, Ticks::ZERO);
        assert_eq!(p.metrics().n_surgery_ops, 0);
    }

    #[test]
    fn single_t_waits_for_distillation() {
        let mut c = Circuit::new(4);
        c.t(0);
        let p = compile(&c, CompilerOptions::default());
        let m = p.metrics();
        // First state at 11d, delivery 1d, consumption 2.5d.
        assert_eq!(m.lower_bound, Ticks::from_d(11.0));
        assert!(m.execution_time >= Ticks::from_d(14.0));
        assert_eq!(m.n_magic_states, 1);
    }

    #[test]
    fn execution_time_at_least_lower_bound() {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.t(q);
        }
        for f in 1..=3u32 {
            let p = compile(&c, CompilerOptions::default().routing_paths(4).factories(f));
            let m = p.metrics();
            assert!(
                m.execution_time >= m.lower_bound,
                "exec {} < bound {} at f={f}",
                m.execution_time,
                m.lower_bound
            );
        }
    }

    #[test]
    fn more_factories_never_hurt_time() {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.t(q);
            c.t(q);
        }
        let t1 = compile(&c, CompilerOptions::default().factories(1))
            .metrics()
            .execution_time;
        let t3 = compile(&c, CompilerOptions::default().factories(3))
            .metrics()
            .execution_time;
        assert!(t3 <= t1, "3 factories {t3} slower than 1 factory {t1}");
    }

    #[test]
    fn unbounded_magic_removes_the_bottleneck() {
        let mut c = Circuit::new(4);
        c.t(0).t(1).t(2).t(3);
        let bounded = compile(&c, CompilerOptions::default());
        let unbounded = compile(&c, CompilerOptions::default().unbounded_magic(true));
        assert!(unbounded.metrics().execution_time < bounded.metrics().execution_time);
        assert_eq!(unbounded.metrics().factory_patches, 0);
    }

    #[test]
    fn cz_and_swap_are_lowered() {
        let mut c = Circuit::new(4);
        c.cz(0, 1).swap(1, 2);
        let p = compile(&c, CompilerOptions::default());
        // 2 H + 1 CNOT + 3 CNOT = at least 6 logical ops in the schedule.
        assert!(p.metrics().n_surgery_ops >= 6);
        // CPI denominator stays the *input* gate count.
        assert_eq!(p.metrics().n_gates, 2);
    }

    #[test]
    fn redundant_elimination_only_removes_moves() {
        let mut c = Circuit::new(16);
        for q in 0..16u32 {
            c.h(q);
        }
        for (a, b) in [(0u32, 1u32), (2, 3), (4, 5), (0, 1), (2, 3)] {
            c.cnot(a, b);
        }
        let with = compile(&c, CompilerOptions::default());
        let without = compile(
            &c,
            CompilerOptions::default().eliminate_redundant_moves(false),
        );
        assert!(with.metrics().n_surgery_ops <= without.metrics().n_surgery_ops);
        assert!(with.metrics().execution_time <= without.metrics().execution_time);
        // Same logical work either way.
        assert_eq!(
            with.metrics().n_magic_states,
            without.metrics().n_magic_states
        );
    }

    #[test]
    fn unit_cost_time_le_execution_time() {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
            if q % 2 == 0 {
                c.t(q);
            }
        }
        c.cnot(0, 1).cnot(4, 5).cnot(7, 8);
        let p = compile(&c, CompilerOptions::default());
        assert!(p.metrics().unit_cost_time <= p.metrics().execution_time);
    }

    #[test]
    fn deterministic_compilation() {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        c.cnot(0, 4).t(4).cnot(4, 8).t(8);
        let a = compile(&c, CompilerOptions::default());
        let b = compile(&c, CompilerOptions::default());
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.schedule().len(), b.schedule().len());
    }

    #[test]
    fn invalid_routing_paths_surface_as_layout_error() {
        let mut c = Circuit::new(4);
        c.h(0);
        let err = Compiler::new(CompilerOptions::default().routing_paths(99))
            .compile(&c)
            .unwrap_err();
        assert!(matches!(err, CompileError::Layout(_)));
    }

    #[test]
    fn schedule_ops_are_valid_and_timed() {
        let mut c = Circuit::new(9);
        c.h(0).cnot(0, 1).t(1).cnot(1, 2).measure(2);
        let p = compile(&c, CompilerOptions::default());
        for item in p.schedule() {
            item.op.op.validate().expect("valid surgery op");
            assert!(item.end() <= p.metrics().execution_time);
        }
    }
}
