//! Bottleneck analysis of compiled schedules.
//!
//! The paper's central quantity is the distillation lower bound
//! `l = n_T · t_MSF / n_MSF` (Eq. 2): a schedule close to `l` is
//! *distillation-bound* and adding routing paths is wasted space, while a
//! schedule far above `l` is *routing/serialisation-bound* and more bus
//! qubits (or a better mapping) buy real time. This module classifies a
//! compiled program so the design-space explorer — and a user staring at
//! one data point — can tell which side of the trade-off they are on.

use crate::pipeline::CompiledProgram;
use ftqc_arch::SurgeryOp;
use std::fmt;

/// Which resource limits the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Execution sits at (≤ ~15% above) the distillation lower bound:
    /// factories are the constraint, extra routing paths are wasted.
    Distillation,
    /// Execution is far above the bound and movement dominates busy time:
    /// routing congestion is the constraint.
    Routing,
    /// Execution is far above the bound with little movement: the circuit's
    /// own dependency chain is the constraint (more resources won't help).
    Serialization,
    /// No single dominant constraint.
    Balanced,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bottleneck::Distillation => write!(f, "distillation-bound"),
            Bottleneck::Routing => write!(f, "routing-bound"),
            Bottleneck::Serialization => write!(f, "serialization-bound"),
            Bottleneck::Balanced => write!(f, "balanced"),
        }
    }
}

/// Quantitative bottleneck report for one compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Execution time over the distillation lower bound (∞ when the bound
    /// is zero and time is not).
    pub overhead: f64,
    /// Fraction of the makespan during which every factory is producing:
    /// `n_magic · t_MSF / (factories · makespan)`, capped at 1.
    pub factory_utilization: f64,
    /// Movement's share of the schedule's total busy time (0..1).
    pub movement_share: f64,
    /// The busiest qubit's busy time over the makespan (0..1) — high values
    /// mean one serial chain paces the program.
    pub critical_qubit_utilization: f64,
    /// The classification.
    pub bottleneck: Bottleneck,
}

impl fmt::Display for BottleneckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (overhead {:.2}x, factories {:.0}% busy, movement {:.0}% of busy time, critical qubit {:.0}% busy)",
            self.bottleneck,
            self.overhead,
            self.factory_utilization * 100.0,
            self.movement_share * 100.0,
            self.critical_qubit_utilization * 100.0,
        )
    }
}

/// Overhead at or below which a schedule counts as distillation-bound.
const DISTILLATION_SLACK: f64 = 1.15;
/// Movement share above which an above-bound schedule counts as
/// routing-bound.
const ROUTING_SHARE: f64 = 0.35;
/// Critical-qubit utilisation above which an above-bound, low-movement
/// schedule counts as serialisation-bound.
const SERIAL_UTILIZATION: f64 = 0.5;

/// Analyses where a compiled program's time goes.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{analysis::diagnose, Compiler, CompilerOptions};
///
/// // 20 T gates through one factory: distillation-bound by construction.
/// let mut c = Circuit::new(4);
/// for i in 0..20 { c.t(i % 4); }
/// let p = Compiler::new(CompilerOptions::default()).compile(&c)?;
/// let report = diagnose(&p);
/// assert_eq!(report.bottleneck.to_string(), "distillation-bound");
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
pub fn diagnose(program: &CompiledProgram) -> BottleneckReport {
    let m = program.metrics();
    let makespan = m.execution_time.as_d();
    let overhead = if m.lower_bound.as_d() > 0.0 {
        makespan / m.lower_bound.as_d()
    } else if makespan > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };

    let factory_utilization = if makespan > 0.0 && m.factories > 0 {
        (m.n_magic_states as f64
            * program
                .compile_options()
                .target
                .timing
                .magic_production
                .as_d()
            / (m.factories as f64 * makespan))
            .min(1.0)
    } else {
        0.0
    };

    let mut movement_busy = 0.0f64;
    let mut total_busy = 0.0f64;
    let n = program.lowered_circuit().num_qubits() as usize;
    let mut per_qubit_busy = vec![0.0f64; n];
    for item in program.schedule() {
        let dur = item.duration.as_d();
        total_busy += dur;
        if matches!(
            item.op.op,
            SurgeryOp::Move { .. } | SurgeryOp::DeliverMagic { .. }
        ) {
            movement_busy += dur;
        }
        for &q in &item.op.patches {
            if (q as usize) < n {
                per_qubit_busy[q as usize] += dur;
            }
        }
    }
    let movement_share = if total_busy > 0.0 {
        movement_busy / total_busy
    } else {
        0.0
    };
    let critical_qubit_utilization = if makespan > 0.0 {
        per_qubit_busy.iter().cloned().fold(0.0, f64::max) / makespan
    } else {
        0.0
    };

    let bottleneck = if makespan == 0.0 {
        Bottleneck::Balanced
    } else if overhead <= DISTILLATION_SLACK {
        Bottleneck::Distillation
    } else if movement_share >= ROUTING_SHARE {
        Bottleneck::Routing
    } else if critical_qubit_utilization >= SERIAL_UTILIZATION {
        Bottleneck::Serialization
    } else {
        Bottleneck::Balanced
    };

    BottleneckReport {
        overhead,
        factory_utilization,
        movement_share,
        critical_qubit_utilization,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use ftqc_circuit::Circuit;

    fn compile(c: &Circuit, o: CompilerOptions) -> CompiledProgram {
        Compiler::new(o).compile(c).expect("compiles")
    }

    #[test]
    fn t_heavy_single_factory_is_distillation_bound() {
        let mut c = Circuit::new(4);
        for i in 0..24 {
            c.t(i % 4);
        }
        let p = compile(&c, CompilerOptions::default().factories(1));
        let r = diagnose(&p);
        assert_eq!(r.bottleneck, Bottleneck::Distillation);
        assert!(r.factory_utilization > 0.8, "got {}", r.factory_utilization);
        assert!(r.overhead < 1.15);
    }

    #[test]
    fn serial_clifford_chain_is_serialization_bound() {
        let mut c = Circuit::new(2);
        for _ in 0..60 {
            c.h(0);
            c.s(0);
        }
        let p = compile(&c, CompilerOptions::default());
        let r = diagnose(&p);
        assert_eq!(r.bottleneck, Bottleneck::Serialization);
        assert!(r.critical_qubit_utilization > 0.9);
        assert_eq!(r.factory_utilization, 0.0);
    }

    #[test]
    fn long_range_clifford_traffic_is_routing_or_serial() {
        // All-to-all CNOTs on a stingy layout: no T gates, so the bound is
        // zero and the time goes to movement + merges.
        let mut c = Circuit::new(9);
        for a in 0..9u32 {
            c.cnot(a, (a + 4) % 9);
        }
        let p = compile(&c, CompilerOptions::default().routing_paths(2));
        let r = diagnose(&p);
        assert!(r.overhead.is_infinite());
        assert!(matches!(
            r.bottleneck,
            Bottleneck::Routing | Bottleneck::Serialization | Bottleneck::Balanced
        ));
        assert!(r.movement_share > 0.0);
    }

    #[test]
    fn empty_schedule_is_balanced() {
        let c = Circuit::new(3);
        let p = compile(&c, CompilerOptions::default());
        let r = diagnose(&p);
        assert_eq!(r.bottleneck, Bottleneck::Balanced);
        assert_eq!(r.overhead, 1.0);
    }

    #[test]
    fn report_displays_all_fields() {
        let mut c = Circuit::new(2);
        c.t(0).t(1);
        let p = compile(&c, CompilerOptions::default());
        let s = diagnose(&p).to_string();
        assert!(s.contains("overhead"));
        assert!(s.contains("factories"));
        assert!(s.contains("movement"));
    }

    #[test]
    fn more_factories_reduce_factory_utilization() {
        let mut c = Circuit::new(4);
        for i in 0..16 {
            c.t(i % 4);
        }
        let u = |f: u32| {
            diagnose(&compile(&c, CompilerOptions::default().factories(f))).factory_utilization
        };
        assert!(u(4) < u(1));
    }
}
