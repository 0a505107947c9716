//! Schedule export and utilisation statistics.
//!
//! `to_csv` dumps a compiled schedule as one row per operation — the format
//! consumed by trace viewers and the regression fixtures in `tests/`.
//! [`UtilizationStats`] summarises how busy the machine is: overall cell
//! utilisation, movement share, and distillation duty cycle — diagnostics
//! behind the paper's observation that small-`r` layouts serialise on the
//! scarce bus cells.

use crate::pipeline::CompiledProgram;
use crate::routed::RoutedOp;
use ftqc_arch::{SurgeryOp, Ticks};
use ftqc_sim::Schedule;
use std::fmt::Write as _;

/// Serialises the schedule as CSV: `start_d,duration_d,kind,cells,qubits,factory,gate`.
pub fn to_csv(program: &CompiledProgram) -> String {
    let mut out = String::from("start_d,duration_d,kind,cells,qubits,factory,gate\n");
    for item in program.schedule() {
        let cells = item
            .op
            .op
            .cells()
            .iter()
            .map(|c| format!("{}:{}", c.row, c.col))
            .collect::<Vec<_>>()
            .join(";");
        let qubits = item
            .op
            .patches
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            item.start.as_d(),
            item.duration.as_d(),
            kind_name(&item.op.op),
            cells,
            qubits,
            item.op.factory.map_or(String::new(), |f| f.to_string()),
            item.op.gate.map_or(String::new(), |g| g.to_string()),
        );
    }
    out
}

/// The op's kind tag: the CSV `kind` column and the witness codec's `"k"`.
pub(crate) fn kind_name(op: &SurgeryOp) -> &'static str {
    match op {
        SurgeryOp::Move { .. } => "move",
        SurgeryOp::DeliverMagic { .. } => "deliver",
        SurgeryOp::MergeZz { .. } => "mzz",
        SurgeryOp::MergeXx { .. } => "mxx",
        SurgeryOp::Cnot { .. } => "cnot",
        SurgeryOp::Single { .. } => "single",
        SurgeryOp::ConsumeMagic { .. } => "consume",
        SurgeryOp::MeasureZ { .. } => "measure",
        SurgeryOp::PauliFrame { .. } => "frame",
    }
}

/// Machine utilisation summary for a compiled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationStats {
    /// Mean fraction of grid cells busy over the makespan, in `[0, 1]`.
    pub cell_utilization: f64,
    /// Fraction of total busy cell-time spent on movement (moves +
    /// deliveries).
    pub movement_share: f64,
    /// Busy cell-time in qubit·d (the spacetime volume actually *used*).
    pub busy_volume: f64,
    /// Number of operations per kind bucket: (movement, logical, frame).
    pub op_mix: (usize, usize, usize),
}

/// Computes utilisation statistics for a compiled program.
pub fn utilization(program: &CompiledProgram) -> UtilizationStats {
    stats_of(
        program.schedule(),
        program.layout().total_patches(),
        program.metrics().execution_time,
    )
}

fn stats_of(schedule: &Schedule<RoutedOp>, grid_patches: u32, makespan: Ticks) -> UtilizationStats {
    let mut busy_ticks = 0u64;
    let mut movement_ticks = 0u64;
    let mut movement_ops = 0usize;
    let mut frame_ops = 0usize;
    let mut logical_ops = 0usize;
    for item in schedule {
        let cell_ticks = item.duration.raw() * item.op.op.cells().len() as u64;
        busy_ticks += cell_ticks;
        if item.op.op.is_movement() {
            movement_ticks += cell_ticks;
            movement_ops += 1;
        } else if matches!(item.op.op, SurgeryOp::PauliFrame { .. }) {
            frame_ops += 1;
        } else {
            logical_ops += 1;
        }
    }
    let capacity = makespan.raw().max(1) * grid_patches.max(1) as u64;
    UtilizationStats {
        cell_utilization: busy_ticks as f64 / capacity as f64,
        movement_share: if busy_ticks == 0 {
            0.0
        } else {
            movement_ticks as f64 / busy_ticks as f64
        },
        busy_volume: busy_ticks as f64 / ftqc_arch::TICKS_PER_D as f64,
        op_mix: (movement_ops, logical_ops, frame_ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use ftqc_circuit::Circuit;

    fn program() -> CompiledProgram {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).t(1).x(2).measure(1);
        Compiler::new(CompilerOptions::default().routing_paths(4))
            .compile(&c)
            .expect("compiles")
    }

    #[test]
    fn csv_has_one_row_per_op_plus_header() {
        let p = program();
        let csv = to_csv(&p);
        assert_eq!(csv.lines().count(), p.schedule().len() + 1);
        assert!(csv.starts_with("start_d,duration_d,kind"));
        assert!(csv.contains("cnot"));
        assert!(csv.contains("consume"));
        assert!(csv.contains("frame"));
    }

    #[test]
    fn csv_cells_are_parseable() {
        let csv = to_csv(&program());
        for line in csv.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 7, "bad row: {line}");
            let start: f64 = fields[0].parse().expect("numeric start");
            assert!(start >= 0.0);
        }
    }

    #[test]
    fn utilization_in_unit_range() {
        let p = program();
        let u = utilization(&p);
        assert!(u.cell_utilization > 0.0 && u.cell_utilization <= 1.0);
        assert!(u.movement_share >= 0.0 && u.movement_share <= 1.0);
        assert!(u.busy_volume > 0.0);
        let (mv, logical, frame) = u.op_mix;
        assert_eq!(mv + logical + frame, p.schedule().len());
        assert_eq!(frame, 1); // the single X gate
    }

    #[test]
    fn movement_dominates_cnot_heavy_programs() {
        // Long-range CNOTs require movement regardless of layout; the
        // movement share must be substantial in both a packed and a roomy
        // layout (the packed one via displacement chains, the roomy one via
        // longer routes).
        let mut c = Circuit::new(9);
        for (a, b) in [(0u32, 4u32), (4, 8), (2, 6), (0, 8)] {
            c.cnot(a, b);
        }
        for r in [2u32, 8] {
            let p = Compiler::new(CompilerOptions::default().routing_paths(r))
                .compile(&c)
                .expect("compiles");
            let u = utilization(&p);
            assert!(
                u.movement_share > 0.2,
                "r={r}: movement share {:.2} unexpectedly low",
                u.movement_share
            );
        }
    }
}
