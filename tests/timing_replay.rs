//! The schedule stage's timing replay against an independent reference.
//!
//! `time_ops` and `time_schedule` share one replay that advances the
//! realistic and unit-cost clocks together over a slab timeline. This
//! suite restates the replay's rules as plainly as possible — one cost
//! table at a time, every cell's busy-until instant in a `HashMap` — and
//! checks both entry points against it on random op sequences: shared
//! cells (off-grid and negative ones too), one- and two-qubit
//! dependencies, factory grants (indices past the bank clamp to its last
//! factory) and unbounded magic supply.

use ftqc::arch::{CellKind, Coord, Grid, SingleQubitKind, SurgeryOp, Ticks, TimingModel};
use ftqc::compiler::timer::{time_ops, time_schedule, CostKind};
use ftqc::compiler::{Patches, RoutedOp};
use ftqc::sim::Schedule;
use proptest::prelude::*;
use std::collections::HashMap;

/// Qubits of the random op sequences.
const QUBITS: u32 = 4;

/// Every `(start, duration)` of a schedule, in order.
fn times(s: &Schedule<RoutedOp>) -> Vec<(Ticks, Ticks)> {
    s.iter().map(|item| (item.start, item.duration)).collect()
}

/// The reference replay: each op starts once its qubits are ready, its
/// cells are free and (unless supply is unbounded) its factory has a
/// state; a grant restarts that factory's production.
fn naive_replay(
    ops: &[RoutedOp],
    num_qubits: u32,
    num_factories: usize,
    timing: &TimingModel,
    cost: CostKind,
    unbounded_magic: bool,
) -> Vec<(Ticks, Ticks)> {
    let mut cell_free: HashMap<Coord, Ticks> = HashMap::new();
    let mut qubit_ready = vec![Ticks::ZERO; num_qubits as usize];
    let mut factory_ready = vec![timing.magic_production; num_factories.max(1)];
    let mut out = Vec::new();
    for routed in ops {
        let cells = routed.op.cells();
        let mut start = Ticks::ZERO;
        for q in routed.patches.iter() {
            start = start.max(qubit_ready[*q as usize]);
        }
        for c in &cells {
            start = start.max(cell_free.get(c).copied().unwrap_or(Ticks::ZERO));
        }
        if let (Some(f), false) = (routed.factory, unbounded_magic) {
            let f = (f as usize).min(factory_ready.len() - 1);
            start = start.max(factory_ready[f]);
            factory_ready[f] = start + timing.magic_production;
        }
        let duration = match cost {
            CostKind::Realistic => routed.op.duration(timing),
            CostKind::UnitCost => routed.op.unit_duration(timing),
        };
        let end = start + duration;
        for c in cells {
            let free = cell_free.entry(c).or_insert(Ticks::ZERO);
            *free = (*free).max(end);
        }
        for q in routed.patches.iter() {
            qubit_ready[*q as usize] = end;
        }
        out.push((start, duration));
    }
    out
}

/// One random op from `(kind, row, col, qubit, other, factory)`. Cells
/// fall on a 6 × 6 window from (-2, -2), so ops share cells, and some lie
/// off the 3 × 3 grid or at negative coordinates. Factory indices reach
/// past every bank the test docks, so some clamp.
fn random_op((kind, row, col, q, other, factory): (u8, i32, i32, u32, u32, u32)) -> RoutedOp {
    let at = |dr: i32, dc: i32| Coord::new(row + dr, col + dc);
    let (op, patches, factory) = match kind {
        0 => (
            SurgeryOp::Move {
                from: at(0, 0),
                to: at(0, 1),
            },
            Patches::one(q),
            None,
        ),
        1 => (
            SurgeryOp::DeliverMagic {
                path: vec![at(0, 0), at(1, 0), at(1, 1)],
            },
            Patches::default(),
            Some(factory),
        ),
        2 => (
            SurgeryOp::Cnot {
                control: at(0, 0),
                target: at(1, 1),
                ancilla: at(0, 1),
            },
            Patches::two(q, (q + 1 + other % (QUBITS - 1)) % QUBITS),
            None,
        ),
        3 => (
            SurgeryOp::Single {
                kind: if other % 2 == 0 {
                    SingleQubitKind::H
                } else {
                    SingleQubitKind::S
                },
                cell: at(0, 0),
                ancilla: at(1, 0),
            },
            Patches::one(q),
            None,
        ),
        // A consumption carries the grant itself when the port is the
        // delivery cell.
        4 => (
            SurgeryOp::ConsumeMagic {
                target: at(0, 0),
                magic: at(1, 0),
            },
            Patches::one(q),
            (other % 2 == 0).then_some(factory),
        ),
        5 => (
            SurgeryOp::PauliFrame { cell: at(0, 0) },
            Patches::one(q),
            None,
        ),
        _ => (
            SurgeryOp::MeasureZ { cell: at(0, 0) },
            Patches::one(q),
            None,
        ),
    };
    RoutedOp {
        op,
        patches,
        factory,
        gate: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `time_ops` under each cost table, and `time_schedule`'s pair, equal
    /// the naive one-table replay on random op sequences.
    #[test]
    fn replays_match_a_naive_reference(
        specs in prop::collection::vec(
            (0u8..7, -2i32..4, -2i32..4, 0u32..QUBITS, 0u32..8, 0u32..4),
            0usize..48,
        ),
        factories in 0usize..3,
        unbounded in any::<bool>(),
    ) {
        let ops: Vec<RoutedOp> = specs.into_iter().map(random_op).collect();
        let timing = TimingModel::paper();
        let grid = Grid::filled(3, 3, CellKind::Bus);
        let (schedule, unit_makespan) =
            time_schedule(ops.clone(), &grid, QUBITS, factories, &timing, unbounded);
        prop_assert_eq!(schedule.ops(), &ops[..]);
        for cost in [CostKind::Realistic, CostKind::UnitCost] {
            let expected = naive_replay(&ops, QUBITS, factories, &timing, cost, unbounded);
            let makespan = expected
                .iter()
                .map(|&(start, duration)| start + duration)
                .fold(Ticks::ZERO, Ticks::max);
            let timed = time_ops(&ops, QUBITS, factories, &timing, cost, unbounded);
            prop_assert_eq!(timed.ops(), &ops[..]);
            prop_assert_eq!(times(&timed), expected.clone(), "time_ops {:?}", cost);
            prop_assert_eq!(timed.makespan(), makespan);
            match cost {
                CostKind::Realistic => {
                    prop_assert_eq!(times(&schedule), expected, "time_schedule");
                    prop_assert_eq!(schedule.makespan(), makespan);
                }
                CostKind::UnitCost => prop_assert_eq!(unit_makespan, makespan),
            }
        }
    }
}
