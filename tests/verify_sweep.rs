//! The schedule verifier's one-sweep cell, qubit and factory checks
//! against a naive pairwise reference, on random op sequences with valid
//! placements on a 4 × 4 grid. Starts near `u64::MAX` (every end still
//! fits) exercise the sweep's own comparisons: there a last grant plus the
//! production latency does not fit in a `u64`, and a wrapping sum would
//! accept a grant too soon.

use ftqc::arch::{CellKind, Coord, Grid, SurgeryOp, Ticks, TimingModel};
use ftqc::compiler::timer::time_schedule;
use ftqc::compiler::verify::{verify_items, VerifyError};
use ftqc::compiler::{Patches, RoutedOp};
use ftqc::sim::Schedule;
use proptest::prelude::*;

/// Qubits of the random op sequences.
const QUBITS: u32 = 4;

fn grid() -> Grid {
    Grid::filled(4, 4, CellKind::Bus)
}

/// One random op from `(kind, row, col, qubit, factory)` with `row` and
/// `col` below 3, so its cells lie on the grid and its placement is valid.
/// Every magic consumption carries its own grant, so the magic-state
/// ledger accepts every sequence. A Pauli-frame update lasts zero ticks
/// under the timer.
fn random_op((kind, row, col, q, factory): (u8, i32, i32, u32, u32)) -> RoutedOp {
    let [a, b, c] = [(0, 0), (1, 0), (1, 1)].map(|(dr, dc)| Coord::new(row + dr, col + dc));
    let op = match kind {
        0 => SurgeryOp::Move { from: a, to: b },
        1 => SurgeryOp::DeliverMagic {
            path: vec![a, b, c],
        },
        2 => SurgeryOp::Cnot {
            control: a,
            target: c,
            ancilla: b,
        },
        3 => SurgeryOp::ConsumeMagic {
            target: a,
            magic: b,
        },
        _ => SurgeryOp::PauliFrame { cell: a },
    };
    let patches = match kind {
        1 => Patches::default(),
        2 => Patches::two(q, (q + 1) % QUBITS),
        _ => Patches::one(q),
    };
    RoutedOp {
        op,
        patches,
        factory: matches!(kind, 1 | 3).then_some(factory),
        gate: None,
    }
}

/// The schedule of `ops` at `(start, duration)` times, every start moved
/// by `shift`.
fn schedule(ops: &[RoutedOp], times: &[(u64, u64)], shift: u64) -> Schedule<RoutedOp> {
    let mut schedule = Schedule::new();
    for (op, &(start, duration)) in ops.iter().zip(times) {
        schedule.push(op.clone(), Ticks(start + shift), Ticks(duration));
    }
    schedule
}

/// Whether some pair of ops `i < j` sharing a cell or a qubit (both with
/// a duration) overlaps or is listed out of start order, or some pair of
/// grants of one factory is out of start order or closer than
/// `production`.
fn naive_rejects(schedule: &Schedule<RoutedOp>, production: u64) -> bool {
    let items: Vec<_> = schedule.iter().collect();
    items.iter().enumerate().any(|(i, a)| {
        items[i + 1..].iter().any(|b| {
            let (sa, ea, sb) = (a.start.raw(), a.end().raw(), b.start.raw());
            let busy = sa < ea && sb < b.end().raw();
            let cells = a.op.op.cells();
            let shared = b.op.op.cells().iter().any(|c| cells.contains(c))
                || b.op.patches.iter().any(|q| a.op.patches.contains(q));
            let granted = a.op.factory.is_some() && a.op.factory == b.op.factory;
            // Listed in start order (`sa <= sb`), two busy intervals
            // overlap exactly when `sb < ea`.
            (busy && shared && (sb < sa || sb < ea))
                || (granted && (sb < sa || sb - sa < production))
        })
    })
}

/// Whether the sweep rejects, for a reason the reference can see.
fn sweep_rejects(result: &Result<(), VerifyError>) -> bool {
    match result {
        Ok(()) => false,
        Err(
            VerifyError::ResourceConflict { .. }
            | VerifyError::QubitOverlap { .. }
            | VerifyError::FactoryOverrun { .. },
        ) => true,
        Err(other) => panic!("valid on-grid ops fail another check: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The timer's schedules pass, as emitted and shifted to end at
    /// `u64::MAX`.
    #[test]
    fn timed_schedules_pass_the_sweep(
        specs in prop::collection::vec(
            (0u8..5, 0i32..3, 0i32..3, 0u32..QUBITS, 0u32..3),
            0usize..48,
        ),
    ) {
        let ops: Vec<RoutedOp> = specs.into_iter().map(random_op).collect();
        let timing = TimingModel::paper();
        let (timed, _) = time_schedule(ops.clone(), &grid(), QUBITS, 3, &timing, false);
        let times: Vec<(u64, u64)> =
            timed.iter().map(|it| (it.start.raw(), it.duration.raw())).collect();
        for shift in [0, u64::MAX - timed.makespan().raw()] {
            let shifted = schedule(&ops, &times, shift);
            prop_assert!(!naive_rejects(&shifted, timing.magic_production.raw()));
            prop_assert_eq!(verify_items(&shifted, &timing, &grid()), Ok(()));
        }
    }

    /// On random times, near zero or ending at `u64::MAX`, the sweep
    /// rejects exactly what the reference rejects: an overlap on a cell or
    /// a qubit, two grants of one factory closer than the production
    /// latency, or two ops on one resource listed out of start order.
    #[test]
    fn sweep_agrees_with_the_pairwise_reference(
        specs in prop::collection::vec(
            (0u8..5, 0i32..3, 0i32..3, 0u32..QUBITS, 0u32..3),
            0usize..12,
        ),
        times in prop::collection::vec((0u64..40, 0u64..8), 12usize),
        near_max in any::<bool>(),
    ) {
        let ops: Vec<RoutedOp> = specs.into_iter().map(random_op).collect();
        let times = &times[..ops.len()];
        let last_end = times.iter().map(|&(start, duration)| start + duration).max();
        let shift = if near_max { u64::MAX - last_end.unwrap_or(0) } else { 0 };
        let timing = TimingModel::paper();
        let shifted = schedule(&ops, times, shift);
        let result = verify_items(&shifted, &timing, &grid());
        let expected = naive_rejects(&shifted, timing.magic_production.raw());
        prop_assert_eq!(sweep_rejects(&result), expected, "{:?}", result);
    }

    /// Grants alone, on four disjoint corridors, in the last ticks before
    /// `u64::MAX`: only the factory check can fire.
    #[test]
    fn grants_near_u64_max_agree_with_the_reference(
        grants in prop::collection::vec((0u32..2, 2u64..48), 0usize..4),
    ) {
        let ops: Vec<RoutedOp> = (0i32..)
            .zip(&grants)
            .map(|(i, &(factory, _))| random_op((1, i / 2 * 2, i % 2 * 2, 0, factory)))
            .collect();
        let times: Vec<(u64, u64)> =
            grants.iter().map(|&(_, before_max)| (u64::MAX - before_max, 2)).collect();
        let timing = TimingModel::paper();
        let shifted = schedule(&ops, &times, 0);
        let result = verify_items(&shifted, &timing, &grid());
        let expected = naive_rejects(&shifted, timing.magic_production.raw());
        prop_assert_eq!(sweep_rejects(&result), expected, "{:?}", result);
    }
}
