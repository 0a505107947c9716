//! The timing stage: greedy list scheduling of a routed-op sequence against
//! per-cell resource timelines, per-qubit ready times and factory
//! production.
//!
//! A compilation times its ops under two duration tables: realistic
//! latencies (Fig 7) for the *execution time*, and 1d per operation for
//! the paper's *unit cost execution time* (Fig 8). One replay advances
//! both clocks together: every cell, qubit and factory keeps a
//! `[realistic, unit-cost]` pair of instants, so the replay walks an op's
//! cells once to find both starts and once to reserve both ends. The cell
//! clocks live in the same [`ResourceTimeline`] the routing engine uses,
//! with a paired per-cell clock. [`time_schedule`] keeps the realistic
//! half as the schedule and the unit-cost half's makespan; [`time_ops`]
//! returns either half as a schedule. Magic production keeps its real
//! latency on both clocks — the unit-cost metric isolates operation-latency
//! effects while the distillation bottleneck stays, which is exactly what
//! makes it comparable to the lower bound.

use crate::routed::RoutedOp;
use ftqc_arch::{Grid, Ticks, TimingModel};
use ftqc_sim::{Clock, ResourceTimeline, Schedule};
use std::borrow::Borrow;

/// Which duration table a replay uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Realistic per-op latencies (Fig 7).
    Realistic,
    /// 1d per operation (the unit-cost accounting of Fig 8).
    UnitCost,
}

impl CostKind {
    /// This table's half of a paired `[realistic, unit-cost]` clock.
    fn half(self) -> usize {
        match self {
            CostKind::Realistic => 0,
            CostKind::UnitCost => 1,
        }
    }
}

/// Replays `ops` in order under both duration tables at once, on
/// `timeline`'s paired cell clocks, and calls `timed` with each op's
/// `[realistic, unit-cost]` start and duration.
///
/// Each op starts at the earliest instant at which (a) every grid cell it
/// touches is free, (b) every program qubit it involves is ready, and
/// (c) — for an op carrying a factory grant — its factory has a state
/// available. The first state of every factory completes at
/// `magic_production`, and each grant restarts that factory's production
/// at the grant instant; a factory index past the last one times as the
/// last. `unbounded_magic` makes states always available (the DASCOT
/// supply assumption).
///
/// # Panics
///
/// Panics if an op names a patch at or past `num_qubits` (the witness
/// checker rejects such ops before re-timing).
fn replay<'a>(
    ops: impl IntoIterator<Item = &'a RoutedOp>,
    mut timeline: ResourceTimeline<[Ticks; 2]>,
    num_qubits: u32,
    num_factories: usize,
    timing: &TimingModel,
    unbounded_magic: bool,
    mut timed: impl FnMut([Ticks; 2], [Ticks; 2]),
) {
    let mut qubit_ready = vec![[Ticks::ZERO; 2]; num_qubits as usize];
    let mut factory_ready = vec![[timing.magic_production; 2]; num_factories.max(1)];
    let last_factory = factory_ready.len() - 1;
    for routed in ops {
        let dep_ready = routed.patches.iter().fold([Ticks::ZERO; 2], |ready, &q| {
            ready.later(qubit_ready[q as usize])
        });
        let mut start = timeline.earliest_start(&routed.op, dep_ready);

        // Any op carrying a factory grant (normally the delivery; the
        // consumption directly when the port is adjacent to the consumer)
        // waits, on each clock, for that factory's next state.
        if let Some(f) = routed.factory.filter(|_| !unbounded_magic) {
            let ready = &mut factory_ready[(f as usize).min(last_factory)];
            for (ready, start) in ready.iter_mut().zip(&mut start) {
                *start = (*ready).max(*start);
                *ready = *start + timing.magic_production;
            }
        }

        let duration = [routed.op.duration(timing), routed.op.unit_duration(timing)];
        let end = [start[0] + duration[0], start[1] + duration[1]];
        timeline.reserve(&routed.op, end);
        for &q in &routed.patches {
            qubit_ready[q as usize] = end;
        }
        timed(start, duration);
    }
}

/// The schedule stage's replay: times `ops` on `grid` with realistic
/// latencies and unit costs in one pass. The ops move, uncopied, into the
/// returned realistic [`Schedule`] (its makespan is the execution time),
/// next to one pre-sized `(start, duration)` array; the unit-cost replay
/// keeps only its makespan, the second value. `ops` may hold the routed
/// ops or borrow them (the witness check re-times a witness's ops where
/// they lie).
///
/// The pair equals a [`CostKind::Realistic`] and a [`CostKind::UnitCost`]
/// [`time_ops`] over the same ops.
///
/// # Panics
///
/// Panics if an op names a patch at or past `num_qubits`.
pub fn time_schedule<T: Borrow<RoutedOp>>(
    ops: Vec<T>,
    grid: &Grid,
    num_qubits: u32,
    num_factories: usize,
    timing: &TimingModel,
    unbounded_magic: bool,
) -> (Schedule<T>, Ticks) {
    let mut times = Vec::with_capacity(ops.len());
    let mut unit_makespan = Ticks::ZERO;
    replay(
        ops.iter().map(Borrow::borrow),
        ResourceTimeline::new(grid.rows(), grid.cols()),
        num_qubits,
        num_factories,
        timing,
        unbounded_magic,
        |[real, unit], [real_duration, unit_duration]| {
            times.push((real, real_duration));
            unit_makespan = unit_makespan.max(unit + unit_duration);
        },
    );
    (Schedule::from_parts(ops, times), unit_makespan)
}

/// Times a copy of `ops` under one duration table: the replay of
/// [`time_schedule`], returning the `cost` half as a schedule (its
/// makespan is the execution time under that table).
///
/// This entry point has no grid, so every cell times through the
/// timeline's overflow map.
///
/// # Panics
///
/// Panics if an op names a patch at or past `num_qubits`.
pub fn time_ops(
    ops: &[RoutedOp],
    num_qubits: u32,
    num_factories: usize,
    timing: &TimingModel,
    cost: CostKind,
    unbounded_magic: bool,
) -> Schedule<RoutedOp> {
    let half = cost.half();
    let mut times = Vec::with_capacity(ops.len());
    replay(
        ops,
        ResourceTimeline::new(0, 0),
        num_qubits,
        num_factories,
        timing,
        unbounded_magic,
        |start, duration| times.push((start[half], duration[half])),
    );
    Schedule::from_parts(ops.to_vec(), times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routed::Patches;
    use ftqc_arch::{CellKind, Coord, SingleQubitKind, SurgeryOp};

    fn mv(from: (i32, i32), to: (i32, i32), q: u32) -> RoutedOp {
        RoutedOp::movement(
            SurgeryOp::Move {
                from: Coord::new(from.0, from.1),
                to: Coord::new(to.0, to.1),
            },
            Some(q),
            0,
        )
    }

    fn starts(s: &Schedule<RoutedOp>) -> Vec<Ticks> {
        s.iter().map(|item| item.start).collect()
    }

    fn realistic(
        ops: &[RoutedOp],
        qubits: u32,
        factories: usize,
        unbounded: bool,
    ) -> Schedule<RoutedOp> {
        time_ops(
            ops,
            qubits,
            factories,
            &TimingModel::paper(),
            CostKind::Realistic,
            unbounded,
        )
    }

    #[test]
    fn disjoint_ops_run_in_parallel() {
        let ops = vec![mv((0, 0), (0, 1), 0), mv((5, 5), (5, 6), 1)];
        let s = realistic(&ops, 2, 1, false);
        assert_eq!(starts(&s), [Ticks::ZERO, Ticks::ZERO]);
        assert_eq!(s.makespan(), Ticks::from_d(1.0));
    }

    #[test]
    fn shared_cell_serialises() {
        let ops = vec![mv((0, 0), (0, 1), 0), mv((0, 1), (0, 2), 1)];
        let s = realistic(&ops, 2, 1, false);
        assert_eq!(starts(&s)[1], Ticks::from_d(1.0));
    }

    #[test]
    fn qubit_dependency_serialises() {
        // Same qubit moving twice through disjoint cells still serialises.
        let ops = vec![mv((0, 0), (0, 1), 0), mv((5, 5), (5, 6), 0)];
        let s = realistic(&ops, 1, 1, false);
        assert_eq!(starts(&s)[1], Ticks::from_d(1.0));
    }

    #[test]
    fn magic_delivery_waits_for_production() {
        let deliver = RoutedOp {
            op: SurgeryOp::DeliverMagic {
                path: vec![Coord::new(0, 0), Coord::new(0, 1)],
            },
            patches: Patches::default(),
            factory: Some(0),
            gate: Some(0),
        };
        let s = realistic(std::slice::from_ref(&deliver), 1, 1, false);
        assert_eq!(starts(&s), [Ticks::from_d(11.0)]);

        // Unbounded supply starts immediately.
        let s = realistic(std::slice::from_ref(&deliver), 1, 1, true);
        assert_eq!(starts(&s), [Ticks::ZERO]);
    }

    #[test]
    fn per_factory_production_pipelines() {
        let d = |f: u32, col: i32| RoutedOp {
            op: SurgeryOp::DeliverMagic {
                path: vec![Coord::new(0, col), Coord::new(1, col)],
            },
            patches: Patches::default(),
            factory: Some(f),
            gate: None,
        };
        // Two factories, four deliveries on disjoint paths.
        let ops = vec![d(0, 0), d(1, 2), d(0, 4), d(1, 6)];
        let s = realistic(&ops, 1, 2, false);
        let starts: Vec<f64> = starts(&s).iter().map(|t| t.as_d()).collect();
        assert_eq!(starts, vec![11.0, 11.0, 22.0, 22.0]);
    }

    #[test]
    fn one_pass_matches_two_replays() {
        // Shared cells, a qubit dependency, a factory grant and an op with
        // different realistic and unit-cost latencies.
        let ops = vec![
            RoutedOp {
                op: SurgeryOp::DeliverMagic {
                    path: vec![Coord::new(0, 0), Coord::new(0, 1)],
                },
                patches: Patches::default(),
                factory: Some(0),
                gate: Some(0),
            },
            mv((0, 1), (0, 2), 0),
            RoutedOp::gate_op(
                SurgeryOp::Single {
                    kind: SingleQubitKind::H,
                    cell: Coord::new(0, 2),
                    ancilla: Coord::new(1, 2),
                },
                Patches::one(0),
                1,
            ),
            mv((3, 3), (3, 4), 1),
        ];
        let grid = Grid::filled(5, 5, CellKind::Bus);
        let timing = TimingModel::paper();
        for unbounded in [false, true] {
            let real = time_ops(&ops, 2, 1, &timing, CostKind::Realistic, unbounded);
            let unit = time_ops(&ops, 2, 1, &timing, CostKind::UnitCost, unbounded);
            let (schedule, unit_makespan) =
                time_schedule(ops.clone(), &grid, 2, 1, &timing, unbounded);
            assert_eq!(schedule, real);
            assert_eq!(unit_makespan, unit.makespan());
        }
    }

    #[test]
    fn unit_cost_flattens_latencies() {
        let h = RoutedOp::gate_op(
            SurgeryOp::Single {
                kind: SingleQubitKind::H,
                cell: Coord::new(0, 0),
                ancilla: Coord::new(0, 1),
            },
            Patches::one(0),
            0,
        );
        let real = realistic(std::slice::from_ref(&h), 1, 1, false);
        let unit = time_ops(&[h], 1, 1, &TimingModel::paper(), CostKind::UnitCost, false);
        assert_eq!(real.makespan(), Ticks::from_d(3.0));
        assert_eq!(unit.makespan(), Ticks::from_d(1.0));
    }
}
