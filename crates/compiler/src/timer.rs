//! The timing stage: greedy list scheduling of a routed-op sequence against
//! per-cell resource timelines, per-qubit ready times and factory
//! production.
//!
//! A compilation times its ops under two duration tables: realistic
//! latencies (Fig 7) for the *execution time*, and 1d per operation for
//! the paper's *unit cost execution time* (Fig 8). [`time_schedule`] runs
//! both replays in one pass over the ops; only the realistic one is kept
//! as a schedule, the unit-cost one is read for its makespan. Magic
//! production keeps its real latency in both — the unit-cost metric
//! isolates operation-latency effects while the distillation bottleneck
//! stays, which is exactly what makes it comparable to the lower bound.

use crate::routed::RoutedOp;
use ftqc_arch::{Grid, Ticks, TimingModel};
use ftqc_sim::{ResourceTimeline, Schedule};
use serde::{Deserialize, Serialize};

/// Which duration table a replay uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostKind {
    /// Realistic per-op latencies (Fig 7).
    Realistic,
    /// 1d per operation (the unit-cost accounting of Fig 8).
    UnitCost,
}

/// The timing replay's complete mutable state, one op at a time.
///
/// [`time_schedule`] and [`time_ops`] drive it front to back.
#[derive(Debug, Clone)]
pub struct Timer {
    timing: TimingModel,
    cost: CostKind,
    unbounded_magic: bool,
    timeline: ResourceTimeline,
    qubit_ready: Vec<Ticks>,
    factory_ready: Vec<Ticks>,
}

impl Timer {
    /// A fresh replay state for ops on `grid` (the layout's grid, which
    /// sizes the per-cell timeline slab): every cell free, every qubit
    /// ready at 0, the first state of every factory completing at
    /// `magic_production`.
    pub fn new(
        grid: &Grid,
        num_qubits: u32,
        num_factories: usize,
        timing: &TimingModel,
        cost: CostKind,
        unbounded_magic: bool,
    ) -> Self {
        let timeline = ResourceTimeline::new(grid.rows(), grid.cols());
        Self::with_timeline(
            timeline,
            num_qubits,
            num_factories,
            timing,
            cost,
            unbounded_magic,
        )
    }

    fn with_timeline(
        timeline: ResourceTimeline,
        num_qubits: u32,
        num_factories: usize,
        timing: &TimingModel,
        cost: CostKind,
        unbounded_magic: bool,
    ) -> Self {
        Timer {
            timing: *timing,
            cost,
            unbounded_magic,
            timeline,
            qubit_ready: vec![Ticks::ZERO; num_qubits as usize],
            factory_ready: vec![timing.magic_production; num_factories.max(1)],
        }
    }

    /// Times the next op, advancing the replay state; returns its assigned
    /// `(start, duration)`.
    ///
    /// # Panics
    ///
    /// Panics if the op names a patch at or past the timer's qubit count
    /// (the witness checker rejects such ops before re-timing).
    pub fn push(&mut self, routed: &RoutedOp) -> (Ticks, Ticks) {
        let dep_ready = routed
            .patches
            .iter()
            .map(|&q| self.qubit_ready[q as usize])
            .fold(Ticks::ZERO, Ticks::max);
        let mut start = self.timeline.earliest_start(&routed.op, dep_ready);

        // Any op carrying a factory grant (normally the delivery; the
        // consumption directly when the port is adjacent to the consumer)
        // waits for that factory's next state.
        if let Some(f) = routed.factory {
            let f = f.min(self.factory_ready.len() - 1);
            if !self.unbounded_magic {
                let available = self.factory_ready[f].max(start);
                self.factory_ready[f] = available + self.timing.magic_production;
                start = available;
            }
        }

        let duration = match self.cost {
            CostKind::Realistic => routed.op.duration(&self.timing),
            CostKind::UnitCost => routed.op.unit_duration(&self.timing),
        };
        self.timeline.reserve(&routed.op, start, duration);
        for &q in &routed.patches {
            self.qubit_ready[q as usize] = start + duration;
        }
        (start, duration)
    }
}

/// The schedule stage's replay: times `ops` on `grid` with realistic
/// latencies and, in the same pass, with unit costs. Each op moves into
/// the returned realistic [`Schedule`] (its makespan is the execution
/// time); the unit-cost replay keeps only its makespan, the second value.
///
/// Both replays follow [`time_ops`]'s rules, so the pair equals a
/// [`CostKind::Realistic`] and a [`CostKind::UnitCost`] `time_ops` over
/// the same ops.
pub fn time_schedule(
    ops: impl IntoIterator<Item = RoutedOp>,
    grid: &Grid,
    num_qubits: u32,
    num_factories: usize,
    timing: &TimingModel,
    unbounded_magic: bool,
) -> (Schedule<RoutedOp>, Ticks) {
    let timer = |cost| {
        Timer::new(
            grid,
            num_qubits,
            num_factories,
            timing,
            cost,
            unbounded_magic,
        )
    };
    let (mut realistic, mut unit) = (timer(CostKind::Realistic), timer(CostKind::UnitCost));
    let mut schedule = Schedule::new();
    let mut unit_makespan = Ticks::ZERO;
    for routed in ops {
        let (start, duration) = unit.push(&routed);
        unit_makespan = unit_makespan.max(start + duration);
        let (start, duration) = realistic.push(&routed);
        schedule.push(routed, start, duration);
    }
    (schedule, unit_makespan)
}

/// Replays `ops` in order, assigning each operation the earliest start at
/// which (a) every grid cell it touches is free, (b) every program qubit it
/// involves is ready, and (c) — for magic deliveries — its factory has a
/// state available.
///
/// Factory production is modelled per factory index recorded in the ops:
/// the first state of a factory completes at `production`, and each grant
/// restarts production at the grant instant. `unbounded_magic` makes states
/// always available (the DASCOT supply assumption).
///
/// Returns the timed schedule; its makespan is the execution time. The
/// compiler's schedule stage uses [`time_schedule`], which sizes its
/// timeline slab from the layout's grid; this entry point has no grid, so
/// every cell times through the timeline's overflow map.
pub fn time_ops(
    ops: &[RoutedOp],
    num_qubits: u32,
    num_factories: usize,
    timing: &TimingModel,
    cost: CostKind,
    unbounded_magic: bool,
) -> Schedule<RoutedOp> {
    let mut timer = Timer::with_timeline(
        ResourceTimeline::new(0, 0),
        num_qubits,
        num_factories,
        timing,
        cost,
        unbounded_magic,
    );
    let mut schedule = Schedule::new();
    for routed in ops {
        let (start, duration) = timer.push(routed);
        schedule.push(routed.clone(), start, duration);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::{CellKind, Coord, SurgeryOp};

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

    #[test]
    fn disjoint_ops_run_in_parallel() {
        let ops = vec![mv((0, 0), (0, 1), 0), mv((5, 5), (5, 6), 1)];
        let s = time_ops(
            &ops,
            2,
            1,
            &TimingModel::paper(),
            CostKind::Realistic,
            false,
        );
        assert_eq!(s.items()[0].start, Ticks::ZERO);
        assert_eq!(s.items()[1].start, Ticks::ZERO);
        assert_eq!(s.makespan(), Ticks::from_d(1.0));
    }

    #[test]
    fn shared_cell_serialises() {
        let ops = vec![mv((0, 0), (0, 1), 0), mv((0, 1), (0, 2), 1)];
        let s = time_ops(
            &ops,
            2,
            1,
            &TimingModel::paper(),
            CostKind::Realistic,
            false,
        );
        assert_eq!(s.items()[1].start, Ticks::from_d(1.0));
    }

    #[test]
    fn qubit_dependency_serialises() {
        // Same qubit moving twice through disjoint cells still serialises.
        let ops = vec![mv((0, 0), (0, 1), 0), mv((5, 5), (5, 6), 0)];
        let s = time_ops(
            &ops,
            1,
            1,
            &TimingModel::paper(),
            CostKind::Realistic,
            false,
        );
        assert_eq!(s.items()[1].start, Ticks::from_d(1.0));
    }

    #[test]
    fn magic_delivery_waits_for_production() {
        let deliver = RoutedOp {
            op: SurgeryOp::DeliverMagic {
                path: vec![Coord::new(0, 0), Coord::new(0, 1)],
            },
            patches: vec![],
            factory: Some(0),
            gate: Some(0),
        };
        let s = time_ops(
            std::slice::from_ref(&deliver),
            1,
            1,
            &TimingModel::paper(),
            CostKind::Realistic,
            false,
        );
        assert_eq!(s.items()[0].start, Ticks::from_d(11.0));

        // Unbounded supply starts immediately.
        let s = time_ops(
            std::slice::from_ref(&deliver),
            1,
            1,
            &TimingModel::paper(),
            CostKind::Realistic,
            true,
        );
        assert_eq!(s.items()[0].start, Ticks::ZERO);
    }

    #[test]
    fn per_factory_production_pipelines() {
        let d = |f: usize, col: i32| RoutedOp {
            op: SurgeryOp::DeliverMagic {
                path: vec![Coord::new(0, col), Coord::new(1, col)],
            },
            patches: vec![],
            factory: Some(f),
            gate: None,
        };
        // Two factories, four deliveries on disjoint paths.
        let ops = vec![d(0, 0), d(1, 2), d(0, 4), d(1, 6)];
        let s = time_ops(
            &ops,
            1,
            2,
            &TimingModel::paper(),
            CostKind::Realistic,
            false,
        );
        let starts: Vec<f64> = s.items().iter().map(|x| x.start.as_d()).collect();
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
                patches: vec![],
                factory: Some(0),
                gate: Some(0),
            },
            mv((0, 1), (0, 2), 0),
            RoutedOp::gate_op(
                SurgeryOp::Single {
                    kind: ftqc_arch::SingleQubitKind::H,
                    cell: Coord::new(0, 2),
                    ancilla: Coord::new(1, 2),
                },
                vec![0],
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
                kind: ftqc_arch::SingleQubitKind::H,
                cell: Coord::new(0, 0),
                ancilla: Coord::new(0, 1),
            },
            vec![0],
            0,
        );
        let real = time_ops(
            std::slice::from_ref(&h),
            1,
            1,
            &TimingModel::paper(),
            CostKind::Realistic,
            false,
        );
        let unit = time_ops(&[h], 1, 1, &TimingModel::paper(), CostKind::UnitCost, false);
        assert_eq!(real.makespan(), Ticks::from_d(3.0));
        assert_eq!(unit.makespan(), Ticks::from_d(1.0));
    }
}
