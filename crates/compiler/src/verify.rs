//! Schedule verification: checks that a compiled program is physically
//! executable.
//!
//! Verified invariants:
//!
//! 1. every operation satisfies its lattice-surgery placement constraint;
//! 2. no two time-overlapping operations share a grid cell;
//! 3. operations on the same program qubit never overlap in time;
//! 4. consecutive magic grants from one factory are spaced by at least the
//!    production latency (under unbounded supply, listed in start order);
//! 5. every cell used lies on the layout grid;
//! 6. every magic-state consumption is fed: an earlier delivery ends at its
//!    magic cell (or the consumption carries the factory grant itself) —
//!    the invariant a stale or mis-invalidated cached delivery path breaks.
//!
//! [`verify_items`] checks all six in one sweep over the ops in issue order
//! (the order they appear in the schedule). Every grid cell (a flat
//! `rows × cols` array) and every program qubit keeps the end of the last
//! op with a nonzero duration issued on it, and that op's index; every
//! factory keeps the start of its last grant. An op that starts before the
//! end of the last op on one of its cells or qubits, or before its
//! factory's last grant plus the production latency, is a conflict. The
//! first violation in issue order is returned.
//!
//! The sweep therefore asks for one thing more than disjoint intervals:
//! the ops on each cell, qubit and factory must be listed in start order.
//! The timer starts every op no earlier than the end of the last op on
//! each cell, qubit and factory it uses, so every schedule it emits
//! passes. (Under unbounded magic supply the timer never waits for a
//! factory, so [`verify`] and the witness checker both check such a
//! schedule with a zero production latency: a factory's grants need only
//! be listed in start order.) Every overlap fails: ops listed in start
//! order, each starting after its predecessor ends, are pairwise disjoint.
//! Only a hand-built schedule that lists two ops on one resource out of
//! start order fails without overlapping. The sweep keeps its own arrays
//! and shares no code with the timer or its `ResourceTimeline`, so a
//! timing bug cannot certify itself.
//!
//! The compiler's own tests run this on every schedule they produce; it is
//! public so downstream users can validate programs before exporting them
//! to a control system.

use crate::pipeline::CompiledProgram;
use crate::routed::RoutedOp;
use ftqc_arch::{Coord, Grid, SurgeryOp, Ticks, TimingModel};
use ftqc_sim::Schedule;
use std::borrow::Borrow;
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// An operation violates its placement constraint.
    InvalidPlacement {
        /// Index in the schedule.
        index: usize,
        /// Constraint description.
        reason: String,
    },
    /// Two concurrent operations share a cell.
    ResourceConflict {
        /// Indices of the conflicting operations.
        first: usize,
        /// Index of the second operation.
        second: usize,
        /// The shared cell.
        cell: Coord,
    },
    /// Two operations on one qubit overlap in time.
    QubitOverlap {
        /// The program qubit.
        qubit: u32,
        /// Indices of the overlapping operations.
        first: usize,
        /// Index of the second operation.
        second: usize,
    },
    /// A factory granted states faster than it can produce them.
    FactoryOverrun {
        /// The factory index.
        factory: usize,
        /// Start times of the two grants (ticks).
        starts: (u64, u64),
    },
    /// An operation uses a cell outside the layout grid.
    OffGrid {
        /// Index in the schedule.
        index: usize,
        /// The offending cell.
        cell: Coord,
    },
    /// A magic-state consumption with no feeding delivery: no earlier
    /// `DeliverMagic` ends at its magic cell (and it carries no factory
    /// grant of its own).
    UnfedMagic {
        /// Index in the schedule.
        index: usize,
        /// The magic cell the consumption reads.
        cell: Coord,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InvalidPlacement { index, reason } => {
                write!(f, "op {index} violates placement: {reason}")
            }
            VerifyError::ResourceConflict {
                first,
                second,
                cell,
            } => {
                write!(
                    f,
                    "ops {first} and {second} both occupy {cell} concurrently"
                )
            }
            VerifyError::QubitOverlap {
                qubit,
                first,
                second,
            } => {
                write!(f, "ops {first} and {second} overlap on qubit {qubit}")
            }
            VerifyError::FactoryOverrun { factory, starts } => write!(
                f,
                "factory {factory} granted states at ticks {} and {} (< production apart)",
                starts.0, starts.1
            ),
            VerifyError::OffGrid { index, cell } => {
                write!(f, "op {index} uses off-grid cell {cell}")
            }
            VerifyError::UnfedMagic { index, cell } => {
                write!(
                    f,
                    "op {index} consumes a magic state at {cell} with no delivery ending there"
                )
            }
        }
    }
}

impl Error for VerifyError {}

/// Verifies a compiled program against the given timing model, under the
/// magic-state supply it was compiled for.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify(program: &CompiledProgram, timing: &TimingModel) -> Result<(), VerifyError> {
    let supply = supply_timing(timing, program.compile_options().target.unbounded_magic);
    verify_items(program.schedule(), &supply, program.layout().grid())
}

/// The timing model a schedule is checked under for its magic-state
/// supply: `timing` as it is, or, under unbounded supply, with no
/// production latency. The timer never waits for a factory then, so
/// invariant 4 asks only that each factory's grants be listed in start
/// order.
pub(crate) fn supply_timing(timing: &TimingModel, unbounded_magic: bool) -> TimingModel {
    let mut supply = *timing;
    if unbounded_magic {
        supply.magic_production = Ticks::ZERO;
    }
    supply
}

/// Core verification over a raw schedule on `grid` (exposed for tests of
/// custom schedules, and for the witness checker's re-timed schedule,
/// whose ops it borrows).
///
/// # Errors
///
/// Returns the first violated invariant in issue order.
pub fn verify_items<T: Borrow<RoutedOp>>(
    schedule: &Schedule<T>,
    timing: &TimingModel,
    grid: &Grid,
) -> Result<(), VerifyError> {
    let cols = grid.cols() as usize;
    // Per cell and per qubit: the end and index of the last op with a
    // duration issued on it. The zero entry is never a conflict.
    let mut cells = vec![(0u64, 0usize); grid.num_cells() as usize];
    let mut qubits: Vec<(u64, usize)> = Vec::new();
    // Per factory, the start of its last grant; per magic cell, the states
    // delivered there and not yet consumed. Both are few (one per factory
    // or outlet), so a linear scan beats indexing by a hand-built number.
    let mut grants: Vec<(u32, u64)> = Vec::new();
    let mut available: Vec<(Coord, u64)> = Vec::new();
    let production = timing.magic_production.raw();
    for (index, item) in schedule.iter().enumerate() {
        let routed: &RoutedOp = item.op.borrow();
        if let Err(reason) = routed.op.validate() {
            return Err(VerifyError::InvalidPlacement { index, reason });
        }
        let (start, end) = (item.start.raw(), item.end().raw());
        let busy = item.duration != Ticks::ZERO;

        // 5 and 2: on the grid, and free since the last op on the cell.
        let mut fault = None;
        routed.op.for_each_cell(|cell| {
            if fault.is_some() {
                return;
            }
            if !grid.in_bounds(cell) {
                fault = Some(VerifyError::OffGrid { index, cell });
            } else if busy {
                let last = &mut cells[cell.row as usize * cols + cell.col as usize];
                if start < last.0 {
                    fault = Some(VerifyError::ResourceConflict {
                        first: last.1,
                        second: index,
                        cell,
                    });
                } else {
                    *last = (end, index);
                }
            }
        });
        if let Some(fault) = fault {
            return Err(fault);
        }

        // 3: free since the last op on each qubit.
        if busy {
            for &qubit in &routed.patches {
                let q = qubit as usize;
                if q >= qubits.len() {
                    qubits.resize(q + 1, (0, 0));
                }
                if start < qubits[q].0 {
                    return Err(VerifyError::QubitOverlap {
                        qubit,
                        first: qubits[q].1,
                        second: index,
                    });
                }
                qubits[q] = (end, index);
            }
        }

        // 4: a grant no sooner than the production latency after the
        // factory's last one; a ready instant past u64::MAX never comes.
        if let Some(factory) = routed.factory {
            match grants.iter_mut().find(|(f, _)| *f == factory) {
                Some((_, last)) => {
                    if last
                        .checked_add(production)
                        .is_none_or(|ready| start < ready)
                    {
                        return Err(VerifyError::FactoryOverrun {
                            factory: factory as usize,
                            starts: (*last, start),
                        });
                    }
                    *last = start;
                }
                None => grants.push((factory, start)),
            }
        }

        // 6: each delivery makes one state available at its terminal
        // cell; each consumption without its own grant takes one from its
        // magic cell.
        match &routed.op {
            SurgeryOp::DeliverMagic { path } => {
                if let Some(&outlet) = path.last() {
                    match available.iter_mut().find(|(c, _)| *c == outlet) {
                        Some(slot) => slot.1 += 1,
                        None => available.push((outlet, 1)),
                    }
                }
            }
            SurgeryOp::ConsumeMagic { magic, .. } if routed.factory.is_none() => {
                match available.iter_mut().find(|(c, _)| c == magic) {
                    Some(slot) if slot.1 > 0 => slot.1 -= 1,
                    _ => {
                        return Err(VerifyError::UnfedMagic {
                            index,
                            cell: *magic,
                        })
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routed::Patches;
    use crate::{Compiler, CompilerOptions};
    use ftqc_arch::CellKind;
    use ftqc_circuit::Circuit;

    /// The grid the hand-built schedules below run on.
    fn open_grid() -> Grid {
        Grid::filled(8, 8, CellKind::Bus)
    }

    /// `(op, start, duration)` rows as a schedule.
    fn schedule(rows: Vec<(RoutedOp, f64, f64)>) -> Schedule<RoutedOp> {
        let mut s = Schedule::new();
        for (op, start, dur) in rows {
            s.push(op, Ticks::from_d(start), Ticks::from_d(dur));
        }
        s
    }

    fn scheduled(op: SurgeryOp, qubit: u32, start: f64, dur: f64) -> (RoutedOp, f64, f64) {
        let op = RoutedOp {
            op,
            patches: Patches::one(qubit),
            factory: None,
            gate: None,
        };
        (op, start, dur)
    }

    #[test]
    fn compiled_programs_verify() {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        c.cnot(0, 4).t(4).cnot(4, 8).measure(8);
        let p = Compiler::new(CompilerOptions::default().routing_paths(4).factories(2))
            .compile(&c)
            .expect("compiles");
        verify(&p, &TimingModel::paper()).expect("compiled schedule verifies");
    }

    #[test]
    fn detects_resource_conflict() {
        let items = schedule(vec![
            scheduled(
                SurgeryOp::Move {
                    from: Coord::new(0, 0),
                    to: Coord::new(0, 1),
                },
                0,
                0.0,
                1.0,
            ),
            scheduled(
                SurgeryOp::Move {
                    from: Coord::new(0, 1),
                    to: Coord::new(0, 2),
                },
                1,
                0.5,
                1.0,
            ),
        ]);
        let err = verify_items(&items, &TimingModel::paper(), &open_grid()).unwrap_err();
        assert!(matches!(err, VerifyError::ResourceConflict { .. }));
    }

    #[test]
    fn detects_qubit_overlap() {
        let items = schedule(vec![
            scheduled(
                SurgeryOp::MeasureZ {
                    cell: Coord::new(0, 0),
                },
                7,
                0.0,
                1.0,
            ),
            scheduled(
                SurgeryOp::MeasureZ {
                    cell: Coord::new(5, 5),
                },
                7,
                0.5,
                1.0,
            ),
        ]);
        let err = verify_items(&items, &TimingModel::paper(), &open_grid()).unwrap_err();
        assert!(matches!(err, VerifyError::QubitOverlap { qubit: 7, .. }));
    }

    #[test]
    fn detects_invalid_placement() {
        let items = schedule(vec![scheduled(
            SurgeryOp::MergeZz {
                a: Coord::new(0, 0),
                b: Coord::new(0, 1), // horizontal: illegal for M_ZZ
            },
            0,
            0.0,
            1.0,
        )]);
        let err = verify_items(&items, &TimingModel::paper(), &open_grid()).unwrap_err();
        assert!(matches!(err, VerifyError::InvalidPlacement { .. }));
    }

    #[test]
    fn detects_factory_overrun() {
        let mk = |start: f64, col: i32| {
            let op = RoutedOp {
                op: SurgeryOp::DeliverMagic {
                    path: vec![Coord::new(0, col), Coord::new(1, col)],
                },
                patches: Patches::default(),
                factory: Some(0),
                gate: None,
            };
            (op, start, 1.0)
        };
        let items = schedule(vec![mk(0.0, 0), mk(5.0, 3)]); // 5d apart < 11d
        let err = verify_items(&items, &TimingModel::paper(), &open_grid()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::FactoryOverrun { factory: 0, .. }
        ));
    }

    #[test]
    fn detects_off_grid() {
        let items = schedule(vec![scheduled(
            SurgeryOp::MeasureZ {
                cell: Coord::new(99, 99),
            },
            0,
            0.0,
            1.0,
        )]);
        let err = verify_items(&items, &TimingModel::paper(), &open_grid()).unwrap_err();
        assert!(matches!(err, VerifyError::OffGrid { .. }));
    }

    #[test]
    fn error_display() {
        let e = VerifyError::OffGrid {
            index: 3,
            cell: Coord::new(9, 9),
        };
        assert!(e.to_string().contains("off-grid"));
    }
}
