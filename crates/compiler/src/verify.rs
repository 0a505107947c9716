//! Schedule verification: checks that a compiled program is physically
//! executable.
//!
//! Verified invariants:
//!
//! 1. every operation satisfies its lattice-surgery placement constraint;
//! 2. no two time-overlapping operations share a grid cell;
//! 3. operations on the same program qubit never overlap in time;
//! 4. consecutive magic grants from one factory are spaced by at least the
//!    production latency;
//! 5. every cell used lies on the layout grid;
//! 6. every magic-state consumption is fed: an earlier delivery ends at its
//!    magic cell (or the consumption carries the factory grant itself) —
//!    the invariant a stale or mis-invalidated cached delivery path breaks.
//!
//! The compiler's own tests run this on every schedule they produce; it is
//! public so downstream users can validate programs before exporting them
//! to a control system.

use crate::pipeline::CompiledProgram;
use crate::routed::RoutedOp;
use ftqc_arch::{Coord, Ticks, TimingModel};
use ftqc_sim::Schedule;
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

/// Verifies a compiled program against the given timing model.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify(program: &CompiledProgram, timing: &TimingModel) -> Result<(), VerifyError> {
    verify_items(program.schedule(), timing, |c| {
        program.layout().grid().in_bounds(c)
    })
}

/// Core verification over a raw schedule (exposed for tests of custom
/// schedules, and for the witness checker's re-timed schedule).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_items(
    schedule: &Schedule<RoutedOp>,
    timing: &TimingModel,
    in_bounds: impl Fn(Coord) -> bool,
) -> Result<(), VerifyError> {
    // One pass handles invariants 1 & 5 and collects the interval lists
    // for 2 & 3. Intervals are bucketed by counting sort over the (dense,
    // bounded) cell and qubit key spaces rather than hashed or
    // comparison-sorted, both of which measurably dominated the check.
    let mut cell_intervals: Vec<(Coord, u64, u64, usize)> = Vec::new();
    let mut qubit_intervals: Vec<(usize, u64, u64, usize)> = Vec::new();
    let (mut max_row, mut max_col, mut max_qubit) = (0usize, 0usize, 0usize);
    for (i, item) in schedule.iter().enumerate() {
        if let Err(reason) = item.op.op.validate() {
            return Err(VerifyError::InvalidPlacement { index: i, reason });
        }
        let mut off_grid = None;
        item.op.op.for_each_cell(|c| {
            if off_grid.is_none() && !in_bounds(c) {
                off_grid = Some(c);
            }
        });
        if let Some(cell) = off_grid {
            return Err(VerifyError::OffGrid { index: i, cell });
        }
        if item.duration == Ticks::ZERO {
            continue;
        }
        let (start, end) = (item.start.raw(), item.end().raw());
        // In-bounds cells have non-negative coordinates (invariant 5 just
        // checked them), so they flatten onto row-major counting-sort keys
        // once the grid extent is known.
        item.op.op.for_each_cell(|c| {
            max_row = max_row.max(c.row as usize);
            max_col = max_col.max(c.col as usize);
            cell_intervals.push((c, start, end, i));
        });
        for &q in &item.op.patches {
            max_qubit = max_qubit.max(q as usize);
            qubit_intervals.push((q as usize, start, end, i));
        }
    }

    // 2: resource conflicts — per-cell buckets swept in start order.
    let width = max_col + 1;
    let keyed: Vec<(usize, u64, u64, usize)> = cell_intervals
        .iter()
        .map(|&(c, s, e, i)| (c.row as usize * width + c.col as usize, s, e, i))
        .collect();
    if let Some((key, first, second)) = bucket_overlap(&keyed, (max_row + 1) * width) {
        return Err(VerifyError::ResourceConflict {
            first,
            second,
            cell: Coord::new((key / width) as i32, (key % width) as i32),
        });
    }

    // 3: per-qubit ordering.
    if let Some((qubit, first, second)) = bucket_overlap(&qubit_intervals, max_qubit + 1) {
        return Err(VerifyError::QubitOverlap {
            qubit: qubit as u32,
            first,
            second,
        });
    }

    // 6: magic delivery discipline, in issue order. Each delivery makes one
    // state available at its terminal cell; each consumption without its
    // own factory grant takes one from its magic cell. Distinct magic cells
    // are few (one per factory outlet), so a linear scan beats hashing.
    let mut available: Vec<(Coord, u64)> = Vec::new();
    for (i, item) in schedule.iter().enumerate() {
        match &item.op.op {
            ftqc_arch::SurgeryOp::DeliverMagic { path } => {
                if let Some(&end) = path.last() {
                    match available.iter_mut().find(|(c, _)| *c == end) {
                        Some(slot) => slot.1 += 1,
                        None => available.push((end, 1)),
                    }
                }
            }
            ftqc_arch::SurgeryOp::ConsumeMagic { magic, .. } if item.op.factory.is_none() => {
                match available.iter_mut().find(|(c, _)| c == magic) {
                    Some(slot) if slot.1 > 0 => slot.1 -= 1,
                    _ => {
                        return Err(VerifyError::UnfedMagic {
                            index: i,
                            cell: *magic,
                        })
                    }
                }
            }
            _ => {}
        }
    }

    // 4: factory production spacing.
    let mut grants: Vec<(usize, u64)> = Vec::new();
    for item in schedule {
        if let Some(f) = item.op.factory {
            grants.push((f as usize, item.start.raw()));
        }
    }
    grants.sort_unstable();
    for w in grants.windows(2) {
        if w[0].0 == w[1].0 && w[1].1 - w[0].1 < timing.magic_production.raw() {
            return Err(VerifyError::FactoryOverrun {
                factory: w[0].0,
                starts: (w[0].1, w[1].1),
            });
        }
    }

    Ok(())
}

/// Buckets `(key, start, end, op-index)` intervals by key with a counting
/// sort over `0..n_keys`, orders each bucket by start (near-sorted already
/// — schedules are emitted in time order — so the per-bucket sorts are
/// effectively linear), and returns the first time-overlapping pair found
/// as `(key, first-op, second-op)`.
fn bucket_overlap(
    intervals: &[(usize, u64, u64, usize)],
    n_keys: usize,
) -> Option<(usize, usize, usize)> {
    let mut heads = vec![0usize; n_keys + 1];
    for &(k, ..) in intervals {
        heads[k + 1] += 1;
    }
    for k in 0..n_keys {
        heads[k + 1] += heads[k];
    }
    let mut slots = vec![(0u64, 0u64, 0usize); intervals.len()];
    let mut next = heads.clone();
    for &(k, s, e, i) in intervals {
        slots[next[k]] = (s, e, i);
        next[k] += 1;
    }
    for k in 0..n_keys {
        let bucket = &mut slots[heads[k]..heads[k + 1]];
        bucket.sort_unstable();
        for w in bucket.windows(2) {
            if w[1].0 < w[0].1 {
                return Some((k, w[0].2, w[1].2));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routed::Patches;
    use crate::{Compiler, CompilerOptions};
    use ftqc_arch::SurgeryOp;
    use ftqc_circuit::Circuit;

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
        let err = verify_items(&items, &TimingModel::paper(), |_| true).unwrap_err();
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
        let err = verify_items(&items, &TimingModel::paper(), |_| true).unwrap_err();
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
        let err = verify_items(&items, &TimingModel::paper(), |_| true).unwrap_err();
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
        let err = verify_items(&items, &TimingModel::paper(), |_| true).unwrap_err();
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
        let err =
            verify_items(&items, &TimingModel::paper(), |c| c.row < 10 && c.col < 10).unwrap_err();
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
