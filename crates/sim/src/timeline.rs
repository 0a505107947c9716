//! Per-cell busy-until tracking.

use ftqc_arch::{Coord, SurgeryOp, Ticks};
use std::collections::HashMap;

/// What a [`ResourceTimeline`] keeps per cell: one instant, or a fixed
/// set of instants advanced together. The routing engine keeps one
/// [`Ticks`]; the compiler's schedule stage keeps a `[Ticks; 2]` pair, one
/// instant per duration table, so one walk over an op's cells serves both.
pub trait Clock: Copy + Default {
    /// The later of `self` and `other`, instant by instant.
    fn later(self, other: Self) -> Self;
}

impl Clock for Ticks {
    #[inline]
    fn later(self, other: Self) -> Self {
        self.max(other)
    }
}

impl Clock for [Ticks; 2] {
    #[inline]
    fn later(self, other: Self) -> Self {
        [self[0].max(other[0]), self[1].max(other[1])]
    }
}

/// Tracks, for every cell, the instant it becomes free (a [`Clock`];
/// [`Ticks`] unless stated).
///
/// Cells never touched are free from time zero. The timeline is the
/// contention model of the scheduler: two operations sharing any cell are
/// serialised, operations on disjoint cells overlap freely.
///
/// Storage is a row-major slab of busy-until clocks for a `rows × cols`
/// grid anchored at the origin, so the schedulers' per-cell probes are one
/// index each. Any other coordinate (negative, or past the grid) lives in
/// an overflow map: it times exactly like an on-grid cell and never
/// panics. A `0 × 0` timeline keeps every cell there.
///
/// # Example
///
/// ```
/// use ftqc_arch::{Coord, SurgeryOp, Ticks};
/// use ftqc_sim::ResourceTimeline;
///
/// let mut tl = ResourceTimeline::new(2, 2);
/// let mv = SurgeryOp::Move {
///     from: Coord::new(0, 0),
///     to: Coord::new(0, 1),
/// };
/// let start = tl.earliest_start(&mv, Ticks::ZERO);
/// tl.reserve(&mv, start + Ticks::from_d(2.0));
/// assert_eq!(tl.busy_until(Coord::new(0, 0)), Ticks::from_d(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceTimeline<C = Ticks> {
    rows: u32,
    cols: u32,
    /// Busy-until of the on-grid cells, row-major.
    slab: Vec<C>,
    /// Busy-until of the cells outside the slab's grid.
    overflow: HashMap<Coord, C>,
}

impl<C: Clock> ResourceTimeline<C> {
    /// An empty timeline (everything free at time zero) whose slab covers
    /// the `rows × cols` grid anchored at the origin.
    pub fn new(rows: u32, cols: u32) -> Self {
        ResourceTimeline {
            rows,
            cols,
            slab: vec![C::default(); rows as usize * cols as usize],
            overflow: HashMap::new(),
        }
    }

    /// Slab index of `cell`, `None` off the slab's grid. A negative
    /// coordinate wraps to a huge `u32` and fails the bound check.
    #[inline]
    fn slot(&self, cell: Coord) -> Option<usize> {
        let (row, col) = (cell.row as u32, cell.col as u32);
        (row < self.rows && col < self.cols)
            .then(|| row as usize * self.cols as usize + col as usize)
    }

    /// When `cell` becomes free.
    #[inline]
    pub fn busy_until(&self, cell: Coord) -> C {
        match self.slot(cell) {
            Some(i) => self.slab[i],
            None => self.overflow.get(&cell).copied().unwrap_or_default(),
        }
    }

    /// Earliest instant ≥ `not_before` at which every cell `op` occupies
    /// is free.
    pub fn earliest_start(&self, op: &SurgeryOp, not_before: C) -> C {
        let mut start = not_before;
        op.for_each_cell(|c| start = start.later(self.busy_until(c)));
        start
    }

    /// Marks every cell `op` occupies busy until `end`.
    ///
    /// Reservations are expected to be issued in non-decreasing start order
    /// per cell (the scheduler's discipline); a reservation never shortens
    /// an existing one.
    pub fn reserve(&mut self, op: &SurgeryOp, end: C) {
        op.for_each_cell(|c| {
            let busy = match self.slot(c) {
                Some(i) => &mut self.slab[i],
                None => self.overflow.entry(c).or_default(),
            };
            *busy = busy.later(end);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(from: (i32, i32), to: (i32, i32)) -> SurgeryOp {
        SurgeryOp::Move {
            from: Coord::new(from.0, from.1),
            to: Coord::new(to.0, to.1),
        }
    }

    #[test]
    fn untouched_cells_are_free() {
        let tl: ResourceTimeline = ResourceTimeline::new(3, 3);
        assert_eq!(tl.busy_until(Coord::new(1, 1)), Ticks::ZERO);
        assert_eq!(tl.busy_until(Coord::new(5, 5)), Ticks::ZERO);
    }

    #[test]
    fn earliest_start_respects_not_before() {
        let tl = ResourceTimeline::new(3, 3);
        let t = tl.earliest_start(&mv((0, 0), (0, 1)), Ticks::from_d(3.0));
        assert_eq!(t, Ticks::from_d(3.0));
    }

    #[test]
    fn reserve_serialises_overlapping_ops() {
        let mut tl = ResourceTimeline::new(6, 7);
        tl.reserve(&mv((0, 0), (0, 1)), Ticks::from_d(2.0));
        let start_b = tl.earliest_start(&mv((0, 1), (0, 2)), Ticks::ZERO);
        assert_eq!(start_b, Ticks::from_d(2.0), "shared cell (0,1) serialises");
        // Disjoint cells overlap.
        assert_eq!(
            tl.earliest_start(&mv((5, 5), (5, 6)), Ticks::ZERO),
            Ticks::ZERO
        );
    }

    #[test]
    fn reserve_never_shrinks() {
        let mut tl = ResourceTimeline::new(2, 2);
        let op = SurgeryOp::MeasureZ {
            cell: Coord::new(1, 1),
        };
        tl.reserve(&op, Ticks::from_d(5.0));
        tl.reserve(&op, Ticks::from_d(2.0));
        assert_eq!(tl.busy_until(Coord::new(1, 1)), Ticks::from_d(5.0));
    }

    #[test]
    fn off_grid_cells_time_like_on_grid_ones() {
        // The same reservations on a slab that covers every cell and on an
        // empty slab (everything in the overflow map), including negative
        // and far-away coordinates.
        let ops = [
            mv((0, 0), (0, 1)),
            mv((-1, 0), (0, 0)),
            mv((0, 1), (9, 9)),
            mv((i32::MIN, i32::MAX), (-1, 0)),
        ];
        let mut slab = ResourceTimeline::new(10, 10);
        let mut overflow = ResourceTimeline::new(0, 0);
        for (i, op) in ops.iter().enumerate() {
            let not_before = Ticks::from_d(i as f64);
            let start = slab.earliest_start(op, not_before);
            assert_eq!(overflow.earliest_start(op, not_before), start, "op {i}");
            slab.reserve(op, start + Ticks::from_d(1.5));
            overflow.reserve(op, start + Ticks::from_d(1.5));
        }
        for op in &ops {
            op.for_each_cell(|c| assert_eq!(slab.busy_until(c), overflow.busy_until(c), "{c}"));
        }
        assert_eq!(slab.busy_until(Coord::new(9, 9)), Ticks::from_d(3.5));
        assert_eq!(slab.busy_until(Coord::new(-1, 0)), Ticks::from_d(4.5));
    }

    #[test]
    fn paired_clocks_time_like_two_timelines() {
        // Each half of a `[Ticks; 2]` timeline follows its own reservations
        // exactly as a separate single-clock timeline would.
        let ops = [
            mv((0, 0), (0, 1)),
            mv((0, 1), (1, 1)),
            mv((-1, 0), (0, 0)),
            mv((2, 2), (2, 3)),
        ];
        let durations = [(2.0, 1.0), (0.5, 1.0), (3.0, 1.0), (1.0, 0.0)];
        let mut pair: ResourceTimeline<[Ticks; 2]> = ResourceTimeline::new(3, 3);
        let mut single = [ResourceTimeline::new(3, 3), ResourceTimeline::new(3, 3)];
        for (op, (a, b)) in ops.iter().zip(durations) {
            let durations = [Ticks::from_d(a), Ticks::from_d(b)];
            let start = pair.earliest_start(op, [Ticks::ZERO, Ticks::from_d(0.5)]);
            for k in 0..2 {
                let not_before = [Ticks::ZERO, Ticks::from_d(0.5)][k];
                assert_eq!(single[k].earliest_start(op, not_before), start[k]);
                single[k].reserve(op, start[k] + durations[k]);
            }
            pair.reserve(op, [start[0] + durations[0], start[1] + durations[1]]);
        }
        for op in &ops {
            op.for_each_cell(|c| {
                let [a, b] = pair.busy_until(c);
                assert_eq!((a, b), (single[0].busy_until(c), single[1].busy_until(c)));
            });
        }
    }
}
