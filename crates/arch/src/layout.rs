//! The routing-path-parameterised layout family of paper Fig 3.
//!
//! A layout hosts an `L×L` block of data qubits (`L = ⌈√n⌉`) and `r` full
//! rows/columns of bus qubits. Bus lines are added in a fixed order: top
//! edge, left edge, bottom edge, right edge, then interior columns and rows
//! alternately (interior positions chosen middle-out so the data block is
//! split evenly). The legal range is `r ∈ [2, 2L+2]`.
//!
//! Reference points from the paper (§VII.C, 10×10 data): `r=2` → 11×11 =
//! 121 cells, `r=4` → 12×12 = 144, `r=6` → 13×13 = 169, `r=22` → 21×21.

use crate::grid::{CellKind, Coord, Grid};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error constructing a [`Layout`].
///
/// Every routing-path message quotes the legal range `2..=2L+2` for the
/// data block at hand, so a caller sweeping `r` can see the bound without
/// recomputing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The layout needs at least one data qubit.
    NoDataQubits,
    /// Fewer than 2 routing paths cannot host lattice surgery operations.
    TooFewRoutingPaths {
        /// The requested number of routing paths.
        requested: u32,
        /// The maximum for this data block (`2L+2`).
        max: u32,
    },
    /// More than `2L+2` bus lines do not fit the `L×L` data block.
    TooManyRoutingPaths {
        /// The requested number of routing paths.
        requested: u32,
        /// The maximum for this data block (`2L+2`).
        max: u32,
    },
    /// An explicit bus-line gap position lies outside the data block.
    BusLineOutOfRange {
        /// The offending gap position.
        line: i32,
        /// The largest legal gap (`L-1`; the smallest is always `-1`).
        max: i32,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NoDataQubits => write!(f, "layout requires at least one data qubit"),
            LayoutError::TooFewRoutingPaths { requested, max } => {
                write!(
                    f,
                    "routing paths must be in 2..={max} for this data block (got {requested})"
                )
            }
            LayoutError::TooManyRoutingPaths { requested, max } => {
                write!(
                    f,
                    "routing paths must be in 2..={max} for this data block (got {requested})"
                )
            }
            LayoutError::BusLineOutOfRange { line, max } => {
                write!(
                    f,
                    "bus line gap {line} is outside the data block (legal gaps are -1..={max})"
                )
            }
        }
    }
}

impl Error for LayoutError {}

/// A gap position where a bus line can be inserted: `-1` is before data
/// line 0 (top/left edge), `k ∈ [0, L-1)` is between data lines `k` and
/// `k+1`, and `L-1` is after the last data line (bottom/right edge).
type Gap = i32;

/// A concrete qubit layout: grid geometry plus the home cell of every data
/// slot.
///
/// # Example
///
/// ```
/// use ftqc_arch::{CellKind, Layout};
///
/// let layout = Layout::with_routing_paths(16, 4);
/// // 4x4 data block ringed by four bus edges: 6x6 grid.
/// assert_eq!(layout.grid().rows(), 6);
/// assert_eq!(layout.grid().cols(), 6);
/// assert_eq!(layout.grid().count_kind(CellKind::Data), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    grid: Grid,
    data_cells: Vec<Coord>,
    routing_paths: u32,
    data_side: u32,
}

impl Layout {
    /// Builds a layout for `n_data` qubits and `r` routing paths.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are invalid; see
    /// [`Layout::try_with_routing_paths`] for the fallible form.
    pub fn with_routing_paths(n_data: u32, r: u32) -> Self {
        Self::try_with_routing_paths(n_data, r).expect("invalid layout parameters")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] when `n_data == 0`, `r < 2`, or `r > 2L+2`.
    pub fn try_with_routing_paths(n_data: u32, r: u32) -> Result<Self, LayoutError> {
        if n_data == 0 {
            return Err(LayoutError::NoDataQubits);
        }
        let side = (n_data as f64).sqrt().ceil() as u32;
        let max_r = Self::max_routing_paths_for_side(side);
        if r < 2 {
            return Err(LayoutError::TooFewRoutingPaths {
                requested: r,
                max: max_r,
            });
        }
        if r > max_r {
            return Err(LayoutError::TooManyRoutingPaths {
                requested: r,
                max: max_r,
            });
        }

        let (row_gaps, col_gaps) = bus_line_plan(side, r);
        Ok(Self::assemble(side, n_data, &row_gaps, &col_gaps, r))
    }

    /// Builds a layout from an explicit bus mask: the exact gap positions
    /// of every bus row and column (`-1` = before data line 0, `k ∈
    /// [0, L-1]` = after data line `k`). Duplicate gaps collapse; the
    /// resulting line count is the layout's `routing_paths()`.
    ///
    /// This is the constructor behind `BusSpec::Explicit` targets —
    /// irregular machines (one-sided buses, heavy-hex-style provisioning)
    /// that the middle-out family of [`Layout::try_with_routing_paths`]
    /// cannot describe.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NoDataQubits`] for an empty register,
    /// [`LayoutError::BusLineOutOfRange`] for a gap outside `-1..=L-1`,
    /// and [`LayoutError::TooFewRoutingPaths`] when fewer than 2 distinct
    /// lines are given (lattice surgery needs bus on two sides).
    pub fn try_with_bus_lines(
        n_data: u32,
        row_gaps: &[i32],
        col_gaps: &[i32],
    ) -> Result<Self, LayoutError> {
        if n_data == 0 {
            return Err(LayoutError::NoDataQubits);
        }
        let side = (n_data as f64).sqrt().ceil() as u32;
        let max_gap = side as i32 - 1;
        let mut rows: Vec<Gap> = Vec::with_capacity(row_gaps.len());
        let mut cols: Vec<Gap> = Vec::with_capacity(col_gaps.len());
        for (gaps, out) in [(row_gaps, &mut rows), (col_gaps, &mut cols)] {
            for &g in gaps {
                if !(-1..=max_gap).contains(&g) {
                    return Err(LayoutError::BusLineOutOfRange {
                        line: g,
                        max: max_gap,
                    });
                }
                out.push(g);
            }
            out.sort_unstable();
            out.dedup();
        }
        let r = (rows.len() + cols.len()) as u32;
        if r < 2 {
            return Err(LayoutError::TooFewRoutingPaths {
                requested: r,
                max: Self::max_routing_paths_for_side(side),
            });
        }
        Ok(Self::assemble(side, n_data, &rows, &cols, r))
    }

    /// Materialises the grid from sorted, deduplicated gap lists — the
    /// shared back half of both constructors.
    fn assemble(side: u32, n_data: u32, row_gaps: &[Gap], col_gaps: &[Gap], r: u32) -> Self {
        let rows = side + row_gaps.len() as u32;
        let cols = side + col_gaps.len() as u32;
        let mut grid = Grid::filled(rows, cols, CellKind::Bus);

        // grid index of data line `i` = i + number of gaps strictly before it.
        let grid_row = |i: u32| -> i32 {
            i as i32 + row_gaps.iter().filter(|&&g| g < i as Gap).count() as i32
        };
        let grid_col = |j: u32| -> i32 {
            j as i32 + col_gaps.iter().filter(|&&g| g < j as Gap).count() as i32
        };

        let mut data_cells = Vec::with_capacity(n_data as usize);
        for i in 0..n_data {
            let (dr, dc) = (i / side, i % side);
            let c = Coord::new(grid_row(dr), grid_col(dc));
            grid.set_kind(c, CellKind::Data);
            data_cells.push(c);
        }

        Self {
            grid,
            data_cells,
            routing_paths: r,
            data_side: side,
        }
    }

    /// The maximum routing paths (`2L+2`) for `n_data` data qubits.
    pub fn max_routing_paths(n_data: u32) -> u32 {
        let side = (n_data.max(1) as f64).sqrt().ceil() as u32;
        Self::max_routing_paths_for_side(side)
    }

    fn max_routing_paths_for_side(side: u32) -> u32 {
        2 * side + 2
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Home cell of each data slot (slot `i` hosts program qubit `i` under
    /// the identity mapping; `ftqc-compiler` may permute this).
    pub fn data_cells(&self) -> &[Coord] {
        &self.data_cells
    }

    /// Number of routing paths `r`.
    pub fn routing_paths(&self) -> u32 {
        self.routing_paths
    }

    /// Side length `L` of the data block.
    pub fn data_side(&self) -> u32 {
        self.data_side
    }

    /// Total logical patches on the grid (excludes factory tiles).
    pub fn total_patches(&self) -> u32 {
        self.grid.num_cells()
    }

    /// Number of bus (ancilla/routing) cells.
    pub fn bus_patches(&self) -> u32 {
        self.grid.count_kind(CellKind::Bus)
    }

    /// Data-to-ancilla ratio (`data / bus`), the resource-efficiency figure
    /// the paper quotes (≈2:1 at r=3..4 versus 1:2–1:3 in prior work).
    pub fn data_to_ancilla_ratio(&self) -> f64 {
        self.data_cells.len() as f64 / self.bus_patches().max(1) as f64
    }

    /// Bus cells on the grid boundary, in clockwise order — the docking
    /// sites for magic-state factory output ports.
    pub fn boundary_bus_cells(&self) -> Vec<Coord> {
        self.grid
            .boundary()
            .into_iter()
            .filter(|&c| self.grid.kind(c) == CellKind::Bus)
            .collect()
    }
}

/// Chooses which bus lines (`row_gaps`, `col_gaps`) implement `r` routing
/// paths. Insertion order: top, left, bottom, right, then interior columns
/// and rows alternately, middle-out.
fn bus_line_plan(side: u32, r: u32) -> (Vec<Gap>, Vec<Gap>) {
    let mut order: Vec<(bool, Gap)> = vec![
        (true, -1),               // top edge
        (false, -1),              // left edge
        (true, side as Gap - 1),  // bottom edge
        (false, side as Gap - 1), // right edge
    ];
    let interior = middle_out_order(side.saturating_sub(1));
    for &g in &interior {
        order.push((false, g)); // interior column
        order.push((true, g)); // interior row
    }
    let mut row_gaps = Vec::new();
    let mut col_gaps = Vec::new();
    for &(is_row, gap) in order.iter().take(r as usize) {
        if is_row {
            row_gaps.push(gap);
        } else {
            col_gaps.push(gap);
        }
    }
    row_gaps.sort_unstable();
    col_gaps.sort_unstable();
    (row_gaps, col_gaps)
}

/// Breadth-first bisection order of `0..m`: the middle gap first, then the
/// middles of the halves, and so on. Splits the data block evenly at every
/// routing-path count.
fn middle_out_order(m: u32) -> Vec<Gap> {
    let mut out = Vec::with_capacity(m as usize);
    if m == 0 {
        return out;
    }
    let mut queue: VecDeque<(i64, i64)> = VecDeque::new();
    queue.push_back((0, m as i64 - 1));
    while let Some((lo, hi)) = queue.pop_front() {
        if lo > hi {
            continue;
        }
        let mid = (lo + hi) / 2;
        out.push(mid as Gap);
        queue.push_back((lo, mid - 1));
        queue.push_back((mid + 1, hi));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_sizes_10x10() {
        // §VII.C quotes 144–169 qubits for r = 4..6 on 10x10.
        assert_eq!(Layout::with_routing_paths(100, 2).total_patches(), 121);
        assert_eq!(Layout::with_routing_paths(100, 3).total_patches(), 132);
        assert_eq!(Layout::with_routing_paths(100, 4).total_patches(), 144);
        assert_eq!(Layout::with_routing_paths(100, 5).total_patches(), 156);
        assert_eq!(Layout::with_routing_paths(100, 6).total_patches(), 169);
        assert_eq!(Layout::with_routing_paths(100, 22).total_patches(), 441);
    }

    #[test]
    fn max_routing_paths_is_2l_plus_2() {
        assert_eq!(Layout::max_routing_paths(100), 22);
        assert_eq!(Layout::max_routing_paths(16), 10);
        assert_eq!(Layout::max_routing_paths(4), 6);
        assert_eq!(Layout::max_routing_paths(1), 4);
    }

    #[test]
    fn data_to_ancilla_ratio_matches_paper_claims() {
        // r=3 on 10x10: ~3:1 data to ancilla; r=4: ~2.3:1.
        let r3 = Layout::with_routing_paths(100, 3);
        assert!((r3.data_to_ancilla_ratio() - 100.0 / 32.0).abs() < 1e-9);
        let r4 = Layout::with_routing_paths(100, 4);
        assert!(r4.data_to_ancilla_ratio() > 2.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert_eq!(
            Layout::try_with_routing_paths(0, 4).unwrap_err(),
            LayoutError::NoDataQubits
        );
        assert_eq!(
            Layout::try_with_routing_paths(16, 1).unwrap_err(),
            LayoutError::TooFewRoutingPaths {
                requested: 1,
                max: 10
            }
        );
        assert_eq!(
            Layout::try_with_routing_paths(16, 11).unwrap_err(),
            LayoutError::TooManyRoutingPaths {
                requested: 11,
                max: 10
            }
        );
    }

    #[test]
    fn error_messages_quote_the_legal_range() {
        // Every routing-path error names the 2..=2L+2 bound.
        let few = Layout::try_with_routing_paths(16, 1).unwrap_err();
        assert!(few.to_string().contains("2..=10"), "got {few}");
        let many = Layout::try_with_routing_paths(16, 11).unwrap_err();
        assert!(many.to_string().contains("2..=10"), "got {many}");
        let oob = Layout::try_with_bus_lines(16, &[7], &[-1]).unwrap_err();
        assert_eq!(oob, LayoutError::BusLineOutOfRange { line: 7, max: 3 });
        assert!(oob.to_string().contains("-1..=3"), "got {oob}");
    }

    #[test]
    fn explicit_bus_lines_match_the_family() {
        // The r=4 family rings the block: the same gaps given explicitly
        // must reproduce the grid exactly.
        let family = Layout::with_routing_paths(16, 4);
        let explicit = Layout::try_with_bus_lines(16, &[-1, 3], &[-1, 3]).unwrap();
        assert_eq!(explicit, family);
    }

    #[test]
    fn explicit_bus_lines_irregular_masks() {
        // A one-sided machine: buses only above and left of the block.
        let l = Layout::try_with_bus_lines(16, &[-1], &[-1, 1]).unwrap();
        assert_eq!(l.routing_paths(), 3);
        assert_eq!(l.grid().rows(), 5);
        assert_eq!(l.grid().cols(), 6);
        assert_eq!(l.grid().count_kind(CellKind::Data), 16);
        // Duplicates collapse rather than double-counting.
        let d = Layout::try_with_bus_lines(16, &[-1, -1], &[-1, 1, 1]).unwrap();
        assert_eq!(d.routing_paths(), 3);
        assert_eq!(d.grid().rows(), 5);
        // Too few distinct lines is rejected with the range in the error.
        let err = Layout::try_with_bus_lines(16, &[-1, -1], &[]).unwrap_err();
        assert_eq!(
            err,
            LayoutError::TooFewRoutingPaths {
                requested: 1,
                max: 10
            }
        );
        assert_eq!(
            Layout::try_with_bus_lines(0, &[-1], &[-1]).unwrap_err(),
            LayoutError::NoDataQubits
        );
    }

    #[test]
    fn r2_places_top_and_left_edges() {
        let l = Layout::with_routing_paths(16, 2);
        // 5x5 grid: bus row 0 and bus column 0, data at rows/cols 1..5.
        assert_eq!(l.grid().rows(), 5);
        assert_eq!(l.grid().cols(), 5);
        assert_eq!(l.grid().kind(Coord::new(0, 0)), CellKind::Bus);
        assert_eq!(l.grid().kind(Coord::new(1, 1)), CellKind::Data);
        assert_eq!(l.data_cells()[0], Coord::new(1, 1));
    }

    #[test]
    fn r4_rings_the_block() {
        let l = Layout::with_routing_paths(16, 4);
        let g = l.grid();
        for c in g.boundary() {
            assert_eq!(g.kind(c), CellKind::Bus, "boundary cell {c} must be bus");
        }
        assert_eq!(g.count_kind(CellKind::Data), 16);
    }

    #[test]
    fn interior_lines_split_middle_out() {
        // r=6 on 4x4: edges + 1 interior column + 1 interior row through the
        // middle of the block.
        let l = Layout::with_routing_paths(16, 6);
        let g = l.grid();
        assert_eq!(g.rows(), 7);
        assert_eq!(g.cols(), 7);
        // Middle column (grid col 3) and middle row (grid row 3) are all bus.
        for i in 0..7 {
            assert_eq!(g.kind(Coord::new(i, 3)), CellKind::Bus);
            assert_eq!(g.kind(Coord::new(3, i)), CellKind::Bus);
        }
    }

    #[test]
    fn full_routing_paths_isolate_every_data_cell() {
        let l = Layout::with_routing_paths(16, 10);
        let g = l.grid();
        assert_eq!(g.rows(), 9);
        assert_eq!(g.cols(), 9);
        // Every data cell is surrounded by bus on all four sides.
        for &dc in l.data_cells() {
            for n in g.neighbours_in(dc) {
                assert_eq!(g.kind(n), CellKind::Bus);
            }
        }
    }

    #[test]
    fn non_square_counts_keep_all_data() {
        let l = Layout::with_routing_paths(10, 4);
        // L = 4, 10 data cells occupy the first 2.5 rows of the block.
        assert_eq!(l.data_cells().len(), 10);
        assert_eq!(l.grid().count_kind(CellKind::Data), 10);
        assert_eq!(l.data_side(), 4);
    }

    #[test]
    fn boundary_bus_cells_nonempty_even_at_r2() {
        let l = Layout::with_routing_paths(16, 2);
        let b = l.boundary_bus_cells();
        assert!(!b.is_empty());
        for c in b {
            assert_eq!(l.grid().kind(c), CellKind::Bus);
        }
    }

    #[test]
    fn middle_out_order_shape() {
        assert_eq!(middle_out_order(0), Vec::<Gap>::new());
        assert_eq!(middle_out_order(1), vec![0]);
        assert_eq!(middle_out_order(3), vec![1, 0, 2]);
        let o = middle_out_order(9);
        assert_eq!(o.len(), 9);
        assert_eq!(o[0], 4);
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn every_r_in_range_constructs() {
        for n in [1u32, 4, 9, 10, 16, 36, 100] {
            let max = Layout::max_routing_paths(n);
            for r in 2..=max {
                let l = Layout::with_routing_paths(n, r);
                assert_eq!(l.data_cells().len(), n as usize);
                assert_eq!(l.routing_paths(), r);
                // More routing paths never shrink the grid.
                if r > 2 {
                    let prev = Layout::with_routing_paths(n, r - 1);
                    assert!(l.total_patches() > prev.total_patches());
                }
            }
        }
    }
}
