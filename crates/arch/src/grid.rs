//! The 2D grid of logical surface-code patches.

use std::fmt;

/// A cell coordinate on the logical grid (row-major; `row` grows downward).
///
/// Coordinates are signed so that neighbour arithmetic at the boundary never
/// wraps; [`Grid::in_bounds`] rejects negatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Row index (grows downward).
    pub row: i32,
    /// Column index (grows rightward).
    pub col: i32,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(row: i32, col: i32) -> Self {
        Self { row, col }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }

    /// The four edge-adjacent neighbours (N, S, W, E).
    pub fn neighbours(self) -> [Coord; 4] {
        [
            Coord::new(self.row - 1, self.col),
            Coord::new(self.row + 1, self.col),
            Coord::new(self.row, self.col - 1),
            Coord::new(self.row, self.col + 1),
        ]
    }

    /// The four diagonal neighbours.
    pub fn diagonals(self) -> [Coord; 4] {
        [
            Coord::new(self.row - 1, self.col - 1),
            Coord::new(self.row - 1, self.col + 1),
            Coord::new(self.row + 1, self.col - 1),
            Coord::new(self.row + 1, self.col + 1),
        ]
    }

    /// Whether `other` is edge-adjacent.
    pub fn is_adjacent(self, other: Coord) -> bool {
        self.manhattan(other) == 1
    }

    /// Whether `other` is vertically adjacent (same column, row ± 1) — the
    /// relation required for `M_ZZ` merges.
    pub fn is_vertical_neighbour(self, other: Coord) -> bool {
        self.col == other.col && self.row.abs_diff(other.row) == 1
    }

    /// Whether `other` is horizontally adjacent (same row, column ± 1) — the
    /// relation required for `M_XX` merges.
    pub fn is_horizontal_neighbour(self, other: Coord) -> bool {
        self.row == other.row && self.col.abs_diff(other.col) == 1
    }

    /// Whether `other` is diagonally adjacent (the CNOT configuration).
    pub fn is_diagonal(self, other: Coord) -> bool {
        self.row.abs_diff(other.row) == 1 && self.col.abs_diff(other.col) == 1
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// Role of a grid cell in the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Holds a program data qubit in the initial mapping.
    Data,
    /// Bus qubit: routing path and operational ancilla (grey in Fig 3).
    Bus,
}

/// A rectangular grid of logical patches with per-cell kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    rows: u32,
    cols: u32,
    kinds: Vec<CellKind>,
}

impl Grid {
    /// Creates a grid with every cell set to `fill`.
    pub fn filled(rows: u32, cols: u32, fill: CellKind) -> Self {
        Self {
            rows,
            cols,
            kinds: vec![fill; (rows * cols) as usize],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of cells (logical patches, excluding factories).
    pub fn num_cells(&self) -> u32 {
        self.rows * self.cols
    }

    /// Whether `c` lies on the grid.
    pub fn in_bounds(&self, c: Coord) -> bool {
        c.row >= 0 && c.col >= 0 && (c.row as u32) < self.rows && (c.col as u32) < self.cols
    }

    fn index(&self, c: Coord) -> usize {
        debug_assert!(self.in_bounds(c), "coordinate {c} out of bounds");
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// The kind of cell at `c`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `c` is out of bounds.
    pub fn kind(&self, c: Coord) -> CellKind {
        self.kinds[self.index(c)]
    }

    /// Sets the kind of cell at `c`.
    pub fn set_kind(&mut self, c: Coord, kind: CellKind) {
        let i = self.index(c);
        self.kinds[i] = kind;
    }

    /// Iterates over all coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let cols = self.cols as i32;
        (0..self.rows as i32).flat_map(move |r| (0..cols).map(move |c| Coord::new(r, c)))
    }

    /// Count of cells with the given kind.
    pub fn count_kind(&self, kind: CellKind) -> u32 {
        self.kinds.iter().filter(|&&k| k == kind).count() as u32
    }

    /// In-bounds edge neighbours of `c`.
    pub fn neighbours_in(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        c.neighbours().into_iter().filter(|&n| self.in_bounds(n))
    }

    /// Coordinates on the outer boundary (row 0, last row, col 0, last col),
    /// clockwise from the top-left.
    pub fn boundary(&self) -> Vec<Coord> {
        let (rows, cols) = (self.rows as i32, self.cols as i32);
        let mut out = Vec::new();
        if rows == 0 || cols == 0 {
            return out;
        }
        for c in 0..cols {
            out.push(Coord::new(0, c));
        }
        for r in 1..rows {
            out.push(Coord::new(r, cols - 1));
        }
        if rows > 1 {
            for c in (0..cols - 1).rev() {
                out.push(Coord::new(rows - 1, c));
            }
        }
        if cols > 1 {
            for r in (1..rows - 1).rev() {
                out.push(Coord::new(r, 0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_distances() {
        let a = Coord::new(2, 1);
        let b = Coord::new(5, 3);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn adjacency_relations() {
        let c = Coord::new(3, 3);
        assert!(c.is_adjacent(Coord::new(2, 3)));
        assert!(!c.is_adjacent(Coord::new(2, 2)));
        assert!(c.is_vertical_neighbour(Coord::new(4, 3)));
        assert!(!c.is_vertical_neighbour(Coord::new(3, 4)));
        assert!(c.is_horizontal_neighbour(Coord::new(3, 2)));
        assert!(!c.is_horizontal_neighbour(Coord::new(4, 3)));
        assert!(c.is_diagonal(Coord::new(4, 4)));
        assert!(c.is_diagonal(Coord::new(2, 2)));
        assert!(!c.is_diagonal(Coord::new(3, 4)));
    }

    #[test]
    fn neighbours_and_diagonals() {
        let c = Coord::new(0, 0);
        assert_eq!(c.neighbours().len(), 4);
        assert_eq!(c.diagonals().len(), 4);
        assert!(c.neighbours().contains(&Coord::new(-1, 0)));
    }

    #[test]
    fn grid_bounds_and_kinds() {
        let mut g = Grid::filled(3, 4, CellKind::Bus);
        assert!(g.in_bounds(Coord::new(0, 0)));
        assert!(g.in_bounds(Coord::new(2, 3)));
        assert!(!g.in_bounds(Coord::new(3, 0)));
        assert!(!g.in_bounds(Coord::new(0, -1)));
        g.set_kind(Coord::new(1, 1), CellKind::Data);
        assert_eq!(g.kind(Coord::new(1, 1)), CellKind::Data);
        assert_eq!(g.count_kind(CellKind::Data), 1);
        assert_eq!(g.count_kind(CellKind::Bus), 11);
    }

    #[test]
    fn coords_row_major() {
        let g = Grid::filled(2, 2, CellKind::Bus);
        let all: Vec<_> = g.coords().collect();
        assert_eq!(
            all,
            vec![
                Coord::new(0, 0),
                Coord::new(0, 1),
                Coord::new(1, 0),
                Coord::new(1, 1)
            ]
        );
    }

    #[test]
    fn neighbours_in_clips_boundary() {
        let g = Grid::filled(2, 2, CellKind::Bus);
        let n: Vec<_> = g.neighbours_in(Coord::new(0, 0)).collect();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn boundary_walk_covers_perimeter_once() {
        let g = Grid::filled(3, 4, CellKind::Bus);
        let b = g.boundary();
        // 2*(3+4) - 4 = 10 perimeter cells.
        assert_eq!(b.len(), 10);
        let mut dedup = b.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "no duplicates on the boundary walk");
    }

    #[test]
    fn boundary_of_single_row() {
        let g = Grid::filled(1, 5, CellKind::Bus);
        assert_eq!(g.boundary().len(), 5);
    }
}
