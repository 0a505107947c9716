//! The router: reusable search state for the compile hot path.
//!
//! The map stage runs a small search for nearly every routed operation,
//! so this module keeps search state across searches. It has three pieces:
//!
//! * [`CellGrid`] — the compiler engine's occupancy: one row-major `u32`
//!   per cell (the qubit holding it, or a free sentinel) inside a one-cell
//!   border of off-grid sentinels. A neighbour of any on-grid cell is one
//!   index offset away and never out of the buffer, so the search kernels
//!   relax a cell with one load: no `Coord`, no bounds check, no division.
//! * `SearchArena` — one packed search word (the generation that reached
//!   the cell and its cost) and one parent link per padded cell,
//!   *generation-stamped* so resetting between searches is O(1) instead of
//!   O(cells), plus a goal-directed (A\*) bucket queue for the
//!   penalty-weighted Dijkstra: cells queue on their cost plus the
//!   Manhattan distance to the goal, so a search settles the cells toward
//!   its goal first. The same buffers back the breadth-first push chains
//!   of the space searches. The arena owns every scratch buffer a search
//!   uses (buckets, the BFS queue, the push chains and the path being read
//!   back as padded indices) and keeps them across searches, so a
//!   warmed-up search allocates only the result it returns, at its exact
//!   length.
//! * [`Router`] — the one router type. It owns the cost model and the
//!   arena, answers every [`RouteQueries`] query, and counts its own
//!   activity ([`RouteCounters`]).
//!
//! **Bounded weights, no fallback.** The A\* ring holds the levels
//! `[f, f + penalty_weight + 3)` at once; it has the next power of two at
//! or above `penalty_weight + 3` buckets, so a level finds its bucket with
//! a mask, not a division. [`Router::new`] refuses weights above
//! [`MAX_PENALTY_WEIGHT`]. The compiler engine caps every weight at twice
//! its layout's cells (`router_cost` in `ftqc-compiler`'s engine), which
//! is at most that bound, so every search runs on the bucket queue. A
//! search word keeps a cost in 32 bits, so a router also refuses a grid
//! whose padded cells times `1 + penalty_weight` (a bound on any cost a
//! search records) exceed `u32::MAX`; the largest layout at the largest
//! weight needs about 5.7e8.
//!
//! **Cost-only queries, bounded.** [`RouteQueries::path_cost`] and
//! [`RouteQueries::space_search_cost`] return only the cost of
//! [`RouteQueries::find_path`]'s and [`RouteQueries::space_search`]'s
//! answers, allocating nothing. `path_cost` takes a `below` bound: its
//! bucket queue stops at that level, so a path that cannot beat a known
//! cost is never searched to the end. The CNOT look-ahead scores its
//! candidates with them, best bound first, and runs no search a candidate
//! cannot win with. The space search stops early too: a free neighbour is
//! taken before any push chain is searched, and each later chain search
//! stops at the length of the shortest chain found so far. Every answer
//! is unchanged by the bounds; only the number of searches, and with it
//! the arena's reuse counter, falls.
//!
//! **Tie-breaking invariant:** every query returns results
//! *byte-identical* to the seed router (`ftqc-bench`'s `reference`
//! module) on the same state. Padded indices sort exactly like row-major
//! `(row, col)` pairs, and the neighbour offsets run in the seed's
//! N/S/W/E order, so the breadth-first queues drain in the seed's order.
//! The A\* search drains its levels in any order and reads its path back
//! from costs alone: each cell's parent is its lowest-index neighbour
//! settled one entry cost closer, the parent the seed heap's
//! `(d, row, col)` order picks. `tests/route_differential.rs` enforces
//! this path-for-path (cost, cells, tie-breaks) across random layouts,
//! occupancy patterns, degenerate grid shapes and the paper-size layouts.

use crate::{CostModel, Path, SpacePlan};
use ftqc_arch::{Coord, MAX_QUBITS};
use std::collections::VecDeque;

/// The largest penalty weight a [`Router`] accepts: twice the cells of the
/// largest layout [`MAX_QUBITS`] admits. That layout is a 64 × 64 data
/// block with a bus line beside every data line on both sides, 129 × 129
/// cells. The compiler engine caps every weight at twice its layout's
/// cells, so no compile reaches past this bound.
pub const MAX_PENALTY_WEIGHT: u64 = {
    let data_side = (MAX_QUBITS as u64 - 1).isqrt() + 1;
    let side = 2 * data_side + 1;
    2 * side * side
};

/// A [`CellGrid`] cell holding no qubit.
const FREE: u32 = u32::MAX;

/// The [`CellGrid`] border ring: never entered, never free.
const OFF_GRID: u32 = u32::MAX - 1;

/// Occupancy of a `rows × cols` layout grid, padded with a one-cell
/// off-grid border: a row-major `(rows + 2) × (cols + 2)` buffer whose
/// on-grid cells hold the index of the qubit there, or a free sentinel.
///
/// The routing engine owns one, updates it on every move, and hands it to
/// the [`Router`]'s queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellGrid {
    rows: u32,
    cols: u32,
    cells: Vec<u32>,
}

impl CellGrid {
    /// An empty `rows × cols` grid (every on-grid cell free).
    ///
    /// # Panics
    ///
    /// Panics if the padded grid has more than `u32::MAX` cells.
    pub fn new(rows: u32, cols: u32) -> Self {
        let stride = cols as usize + 2;
        let len = (rows as usize + 2) * stride;
        assert!(u32::try_from(len).is_ok(), "{rows}x{cols} grid too large");
        let mut cells = vec![OFF_GRID; len];
        for r in 1..=rows as usize {
            cells[r * stride + 1..(r + 1) * stride - 1].fill(FREE);
        }
        CellGrid { rows, cols, cells }
    }

    /// Number of on-grid rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of on-grid columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Whether `c` lies on the grid (not on the border or beyond).
    #[inline]
    pub fn in_bounds(&self, c: Coord) -> bool {
        c.row >= 0 && c.col >= 0 && (c.row as u32) < self.rows && (c.col as u32) < self.cols
    }

    /// The qubit holding `c`; `None` for a free cell or any off-grid `c`.
    #[inline]
    pub fn occupant(&self, c: Coord) -> Option<u32> {
        if !self.in_bounds(c) {
            return None;
        }
        let q = self.cells[self.index(c)];
        (q != FREE).then_some(q)
    }

    /// Puts qubit `q` on the on-grid cell `c`.
    pub fn place(&mut self, c: Coord, q: u32) {
        assert!(
            self.in_bounds(c) && q < OFF_GRID,
            "cannot place q{q} at {c}"
        );
        let i = self.index(c);
        self.cells[i] = q;
    }

    /// Empties the on-grid cell `c`.
    pub fn vacate(&mut self, c: Coord) {
        assert!(self.in_bounds(c), "cannot vacate off-grid {c}");
        let i = self.index(c);
        self.cells[i] = FREE;
    }

    /// Padded index of `c`, which must lie on the grid or its border.
    #[inline]
    fn index(&self, c: Coord) -> usize {
        (c.row + 1) as usize * self.stride() + (c.col + 1) as usize
    }

    /// The cell at padded index `i`.
    #[inline]
    fn coord(&self, i: usize) -> Coord {
        let stride = self.stride();
        Coord::new((i / stride) as i32 - 1, (i % stride) as i32 - 1)
    }

    #[inline]
    fn stride(&self) -> usize {
        self.cols as usize + 2
    }

    /// Index offsets of the four neighbours in the seed's N/S/W/E order
    /// (as wrapping `usize` additions).
    #[inline]
    fn neighbour_offsets(&self) -> [usize; 4] {
        let stride = self.stride();
        [stride.wrapping_neg(), stride, 1usize.wrapping_neg(), 1]
    }
}

/// Per-router activity counters, surfaced through compiler `Metrics`, the
/// CLI's `--explain` report, `/v1/cache/stats`, and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounters {
    /// Searches that reused the arena's buffers via a generation bump
    /// (everything after the first search on a given grid shape).
    pub arena_reuses: u64,
}

impl RouteCounters {
    /// Field-wise sum — the accumulation the shared stage cache performs.
    pub fn merged(self, other: RouteCounters) -> RouteCounters {
        RouteCounters {
            arena_reuses: self.arena_reuses + other.arena_reuses,
        }
    }
}

/// The queries the compiler engine and the CNOT look-ahead ask a router.
///
/// [`Router`] answers them in production. The seed router in
/// `ftqc-bench`'s `reference` module answers them too, so the differential
/// tests and the routing bench run the same engine over either. Every
/// query reads the occupancy from the engine's [`CellGrid`]: off-grid
/// cells are never entered, and occupied cells hold data qubits. Ties
/// break deterministically (cells at equal distance settle in row-major
/// order, neighbours expand N/S/W/E), keeping compilation reproducible.
pub trait RouteQueries {
    /// Minimum-cost 4-connected path from `from` to `to` under the
    /// router's [`CostModel`], never entering `blocked` cells other than
    /// `to` (routing *to* a reserved delivery cell is routine). The source
    /// is never charged; the destination is charged like any entered
    /// cell. `None` when `to` is unreachable or either endpoint is off the
    /// grid.
    fn find_path(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
    ) -> Option<Path>;

    /// The cost of [`RouteQueries::find_path`]'s path, without the path,
    /// if it is below `below`; `None` when there is no path or it costs
    /// `below` or more. A caller that only needs paths beating a known cost
    /// passes that cost, and the search stops there; `u64::MAX` asks for
    /// any path.
    fn path_cost(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
        below: u64,
    ) -> Option<u64> {
        self.find_path(cells, blocked, from, to)
            .map(|p| p.cost)
            .filter(|&cost| cost < below)
    }

    /// Plans the push chain that frees `cell`: its occupant, and any
    /// occupants in the way, shift one step along the shortest chain to
    /// the nearest free cell, the one nearest that free cell first. The
    /// `avoid` cells (a few, in any order, repeats allowed) are never
    /// entered or searched through. `None` when `cell` is already free or
    /// no free cell is reachable; otherwise a non-empty plan.
    fn clear_cell_plan(
        &mut self,
        cells: &CellGrid,
        cell: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<(Coord, Coord)>>;

    /// The cheapest free ancilla next to `target` (paper Fig 6), never
    /// entering `blocked` cells. Each on-grid, unblocked neighbour is
    /// tried in N/S/W/E order: a free one is a zero-cost plan, taken at
    /// once; an occupied one is cleared by a push chain toward the nearest
    /// free cell (never through `target`). The neighbour needing the
    /// fewest moves wins, the first on ties; `None` when no neighbour can
    /// be cleared.
    fn space_search(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<SpacePlan>;

    /// The cost (clearing moves) of [`RouteQueries::space_search`]'s plan,
    /// without the moves.
    fn space_search_cost(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<usize> {
        self.space_search(cells, blocked, target).map(|p| p.cost())
    }

    /// The router's activity so far.
    fn counters(&self) -> RouteCounters {
        RouteCounters::default()
    }
}

/// Reusable search state for one grid shape, indexed like a [`CellGrid`].
///
/// # Invariants
///
/// * Each cell has one search word ([`search_word`]): the generation that
///   last reached it in the high half, `u32::MAX - cost` in the low half.
///   A cell's cost and `prev` slot are meaningful only when its word
///   carries the arena's current `generation`; bumping the generation is
///   the O(1) whole-arena reset. Words order by generation, then by cost
///   reversed, so "unreached in this search, or reached at a cost above
///   `c`" is the one compare `words[i] < search_word(generation, c)`.
/// * Every recorded cost fits the low half: a search records costs of at
///   most one entry cost (`1 + penalty`) per padded cell, and the arena
///   refuses a shape whose padded cells times `1 + penalty` exceed
///   `u32::MAX`. So a neighbour's candidate word is its settled parent's
///   word minus the entry cost, with no borrow into the generation.
/// * Buffers are sized to the padded `(rows + 2) * (cols + 2)` cells of the
///   last grid seen; searching a different shape reallocates (and does not
///   count as a reuse) and rebuilds `row_col`, so a shape with the same
///   padded length never reads the last shape's rows and columns.
/// * The arena owns every scratch buffer a search needs: the A\* buckets,
///   the breadth-first `queue`, and the push chains (`chain`, which also
///   holds a path being read back, and `best_chain` for the space search's
///   current winner). They keep their capacity across searches, so a
///   search allocates nothing once they have grown to the grid's needs;
///   only the results a caller keeps ([`Path`] cells, clearing moves) are
///   allocated, each at its exact length.
/// * A query's extra-blocked cells are stamped before it starts, reached
///   at cost 0, the highest word of the generation: no relaxation beats
///   it, so nothing enters them (except `to`, which the A\* search leaves
///   unstamped), and the breadth-first chains take them as visited. Border
///   cells are skipped by their off-grid value, so neither needs a bounds
///   or set-membership probe per relaxation.
/// * The A\* bucket ring holds only levels in `[f, f + penalty + 3)` while
///   level `f` drains — guaranteed because a step adds its entry cost (in
///   `1..=1 + penalty`) plus or minus 1 to a cell's level. Any ring of at
///   least `penalty + 3` buckets keeps those levels apart; the arena's has
///   the next power of two ([`ring_len`]), so a level's bucket is
///   `level & (ring - 1)`. It is sized to the router's weight, which
///   [`Router::new`] bounds by [`MAX_PENALTY_WEIGHT`]. A search that
///   settles its goal leaves the rest of its queue in the ring (the path
///   readback may drain more of the goal's level); the next search clears
///   the ring when it starts.
/// * Within one level, cells drain in any order (last queued first), and
///   no answer depends on it: a cell's cost is final when it leaves its
///   level. The costs alone determine the path: a path cell's parent is its
///   lowest padded index neighbour whose cost is exactly one entry cost
///   lower. The padded index `(row + 1) * (cols + 2) + col + 1` grows with
///   `(row, col)` exactly as the row-major index does, so this is the
///   parent the `(d, row, col)` order of the seed binary heap picks, which
///   is what keeps paths identical. `prev` serves the push chains only.
/// * A push chain is stored free cell first: `chain[0]` is the free cell
///   the search reached, the last entry its start, and every entry but the
///   first holds a qubit (the search only walks through occupied cells).
/// * The cost-only queries run the searches of their full counterparts
///   and skip only building the result, except where a bound stops a
///   search early: an A\* search stops at its `below` level (the goal's
///   level is its cost), a push chain search at its `below` length. A
///   stopped search reports nothing, so every answer it does give is the
///   unbounded search's.
#[derive(Debug, Default)]
struct SearchArena {
    /// The router's penalty weight.
    penalty: u64,
    rows: u32,
    cols: u32,
    generation: u32,
    /// One [`search_word`] per padded cell.
    words: Vec<u64>,
    prev: Vec<u32>,
    /// Padded row and column of every padded index.
    row_col: Vec<(u32, u32)>,
    buckets: Vec<Vec<u32>>,
    queue: VecDeque<u32>,
    chain: Vec<u32>,
    best_chain: Vec<u32>,
    reuses: u64,
}

/// The search word of a cell reached at `cost` (at most `u32::MAX`) in
/// `generation`: the generation in the high half, `u32::MAX - cost` in
/// the low half.
#[inline]
fn search_word(generation: u32, cost: u64) -> u64 {
    u64::from(generation) << 32 | (u64::from(u32::MAX) - cost)
}

/// The cost a search word records.
#[inline]
fn word_cost(word: u64) -> u64 {
    u64::from(!(word as u32))
}

/// The A\* ring's length under `penalty`: the power of two at or above
/// the `penalty + 3` levels it holds at once.
fn ring_len(penalty: u64) -> usize {
    (penalty as usize + 3).next_power_of_two()
}

/// Clearing moves for a push chain stored free cell first: every occupant
/// shifts one step toward the free cell, the one nearest it first, so each
/// destination is free when its move runs.
fn chain_moves(cells: &CellGrid, chain: &[u32]) -> Vec<(Coord, Coord)> {
    chain
        .windows(2)
        .map(|w| (cells.coord(w[1] as usize), cells.coord(w[0] as usize)))
        .collect()
}

/// A goal-directed search in progress: the goal and cost model it runs
/// under, and its bucket queue's progress.
///
/// It keys each queued cell on `f = cost + bound`, the bound being the
/// Manhattan distance to the goal. Every entered cell costs at least 1 and
/// a step moves the bound by exactly 1, so the bound never overestimates
/// and `f` never falls along a step: a cell's cost is final when its level
/// drains, and the goal settles at the level of its cost. A step adds
/// `enter ± 1` to `f`, so queued levels span `penalty + 3` buckets of a
/// ring of [`ring_len`] buckets.
#[derive(Debug, Clone, Copy)]
struct Astar {
    /// Padded index, row and column of the goal.
    goal: usize,
    row: u32,
    col: u32,
    penalty: u64,
    /// The ring's length minus one, a mask since the length is a power of
    /// two.
    mask: u64,
    /// The level draining; once the goal settles, its cost.
    level: u64,
    /// Entries queued and not yet drained.
    pending: usize,
}

impl Astar {
    fn new(cells: &CellGrid, to: Coord, penalty: u64) -> Self {
        Astar {
            goal: cells.index(to),
            row: to.row as u32 + 1,
            col: to.col as u32 + 1,
            penalty,
            mask: ring_len(penalty) as u64 - 1,
            level: 0,
            pending: 0,
        }
    }

    /// Manhattan distance from the padded `(row, col)` to the goal.
    #[inline]
    fn bound(&self, (row, col): (u32, u32)) -> u64 {
        u64::from(row.abs_diff(self.row) + col.abs_diff(self.col))
    }

    /// Cost of entering a cell held by `holder`.
    #[inline]
    fn enter(&self, holder: u32) -> u64 {
        1 + if holder == FREE { 0 } else { self.penalty }
    }

    /// The bucket of `level`.
    #[inline]
    fn slot(&self, level: u64) -> usize {
        (level & self.mask) as usize
    }
}

impl SearchArena {
    /// Prepares the arena for a search on `cells`: O(1) generation bump
    /// when the shape matches, reallocation otherwise.
    ///
    /// # Panics
    ///
    /// Panics on a new shape whose padded cells times `1 + penalty` exceed
    /// `u32::MAX`: a cost a search records might not fit its word.
    fn reset(&mut self, cells: &CellGrid) {
        let len = cells.cells.len();
        if self.rows != cells.rows || self.cols != cells.cols || self.words.len() != len {
            assert!(
                len as u64 * (1 + self.penalty) <= u64::from(u32::MAX),
                "a {}x{} grid is too large to route at penalty weight {}: its costs \
                 can exceed u32::MAX",
                cells.rows,
                cells.cols,
                self.penalty
            );
            self.rows = cells.rows;
            self.cols = cells.cols;
            self.words = vec![0; len];
            self.prev = vec![0; len];
            let stride = cells.stride();
            self.row_col = (0..len)
                .map(|i| ((i / stride) as u32, (i % stride) as u32))
                .collect();
            self.generation = 1;
            return;
        }
        if self.generation == u32::MAX {
            self.words.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.reuses += 1;
    }

    /// Runs the goal-directed search from `from` until `to` settles or the
    /// level `below` would drain, over distinct on-grid endpoints. When
    /// `to` settles, returns the search, its level at `to`'s cost (which is
    /// under `below`), for [`SearchArena::path`] to read the path back.
    fn astar(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
        below: u64,
    ) -> Option<Astar> {
        self.reset(cells);
        let mut search = Astar::new(cells, to, self.penalty);
        self.buckets.resize_with(ring_len(self.penalty), Vec::new);
        // A finished search may leave entries behind (see `path`).
        self.buckets.iter_mut().for_each(Vec::clear);

        let start = search_word(self.generation, 0);
        for &b in blocked {
            if cells.in_bounds(b) && b != to {
                self.words[cells.index(b)] = start;
            }
        }
        let from_i = cells.index(from);
        search.level = search.bound(self.row_col[from_i]);
        self.words[from_i] = start;
        self.buckets[search.slot(search.level)].push(from_i as u32);
        search.pending = 1;
        while search.pending > 0 && search.level < below {
            if self.drain_level(cells, &mut search) {
                return Some(search);
            }
            search.level += 1;
        }
        None
    }

    /// Drains `search`'s current level until it is empty or `to` settles
    /// (then returns `true`, leaving the rest of the level queued). Entries
    /// leave a level in any order: a cell's cost is final once its level
    /// drains, and `path` reads the tie-breaks from costs alone.
    fn drain_level(&mut self, cells: &CellGrid, search: &mut Astar) -> bool {
        let offsets = cells.neighbour_offsets();
        let slot = search.slot(search.level);
        while let Some(ui) = self.buckets[slot].pop() {
            search.pending -= 1;
            let ui = ui as usize;
            let reached = self.words[ui];
            let (row, col) = self.row_col[ui];
            if word_cost(reached) + search.bound((row, col)) != search.level {
                continue; // superseded by a shorter push
            }
            if ui == search.goal {
                return true;
            }
            // N/S/W/E: whether the step brings the bound down by one.
            let toward = [
                row > search.row,
                row < search.row,
                col > search.col,
                col < search.col,
            ];
            for (off, toward) in offsets.into_iter().zip(toward) {
                let vi = ui.wrapping_add(off);
                let holder = cells.cells[vi];
                if holder == OFF_GRID {
                    continue;
                }
                let enter = search.enter(holder);
                // Reached `enter` further than `ui`, in this generation.
                let relaxed = reached - enter;
                if self.words[vi] < relaxed {
                    self.words[vi] = relaxed;
                    let level = if toward {
                        search.level + enter - 1
                    } else {
                        search.level + enter + 1
                    };
                    self.buckets[search.slot(level)].push(vi as u32);
                    search.pending += 1;
                }
            }
        }
        false
    }

    /// The path `from ..= to` of `search`, which settled `to`, read back
    /// from its costs and allocated at its exact length.
    ///
    /// Each cell's parent is its lowest-index neighbour that settled one
    /// entry cost closer to `from`: the parent the seed's `(d, row, col)`
    /// drain order picks. No neighbour's cost is below that, and a recorded
    /// cost never undercuts the final one, so a neighbour recorded at it
    /// has settled there. A neighbour not yet recorded at it may still
    /// settle there only on the goal's level (its cost plus bound is that
    /// level); when a lower-index neighbour may, the level drains to the
    /// end before the parent is picked.
    fn path(&mut self, cells: &CellGrid, from: Coord, search: &mut Astar) -> Path {
        let from_i = cells.index(from);
        let mut trail = std::mem::take(&mut self.chain);
        trail.clear();
        let mut occupied = 0u32;
        let mut level_drained = false;
        let mut cur = search.goal;
        while cur != from_i {
            trail.push(cur as u32);
            let holder = cells.cells[cur];
            occupied += u32::from(holder != FREE);
            // Only `from` settles at 0 (blocked cells are stamped there).
            let want = word_cost(self.words[cur]) - search.enter(holder);
            cur = if want == 0 {
                from_i
            } else {
                loop {
                    if let Some(parent) = self.parent(cells, cur, want, search, level_drained) {
                        break parent;
                    }
                    self.drain_level(cells, search);
                    level_drained = true;
                }
            };
        }
        let mut path = Vec::with_capacity(trail.len() + 1);
        path.push(from);
        path.extend(trail.iter().rev().map(|&i| cells.coord(i as usize)));
        self.chain = trail;
        Path {
            length: (path.len() - 1) as u32,
            occupied,
            cost: search.level,
            cells: path,
        }
    }

    /// The lowest-index neighbour of `v` settled at `want` (> 0), or `None`
    /// when a lower-index one could still settle there on the goal's level,
    /// which `level_drained` says has finished.
    fn parent(
        &self,
        cells: &CellGrid,
        v: usize,
        want: u64,
        search: &Astar,
        level_drained: bool,
    ) -> Option<usize> {
        let settled = search_word(self.generation, want);
        let [north, south, west, east] = cells.neighbour_offsets();
        for off in [north, west, east, south] {
            let u = v.wrapping_add(off);
            if self.words[u] == settled {
                return Some(u);
            }
            // Unreached, or reached at a higher cost so far.
            if !level_drained
                && cells.cells[u] != OFF_GRID
                && self.words[u] < settled
                && want + search.bound(self.row_col[u]) == search.level
            {
                return None;
            }
        }
        unreachable!("a settled cell has a settled neighbour one entry cost closer")
    }

    /// Breadth-first push chain from the on-grid `start` to the nearest
    /// free cell (the core of the clearing and space searches), if that
    /// cell lies fewer than `below` steps away: a chain of `k` steps costs
    /// `k` clearing moves. On success the chain is left in `self.chain`,
    /// free cell first. The `blocked` and `avoid` cells are stamped visited
    /// up front, so their order and any repeats do not matter.
    fn chain_to_nearest_free(
        &mut self,
        cells: &CellGrid,
        start: Coord,
        blocked: &[Coord],
        avoid: &[Coord],
        below: u64,
    ) -> bool {
        self.reset(cells);
        let generation = self.generation;
        self.queue.clear();
        let visited = search_word(generation, 0);
        for &a in blocked.iter().chain(avoid) {
            if cells.in_bounds(a) {
                self.words[cells.index(a)] = visited;
            }
        }
        let start_i = cells.index(start);
        self.words[start_i] = visited;
        self.queue.push_back(start_i as u32);
        let offsets = cells.neighbour_offsets();
        while let Some(ui) = self.queue.pop_front() {
            // Steps to a neighbour of `ui`; the queue runs in step order, so
            // once they reach `below` no later entry finds a shorter chain.
            let steps = word_cost(self.words[ui as usize]) + 1;
            if steps >= below {
                break;
            }
            // Every cell reached so far took at most `steps`, so a word
            // below this one is unreached.
            let next = search_word(generation, steps);
            for off in offsets {
                let vi = (ui as usize).wrapping_add(off);
                let holder = cells.cells[vi];
                if holder == OFF_GRID || self.words[vi] >= next {
                    continue;
                }
                self.prev[vi] = ui;
                if holder == FREE {
                    self.chain.clear();
                    self.chain.push(vi as u32);
                    let mut cur = vi;
                    while cur != start_i {
                        cur = self.prev[cur] as usize;
                        self.chain.push(cur as u32);
                    }
                    return true;
                }
                self.words[vi] = next;
                self.queue.push_back(vi as u32);
            }
        }
        false
    }

    /// The space search's pick: the first neighbour of `target` that is
    /// free, else the first whose push chain is shortest, with its clearing
    /// cost (the chain's occupants). An occupied pick's chain is left in
    /// `self.best_chain`.
    ///
    /// A free neighbour costs nothing, so it is looked for before any chain
    /// is searched. Each later chain search stops at the best length so far
    /// (a tie goes to the earlier neighbour), and none runs once a one-move
    /// chain, the shortest there is, has been found.
    fn cheapest_ancilla(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<(Coord, usize)> {
        let usable = |n: &Coord| cells.in_bounds(*n) && !blocked.contains(n);
        let neighbours = target.neighbours();
        if let Some(&free) = neighbours
            .iter()
            .find(|&n| usable(n) && cells.occupant(*n).is_none())
        {
            return Some((free, 0));
        }
        let mut best: Option<(Coord, usize)> = None;
        for n in neighbours.into_iter().filter(usable) {
            let below = best.map_or(u64::MAX, |(_, moves)| moves as u64);
            if below <= 1 {
                break;
            }
            if self.chain_to_nearest_free(cells, n, blocked, &[target], below) {
                best = Some((n, self.chain.len() - 1));
                std::mem::swap(&mut self.chain, &mut self.best_chain);
            }
        }
        best
    }
}

/// The router the compiler engine drives: the search arena, under one
/// cost model, behind every [`RouteQueries`] query.
#[derive(Debug)]
pub struct Router {
    arena: SearchArena,
}

impl Router {
    /// A router for searches under `cost`, with a fresh arena.
    ///
    /// # Panics
    ///
    /// Panics if `cost.penalty_weight` exceeds [`MAX_PENALTY_WEIGHT`]. The
    /// compiler engine caps every weight at twice its layout's cells,
    /// which the bound covers for every layout a compile can build. A
    /// query panics on a grid whose padded `(rows + 2) * (cols + 2)` cells
    /// times `1 + penalty_weight` exceed `u32::MAX`, which no layout a
    /// compile builds reaches at the weight the engine gives it.
    pub fn new(cost: CostModel) -> Self {
        assert!(
            cost.penalty_weight <= MAX_PENALTY_WEIGHT,
            "penalty weight {} exceeds MAX_PENALTY_WEIGHT ({MAX_PENALTY_WEIGHT}); the \
             compiler engine caps weights at twice the layout's cells",
            cost.penalty_weight
        );
        Router {
            arena: SearchArena {
                penalty: cost.penalty_weight,
                ..SearchArena::default()
            },
        }
    }
}

impl RouteQueries for Router {
    fn find_path(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
    ) -> Option<Path> {
        if !cells.in_bounds(from) || !cells.in_bounds(to) {
            return None;
        }
        if from == to {
            return Some(Path {
                cells: vec![from],
                length: 0,
                occupied: 0,
                cost: 0,
            });
        }
        let mut search = self.arena.astar(cells, blocked, from, to, u64::MAX)?;
        Some(self.arena.path(cells, from, &mut search))
    }

    fn path_cost(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
        below: u64,
    ) -> Option<u64> {
        if !cells.in_bounds(from) || !cells.in_bounds(to) {
            return None;
        }
        if from == to {
            return (0 < below).then_some(0);
        }
        self.arena
            .astar(cells, blocked, from, to, below)
            .map(|search| search.level)
    }

    fn clear_cell_plan(
        &mut self,
        cells: &CellGrid,
        cell: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<(Coord, Coord)>> {
        cells.occupant(cell)?;
        self.arena
            .chain_to_nearest_free(cells, cell, &[], avoid, u64::MAX)
            .then(|| chain_moves(cells, &self.arena.chain))
    }

    fn space_search(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<SpacePlan> {
        let (ancilla, cost) = self.arena.cheapest_ancilla(cells, blocked, target)?;
        let clearing_moves = if cost == 0 {
            Vec::new()
        } else {
            chain_moves(cells, &self.arena.best_chain)
        };
        Some(SpacePlan {
            ancilla,
            clearing_moves,
        })
    }

    fn space_search_cost(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<usize> {
        self.arena
            .cheapest_ancilla(cells, blocked, target)
            .map(|(_, cost)| cost)
    }

    fn counters(&self) -> RouteCounters {
        RouteCounters {
            arena_reuses: self.arena.reuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::Layout;

    #[test]
    fn cell_grid_pads_with_off_grid_cells() {
        let mut cells = CellGrid::new(2, 3);
        assert_eq!(cells.cells.len(), 4 * 5);
        assert_eq!(cells.cells.iter().filter(|&&v| v == FREE).count(), 6);
        cells.place(Coord::new(1, 2), 7);
        assert_eq!(cells.occupant(Coord::new(1, 2)), Some(7));
        assert_eq!(cells.coord(cells.index(Coord::new(1, 2))), Coord::new(1, 2));
        for off in [
            Coord::new(-1, 0),
            Coord::new(0, 3),
            Coord::new(2, 0),
            Coord::new(9, -9),
        ] {
            assert_eq!(cells.occupant(off), None);
            assert!(!cells.in_bounds(off));
        }
        cells.vacate(Coord::new(1, 2));
        assert_eq!(cells, CellGrid::new(2, 3));
    }

    #[test]
    fn second_search_on_a_shape_reuses_the_arena() {
        let mut cells = CellGrid::new(5, 5);
        cells.place(Coord::new(1, 1), 0);
        cells.place(Coord::new(2, 3), 1);
        let (from, to) = (Coord::new(0, 0), Coord::new(4, 4));
        let mut router = Router::new(CostModel::default());
        let first = router.find_path(&cells, &[], from, to);
        assert_eq!(router.counters(), RouteCounters::default());
        assert_eq!(router.find_path(&cells, &[], from, to), first);
        assert_eq!(router.counters().arena_reuses, 1, "second search reuses");
    }

    #[test]
    fn space_search_runs_no_chain_search_that_cannot_win() {
        // Every neighbour of the target is held. The north one's nearest
        // free cell is two pushes away, the south one's one push (the
        // shortest any chain can be), so the west and east neighbours are
        // never searched.
        let target = Coord::new(2, 2);
        let (north, south) = (Coord::new(1, 2), Coord::new(3, 2));
        let mut cells = CellGrid::new(5, 5);
        let held = [
            (2, 2),
            (1, 2),
            (3, 2),
            (2, 1),
            (2, 3),
            (0, 2),
            (1, 1),
            (1, 3),
        ];
        for (q, (row, col)) in held.into_iter().enumerate() {
            cells.place(Coord::new(row, col), q as u32);
        }
        let mut router = Router::new(CostModel::default());
        router.find_path(&cells, &[], Coord::new(4, 0), Coord::new(4, 4));
        let searches = |router: &Router| router.counters().arena_reuses;
        let before = searches(&router);
        assert_eq!(
            router.space_search(&cells, &[], target),
            Some(SpacePlan {
                ancilla: south,
                clearing_moves: vec![(south, Coord::new(4, 2))],
            })
        );
        assert_eq!(searches(&router) - before, 2, "north and south only");

        // A free neighbour is taken without searching the held one before it.
        cells.vacate(south);
        let before = searches(&router);
        assert_eq!(router.space_search_cost(&cells, &[], target), Some(0));
        assert_eq!(
            router.space_search(&cells, &[north], target),
            Some(SpacePlan {
                ancilla: south,
                clearing_moves: Vec::new(),
            })
        );
        assert_eq!(searches(&router), before, "no chain searched");
    }

    #[test]
    fn bound_covers_twice_the_largest_layout() {
        let data_lines: Vec<i32> = (-1..64).collect();
        let largest = [
            Layout::try_with_routing_paths(MAX_QUBITS, Layout::max_routing_paths(MAX_QUBITS)),
            Layout::try_with_bus_lines(MAX_QUBITS, &data_lines, &data_lines),
        ]
        .map(|layout| 2 * u64::from(layout.expect("builds").grid().num_cells()));
        assert_eq!(largest, [MAX_PENALTY_WEIGHT; 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PENALTY_WEIGHT")]
    fn weight_above_the_bound_is_refused() {
        Router::new(CostModel {
            penalty_weight: MAX_PENALTY_WEIGHT + 1,
        });
    }

    #[test]
    fn ring_is_the_power_of_two_at_or_above_the_weight_plus_three() {
        let cells = CellGrid::new(3, 3);
        for penalty_weight in [0, 2, 6, 13, 14, MAX_PENALTY_WEIGHT] {
            let mut router = Router::new(CostModel { penalty_weight });
            router.path_cost(&cells, &[], Coord::new(0, 0), Coord::new(2, 2), u64::MAX);
            let ring = router.arena.buckets.len() as u64;
            let levels = penalty_weight + 3;
            assert!(
                ring.is_power_of_two() && ring >= levels && ring / 2 < levels,
                "weight {penalty_weight}: ring of {ring}"
            );
        }
    }

    #[test]
    fn search_words_order_by_generation_then_cost_reversed() {
        let top = u64::from(u32::MAX);
        for generation in [1, 2, u32::MAX] {
            for cost in [0, 1, 5, top - 1, top] {
                let word = search_word(generation, cost);
                assert_eq!(word_cost(word), cost);
                assert_eq!(word >> 32, u64::from(generation));
                assert!(search_word(generation - 1, 0) < word, "older generation");
                if cost < top {
                    assert!(search_word(generation, cost + 1) < word, "costlier");
                    assert_eq!(word - 1, search_word(generation, cost + 1));
                }
            }
        }
    }

    /// The edge of the 32-bit cost guard. A 1 × 65,535 grid has
    /// 3 × 65,537 padded cells, which times 21,845 is exactly `u32::MAX`:
    /// it routes at weight 21,844, but not with one more column or one more
    /// unit of weight. At the largest weight, 357 × 357 routes and
    /// 358 × 358 is refused (the largest layout a compile builds is
    /// 129 × 129).
    #[test]
    fn grids_past_the_cost_guard_are_refused() {
        let routes = |penalty_weight: u64, rows: u32, cols: u32| {
            let mut router = Router::new(CostModel { penalty_weight });
            let cells = CellGrid::new(rows, cols);
            let corner = Coord::new(rows as i32 - 1, cols as i32 - 1);
            let answer = std::panic::catch_unwind(move || {
                router.find_path(&cells, &[], Coord::new(0, 0), corner)
            });
            match answer {
                Ok(path) => path.is_some(),
                Err(panic) => {
                    let message = panic.downcast_ref::<String>().expect("a message");
                    assert!(message.contains("too large to route"), "{message}");
                    false
                }
            }
        };
        assert!(routes(21_844, 1, 65_535));
        assert!(!routes(21_844, 1, 65_536));
        assert!(!routes(21_845, 1, 65_535));
        assert!(routes(MAX_PENALTY_WEIGHT, 357, 357));
        assert!(!routes(MAX_PENALTY_WEIGHT, 358, 358));
    }

    #[test]
    fn counters_merge_fieldwise() {
        let a = RouteCounters { arena_reuses: 1 };
        let b = RouteCounters { arena_reuses: 10 };
        assert_eq!(a.merged(b).arena_reuses, 11);
    }
}
