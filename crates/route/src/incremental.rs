//! The incremental routing engine: reusable search state for the compile
//! hot path.
//!
//! The seed implementation re-ran a full [`find_path`] with freshly
//! allocated `HashMap`/`BinaryHeap` state for every routed operation — the
//! dominant cost of the map stage. This module rebuilds that hot path
//! around three pieces:
//!
//! * [`CellGrid`] — the compiler engine's occupancy: one row-major `u32`
//!   per cell (the qubit holding it, or a free sentinel) inside a one-cell
//!   border of off-grid sentinels. A neighbour of any on-grid cell is one
//!   index offset away and never out of the buffer, so the search kernels
//!   relax a cell with one load: no `Coord`, no bounds check, no division.
//!   Paired with a query's few extra-blocked cells, the grid is an
//!   [`Occupancy`] for the seed functions.
//! * [`SearchArena`] — distance/visited/parent buffers over the padded
//!   cells, *generation-stamped* so resetting between searches is O(1)
//!   instead of O(cells), plus a bucket-queue (Dial) specialisation of
//!   Dijkstra for the small integer penalty domain. The same buffers back
//!   the breadth-first push chains of the space-search helpers. The arena
//!   owns every scratch buffer a search uses (buckets, the level being
//!   drained, the BFS queue, the push chains as padded indices) and keeps
//!   them across searches, so a warmed-up search allocates only the result
//!   it returns, at its exact length.
//! * [`Router`] — the facade the compiler engine drives. It owns the arena
//!   and counts its own activity ([`RouteCounters`]). In
//!   [`RouterMode::Reference`] every query is answered by the seed
//!   implementations instead — the hook the differential test harness and
//!   the bench baseline use.
//!
//! **Cost-only queries.** [`Router::path_cost`] and
//! [`Router::space_search_cost`] run the same searches as
//! [`Router::find_path`] and [`Router::space_search`] but return only the
//! cost, allocating nothing. The CNOT look-ahead scores its candidates with
//! them; because the searches are the same, the arena's reuse counter and
//! every routed schedule are unchanged by which of the two a caller uses.
//!
//! **Tie-breaking invariant:** every query through the incremental engine
//! returns results *byte-identical* to the seed functions
//! ([`find_path`], [`clear_cell_plan`], [`space_search`]) on the same
//! state. Padded indices sort exactly like row-major `(row, col)` pairs,
//! and the neighbour offsets run in the seed's N/S/W/E order, so every
//! queue drains in the seed's order. `tests/route_differential.rs`
//! enforces this path-for-path (cost, cells, tie-breaks) across random
//! layouts, occupancy patterns and degenerate grid shapes.

use crate::dijkstra::{find_path, CostModel, Occupancy, Path};
use crate::space::{clear_cell_plan, space_search, SpacePlan};
use ftqc_arch::{Coord, Grid};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Largest bucket ring the Dial queue will allocate. Edge weights are
/// `1 + penalty_weight`, so penalty weights up to `MAX_BUCKET_RING - 2`
/// are bucketed; beyond that the arena falls back to the seed binary-heap
/// search (still byte-identical, just not bucketed).
const MAX_BUCKET_RING: usize = 4096;

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

    /// Whether `c` lies on the grid (not on the border or beyond).
    #[inline]
    fn in_bounds(&self, c: Coord) -> bool {
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

/// The grid paired with the extra cells a query may not enter: the view the
/// seed functions route over. Off-grid cells are blocked and never
/// occupied.
impl Occupancy for (&CellGrid, &[Coord]) {
    fn is_blocked(&self, c: Coord) -> bool {
        !self.0.in_bounds(c) || self.1.contains(&c)
    }
    fn is_occupied(&self, c: Coord) -> bool {
        self.0.occupant(c).is_some()
    }
}

/// Per-router activity counters, surfaced through compiler `Metrics`, the
/// CLI's `--explain` report, `/v1/cache/stats`, and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Reusable search state for one grid shape, indexed like a [`CellGrid`].
///
/// # Invariants
///
/// * A cell's `dist`/`prev` slots are meaningful only when its `stamp`
///   equals the arena's current `generation`; bumping the generation is
///   the O(1) whole-arena reset.
/// * Buffers are sized to the padded `(rows + 2) * (cols + 2)` cells of the
///   last grid seen; searching a different shape reallocates (and does not
///   count as a reuse).
/// * The arena owns every scratch buffer a search needs: the Dial buckets
///   and the level being drained (`batch`), the breadth-first `queue`, and
///   the push chains (`chain`, and `best_chain` for the space search's
///   current winner). They keep their capacity across searches, so a
///   search allocates nothing once they have grown to the grid's needs;
///   only the results a caller keeps ([`Path`] cells, clearing moves) are
///   allocated, each at its exact length.
/// * A query's extra-blocked cells are stamped before it starts: as settled
///   at distance 0 for the Dijkstra (no relaxation beats 0, so nothing
///   enters them, except `to`, which is left unstamped), and as visited for
///   the breadth-first chains. Border cells are skipped by their off-grid
///   value, so neither needs a bounds or set-membership probe per
///   relaxation.
/// * The Dial bucket ring holds only distances in `[d, d + ring)` while
///   level `d` drains — guaranteed because every edge weight is in
///   `1..=1 + penalty_weight` and `ring = penalty_weight + 2`. Every bucket
///   is empty between searches.
/// * Within one distance level, cells drain in ascending padded index
///   order. The padded index `(row + 1) * (cols + 2) + col + 1` grows with
///   `(row, col)` exactly as the row-major index does, so this is the
///   `(d, row, col)` order of the seed binary heap, which is what keeps
///   parent choices (and therefore paths) identical.
/// * A push chain is stored free cell first: `chain[0]` is the free cell
///   the search reached, the last entry its start, and every entry but the
///   first holds a qubit (the search only walks through occupied cells).
/// * The cost-only queries ([`SearchArena::path_cost`],
///   [`SearchArena::space_search_cost`]) run exactly the searches of their
///   full counterparts and skip only building the result, so they count
///   the same reuses and report the same costs.
#[derive(Debug, Default)]
pub struct SearchArena {
    rows: u32,
    cols: u32,
    generation: u32,
    stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    batch: Vec<u32>,
    queue: VecDeque<u32>,
    chain: Vec<u32>,
    best_chain: Vec<u32>,
    reuses: u64,
}

/// The Dial bucket ring for `cost`, or `None` when its penalty weight is
/// too large for one (the seed search answers those).
fn bucket_ring(cost: &CostModel) -> Option<usize> {
    match usize::try_from(cost.penalty_weight) {
        Ok(w) if w <= MAX_BUCKET_RING - 2 => Some(w + 2),
        _ => None,
    }
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

impl SearchArena {
    /// An empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches served by reusing the buffers (no reallocation).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Prepares the arena for a search on `cells`: O(1) generation bump
    /// when the shape matches, reallocation otherwise.
    fn reset(&mut self, cells: &CellGrid) {
        let len = cells.cells.len();
        if self.rows != cells.rows || self.cols != cells.cols || self.stamp.len() != len {
            self.rows = cells.rows;
            self.cols = cells.cols;
            self.stamp = vec![0; len];
            self.dist = vec![0; len];
            self.prev = vec![0; len];
            self.generation = 1;
            return;
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.reuses += 1;
    }

    /// Bucket-queue Dijkstra, byte-identical to [`find_path`] over
    /// `(cells, blocked)`. `grid` is the layout grid `cells` mirrors; only
    /// the fallback for huge penalty weights reads it.
    pub fn find_path(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
        cost: &CostModel,
    ) -> Option<Path> {
        let Some(ring) = bucket_ring(cost) else {
            return find_path(grid, &(cells, blocked), from, to, cost);
        };
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
        self.dial(cells, blocked, from, to, cost.penalty_weight, ring)
            .then(|| self.path(cells, from, to))
    }

    /// The cost of [`SearchArena::find_path`]'s path (the same search),
    /// without building the path.
    pub fn path_cost(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
        cost: &CostModel,
    ) -> Option<u64> {
        let Some(ring) = bucket_ring(cost) else {
            return find_path(grid, &(cells, blocked), from, to, cost).map(|p| p.cost);
        };
        if !cells.in_bounds(from) || !cells.in_bounds(to) {
            return None;
        }
        if from == to {
            return Some(0);
        }
        self.dial(cells, blocked, from, to, cost.penalty_weight, ring)
            .then(|| self.dist[cells.index(to)])
    }

    /// Runs the bucket-queue search from `from` until `to` settles, over
    /// distinct on-grid endpoints; returns whether `to` was reached. On
    /// success the `prev` chain from `to` leads back to `from` and
    /// `dist[to]` holds the path cost.
    fn dial(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
        penalty: u64,
        ring: usize,
    ) -> bool {
        self.reset(cells);
        if self.buckets.len() < ring {
            self.buckets.resize_with(ring, Vec::new);
        }

        let generation = self.generation;
        let from_i = cells.index(from);
        let to_i = cells.index(to);
        for &b in blocked {
            if cells.in_bounds(b) && b != to {
                let i = cells.index(b);
                self.stamp[i] = generation;
                self.dist[i] = 0;
            }
        }
        self.stamp[from_i] = generation;
        self.dist[from_i] = 0;
        self.buckets[0].push(from_i as u32);
        let offsets = cells.neighbour_offsets();
        let mut pending = 1usize;
        let mut d: u64 = 0;
        let mut batch = std::mem::take(&mut self.batch);
        let mut reached = false;

        'levels: while pending > 0 {
            let slot = (d % ring as u64) as usize;
            if !self.buckets[slot].is_empty() {
                std::mem::swap(&mut batch, &mut self.buckets[slot]);
                // Seed heap order for equal distances is (row, col) — i.e.
                // ascending padded index.
                batch.sort_unstable();
                for &ui in &batch {
                    pending -= 1;
                    let ui = ui as usize;
                    if ui == to_i {
                        reached = true;
                        break 'levels;
                    }
                    if self.dist[ui] < d {
                        continue; // superseded by a shorter push
                    }
                    for off in offsets {
                        let vi = ui.wrapping_add(off);
                        let holder = cells.cells[vi];
                        if holder == OFF_GRID {
                            continue;
                        }
                        let nd = d + 1 + if holder == FREE { 0 } else { penalty };
                        if self.stamp[vi] != generation || nd < self.dist[vi] {
                            self.stamp[vi] = generation;
                            self.dist[vi] = nd;
                            self.prev[vi] = ui as u32;
                            self.buckets[(nd % ring as u64) as usize].push(vi as u32);
                            pending += 1;
                        }
                    }
                }
                batch.clear();
            }
            d += 1;
        }
        batch.clear();
        self.batch = batch;
        // Leftover entries (early exit) must not leak into the next search.
        for b in &mut self.buckets[..ring] {
            b.clear();
        }
        reached || self.stamp[to_i] == generation
    }

    /// The path `from ..= to` read back from the `prev` chain of the last
    /// search, allocated at its exact length.
    fn path(&self, cells: &CellGrid, from: Coord, to: Coord) -> Path {
        let (from_i, to_i) = (cells.index(from), cells.index(to));
        let mut length = 0usize;
        let mut occupied = 0u32;
        let mut cur = to_i;
        while cur != from_i {
            length += 1;
            occupied += u32::from(cells.cells[cur] != FREE);
            cur = self.prev[cur] as usize;
        }
        let mut path = vec![from; length + 1];
        let mut cur = to_i;
        for slot in path[1..].iter_mut().rev() {
            *slot = cells.coord(cur);
            cur = self.prev[cur] as usize;
        }
        Path {
            length: length as u32,
            occupied,
            cost: self.dist[to_i],
            cells: path,
        }
    }

    /// Arena-backed BFS push-chain from the on-grid `start` to the nearest
    /// free cell (the core of [`clear_cell_plan`]/[`space_search`]),
    /// byte-identical to the seed's `path_to_nearest_free`. On success the
    /// chain is left in `self.chain`, free cell first. The `blocked` and
    /// `avoid` cells are stamped visited up front, so their order and any
    /// repeats do not matter.
    fn chain_to_nearest_free(
        &mut self,
        cells: &CellGrid,
        start: Coord,
        blocked: &[Coord],
        avoid: &[Coord],
    ) -> bool {
        self.reset(cells);
        let generation = self.generation;
        self.queue.clear();
        for &a in blocked.iter().chain(avoid) {
            if cells.in_bounds(a) {
                self.stamp[cells.index(a)] = generation;
            }
        }
        let start_i = cells.index(start);
        self.stamp[start_i] = generation;
        self.queue.push_back(start_i as u32);
        let offsets = cells.neighbour_offsets();
        while let Some(ui) = self.queue.pop_front() {
            for off in offsets {
                let vi = (ui as usize).wrapping_add(off);
                let holder = cells.cells[vi];
                if holder == OFF_GRID || self.stamp[vi] == generation {
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
                self.stamp[vi] = generation;
                self.queue.push_back(vi as u32);
            }
        }
        false
    }

    /// Arena-backed [`clear_cell_plan`] (identical results): `avoid` is
    /// the seed's set as a slice of cells — a few cells in practice, in any
    /// order, repeats allowed.
    pub fn clear_cell_plan(
        &mut self,
        cells: &CellGrid,
        cell: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<(Coord, Coord)>> {
        cells.occupant(cell)?;
        self.chain_to_nearest_free(cells, cell, &[], avoid)
            .then(|| chain_moves(cells, &self.chain))
    }

    /// Arena-backed [`space_search`] over `(cells, blocked)` (identical
    /// results): one stamped frontier per neighbour probe instead of
    /// freshly allocated scan state, and clearing moves built for the
    /// winning neighbour only.
    pub fn space_search(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<SpacePlan> {
        let (ancilla, cost) = self.cheapest_ancilla(cells, blocked, target)?;
        let clearing_moves = if cost == 0 {
            Vec::new()
        } else {
            chain_moves(cells, &self.best_chain)
        };
        Some(SpacePlan {
            ancilla,
            clearing_moves,
        })
    }

    /// The cost of [`SearchArena::space_search`]'s plan (the same
    /// searches), without building its moves.
    pub fn space_search_cost(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<usize> {
        self.cheapest_ancilla(cells, blocked, target)
            .map(|(_, cost)| cost)
    }

    /// The space search's pick: the first neighbour of `target` that is
    /// free, else the first whose push chain is shortest, with its clearing
    /// cost (the chain's occupants). An occupied pick's chain is left in
    /// `self.best_chain`.
    fn cheapest_ancilla(
        &mut self,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<(Coord, usize)> {
        let occ = (cells, blocked);
        let mut best: Option<(Coord, usize)> = None;
        for n in target.neighbours() {
            if occ.is_blocked(n) {
                continue;
            }
            if !occ.is_occupied(n) {
                return Some((n, 0));
            }
            if self.chain_to_nearest_free(cells, n, blocked, &[target]) {
                let cost = self.chain.len() - 1;
                if best.is_none_or(|(_, b)| cost < b) {
                    best = Some((n, cost));
                    std::mem::swap(&mut self.chain, &mut self.best_chain);
                }
            }
        }
        best
    }
}

/// Which implementation a [`Router`] answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterMode {
    /// Arena + bucket queue (the production hot path).
    Incremental,
    /// The seed implementations, query for query — the baseline the
    /// differential tests and benches compare against.
    Reference,
}

/// The incremental routing facade the compiler engine drives.
///
/// The router owns the [`SearchArena`] and counts its own activity. All
/// query methods take the layout `grid`, the engine's [`CellGrid`] over it
/// and, where the seed function has one, the extra cells the query may not
/// enter. They return results byte-identical to the corresponding seed
/// functions; in [`RouterMode::Reference`] they *are* the seed functions.
#[derive(Debug)]
pub struct Router {
    mode: RouterMode,
    cost: CostModel,
    arena: SearchArena,
}

impl Router {
    /// A router for searches under `cost`, with a fresh arena.
    pub fn new(cost: CostModel, mode: RouterMode) -> Self {
        Router {
            mode,
            cost,
            arena: SearchArena::new(),
        }
    }

    /// The router's mode.
    pub fn mode(&self) -> RouterMode {
        self.mode
    }

    /// The cost model queries run under.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Minimum-cost path from `from` to `to`, never entering `blocked`
    /// cells other than `to` (see [`find_path`]).
    pub fn find_path(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
    ) -> Option<Path> {
        match self.mode {
            RouterMode::Reference => find_path(grid, &(cells, blocked), from, to, &self.cost),
            RouterMode::Incremental => self
                .arena
                .find_path(grid, cells, blocked, from, to, &self.cost),
        }
    }

    /// The cost of [`Router::find_path`]'s path, found by the same search
    /// without building the path.
    pub fn path_cost(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        blocked: &[Coord],
        from: Coord,
        to: Coord,
    ) -> Option<u64> {
        match self.mode {
            RouterMode::Reference => {
                find_path(grid, &(cells, blocked), from, to, &self.cost).map(|p| p.cost)
            }
            RouterMode::Incremental => self
                .arena
                .path_cost(grid, cells, blocked, from, to, &self.cost),
        }
    }

    /// Push-chain plan freeing `cell` (see [`clear_cell_plan`]), never
    /// entering the `avoid` cells.
    pub fn clear_cell_plan(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        cell: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<(Coord, Coord)>> {
        match self.mode {
            RouterMode::Reference => clear_cell_plan(
                grid,
                &(cells, &[] as &[Coord]),
                cell,
                &avoid.iter().copied().collect(),
            ),
            RouterMode::Incremental => self.arena.clear_cell_plan(cells, cell, avoid),
        }
    }

    /// Cheapest free-ancilla plan around `target`, never entering
    /// `blocked` cells (see [`space_search`]).
    pub fn space_search(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<SpacePlan> {
        match self.mode {
            RouterMode::Reference => space_search(grid, &(cells, blocked), target),
            RouterMode::Incremental => self.arena.space_search(cells, blocked, target),
        }
    }

    /// The cost (clearing moves) of [`Router::space_search`]'s plan, found
    /// by the same searches without building the moves.
    pub fn space_search_cost(
        &mut self,
        grid: &Grid,
        cells: &CellGrid,
        blocked: &[Coord],
        target: Coord,
    ) -> Option<usize> {
        match self.mode {
            RouterMode::Reference => {
                space_search(grid, &(cells, blocked), target).map(|p| p.cost())
            }
            RouterMode::Incremental => self.arena.space_search_cost(cells, blocked, target),
        }
    }

    /// The router's activity so far.
    pub fn counters(&self) -> RouteCounters {
        RouteCounters {
            arena_reuses: self.arena.reuses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::CellKind;
    use std::collections::HashSet;

    struct SetOcc {
        blocked: HashSet<Coord>,
        occupied: HashSet<Coord>,
    }

    impl Occupancy for SetOcc {
        fn is_blocked(&self, c: Coord) -> bool {
            self.blocked.contains(&c)
        }
        fn is_occupied(&self, c: Coord) -> bool {
            self.occupied.contains(&c)
        }
    }

    fn occ_of(occupied: &[Coord], blocked: &[Coord]) -> SetOcc {
        SetOcc {
            blocked: blocked.iter().copied().collect(),
            occupied: occupied.iter().copied().collect(),
        }
    }

    /// The arena's view of the same state: `occupied` cells hold qubits.
    fn cells_of(g: &Grid, occupied: &[Coord]) -> CellGrid {
        let mut cells = CellGrid::new(g.rows(), g.cols());
        for (q, &c) in occupied.iter().enumerate() {
            cells.place(c, q as u32);
        }
        cells
    }

    fn grid(rows: u32, cols: u32) -> Grid {
        Grid::filled(rows, cols, CellKind::Bus)
    }

    /// Deterministic pseudo-random state for the in-crate sweeps.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

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
            assert!((&cells, &[] as &[Coord]).is_blocked(off));
        }
        cells.vacate(Coord::new(1, 2));
        assert_eq!(cells, CellGrid::new(2, 3));
    }

    #[test]
    fn arena_matches_seed_find_path_on_random_states() {
        let mut seed = 0x5eed;
        let mut arena = SearchArena::new();
        for case in 0..200 {
            let rows = 3 + (lcg(&mut seed) % 8) as u32;
            let cols = 3 + (lcg(&mut seed) % 8) as u32;
            let g = grid(rows, cols);
            let mut occupied = Vec::new();
            let mut blocked = Vec::new();
            for c in g.coords() {
                match lcg(&mut seed) % 10 {
                    0..=2 => occupied.push(c),
                    3 => blocked.push(c),
                    _ => {}
                }
            }
            let occ = occ_of(&occupied, &blocked);
            let cells = cells_of(&g, &occupied);
            let from = Coord::new(
                (lcg(&mut seed) % rows as u64) as i32,
                (lcg(&mut seed) % cols as u64) as i32,
            );
            let to = Coord::new(
                (lcg(&mut seed) % rows as u64) as i32,
                (lcg(&mut seed) % cols as u64) as i32,
            );
            let cost = CostModel {
                penalty_weight: lcg(&mut seed) % 9,
            };
            let reference = find_path(&g, &occ, from, to, &cost);
            let incremental = arena.find_path(&g, &cells, &blocked, from, to, &cost);
            assert_eq!(reference, incremental, "case {case}: {from} -> {to}");
        }
        assert!(arena.reuses() > 0, "same-shape searches reuse the arena");
    }

    #[test]
    fn arena_matches_seed_bfs_helpers() {
        let mut seed = 0xbf5;
        let mut arena = SearchArena::new();
        for _ in 0..200 {
            let g = grid(6, 6);
            let mut occupied = Vec::new();
            let mut blocked = Vec::new();
            for c in g.coords() {
                match lcg(&mut seed) % 5 {
                    0..=1 => occupied.push(c),
                    2 => blocked.push(c),
                    _ => {}
                }
            }
            let occ = occ_of(&occupied, &blocked);
            let cells = cells_of(&g, &occupied);
            let at = Coord::new((lcg(&mut seed) % 6) as i32, (lcg(&mut seed) % 6) as i32);
            assert_eq!(
                space_search(&g, &occ, at),
                arena.space_search(&cells, &blocked, at)
            );
            // The seed's blocked cells and its avoid set both stay out of
            // the chain, so the arena takes them as one avoid list.
            let avoid: HashSet<Coord> = [at].into_iter().collect();
            let mut avoid_all = blocked.clone();
            avoid_all.push(at);
            let cell = Coord::new((lcg(&mut seed) % 6) as i32, (lcg(&mut seed) % 6) as i32);
            assert_eq!(
                clear_cell_plan(&g, &occ, cell, &avoid),
                arena.clear_cell_plan(&cells, cell, &avoid_all)
            );
        }
    }

    #[test]
    fn huge_penalty_falls_back_to_seed_search() {
        let g = grid(5, 5);
        let (from, to) = (Coord::new(0, 0), Coord::new(4, 4));
        let occ = occ_of(&[Coord::new(2, 2)], &[]);
        let cells = cells_of(&g, &[Coord::new(2, 2)]);
        let cost = CostModel {
            penalty_weight: u64::MAX / 4,
        };
        let mut arena = SearchArena::new();
        let expected = find_path(&g, &occ, from, to, &cost);
        assert_eq!(arena.find_path(&g, &cells, &[], from, to, &cost), expected);
        assert_eq!(
            arena.path_cost(&g, &cells, &[], from, to, &cost),
            expected.map(|p| p.cost)
        );
        // The largest weight: the ring guard must not overflow. (Nothing is
        // occupied, so the seed search's own sums stay in range.)
        let empty = cells_of(&g, &[]);
        let cost = CostModel {
            penalty_weight: u64::MAX,
        };
        let expected = find_path(&g, &occ_of(&[], &[]), from, to, &cost);
        assert_eq!(expected.as_ref().map(|p| p.cost), Some(8));
        assert_eq!(arena.find_path(&g, &empty, &[], from, to, &cost), expected);
        assert_eq!(arena.path_cost(&g, &empty, &[], from, to, &cost), Some(8));
    }

    #[test]
    fn router_modes_agree_and_only_incremental_counts() {
        let g = grid(5, 5);
        let cells = cells_of(&g, &[Coord::new(1, 1), Coord::new(2, 3)]);
        let (from, to) = (Coord::new(0, 0), Coord::new(4, 4));
        let mut incremental = Router::new(CostModel::default(), RouterMode::Incremental);
        let mut reference = Router::new(CostModel::default(), RouterMode::Reference);
        for _ in 0..2 {
            assert_eq!(
                incremental.find_path(&g, &cells, &[], from, to),
                reference.find_path(&g, &cells, &[], from, to)
            );
        }
        assert_eq!(
            incremental.counters().arena_reuses,
            1,
            "second search reuses"
        );
        assert_eq!(reference.counters(), RouteCounters::default());
    }

    #[test]
    fn counters_merge_fieldwise() {
        let a = RouteCounters { arena_reuses: 1 };
        let b = RouteCounters { arena_reuses: 10 };
        assert_eq!(a.merged(b).arena_reuses, 11);
    }
}
