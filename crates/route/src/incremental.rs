//! The incremental routing engine: reusable search state for the compile
//! hot path.
//!
//! The seed implementation re-ran a full [`find_path`] with freshly
//! allocated `HashMap`/`BinaryHeap` state for every routed operation — the
//! dominant cost of the map stage. This module rebuilds that hot path
//! around two pieces:
//!
//! * [`SearchArena`] — distance/visited/parent buffers sized to the layout
//!   and *generation-stamped*, so resetting between searches is O(1)
//!   instead of O(cells), plus a bucket-queue (Dial) specialisation of
//!   Dijkstra for the small integer penalty domain. The same buffers back
//!   the breadth-first frontiers of the space-search helpers.
//! * [`Router`] — the facade the compiler engine drives. It owns the arena
//!   and counts its own activity ([`RouteCounters`]). In
//!   [`RouterMode::Reference`] every query is answered by the seed
//!   implementations instead — the hook the differential test harness and
//!   the bench baseline use.
//!
//! **Tie-breaking invariant:** every query through the incremental engine
//! returns results *byte-identical* to the seed functions
//! ([`find_path`], [`nearest_free_cell`], [`clear_cell_plan`],
//! [`space_search`]) on the same state. `tests/route_differential.rs`
//! enforces this path-for-path (cost, cells, tie-breaks) across random
//! layouts and occupancy patterns.

use crate::dijkstra::{find_path, CostModel, Occupancy, Path};
use crate::space::{clear_cell_plan, nearest_free_cell, space_search, SpacePlan};
use ftqc_arch::{Coord, Grid};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Largest bucket ring the Dial queue will allocate. Edge weights are
/// `1 + penalty_weight`; beyond this bound the arena falls back to the
/// seed binary-heap search (still byte-identical, just not bucketed).
const MAX_BUCKET_RING: usize = 4096;

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

/// Reusable search state for one grid shape.
///
/// # Invariants
///
/// * A cell's `dist`/`prev` slots are meaningful only when its `stamp`
///   equals the arena's current `generation`; bumping the generation is
///   the O(1) whole-arena reset.
/// * Buffers are sized to `rows * cols` of the last grid seen; searching a
///   different shape reallocates (and does not count as a reuse).
/// * The Dial bucket ring holds only distances in `[d, d + ring)` while
///   level `d` drains — guaranteed because every edge weight is in
///   `1..=1 + penalty_weight` and `ring = penalty_weight + 2`.
/// * Within one distance level, cells drain in ascending row-major index
///   order — exactly the `(d, row, col)` order of the seed binary heap,
///   which is what keeps parent choices (and therefore paths) identical.
#[derive(Debug, Default)]
pub struct SearchArena {
    rows: i32,
    cols: i32,
    generation: u32,
    stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    last_ring: usize,
    queue: VecDeque<u32>,
    reuses: u64,
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

    /// Prepares the arena for a search on `grid`: O(1) generation bump
    /// when the shape matches, reallocation otherwise.
    fn reset(&mut self, grid: &Grid) {
        let (rows, cols) = (grid.rows() as i32, grid.cols() as i32);
        let cells = (rows as usize) * (cols as usize);
        if self.rows != rows || self.cols != cols || self.stamp.len() != cells {
            self.rows = rows;
            self.cols = cols;
            self.stamp = vec![0; cells];
            self.dist = vec![0; cells];
            self.prev = vec![0; cells];
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

    #[inline]
    fn index(&self, c: Coord) -> usize {
        c.row as usize * self.cols as usize + c.col as usize
    }

    #[inline]
    fn coord(&self, i: u32) -> Coord {
        Coord::new(i as i32 / self.cols, i as i32 % self.cols)
    }

    #[inline]
    fn visited(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Bucket-queue Dijkstra, byte-identical to [`find_path`].
    pub fn find_path(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
        to: Coord,
        cost: &CostModel,
    ) -> Option<Path> {
        let ring = match usize::try_from(cost.penalty_weight) {
            Ok(w) if w + 2 <= MAX_BUCKET_RING => w + 2,
            // Penalty weights outside the small integer domain: the bucket
            // ring would be huge, so use the seed search (same result).
            _ => return find_path(grid, occ, from, to, cost),
        };
        if !grid.in_bounds(from) || !grid.in_bounds(to) {
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
        self.reset(grid);
        if self.buckets.len() < ring {
            self.buckets.resize_with(ring, Vec::new);
        }
        let clear_to = self.last_ring.max(ring).min(self.buckets.len());
        for b in &mut self.buckets[..clear_to] {
            b.clear();
        }
        self.last_ring = ring;

        let generation = self.generation;
        let from_i = self.index(from) as u32;
        let to_i = self.index(to) as u32;
        self.stamp[from_i as usize] = generation;
        self.dist[from_i as usize] = 0;
        self.buckets[0].push(from_i);
        let mut pending = 1usize;
        let mut d: u64 = 0;
        let mut batch: Vec<u32> = Vec::new();
        let mut reached = false;

        'levels: while pending > 0 {
            let slot = (d % ring as u64) as usize;
            if !self.buckets[slot].is_empty() {
                std::mem::swap(&mut batch, &mut self.buckets[slot]);
                // Seed heap order for equal distances is (row, col) — i.e.
                // ascending row-major index.
                batch.sort_unstable();
                for &ui in &batch {
                    pending -= 1;
                    if ui == to_i {
                        reached = true;
                        break 'levels;
                    }
                    if self.dist[ui as usize] < d {
                        continue; // superseded by a shorter push
                    }
                    let u = self.coord(ui);
                    for v in u.neighbours() {
                        if !grid.in_bounds(v) {
                            continue;
                        }
                        if v != to && occ.is_blocked(v) {
                            continue;
                        }
                        let step = 1 + if occ.is_occupied(v) {
                            cost.penalty_weight
                        } else {
                            0
                        };
                        let nd = d + step;
                        let vi = self.index(v);
                        let dv = if self.visited(vi) {
                            self.dist[vi]
                        } else {
                            u64::MAX
                        };
                        if nd < dv {
                            self.stamp[vi] = generation;
                            self.dist[vi] = nd;
                            self.prev[vi] = ui;
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
        // Leftover entries (early exit) must not leak into the next search.
        for b in &mut self.buckets[..ring] {
            b.clear();
        }

        if !reached && !self.visited(to_i as usize) {
            return None;
        }
        let total = self.dist[to_i as usize];
        let mut cells = vec![to];
        let mut cur = to_i;
        while cur != from_i {
            cur = self.prev[cur as usize];
            cells.push(self.coord(cur));
        }
        cells.reverse();
        let occupied = cells[1..].iter().filter(|&&c| occ.is_occupied(c)).count() as u32;
        Some(Path {
            length: (cells.len() - 1) as u32,
            occupied,
            cost: total,
            cells,
        })
    }

    /// Arena-backed breadth-first search for the nearest free cell,
    /// byte-identical to [`nearest_free_cell`]: the frontier queue and the
    /// visited stamps are reused instead of re-scanned/re-allocated per
    /// call.
    pub fn nearest_free_cell(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
    ) -> Option<Coord> {
        if !grid.in_bounds(from) {
            return None;
        }
        self.reset(grid);
        let generation = self.generation;
        self.queue.clear();
        let from_i = self.index(from) as u32;
        self.stamp[from_i as usize] = generation;
        self.queue.push_back(from_i);
        while let Some(ui) = self.queue.pop_front() {
            let u = self.coord(ui);
            for v in u.neighbours() {
                if !grid.in_bounds(v) {
                    continue;
                }
                let vi = self.index(v);
                if self.stamp[vi] == generation || occ.is_blocked(v) {
                    continue;
                }
                if !occ.is_occupied(v) {
                    return Some(v);
                }
                self.stamp[vi] = generation;
                self.queue.push_back(vi as u32);
            }
        }
        None
    }

    /// Arena-backed BFS push-chain to the nearest free cell (the core of
    /// [`clear_cell_plan`]/[`space_search`]), byte-identical to the seed's
    /// `path_to_nearest_free`. The `avoid` cells are stamped visited up
    /// front, so their order and any repeats do not matter.
    fn chain_to_nearest_free(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        start: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<Coord>> {
        self.reset(grid);
        let generation = self.generation;
        self.queue.clear();
        for &a in avoid {
            if grid.in_bounds(a) {
                let i = self.index(a);
                self.stamp[i] = generation;
            }
        }
        let start_i = self.index(start) as u32;
        self.stamp[start_i as usize] = generation;
        self.queue.push_back(start_i);
        while let Some(ui) = self.queue.pop_front() {
            let u = self.coord(ui);
            for v in u.neighbours() {
                if !grid.in_bounds(v) {
                    continue;
                }
                let vi = self.index(v);
                if self.stamp[vi] == generation || occ.is_blocked(v) {
                    continue;
                }
                self.prev[vi] = ui;
                if !occ.is_occupied(v) {
                    let mut path = vec![v];
                    let mut cur = vi as u32;
                    while cur != start_i {
                        cur = self.prev[cur as usize];
                        path.push(self.coord(cur));
                    }
                    path.reverse();
                    return Some(path);
                }
                self.stamp[vi] = generation;
                self.queue.push_back(vi as u32);
            }
        }
        None
    }

    /// Arena-backed [`clear_cell_plan`] (identical results): `avoid` is
    /// the seed's set as a slice of cells — a few cells in practice, in any
    /// order, repeats allowed.
    pub fn clear_cell_plan(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        cell: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<(Coord, Coord)>> {
        if !occ.is_occupied(cell) {
            return None;
        }
        let chain = self.chain_to_nearest_free(grid, occ, cell, avoid)?;
        Some(crate::space::moves_from_chain(&chain, occ))
    }

    /// Arena-backed [`space_search`] (identical results): the nearest-free
    /// frontier is reused across the four neighbour probes instead of
    /// re-allocating per-call scan state.
    pub fn space_search(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        target: Coord,
    ) -> Option<SpacePlan> {
        let mut best: Option<SpacePlan> = None;
        for n in target.neighbours() {
            if !grid.in_bounds(n) || occ.is_blocked(n) {
                continue;
            }
            if !occ.is_occupied(n) {
                return Some(SpacePlan {
                    ancilla: n,
                    clearing_moves: Vec::new(),
                });
            }
            if let Some(chain) = self.chain_to_nearest_free(grid, occ, n, &[target]) {
                let plan = SpacePlan {
                    ancilla: n,
                    clearing_moves: crate::space::moves_from_chain(&chain, occ),
                };
                if best.as_ref().is_none_or(|b| plan.cost() < b.cost()) {
                    best = Some(plan);
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

/// Pluggable path/space planning — the seam that lets
/// [`best_cnot_config`](crate::moves::best_cnot_config) run identically
/// over the seed functions or a [`Router`].
pub trait RoutePlanner {
    /// Minimum-cost path from `from` to `to` (see [`find_path`]).
    fn plan_path(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
        to: Coord,
    ) -> Option<Path>;

    /// Cheapest free-ancilla plan around `target` (see [`space_search`]).
    fn plan_space(&mut self, grid: &Grid, occ: &impl Occupancy, target: Coord)
        -> Option<SpacePlan>;
}

/// The seed planner: allocates per query. This is the reference behaviour
/// the incremental engine must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct SeedPlanner {
    /// Pathfinding cost parameters.
    pub cost: CostModel,
}

impl RoutePlanner for SeedPlanner {
    fn plan_path(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
        to: Coord,
    ) -> Option<Path> {
        find_path(grid, occ, from, to, &self.cost)
    }

    fn plan_space(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        target: Coord,
    ) -> Option<SpacePlan> {
        space_search(grid, occ, target)
    }
}

/// The incremental routing facade the compiler engine drives.
///
/// The router owns the [`SearchArena`] and counts its own activity. All
/// query methods return results byte-identical to the corresponding seed
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
        Router::with_arena(cost, mode, SearchArena::new())
    }

    /// A router warmed by an `arena` an earlier router handed back through
    /// [`Router::into_arena`] (an edit session re-threads one arena
    /// through every differential recompile). The reuse counter restarts
    /// from zero: counters describe one compile, not the arena's lifetime.
    pub fn with_arena(cost: CostModel, mode: RouterMode, mut arena: SearchArena) -> Self {
        arena.reuses = 0;
        Router { mode, cost, arena }
    }

    /// Detaches the warm arena for reuse by a later [`Router::with_arena`].
    pub fn into_arena(self) -> SearchArena {
        self.arena
    }

    /// The router's mode.
    pub fn mode(&self) -> RouterMode {
        self.mode
    }

    /// The cost model queries run under.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Minimum-cost path from `from` to `to` (see [`find_path`]).
    pub fn find_path(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
        to: Coord,
    ) -> Option<Path> {
        match self.mode {
            RouterMode::Reference => find_path(grid, occ, from, to, &self.cost),
            RouterMode::Incremental => self.arena.find_path(grid, occ, from, to, &self.cost),
        }
    }

    /// Nearest free cell (see [`nearest_free_cell`]).
    pub fn nearest_free_cell(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
    ) -> Option<Coord> {
        match self.mode {
            RouterMode::Reference => nearest_free_cell(grid, occ, from),
            RouterMode::Incremental => self.arena.nearest_free_cell(grid, occ, from),
        }
    }

    /// Push-chain plan freeing `cell` (see [`clear_cell_plan`]), never
    /// entering the `avoid` cells.
    pub fn clear_cell_plan(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        cell: Coord,
        avoid: &[Coord],
    ) -> Option<Vec<(Coord, Coord)>> {
        match self.mode {
            RouterMode::Reference => {
                clear_cell_plan(grid, occ, cell, &avoid.iter().copied().collect())
            }
            RouterMode::Incremental => self.arena.clear_cell_plan(grid, occ, cell, avoid),
        }
    }

    /// Cheapest free-ancilla plan around `target` (see [`space_search`]).
    pub fn space_search(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        target: Coord,
    ) -> Option<SpacePlan> {
        match self.mode {
            RouterMode::Reference => space_search(grid, occ, target),
            RouterMode::Incremental => self.arena.space_search(grid, occ, target),
        }
    }

    /// The router's activity so far.
    pub fn counters(&self) -> RouteCounters {
        RouteCounters {
            arena_reuses: self.arena.reuses(),
        }
    }
}

impl RoutePlanner for Router {
    fn plan_path(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
        to: Coord,
    ) -> Option<Path> {
        self.find_path(grid, occ, from, to)
    }

    fn plan_space(
        &mut self,
        grid: &Grid,
        occ: &impl Occupancy,
        target: Coord,
    ) -> Option<SpacePlan> {
        self.space_search(grid, occ, target)
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
            let incremental = arena.find_path(&g, &occ, from, to, &cost);
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
            let at = Coord::new((lcg(&mut seed) % 6) as i32, (lcg(&mut seed) % 6) as i32);
            assert_eq!(
                nearest_free_cell(&g, &occ, at),
                arena.nearest_free_cell(&g, &occ, at)
            );
            assert_eq!(space_search(&g, &occ, at), arena.space_search(&g, &occ, at));
            let avoid: HashSet<Coord> = [at].into_iter().collect();
            let cell = Coord::new((lcg(&mut seed) % 6) as i32, (lcg(&mut seed) % 6) as i32);
            assert_eq!(
                clear_cell_plan(&g, &occ, cell, &avoid),
                arena.clear_cell_plan(&g, &occ, cell, &[at])
            );
        }
    }

    #[test]
    fn huge_penalty_falls_back_to_seed_search() {
        let g = grid(5, 5);
        let occ = occ_of(&[Coord::new(2, 2)], &[]);
        let cost = CostModel {
            penalty_weight: u64::MAX / 4,
        };
        let mut arena = SearchArena::new();
        assert_eq!(
            arena.find_path(&g, &occ, Coord::new(0, 0), Coord::new(4, 4), &cost),
            find_path(&g, &occ, Coord::new(0, 0), Coord::new(4, 4), &cost),
        );
    }

    #[test]
    fn router_modes_agree_and_only_incremental_counts() {
        let g = grid(5, 5);
        let occ = occ_of(&[Coord::new(1, 1), Coord::new(2, 3)], &[]);
        let (from, to) = (Coord::new(0, 0), Coord::new(4, 4));
        let mut incremental = Router::new(CostModel::default(), RouterMode::Incremental);
        let mut reference = Router::new(CostModel::default(), RouterMode::Reference);
        for _ in 0..2 {
            assert_eq!(
                incremental.find_path(&g, &occ, from, to),
                reference.find_path(&g, &occ, from, to)
            );
        }
        assert_eq!(
            incremental.counters().arena_reuses,
            1,
            "second search reuses"
        );
        assert_eq!(reference.counters(), RouteCounters::default());

        // A warm arena carries its buffers, not its count.
        let warm = Router::with_arena(
            CostModel::default(),
            RouterMode::Incremental,
            incremental.into_arena(),
        );
        assert_eq!(warm.counters(), RouteCounters::default());
    }

    #[test]
    fn counters_merge_fieldwise() {
        let a = RouteCounters { arena_reuses: 1 };
        let b = RouteCounters { arena_reuses: 10 };
        assert_eq!(a.merged(b).arena_reuses, 11);
    }
}
