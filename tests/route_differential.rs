//! Differential test harness for the incremental routing engine.
//!
//! The incremental engine (the `SearchArena` bucket-queue Dijkstra behind
//! `Router`) must be **byte-identical** to the seed router: same costs,
//! same cells, same tie-breaks, op for op. This suite pins that at three
//! levels:
//!
//! 1. query level — the [`reference`] module keeps a verbatim copy of the
//!    seed Dijkstra (hash-map state, binary-heap queue); random layouts,
//!    occupancy patterns, and penalty weights must produce identical
//!    [`Path`]s from the reference, the arena, and the router, and the
//!    arena's padded grid must agree with the seed functions on every
//!    degenerate shape and border cell too, and the cost-only queries
//!    must return exactly the costs of the full queries' results;
//! 2. map level — `route_circuit` in [`RouterMode::Reference`] (the seed
//!    implementations, query for query) and [`RouterMode::Incremental`]
//!    must emit identical routed-op sequences across random circuits and
//!    all three built-in target presets;
//! 3. schedule level — scheduling the reference ops through the public
//!    pipeline pieces reproduces the compiled program's schedule
//!    byte-for-byte.

use ftqc::arch::{CellKind, Coord, Grid, TargetRegistry};
use ftqc::benchmarks::random_clifford_t;
use ftqc::compiler::timer::{time_ops, CostKind};
use ftqc::compiler::{
    eliminate_redundant_moves, route_circuit, CompileSession, CompilerOptions, RouterMode,
};
use ftqc::route::{CellGrid, CostModel, Occupancy, Path, Router, SearchArena};
use proptest::prelude::*;
use std::collections::HashSet;

/// The seed penalty-weighted Dijkstra, kept verbatim as the differential
/// reference (hash-map distances, binary-heap priority queue, `(d, row,
/// col)` tie-breaking). Any future edit to the shipping implementations
/// is judged against this.
mod reference {
    use ftqc::arch::{Coord, Grid};
    use ftqc::route::{CostModel, Occupancy, Path};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    pub fn find_path(
        grid: &Grid,
        occ: &impl Occupancy,
        from: Coord,
        to: Coord,
        cost: &CostModel,
    ) -> Option<Path> {
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
        let enter_cost =
            |occupied: bool| -> u64 { 1 + if occupied { cost.penalty_weight } else { 0 } };

        let mut dist: HashMap<Coord, u64> = HashMap::new();
        let mut prev: HashMap<Coord, Coord> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u64, i32, i32)>> = BinaryHeap::new();
        dist.insert(from, 0);
        heap.push(Reverse((0, from.row, from.col)));

        while let Some(Reverse((d, row, col))) = heap.pop() {
            let u = Coord::new(row, col);
            if u == to {
                break;
            }
            if dist.get(&u).copied().unwrap_or(u64::MAX) < d {
                continue; // stale heap entry
            }
            for v in u.neighbours() {
                if !grid.in_bounds(v) {
                    continue;
                }
                if v != to && occ.is_blocked(v) {
                    continue;
                }
                let nd = d + enter_cost(occ.is_occupied(v));
                if nd < dist.get(&v).copied().unwrap_or(u64::MAX) {
                    dist.insert(v, nd);
                    prev.insert(v, u);
                    heap.push(Reverse((nd, v.row, v.col)));
                }
            }
        }

        let total = *dist.get(&to)?;
        let mut cells = vec![to];
        let mut cur = to;
        while cur != from {
            cur = *prev.get(&cur)?;
            cells.push(cur);
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
}

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

/// The arena's input for `occ`: a padded grid whose occupied cells hold
/// qubits, plus the blocked cells as the query's extra-blocked list (in
/// row-major order).
fn padded(grid: &Grid, occ: &SetOcc) -> (CellGrid, Vec<Coord>) {
    let mut cells = CellGrid::new(grid.rows(), grid.cols());
    for (q, c) in grid.coords().filter(|&c| occ.is_occupied(c)).enumerate() {
        cells.place(c, q as u32);
    }
    let blocked = grid.coords().filter(|&c| occ.is_blocked(c)).collect();
    (cells, blocked)
}

/// A deterministic random occupancy state over `grid`: ~30% of cells hold
/// data qubits, ~10% are blocked.
fn random_state(grid: &Grid, seed: u64) -> SetOcc {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut occ = SetOcc {
        blocked: HashSet::new(),
        occupied: HashSet::new(),
    };
    for c in grid.coords() {
        match next() % 10 {
            0..=2 => {
                occ.occupied.insert(c);
            }
            3 => {
                occ.blocked.insert(c);
            }
            _ => {}
        }
    }
    occ
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reference, arena, and router agree path-for-path (cost, cells,
    /// tie-breaks) on random grids and occupancy patterns.
    #[test]
    fn incremental_queries_match_reference(
        rows in 3u32..10,
        cols in 3u32..10,
        seed in 0u64..10_000,
        penalty in 0u64..12,
        fr in 0i32..10,
        fc in 0i32..10,
        tr in 0i32..10,
        tc in 0i32..10,
    ) {
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        let occ = random_state(&grid, seed);
        let cost = CostModel { penalty_weight: penalty };
        let from = Coord::new(fr % rows as i32, fc % cols as i32);
        let to = Coord::new(tr % rows as i32, tc % cols as i32);

        let expected = reference::find_path(&grid, &occ, from, to, &cost);
        let (cells, blocked) = padded(&grid, &occ);

        let mut arena = SearchArena::new();
        prop_assert_eq!(&arena.find_path(&grid, &cells, &blocked, from, to, &cost), &expected);

        let mut router = Router::new(cost, RouterMode::Incremental);
        prop_assert_eq!(&router.find_path(&grid, &cells, &blocked, from, to), &expected);
    }

    /// The full map stage emits byte-identical routed programs under the
    /// reference and incremental routers, across random circuits and all
    /// three built-in target presets — and the scheduled programs match
    /// byte-for-byte too.
    #[test]
    fn routed_schedules_match_reference_across_targets(
        n in 2u32..9,
        gates in 1usize..60,
        seed in 0u64..500,
    ) {
        let circuit = random_clifford_t(n, gates, seed);
        for entry in TargetRegistry::builtin().entries() {
            let options = CompilerOptions::default().target(entry.spec.clone());
            let session = CompileSession::new(options.clone());
            let lowered = session
                .prepare(&circuit)
                .expect("prepare")
                .lower()
                .circuit()
                .clone();

            let incremental = route_circuit(&lowered, &options, RouterMode::Incremental)
                .expect("incremental map");
            let seed_router = route_circuit(&lowered, &options, RouterMode::Reference)
                .expect("reference map");

            prop_assert_eq!(
                incremental.ops.len(),
                seed_router.ops.len(),
                "{}: op counts diverge", entry.name
            );
            for (i, (a, b)) in incremental.ops.iter().zip(&seed_router.ops).enumerate() {
                prop_assert_eq!(a, b, "{}: op {} diverges", entry.name, i);
            }
            prop_assert_eq!(incremental.n_magic_states, seed_router.n_magic_states);
            prop_assert_eq!(incremental.factory_patches, seed_router.factory_patches);

            // Schedule level: the compiled program's schedule equals the
            // reference ops pushed through the same scheduling pipeline.
            let program = session
                .compile(&circuit)
                .expect("full compile");
            let mut ops = seed_router.ops.clone();
            if options.eliminate_redundant_moves {
                eliminate_redundant_moves(&mut ops);
            }
            let schedule = time_ops(
                &ops,
                lowered.num_qubits(),
                options.target.factories as usize,
                options.effective_schedule_timing(),
                CostKind::Realistic,
                options.target.unbounded_magic,
            );
            prop_assert_eq!(
                program.schedule().len(),
                schedule.len(),
                "{}: schedule lengths diverge", entry.name
            );
            for (i, (a, b)) in program
                .schedule()
                .iter()
                .zip(schedule.iter())
                .enumerate()
            {
                prop_assert_eq!(a, b, "{}: scheduled op {} diverges", entry.name, i);
            }
            prop_assert_eq!(program.schedule().makespan(), schedule.makespan());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cost-only queries return exactly the cost of the full queries'
    /// results, in both router modes: on the random states above and on
    /// the degenerate 1×N, N×1, 1×1 and 2×2 shapes.
    #[test]
    fn cost_only_queries_match_full_queries(
        shape in prop_oneof![
            (3u32..10, 3u32..10),
            (Just(1u32), 1u32..10),
            (1u32..10, Just(1u32)),
            Just((1u32, 1u32)),
            Just((2u32, 2u32)),
        ],
        seed in 0u64..10_000,
        penalty in 0u64..12,
        fr in 0i32..10,
        fc in 0i32..10,
        tr in 0i32..10,
        tc in 0i32..10,
    ) {
        let (rows, cols) = shape;
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        let occ = random_state(&grid, seed);
        let cost = CostModel { penalty_weight: penalty };
        let from = Coord::new(fr % rows as i32, fc % cols as i32);
        let to = Coord::new(tr % rows as i32, tc % cols as i32);
        let (cells, blocked) = padded(&grid, &occ);
        for mode in [RouterMode::Incremental, RouterMode::Reference] {
            let mut router = Router::new(cost, mode);
            let path = router.find_path(&grid, &cells, &blocked, from, to);
            prop_assert_eq!(
                router.path_cost(&grid, &cells, &blocked, from, to),
                path.map(|p| p.cost),
                "{:?} path_cost", mode
            );
            let plan = router.space_search(&grid, &cells, &blocked, to);
            prop_assert_eq!(
                router.space_search_cost(&grid, &cells, &blocked, to),
                plan.map(|p| p.cost()),
                "{:?} space_search_cost", mode
            );
        }
    }
}

/// The arena-frontier space search (reused stamped buffers instead of
/// per-call scan state) picks identical cells to the seed implementation
/// on dense random states.
#[test]
fn space_search_pins_identical_choices() {
    let mut arena = SearchArena::new();
    for seed in 0..300u64 {
        let grid = Grid::filled(7, 7, CellKind::Bus);
        let occ = random_state(&grid, seed);
        let (cells, blocked) = padded(&grid, &occ);
        for c in grid.coords() {
            assert_eq!(
                ftqc::route::space_search(&grid, &occ, c),
                arena.space_search(&cells, &blocked, c),
                "seed {seed}: space search diverges at {c}"
            );
        }
    }
    assert!(arena.reuses() > 0, "the frontier buffers were reused");
}

/// Every query the arena answers on a padded grid, checked against the
/// seed functions: the arena's own kernels, and the router in both modes.
fn assert_queries_match_seed(
    grid: &Grid,
    occ: &SetOcc,
    from: Coord,
    to: Coord,
    avoid: &[Coord],
    penalty: u64,
) {
    let (cells, blocked) = padded(grid, occ);
    let cost = CostModel {
        penalty_weight: penalty,
    };
    let expected = reference::find_path(grid, occ, from, to, &cost);
    assert_eq!(
        ftqc::route::find_path(grid, occ, from, to, &cost),
        expected,
        "seed find_path vs its verbatim copy"
    );
    let mut arena = SearchArena::new();
    let mut routers = [
        Router::new(cost, RouterMode::Incremental),
        Router::new(cost, RouterMode::Reference),
    ];
    let at = format!(
        "{}x{} {from} -> {to}, penalty {penalty}",
        grid.rows(),
        grid.cols()
    );
    assert_eq!(
        arena.find_path(grid, &cells, &blocked, from, to, &cost),
        expected,
        "arena find_path, {at}"
    );
    for router in &mut routers {
        assert_eq!(
            router.find_path(grid, &cells, &blocked, from, to),
            expected,
            "{:?} find_path, {at}",
            router.mode()
        );
        assert_eq!(
            router.path_cost(grid, &cells, &blocked, from, to),
            expected.as_ref().map(|p| p.cost),
            "{:?} path_cost, {at}",
            router.mode()
        );
    }

    let expected = ftqc::route::space_search(grid, occ, to);
    assert_eq!(
        arena.space_search(&cells, &blocked, to),
        expected,
        "arena space_search, {at}"
    );
    for router in &mut routers {
        assert_eq!(
            router.space_search(grid, &cells, &blocked, to),
            expected,
            "{:?} space_search, {at}",
            router.mode()
        );
        assert_eq!(
            router.space_search_cost(grid, &cells, &blocked, to),
            expected.as_ref().map(|p| p.cost()),
            "{:?} space_search_cost, {at}",
            router.mode()
        );
    }

    // The seed's blocked cells and its avoid set both stay out of a push
    // chain, so the arena and the router take them as one avoid list.
    let avoid_set: HashSet<Coord> = avoid.iter().copied().collect();
    let expected = ftqc::route::clear_cell_plan(grid, occ, from, &avoid_set);
    let all: Vec<Coord> = blocked.iter().chain(avoid).copied().collect();
    assert_eq!(
        arena.clear_cell_plan(&cells, from, &all),
        expected,
        "arena clear_cell_plan, {at}"
    );
    for router in &mut routers {
        assert_eq!(
            router.clear_cell_plan(grid, &cells, from, &all),
            expected,
            "{:?} clear_cell_plan, {at}",
            router.mode()
        );
    }
}

/// Degenerate shapes and border cells, where a padded index can newly go
/// wrong: 1×1, 1×N, N×1 and 2×2 grids (the generators above draw 3–9 ×
/// 3–9), every `from`/`to` pair (so every border cell is an endpoint and an
/// avoided cell), `to` inside the extra-blocked list, and the penalty
/// weights at the bucket ring's edge: 4094 is the largest ring (4096), 4095
/// falls back to the seed search.
#[test]
fn degenerate_shapes_and_border_cells_match_reference() {
    for (rows, cols) in [(1, 1), (1, 2), (1, 6), (2, 1), (6, 1), (2, 2), (2, 5)] {
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        for seed in 0..6u64 {
            let mut occ = random_state(&grid, seed);
            for from in grid.coords() {
                for to in grid.coords() {
                    for penalty in [0, 1, 5, 4094, 4095] {
                        assert_queries_match_seed(&grid, &occ, from, to, &[to], penalty);
                    }
                    // `to` inside the extra-blocked list.
                    let was_blocked = !occ.blocked.insert(to);
                    assert_queries_match_seed(&grid, &occ, from, to, &[], 5);
                    if !was_blocked {
                        occ.blocked.remove(&to);
                    }
                }
            }
        }
    }
}

/// A blocked `to` is a legal destination for `find_path` (routing *to* a
/// reserved delivery cell), but the breadth-first helpers never enter a
/// blocked or avoided cell, even when it is the only free one.
#[test]
fn blocked_destination_is_entered_only_by_find_path() {
    let grid = Grid::filled(1, 3, CellKind::Bus);
    let (q, free) = (Coord::new(0, 1), Coord::new(0, 2));
    let mut occ = SetOcc {
        blocked: [free].into_iter().collect(),
        occupied: [Coord::new(0, 0), q].into_iter().collect(),
    };
    let (cells, blocked) = padded(&grid, &occ);
    let cost = CostModel::default();
    for mode in [RouterMode::Incremental, RouterMode::Reference] {
        let mut router = Router::new(cost, mode);
        let path = router.find_path(&grid, &cells, &blocked, q, free);
        assert_eq!(
            path.map(|p: Path| p.cells),
            Some(vec![q, free]),
            "{mode:?}: the blocked destination is entered"
        );
        assert_eq!(router.space_search(&grid, &cells, &blocked, q), None);
        assert_eq!(router.clear_cell_plan(&grid, &cells, q, &blocked), None);
    }
    assert_queries_match_seed(&grid, &occ, q, free, &[free], 5);
    // Unblocked, the same free cell takes the pushed qubit.
    occ.blocked.clear();
    let (cells, _) = padded(&grid, &occ);
    let mut router = Router::new(cost, RouterMode::Incremental);
    assert_eq!(
        router.clear_cell_plan(&grid, &cells, q, &[]),
        Some(vec![(q, free)])
    );
}

/// The incremental engine's counters move the way the design says: every
/// search after a compile's first reuses the arena, and reference mode
/// reports no incremental activity.
#[test]
fn route_counters_reflect_engine_activity() {
    let map = |c: &ftqc::circuit::Circuit, options: &CompilerOptions, mode: RouterMode| {
        let lowered = CompileSession::new(options.clone())
            .prepare(c)
            .expect("prepare")
            .lower()
            .circuit()
            .clone();
        route_circuit(&lowered, options, mode).expect("maps")
    };
    let options = CompilerOptions::default().routing_paths(4);

    // Four T gates on one stationary qubit: one delivery search each (plus
    // ancilla searches), all on one grid shape, so all but the first reuse.
    let mut t_heavy = ftqc::circuit::Circuit::new(4);
    for _ in 0..4 {
        t_heavy.t(2);
    }
    let counters = map(&t_heavy, &options, RouterMode::Incremental).route;
    assert!(
        counters.arena_reuses >= 3,
        "repeated T deliveries: {counters:?}"
    );

    // A CNOT-dense circuit keeps the arena busy: every candidate route and
    // displacement search after the first reuses the stamped buffers.
    let mut dense = ftqc::circuit::Circuit::new(9);
    for (a, b) in [(0u32, 4u32), (4, 8), (1, 3), (5, 7), (2, 6), (0, 8)] {
        dense.cnot(a, b);
    }
    let routed = map(&dense, &options, RouterMode::Incremental);
    let counters = routed.route;
    assert!(counters.arena_reuses > 0, "got {counters:?}");

    // Reference mode routes identically but reports no incremental
    // activity at all.
    let reference = map(&dense, &options, RouterMode::Reference);
    assert_eq!(reference.ops, routed.ops);
    assert_eq!(reference.route, ftqc::compiler::RouteCounters::default());
}
