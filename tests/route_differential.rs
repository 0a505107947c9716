//! Differential test harness for the router.
//!
//! The router (`Router`, the bucket-queue Dijkstra and push chains over
//! its generation-stamped search arena) must be **byte-identical** to the
//! seed router that `ftqc_bench::reference` keeps as dev-only code: same
//! costs, same cells, same tie-breaks, op for op. This suite pins that at
//! three levels:
//!
//! 1. query level — random layouts, occupancy patterns and penalty weights
//!    must produce identical [`Path`]s, clearing plans and space plans from
//!    the seed functions and the router (and from [`SeedRouter`], the seed
//!    functions behind the router's queries), on degenerate shapes and
//!    border cells too; the cost-only queries must return exactly the
//!    costs of the full queries' results (a bounded `path_cost` the cost
//!    under its bound, else nothing), and the branch-and-bound CNOT
//!    look-ahead the placement of the seed's exhaustive one;
//! 2. map level — `route_circuit` over [`SeedRouter`] and over [`Router`]
//!    must emit identical routed-op sequences across random circuits and
//!    all three built-in target presets;
//! 3. schedule level — scheduling the reference ops through the public
//!    pipeline pieces reproduces the compiled program's schedule
//!    byte-for-byte.

use ftqc::arch::{CellKind, Coord, FactoryBank, Grid, Layout, TargetRegistry, Ticks, MAX_QUBITS};
use ftqc::benchmarks::random_clifford_t;
use ftqc::compiler::mapping::{InitialMapping, MappingStrategy};
use ftqc::compiler::timer::time_schedule;
use ftqc::compiler::{eliminate_redundant_moves, route_circuit, CompileSession, CompilerOptions};
use ftqc::route::{
    best_cnot_config_with, CellGrid, CostModel, Path, RouteQueries, Router, MAX_PENALTY_WEIGHT,
};
use ftqc_bench::reference::{self, Occupancy, SeedRouter};
use proptest::prelude::*;
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

/// The router's input for `occ`: a padded grid whose occupied cells hold
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

/// The shipping router and the seed router under `cost`, with the names
/// assertion messages use.
fn both_routers(cost: CostModel) -> [(&'static str, Box<dyn RouteQueries>); 2] {
    [
        ("router", Box::new(Router::new(cost))),
        ("seed router", Box::new(SeedRouter::new(cost))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The seed function and the router agree path-for-path (cost, cells,
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

        let mut router = Router::new(cost);
        prop_assert_eq!(&router.find_path(&cells, &blocked, from, to), &expected);
    }

    /// The full map stage emits byte-identical routed programs under the
    /// seed router and the shipping one, across random circuits and all
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

            let incremental = route_circuit(&lowered, &options, Router::new)
                .expect("incremental map");
            let seed_router = route_circuit(&lowered, &options, SeedRouter::new)
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
            let (schedule, unit_makespan) = time_schedule(
                ops,
                seed_router.layout.grid(),
                lowered.num_qubits(),
                options.target.factories as usize,
                options.effective_schedule_timing(),
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
            prop_assert_eq!(program.metrics().unit_cost_time, unit_makespan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cost-only queries return exactly the cost of the full queries'
    /// results, for the router and the seed router: on the random states
    /// above and on the degenerate 1×N, N×1, 1×1 and 2×2 shapes. A bounded
    /// `path_cost` returns the cost if it is under the bound, else `None`.
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
        below in 0u64..40,
    ) {
        let (rows, cols) = shape;
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        let occ = random_state(&grid, seed);
        let cost = CostModel { penalty_weight: penalty };
        let from = Coord::new(fr % rows as i32, fc % cols as i32);
        let to = Coord::new(tr % rows as i32, tc % cols as i32);
        let (cells, blocked) = padded(&grid, &occ);
        for (name, mut router) in both_routers(cost) {
            let cost = router.find_path(&cells, &blocked, from, to).map(|p| p.cost);
            prop_assert_eq!(
                router.path_cost(&cells, &blocked, from, to, u64::MAX),
                cost,
                "{} path_cost", name
            );
            prop_assert_eq!(
                router.path_cost(&cells, &blocked, from, to, below),
                cost.filter(|&c| c < below),
                "{} path_cost below {}", name, below
            );
            let plan = router.space_search(&cells, &blocked, to);
            prop_assert_eq!(
                router.space_search_cost(&cells, &blocked, to),
                plan.map(|p| p.cost()),
                "{} space_search_cost", name
            );
        }
    }
}

/// Deterministic pseudo-random state for the sweeps below.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// 200 path queries on states of varying shape against the seed function,
/// one router per drawn weight throughout: each arena reallocates on a
/// shape change and reuses its stamped buffers otherwise, and no state
/// leaks across queries.
#[test]
fn router_matches_seed_find_path_on_random_states() {
    let mut seed = 0x5eed;
    let mut routers: Vec<Router> = (0..9)
        .map(|penalty_weight| Router::new(CostModel { penalty_weight }))
        .collect();
    for case in 0..200 {
        let rows = 3 + (lcg(&mut seed) % 8) as u32;
        let cols = 3 + (lcg(&mut seed) % 8) as u32;
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        let mut occ = SetOcc {
            blocked: HashSet::new(),
            occupied: HashSet::new(),
        };
        for c in grid.coords() {
            match lcg(&mut seed) % 10 {
                0..=2 => {
                    occ.occupied.insert(c);
                }
                3 => {
                    occ.blocked.insert(c);
                }
                _ => {}
            }
        }
        let (cells, blocked) = padded(&grid, &occ);
        let from = Coord::new(
            (lcg(&mut seed) % rows as u64) as i32,
            (lcg(&mut seed) % cols as u64) as i32,
        );
        let to = Coord::new(
            (lcg(&mut seed) % rows as u64) as i32,
            (lcg(&mut seed) % cols as u64) as i32,
        );
        let penalty = lcg(&mut seed) % 9;
        let cost = CostModel {
            penalty_weight: penalty,
        };
        assert_eq!(
            routers[penalty as usize].find_path(&cells, &blocked, from, to),
            reference::find_path(&grid, &occ, from, to, &cost),
            "case {case}: {from} -> {to}"
        );
    }
    assert!(
        routers.iter().any(|r| r.counters().arena_reuses > 0),
        "same-shape searches reuse the arena"
    );
}

/// `find_path`, and `path_cost` at and around the answer's cost, of
/// `router` against the seed router on one query.
fn assert_path_matches_seed(
    router: &mut Router,
    seed_router: &mut SeedRouter,
    cells: &CellGrid,
    blocked: &[Coord],
    (from, to): (Coord, Coord),
    at: &str,
) {
    let expected = seed_router.find_path(cells, blocked, from, to);
    assert_eq!(
        router.find_path(cells, blocked, from, to),
        expected,
        "find_path {from} -> {to}, {at}"
    );
    let cost = expected.map(|p| p.cost);
    let c = cost.unwrap_or(0);
    for below in [u64::MAX, c, c + 1] {
        assert_eq!(
            router.path_cost(cells, blocked, from, to, below),
            cost.filter(|&c| c < below),
            "path_cost {from} -> {to} below {below}, {at}"
        );
    }
}

/// Paper-size routing states, where a goal-directed search prunes and
/// ties the most: the 100-qubit layouts at r = 2 and r = 22, qubits placed
/// in the snake order and then a few displaced onto random bus cells. The
/// queries are deliveries from each port of a six-factory bank to a
/// vertical neighbour of a data qubit (the qubit's own cell blocked, as
/// the engine does) and walks between random data cells, at weight 0
/// (where many paths tie), 1 and 5. One router per weight serves every
/// state and then a 5×10 and a 10×5 grid, a shape change that keeps the
/// padded length.
#[test]
fn paper_size_layouts_match_seed_find_path() {
    let weights = [0, 1, 5];
    let mut routers = weights.map(|penalty_weight| {
        let cost = CostModel { penalty_weight };
        (Router::new(cost), SeedRouter::new(cost))
    });
    for r in [2, 22] {
        let layout = Layout::with_routing_paths(100, r);
        let grid = layout.grid();
        let ports = FactoryBank::dock(&layout, 6, Ticks::ZERO).ports().to_vec();
        let bus: Vec<Coord> = grid
            .coords()
            .filter(|&c| grid.kind(c) == CellKind::Bus)
            .collect();
        for seed in 0..2u64 {
            let mut draw = 0x9a7e ^ (u64::from(r) << 8) ^ seed;
            let mut pos = InitialMapping::new(&layout, 100, MappingStrategy::Snake)
                .cells()
                .to_vec();
            let mut cells = CellGrid::new(grid.rows(), grid.cols());
            for (q, &c) in pos.iter().enumerate() {
                cells.place(c, q as u32);
            }
            for _ in 0..12 {
                let q = lcg(&mut draw) as usize % pos.len();
                let dest = bus[lcg(&mut draw) as usize % bus.len()];
                if cells.occupant(dest).is_none() {
                    cells.vacate(pos[q]);
                    cells.place(dest, q as u32);
                    pos[q] = dest;
                }
            }

            let mut queries = Vec::new();
            for &port in &ports {
                for _ in 0..8 {
                    let q = pos[lcg(&mut draw) as usize % pos.len()];
                    let up = lcg(&mut draw).is_multiple_of(2);
                    let dest = Coord::new(q.row + if up { -1 } else { 1 }, q.col);
                    if grid.in_bounds(dest) {
                        queries.push((port, dest, vec![q]));
                    }
                }
            }
            let data = layout.data_cells();
            for _ in 0..24 {
                let from = data[lcg(&mut draw) as usize % data.len()];
                let to = data[lcg(&mut draw) as usize % data.len()];
                queries.push((from, to, Vec::new()));
            }

            for (weight, (router, seed_router)) in weights.iter().zip(&mut routers) {
                let at = format!("r = {r}, seed {seed}, weight {weight}");
                for (from, to, blocked) in &queries {
                    let query = (*from, *to);
                    assert_path_matches_seed(router, seed_router, &cells, blocked, query, &at);
                }
            }
        }
    }

    for (rows, cols) in [(5, 10), (10, 5)] {
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        let (cells, blocked) = padded(&grid, &random_state(&grid, 7));
        let corner = Coord::new(rows as i32 - 1, cols as i32 - 1);
        for (weight, (router, seed_router)) in weights.iter().zip(&mut routers) {
            let at = format!("{rows}x{cols}, weight {weight}");
            for to in grid.coords() {
                assert_path_matches_seed(router, seed_router, &cells, &blocked, (corner, to), &at);
            }
        }
    }
}

/// The largest layout `MAX_QUBITS` admits, 129 × 129 cells, at
/// `MAX_PENALTY_WEIGHT`: the largest padded grid and weight the router's
/// 32-bit costs must hold. Its data cells are held in the snake order and
/// about half of its bus cells are held too, so the free cells do not
/// connect and most paths must cross held cells. Paths between random
/// cells, a quarter of them with extra-blocked cells (`to` among them),
/// match the seed router.
#[test]
fn largest_layout_at_the_largest_weight_matches_seed_find_path() {
    let layout = Layout::try_with_routing_paths(MAX_QUBITS, Layout::max_routing_paths(MAX_QUBITS))
        .expect("the largest layout builds");
    let grid = layout.grid();
    assert_eq!((grid.rows(), grid.cols()), (129, 129));
    let mut cells = CellGrid::new(grid.rows(), grid.cols());
    let data = InitialMapping::new(&layout, MAX_QUBITS, MappingStrategy::Snake)
        .cells()
        .to_vec();
    for (q, &c) in data.iter().enumerate() {
        cells.place(c, q as u32);
    }
    let mut draw = 0x1a29;
    let mut next_qubit = MAX_QUBITS;
    for c in grid.coords().filter(|&c| grid.kind(c) == CellKind::Bus) {
        if lcg(&mut draw).is_multiple_of(2) {
            cells.place(c, next_qubit);
            next_qubit += 1;
        }
    }

    let cost = CostModel {
        penalty_weight: MAX_PENALTY_WEIGHT,
    };
    let (mut router, mut seed_router) = (Router::new(cost), SeedRouter::new(cost));
    let coords: Vec<Coord> = grid.coords().collect();
    let pick = |draw: &mut u64| coords[lcg(draw) as usize % coords.len()];
    let queries = 32;
    let mut crossing = 0;
    for query in 0..queries {
        let (from, to) = (pick(&mut draw), pick(&mut draw));
        let blocked: Vec<Coord> = if query % 4 == 0 {
            (0..6).map(|_| pick(&mut draw)).chain([to]).collect()
        } else {
            Vec::new()
        };
        let at = format!("query {query}");
        assert_path_matches_seed(
            &mut router,
            &mut seed_router,
            &cells,
            &blocked,
            (from, to),
            &at,
        );
        let path = router.find_path(&cells, &blocked, from, to);
        crossing += usize::from(path.is_some_and(|p| p.occupied > 0));
    }
    assert!(
        crossing * 2 > queries,
        "only {crossing} of {queries} paths cross a held cell"
    );
}

/// The router's clearing and space searches against the seed functions on
/// 200 dense 6×6 states, one router throughout.
#[test]
fn router_matches_seed_bfs_helpers() {
    let mut seed = 0xbf5;
    let mut router = Router::new(CostModel::default());
    let grid = Grid::filled(6, 6, CellKind::Bus);
    for _ in 0..200 {
        let mut occ = SetOcc {
            blocked: HashSet::new(),
            occupied: HashSet::new(),
        };
        for c in grid.coords() {
            match lcg(&mut seed) % 5 {
                0..=1 => {
                    occ.occupied.insert(c);
                }
                2 => {
                    occ.blocked.insert(c);
                }
                _ => {}
            }
        }
        let (cells, blocked) = padded(&grid, &occ);
        let at = Coord::new((lcg(&mut seed) % 6) as i32, (lcg(&mut seed) % 6) as i32);
        assert_eq!(
            reference::space_search(&grid, &occ, at),
            router.space_search(&cells, &blocked, at)
        );
        // The seed's blocked cells and its avoid set both stay out of the
        // chain, so the router takes them as one avoid list.
        let avoid: HashSet<Coord> = [at].into_iter().collect();
        let mut avoid_all = blocked.clone();
        avoid_all.push(at);
        let cell = Coord::new((lcg(&mut seed) % 6) as i32, (lcg(&mut seed) % 6) as i32);
        assert_eq!(
            reference::clear_cell_plan(&grid, &occ, cell, &avoid),
            router.clear_cell_plan(&cells, cell, &avoid_all)
        );
    }
}

/// The router's space search (reused stamped buffers instead of per-call
/// scan state) picks identical cells to the seed implementation on dense
/// random states.
#[test]
fn space_search_pins_identical_choices() {
    let mut router = Router::new(CostModel::default());
    for seed in 0..300u64 {
        let grid = Grid::filled(7, 7, CellKind::Bus);
        let occ = random_state(&grid, seed);
        let (cells, blocked) = padded(&grid, &occ);
        for c in grid.coords() {
            assert_eq!(
                reference::space_search(&grid, &occ, c),
                router.space_search(&cells, &blocked, c),
                "seed {seed}: space search diverges at {c}"
            );
        }
    }
    assert!(
        router.counters().arena_reuses > 0,
        "the frontier buffers were reused"
    );
}

/// The branch-and-bound CNOT look-ahead over the router plans the same
/// configuration as the seed's exhaustive look-ahead over the seed router,
/// with look-ahead on and off, at penalty weights 0, 1, 5 and 8: on random
/// states of the 7×7 grid the look-ahead's own tests use, of a single row,
/// and of the paper-size 100-qubit layout with four routing paths, its
/// data cells mostly held and a few qubits out in the bus lanes.
#[test]
fn cnot_lookahead_matches_reference() {
    /// The cells of `cells` that hold a qubit, in row-major order.
    fn held(cells: &CellGrid) -> Vec<Coord> {
        let (rows, cols) = (cells.rows() as i32, cells.cols() as i32);
        (0..rows)
            .flat_map(|r| (0..cols).map(move |c| Coord::new(r, c)))
            .filter(|&c| cells.occupant(c).is_some())
            .collect()
    }

    // Each state with its operand pairs: every ordered pair of the first
    // eight held cells on the small grids, 60 drawn pairs on the layout.
    let mut states = Vec::new();
    for (rows, cols) in [(7, 7), (1, 5)] {
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        for seed in 0..20u64 {
            let (cells, _) = padded(&grid, &random_state(&grid, seed));
            let mut few = held(&cells);
            few.truncate(8);
            let pairs = few
                .iter()
                .flat_map(|&c| few.iter().filter(move |&&t| t != c).map(move |&t| (c, t)))
                .collect();
            states.push((format!("{rows}x{cols} seed {seed}"), cells, pairs));
        }
    }
    let layout = Layout::with_routing_paths(100, 4);
    let grid = layout.grid();
    for seed in 0..3u64 {
        let mut draw = seed + 1;
        let mut cells = CellGrid::new(grid.rows(), grid.cols());
        for (q, c) in grid.coords().enumerate() {
            let tenths = if grid.kind(c) == CellKind::Data { 9 } else { 1 };
            if lcg(&mut draw) % 10 < tenths {
                cells.place(c, q as u32);
            }
        }
        let all = held(&cells);
        let mut pairs = Vec::new();
        while pairs.len() < 60 {
            let c = all[lcg(&mut draw) as usize % all.len()];
            let t = all[lcg(&mut draw) as usize % all.len()];
            if c != t {
                pairs.push((c, t));
            }
        }
        states.push((format!("paper layout seed {seed}"), cells, pairs));
    }

    for penalty_weight in [0, 1, 5, 8] {
        let cost = CostModel { penalty_weight };
        let mut router = Router::new(cost);
        let mut seed_router = SeedRouter::new(cost);
        let (mut planned, mut asked) = (0, 0);
        for (name, cells, pairs) in &states {
            for &(c, t) in pairs {
                for lookahead in [true, false] {
                    let config = best_cnot_config_with(&mut router, cells, c, t, lookahead);
                    assert_eq!(
                        config,
                        reference::best_cnot_config_with(&mut seed_router, cells, c, t, lookahead),
                        "{name}, penalty {penalty_weight}: {c} -> {t}, look-ahead {lookahead}"
                    );
                    planned += usize::from(config.is_some());
                    asked += 1;
                }
            }
        }
        // A single row has no diagonal; the other states mostly do.
        assert!(
            2 * planned > asked,
            "penalty {penalty_weight}: {planned} of {asked} planned"
        );
    }
}

/// Every query of the router and of the seed router on a padded grid,
/// checked against the seed functions.
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
    let mut routers = both_routers(cost);
    let at = format!(
        "{}x{} {from} -> {to}, penalty {penalty}",
        grid.rows(),
        grid.cols()
    );

    let expected = reference::find_path(grid, occ, from, to, &cost);
    let cost = expected.as_ref().map(|p| p.cost);
    // Bounds at and around the cost, and one drawn from the query.
    let mut draw = (u64::from(grid.rows()) << 48)
        ^ (u64::from(grid.cols()) << 40)
        ^ ((from.row as u64) << 32)
        ^ ((from.col as u64) << 24)
        ^ ((to.row as u64) << 16)
        ^ ((to.col as u64) << 8)
        ^ penalty;
    let c = cost.unwrap_or(0);
    let random = lcg(&mut draw) % (c.min(1 << 20) + 3);
    for (name, router) in &mut routers {
        assert_eq!(
            router.find_path(&cells, &blocked, from, to),
            expected,
            "{name} find_path, {at}"
        );
        for below in [u64::MAX, 0, 1, c, c + 1, random] {
            assert_eq!(
                router.path_cost(&cells, &blocked, from, to, below),
                cost.filter(|&c| c < below),
                "{name} path_cost below {below}, {at}"
            );
        }
    }

    let expected = reference::space_search(grid, occ, to);
    for (name, router) in &mut routers {
        assert_eq!(
            router.space_search(&cells, &blocked, to),
            expected,
            "{name} space_search, {at}"
        );
        assert_eq!(
            router.space_search_cost(&cells, &blocked, to),
            expected.as_ref().map(|p| p.cost()),
            "{name} space_search_cost, {at}"
        );
    }

    // The seed's blocked cells and its avoid set both stay out of a push
    // chain, so the routers take them as one avoid list.
    let avoid_set: HashSet<Coord> = avoid.iter().copied().collect();
    let expected = reference::clear_cell_plan(grid, occ, from, &avoid_set);
    let all: Vec<Coord> = blocked.iter().chain(avoid).copied().collect();
    for (name, router) in &mut routers {
        assert_eq!(
            router.clear_cell_plan(&cells, from, &all),
            expected,
            "{name} clear_cell_plan, {at}"
        );
    }
}

/// Degenerate shapes and border cells, where a padded index can newly go
/// wrong: 1×1, 1×N, N×1 and 2×2 grids (the generators above draw 3–9 ×
/// 3–9), every `from`/`to` pair (so every border cell is an endpoint and an
/// avoided cell), `to` inside the extra-blocked list, and the penalty
/// weights 4094 and 4095, the edges of the old 4096-bucket ring (the ring
/// is now sized from the weight, so neither is special any more).
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

/// The largest weight a router accepts routes like the seed router: on a
/// 5×5 grid around one occupant, and on random 3–6-sided states where the
/// weight makes every path avoid occupied cells whenever it can.
#[test]
fn weight_at_the_bound_routes_like_the_reference() {
    let grid = Grid::filled(5, 5, CellKind::Bus);
    let occ = SetOcc {
        blocked: HashSet::new(),
        occupied: [Coord::new(2, 2)].into_iter().collect(),
    };
    assert_queries_match_seed(
        &grid,
        &occ,
        Coord::new(0, 0),
        Coord::new(4, 4),
        &[],
        MAX_PENALTY_WEIGHT,
    );
    for (rows, cols) in [(3, 3), (4, 6), (6, 5)] {
        let grid = Grid::filled(rows, cols, CellKind::Bus);
        for seed in 0..4u64 {
            let occ = random_state(&grid, seed);
            let corner = Coord::new(rows as i32 - 1, cols as i32 - 1);
            assert_queries_match_seed(
                &grid,
                &occ,
                Coord::new(0, 0),
                corner,
                &[corner],
                MAX_PENALTY_WEIGHT,
            );
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
    for (name, mut router) in both_routers(cost) {
        let path = router.find_path(&cells, &blocked, q, free);
        assert_eq!(
            path.map(|p: Path| p.cells),
            Some(vec![q, free]),
            "{name}: the blocked destination is entered"
        );
        assert_eq!(router.space_search(&cells, &blocked, q), None);
        assert_eq!(router.clear_cell_plan(&cells, q, &blocked), None);
    }
    assert_queries_match_seed(&grid, &occ, q, free, &[free], 5);
    // Unblocked, the same free cell takes the pushed qubit.
    occ.blocked.clear();
    let (cells, _) = padded(&grid, &occ);
    let mut router = Router::new(cost);
    assert_eq!(
        router.clear_cell_plan(&cells, q, &[]),
        Some(vec![(q, free)])
    );
}

/// The router's counters move the way the design says: every search after
/// a compile's first reuses the arena, and the seed router reports no
/// activity.
#[test]
fn route_counters_reflect_engine_activity() {
    fn map<R: RouteQueries>(
        c: &ftqc::circuit::Circuit,
        options: &CompilerOptions,
        new_router: fn(CostModel) -> R,
    ) -> ftqc::compiler::RoutedProgram {
        let lowered = CompileSession::new(options.clone())
            .prepare(c)
            .expect("prepare")
            .lower()
            .circuit()
            .clone();
        route_circuit(&lowered, options, new_router).expect("maps")
    }
    let options = CompilerOptions::default().routing_paths(4);

    // Four T gates on one stationary qubit: one delivery search each (plus
    // ancilla searches), all on one grid shape, so all but the first reuse.
    let mut t_heavy = ftqc::circuit::Circuit::new(4);
    for _ in 0..4 {
        t_heavy.t(2);
    }
    let counters = map(&t_heavy, &options, Router::new).route;
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
    let routed = map(&dense, &options, Router::new);
    let counters = routed.route;
    assert!(counters.arena_reuses > 0, "got {counters:?}");

    // The seed router routes identically but reports no activity at all.
    let reference = map(&dense, &options, SeedRouter::new);
    assert_eq!(reference.ops, routed.ops);
    assert_eq!(reference.route, ftqc::compiler::RouteCounters::default());
}
