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
//!    [`Path`]s from the reference, the arena, and the router;
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
use ftqc::route::{CostModel, Occupancy, Router, SearchArena};
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

        let mut arena = SearchArena::new();
        prop_assert_eq!(&arena.find_path(&grid, &occ, from, to, &cost), &expected);

        let mut router = Router::new(cost, RouterMode::Incremental);
        prop_assert_eq!(&router.find_path(&grid, &occ, from, to), &expected);
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

/// The arena-frontier space search (satellite: `nearest_free_cell` no
/// longer re-allocates scan state per call) picks identical cells to the
/// seed implementation on dense random states.
#[test]
fn nearest_free_cell_pins_identical_choices() {
    let mut arena = SearchArena::new();
    for seed in 0..300u64 {
        let grid = Grid::filled(7, 7, CellKind::Bus);
        let occ = random_state(&grid, seed);
        for c in grid.coords() {
            assert_eq!(
                ftqc::route::nearest_free_cell(&grid, &occ, c),
                arena.nearest_free_cell(&grid, &occ, c),
                "seed {seed}: nearest free cell diverges from {c}"
            );
            assert_eq!(
                ftqc::route::space_search(&grid, &occ, c),
                arena.space_search(&grid, &occ, c),
                "seed {seed}: space search diverges at {c}"
            );
        }
    }
    assert!(arena.reuses() > 0, "the frontier buffers were reused");
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
