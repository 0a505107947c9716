//! Property-based tests for the router on random grids.

use ftqc_arch::Coord;
use ftqc_route::{CellGrid, CostModel, RouteQueries, Router};
use proptest::prelude::*;
use std::collections::HashSet;

const SIDE: i32 = 8;

fn arb_coord() -> impl Strategy<Value = Coord> {
    (0..SIDE, 0..SIDE).prop_map(|(r, c)| Coord::new(r, c))
}

fn arb_occupied() -> impl Strategy<Value = HashSet<Coord>> {
    proptest::collection::hash_set(arb_coord(), 0..30)
}

/// The router's view of `occupied`: each occupied cell holds a qubit.
fn cells_of(occupied: &HashSet<Coord>) -> CellGrid {
    let mut cells = CellGrid::new(SIDE as u32, SIDE as u32);
    for (q, &c) in occupied.iter().enumerate() {
        cells.place(c, q as u32);
    }
    cells
}

fn router(penalty_weight: u64) -> Router {
    Router::new(CostModel { penalty_weight })
}

/// Replays `moves` on `state`, asserting that every move goes from an
/// occupied cell to a free neighbour at the time it runs.
fn replay(state: &mut HashSet<Coord>, moves: &[(Coord, Coord)]) {
    for (from, to) in moves {
        assert!(state.contains(from), "move source {from} must be occupied");
        assert!(!state.contains(to), "move target {to} must be free");
        assert!(from.is_adjacent(*to));
        state.remove(from);
        state.insert(*to);
    }
}

proptest! {
    /// Paths (when found) are contiguous, start/end correctly, report the
    /// correct length/occupancy, and with no blocked cells they always
    /// exist and are at least the Manhattan distance.
    #[test]
    fn path_well_formed(from in arb_coord(), to in arb_coord(), occ in arb_occupied()) {
        let cells = cells_of(&occ);
        let p = router(5)
            .find_path(&cells, &[], from, to)
            .expect("no blocked cells: always reachable");
        prop_assert_eq!(*p.cells.first().unwrap(), from);
        prop_assert_eq!(*p.cells.last().unwrap(), to);
        prop_assert_eq!(p.length as usize, p.cells.len() - 1);
        prop_assert!(p.length >= from.manhattan(to));
        for w in p.cells.windows(2) {
            prop_assert!(w[0].is_adjacent(w[1]));
        }
        let occupied_entered = p.cells[1..].iter().filter(|c| occ.contains(c)).count() as u32;
        prop_assert_eq!(p.occupied, occupied_entered);
    }

    /// On an empty grid every path is a shortest one: its length and cost
    /// are the Manhattan distance, and it crosses nothing.
    #[test]
    fn empty_grid_paths_are_manhattan(from in arb_coord(), to in arb_coord()) {
        let cells = cells_of(&HashSet::new());
        let p = router(5).find_path(&cells, &[], from, to).unwrap();
        prop_assert_eq!(p.length, from.manhattan(to));
        prop_assert_eq!(p.occupied, 0);
        prop_assert_eq!(p.cost, from.manhattan(to) as u64);
    }

    /// Raising the penalty weight never makes the path cross *more*
    /// occupied cells.
    #[test]
    fn penalty_monotone(from in arb_coord(), to in arb_coord(), occ in arb_occupied()) {
        let cells = cells_of(&occ);
        let low = router(1).find_path(&cells, &[], from, to).unwrap();
        let high = router(50).find_path(&cells, &[], from, to).unwrap();
        prop_assert!(high.occupied <= low.occupied);
    }

    /// Space-search plans are executable: replaying the clearing moves on a
    /// copy of the occupancy leaves the ancilla cell free, and every move
    /// goes from an occupied cell to a free one at execution time.
    #[test]
    fn space_plans_are_executable(target in arb_coord(), occ in arb_occupied()) {
        let cells = cells_of(&occ);
        if let Some(plan) = router(5).space_search(&cells, &[], target) {
            prop_assert!(plan.ancilla.is_adjacent(target));
            let mut state = occ.clone();
            replay(&mut state, &plan.clearing_moves);
            prop_assert!(!state.contains(&plan.ancilla), "ancilla must end free");
        }
    }

    /// Clear-cell plans are executable and actually free the cell.
    #[test]
    fn clear_plans_are_executable(cell in arb_coord(), occ in arb_occupied()) {
        let cells = cells_of(&occ);
        match router(5).clear_cell_plan(&cells, cell, &[]) {
            Some(moves) => {
                let mut state = occ.clone();
                replay(&mut state, &moves);
                prop_assert!(!state.contains(&cell));
            }
            None => prop_assert!(!occ.contains(&cell), "None only when already free or impossible"),
        }
    }
}
