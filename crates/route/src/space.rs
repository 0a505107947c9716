//! Space search (paper §V.C, Fig 6): finding or creating a free ancilla
//! cell next to a data qubit in a congested layout.
//!
//! "The algorithm takes as input the location of the target qubit and the
//! operation to be applied. It then searches the 2D grid for the nearest
//! unoccupied cell … moving the occupied cells one step at a time. The
//! ancilla position that requires the fewest moves to clear is selected."

use crate::dijkstra::Occupancy;
use ftqc_arch::{Coord, Grid};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// A plan produced by [`space_search`]: which neighbouring cell to use as
/// the ancilla and the clearing moves (in execution order) that free it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpacePlan {
    /// The cell that will serve as the ancilla once cleared.
    pub ancilla: Coord,
    /// Data-qubit relocations `(from, to)` to execute, in order. Each
    /// destination is free by the time its move runs.
    pub clearing_moves: Vec<(Coord, Coord)>,
}

impl SpacePlan {
    /// Number of clearing moves (the cost minimised by the search).
    pub fn cost(&self) -> usize {
        self.clearing_moves.len()
    }
}

/// Breadth-first search for the nearest cell that is neither blocked nor
/// occupied, starting from (and excluding) `from`. Exploration passes
/// *through* occupied cells (they can be pushed aside) but not blocked ones.
///
/// Ties break deterministically via the fixed N/S/W/E expansion order.
pub fn nearest_free_cell(grid: &Grid, occ: &impl Occupancy, from: Coord) -> Option<Coord> {
    if !grid.in_bounds(from) {
        return None;
    }
    let mut seen: HashSet<Coord> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(from);
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for v in u.neighbours() {
            if !grid.in_bounds(v) || seen.contains(&v) || occ.is_blocked(v) {
                continue;
            }
            if !occ.is_occupied(v) {
                return Some(v);
            }
            seen.insert(v);
            queue.push_back(v);
        }
    }
    None
}

/// Turns a BFS chain `start..=free_cell` into clearing moves, farthest
/// occupant first, so every move's destination is free when it executes.
/// The arena-backed searches build the same moves from their own chains
/// (`incremental::chain_moves`); the differential tests pin the two.
fn moves_from_chain(chain: &[Coord], occ: &impl Occupancy) -> Vec<(Coord, Coord)> {
    let mut moves = Vec::with_capacity(chain.len().saturating_sub(1));
    for i in (0..chain.len().saturating_sub(1)).rev() {
        if occ.is_occupied(chain[i]) {
            moves.push((chain[i], chain[i + 1]));
        }
    }
    moves
}

/// Shortest push-chain from `start` to the nearest free cell, avoiding
/// `avoid` cells. Returns the BFS path `start..=free_cell`.
fn path_to_nearest_free(
    grid: &Grid,
    occ: &impl Occupancy,
    start: Coord,
    avoid: &HashSet<Coord>,
) -> Option<Vec<Coord>> {
    let mut prev: std::collections::HashMap<Coord, Coord> = std::collections::HashMap::new();
    let mut seen: HashSet<Coord> = avoid.clone();
    seen.insert(start);
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for v in u.neighbours() {
            if !grid.in_bounds(v) || seen.contains(&v) || occ.is_blocked(v) {
                continue;
            }
            prev.insert(v, u);
            if !occ.is_occupied(v) {
                let mut path = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            seen.insert(v);
            queue.push_back(v);
        }
    }
    None
}

/// Plans the push-chain that frees `cell` itself: its occupant (and any
/// occupants in the way) shift one step toward the nearest free cell,
/// farthest first. Cells in `avoid` are never entered or searched through.
///
/// Returns the relocations in execution order, `None` if `cell` is already
/// free (no work), or `Some(vec![])` never — a non-empty plan or `None`.
/// When no free cell is reachable the result is also `None`; callers must
/// treat "already free" and "impossible" according to their own occupancy
/// check.
pub fn clear_cell_plan(
    grid: &Grid,
    occ: &impl Occupancy,
    cell: Coord,
    avoid: &HashSet<Coord>,
) -> Option<Vec<(Coord, Coord)>> {
    if !occ.is_occupied(cell) {
        return None;
    }
    let chain = path_to_nearest_free(grid, occ, cell, avoid)?;
    Some(moves_from_chain(&chain, occ))
}

/// Finds the cheapest way to obtain a free ancilla cell adjacent to
/// `target` (paper Fig 6).
///
/// For each in-bounds, unblocked neighbour of `target`:
/// * already free → zero-cost plan;
/// * occupied → plan a push-chain toward the nearest free cell (each
///   occupant shifts one step along the chain, farthest first).
///
/// The neighbour needing the fewest moves wins; `None` when the grid is so
/// congested that no neighbour can be cleared.
pub fn space_search(grid: &Grid, occ: &impl Occupancy, target: Coord) -> Option<SpacePlan> {
    let mut best: Option<SpacePlan> = None;
    let mut avoid = HashSet::new();
    avoid.insert(target);
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
        if let Some(chain) = path_to_nearest_free(grid, occ, n, &avoid) {
            let plan = SpacePlan {
                ancilla: n,
                clearing_moves: moves_from_chain(&chain, occ),
            };
            if best.as_ref().is_none_or(|b| plan.cost() < b.cost()) {
                best = Some(plan);
            }
        }
    }
    best
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

    fn grid5() -> Grid {
        Grid::filled(5, 5, CellKind::Bus)
    }

    fn occ_of(occupied: &[Coord]) -> SetOcc {
        SetOcc {
            blocked: HashSet::new(),
            occupied: occupied.iter().copied().collect(),
        }
    }

    #[test]
    fn nearest_free_adjacent() {
        let occ = occ_of(&[]);
        let f = nearest_free_cell(&grid5(), &occ, Coord::new(2, 2)).unwrap();
        assert!(f.is_adjacent(Coord::new(2, 2)));
    }

    #[test]
    fn nearest_free_skips_occupied_ring() {
        // Everything within distance 1 occupied: nearest free is at distance 2.
        let c = Coord::new(2, 2);
        let occ = occ_of(&c.neighbours());
        let f = nearest_free_cell(&grid5(), &occ, c).unwrap();
        assert_eq!(f.manhattan(c), 2);
    }

    #[test]
    fn nearest_free_none_when_all_blocked() {
        let mut occ = occ_of(&[]);
        for n in Coord::new(2, 2).neighbours() {
            occ.blocked.insert(n);
        }
        assert_eq!(nearest_free_cell(&grid5(), &occ, Coord::new(2, 2)), None);
    }

    #[test]
    fn space_search_free_neighbour_costs_zero() {
        let occ = occ_of(&[]);
        let plan = space_search(&grid5(), &occ, Coord::new(2, 2)).unwrap();
        assert_eq!(plan.cost(), 0);
        assert!(plan.ancilla.is_adjacent(Coord::new(2, 2)));
    }

    #[test]
    fn space_search_clears_single_occupant() {
        // All four neighbours occupied, but each occupant has a free cell
        // right behind it: one move suffices (Fig 6's "relocating the qubit
        // labelled 2 is the most efficient option").
        let c = Coord::new(2, 2);
        let occ = occ_of(&c.neighbours());
        let plan = space_search(&grid5(), &occ, c).unwrap();
        assert_eq!(plan.cost(), 1);
        let (from, to) = plan.clearing_moves[0];
        assert_eq!(from, plan.ancilla);
        assert!(from.is_adjacent(to));
    }

    #[test]
    fn space_search_push_chain_order() {
        // Column of occupants below the target: clearing the south
        // neighbour pushes the chain downward, farthest occupant first.
        let c = Coord::new(0, 2);
        let occupied = [Coord::new(1, 2), Coord::new(2, 2), Coord::new(3, 2)];
        let mut occ = occ_of(&occupied);
        // Block east/west/north alternatives so the chain is the only option.
        occ.blocked.insert(Coord::new(0, 1));
        occ.blocked.insert(Coord::new(0, 3));
        occ.blocked.insert(Coord::new(1, 1));
        occ.blocked.insert(Coord::new(1, 3));
        occ.blocked.insert(Coord::new(2, 1));
        occ.blocked.insert(Coord::new(2, 3));
        occ.blocked.insert(Coord::new(3, 1));
        occ.blocked.insert(Coord::new(3, 3));
        let plan = space_search(&grid5(), &occ, c).unwrap();
        assert_eq!(plan.ancilla, Coord::new(1, 2));
        assert_eq!(plan.cost(), 3);
        // Farthest-first: (3,2)->(4,2), (2,2)->(3,2), (1,2)->(2,2).
        assert_eq!(
            plan.clearing_moves,
            vec![
                (Coord::new(3, 2), Coord::new(4, 2)),
                (Coord::new(2, 2), Coord::new(3, 2)),
                (Coord::new(1, 2), Coord::new(2, 2)),
            ]
        );
    }

    #[test]
    fn space_search_prefers_cheapest_neighbour() {
        // South neighbour needs a 3-push chain (side exits blocked);
        // east neighbour clears with a single move.
        let c = Coord::new(0, 0);
        let mut occ = occ_of(&[
            Coord::new(1, 0),
            Coord::new(2, 0),
            Coord::new(3, 0),
            Coord::new(0, 1),
        ]);
        occ.blocked.insert(Coord::new(1, 1));
        occ.blocked.insert(Coord::new(2, 1));
        occ.blocked.insert(Coord::new(3, 1));
        let plan = space_search(&grid5(), &occ, c).unwrap();
        assert_eq!(plan.cost(), 1);
        assert_eq!(plan.ancilla, Coord::new(0, 1));
    }

    #[test]
    fn clear_cell_plan_frees_requested_cell() {
        let cell = Coord::new(2, 2);
        let occ = occ_of(&[cell]);
        let avoid = HashSet::new();
        let plan = clear_cell_plan(&grid5(), &occ, cell, &avoid).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].0, cell);
    }

    #[test]
    fn clear_cell_plan_none_when_already_free() {
        let occ = occ_of(&[]);
        let avoid = HashSet::new();
        assert_eq!(
            clear_cell_plan(&grid5(), &occ, Coord::new(2, 2), &avoid),
            None
        );
    }

    #[test]
    fn clear_cell_plan_respects_avoid() {
        // Occupant at (0,1); avoid (0,0) and (0,2) and (1,1) blocked:
        // chain must not pass through avoided cells.
        let cell = Coord::new(0, 1);
        let mut occ = occ_of(&[cell]);
        occ.blocked.insert(Coord::new(1, 1));
        let avoid: HashSet<Coord> = [Coord::new(0, 0)].into_iter().collect();
        let plan = clear_cell_plan(&grid5(), &occ, cell, &avoid).unwrap();
        assert_eq!(plan[0], (cell, Coord::new(0, 2)));
    }

    #[test]
    fn space_search_fails_when_sealed() {
        // Target in a corner with both neighbours blocked.
        let mut occ = occ_of(&[]);
        occ.blocked.insert(Coord::new(0, 1));
        occ.blocked.insert(Coord::new(1, 0));
        assert_eq!(space_search(&grid5(), &occ, Coord::new(0, 0)), None);
    }
}
