//! Gate-dependent moves (paper §V.A, Fig 4): choosing where qubits should
//! move so the next CNOT satisfies its placement constraint.
//!
//! A CNOT needs control and target on diagonal cells with the ancilla
//! between them (vertical neighbour of the control, horizontal neighbour of
//! the target). Given current positions, this module enumerates the
//! reachable diagonal configurations — moving either operand next to the
//! other — and scores each by routed move cost plus ancilla-clearing cost,
//! returning the cheapest. With look-ahead disabled (the ablation of
//! DESIGN.md §7) the first feasible configuration is taken instead.

use crate::dijkstra::{Occupancy, Path};
use crate::incremental::{CellGrid, Router};
use ftqc_arch::{cnot_ancilla, Coord, Grid};
use serde::{Deserialize, Serialize};

/// Which operand relocates to reach the chosen configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mover {
    /// Neither moves — the pair is already in a legal configuration.
    None,
    /// The control qubit moves.
    Control,
    /// The target qubit moves.
    Target,
}

/// A concrete CNOT placement plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnotConfig {
    /// Final control position.
    pub control: Coord,
    /// Final target position.
    pub target: Coord,
    /// Ancilla cell between them.
    pub ancilla: Coord,
    /// Which operand relocates.
    pub mover: Mover,
    /// Route for the moving operand (source first), if any.
    pub route: Option<Path>,
    /// Clearing moves required to free the ancilla (from space search).
    pub ancilla_clearing: Vec<(Coord, Coord)>,
}

impl CnotConfig {
    /// Total move-operation estimate: routed steps plus clearing moves.
    pub fn move_cost(&self) -> u64 {
        self.route.as_ref().map_or(0, |p| p.cost) + self.ancilla_clearing.len() as u64
    }
}

/// Plans the cheapest legal CNOT configuration for qubits currently at
/// `control` and `target`, with every path and space query answered by
/// `router` over the engine's `cells`.
///
/// When `lookahead` is true all eight candidate configurations (four
/// diagonals around each operand) are scored and the cheapest wins (the
/// paper's gate-dependent move heuristic); when false, the first feasible
/// candidate in scan order is returned (the naive baseline for ablations).
///
/// Returns `None` when no configuration is reachable (e.g. the moving
/// operand is walled in) — the caller then falls back to space search
/// around the operands.
pub fn best_cnot_config_with(
    router: &mut Router,
    grid: &Grid,
    cells: &CellGrid,
    control: Coord,
    target: Coord,
    lookahead: bool,
) -> Option<CnotConfig> {
    let occ = (cells, &[] as &[Coord]);
    // Already diagonal: only the ancilla needs attention.
    if control.is_diagonal(target) {
        let ancilla = cnot_ancilla(control, target).expect("diagonal pair has an ancilla");
        if grid.in_bounds(ancilla) && !occ.is_blocked(ancilla) {
            let clearing = if occ.is_occupied(ancilla) {
                router.space_search(grid, cells, &[], ancilla).map(|p| {
                    // Clear the ancilla cell itself: push its occupant away.
                    let mut moves = p.clearing_moves;
                    moves.push((ancilla, p.ancilla));
                    moves
                })
            } else {
                Some(Vec::new())
            };
            if let Some(ancilla_clearing) = clearing {
                return Some(CnotConfig {
                    control,
                    target,
                    ancilla,
                    mover: Mover::None,
                    route: None,
                    ancilla_clearing,
                });
            }
        }
    }

    let mut best: Option<CnotConfig> = None;
    let consider = |cand: CnotConfig, best: &mut Option<CnotConfig>| {
        if best
            .as_ref()
            .is_none_or(|b| cand.move_cost() < b.move_cost())
        {
            *best = Some(cand);
        }
    };

    // Candidates: move control to a diagonal of target, or target to a
    // diagonal of control.
    for (mover, anchor, moving_from) in [
        (Mover::Control, target, control),
        (Mover::Target, control, target),
    ] {
        for dest in anchor.diagonals() {
            if !grid.in_bounds(dest) || occ.is_blocked(dest) || occ.is_occupied(dest) {
                continue;
            }
            if dest == moving_from {
                continue;
            }
            let (c_pos, t_pos) = match mover {
                Mover::Control => (dest, target),
                Mover::Target => (control, dest),
                Mover::None => unreachable!(),
            };
            let ancilla = match cnot_ancilla(c_pos, t_pos) {
                Some(a) => a,
                None => continue,
            };
            if !grid.in_bounds(ancilla) || occ.is_blocked(ancilla) {
                continue;
            }
            // The anchor operand must not itself be the ancilla cell.
            if ancilla == c_pos || ancilla == t_pos {
                continue;
            }
            let route = match router.find_path(grid, cells, &[], moving_from, dest) {
                Some(p) => p,
                None => continue,
            };
            let ancilla_clearing = if occ.is_occupied(ancilla) {
                match router.space_search(grid, cells, &[], ancilla) {
                    Some(plan) => {
                        let mut moves = plan.clearing_moves;
                        moves.push((ancilla, plan.ancilla));
                        moves
                    }
                    None => continue,
                }
            } else {
                Vec::new()
            };
            let cand = CnotConfig {
                control: c_pos,
                target: t_pos,
                ancilla,
                mover,
                route: Some(route),
                ancilla_clearing,
            };
            if !lookahead {
                return Some(cand);
            }
            consider(cand, &mut best);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::CostModel;
    use crate::incremental::RouterMode;
    use ftqc_arch::CellKind;

    fn grid7() -> Grid {
        Grid::filled(7, 7, CellKind::Bus)
    }

    /// The look-ahead on `g` with `occupied` cells held by qubits, through
    /// the seed functions (`RouterMode::Reference`); the arena must plan
    /// the same configuration.
    fn plan_on(
        g: &Grid,
        occupied: &[Coord],
        c: Coord,
        t: Coord,
        lookahead: bool,
    ) -> Option<CnotConfig> {
        let mut cells = CellGrid::new(g.rows(), g.cols());
        for (q, &cell) in occupied.iter().enumerate() {
            cells.place(cell, q as u32);
        }
        let mut seed = Router::new(CostModel::default(), RouterMode::Reference);
        let mut arena = Router::new(CostModel::default(), RouterMode::Incremental);
        let planned = best_cnot_config_with(&mut seed, g, &cells, c, t, lookahead);
        assert_eq!(
            planned,
            best_cnot_config_with(&mut arena, g, &cells, c, t, lookahead)
        );
        planned
    }

    fn plan(occupied: &[Coord], c: Coord, t: Coord, lookahead: bool) -> Option<CnotConfig> {
        plan_on(&grid7(), occupied, c, t, lookahead)
    }

    #[test]
    fn already_diagonal_zero_cost() {
        let c = Coord::new(2, 2);
        let t = Coord::new(3, 3);
        let cfg = plan(&[c, t], c, t, true).unwrap();
        assert_eq!(cfg.mover, Mover::None);
        assert_eq!(cfg.move_cost(), 0);
        assert_eq!(cfg.ancilla, Coord::new(3, 2));
    }

    #[test]
    fn already_diagonal_but_ancilla_occupied() {
        let c = Coord::new(2, 2);
        let t = Coord::new(3, 3);
        let blockers = Coord::new(3, 2);
        let cfg = plan(&[c, t, blockers], c, t, true).unwrap();
        assert_eq!(cfg.mover, Mover::None);
        // One move clears the ancilla cell.
        assert_eq!(cfg.ancilla_clearing.len(), 1);
        assert_eq!(cfg.ancilla_clearing[0].0, blockers);
    }

    #[test]
    fn horizontal_pair_moves_one_operand() {
        // Control and target side by side (Fig 4's situation before the
        // diagonal shift).
        let c = Coord::new(2, 2);
        let t = Coord::new(2, 3);
        let cfg = plan(&[c, t], c, t, true).unwrap();
        assert_ne!(cfg.mover, Mover::None);
        assert!(cfg.control.is_diagonal(cfg.target));
        // One diagonal step: cost 1 route, free ancilla.
        assert_eq!(cfg.move_cost(), 1);
        let route = cfg.route.as_ref().unwrap();
        assert_eq!(route.length, 1);
    }

    #[test]
    fn distant_pair_routes_toward_partner() {
        let c = Coord::new(0, 0);
        let t = Coord::new(5, 5);
        let cfg = plan(&[c, t], c, t, true).unwrap();
        assert!(cfg.control.is_diagonal(cfg.target));
        let route = cfg.route.as_ref().unwrap();
        // Moving diagonal-adjacent to a cell 10 steps away: 8 steps.
        assert_eq!(route.length, 8);
    }

    #[test]
    fn lookahead_picks_cheaper_side() {
        // Wall of data qubits east of the control: moving the control is
        // expensive, moving the target cheap.
        let c = Coord::new(3, 1);
        let t = Coord::new(3, 5);
        let mut occupied = vec![c, t];
        for r in 0..7 {
            if r != 3 {
                occupied.push(Coord::new(r, 2));
            }
        }
        let greedy = plan(&occupied, c, t, true).unwrap();
        let naive = plan(&occupied, c, t, false).unwrap();
        assert!(greedy.move_cost() <= naive.move_cost());
    }

    #[test]
    fn pair_without_a_diagonal_returns_none() {
        // On a single row no cell is diagonal to another, so neither
        // operand has a configuration to move to.
        let c = Coord::new(0, 0);
        let t = Coord::new(0, 2);
        let row = Grid::filled(1, 5, CellKind::Bus);
        assert!(plan_on(&row, &[c, t], c, t, true).is_none());
    }

    #[test]
    fn config_is_always_valid_surgery() {
        use ftqc_arch::SurgeryOp;
        let c = Coord::new(1, 4);
        let t = Coord::new(4, 1);
        let cfg = plan(&[c, t], c, t, true).unwrap();
        let op = SurgeryOp::Cnot {
            control: cfg.control,
            target: cfg.target,
            ancilla: cfg.ancilla,
        };
        op.validate().expect("planned configuration is legal");
    }
}
