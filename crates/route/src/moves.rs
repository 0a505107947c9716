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
//!
//! The look-ahead only *scores* candidates: it asks the router for costs
//! ([`RouteQueries::path_cost`], [`RouteQueries::space_search_cost`]) and
//! builds no route or clearing plan. The engine plans the chosen move
//! itself when it carries it out, against the occupancy at that time.

use crate::incremental::{CellGrid, RouteQueries};
use ftqc_arch::{cnot_ancilla, Coord};

/// Which operand relocates to reach the chosen configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mover {
    /// Neither moves — the pair is already in a legal configuration.
    None,
    /// The control qubit moves.
    Control,
    /// The target qubit moves.
    Target,
}

/// A scored CNOT placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnotConfig {
    /// Final control position.
    pub control: Coord,
    /// Final target position.
    pub target: Coord,
    /// Ancilla cell between them.
    pub ancilla: Coord,
    /// Which operand relocates.
    pub mover: Mover,
    /// Move-operation estimate: the moving operand's routed path cost plus
    /// the moves that clear the ancilla cell.
    pub cost: u64,
}

/// Moves that clear an occupied `ancilla`: the space search's clearing
/// moves around it plus the push of its own occupant; zero when it is
/// free, `None` when it cannot be cleared.
fn ancilla_clearing_cost<R: RouteQueries>(
    router: &mut R,
    cells: &CellGrid,
    ancilla: Coord,
) -> Option<u64> {
    if cells.occupant(ancilla).is_none() {
        return Some(0);
    }
    router
        .space_search_cost(cells, &[], ancilla)
        .map(|moves| moves as u64 + 1)
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
pub fn best_cnot_config_with<R: RouteQueries>(
    router: &mut R,
    cells: &CellGrid,
    control: Coord,
    target: Coord,
    lookahead: bool,
) -> Option<CnotConfig> {
    // Already diagonal: only the ancilla needs attention.
    if control.is_diagonal(target) {
        let ancilla = cnot_ancilla(control, target).expect("diagonal pair has an ancilla");
        if cells.in_bounds(ancilla) {
            if let Some(cost) = ancilla_clearing_cost(router, cells, ancilla) {
                return Some(CnotConfig {
                    control,
                    target,
                    ancilla,
                    mover: Mover::None,
                    cost,
                });
            }
        }
    }

    let mut best: Option<CnotConfig> = None;
    // Candidates: move control to a diagonal of target, or target to a
    // diagonal of control.
    for (mover, anchor, moving_from) in [
        (Mover::Control, target, control),
        (Mover::Target, control, target),
    ] {
        for dest in anchor.diagonals() {
            if !cells.in_bounds(dest) || cells.occupant(dest).is_some() {
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
            if !cells.in_bounds(ancilla) {
                continue;
            }
            // The anchor operand must not itself be the ancilla cell.
            if ancilla == c_pos || ancilla == t_pos {
                continue;
            }
            let Some(route) = router.path_cost(cells, &[], moving_from, dest) else {
                continue;
            };
            let Some(clearing) = ancilla_clearing_cost(router, cells, ancilla) else {
                continue;
            };
            let cand = CnotConfig {
                control: c_pos,
                target: t_pos,
                ancilla,
                mover,
                cost: route + clearing,
            };
            if !lookahead {
                return Some(cand);
            }
            if best.is_none_or(|b| cand.cost < b.cost) {
                best = Some(cand);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::Router;
    use crate::CostModel;

    /// The look-ahead on a `rows × cols` grid with `occupied` cells held by
    /// qubits.
    fn plan_on(
        rows: u32,
        cols: u32,
        occupied: &[Coord],
        c: Coord,
        t: Coord,
        lookahead: bool,
    ) -> Option<CnotConfig> {
        let mut cells = CellGrid::new(rows, cols);
        for (q, &cell) in occupied.iter().enumerate() {
            cells.place(cell, q as u32);
        }
        let mut router = Router::new(CostModel::default());
        best_cnot_config_with(&mut router, &cells, c, t, lookahead)
    }

    fn plan(occupied: &[Coord], c: Coord, t: Coord, lookahead: bool) -> Option<CnotConfig> {
        plan_on(7, 7, occupied, c, t, lookahead)
    }

    #[test]
    fn already_diagonal_zero_cost() {
        let c = Coord::new(2, 2);
        let t = Coord::new(3, 3);
        let cfg = plan(&[c, t], c, t, true).unwrap();
        assert_eq!(cfg.mover, Mover::None);
        assert_eq!(cfg.cost, 0);
        assert_eq!(cfg.ancilla, Coord::new(3, 2));
    }

    #[test]
    fn already_diagonal_but_ancilla_occupied() {
        let c = Coord::new(2, 2);
        let t = Coord::new(3, 3);
        let blockers = Coord::new(3, 2);
        let cfg = plan(&[c, t, blockers], c, t, true).unwrap();
        assert_eq!(cfg.mover, Mover::None);
        assert_eq!(cfg.ancilla, blockers);
        // One move clears the ancilla cell.
        assert_eq!(cfg.cost, 1);
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
        // One diagonal step over free cells, free ancilla.
        assert_eq!(cfg.cost, 1);
    }

    #[test]
    fn distant_pair_routes_toward_partner() {
        let c = Coord::new(0, 0);
        let t = Coord::new(5, 5);
        let cfg = plan(&[c, t], c, t, true).unwrap();
        assert!(cfg.control.is_diagonal(cfg.target));
        // Moving diagonal-adjacent to a cell 10 steps away: 8 steps over
        // free cells, free ancilla.
        assert_eq!(cfg.cost, 8);
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
        assert!(greedy.cost <= naive.cost);
    }

    #[test]
    fn pair_without_a_diagonal_returns_none() {
        // On a single row no cell is diagonal to another, so neither
        // operand has a configuration to move to.
        let c = Coord::new(0, 0);
        let t = Coord::new(0, 2);
        assert!(plan_on(1, 5, &[c, t], c, t, true).is_none());
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
