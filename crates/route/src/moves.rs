//! Gate-dependent moves (paper §V.A, Fig 4): choosing where qubits should
//! move so the next CNOT satisfies its placement constraint.
//!
//! A CNOT needs control and target on diagonal cells with the ancilla
//! between them (vertical neighbour of the control, horizontal neighbour of
//! the target). Given current positions, this module enumerates the
//! reachable diagonal configurations — moving either operand next to the
//! other — and scores each by routed move cost plus ancilla-clearing cost,
//! returning the cheapest, the earliest in scan order on ties. With
//! look-ahead disabled (the ablation of DESIGN.md §7) the first feasible
//! configuration is taken instead.
//!
//! The look-ahead only *scores* candidates: it asks the router for costs
//! ([`RouteQueries::path_cost`], [`RouteQueries::space_search_cost`]) and
//! builds no route or clearing plan. The engine plans the chosen move
//! itself when it carries it out, against the occupancy at that time.
//!
//! **Branch and bound.** A candidate's cost is at least the Manhattan
//! distance its operand moves: every step of a path costs at least one,
//! and clearing the ancilla at least nothing. The look-ahead scores
//! candidates in `(bound, scan index)` order and stops at the first whose
//! bound cannot beat the best `(cost, scan index)` so far; every later one
//! is bounded as badly. Each path search is told the cost it must come in
//! under, so it stops there too. The pick is the exhaustive scan's: the
//! dev-only reference (`ftqc-bench`'s `reference::best_cnot_config_with`)
//! scores every candidate, and `tests/route_differential.rs` pins the two
//! equal.

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

/// A placement that passes every check short of a search: the moving
/// operand's path from `from` and the ancilla's clearing are still to be
/// scored.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// The Manhattan distance from `from` to the moving operand's
    /// destination: a lower bound on the candidate's cost.
    bound: u32,
    /// Position in scan order; the earlier candidate wins a cost tie.
    scan: u8,
    /// Where the moving operand starts.
    from: Coord,
    /// Where it moves to.
    to: Coord,
    /// The placement, its `cost` not yet scored.
    config: CnotConfig,
}

/// The up to eight placements that move one operand to a free diagonal of
/// the other, in scan order (the control's moves first, each anchor's
/// diagonals in order), held on the stack: the array and how many of its
/// slots are filled.
fn candidates(cells: &CellGrid, control: Coord, target: Coord) -> ([Candidate; 8], usize) {
    let unset = Candidate {
        bound: 0,
        scan: 0,
        from: control,
        to: control,
        config: CnotConfig {
            control,
            target,
            ancilla: control,
            mover: Mover::None,
            cost: 0,
        },
    };
    let mut out = [unset; 8];
    let mut len = 0;
    for (mover, anchor, from) in [
        (Mover::Control, target, control),
        (Mover::Target, control, target),
    ] {
        for dest in anchor.diagonals() {
            if !cells.in_bounds(dest) || cells.occupant(dest).is_some() || dest == from {
                continue;
            }
            let (c_pos, t_pos) = match mover {
                Mover::Control => (dest, target),
                _ => (control, dest),
            };
            let Some(ancilla) = cnot_ancilla(c_pos, t_pos) else {
                continue;
            };
            // The anchor operand must not itself be the ancilla cell.
            if !cells.in_bounds(ancilla) || ancilla == c_pos || ancilla == t_pos {
                continue;
            }
            out[len] = Candidate {
                bound: from.manhattan(dest),
                scan: len as u8,
                from,
                to: dest,
                config: CnotConfig {
                    control: c_pos,
                    target: t_pos,
                    ancilla,
                    mover,
                    cost: 0,
                },
            };
            len += 1;
        }
    }
    (out, len)
}

/// `candidate` scored, if its path costs under `below` and its ancilla can
/// be cleared.
fn score<R: RouteQueries>(
    router: &mut R,
    cells: &CellGrid,
    candidate: &Candidate,
    below: u64,
) -> Option<CnotConfig> {
    let route = router.path_cost(cells, &[], candidate.from, candidate.to, below)?;
    let clearing = ancilla_clearing_cost(router, cells, candidate.config.ancilla)?;
    Some(CnotConfig {
        cost: route + clearing,
        ..candidate.config
    })
}

/// Plans the cheapest legal CNOT configuration for qubits currently at
/// `control` and `target`, with every path and space query answered by
/// `router` over the engine's `cells`.
///
/// When `lookahead` is true the cheapest of the eight candidate
/// configurations (four diagonals around each operand) wins, the earliest
/// in scan order on ties (the paper's gate-dependent move heuristic); it
/// is found branch and bound, best lower bound first, without scoring the
/// candidates that cannot win. When false, the first feasible candidate in
/// scan order is returned (the naive baseline for ablations).
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

    let (mut candidates, len) = candidates(cells, control, target);
    let candidates = &mut candidates[..len];
    if !lookahead {
        return candidates
            .iter()
            .find_map(|candidate| score(router, cells, candidate, u64::MAX));
    }
    candidates.sort_unstable_by_key(|candidate| (candidate.bound, candidate.scan));
    let mut best: Option<(CnotConfig, u8)> = None;
    for candidate in candidates.iter() {
        // A candidate wins with a lower cost, or an equal one from earlier
        // in scan order: with a cost under `below`.
        let below = best.map_or(u64::MAX, |(config, scan)| {
            config.cost + u64::from(candidate.scan < scan)
        });
        if u64::from(candidate.bound) >= below {
            break;
        }
        if let Some(config) = score(router, cells, candidate, below) {
            if config.cost < below {
                best = Some((config, candidate.scan));
            }
        }
    }
    best.map(|(config, _)| config)
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

    /// The searches `plan` runs on a router whose arena is already sized
    /// to `cells` (a warmed-up arena counts every search as a reuse), with
    /// the placement it returns.
    fn searches(
        cells: &CellGrid,
        plan: impl FnOnce(&mut Router) -> Option<CnotConfig>,
    ) -> (Option<CnotConfig>, u64) {
        let mut router = Router::new(CostModel::default());
        router.path_cost(cells, &[], Coord::new(0, 0), Coord::new(0, 1), u64::MAX);
        let before = router.counters().arena_reuses;
        let config = plan(&mut router);
        (config, router.counters().arena_reuses - before)
    }

    #[test]
    fn lookahead_skips_candidates_that_cannot_win() {
        // A horizontal pair on a free grid: moving the target one step
        // north (scan index 5) costs 1; the two one-step control moves
        // before it in scan order cost 2 (their ancilla is the control's
        // own cell), one more one-step target move comes after it, and
        // four candidates lie three steps away.
        let (c, t) = (Coord::new(2, 2), Coord::new(2, 3));
        let mut cells = CellGrid::new(7, 7);
        cells.place(c, 0);
        cells.place(t, 1);
        let (bounded, bounded_searches) = searches(&cells, |router| {
            best_cnot_config_with(router, &cells, c, t, true)
        });
        // The exhaustive scan: every candidate scored to the end, the first
        // cheapest kept.
        let (exhaustive, exhaustive_searches) = searches(&cells, |router| {
            let (all, len) = candidates(&cells, c, t);
            all[..len]
                .iter()
                .filter_map(|candidate| score(router, &cells, candidate, u64::MAX))
                .reduce(|best, config| {
                    if config.cost < best.cost {
                        config
                    } else {
                        best
                    }
                })
        });
        assert_eq!(bounded, exhaustive);
        let config = bounded.expect("a placement");
        assert_eq!(
            (config.mover, config.target, config.cost),
            (Mover::Target, Coord::new(1, 3), 1)
        );
        // Eight path searches exhaustively; bounded, the three one-step
        // candidates up to the winner, and the fourth one-step candidate
        // (scan index 7) loses its tie unsearched.
        assert_eq!((bounded_searches, exhaustive_searches), (3, 8));
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
