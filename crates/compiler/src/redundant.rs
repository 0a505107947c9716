//! Redundant-move elimination (paper §V.D).
//!
//! Greedy routing makes locally optimal placement decisions, so a qubit is
//! often moved `A → B` and later straight back `B → A` with nothing
//! observing the intermediate position. Such pairs compose to the identity
//! (`U†_{ri→rj} U_{rj→ri} = I`) and are cancelled in the scheduling stage.
//!
//! The cancellation is conservative: a pair is removed only when no
//! operation between the two moves touches the moved qubit, cell `A`, or
//! cell `B` — guaranteeing the reduced sequence is resource- and
//! dependency-equivalent to the original for every other operation.

use crate::routed::RoutedOp;
use ftqc_arch::{Coord, SurgeryOp};

/// Cancels inverse move pairs in place; returns the number of *ops removed*
/// (twice the number of cancelled pairs).
///
/// Runs to a fixed point: cancelling one pair can expose another
/// (`A→B, B→C, C→B, B→A` collapses completely in two rounds).
pub fn eliminate_redundant_moves(ops: &mut Vec<RoutedOp>) -> usize {
    let mut cancel = vec![false; ops.len()];
    while cancel_once(ops, &mut cancel) > 0 {}
    let before = ops.len();
    let mut idx = 0;
    ops.retain(|_| {
        let keep = !cancel[idx];
        idx += 1;
        keep
    });
    before - ops.len()
}

/// One round over the ops not yet cancelled; returns how many it cancels.
fn cancel_once(ops: &[RoutedOp], cancel: &mut [bool]) -> usize {
    let mut cancelled = 0usize;
    'outer: for i in 0..ops.len() {
        if cancel[i] {
            continue;
        }
        let (q, from, to) = match move_parts(&ops[i]) {
            Some(parts) => parts,
            None => continue,
        };
        // Find the next op that involves this qubit or either cell. Index
        // iteration is intentional: the cancel set is consulted per index.
        #[allow(clippy::needless_range_loop)]
        for j in i + 1..ops.len() {
            if cancel[j] {
                continue;
            }
            let touches = touches_cell(&ops[j].op, from, to) || ops[j].patches.contains(&q);
            if !touches {
                continue;
            }
            if let Some((q2, from2, to2)) = move_parts(&ops[j]) {
                if q2 == q && from2 == to && to2 == from {
                    cancel[i] = true;
                    cancel[j] = true;
                    cancelled += 2;
                    continue 'outer;
                }
            }
            // First observer is not the inverse move: pair not cancellable.
            continue 'outer;
        }
    }
    cancelled
}

/// Whether `op` uses cell `a` or `b` — [`SurgeryOp::cells`] without the
/// per-call allocation (this predicate runs for every op between every
/// candidate move pair, squarely on the recompile hot path).
fn touches_cell(op: &SurgeryOp, a: Coord, b: Coord) -> bool {
    let hit = |c: Coord| c == a || c == b;
    match op {
        SurgeryOp::Move { from, to } => hit(*from) || hit(*to),
        SurgeryOp::DeliverMagic { path } => path.iter().any(|&c| hit(c)),
        SurgeryOp::MergeZz { a: x, b: y } | SurgeryOp::MergeXx { a: x, b: y } => hit(*x) || hit(*y),
        SurgeryOp::Cnot {
            control,
            target,
            ancilla,
        } => hit(*control) || hit(*target) || hit(*ancilla),
        SurgeryOp::Single { cell, ancilla, .. } => hit(*cell) || hit(*ancilla),
        SurgeryOp::ConsumeMagic { target, magic } => hit(*target) || hit(*magic),
        SurgeryOp::MeasureZ { cell } | SurgeryOp::PauliFrame { cell } => hit(*cell),
    }
}

fn move_parts(op: &RoutedOp) -> Option<(u32, ftqc_arch::Coord, ftqc_arch::Coord)> {
    match op.op {
        SurgeryOp::Move { from, to } => {
            let q = *op.patches.first()?;
            Some((q, from, to))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routed::Patches;
    use ftqc_arch::Coord;

    fn mv(q: u32, from: (i32, i32), to: (i32, i32)) -> RoutedOp {
        RoutedOp::movement(
            SurgeryOp::Move {
                from: Coord::new(from.0, from.1),
                to: Coord::new(to.0, to.1),
            },
            Some(q),
            0,
        )
    }

    fn measure(q: u32, cell: (i32, i32)) -> RoutedOp {
        RoutedOp::gate_op(
            SurgeryOp::MeasureZ {
                cell: Coord::new(cell.0, cell.1),
            },
            Patches::one(q),
            0,
        )
    }

    #[test]
    fn cancels_immediate_inverse_pair() {
        let mut ops = vec![mv(0, (0, 0), (0, 1)), mv(0, (0, 1), (0, 0))];
        assert_eq!(eliminate_redundant_moves(&mut ops), 2);
        assert!(ops.is_empty());
    }

    #[test]
    fn cancels_pair_with_unrelated_ops_between() {
        let mut ops = vec![
            mv(0, (0, 0), (0, 1)),
            measure(1, (5, 5)), // far away, different qubit
            mv(0, (0, 1), (0, 0)),
        ];
        assert_eq!(eliminate_redundant_moves(&mut ops), 2);
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn keeps_pair_when_qubit_observed_between() {
        let mut ops = vec![
            mv(0, (0, 0), (0, 1)),
            measure(0, (0, 1)), // the moved qubit is used at B
            mv(0, (0, 1), (0, 0)),
        ];
        assert_eq!(eliminate_redundant_moves(&mut ops), 0);
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn keeps_pair_when_cell_reused_between() {
        let mut ops = vec![
            mv(0, (0, 0), (0, 1)),
            measure(1, (0, 0)), // another qubit measured in the vacated cell
            mv(0, (0, 1), (0, 0)),
        ];
        assert_eq!(eliminate_redundant_moves(&mut ops), 0);
    }

    #[test]
    fn keeps_non_inverse_moves() {
        let mut ops = vec![mv(0, (0, 0), (0, 1)), mv(0, (0, 1), (0, 2))];
        assert_eq!(eliminate_redundant_moves(&mut ops), 0);
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn different_qubits_do_not_cancel() {
        // Swap-like dance of two qubits: not an identity for either.
        let mut ops = vec![mv(0, (0, 0), (0, 1)), mv(1, (0, 1), (0, 0))];
        assert_eq!(eliminate_redundant_moves(&mut ops), 0);
    }

    #[test]
    fn fixed_point_collapses_nested_pairs() {
        let mut ops = vec![
            mv(0, (0, 0), (0, 1)),
            mv(0, (0, 1), (0, 2)),
            mv(0, (0, 2), (0, 1)),
            mv(0, (0, 1), (0, 0)),
        ];
        assert_eq!(eliminate_redundant_moves(&mut ops), 4);
        assert!(ops.is_empty());
    }

    #[test]
    fn delivery_between_pair_blocks_cancellation() {
        let deliver = RoutedOp {
            op: SurgeryOp::DeliverMagic {
                path: vec![Coord::new(0, 1), Coord::new(1, 1)],
            },
            patches: Patches::default(),
            factory: Some(0),
            gate: None,
        };
        let mut ops = vec![mv(0, (0, 0), (0, 1)), deliver, mv(0, (0, 1), (0, 0))];
        assert_eq!(eliminate_redundant_moves(&mut ops), 0);
    }
}
