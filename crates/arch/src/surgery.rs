//! The lattice-surgery instruction set and its placement constraints.
//!
//! Paper Fig 7: each logical operation has a fixed latency (a multiple of
//! the code distance) and a geometric precondition. Because patch rotations
//! are not used, `M_ZZ` merges may only occur *vertically* (Z syndromes on
//! top/bottom edges) and `M_XX` merges *horizontally* (X syndromes on
//! left/right edges) — §VI.A "Placement constraints".
//!
//! The CNOT configuration follows Fig 2(d)/Fig 7(b): control and target sit
//! diagonally with the ancilla in the cell that is a vertical neighbour of
//! the control (for the `M_ZZ`) and a horizontal neighbour of the target
//! (for the `M_XX`).

use crate::grid::Coord;
use crate::timing::{Ticks, TimingModel};
use std::fmt;

/// Single-patch gates that borrow one neighbouring ancilla cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SingleQubitKind {
    /// Hadamard — 3d.
    H,
    /// S — 1.5d.
    S,
    /// S† — 1.5d.
    Sdg,
    /// √X — 1.5d.
    Sx,
    /// √X† — 1.5d.
    Sxdg,
}

impl SingleQubitKind {
    /// Latency of this gate under `t`.
    pub fn duration(self, t: &TimingModel) -> Ticks {
        match self {
            SingleQubitKind::H => t.hadamard,
            _ => t.phase,
        }
    }

    /// Mnemonic for reports.
    pub fn name(self) -> &'static str {
        match self {
            SingleQubitKind::H => "h",
            SingleQubitKind::S => "s",
            SingleQubitKind::Sdg => "sdg",
            SingleQubitKind::Sx => "sx",
            SingleQubitKind::Sxdg => "sxdg",
        }
    }
}

/// One scheduled lattice-surgery operation on the grid.
///
/// `cells()` lists every grid cell the operation occupies for its duration;
/// the scheduler serialises operations that share cells.
#[derive(Debug, Clone, PartialEq)]
pub enum SurgeryOp {
    /// Move a patch one cell (1d). `from` and `to` must be edge-adjacent.
    Move {
        /// Source cell.
        from: Coord,
        /// Destination cell (must be free).
        to: Coord,
    },
    /// Route a magic state from a factory port along a corridor of bus
    /// cells to the delivery cell (`path.last()`); implemented as one long
    /// merge, occupying the whole corridor for 1d.
    DeliverMagic {
        /// Corridor from the factory port (first) to the delivery cell (last).
        path: Vec<Coord>,
    },
    /// Joint `M_ZZ` measurement of two vertically adjacent patches (1d).
    MergeZz {
        /// Upper or lower patch.
        a: Coord,
        /// The other patch (vertical neighbour of `a`).
        b: Coord,
    },
    /// Joint `M_XX` measurement of two horizontally adjacent patches (1d).
    MergeXx {
        /// Left or right patch.
        a: Coord,
        /// The other patch (horizontal neighbour of `a`).
        b: Coord,
    },
    /// CNOT via two merges through an ancilla (2d).
    Cnot {
        /// Control patch.
        control: Coord,
        /// Target patch (diagonal neighbour of `control`).
        target: Coord,
        /// Ancilla cell between them.
        ancilla: Coord,
    },
    /// Single-patch Clifford using one neighbouring ancilla.
    Single {
        /// Which gate.
        kind: SingleQubitKind,
        /// The data patch.
        cell: Coord,
        /// The borrowed ancilla (edge neighbour of `cell`).
        ancilla: Coord,
    },
    /// Consume a delivered magic state: `M_ZZ` with the magic patch plus the
    /// S correction (2.5d total).
    ConsumeMagic {
        /// The data patch receiving the T/Rz gate.
        target: Coord,
        /// Cell holding the delivered magic state (vertical neighbour).
        magic: Coord,
    },
    /// Z-basis measurement of a patch (1d).
    MeasureZ {
        /// The measured patch.
        cell: Coord,
    },
    /// Pauli frame update — free, kept in the schedule for accounting.
    PauliFrame {
        /// The patch whose frame is updated.
        cell: Coord,
    },
}

impl SurgeryOp {
    /// Latency under timing model `t`.
    pub fn duration(&self, t: &TimingModel) -> Ticks {
        match self {
            SurgeryOp::Move { .. } => t.move_op,
            SurgeryOp::DeliverMagic { .. } => t.move_op,
            SurgeryOp::MergeZz { .. } | SurgeryOp::MergeXx { .. } => t.merge,
            SurgeryOp::Cnot { .. } => t.cnot,
            SurgeryOp::Single { kind, .. } => kind.duration(t),
            SurgeryOp::ConsumeMagic { .. } => t.t_consume,
            SurgeryOp::MeasureZ { .. } => t.measure,
            SurgeryOp::PauliFrame { .. } => Ticks::ZERO,
        }
    }

    /// Latency under the paper's *unit cost* accounting: 1d per operation
    /// (Pauli frame updates stay free).
    pub fn unit_duration(&self, t: &TimingModel) -> Ticks {
        match self {
            SurgeryOp::PauliFrame { .. } => Ticks::ZERO,
            _ => t.unit,
        }
    }

    /// Every grid cell the operation occupies while it runs.
    pub fn cells(&self) -> Vec<Coord> {
        let mut cells = Vec::with_capacity(3);
        self.for_each_cell(|c| cells.push(c));
        cells
    }

    /// Calls `f` with every cell the operation occupies —
    /// [`cells`](Self::cells) without the allocation, for call sites that
    /// scan whole op sequences (the resource timelines of the engine and
    /// the timing replays, the schedule verifier and the witness check).
    pub fn for_each_cell(&self, mut f: impl FnMut(Coord)) {
        match self {
            SurgeryOp::Move { from, to } => {
                f(*from);
                f(*to);
            }
            SurgeryOp::DeliverMagic { path } => {
                for &c in path {
                    f(c);
                }
            }
            SurgeryOp::MergeZz { a, b } | SurgeryOp::MergeXx { a, b } => {
                f(*a);
                f(*b);
            }
            SurgeryOp::Cnot {
                control,
                target,
                ancilla,
            } => {
                f(*control);
                f(*target);
                f(*ancilla);
            }
            SurgeryOp::Single { cell, ancilla, .. } => {
                f(*cell);
                f(*ancilla);
            }
            SurgeryOp::ConsumeMagic { target, magic } => {
                f(*target);
                f(*magic);
            }
            SurgeryOp::MeasureZ { cell } | SurgeryOp::PauliFrame { cell } => f(*cell),
        }
    }

    /// Whether this operation is a patch movement (move or delivery) rather
    /// than a logical gate — used by the redundant-move pass and by the
    /// movement-overhead statistics.
    pub fn is_movement(&self) -> bool {
        matches!(
            self,
            SurgeryOp::Move { .. } | SurgeryOp::DeliverMagic { .. }
        )
    }

    /// Validates the placement constraints of Fig 7 / §VI.A.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SurgeryOp::Move { from, to } => {
                if !from.is_adjacent(*to) {
                    return Err(format!("move {from}->{to} must be edge-adjacent"));
                }
            }
            SurgeryOp::DeliverMagic { path } => {
                if path.len() < 2 {
                    return Err("magic delivery path needs at least two cells".into());
                }
                for w in path.windows(2) {
                    if !w[0].is_adjacent(w[1]) {
                        return Err(format!(
                            "magic delivery path breaks contiguity at {}->{}",
                            w[0], w[1]
                        ));
                    }
                }
            }
            SurgeryOp::MergeZz { a, b } => {
                if !a.is_vertical_neighbour(*b) {
                    return Err(format!(
                        "M_ZZ {a}-{b} must be vertical (Z edges are top/bottom)"
                    ));
                }
            }
            SurgeryOp::MergeXx { a, b } => {
                if !a.is_horizontal_neighbour(*b) {
                    return Err(format!(
                        "M_XX {a}-{b} must be horizontal (X edges are left/right)"
                    ));
                }
            }
            SurgeryOp::Cnot {
                control,
                target,
                ancilla,
            } => {
                if !control.is_diagonal(*target) {
                    return Err(format!(
                        "CNOT control {control} and target {target} must be diagonal"
                    ));
                }
                if !ancilla.is_vertical_neighbour(*control) {
                    return Err(format!(
                        "CNOT ancilla {ancilla} must be a vertical neighbour of control {control}"
                    ));
                }
                if !ancilla.is_horizontal_neighbour(*target) {
                    return Err(format!(
                        "CNOT ancilla {ancilla} must be a horizontal neighbour of target {target}"
                    ));
                }
            }
            SurgeryOp::Single { cell, ancilla, .. } => {
                if !cell.is_adjacent(*ancilla) {
                    return Err(format!("ancilla {ancilla} must neighbour the patch {cell}"));
                }
            }
            SurgeryOp::ConsumeMagic { target, magic } => {
                if !magic.is_vertical_neighbour(*target) {
                    return Err(format!(
                        "magic state {magic} must be a vertical neighbour of target {target} (M_ZZ)"
                    ));
                }
            }
            SurgeryOp::MeasureZ { .. } | SurgeryOp::PauliFrame { .. } => {}
        }
        Ok(())
    }
}

impl fmt::Display for SurgeryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurgeryOp::Move { from, to } => write!(f, "move {from} -> {to}"),
            SurgeryOp::DeliverMagic { path } => write!(
                f,
                "deliver-magic {} -> {} (|path|={})",
                path.first().copied().unwrap_or(Coord::new(-1, -1)),
                path.last().copied().unwrap_or(Coord::new(-1, -1)),
                path.len()
            ),
            SurgeryOp::MergeZz { a, b } => write!(f, "mzz {a} {b}"),
            SurgeryOp::MergeXx { a, b } => write!(f, "mxx {a} {b}"),
            SurgeryOp::Cnot {
                control,
                target,
                ancilla,
            } => write!(f, "cnot c={control} t={target} a={ancilla}"),
            SurgeryOp::Single {
                kind,
                cell,
                ancilla,
            } => {
                write!(f, "{} {} (ancilla {})", kind.name(), cell, ancilla)
            }
            SurgeryOp::ConsumeMagic { target, magic } => {
                write!(f, "consume-magic t={target} m={magic}")
            }
            SurgeryOp::MeasureZ { cell } => write!(f, "measure {cell}"),
            SurgeryOp::PauliFrame { cell } => write!(f, "pauli-frame {cell}"),
        }
    }
}

/// The ancilla cell required for a CNOT between a diagonal control/target
/// pair, or `None` if the pair is not diagonal.
///
/// The cell shares the control's column (vertical `M_ZZ` with the control's
/// Z edge) and the target's row (horizontal `M_XX` with the target's X
/// edge).
///
/// # Example
///
/// ```
/// use ftqc_arch::{cnot_ancilla, Coord};
///
/// let c = Coord::new(1, 1);
/// let t = Coord::new(2, 2);
/// assert_eq!(cnot_ancilla(c, t), Some(Coord::new(2, 1)));
/// assert_eq!(cnot_ancilla(c, Coord::new(1, 2)), None);
/// ```
pub fn cnot_ancilla(control: Coord, target: Coord) -> Option<Coord> {
    if control.is_diagonal(target) {
        Some(Coord::new(target.row, control.col))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingModel {
        TimingModel::paper()
    }

    #[test]
    fn durations_match_fig7() {
        let tm = t();
        let mv = SurgeryOp::Move {
            from: Coord::new(0, 0),
            to: Coord::new(0, 1),
        };
        assert_eq!(mv.duration(&tm).as_d(), 1.0);
        let cnot = SurgeryOp::Cnot {
            control: Coord::new(0, 0),
            target: Coord::new(1, 1),
            ancilla: Coord::new(1, 0),
        };
        assert_eq!(cnot.duration(&tm).as_d(), 2.0);
        let h = SurgeryOp::Single {
            kind: SingleQubitKind::H,
            cell: Coord::new(0, 0),
            ancilla: Coord::new(0, 1),
        };
        assert_eq!(h.duration(&tm).as_d(), 3.0);
        let s = SurgeryOp::Single {
            kind: SingleQubitKind::S,
            cell: Coord::new(0, 0),
            ancilla: Coord::new(0, 1),
        };
        assert_eq!(s.duration(&tm).as_d(), 1.5);
        let consume = SurgeryOp::ConsumeMagic {
            target: Coord::new(1, 0),
            magic: Coord::new(0, 0),
        };
        assert_eq!(consume.duration(&tm).as_d(), 2.5);
        let frame = SurgeryOp::PauliFrame {
            cell: Coord::new(0, 0),
        };
        assert_eq!(frame.duration(&tm), Ticks::ZERO);
    }

    #[test]
    fn unit_durations_are_one_d() {
        let tm = t();
        let h = SurgeryOp::Single {
            kind: SingleQubitKind::H,
            cell: Coord::new(0, 0),
            ancilla: Coord::new(0, 1),
        };
        assert_eq!(h.unit_duration(&tm).as_d(), 1.0);
        let frame = SurgeryOp::PauliFrame {
            cell: Coord::new(0, 0),
        };
        assert_eq!(frame.unit_duration(&tm), Ticks::ZERO);
    }

    #[test]
    fn cnot_ancilla_geometry() {
        // All four diagonal orientations.
        let c = Coord::new(2, 2);
        for (t_cell, expect) in [
            (Coord::new(1, 1), Coord::new(1, 2)),
            (Coord::new(1, 3), Coord::new(1, 2)),
            (Coord::new(3, 1), Coord::new(3, 2)),
            (Coord::new(3, 3), Coord::new(3, 2)),
        ] {
            let a = cnot_ancilla(c, t_cell).expect("diagonal");
            assert_eq!(a, expect);
            let op = SurgeryOp::Cnot {
                control: c,
                target: t_cell,
                ancilla: a,
            };
            op.validate()
                .expect("generated CNOT configuration is valid");
        }
    }

    #[test]
    fn merge_orientation_enforced() {
        let vertical = SurgeryOp::MergeZz {
            a: Coord::new(0, 0),
            b: Coord::new(1, 0),
        };
        vertical.validate().expect("vertical M_ZZ is legal");
        let horizontal = SurgeryOp::MergeZz {
            a: Coord::new(0, 0),
            b: Coord::new(0, 1),
        };
        assert!(
            horizontal.validate().is_err(),
            "horizontal M_ZZ must be rejected"
        );

        let mxx_ok = SurgeryOp::MergeXx {
            a: Coord::new(0, 0),
            b: Coord::new(0, 1),
        };
        mxx_ok.validate().expect("horizontal M_XX is legal");
        let mxx_bad = SurgeryOp::MergeXx {
            a: Coord::new(0, 0),
            b: Coord::new(1, 0),
        };
        assert!(mxx_bad.validate().is_err());
    }

    #[test]
    fn consume_magic_requires_vertical_adjacency() {
        let ok = SurgeryOp::ConsumeMagic {
            target: Coord::new(2, 2),
            magic: Coord::new(1, 2),
        };
        ok.validate().expect("vertical magic delivery is legal");
        let bad = SurgeryOp::ConsumeMagic {
            target: Coord::new(2, 2),
            magic: Coord::new(2, 1),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn move_requires_adjacency() {
        let ok = SurgeryOp::Move {
            from: Coord::new(0, 0),
            to: Coord::new(1, 0),
        };
        ok.validate().expect("adjacent move");
        let bad = SurgeryOp::Move {
            from: Coord::new(0, 0),
            to: Coord::new(2, 0),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn delivery_path_contiguity() {
        let ok = SurgeryOp::DeliverMagic {
            path: vec![Coord::new(0, 0), Coord::new(0, 1), Coord::new(1, 1)],
        };
        ok.validate().expect("contiguous path");
        let bad = SurgeryOp::DeliverMagic {
            path: vec![Coord::new(0, 0), Coord::new(1, 1)],
        };
        assert!(bad.validate().is_err());
        let too_short = SurgeryOp::DeliverMagic {
            path: vec![Coord::new(0, 0)],
        };
        assert!(too_short.validate().is_err());
    }

    #[test]
    fn cells_cover_occupied_area() {
        let cnot = SurgeryOp::Cnot {
            control: Coord::new(0, 0),
            target: Coord::new(1, 1),
            ancilla: Coord::new(1, 0),
        };
        assert_eq!(cnot.cells().len(), 3);
        let path = vec![Coord::new(0, 0), Coord::new(0, 1), Coord::new(0, 2)];
        let deliver = SurgeryOp::DeliverMagic { path: path.clone() };
        assert_eq!(deliver.cells(), path);
        assert!(deliver.is_movement());
        assert!(!cnot.is_movement());
    }
}
