//! The routed operation record passed between the compiler stages.
//!
//! A [`RoutedOp`] is 64 bytes with no heap data of its own beyond a
//! delivery's corridor: its program qubits sit inline in a [`Patches`]
//! (every surgery op names at most two), and its factory and gate indices
//! are `u32`s.

use ftqc_arch::SurgeryOp;
use std::fmt;
use std::ops::Deref;

/// A lattice-surgery operation with the scheduling metadata the timing
/// stage needs: which program qubits it orders against, which factory
/// produced its magic state, and which circuit gate it realises.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedOp {
    /// The surgery operation.
    pub op: SurgeryOp,
    /// Program qubits whose ready-times gate this operation (and are pushed
    /// to its completion time). Moves carry the moved qubit; logical gates
    /// carry their operands; magic deliveries carry none.
    pub patches: Patches,
    /// For [`SurgeryOp::DeliverMagic`]: the index of the producing factory.
    pub factory: Option<u32>,
    /// Index of the originating gate in the lowered circuit, if any
    /// (movements planned for a gate carry that gate's index).
    pub gate: Option<u32>,
}

impl RoutedOp {
    /// A movement op (move/delivery) for qubit `q` planned while realising
    /// gate `gate`.
    pub fn movement(op: SurgeryOp, q: Option<u32>, gate: u32) -> Self {
        Self {
            op,
            patches: q.map_or_else(Patches::default, Patches::one),
            factory: None,
            gate: Some(gate),
        }
    }

    /// A logical gate operation over `patches`.
    pub fn gate_op(op: SurgeryOp, patches: Patches, gate: u32) -> Self {
        Self {
            op,
            patches,
            factory: None,
            gate: Some(gate),
        }
    }

    /// Whether this is a data-qubit move or magic delivery.
    pub fn is_movement(&self) -> bool {
        self.op.is_movement()
    }
}

/// The program qubits of one routed op, stored inline: none, one, or two
/// (a CNOT's operands, the most one surgery op names). Derefs to `[u32]`.
///
/// Slots past `len` hold 0, so the derived equality compares exactly the
/// held qubits.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Patches {
    len: u8,
    qubits: [u32; 2],
}

impl Patches {
    /// The single qubit `q`.
    pub fn one(q: u32) -> Self {
        Self {
            len: 1,
            qubits: [q, 0],
        }
    }

    /// The two qubits `a` and `b`, in that order.
    pub fn two(a: u32, b: u32) -> Self {
        Self {
            len: 2,
            qubits: [a, b],
        }
    }
}

impl Deref for Patches {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        &self.qubits[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Patches {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Patches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::Coord;

    #[test]
    fn constructors_tag_metadata() {
        let mv = RoutedOp::movement(
            SurgeryOp::Move {
                from: Coord::new(0, 0),
                to: Coord::new(0, 1),
            },
            Some(3),
            17,
        );
        assert!(mv.is_movement());
        assert_eq!(*mv.patches, [3]);
        assert_eq!(mv.gate, Some(17));
        assert_eq!(mv.factory, None);

        let g = RoutedOp::gate_op(
            SurgeryOp::MeasureZ {
                cell: Coord::new(1, 1),
            },
            Patches::one(0),
            2,
        );
        assert!(!g.is_movement());
        assert_eq!(*g.patches, [0]);
    }

    #[test]
    fn routed_op_is_64_bytes() {
        assert!(std::mem::size_of::<RoutedOp>() <= 64);
    }

    #[test]
    fn patches_hold_up_to_two_qubits() {
        assert!(Patches::default().is_empty());
        assert_eq!(*Patches::one(5), [5]);
        assert_eq!(*Patches::two(5, 2), [5, 2]);
        let iterated: Vec<u32> = (&Patches::two(9, 4)).into_iter().copied().collect();
        assert_eq!(iterated, [9, 4]);
        // Equality and Debug see only the held qubits.
        assert_eq!(Patches::one(0), Patches::one(0));
        assert_ne!(Patches::one(0), Patches::default());
        assert_ne!(Patches::one(0), Patches::two(0, 0));
        assert_eq!(format!("{:?}", Patches::two(1, 3)), "[1, 3]");
    }
}
