//! The logical gate set of the compiler front-end.
//!
//! The paper's compilation scheme "takes as input a quantum program expressed
//! in the Clifford+T gate set" (§V). The benchmark circuits of Table I also
//! use `Rz(θ)` and `SX`, so both are first-class here. `Rz` with a
//! non-Clifford angle is treated as a magic-state consumer, matching the
//! paper's accounting (each condensed-matter `Rz` consumes one distilled
//! state).

use std::fmt;

/// Index of a program (circuit) qubit.
///
/// This is a plain index into the circuit's qubit register; the mapping stage
/// of the compiler assigns it to a logical surface-code patch on the grid.
pub type Qubit = u32;

/// A rotation angle in units of π (i.e. `Angle::new(0.25)` is π/4).
///
/// Storing the angle in units of π keeps the Clifford/non-Clifford predicate
/// exact for the angles that occur in Trotter circuits and QASM files written
/// as fractions of `pi`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Angle {
    turns_of_pi: f64,
}

impl Angle {
    /// Creates an angle of `turns_of_pi * π` radians.
    pub fn new(turns_of_pi: f64) -> Self {
        Self { turns_of_pi }
    }

    /// Creates an angle from radians.
    pub fn from_radians(rad: f64) -> Self {
        Self {
            turns_of_pi: rad / std::f64::consts::PI,
        }
    }

    /// The angle in radians.
    pub fn radians(self) -> f64 {
        self.turns_of_pi * std::f64::consts::PI
    }

    /// The angle in units of π.
    pub fn turns_of_pi(self) -> f64 {
        self.turns_of_pi
    }

    /// Whether the angle is finite both in units of π and in radians (a
    /// finite turn count past `f64::MAX / π` is infinite in radians). The
    /// QASM reader and the edit wire form refuse any other angle.
    pub fn is_finite(self) -> bool {
        self.turns_of_pi.is_finite() && self.radians().is_finite()
    }

    /// π/4 (the T-gate angle).
    pub fn t_angle() -> Self {
        Self::new(0.25)
    }

    /// Whether the rotation `Rz(self)` is a Clifford operation, i.e. the
    /// angle is a multiple of π/2 (up to a small numeric tolerance).
    pub fn is_clifford(self) -> bool {
        let halves = self.turns_of_pi * 2.0;
        (halves - halves.round()).abs() < 1e-12
    }

    /// Whether the rotation is the identity (angle ≡ 0 mod 2π).
    pub fn is_identity(self) -> bool {
        let turns = self.turns_of_pi / 2.0;
        (turns - turns.round()).abs() < 1e-12
    }

    /// The negated angle.
    pub fn negate(self) -> Self {
        Self::new(-self.turns_of_pi)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}π", self.turns_of_pi)
    }
}

/// A logical gate in the compiler's input IR.
///
/// Durations and placement constraints for the lattice-surgery implementation
/// of each gate live in `ftqc-arch` (`TimingModel`); this type is purely the
/// program-level view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(Qubit),
    /// Phase gate S = √Z.
    S(Qubit),
    /// Inverse phase gate S† .
    Sdg(Qubit),
    /// √X (QASMBench's `sx`).
    Sx(Qubit),
    /// Inverse √X.
    Sxdg(Qubit),
    /// Pauli X.
    X(Qubit),
    /// Pauli Y.
    Y(Qubit),
    /// Pauli Z.
    Z(Qubit),
    /// T = Z^{1/4}: non-Clifford, consumes one magic state.
    T(Qubit),
    /// T†.
    Tdg(Qubit),
    /// Z-rotation by an arbitrary angle. Non-Clifford angles consume magic
    /// states (see `TStatePolicy` in `ftqc-compiler`).
    Rz(Qubit, Angle),
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: Qubit,
        /// Target qubit.
        target: Qubit,
    },
    /// Controlled-Z.
    Cz(Qubit, Qubit),
    /// SWAP (decomposable to 3 CNOTs; kept explicit for analysis).
    Swap(Qubit, Qubit),
    /// Z-basis measurement.
    Measure(Qubit),
}

/// Iterator over the (at most two) qubits a gate acts on.
#[derive(Debug, Clone)]
pub struct GateQubits {
    qs: [Qubit; 2],
    len: u8,
    pos: u8,
}

impl Iterator for GateQubits {
    type Item = Qubit;

    fn next(&mut self) -> Option<Qubit> {
        if self.pos < self.len {
            let q = self.qs[self.pos as usize];
            self.pos += 1;
            Some(q)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.len - self.pos) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for GateQubits {}

impl Gate {
    /// The qubits this gate acts on, in gate-definition order
    /// (control before target for [`Gate::Cnot`]).
    pub fn qubits(&self) -> GateQubits {
        let (qs, len) = match *self {
            Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::Sx(q)
            | Gate::Sxdg(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rz(q, _)
            | Gate::Measure(q) => ([q, 0], 1),
            Gate::Cnot { control, target } => ([control, target], 2),
            Gate::Cz(a, b) | Gate::Swap(a, b) => ([a, b], 2),
        };
        GateQubits { qs, len, pos: 0 }
    }

    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// Whether the gate is in the Clifford group.
    ///
    /// `Rz` is Clifford exactly when its angle is a multiple of π/2.
    pub fn is_clifford(&self) -> bool {
        match self {
            Gate::T(_) | Gate::Tdg(_) => false,
            Gate::Rz(_, a) => a.is_clifford(),
            Gate::Measure(_) => false,
            _ => true,
        }
    }

    /// Whether the gate consumes a magic state when implemented with lattice
    /// surgery (T, T†, or a non-Clifford `Rz`).
    pub fn is_magic(&self) -> bool {
        matches!(self, Gate::T(_) | Gate::Tdg(_))
            || matches!(self, Gate::Rz(_, a) if !a.is_clifford())
    }

    /// Whether the gate is a bare Pauli (tracked in the Pauli frame at zero
    /// time cost on the surface code).
    pub fn is_pauli(&self) -> bool {
        matches!(self, Gate::X(_) | Gate::Y(_) | Gate::Z(_))
    }

    /// Whether this is a two-qubit gate.
    pub fn is_two_qubit(&self) -> bool {
        self.arity() == 2
    }

    /// Whether this is a measurement.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Gate::Measure(_))
    }

    /// The lower-case mnemonic used in QASM output and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::Sx(_) => "sx",
            Gate::Sxdg(_) => "sxdg",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Rz(_, _) => "rz",
            Gate::Cnot { .. } => "cx",
            Gate::Cz(_, _) => "cz",
            Gate::Swap(_, _) => "swap",
            Gate::Measure(_) => "measure",
        }
    }

    /// The inverse gate.
    ///
    /// # Panics
    ///
    /// Panics for [`Gate::Measure`], which has no inverse.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::Sx(q) => Gate::Sxdg(q),
            Gate::Sxdg(q) => Gate::Sx(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Rz(q, a) => Gate::Rz(q, a.negate()),
            Gate::Measure(_) => panic!("measurement has no inverse"),
            g => g, // H, Paulis, CNOT, CZ, SWAP are self-inverse
        }
    }

    /// Remaps qubit indices through `f` (used when embedding circuits).
    pub fn map_qubits(&self, mut f: impl FnMut(Qubit) -> Qubit) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::Sx(q) => Gate::Sx(f(q)),
            Gate::Sxdg(q) => Gate::Sxdg(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Rz(q, a) => Gate::Rz(f(q), a),
            Gate::Cnot { control, target } => Gate::Cnot {
                control: f(control),
                target: f(target),
            },
            Gate::Cz(a, b) => Gate::Cz(f(a), f(b)),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::Measure(q) => Gate::Measure(f(q)),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rz(q, a) => write!(f, "rz({a}) q[{q}]"),
            Gate::Cnot { control, target } => write!(f, "cx q[{control}], q[{target}]"),
            Gate::Cz(a, b) => write!(f, "cz q[{a}], q[{b}]"),
            Gate::Swap(a, b) => write!(f, "swap q[{a}], q[{b}]"),
            g => {
                let q = g.qubits().next().expect("single-qubit gate");
                write!(f, "{} q[{q}]", g.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angle_clifford_predicate() {
        assert!(Angle::new(0.5).is_clifford()); // S
        assert!(Angle::new(1.0).is_clifford()); // Z
        assert!(Angle::new(-0.5).is_clifford());
        assert!(Angle::new(2.0).is_clifford());
        assert!(!Angle::new(0.25).is_clifford()); // T
        assert!(!Angle::new(0.1).is_clifford());
    }

    #[test]
    fn angle_identity_predicate() {
        assert!(Angle::new(0.0).is_identity());
        assert!(Angle::new(2.0).is_identity());
        assert!(Angle::new(-4.0).is_identity());
        assert!(!Angle::new(1.0).is_identity());
    }

    #[test]
    fn angle_radians_roundtrip() {
        let a = Angle::from_radians(1.234);
        assert!((a.radians() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn gate_qubits_order() {
        let g = Gate::Cnot {
            control: 3,
            target: 7,
        };
        let qs: Vec<_> = g.qubits().collect();
        assert_eq!(qs, vec![3, 7]);
        assert_eq!(g.arity(), 2);
        assert!(g.is_two_qubit());
    }

    #[test]
    fn single_qubit_gate_qubits() {
        let g = Gate::H(5);
        let qs: Vec<_> = g.qubits().collect();
        assert_eq!(qs, vec![5]);
        assert_eq!(g.qubits().len(), 1);
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H(0).is_clifford());
        assert!(Gate::S(0).is_clifford());
        assert!(Gate::Sx(0).is_clifford());
        assert!(Gate::Cnot {
            control: 0,
            target: 1
        }
        .is_clifford());
        assert!(!Gate::T(0).is_clifford());
        assert!(!Gate::Tdg(0).is_clifford());
        assert!(!Gate::Rz(0, Angle::new(0.25)).is_clifford());
        assert!(Gate::Rz(0, Angle::new(0.5)).is_clifford());
    }

    #[test]
    fn magic_classification() {
        assert!(Gate::T(0).is_magic());
        assert!(Gate::Tdg(0).is_magic());
        assert!(Gate::Rz(0, Angle::new(0.13)).is_magic());
        assert!(!Gate::Rz(0, Angle::new(1.0)).is_magic());
        assert!(!Gate::H(0).is_magic());
        assert!(!Gate::Measure(0).is_magic());
    }

    #[test]
    fn pauli_classification() {
        assert!(Gate::X(0).is_pauli());
        assert!(Gate::Y(0).is_pauli());
        assert!(Gate::Z(0).is_pauli());
        assert!(!Gate::H(0).is_pauli());
    }

    #[test]
    fn map_qubits_shifts_indices() {
        let g = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let shifted = g.map_qubits(|q| q + 10);
        assert_eq!(
            shifted,
            Gate::Cnot {
                control: 10,
                target: 11
            }
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Gate::H(2).to_string(), "h q[2]");
        assert_eq!(
            Gate::Cnot {
                control: 0,
                target: 1
            }
            .to_string(),
            "cx q[0], q[1]"
        );
        assert_eq!(Gate::Rz(1, Angle::new(0.25)).to_string(), "rz(0.25π) q[1]");
    }
}
