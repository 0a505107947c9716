//! The [`Circuit`] container and gate-count statistics.

use crate::dag::DagCircuit;
use crate::gate::{Angle, Gate, Qubit};
use std::fmt;

/// An ordered list of gates over a register of `num_qubits` qubits.
///
/// The order is program order; dependency structure is derived on demand via
/// [`Circuit::dag`]. Builder-style helpers exist for every gate in the
/// instruction set so benchmark generators read like circuit listings.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cnot(0, 1).cnot(1, 2).rz_pi(2, 0.25);
/// assert_eq!(c.num_qubits(), 3);
/// assert_eq!(c.counts().cnot, 2);
/// assert_eq!(c.t_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
    name: String,
}

/// Why an index-based circuit edit was rejected. The non-panicking twin
/// of [`Circuit::push`]'s assertions, for callers applying untrusted
/// edits (interactive edit sessions, wire-format decoders).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The gate references a qubit outside the register.
    QubitOutOfRange {
        /// The offending operand.
        qubit: Qubit,
        /// The register size.
        num_qubits: u32,
    },
    /// A two-qubit gate uses the same qubit twice.
    DuplicateOperand {
        /// The repeated operand.
        qubit: Qubit,
    },
    /// The gate index is outside the circuit.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// The circuit's gate count.
        len: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::QubitOutOfRange { qubit, num_qubits } => write!(
                f,
                "qubit {qubit} out of range (register has {num_qubits} qubits)"
            ),
            EditError::DuplicateOperand { qubit } => {
                write!(f, "two-qubit gate uses qubit {qubit} twice")
            }
            EditError::IndexOutOfRange { index, len } => {
                write!(
                    f,
                    "gate index {index} out of range (circuit has {len} gates)"
                )
            }
        }
    }
}

impl std::error::Error for EditError {}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Self {
        Self {
            num_qubits,
            gates: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty circuit with a human-readable name (used in reports).
    pub fn with_name(num_qubits: u32, name: impl Into<String>) -> Self {
        Self {
            num_qubits,
            gates: Vec::new(),
            name: name.into(),
        }
    }

    /// The circuit's name ("" if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the register, or if a
    /// two-qubit gate uses the same qubit twice.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        for q in gate.qubits() {
            assert!(
                q < self.num_qubits,
                "gate {gate} references qubit {q} but the register has {} qubits",
                self.num_qubits
            );
        }
        if gate.is_two_qubit() {
            let qs: Vec<Qubit> = gate.qubits().collect();
            assert!(
                qs[0] != qs[1],
                "two-qubit gate {gate} uses qubit {} twice",
                qs[0]
            );
        }
        self.gates.push(gate);
        self
    }

    /// Validates `gate` against this register without modifying anything —
    /// the same checks [`Circuit::push`] panics on, as a `Result` for
    /// callers applying untrusted edits (the interactive edit sessions).
    ///
    /// # Errors
    ///
    /// [`EditError::QubitOutOfRange`] or [`EditError::DuplicateOperand`].
    pub fn check_gate(&self, gate: &Gate) -> Result<(), EditError> {
        for q in gate.qubits() {
            if q >= self.num_qubits {
                return Err(EditError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        if gate.is_two_qubit() {
            let qs: Vec<Qubit> = gate.qubits().collect();
            if qs[0] == qs[1] {
                return Err(EditError::DuplicateOperand { qubit: qs[0] });
            }
        }
        Ok(())
    }

    /// Inserts `gate` at `index` (existing gates at `index..` shift right;
    /// `index == len` appends).
    ///
    /// # Errors
    ///
    /// [`EditError::IndexOutOfRange`] when `index > len`, or the gate's own
    /// validation errors (see [`Circuit::check_gate`]).
    pub fn insert_gate(&mut self, index: usize, gate: Gate) -> Result<(), EditError> {
        if index > self.gates.len() {
            return Err(EditError::IndexOutOfRange {
                index,
                len: self.gates.len(),
            });
        }
        self.check_gate(&gate)?;
        self.gates.insert(index, gate);
        Ok(())
    }

    /// Removes and returns the gate at `index`.
    ///
    /// # Errors
    ///
    /// [`EditError::IndexOutOfRange`] when `index >= len`.
    pub fn remove_gate(&mut self, index: usize) -> Result<Gate, EditError> {
        if index >= self.gates.len() {
            return Err(EditError::IndexOutOfRange {
                index,
                len: self.gates.len(),
            });
        }
        Ok(self.gates.remove(index))
    }

    /// Replaces the gate at `index`, returning the previous gate.
    ///
    /// # Errors
    ///
    /// [`EditError::IndexOutOfRange`] when `index >= len`, or the new
    /// gate's own validation errors (see [`Circuit::check_gate`]).
    pub fn replace_gate(&mut self, index: usize, gate: Gate) -> Result<Gate, EditError> {
        if index >= self.gates.len() {
            return Err(EditError::IndexOutOfRange {
                index,
                len: self.gates.len(),
            });
        }
        self.check_gate(&gate)?;
        Ok(std::mem::replace(&mut self.gates[index], gate))
    }

    /// Appends all gates from an iterator (see also the [`Extend`] impl).
    pub fn append(&mut self, gates: impl IntoIterator<Item = Gate>) -> &mut Self {
        for g in gates {
            self.push(g);
        }
        self
    }

    /// Appends Hadamard on `q`.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends S on `q`.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Appends S† on `q`.
    pub fn sdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Sdg(q))
    }

    /// Appends √X on `q`.
    pub fn sx(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Sx(q))
    }

    /// Appends √X† on `q`.
    pub fn sxdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Sxdg(q))
    }

    /// Appends X on `q`.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends Y on `q`.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends Z on `q`.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends T on `q`.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::T(q))
    }

    /// Appends T† on `q`.
    pub fn tdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Tdg(q))
    }

    /// Appends `Rz(turns_of_pi · π)` on `q`.
    pub fn rz_pi(&mut self, q: Qubit, turns_of_pi: f64) -> &mut Self {
        self.push(Gate::Rz(q, Angle::new(turns_of_pi)))
    }

    /// Appends `Rz` with an explicit [`Angle`] on `q`.
    pub fn rz(&mut self, q: Qubit, angle: Angle) -> &mut Self {
        self.push(Gate::Rz(q, angle))
    }

    /// Appends CNOT with the given control and target.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.push(Gate::Cnot { control, target })
    }

    /// Appends CZ.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }

    /// Appends SWAP.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    /// Appends a Z-basis measurement on `q`.
    pub fn measure(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Measure(q))
    }

    /// Per-mnemonic gate counts (the shape of the paper's Table I).
    pub fn counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for g in &self.gates {
            match g {
                Gate::H(_) => c.h += 1,
                Gate::S(_) => c.s += 1,
                Gate::Sdg(_) => c.sdg += 1,
                Gate::Sx(_) | Gate::Sxdg(_) => c.sx += 1,
                Gate::X(_) => c.x += 1,
                Gate::Y(_) => c.y += 1,
                Gate::Z(_) => c.z += 1,
                Gate::T(_) => c.t += 1,
                Gate::Tdg(_) => c.tdg += 1,
                Gate::Rz(_, _) => c.rz += 1,
                Gate::Cnot { .. } => c.cnot += 1,
                Gate::Cz(_, _) => c.cz += 1,
                Gate::Swap(_, _) => c.swap += 1,
                Gate::Measure(_) => c.measure += 1,
            }
        }
        c
    }

    /// Number of magic-state-consuming gates (T, T†, non-Clifford Rz).
    ///
    /// This is the `n_T` of the paper's lower bound, Eq. (2), under the
    /// default one-state-per-rotation policy.
    pub fn t_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_magic()).count()
    }

    /// Circuit depth: length of the longest dependency chain, counting every
    /// gate as one layer.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits as usize];
        let mut depth = 0;
        for g in &self.gates {
            let lvl = g.qubits().map(|q| level[q as usize]).max().unwrap_or(0) + 1;
            for q in g.qubits() {
                level[q as usize] = lvl;
            }
            depth = depth.max(lvl);
        }
        depth
    }

    /// Builds the dependency DAG of this circuit.
    pub fn dag(&self) -> DagCircuit {
        DagCircuit::from_circuit(self)
    }

    /// Appends another circuit (registers must match in size).
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different register size.
    pub fn compose(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "composed circuits must have equal register sizes"
        );
        self.gates.extend_from_slice(&other.gates);
        self
    }

    /// The circuit repeated `k` times — e.g. turning a single Trotter step
    /// into a `k`-step evolution (the paper evaluates single steps; deeper
    /// evolutions scale `n_T` and the lower bound linearly).
    ///
    /// # Example
    ///
    /// ```
    /// use ftqc_circuit::Circuit;
    ///
    /// let mut step = Circuit::new(2);
    /// step.cnot(0, 1).rz_pi(1, 0.1).cnot(0, 1);
    /// let evolution = step.repeated(3);
    /// assert_eq!(evolution.len(), 9);
    /// assert_eq!(evolution.t_count(), 3);
    /// ```
    pub fn repeated(&self, k: u32) -> Circuit {
        let mut out = Circuit::with_name(
            self.num_qubits,
            if self.name.is_empty() {
                String::new()
            } else {
                format!("{}-x{k}", self.name)
            },
        );
        for _ in 0..k {
            out.gates.extend_from_slice(&self.gates);
        }
        out
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        self.append(iter);
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

/// Gate counts by mnemonic, mirroring the paper's Table I rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Hadamard count.
    pub h: usize,
    /// S count.
    pub s: usize,
    /// S† count.
    pub sdg: usize,
    /// √X count (includes √X†).
    pub sx: usize,
    /// Pauli-X count.
    pub x: usize,
    /// Pauli-Y count.
    pub y: usize,
    /// Pauli-Z count.
    pub z: usize,
    /// T count.
    pub t: usize,
    /// T† count.
    pub tdg: usize,
    /// Rz count.
    pub rz: usize,
    /// CNOT count.
    pub cnot: usize,
    /// CZ count.
    pub cz: usize,
    /// SWAP count.
    pub swap: usize,
    /// Measurement count.
    pub measure: usize,
}

impl GateCounts {
    /// Total number of gates counted.
    pub fn total(&self) -> usize {
        self.h
            + self.s
            + self.sdg
            + self.sx
            + self.x
            + self.y
            + self.z
            + self.t
            + self.tdg
            + self.rz
            + self.cnot
            + self.cz
            + self.swap
            + self.measure
    }

    /// Count of gates that consume a magic state under the default policy
    /// (T + T† + Rz; the benchmark generators only emit non-Clifford Rz).
    pub fn t_like(&self) -> usize {
        self.t + self.tdg + self.rz
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, name: &str, n: usize| -> fmt::Result {
            if n > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{name}: {n}")?;
            }
            Ok(())
        };
        item(f, "CNOT", self.cnot)?;
        item(f, "RZ", self.rz)?;
        item(f, "H", self.h)?;
        item(f, "S", self.s)?;
        item(f, "Sdg", self.sdg)?;
        item(f, "SX", self.sx)?;
        item(f, "T", self.t)?;
        item(f, "Tdg", self.tdg)?;
        item(f, "X", self.x)?;
        item(f, "Y", self.y)?;
        item(f, "Z", self.z)?;
        item(f, "CZ", self.cz)?;
        item(f, "SWAP", self.swap)?;
        item(f, "measure", self.measure)?;
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).t(1).measure(1);
        assert_eq!(c.len(), 4);
        assert_eq!(c.counts().h, 1);
        assert_eq!(c.counts().cnot, 1);
        assert_eq!(c.counts().measure, 1);
    }

    #[test]
    #[should_panic(expected = "references qubit 5")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    #[should_panic(expected = "uses qubit 1 twice")]
    fn push_rejects_duplicate_operands() {
        let mut c = Circuit::new(2);
        c.cnot(1, 1);
    }

    #[test]
    fn t_count_includes_rz() {
        let mut c = Circuit::new(1);
        c.t(0).tdg(0).rz_pi(0, 0.1).rz_pi(0, 0.5); // last Rz is Clifford (S)
        assert_eq!(c.t_count(), 3);
    }

    #[test]
    fn depth_tracks_longest_chain() {
        let mut c = Circuit::new(3);
        // q0: h-cx ; q1: cx-cx ; q2: cx  -> depth 3
        c.h(0).cnot(0, 1).cnot(1, 2);
        assert_eq!(c.depth(), 3);

        let mut parallel = Circuit::new(4);
        parallel.h(0).h(1).h(2).h(3);
        assert_eq!(parallel.depth(), 1);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(5);
        assert!(c.is_empty());
        assert_eq!(c.depth(), 0);
        assert_eq!(c.t_count(), 0);
        assert_eq!(c.counts().total(), 0);
    }

    #[test]
    fn compose_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cnot(0, 1);
        a.compose(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "equal register sizes")]
    fn compose_rejects_mismatched_registers() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.compose(&b);
    }

    #[test]
    fn extend_works() {
        let mut c = Circuit::new(2);
        c.extend(vec![Gate::H(0), Gate::H(1)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counts_display_nonempty() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).h(0);
        let s = c.counts().to_string();
        assert!(s.contains("CNOT: 1"));
        assert!(s.contains("H: 1"));
        assert_eq!(Circuit::new(1).counts().to_string(), "(empty)");
    }

    #[test]
    fn named_circuit() {
        let c = Circuit::with_name(4, "ising-2x2");
        assert_eq!(c.name(), "ising-2x2");
    }

    #[test]
    fn repeated_scales_counts_linearly() {
        let mut step = Circuit::with_name(3, "step");
        step.h(0).cnot(0, 1).t(2);
        let evo = step.repeated(4);
        assert_eq!(evo.len(), 12);
        assert_eq!(evo.t_count(), 4);
        assert_eq!(evo.counts().h, 4);
        assert_eq!(evo.name(), "step-x4");
        // Depth also scales: each copy depends on the previous via q0/q1/q2.
        assert_eq!(evo.depth(), 4 * step.depth());
    }

    #[test]
    fn repeated_zero_is_empty() {
        let mut step = Circuit::new(2);
        step.h(0);
        assert!(step.repeated(0).is_empty());
    }
}
