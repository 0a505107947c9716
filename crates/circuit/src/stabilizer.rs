//! A stabilizer-state simulator (Aaronson–Gottesman CHP style).
//!
//! Used to *verify* the compiler front-end: Clifford circuits can be
//! simulated exactly, so circuit identities (e.g. the CZ/SWAP lowering used
//! by the compiler, or the Clifford absorption performed by the PPR
//! transpiler) are checked against ground truth rather than by inspection.
//!
//! The state tracks `n` stabilizer generators and `n` destabilizers as
//! [`PauliString`]s; gates conjugate all rows, and Z-measurements follow
//! the standard deterministic/random split (random outcomes are resolved
//! with a caller-provided choice so tests stay deterministic).

use crate::gate::Gate;
use crate::pauli::{Pauli, PauliString, Phase};

/// Outcome of a Z-basis measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The measurement was determined by the state.
    Deterministic(bool),
    /// The outcome was random; the stored bit is the one chosen.
    Random(bool),
}

impl Outcome {
    /// The measured bit.
    pub fn bit(self) -> bool {
        match self {
            Outcome::Deterministic(b) | Outcome::Random(b) => b,
        }
    }

    /// Whether the outcome was deterministic.
    pub fn is_deterministic(self) -> bool {
        matches!(self, Outcome::Deterministic(_))
    }
}

/// A stabilizer state on `n` qubits, initially `|0…0⟩`.
///
/// # Example
///
/// ```
/// use ftqc_circuit::stabilizer::StabilizerState;
/// use ftqc_circuit::Gate;
///
/// let mut s = StabilizerState::new(2);
/// s.apply(&Gate::H(0));
/// s.apply(&Gate::Cnot { control: 0, target: 1 });
/// // Bell state: the two Z-measurements agree.
/// let a = s.measure_z(0, false).bit();
/// let b = s.measure_z(1, false).bit();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizerState {
    /// Stabilizer generators: rows stabilising the state.
    stabs: Vec<PauliString>,
    /// Destabilizers: anticommute with the matching stabilizer, commute
    /// with the rest.
    destabs: Vec<PauliString>,
}

impl StabilizerState {
    /// The all-zeros state `|0…0⟩` (stabilized by `Z_q`).
    pub fn new(n: usize) -> Self {
        Self {
            stabs: (0..n)
                .map(|q| PauliString::single(n, q as u32, Pauli::Z))
                .collect(),
            destabs: (0..n)
                .map(|q| PauliString::single(n, q as u32, Pauli::X))
                .collect(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.stabs.len()
    }

    /// The stabilizer generators.
    pub fn stabilizers(&self) -> &[PauliString] {
        &self.stabs
    }

    /// Applies a Clifford gate.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates or measurements (use
    /// [`StabilizerState::measure_z`]).
    pub fn apply(&mut self, gate: &Gate) {
        assert!(
            gate.is_clifford(),
            "stabilizer simulation supports Clifford gates only (got {gate})"
        );
        for row in self.stabs.iter_mut().chain(self.destabs.iter_mut()) {
            row.conjugate_by(gate);
        }
    }

    /// Applies every gate of a circuit (must be Clifford-only, measurements
    /// excluded).
    pub fn apply_circuit<'a>(&mut self, gates: impl IntoIterator<Item = &'a Gate>) {
        for g in gates {
            self.apply(g);
        }
    }

    /// Measures qubit `q` in the Z basis. If the outcome is random, the
    /// caller-provided `random_bit` is taken.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure_z(&mut self, q: u32, random_bit: bool) -> Outcome {
        let n = self.num_qubits();
        let z_obs = PauliString::single(n, q, Pauli::Z);
        // Find a stabilizer generator anticommuting with Z_q.
        let p = (0..n).find(|&i| !self.stabs[i].commutes_with(&z_obs));
        match p {
            Some(p) => {
                // Random outcome: replace rows to stabilise (-1)^bit Z_q.
                let anticommuting: Vec<usize> = (0..n)
                    .filter(|&i| i != p && !self.stabs[i].commutes_with(&z_obs))
                    .collect();
                for i in anticommuting {
                    let row = self.stabs[p].clone();
                    self.stabs[i].mul_assign(&row);
                }
                let destab_fix: Vec<usize> = (0..n)
                    .filter(|&i| !self.destabs[i].commutes_with(&z_obs))
                    .collect();
                for i in destab_fix {
                    if i != p {
                        let row = self.stabs[p].clone();
                        self.destabs[i].mul_assign(&row);
                    }
                }
                self.destabs[p] = self.stabs[p].clone();
                let mut new_stab = z_obs;
                if random_bit {
                    new_stab.set_phase(Phase::MINUS);
                }
                self.stabs[p] = new_stab;
                Outcome::Random(random_bit)
            }
            None => {
                // Deterministic: express Z_q over the stabilizer group by
                // accumulating the generators whose destabilizer partner
                // anticommutes with Z_q.
                let mut acc = PauliString::identity(n);
                for i in 0..n {
                    if !self.destabs[i].commutes_with(&z_obs) {
                        let row = self.stabs[i].clone();
                        acc.mul_assign(&row);
                    }
                }
                debug_assert!(acc.commutes_with(&z_obs));
                Outcome::Deterministic(acc.phase().is_minus())
            }
        }
    }

    /// Whether `p` (phase `±1`) stabilises the current state, i.e. is a
    /// product of the current generators with matching sign.
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        let n = self.num_qubits();
        let mut acc = PauliString::identity(n);
        for i in 0..n {
            if !self.destabs[i].commutes_with(p) {
                let row = self.stabs[i].clone();
                acc.mul_assign(&row);
            }
        }
        acc == *p
    }

    /// Validates internal invariants (commutation structure of stabilizer
    /// and destabilizer rows). Test helper.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_qubits();
        for i in 0..n {
            if self.stabs[i].commutes_with(&self.destabs[i]) {
                return Err(format!("stab[{i}] must anticommute with destab[{i}]"));
            }
            if !self.stabs[i].phase().is_real() {
                return Err(format!("stab[{i}] has imaginary phase"));
            }
            for j in 0..n {
                if i != j {
                    if !self.stabs[i].commutes_with(&self.stabs[j]) {
                        return Err(format!("stab[{i}] must commute with stab[{j}]"));
                    }
                    if !self.stabs[i].commutes_with(&self.destabs[j]) {
                        return Err(format!("stab[{i}] must commute with destab[{j}]"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> StabilizerState {
        let mut s = StabilizerState::new(2);
        s.apply(&Gate::H(0));
        s.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        s
    }

    #[test]
    fn initial_state_measures_zero() {
        let mut s = StabilizerState::new(3);
        for q in 0..3 {
            let o = s.measure_z(q, true);
            assert_eq!(o, Outcome::Deterministic(false));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut s = StabilizerState::new(2);
        s.apply(&Gate::X(1));
        assert_eq!(s.measure_z(0, false), Outcome::Deterministic(false));
        assert_eq!(s.measure_z(1, false), Outcome::Deterministic(true));
    }

    #[test]
    fn plus_state_is_random_then_pinned() {
        let mut s = StabilizerState::new(1);
        s.apply(&Gate::H(0));
        let o = s.measure_z(0, true);
        assert_eq!(o, Outcome::Random(true));
        // Re-measurement is now deterministic with the same value.
        assert_eq!(s.measure_z(0, false), Outcome::Deterministic(true));
    }

    #[test]
    fn bell_state_correlations() {
        for bit in [false, true] {
            let mut s = bell();
            let a = s.measure_z(0, bit);
            let b = s.measure_z(1, !bit); // random_bit ignored: now deterministic
            assert_eq!(a.bit(), b.bit());
            assert!(!a.is_deterministic());
            assert!(b.is_deterministic());
        }
    }

    #[test]
    fn ghz_stabilizers() {
        let mut s = StabilizerState::new(3);
        s.apply(&Gate::H(0));
        s.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        s.apply(&Gate::Cnot {
            control: 1,
            target: 2,
        });
        assert!(s.is_stabilized_by(&PauliString::parse("XXX").unwrap()));
        assert!(s.is_stabilized_by(&PauliString::parse("ZZI").unwrap()));
        assert!(s.is_stabilized_by(&PauliString::parse("IZZ").unwrap()));
        assert!(!s.is_stabilized_by(&PauliString::parse("ZII").unwrap()));
        assert!(!s.is_stabilized_by(&PauliString::parse("-XXX").unwrap()));
        s.check_invariants().expect("GHZ state is well-formed");
    }

    #[test]
    fn cz_lowering_identity() {
        // CZ == H(t) CX H(t): both paths produce the same state.
        let prep = [Gate::H(0), Gate::H(1), Gate::S(1)];
        let mut a = StabilizerState::new(2);
        a.apply_circuit(prep.iter());
        a.apply(&Gate::Cz(0, 1));

        let mut b = StabilizerState::new(2);
        b.apply_circuit(prep.iter());
        b.apply(&Gate::H(1));
        b.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        b.apply(&Gate::H(1));
        assert_eq!(a, b);
    }

    #[test]
    fn swap_lowering_identity() {
        let prep = [Gate::H(0), Gate::Sx(1)];
        let mut a = StabilizerState::new(2);
        a.apply_circuit(prep.iter());
        a.apply(&Gate::Swap(0, 1));

        let mut b = StabilizerState::new(2);
        b.apply_circuit(prep.iter());
        b.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        b.apply(&Gate::Cnot {
            control: 1,
            target: 0,
        });
        b.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn invariants_hold_through_random_walk() {
        let mut s = StabilizerState::new(4);
        let mut state = 0x853c49e6748fea9bu64;
        for step in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let q = ((state >> 33) % 4) as u32;
            let r = ((state >> 20) % 4) as u32;
            match (state >> 10) % 6 {
                0 => s.apply(&Gate::H(q)),
                1 => s.apply(&Gate::S(q)),
                2 => s.apply(&Gate::Sx(q)),
                3 if q != r => s.apply(&Gate::Cnot {
                    control: q,
                    target: r,
                }),
                4 => {
                    s.measure_z(q, state & 1 == 1);
                }
                _ => s.apply(&Gate::Z(q)),
            }
            s.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "Clifford gates only")]
    fn t_gate_rejected() {
        StabilizerState::new(1).apply(&Gate::T(0));
    }
}
