//! Clifford tableau: the images of `X_q` and `Z_q` under conjugation by an
//! accumulated Clifford circuit.
//!
//! The tableau is the workhorse of the Pauli-product-rotation transpiler
//! ([`crate::ppr`]): sweeping a Clifford+T circuit, Clifford gates update the
//! tableau while each non-Clifford `Rz`/`T` on qubit `q` is emitted as a
//! rotation about `C Z_q C†`, i.e. the tableau's current Z-image of `q`.
//! This is exactly Litinski's procedure for reducing a circuit to π/8
//! rotations followed by a final Clifford and measurements.

use crate::gate::Gate;
use crate::pauli::{Pauli, PauliString};
use std::fmt;

/// Images of the single-qubit Paulis under conjugation by an accumulated
/// Clifford `C`: row `x[q] = C X_q C†`, row `z[q] = C Z_q C†`.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{CliffordTableau, Gate};
///
/// let mut t = CliffordTableau::identity(2);
/// t.apply(&Gate::H(0));
/// t.apply(&Gate::Cnot { control: 0, target: 1 });
/// // H then CNOT maps Z_0 -> X_0 X_1 (the GHZ stabilizer generator).
/// assert_eq!(t.image_z(0).to_string(), "+XX");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CliffordTableau {
    xs: Vec<PauliString>,
    zs: Vec<PauliString>,
}

impl CliffordTableau {
    /// The identity Clifford over `n` qubits.
    pub fn identity(n: usize) -> Self {
        let xs = (0..n)
            .map(|q| PauliString::single(n, q as u32, Pauli::X))
            .collect();
        let zs = (0..n)
            .map(|q| PauliString::single(n, q as u32, Pauli::Z))
            .collect();
        Self { xs, zs }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.xs.len()
    }

    /// The image `C X_q C†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn image_x(&self, q: u32) -> &PauliString {
        &self.xs[q as usize]
    }

    /// The image `C Z_q C†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn image_z(&self, q: u32) -> &PauliString {
        &self.zs[q as usize]
    }

    /// The image of an arbitrary Pauli string under conjugation by the
    /// accumulated Clifford.
    pub fn image(&self, p: &PauliString) -> PauliString {
        let n = self.num_qubits();
        let mut out = PauliString::identity(n);
        out.set_phase(p.phase());
        for (q, pauli) in p.support() {
            match pauli {
                Pauli::X => out.mul_assign(&self.xs[q as usize]),
                Pauli::Z => out.mul_assign(&self.zs[q as usize]),
                Pauli::Y => {
                    // Y = i X Z
                    out.mul_assign(&self.xs[q as usize]);
                    out.mul_assign(&self.zs[q as usize]);
                    out.set_phase(out.phase().mul(crate::pauli::Phase::I));
                }
                Pauli::I => unreachable!("support() never yields identity"),
            }
        }
        out
    }

    /// Composes another Clifford gate onto the accumulated circuit
    /// (`C ← g ∘ C`), updating every image row.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not Clifford.
    pub fn apply(&mut self, gate: &Gate) {
        assert!(
            gate.is_clifford(),
            "only Clifford gates can be applied to a tableau (got {gate})"
        );
        for row in self.xs.iter_mut().chain(self.zs.iter_mut()) {
            row.conjugate_by(gate);
        }
    }

    /// Composes a Clifford gate on the *input* side of the map.
    ///
    /// If the tableau currently represents `Φ(P) = D P D†`, after this call
    /// it represents `Φ'(P) = Φ(g† P g) = (D g†) P (D g†)†`.
    ///
    /// This is the update used by the PPR transpiler: sweeping a circuit in
    /// time order and calling `apply_pre` for each Clifford `g` keeps the
    /// tableau equal to `P ↦ C† P C`, where `C` is the product of Cliffords
    /// seen so far — exactly the conjugation needed to push Cliffords past
    /// later rotations (`R_P · C = C · R_{C† P C}`).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not Clifford.
    pub fn apply_pre(&mut self, gate: &Gate) {
        assert!(
            gate.is_clifford(),
            "only Clifford gates can be applied to a tableau (got {gate})"
        );
        let n = self.num_qubits();
        let inv = gate.inverse();
        let mut updates: Vec<(bool, usize, PauliString)> = Vec::with_capacity(4);
        for q in gate.qubits() {
            let mut lx = PauliString::single(n, q, Pauli::X);
            lx.conjugate_by(&inv); // g† X_q g
            updates.push((true, q as usize, self.image(&lx)));
            let mut lz = PauliString::single(n, q, Pauli::Z);
            lz.conjugate_by(&inv); // g† Z_q g
            updates.push((false, q as usize, self.image(&lz)));
        }
        for (is_x, q, row) in updates {
            if is_x {
                self.xs[q] = row;
            } else {
                self.zs[q] = row;
            }
        }
    }

    /// Whether the tableau is the identity map (all rows and phases trivial).
    pub fn is_identity(&self) -> bool {
        let n = self.num_qubits();
        self.xs
            .iter()
            .enumerate()
            .all(|(q, r)| *r == PauliString::single(n, q as u32, Pauli::X))
            && self
                .zs
                .iter()
                .enumerate()
                .all(|(q, r)| *r == PauliString::single(n, q as u32, Pauli::Z))
    }

    /// Validates the symplectic invariants: `x[q]` anticommutes with `z[q]`,
    /// and commutes with every other row; all phases are real.
    ///
    /// Returns a description of the first violated invariant, or `Ok(())`.
    /// Used in tests and by `debug_assert!`s in the transpiler.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_qubits();
        for q in 0..n {
            if !self.xs[q].phase().is_real() || !self.zs[q].phase().is_real() {
                return Err(format!("row {q} has a non-real phase"));
            }
            if self.xs[q].commutes_with(&self.zs[q]) {
                return Err(format!("x[{q}] must anticommute with z[{q}]"));
            }
            for r in 0..n {
                if r != q && !self.xs[q].commutes_with(&self.zs[r]) {
                    return Err(format!("x[{q}] must commute with z[{r}]"));
                }
                if r != q {
                    if !self.xs[q].commutes_with(&self.xs[r]) {
                        return Err(format!("x[{q}] must commute with x[{r}]"));
                    }
                    if !self.zs[q].commutes_with(&self.zs[r]) {
                        return Err(format!("z[{q}] must commute with z[{r}]"));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for CliffordTableau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in 0..self.num_qubits() {
            writeln!(f, "X_{q} -> {}", self.xs[q])?;
            writeln!(f, "Z_{q} -> {}", self.zs[q])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Angle;

    #[test]
    fn identity_tableau() {
        let t = CliffordTableau::identity(3);
        assert!(t.is_identity());
        assert_eq!(t.image_x(1).to_string(), "+IXI");
        assert_eq!(t.image_z(2).to_string(), "+IIZ");
        t.check_invariants().expect("identity is symplectic");
    }

    #[test]
    fn h_then_cnot_builds_ghz_stabilizers() {
        let mut t = CliffordTableau::identity(3);
        t.apply(&Gate::H(0));
        t.apply(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        t.apply(&Gate::Cnot {
            control: 1,
            target: 2,
        });
        assert_eq!(t.image_z(0).to_string(), "+XXX");
        assert_eq!(t.image_x(0).to_string(), "+ZII");
        t.check_invariants().expect("tableau stays symplectic");
    }

    #[test]
    fn s_squared_is_z() {
        let mut t = CliffordTableau::identity(1);
        t.apply(&Gate::S(0));
        t.apply(&Gate::S(0));
        // S² = Z: conjugation X -> -X, Z -> Z.
        assert_eq!(t.image_x(0).to_string(), "-X");
        assert_eq!(t.image_z(0).to_string(), "+Z");
    }

    #[test]
    fn hzh_is_x() {
        let mut t = CliffordTableau::identity(1);
        t.apply(&Gate::H(0));
        t.apply(&Gate::Z(0));
        t.apply(&Gate::H(0));
        // HZH = X: conjugation X -> X, Z -> -Z.
        assert_eq!(t.image_x(0).to_string(), "+X");
        assert_eq!(t.image_z(0).to_string(), "-Z");
    }

    #[test]
    fn swap_equals_three_cnots() {
        let mut a = CliffordTableau::identity(2);
        a.apply(&Gate::Swap(0, 1));
        let mut b = CliffordTableau::identity(2);
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
    fn image_of_composite_string() {
        let mut t = CliffordTableau::identity(2);
        t.apply(&Gate::H(0));
        // X⊗Z -> Z⊗Z under H on qubit 0.
        let p = PauliString::parse("XZ").unwrap();
        assert_eq!(t.image(&p).to_string(), "+ZZ");
        // Y image: H Y H = -Y.
        let y = PauliString::parse("YI").unwrap();
        assert_eq!(t.image(&y).to_string(), "-YI");
    }

    #[test]
    fn clifford_rz_accepted_nonclifford_rejected() {
        let mut t = CliffordTableau::identity(1);
        t.apply(&Gate::Rz(0, Angle::new(0.5)));
        assert_eq!(t.image_x(0).to_string(), "+Y");
    }

    #[test]
    #[should_panic(expected = "only Clifford")]
    fn t_gate_rejected() {
        let mut t = CliffordTableau::identity(1);
        t.apply(&Gate::T(0));
    }

    #[test]
    fn apply_pre_tracks_inverse_conjugation() {
        // After apply_pre(g), image_z(q) must be g† Z_q g.
        let mut t = CliffordTableau::identity(1);
        t.apply_pre(&Gate::Sx(0));
        // Sx† Z Sx = +Y (conjugation by Sxdg maps Z -> Y).
        assert_eq!(t.image_z(0).to_string(), "+Y");
        // Contrast with apply (C P C†): Sx Z Sx† = -Y.
        let mut u = CliffordTableau::identity(1);
        u.apply(&Gate::Sx(0));
        assert_eq!(u.image_z(0).to_string(), "-Y");
    }

    #[test]
    fn apply_pre_sequence_matches_explicit_conjugation() {
        // For a gate sequence g1, g2 (time order), the pre-tableau must give
        // C† P C with C = g2∘g1, i.e. g1† g2† P g2 g1.
        let g1 = Gate::S(0);
        let g2 = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut t = CliffordTableau::identity(2);
        t.apply_pre(&g1);
        t.apply_pre(&g2);
        for (make, label) in [(Pauli::X, "X"), (Pauli::Z, "Z"), (Pauli::Y, "Y")] {
            for q in 0..2u32 {
                let mut expected = PauliString::single(2, q, make);
                // g2† P g2 then g1† (…) g1, via conjugate_by with inverses.
                expected.conjugate_by(&g2.inverse());
                expected.conjugate_by(&g1.inverse());
                let got = t.image(&PauliString::single(2, q, make));
                assert_eq!(got, expected, "{label}_{q}");
            }
        }
        t.check_invariants().expect("pre-tableau stays symplectic");
    }

    #[test]
    fn apply_pre_preserves_invariants_random_walk() {
        let mut t = CliffordTableau::identity(3);
        let mut state = 0xdeadbeefcafef00du64;
        for _ in 0..120 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = (state >> 33) % 5;
            let q = ((state >> 20) % 3) as u32;
            let r = ((state >> 10) % 3) as u32;
            let gate = match pick {
                0 => Gate::H(q),
                1 => Gate::S(q),
                2 => Gate::Sxdg(q),
                _ if q != r => Gate::Cnot {
                    control: q,
                    target: r,
                },
                _ => Gate::Sdg(q),
            };
            t.apply_pre(&gate);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("invariant violated after {gate}: {e}"));
        }
    }

    #[test]
    fn invariants_hold_after_random_cliffords() {
        // Deterministic pseudo-random walk over Clifford gates.
        let mut t = CliffordTableau::identity(4);
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = (state >> 33) % 6;
            let q = ((state >> 20) % 4) as u32;
            let r = ((state >> 10) % 4) as u32;
            let gate = match pick {
                0 => Gate::H(q),
                1 => Gate::S(q),
                2 => Gate::Sx(q),
                3 => Gate::Sdg(q),
                4 if q != r => Gate::Cnot {
                    control: q,
                    target: r,
                },
                _ if q != r => Gate::Cz(q, r),
                _ => Gate::H(q),
            };
            t.apply(&gate);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("invariant violated after {gate}: {e}"));
        }
    }
}
