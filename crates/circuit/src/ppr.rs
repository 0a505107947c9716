//! Transpilation of Clifford+T circuits into Pauli-product rotations.
//!
//! Litinski's *Game of Surface Codes* compiles a circuit by commuting every
//! Clifford gate past the non-Clifford rotations to the end of the circuit,
//! leaving a sequence of π/8 (and arbitrary-angle) Pauli-product rotations
//! followed by Pauli-product measurements. The `ftqc-baselines` crate uses
//! this form to model the compact/intermediate/fast block layouts
//! (paper §VII.C and Appendix A).
//!
//! The transformation is exact: `R_P · C = C · R_{C† P C}` for Clifford `C`,
//! so sweeping the circuit while maintaining a [`CliffordTableau`] of
//! `P ↦ C† P C` yields the rotation axes directly.

use crate::circuit::Circuit;
use crate::gate::{Angle, Gate};
use crate::pauli::PauliString;
use crate::tableau::CliffordTableau;
use std::fmt;

/// Classification of an emitted rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationKind {
    /// π/8 rotation (angle ±π/4 in `Rz` convention) — a T-like rotation
    /// consuming one magic state.
    TLike,
    /// Arbitrary non-Clifford angle (e.g. Trotter `Rz(θ)`); consumes magic
    /// states according to the compiler's `TStatePolicy`.
    Arbitrary,
}

/// A Pauli-product rotation `exp(-i θ/2 · P)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliRotation {
    /// The rotation axis (phase normalised to `+1`; signs are folded into
    /// the angle).
    pub pauli: PauliString,
    /// Rotation angle (in the `Rz` convention: `Rz(θ) = exp(-i θ/2 Z)`).
    pub angle: Angle,
    /// T-like or arbitrary-angle.
    pub kind: RotationKind,
}

impl PauliRotation {
    /// Number of qubits the rotation acts on non-trivially.
    pub fn weight(&self) -> usize {
        self.pauli.weight()
    }
}

impl fmt::Display for PauliRotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R[{}]({})", self.pauli, self.angle)
    }
}

/// A circuit in Pauli-product-rotation form: rotations in time order, then
/// Pauli-product measurements, with the residual Clifford absorbed.
#[derive(Debug, Clone, PartialEq)]
pub struct PprProgram {
    num_qubits: u32,
    rotations: Vec<PauliRotation>,
    measurements: Vec<PauliString>,
}

impl PprProgram {
    /// Transpiles a Clifford+T circuit into PPR form.
    ///
    /// Clifford gates are absorbed; every T/T†/non-Clifford-Rz becomes one
    /// rotation; measurements become Pauli-product measurements of the
    /// conjugated observable.
    ///
    /// # Panics
    ///
    /// Panics if a gate follows a measurement on the same qubit (the PPR
    /// form models terminal measurements only).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        let mut tableau = CliffordTableau::identity(n as usize);
        let mut rotations = Vec::new();
        let mut measurements = Vec::new();
        let mut measured = vec![false; n as usize];
        for gate in circuit.iter() {
            for q in gate.qubits() {
                assert!(
                    !measured[q as usize],
                    "gate {gate} acts on already-measured qubit {q}"
                );
            }
            match gate {
                Gate::Measure(q) => {
                    // The observable keeps its sign: a `-1` phase means the
                    // classical outcome is flipped relative to measuring
                    // the unsigned product.
                    measured[*q as usize] = true;
                    measurements.push(tableau.image_z(*q).clone());
                }
                g if g.is_magic() => {
                    let q = g.qubits().next().expect("magic gates are single-qubit");
                    let angle = match g {
                        Gate::T(_) => Angle::new(0.25),
                        Gate::Tdg(_) => Angle::new(-0.25),
                        Gate::Rz(_, a) => *a,
                        _ => unreachable!("is_magic covers T/Tdg/Rz only"),
                    };
                    let mut pauli = tableau.image_z(q).clone();
                    // Fold a -1 sign on the axis into the angle: R_{-P}(θ) = R_P(-θ).
                    let angle = if pauli.phase().is_minus() {
                        angle.negate()
                    } else {
                        angle
                    };
                    pauli.set_phase(crate::pauli::Phase::PLUS);
                    let kind = if (angle.turns_of_pi().abs() * 4.0 - 1.0).abs() < 1e-12 {
                        RotationKind::TLike
                    } else {
                        RotationKind::Arbitrary
                    };
                    rotations.push(PauliRotation { pauli, angle, kind });
                }
                g => tableau.apply_pre(g),
            }
        }
        Self {
            num_qubits: n,
            rotations,
            measurements,
        }
    }

    /// Register size.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The rotations in time order.
    pub fn rotations(&self) -> &[PauliRotation] {
        &self.rotations
    }

    /// The terminal Pauli-product measurements.
    pub fn measurements(&self) -> &[PauliString] {
        &self.measurements
    }

    /// Number of magic-consuming rotations (`n_T` for the PPR baselines).
    pub fn t_count(&self) -> usize {
        self.rotations.len()
    }

    /// Maximum rotation weight (how "wide" the PPRs get — determines the
    /// ancilla cost of the constant-depth decomposition of \[30\]).
    pub fn max_weight(&self) -> usize {
        self.rotations
            .iter()
            .map(PauliRotation::weight)
            .max()
            .unwrap_or(0)
    }

    /// Mean rotation weight.
    pub fn mean_weight(&self) -> f64 {
        if self.rotations.is_empty() {
            return 0.0;
        }
        self.rotations
            .iter()
            .map(|r| r.weight() as f64)
            .sum::<f64>()
            / self.rotations.len() as f64
    }

    /// Depth of the rotation sequence when rotations acting on disjoint
    /// supports may run in parallel and commuting checks are skipped
    /// (greedy layering by support overlap).
    pub fn support_depth(&self) -> usize {
        let mut layer_of_qubit = vec![0usize; self.num_qubits as usize];
        let mut depth = 0;
        for r in &self.rotations {
            let lvl = r
                .pauli
                .support()
                .map(|(q, _)| layer_of_qubit[q as usize])
                .max()
                .unwrap_or(0)
                + 1;
            for (q, _) in r.pauli.support() {
                layer_of_qubit[q as usize] = lvl;
            }
            depth = depth.max(lvl);
        }
        depth
    }
}

impl fmt::Display for PprProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PPR program: {} qubits, {} rotations, {} measurements",
            self.num_qubits,
            self.rotations.len(),
            self.measurements.len()
        )?;
        for r in &self.rotations {
            writeln!(f, "  {r}")?;
        }
        for m in &self.measurements {
            writeln!(f, "  M[{m}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_clifford_circuit_has_no_rotations() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).s(2).cz(1, 2);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.t_count(), 0);
        assert!(ppr.rotations().is_empty());
    }

    #[test]
    fn bare_t_is_z_rotation() {
        let mut c = Circuit::new(1);
        c.t(0);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.t_count(), 1);
        let r = &ppr.rotations()[0];
        assert_eq!(r.pauli.to_string(), "+Z");
        assert_eq!(r.angle, Angle::new(0.25));
        assert_eq!(r.kind, RotationKind::TLike);
    }

    #[test]
    fn h_conjugates_t_to_x_rotation() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.rotations()[0].pauli.to_string(), "+X");
    }

    #[test]
    fn cnot_spreads_rotation_support() {
        // CNOT(0,1) then T on target 1: Z_1 pulls back to Z_0 Z_1.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).t(1);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.rotations()[0].pauli.to_string(), "+ZZ");
    }

    #[test]
    fn sx_sign_folds_into_angle() {
        // Sx then Rz(θ): axis Sx† Z Sx = +Y, so angle keeps its sign;
        // Sxdg then Rz(θ): axis Sx Z Sx† = -Y -> normalised +Y, angle -θ.
        let mut c = Circuit::new(1);
        c.sx(0).rz_pi(0, 0.1);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.rotations()[0].pauli.to_string(), "+Y");
        assert_eq!(ppr.rotations()[0].angle, Angle::new(0.1));

        let mut c2 = Circuit::new(1);
        c2.sxdg(0).rz_pi(0, 0.1);
        let ppr2 = PprProgram::from_circuit(&c2);
        assert_eq!(ppr2.rotations()[0].pauli.to_string(), "+Y");
        assert_eq!(ppr2.rotations()[0].angle, Angle::new(-0.1));
    }

    #[test]
    fn tdg_gets_negative_angle() {
        let mut c = Circuit::new(1);
        c.tdg(0);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.rotations()[0].angle, Angle::new(-0.25));
        assert_eq!(ppr.rotations()[0].kind, RotationKind::TLike);
    }

    #[test]
    fn arbitrary_angle_classified() {
        let mut c = Circuit::new(1);
        c.rz_pi(0, 0.37);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.rotations()[0].kind, RotationKind::Arbitrary);
    }

    #[test]
    fn clifford_rz_absorbed() {
        let mut c = Circuit::new(1);
        c.rz_pi(0, 0.5).t(0);
        let ppr = PprProgram::from_circuit(&c);
        // Rz(π/2) = S is Clifford: absorbed, and S† Z S = Z anyway.
        assert_eq!(ppr.t_count(), 1);
        assert_eq!(ppr.rotations()[0].pauli.to_string(), "+Z");
    }

    #[test]
    fn measurement_observable_conjugated() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).measure(0);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.measurements().len(), 1);
        // C† Z_0 C for C = CX·H: CX pulls Z_0 to Z_0 (control unchanged),
        // then H maps Z_0 -> X_0.
        assert_eq!(ppr.measurements()[0].to_string(), "+XI");
    }

    #[test]
    #[should_panic(expected = "already-measured")]
    fn gate_after_measure_rejected() {
        let mut c = Circuit::new(1);
        c.measure(0).h(0);
        PprProgram::from_circuit(&c);
    }

    #[test]
    fn trotter_step_counts_match() {
        // ZZ-interaction Trotter pattern: CNOT Rz CNOT per edge.
        let mut c = Circuit::new(4);
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
            c.cnot(a, b).rz_pi(b, 0.07).cnot(a, b);
        }
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.t_count(), 3);
        // Each rotation axis is the two-body ZZ on the edge.
        assert_eq!(ppr.rotations()[0].pauli.to_string(), "+ZZII");
        assert_eq!(ppr.rotations()[1].pauli.to_string(), "+IZZI");
        assert_eq!(ppr.rotations()[2].pauli.to_string(), "+IIZZ");
        assert_eq!(ppr.max_weight(), 2);
        assert!((ppr.mean_weight() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn support_depth_layers_disjoint_rotations() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1).rz_pi(1, 0.07).cnot(0, 1);
        c.cnot(2, 3).rz_pi(3, 0.07).cnot(2, 3);
        let ppr = PprProgram::from_circuit(&c);
        assert_eq!(ppr.support_depth(), 1);
    }
}
