//! Pauli strings in binary-symplectic form, with exact phase tracking.
//!
//! A Pauli string over `n` qubits is stored as per-qubit `(x, z)` bit pairs
//! plus a global phase `i^k` (`k` mod 4). Conjugation by Clifford gates keeps
//! strings Hermitian (`k ∈ {0, 2}`); intermediate products may pick up `±i`.
//!
//! This is the substrate for the [`CliffordTableau`](crate::CliffordTableau)
//! and the Pauli-product-rotation transpiler used by the Litinski baseline.

use crate::gate::{Gate, Qubit};
use std::fmt;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// Binary-symplectic `(x, z)` encoding.
    pub fn bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Decodes from `(x, z)` bits.
    pub fn from_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Whether two single-qubit Paulis commute.
    pub fn commutes(self, other: Pauli) -> bool {
        self == Pauli::I || other == Pauli::I || self == other
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// Global phase of a Pauli string: `i^k` with `k` mod 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Phase(u8);

impl Phase {
    /// `+1`.
    pub const PLUS: Phase = Phase(0);
    /// `+i`.
    pub const I: Phase = Phase(1);
    /// `-1`.
    pub const MINUS: Phase = Phase(2);
    /// `-i`.
    pub const MINUS_I: Phase = Phase(3);

    /// Creates `i^k`.
    pub fn from_i_exponent(k: u8) -> Self {
        Phase(k % 4)
    }

    /// The exponent `k` of `i^k`, in `0..4`.
    pub fn i_exponent(self) -> u8 {
        self.0
    }

    /// Whether the phase is real (`±1`).
    pub fn is_real(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Whether the phase is exactly `-1`.
    pub fn is_minus(self) -> bool {
        self.0 == 2
    }

    /// Product of two phases.
    ///
    /// An inherent method (not the `Mul` operator) because `Phase` is used
    /// in tight per-qubit loops where explicit calls read better.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Phase) -> Phase {
        Phase((self.0 + other.0) % 4)
    }

    /// Negated phase.
    pub fn negate(self) -> Phase {
        self.mul(Phase::MINUS)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self.0 {
            0 => "+",
            1 => "+i",
            2 => "-",
            _ => "-i",
        };
        write!(f, "{s}")
    }
}

/// A phased Pauli string over `n` qubits.
///
/// # Example
///
/// ```
/// use ftqc_circuit::{Pauli, PauliString};
///
/// let mut p = PauliString::identity(3);
/// p.set(0, Pauli::X);
/// p.set(2, Pauli::Z);
/// assert_eq!(p.weight(), 2);
/// assert_eq!(p.to_string(), "+XIZ");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    xs: Vec<bool>,
    zs: Vec<bool>,
    phase: Phase,
}

impl PauliString {
    /// The identity string over `n` qubits with phase `+1`.
    pub fn identity(n: usize) -> Self {
        Self {
            xs: vec![false; n],
            zs: vec![false; n],
            phase: Phase::PLUS,
        }
    }

    /// A single-qubit Pauli embedded in an `n`-qubit string.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    pub fn single(n: usize, q: Qubit, p: Pauli) -> Self {
        let mut s = Self::identity(n);
        s.set(q, p);
        s
    }

    /// Parses a string like `"XIZ"` or `"-XYZ"` / `"+iZZ"`.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a description when a character is not in
    /// `IXYZ` or the phase prefix is malformed.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (phase, body) = if let Some(rest) = s.strip_prefix("+i") {
            (Phase::I, rest)
        } else if let Some(rest) = s.strip_prefix("-i") {
            (Phase::MINUS_I, rest)
        } else if let Some(rest) = s.strip_prefix('+') {
            (Phase::PLUS, rest)
        } else if let Some(rest) = s.strip_prefix('-') {
            (Phase::MINUS, rest)
        } else {
            (Phase::PLUS, s)
        };
        let mut out = Self::identity(body.len());
        for (i, ch) in body.chars().enumerate() {
            let p = match ch {
                'I' | 'i' => Pauli::I,
                'X' | 'x' => Pauli::X,
                'Y' | 'y' => Pauli::Y,
                'Z' | 'z' => Pauli::Z,
                other => return Err(format!("invalid pauli character '{other}'")),
            };
            out.set(i as Qubit, p);
        }
        out.phase = phase;
        Ok(out)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.xs.len()
    }

    /// The global phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Overwrites the global phase.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The Pauli at qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn get(&self, q: Qubit) -> Pauli {
        Pauli::from_bits(self.xs[q as usize], self.zs[q as usize])
    }

    /// Sets the Pauli at qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set(&mut self, q: Qubit, p: Pauli) {
        let (x, z) = p.bits();
        self.xs[q as usize] = x;
        self.zs[q as usize] = z;
    }

    /// Number of non-identity positions.
    pub fn weight(&self) -> usize {
        self.xs
            .iter()
            .zip(&self.zs)
            .filter(|(&x, &z)| x || z)
            .count()
    }

    /// Whether the string is the identity (phase ignored).
    pub fn is_identity(&self) -> bool {
        self.weight() == 0
    }

    /// Iterator over `(qubit, Pauli)` pairs for non-identity positions.
    pub fn support(&self) -> impl Iterator<Item = (Qubit, Pauli)> + '_ {
        self.xs
            .iter()
            .zip(&self.zs)
            .enumerate()
            .filter(|(_, (&x, &z))| x || z)
            .map(|(q, (&x, &z))| (q as Qubit, Pauli::from_bits(x, z)))
    }

    /// Whether this string commutes with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different lengths.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.num_qubits(), other.num_qubits());
        let mut anti = false;
        for i in 0..self.xs.len() {
            anti ^= (self.xs[i] && other.zs[i]) ^ (self.zs[i] && other.xs[i]);
        }
        !anti
    }

    /// In-place product `self ← self · other`, with exact phase tracking
    /// (e.g. `X · Y = iZ`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mul_assign(&mut self, other: &PauliString) {
        assert_eq!(self.num_qubits(), other.num_qubits());
        let mut k = self.phase.i_exponent() as u32 + other.phase.i_exponent() as u32;
        for i in 0..self.xs.len() {
            k += pauli_product_i_exponent(self.xs[i], self.zs[i], other.xs[i], other.zs[i]) as u32;
            self.xs[i] ^= other.xs[i];
            self.zs[i] ^= other.zs[i];
        }
        self.phase = Phase::from_i_exponent((k % 4) as u8);
    }

    /// Conjugates the string in place by a Clifford gate: `P ← g P g†`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not Clifford (T, T†, non-Clifford Rz, measure) or
    /// references a qubit out of range.
    pub fn conjugate_by(&mut self, gate: &Gate) {
        match *gate {
            Gate::H(q) => {
                let q = q as usize;
                if self.xs[q] && self.zs[q] {
                    self.phase = self.phase.negate();
                }
                self.xs.swap_with_slice_at(q, &mut self.zs);
            }
            Gate::S(q) => {
                let q = q as usize;
                if self.xs[q] && self.zs[q] {
                    self.phase = self.phase.negate();
                }
                self.zs[q] ^= self.xs[q];
            }
            Gate::Sdg(q) => {
                let q = q as usize;
                if self.xs[q] && !self.zs[q] {
                    self.phase = self.phase.negate();
                }
                self.zs[q] ^= self.xs[q];
            }
            Gate::Sx(q) => {
                let q = q as usize;
                if self.zs[q] && !self.xs[q] {
                    self.phase = self.phase.negate();
                }
                self.xs[q] ^= self.zs[q];
            }
            Gate::Sxdg(q) => {
                let q = q as usize;
                if self.zs[q] && self.xs[q] {
                    self.phase = self.phase.negate();
                }
                self.xs[q] ^= self.zs[q];
            }
            Gate::X(q) => {
                if self.zs[q as usize] {
                    self.phase = self.phase.negate();
                }
            }
            Gate::Y(q) => {
                if self.zs[q as usize] ^ self.xs[q as usize] {
                    self.phase = self.phase.negate();
                }
            }
            Gate::Z(q) => {
                if self.xs[q as usize] {
                    self.phase = self.phase.negate();
                }
            }
            Gate::Rz(q, a) => {
                assert!(a.is_clifford(), "cannot conjugate by non-Clifford Rz");
                // Reduce to a power of S: angle = k * π/2 mod 2π.
                let halves = (a.turns_of_pi() * 2.0).round() as i64;
                match halves.rem_euclid(4) {
                    0 => {}
                    1 => self.conjugate_by(&Gate::S(q)),
                    2 => self.conjugate_by(&Gate::Z(q)),
                    _ => self.conjugate_by(&Gate::Sdg(q)),
                }
            }
            Gate::Cnot { control, target } => {
                let (c, t) = (control as usize, target as usize);
                // Aaronson–Gottesman CNOT phase rule.
                if self.xs[c] && self.zs[t] && (self.xs[t] == self.zs[c]) {
                    self.phase = self.phase.negate();
                }
                self.xs[t] ^= self.xs[c];
                self.zs[c] ^= self.zs[t];
            }
            Gate::Cz(a, b) => {
                // CZ = (I⊗H) CNOT (I⊗H)
                self.conjugate_by(&Gate::H(b));
                self.conjugate_by(&Gate::Cnot {
                    control: a,
                    target: b,
                });
                self.conjugate_by(&Gate::H(b));
            }
            Gate::Swap(a, b) => {
                self.xs.swap(a as usize, b as usize);
                self.zs.swap(a as usize, b as usize);
            }
            Gate::T(_) | Gate::Tdg(_) | Gate::Measure(_) => {
                panic!("cannot conjugate a pauli string by non-Clifford gate {gate}")
            }
        }
    }
}

/// Helper trait: swap single elements between two slices.
trait SwapAt {
    fn swap_with_slice_at(&mut self, i: usize, other: &mut Self);
}

impl SwapAt for Vec<bool> {
    fn swap_with_slice_at(&mut self, i: usize, other: &mut Self) {
        std::mem::swap(&mut self[i], &mut other[i]);
    }
}

/// `i`-exponent contributed by the single-qubit product `P1 · P2` where
/// `P1=(x1,z1)`, `P2=(x2,z2)`: e.g. `X·Y = iZ` contributes 1, `Y·X = -iZ`
/// contributes 3.
fn pauli_product_i_exponent(x1: bool, z1: bool, x2: bool, z2: bool) -> u8 {
    let p1 = Pauli::from_bits(x1, z1);
    let p2 = Pauli::from_bits(x2, z2);
    use Pauli::*;
    match (p1, p2) {
        (I, _) | (_, I) => 0,
        (a, b) if a == b => 0,
        (X, Y) | (Y, Z) | (Z, X) => 1, // cyclic: +i
        _ => 3,                        // anti-cyclic: -i
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.phase)?;
        for i in 0..self.xs.len() {
            write!(f, "{}", Pauli::from_bits(self.xs[i], self.zs[i]))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        PauliString::parse(s).expect("valid pauli literal")
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for lit in ["+XIZ", "-YYI", "+iZZZ", "-iXXX", "+III"] {
            assert_eq!(ps(lit).to_string(), lit);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PauliString::parse("XQZ").is_err());
    }

    #[test]
    fn weight_and_support() {
        let p = ps("XIZY");
        assert_eq!(p.weight(), 3);
        let sup: Vec<_> = p.support().collect();
        assert_eq!(sup, vec![(0, Pauli::X), (2, Pauli::Z), (3, Pauli::Y)]);
    }

    #[test]
    fn commutation_rules() {
        assert!(ps("XX").commutes_with(&ps("ZZ")));
        assert!(!ps("XI").commutes_with(&ps("ZI")));
        assert!(ps("XI").commutes_with(&ps("IZ")));
        assert!(ps("YY").commutes_with(&ps("YY")));
        // Anticommuting at an even number of positions (0 and 2) => commute.
        assert!(ps("XYZ").commutes_with(&ps("ZYX")));
        assert!(!ps("XYZ").commutes_with(&ps("ZYZ")));
    }

    #[test]
    fn product_phases() {
        // X * Y = iZ
        let mut p = ps("X");
        p.mul_assign(&ps("Y"));
        assert_eq!(p.to_string(), "+iZ");
        // Y * X = -iZ
        let mut p = ps("Y");
        p.mul_assign(&ps("X"));
        assert_eq!(p.to_string(), "-iZ");
        // Z * Z = I
        let mut p = ps("Z");
        p.mul_assign(&ps("Z"));
        assert!(p.is_identity());
        assert_eq!(p.phase(), Phase::PLUS);
    }

    #[test]
    fn product_multi_qubit() {
        // (X⊗Z) * (Y⊗Z) = (iZ)⊗I = i Z⊗I
        let mut p = ps("XZ");
        p.mul_assign(&ps("YZ"));
        assert_eq!(p.to_string(), "+iZI");
    }

    #[test]
    fn h_conjugation() {
        let mut p = ps("X");
        p.conjugate_by(&Gate::H(0));
        assert_eq!(p.to_string(), "+Z");
        let mut p = ps("Z");
        p.conjugate_by(&Gate::H(0));
        assert_eq!(p.to_string(), "+X");
        let mut p = ps("Y");
        p.conjugate_by(&Gate::H(0));
        assert_eq!(p.to_string(), "-Y");
    }

    #[test]
    fn s_conjugation() {
        let mut p = ps("X");
        p.conjugate_by(&Gate::S(0));
        assert_eq!(p.to_string(), "+Y");
        let mut p = ps("Y");
        p.conjugate_by(&Gate::S(0));
        assert_eq!(p.to_string(), "-X");
        let mut p = ps("Z");
        p.conjugate_by(&Gate::S(0));
        assert_eq!(p.to_string(), "+Z");
    }

    #[test]
    fn sdg_inverts_s() {
        for lit in ["X", "Y", "Z"] {
            let mut p = ps(lit);
            p.conjugate_by(&Gate::S(0));
            p.conjugate_by(&Gate::Sdg(0));
            assert_eq!(p, ps(lit), "S then Sdg must be identity on {lit}");
        }
    }

    #[test]
    fn sx_conjugation() {
        let mut p = ps("Z");
        p.conjugate_by(&Gate::Sx(0));
        assert_eq!(p.to_string(), "-Y");
        let mut p = ps("Y");
        p.conjugate_by(&Gate::Sx(0));
        assert_eq!(p.to_string(), "+Z");
        let mut p = ps("X");
        p.conjugate_by(&Gate::Sx(0));
        assert_eq!(p.to_string(), "+X");
    }

    #[test]
    fn sxdg_inverts_sx() {
        for lit in ["X", "Y", "Z"] {
            let mut p = ps(lit);
            p.conjugate_by(&Gate::Sx(0));
            p.conjugate_by(&Gate::Sxdg(0));
            assert_eq!(p, ps(lit));
        }
    }

    #[test]
    fn pauli_gate_conjugation_signs() {
        let mut p = ps("Z");
        p.conjugate_by(&Gate::X(0));
        assert_eq!(p.to_string(), "-Z");
        let mut p = ps("X");
        p.conjugate_by(&Gate::Z(0));
        assert_eq!(p.to_string(), "-X");
        let mut p = ps("Y");
        p.conjugate_by(&Gate::Y(0));
        assert_eq!(p.to_string(), "+Y");
    }

    #[test]
    fn cnot_conjugation_table() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let cases = [
            ("XI", "+XX"),
            ("IX", "+IX"),
            ("ZI", "+ZI"),
            ("IZ", "+ZZ"),
            ("YI", "+YX"),
            ("IY", "+ZY"),
            ("XX", "+XI"),
            ("ZZ", "+IZ"),
            ("YY", "-XZ"),
        ];
        for (input, expected) in cases {
            let mut p = ps(input);
            p.conjugate_by(&cx);
            assert_eq!(p.to_string(), expected, "CNOT on {input}");
        }
    }

    #[test]
    fn cz_conjugation_table() {
        let cz = Gate::Cz(0, 1);
        let cases = [("XI", "+XZ"), ("IX", "+ZX"), ("ZI", "+ZI"), ("IZ", "+IZ")];
        for (input, expected) in cases {
            let mut p = ps(input);
            p.conjugate_by(&cz);
            assert_eq!(p.to_string(), expected, "CZ on {input}");
        }
    }

    #[test]
    fn swap_conjugation() {
        let mut p = ps("XZ");
        p.conjugate_by(&Gate::Swap(0, 1));
        assert_eq!(p.to_string(), "+ZX");
    }

    #[test]
    fn clifford_rz_reduction() {
        use crate::gate::Angle;
        // Rz(π/2) ~ S
        let mut p = ps("X");
        p.conjugate_by(&Gate::Rz(0, Angle::new(0.5)));
        assert_eq!(p.to_string(), "+Y");
        // Rz(π) ~ Z
        let mut p = ps("X");
        p.conjugate_by(&Gate::Rz(0, Angle::new(1.0)));
        assert_eq!(p.to_string(), "-X");
        // Rz(-π/2) ~ Sdg
        let mut p = ps("X");
        p.conjugate_by(&Gate::Rz(0, Angle::new(-0.5)));
        assert_eq!(p.to_string(), "-Y");
        // Rz(2π) ~ I
        let mut p = ps("X");
        p.conjugate_by(&Gate::Rz(0, Angle::new(2.0)));
        assert_eq!(p.to_string(), "+X");
    }

    #[test]
    #[should_panic(expected = "non-Clifford")]
    fn t_conjugation_panics() {
        let mut p = ps("X");
        p.conjugate_by(&Gate::T(0));
    }

    #[test]
    fn conjugation_preserves_commutation() {
        // Conjugation is an automorphism: commutation must be invariant.
        let gates = [
            Gate::H(0),
            Gate::S(1),
            Gate::Sx(0),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::Cz(1, 0),
        ];
        let strings = ["XI", "IX", "ZI", "IZ", "YY", "XZ", "ZY"];
        for g in &gates {
            for a in strings {
                for b in strings {
                    let (mut ca, mut cb) = (ps(a), ps(b));
                    let before = ca.commutes_with(&cb);
                    ca.conjugate_by(g);
                    cb.conjugate_by(g);
                    assert_eq!(before, ca.commutes_with(&cb), "gate {g} on ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn phase_arithmetic() {
        assert_eq!(Phase::I.mul(Phase::I), Phase::MINUS);
        assert_eq!(Phase::MINUS.mul(Phase::MINUS), Phase::PLUS);
        assert_eq!(Phase::I.mul(Phase::MINUS_I), Phase::PLUS);
        assert!(Phase::PLUS.is_real());
        assert!(!Phase::I.is_real());
        assert!(Phase::MINUS.is_minus());
        assert_eq!(Phase::from_i_exponent(7), Phase::MINUS_I);
    }
}
