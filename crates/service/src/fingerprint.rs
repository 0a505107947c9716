//! Content-addressed fingerprints for compile jobs.
//!
//! A compile result is determined entirely by the pair *(circuit,
//! compiler options)*, so the cache keys on a 64-bit FNV-1a digest of the
//! circuit's canonical gate sequence combined with the canonical JSON of
//! the options. Circuit *names* are deliberately excluded: two identically
//! named circuits with different gates get different keys, and the same
//! circuit under two names gets the same key.

use crate::json::{ToJson, Value};
use ftqc_circuit::{Angle, Circuit, Gate};
use std::fmt::{self, Write};

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Formatted text absorbed as it is produced, byte for byte as if it had
/// first been rendered into a `String`.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a byte slice.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Digest of a JSON value's canonical rendering — the options half of a
/// cache key.
pub fn fingerprint_value(value: &Value) -> u64 {
    fingerprint_bytes(value.render().as_bytes())
}

/// Digest of a circuit's canonical form: register width plus the exact gate
/// sequence (angles included). The circuit name does not participate.
///
/// Each gate contributes its `Debug` text and a `;`, the bytes of
/// `format!("{gate:?};")`, on which every persisted key depends. The text
/// is written into the hasher by hand, with only an `Rz` angle rendered
/// by the formatter, so hashing a gate costs no formatting machinery.
pub fn fingerprint_circuit(circuit: &Circuit) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(circuit.num_qubits()));
    let mut text = GateText::default();
    for gate in circuit.gates() {
        text.write(gate, &mut h).expect("hashing never fails");
    }
    h.finish()
}

/// Writes gates as `format!("{gate:?};")` renders them: the variant name,
/// decimal qubits and fixed punctuation written directly, and only an `Rz`
/// angle rendered by the formatter. The last angle's text is kept, so an
/// angle is rendered again only when it differs from the one before.
#[derive(Debug, Default)]
struct GateText {
    /// The bits of the last angle rendered.
    angle_bits: Option<u64>,
    /// Its `Debug` text.
    angle: String,
}

impl GateText {
    /// Writes `gate`'s `Debug` text and a `;` to `out`.
    fn write<W: Write>(&mut self, gate: &Gate, out: &mut W) -> fmt::Result {
        let one = |out: &mut W, name: &str, q: u32| {
            out.write_str(name)?;
            decimal(out, q)?;
            out.write_str(");")
        };
        let two = |out: &mut W, name: &str, a: u32, b: u32| {
            out.write_str(name)?;
            decimal(out, a)?;
            out.write_str(", ")?;
            decimal(out, b)?;
            out.write_str(");")
        };
        match *gate {
            Gate::H(q) => one(out, "H(", q),
            Gate::S(q) => one(out, "S(", q),
            Gate::Sdg(q) => one(out, "Sdg(", q),
            Gate::Sx(q) => one(out, "Sx(", q),
            Gate::Sxdg(q) => one(out, "Sxdg(", q),
            Gate::X(q) => one(out, "X(", q),
            Gate::Y(q) => one(out, "Y(", q),
            Gate::Z(q) => one(out, "Z(", q),
            Gate::T(q) => one(out, "T(", q),
            Gate::Tdg(q) => one(out, "Tdg(", q),
            Gate::Measure(q) => one(out, "Measure(", q),
            Gate::Cz(a, b) => two(out, "Cz(", a, b),
            Gate::Swap(a, b) => two(out, "Swap(", a, b),
            Gate::Cnot { control, target } => {
                out.write_str("Cnot { control: ")?;
                decimal(out, control)?;
                out.write_str(", target: ")?;
                decimal(out, target)?;
                out.write_str(" };")
            }
            Gate::Rz(q, angle) => {
                out.write_str("Rz(")?;
                decimal(out, q)?;
                out.write_str(", Angle { turns_of_pi: ")?;
                out.write_str(self.angle_text(angle))?;
                out.write_str(" });")
            }
        }
    }

    /// The `Debug` text of `angle`'s value in units of π.
    fn angle_text(&mut self, angle: Angle) -> &str {
        let turns = angle.turns_of_pi();
        if self.angle_bits != Some(turns.to_bits()) {
            self.angle.clear();
            write!(self.angle, "{turns:?}").expect("writing to a String never fails");
            self.angle_bits = Some(turns.to_bits());
        }
        &self.angle
    }
}

/// Writes `n` in decimal.
fn decimal<W: Write>(out: &mut W, mut n: u32) -> fmt::Result {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"))
}

/// Order-sensitive combination of two digests (circuit half + options
/// half).
pub fn combine(a: u64, b: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(a).write_u64(b);
    h.finish()
}

/// The whole-job cache key: the circuit digest ([`fingerprint_circuit`])
/// combined with the digest of the options' canonical JSON. Every
/// memoised compile path (batch jobs, sweeps, `ftqc compile --json`) keys
/// on this one recipe, so their cache entries are interchangeable.
pub fn job_key<O: ToJson + ?Sized>(circuit_fp: u64, options: &O) -> u64 {
    combine(circuit_fp, fingerprint_value(&options.to_json()))
}

/// Formats a fingerprint the way the file cache and JSONL results carry it
/// (16 hex digits, so `u64`s never squeeze through `f64` JSON numbers).
pub fn to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses [`to_hex`]'s output.
pub fn from_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use proptest::prelude::*;

    /// Angles whose `Debug` text takes each of its forms: signed zeros,
    /// the switches to exponent notation (below 1e-4, from 1e16), the
    /// extremes and the non-finite values.
    const EDGE_ANGLES: [f64; 16] = [
        0.0,
        -0.0,
        0.25,
        0.1,
        -0.5,
        1e-7,
        1e16,
        1e17,
        -1e17,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        1.0 / 3.0,
    ];

    fn arb_qubit() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..16, any::<u32>(), Just(u32::MAX), Just(u32::MAX - 1)]
    }

    /// Turns of π: an edge angle (a run of gates often repeats one) or any
    /// bit pattern.
    fn arb_turns() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..EDGE_ANGLES.len()).prop_map(|i| EDGE_ANGLES[i]),
            any::<u64>().prop_map(f64::from_bits),
            any::<f64>(),
        ]
    }

    /// A gate of any of the fifteen variants.
    fn arb_gate() -> impl Strategy<Value = Gate> {
        (0u8..15, arb_qubit(), arb_qubit(), arb_turns()).prop_map(|(variant, a, b, turns)| {
            match variant {
                0 => Gate::H(a),
                1 => Gate::S(a),
                2 => Gate::Sdg(a),
                3 => Gate::Sx(a),
                4 => Gate::Sxdg(a),
                5 => Gate::X(a),
                6 => Gate::Y(a),
                7 => Gate::Z(a),
                8 => Gate::T(a),
                9 => Gate::Tdg(a),
                10 => Gate::Rz(a, Angle::new(turns)),
                11 => Gate::Cnot {
                    control: a,
                    target: b,
                },
                12 => Gate::Cz(a, b),
                13 => Gate::Swap(a, b),
                _ => Gate::Measure(a),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The hand-written text of a gate sequence is `format!("{gate:?};")`
        /// of each gate, byte for byte, and a circuit's fingerprint hashes
        /// exactly those bytes.
        #[test]
        fn gate_text_matches_the_debug_format(
            gates in prop::collection::vec(arb_gate(), 1..24),
        ) {
            let mut text = GateText::default();
            let mut written = String::new();
            let mut formatted = String::new();
            for gate in &gates {
                text.write(gate, &mut written).expect("writing to a String never fails");
                formatted.push_str(&format!("{gate:?};"));
            }
            prop_assert_eq!(&written, &formatted);

            let mut circuit = Circuit::new(u32::MAX);
            let mut expected = Fnv64::new();
            expected.write_u64(u64::from(u32::MAX));
            for gate in &gates {
                if circuit.check_gate(gate).is_ok() {
                    circuit.push(*gate);
                    expected.write_str(&format!("{gate:?};"));
                }
            }
            prop_assert_eq!(fingerprint_circuit(&circuit), expected.finish());
        }
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fingerprint_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn circuit_name_does_not_participate() {
        let mut a = Circuit::with_name(3, "alpha");
        let mut b = Circuit::with_name(3, "beta");
        for c in [&mut a, &mut b] {
            c.h(0).cnot(0, 1).t(2);
        }
        assert_eq!(fingerprint_circuit(&a), fingerprint_circuit(&b));
    }

    #[test]
    fn one_gate_changes_fingerprint() {
        let mut a = Circuit::new(3);
        a.h(0).cnot(0, 1).t(2);
        let mut b = Circuit::new(3);
        b.h(0).cnot(0, 1).t(1); // t on a different qubit
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1); // one gate fewer
        assert_ne!(fingerprint_circuit(&a), fingerprint_circuit(&b));
        assert_ne!(fingerprint_circuit(&a), fingerprint_circuit(&c));
    }

    #[test]
    fn register_width_participates() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(4);
        b.h(0);
        assert_ne!(fingerprint_circuit(&a), fingerprint_circuit(&b));
    }

    /// `--cache` files and the server's file tier persist keys built from
    /// this digest, so its bytes are pinned: one circuit holding every
    /// `Gate` variant (a dyadic and a non-dyadic `Rz` angle included) and
    /// an empty register.
    #[test]
    fn circuit_fingerprints_are_pinned() {
        let mut every = Circuit::new(3);
        every
            .h(0)
            .s(1)
            .sdg(2)
            .sx(0)
            .sxdg(1)
            .x(2)
            .y(0)
            .z(1)
            .t(2)
            .tdg(0)
            .rz_pi(1, 0.25)
            .rz_pi(2, 0.1)
            .cnot(0, 1)
            .cz(1, 2)
            .swap(2, 0)
            .measure(1);
        assert_eq!(to_hex(fingerprint_circuit(&every)), "0d3d8831953a7a56");
        assert_eq!(
            to_hex(fingerprint_circuit(&Circuit::new(3))),
            "c7c2bf3b330983e6"
        );
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_eq!(combine(1, 2), combine(1, 2));
    }

    #[test]
    fn value_fingerprint_tracks_content() {
        let a = Value::Obj(vec![("r".into(), Value::Num(4.0))]);
        let b = Value::Obj(vec![("r".into(), Value::Num(5.0))]);
        assert_ne!(fingerprint_value(&a), fingerprint_value(&b));
        assert_eq!(fingerprint_value(&a), fingerprint_value(&a.clone()));
    }

    #[test]
    fn hex_roundtrip() {
        for fp in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(from_hex(&to_hex(fp)), Some(fp));
        }
        assert_eq!(from_hex("zz"), None);
    }
}
