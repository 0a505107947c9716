//! Reader/writer for the OpenQASM 2 subset used by QASMBench-style files.
//!
//! The paper evaluates GHZ/adder/multiplier circuits from QASMBench \[26\].
//! This module lets the original `.qasm` files be fed to the compiler when
//! available; the `ftqc-benchmarks` crate provides synthetic generators with
//! identical gate counts for fully offline runs.
//!
//! Supported statements: `OPENQASM 2.0`, `include`, `qreg`, `creg`, gate
//! applications from the compiler's instruction set (`h s sdg sx sxdg x y z
//! t tdg rz cx cz swap`), `measure`, and `barrier` (ignored). Angle
//! expressions accept decimal literals and `±a*pi/b` fractions.

use crate::circuit::Circuit;
use crate::gate::{Angle, Gate, Qubit};
use ftqc_arch::{TargetError, MAX_QUBITS};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced when parsing OpenQASM input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    line: usize,
    message: String,
}

impl QasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for QasmError {}

/// Parses an OpenQASM 2 source string into a [`Circuit`].
///
/// Multiple `qreg` declarations are flattened into one register in
/// declaration order, of at most [`MAX_QUBITS`] qubits. Classical registers and the classical targets of
/// `measure` are accepted and discarded (the compiler models measurement as
/// a qubit-level operation).
///
/// # Errors
///
/// Returns a [`QasmError`] describing the first offending statement.
///
/// # Example
///
/// ```
/// use ftqc_circuit::parse_qasm;
///
/// let src = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     h q[0];
///     cx q[0], q[1];
///     rz(pi/4) q[1];
/// "#;
/// let c = parse_qasm(src)?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.len(), 3);
/// # Ok::<(), ftqc_circuit::QasmError>(())
/// ```
pub fn parse_qasm(src: &str) -> Result<Circuit, QasmError> {
    let mut regs: HashMap<String, Register> = HashMap::new();
    let mut total_qubits = 0u32;
    let mut gates: Vec<Gate> = Vec::new();
    let mut operands: Vec<Qubit> = Vec::new();

    for (lineno, raw_line) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            operands.clear();
            parse_statement(
                stmt,
                lineno,
                &mut regs,
                &mut total_qubits,
                &mut operands,
                &mut gates,
            )?;
        }
    }

    let mut circuit = Circuit::new(total_qubits);
    for g in gates {
        circuit.push(g);
    }
    Ok(circuit)
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// A declared quantum register: its first index in the flattened register,
/// and its size.
#[derive(Debug, Clone, Copy)]
struct Register {
    offset: u32,
    size: u32,
}

/// What a gate mnemonic builds.
#[derive(Debug, Clone, Copy)]
enum Mnemonic {
    /// A single-qubit gate, applied to every operand (a bare register
    /// broadcasts).
    Single(fn(Qubit) -> Gate),
    /// The identity: no gate.
    Id,
    Rz,
    Cnot,
    Cz,
    Swap,
}

/// The gate mnemonics read, in lower case (they match in any case).
const MNEMONICS: [(&str, Mnemonic); 18] = [
    ("h", Mnemonic::Single(Gate::H)),
    ("s", Mnemonic::Single(Gate::S)),
    ("sdg", Mnemonic::Single(Gate::Sdg)),
    ("sx", Mnemonic::Single(Gate::Sx)),
    ("sxdg", Mnemonic::Single(Gate::Sxdg)),
    ("x", Mnemonic::Single(Gate::X)),
    ("y", Mnemonic::Single(Gate::Y)),
    ("z", Mnemonic::Single(Gate::Z)),
    ("t", Mnemonic::Single(Gate::T)),
    ("tdg", Mnemonic::Single(Gate::Tdg)),
    ("id", Mnemonic::Id),
    ("rz", Mnemonic::Rz),
    ("u1", Mnemonic::Rz),
    ("p", Mnemonic::Rz),
    ("cx", Mnemonic::Cnot),
    ("cnot", Mnemonic::Cnot),
    ("cz", Mnemonic::Cz),
    ("swap", Mnemonic::Swap),
];

/// Whether `stmt` starts with the lower-case `keyword`, in any case.
fn has_keyword(stmt: &str, keyword: &str) -> bool {
    stmt.get(..keyword.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(keyword))
}

/// What precedes the first `open` in `s`, and the text between it and
/// the first `close` after it.
fn enclosed(s: &str, open: char, close: char) -> Option<(&str, &str)> {
    let (before, rest) = s.split_once(open)?;
    let (inside, _) = rest.split_once(close)?;
    Some((before, inside))
}

/// Parses one statement, appending its gates to `gates`; `operands` is
/// an empty scratch buffer for the statement's resolved operands.
fn parse_statement(
    stmt: &str,
    lineno: usize,
    regs: &mut HashMap<String, Register>,
    total_qubits: &mut u32,
    operands: &mut Vec<Qubit>,
    gates: &mut Vec<Gate>,
) -> Result<(), QasmError> {
    if ["openqasm", "include", "creg", "barrier"]
        .iter()
        .any(|keyword| has_keyword(stmt, keyword))
    {
        return Ok(());
    }
    if has_keyword(stmt, "qreg") {
        let rest = stmt["qreg".len()..].trim();
        let (name, size) = parse_reg_decl(rest)
            .ok_or_else(|| QasmError::new(lineno, format!("malformed qreg '{stmt}'")))?;
        if regs.contains_key(name) {
            return Err(QasmError::new(lineno, format!("duplicate qreg '{name}'")));
        }
        let total = u64::from(*total_qubits) + u64::from(size);
        if total > u64::from(MAX_QUBITS) {
            let cap = TargetError::QubitCapExceeded {
                qubits: total,
                max: MAX_QUBITS,
            };
            return Err(QasmError::new(lineno, cap.to_string()));
        }
        let offset = *total_qubits;
        regs.insert(name.to_string(), Register { offset, size });
        *total_qubits += size;
        return Ok(());
    }
    if has_keyword(stmt, "measure") {
        // "measure q[i] -> c[i]" or "measure q -> c" (whole register)
        let body = stmt["measure".len()..].trim();
        let src = body.split("->").next().unwrap_or("").trim();
        resolve_operands(src, regs, lineno, operands)?;
        gates.extend(operands.iter().map(|&q| Gate::Measure(q)));
        return Ok(());
    }

    // Gate application: name[(params)] operands
    let (head, operand_str) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(i) => (&stmt[..i], stmt[i..].trim()),
        None => {
            return Err(QasmError::new(
                lineno,
                format!("malformed statement '{stmt}'"),
            ))
        }
    };
    let (name, param) = match head.split_once('(') {
        Some((name, rest)) => {
            let close = rest
                .rfind(')')
                .ok_or_else(|| QasmError::new(lineno, "unbalanced parenthesis"))?;
            (name, Some(&rest[..close]))
        }
        None => (head, None),
    };

    for part in operand_str.split(',') {
        resolve_operands(part.trim(), regs, lineno, operands)?;
    }

    let Some(&(name, mnemonic)) = MNEMONICS
        .iter()
        .find(|(mnemonic, _)| mnemonic.eq_ignore_ascii_case(name))
    else {
        return Err(QasmError::new(
            lineno,
            format!(
                "unsupported gate '{}' (supported: h s sdg sx sxdg x y z t tdg rz cx cz swap measure)",
                name.to_ascii_lowercase()
            ),
        ));
    };
    let require = |n: usize| -> Result<(), QasmError> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(QasmError::new(
                lineno,
                format!(
                    "gate '{name}' expects {n} operand(s), got {}",
                    operands.len()
                ),
            ))
        }
    };
    // `Circuit::push` panics on a two-qubit gate that names one qubit
    // twice, so refuse it here.
    let pair = || -> Result<(Qubit, Qubit), QasmError> {
        require(2)?;
        if operands[0] == operands[1] {
            return Err(QasmError::new(
                lineno,
                format!("gate '{name}' names one qubit twice in '{operand_str}'"),
            ));
        }
        Ok((operands[0], operands[1]))
    };

    match mnemonic {
        Mnemonic::Single(gate) => gates.extend(operands.iter().map(|&q| gate(q))),
        Mnemonic::Id => {}
        Mnemonic::Rz => {
            require(1)?;
            let angle = parse_angle(param.ok_or_else(|| {
                QasmError::new(lineno, format!("'{name}' requires an angle parameter"))
            })?)
            .map_err(|e| QasmError::new(lineno, e))?;
            gates.push(Gate::Rz(operands[0], angle));
        }
        Mnemonic::Cnot => {
            let (control, target) = pair()?;
            gates.push(Gate::Cnot { control, target });
        }
        Mnemonic::Cz => {
            let (a, b) = pair()?;
            gates.push(Gate::Cz(a, b));
        }
        Mnemonic::Swap => {
            let (a, b) = pair()?;
            gates.push(Gate::Swap(a, b));
        }
    }
    Ok(())
}

fn parse_reg_decl(s: &str) -> Option<(&str, u32)> {
    let (name, size) = enclosed(s, '[', ']')?;
    let name = name.trim();
    let size: u32 = size.trim().parse().ok()?;
    if name.is_empty() {
        return None;
    }
    Some((name, size))
}

/// Appends the qubits `s` names to `out`: one flat index for `q\[3\]`, or
/// every index of a bare register name `q` (register broadcast).
fn resolve_operands(
    s: &str,
    regs: &HashMap<String, Register>,
    lineno: usize,
    out: &mut Vec<Qubit>,
) -> Result<(), QasmError> {
    let register = |name: &str| {
        regs.get(name)
            .copied()
            .ok_or_else(|| QasmError::new(lineno, format!("unknown register '{name}'")))
    };
    if s.contains('[') {
        let (name, idx) = enclosed(s, '[', ']')
            .ok_or_else(|| QasmError::new(lineno, format!("missing ']' in '{s}'")))?;
        let name = name.trim();
        let idx: u32 = idx
            .trim()
            .parse()
            .map_err(|_| QasmError::new(lineno, format!("bad index in '{s}'")))?;
        let Register { offset, size } = register(name)?;
        if idx >= size {
            return Err(QasmError::new(
                lineno,
                format!("index {idx} out of range for register '{name}[{size}]'"),
            ));
        }
        out.push(offset + idx);
    } else {
        let Register { offset, size } = register(s.trim())?;
        out.extend(offset..offset + size);
    }
    Ok(())
}

/// Parses an angle expression: decimal radians, or `±a*pi/b` with optional
/// parts (`pi`, `-pi/2`, `3*pi/4`, `2*pi`). The angle must be finite both
/// in turns of π and in radians.
fn parse_angle(s: &str) -> Result<Angle, String> {
    let s = s.trim().replace(' ', "");
    let angle = parse_angle_expr(&s)?;
    if angle.is_finite() {
        Ok(angle)
    } else {
        Err(format!("angle '{s}' is not finite"))
    }
}

fn parse_angle_expr(s: &str) -> Result<Angle, String> {
    if s.is_empty() {
        return Err("empty angle expression".into());
    }
    if let Ok(v) = s.parse::<f64>() {
        return Ok(Angle::from_radians(v));
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let (num_part, den): (&str, f64) = match body.find('/') {
        Some(i) => {
            let den: f64 = body[i + 1..]
                .parse()
                .map_err(|_| format!("bad denominator in '{s}'"))?;
            (&body[..i], den)
        }
        None => (body, 1.0),
    };
    let coeff: f64 = match num_part.find("pi") {
        Some(0) => 1.0,
        Some(i) => {
            let lead = num_part[..i].trim_end_matches('*');
            lead.parse()
                .map_err(|_| format!("bad coefficient in '{s}'"))?
        }
        None => return Err(format!("cannot parse angle '{s}'")),
    };
    let turns = if neg { -coeff / den } else { coeff / den };
    Ok(Angle::new(turns))
}

/// Serialises a circuit back to OpenQASM 2 text.
///
/// Measurements are written with a matching `creg`. Output parses back to
/// an equivalent circuit via [`parse_qasm`].
pub fn write_qasm(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    let n_measure = circuit.counts().measure;
    if n_measure > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.num_qubits());
    }
    for g in circuit.iter() {
        match g {
            Gate::Rz(q, a) => {
                let _ = writeln!(out, "rz({}) q[{}];", a.radians(), q);
            }
            Gate::Cnot { control, target } => {
                let _ = writeln!(out, "cx q[{control}], q[{target}];");
            }
            Gate::Cz(a, b) => {
                let _ = writeln!(out, "cz q[{a}], q[{b}];");
            }
            Gate::Swap(a, b) => {
                let _ = writeln!(out, "swap q[{a}], q[{b}];");
            }
            Gate::Measure(q) => {
                let _ = writeln!(out, "measure q[{q}] -> c[{q}];");
            }
            g => {
                let q = g.qubits().next().expect("single-qubit gate");
                let _ = writeln!(out, "{} q[{}];", g.name(), q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0], q[1];
            rz(pi/4) q[2];
            t q[1]; tdg q[2];
            measure q[0] -> c[0];
        "#;
        let c = parse_qasm(src).expect("parses");
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.counts().h, 1);
        assert_eq!(c.counts().cnot, 1);
        assert_eq!(c.counts().rz, 1);
        assert_eq!(c.counts().t, 1);
        assert_eq!(c.counts().tdg, 1);
        assert_eq!(c.counts().measure, 1);
    }

    #[test]
    fn rz_pi_fraction_is_exact() {
        let c = parse_qasm("qreg q[1]; rz(pi/4) q[0];").unwrap();
        match c.gates()[0] {
            Gate::Rz(_, a) => assert_eq!(a, Angle::new(0.25)),
            _ => panic!("expected rz"),
        }
        let c = parse_qasm("qreg q[1]; rz(-3*pi/2) q[0];").unwrap();
        match c.gates()[0] {
            Gate::Rz(_, a) => assert_eq!(a, Angle::new(-1.5)),
            _ => panic!("expected rz"),
        }
    }

    #[test]
    fn rz_decimal_radians() {
        let c = parse_qasm("qreg q[1]; rz(1.5707963267948966) q[0];").unwrap();
        match c.gates()[0] {
            Gate::Rz(_, a) => assert!((a.turns_of_pi() - 0.5).abs() < 1e-12),
            _ => panic!("expected rz"),
        }
    }

    #[test]
    fn register_broadcast() {
        let c = parse_qasm("qreg q[4]; h q;").unwrap();
        assert_eq!(c.counts().h, 4);
    }

    #[test]
    fn multiple_qregs_flatten() {
        let c = parse_qasm("qreg a[2]; qreg b[3]; cx a[1], b[0];").unwrap();
        assert_eq!(c.num_qubits(), 5);
        match c.gates()[0] {
            Gate::Cnot { control, target } => {
                assert_eq!(control, 1);
                assert_eq!(target, 2);
            }
            _ => panic!("expected cx"),
        }
    }

    #[test]
    fn comments_and_barriers_ignored() {
        let c = parse_qasm("qreg q[1]; // comment\nbarrier q; h q[0]; // trailing").unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_qasm("qreg q[1];\nfoo q[0];").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unsupported gate"));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let err = parse_qasm("qreg q[2]; h q[5];").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn unknown_register_rejected() {
        let err = parse_qasm("qreg q[2]; h r[0];").unwrap_err();
        assert!(err.to_string().contains("unknown register"));
    }

    #[test]
    fn roundtrip_through_writer() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cnot(0, 1)
            .rz_pi(2, 0.25)
            .sdg(1)
            .sx(2)
            .swap(0, 2)
            .cz(1, 2)
            .measure(0);
        let text = write_qasm(&c);
        let back = parse_qasm(&text).expect("writer output parses");
        assert_eq!(back.num_qubits(), c.num_qubits());
        assert_eq!(back.counts(), c.counts());
    }

    /// Hostile input is a typed error: a two-qubit gate naming one qubit
    /// twice (which `Circuit::push` panics on), a register total past the
    /// qubit cap, even one that wraps `u32`, before a broadcast can
    /// allocate for it, and brackets or parentheses closed before they
    /// open.
    #[test]
    fn hostile_registers_and_operands_are_refused() {
        for src in [
            "qreg ]q[3;",
            "h ]q[0;",
            "measure ]q[0 -> c[0];",
            "rz)(pi q[0];",
        ] {
            let err = parse_qasm(src).unwrap_err();
            assert_eq!(err.line(), 1, "{src}: {err}");
        }
        for src in [
            "qreg q[2]; cx q[0], q[0];",
            "qreg q[2]; cz q[1], q[1];",
            "qreg q[1]; swap q, q;",
        ] {
            let err = parse_qasm(src).unwrap_err();
            assert!(err.to_string().contains("names one qubit twice"), "{err}");
        }
        for src in [
            "qreg a[4294967295]; qreg b[2]; h b[1];",
            "qreg a[4000]; qreg b[97];",
            "qreg q[4000000000]; h q;",
        ] {
            let err = parse_qasm(src).unwrap_err();
            let cap = format!("but at most {MAX_QUBITS} are supported");
            assert!(err.to_string().contains(&cap), "{err}");
        }
        let full = parse_qasm("qreg a[4000]; qreg b[96]; cx a[0], b[95];").unwrap();
        assert_eq!(full.num_qubits(), MAX_QUBITS);
    }

    /// An angle must be finite in turns of π and in radians: `write_qasm`
    /// prints radians, and the checkers compare rotations numerically.
    #[test]
    fn non_finite_angles_are_refused() {
        for angle in ["nan", "inf", "-inf", "pi/0", "1e308*pi"] {
            let err = parse_qasm(&format!("qreg q[1]; rz({angle}) q[0];")).unwrap_err();
            assert!(err.to_string().contains("is not finite"), "{angle}: {err}");
        }
        let c = parse_qasm("qreg q[1]; rz(1e300) q[0]; rz(1e300*pi) q[0];").unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn duplicate_qreg_rejected() {
        let err = parse_qasm("qreg q[1]; qreg q[2];").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }
}
