//! The circuit-edit model: single edits, versioned batches, and their
//! JSON wire form.
//!
//! An IDE-style client never re-sends the whole circuit; it sends
//! [`CircuitEdit`]s — insert/remove/retarget/replace of one gate at one
//! index — batched into an [`EditSet`]. The set carries an optional
//! `base_version` (optimistic concurrency: the edit only applies if the
//! session is still at that version) and a stable content digest so two
//! clients describing the same batch agree on its identity.

use ftqc_circuit::{Angle, Gate};
use ftqc_service::fingerprint::fingerprint_value;
use ftqc_service::json::{self, FromJson, JsonError, ToJson, Value};

/// One gate-level mutation of a circuit, addressed by gate index.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitEdit {
    /// Insert `gate` before index `index` (`index == len` appends).
    Insert {
        /// Insertion point.
        index: usize,
        /// The new gate.
        gate: Gate,
    },
    /// Remove the gate at `index`.
    Remove {
        /// Victim index.
        index: usize,
    },
    /// Keep the gate kind at `index` but move it onto `qubits`.
    Retarget {
        /// Gate to retarget.
        index: usize,
        /// New operand list (must match the gate's arity).
        qubits: Vec<u32>,
    },
    /// Replace the gate at `index` with `gate`.
    Replace {
        /// Victim index.
        index: usize,
        /// The replacement.
        gate: Gate,
    },
}

/// The wire name of a gate kind.
fn gate_name(gate: &Gate) -> &'static str {
    match gate {
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
        Gate::Cnot { .. } => "cnot",
        Gate::Cz(_, _) => "cz",
        Gate::Swap(_, _) => "swap",
        Gate::Measure(_) => "measure",
    }
}

/// Builds a gate from its wire name, operand list, and optional angle
/// (`rz` only, in units of π).
///
/// # Errors
///
/// Returns a schema error for unknown names, wrong arity, or a missing
/// `angle` on `rz` or one that is not finite in units of π and in radians
/// ([`Angle::is_finite`]).
pub fn gate_from_parts(name: &str, qubits: &[u32], angle: Option<f64>) -> Result<Gate, JsonError> {
    let one = || -> Result<u32, JsonError> {
        match qubits {
            [q] => Ok(*q),
            _ => Err(JsonError::schema(format!(
                "gate {name:?} takes 1 qubit, got {}",
                qubits.len()
            ))),
        }
    };
    let two = || -> Result<(u32, u32), JsonError> {
        match qubits {
            [a, b] => Ok((*a, *b)),
            _ => Err(JsonError::schema(format!(
                "gate {name:?} takes 2 qubits, got {}",
                qubits.len()
            ))),
        }
    };
    if name != "rz" && angle.is_some() {
        return Err(JsonError::schema(format!(
            "gate {name:?} takes no \"angle\""
        )));
    }
    Ok(match name {
        "h" => Gate::H(one()?),
        "s" => Gate::S(one()?),
        "sdg" => Gate::Sdg(one()?),
        "sx" => Gate::Sx(one()?),
        "sxdg" => Gate::Sxdg(one()?),
        "x" => Gate::X(one()?),
        "y" => Gate::Y(one()?),
        "z" => Gate::Z(one()?),
        "t" => Gate::T(one()?),
        "tdg" => Gate::Tdg(one()?),
        "rz" => {
            let turns = angle
                .ok_or_else(|| JsonError::schema("gate \"rz\" requires \"angle\" (units of π)"))?;
            let angle = Angle::new(turns);
            if !angle.is_finite() {
                return Err(JsonError::schema(format!(
                    "gate \"rz\" \"angle\" {turns} (units of π) is not finite"
                )));
            }
            Gate::Rz(one()?, angle)
        }
        "cnot" | "cx" => {
            let (control, target) = two()?;
            Gate::Cnot { control, target }
        }
        "cz" => {
            let (a, b) = two()?;
            Gate::Cz(a, b)
        }
        "swap" => {
            let (a, b) = two()?;
            Gate::Swap(a, b)
        }
        "measure" => Gate::Measure(one()?),
        _ => return Err(JsonError::schema(format!("unknown gate {name:?}"))),
    })
}

/// Rebuilds `gate` on a new operand list — the `retarget` primitive.
///
/// # Errors
///
/// Returns a schema error when `qubits` does not match the gate's arity.
pub fn retarget_gate(gate: &Gate, qubits: &[u32]) -> Result<Gate, JsonError> {
    let angle = match gate {
        Gate::Rz(_, a) => Some(a.turns_of_pi()),
        _ => None,
    };
    gate_from_parts(gate_name(gate), qubits, angle)
}

/// The JSON form of a gate: `{"gate": name, "qubits": [...]}` plus
/// `"angle"` (units of π) for `rz`.
pub fn gate_to_json(gate: &Gate) -> Value {
    let mut fields = vec![
        ("gate".to_string(), Value::Str(gate_name(gate).to_string())),
        (
            "qubits".to_string(),
            Value::Arr(gate.qubits().map(|q| Value::Num(f64::from(q))).collect()),
        ),
    ];
    if let Gate::Rz(_, angle) = gate {
        fields.push(("angle".to_string(), Value::Num(angle.turns_of_pi())));
    }
    Value::Obj(fields)
}

/// Parses the gate wire form produced by [`gate_to_json`].
///
/// # Errors
///
/// Returns a schema error when the object has the wrong shape.
pub fn gate_from_json(value: &Value) -> Result<Gate, JsonError> {
    let name = json::require_str(value, "gate")?;
    let qubits = parse_qubits(json::require(value, "qubits")?)?;
    let angle = match value.get("angle") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| JsonError::schema("\"angle\" must be a number (units of π)"))?,
        ),
    };
    gate_from_parts(name, &qubits, angle)
}

fn parse_qubits(value: &Value) -> Result<Vec<u32>, JsonError> {
    let items = value
        .as_arr()
        .ok_or_else(|| JsonError::schema("\"qubits\" must be an array"))?;
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| JsonError::schema("qubit indices must be small non-negative ints"))
        })
        .collect()
}

impl CircuitEdit {
    /// The wire name of this edit's operation.
    pub fn op_name(&self) -> &'static str {
        match self {
            CircuitEdit::Insert { .. } => "insert",
            CircuitEdit::Remove { .. } => "remove",
            CircuitEdit::Retarget { .. } => "retarget",
            CircuitEdit::Replace { .. } => "replace",
        }
    }

    /// The gate index this edit addresses.
    pub fn index(&self) -> usize {
        match self {
            CircuitEdit::Insert { index, .. }
            | CircuitEdit::Remove { index }
            | CircuitEdit::Retarget { index, .. }
            | CircuitEdit::Replace { index, .. } => *index,
        }
    }
}

impl ToJson for CircuitEdit {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("op".to_string(), Value::Str(self.op_name().to_string())),
            ("index".to_string(), Value::Num(self.index() as f64)),
        ];
        match self {
            CircuitEdit::Insert { gate, .. } | CircuitEdit::Replace { gate, .. } => {
                fields.push(("gate".to_string(), gate_to_json(gate)));
            }
            CircuitEdit::Retarget { qubits, .. } => fields.push((
                "qubits".to_string(),
                Value::Arr(qubits.iter().map(|q| Value::Num(f64::from(*q))).collect()),
            )),
            CircuitEdit::Remove { .. } => {}
        }
        Value::Obj(fields)
    }
}

impl FromJson for CircuitEdit {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let op = json::require_str(value, "op")?;
        let index = json::require_u64(value, "index")? as usize;
        match op {
            "insert" => Ok(CircuitEdit::Insert {
                index,
                gate: gate_from_json(json::require(value, "gate")?)?,
            }),
            "remove" => Ok(CircuitEdit::Remove { index }),
            "retarget" => Ok(CircuitEdit::Retarget {
                index,
                qubits: parse_qubits(json::require(value, "qubits")?)?,
            }),
            "replace" => Ok(CircuitEdit::Replace {
                index,
                gate: gate_from_json(json::require(value, "gate")?)?,
            }),
            _ => Err(JsonError::schema(format!(
                "unknown edit op {op:?} (expected insert|remove|retarget|replace)"
            ))),
        }
    }
}

/// A batch of edits applied atomically: either every edit lands and the
/// session recompiles once, or none do.
#[derive(Debug, Clone, PartialEq)]
pub struct EditSet {
    /// The session version this batch was authored against, if the client
    /// wants optimistic-concurrency protection. `None` means "apply to
    /// whatever is current".
    pub base_version: Option<u64>,
    /// The edits, applied in order (later indices see earlier edits).
    pub edits: Vec<CircuitEdit>,
}

impl EditSet {
    /// A batch with no version guard.
    pub fn new(edits: Vec<CircuitEdit>) -> Self {
        EditSet {
            base_version: None,
            edits,
        }
    }

    /// Pins the batch to a session version.
    pub fn at_version(mut self, version: u64) -> Self {
        self.base_version = Some(version);
        self
    }

    /// A stable 64-bit digest of the batch: the FNV-1a hash of its
    /// canonical JSON rendering. Two clients that author the same edits
    /// against the same base version compute the same digest, so results
    /// can be correlated without trusting either side's labels.
    pub fn digest(&self) -> u64 {
        fingerprint_value(&self.to_json())
    }

    /// Parses one JSONL line: either a full edit-set object
    /// (`{"edits": [...], "base_version": n?}`) or a bare edit object,
    /// shorthand for a single-edit set.
    ///
    /// # Errors
    ///
    /// Returns the underlying syntax or schema error.
    pub fn parse_line(line: &str) -> Result<EditSet, JsonError> {
        let doc = Value::parse(line)?;
        if doc.get("edits").is_some() {
            EditSet::from_json(&doc)
        } else {
            Ok(EditSet::new(vec![CircuitEdit::from_json(&doc)?]))
        }
    }
}

impl ToJson for EditSet {
    fn to_json(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(v) = self.base_version {
            fields.push(("base_version".to_string(), Value::Num(v as f64)));
        }
        fields.push((
            "edits".to_string(),
            Value::Arr(self.edits.iter().map(ToJson::to_json).collect()),
        ));
        Value::Obj(fields)
    }
}

impl FromJson for EditSet {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let base_version = match value.get("base_version") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| JsonError::schema("\"base_version\" must be an integer"))?,
            ),
        };
        let edits = json::require(value, "edits")?
            .as_arr()
            .ok_or_else(|| JsonError::schema("\"edits\" must be an array"))?
            .iter()
            .map(CircuitEdit::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EditSet {
            base_version,
            edits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_wire_form_round_trips() {
        let gates = vec![
            Gate::H(0),
            Gate::Rz(3, Angle::new(0.125)),
            Gate::Cnot {
                control: 1,
                target: 2,
            },
            Gate::Swap(4, 5),
            Gate::Measure(6),
        ];
        for gate in gates {
            let back = gate_from_json(&gate_to_json(&gate)).expect("round trip");
            assert_eq!(back, gate);
        }
    }

    #[test]
    fn edit_wire_form_round_trips() {
        let set = EditSet {
            base_version: Some(7),
            edits: vec![
                CircuitEdit::Insert {
                    index: 0,
                    gate: Gate::T(2),
                },
                CircuitEdit::Remove { index: 3 },
                CircuitEdit::Retarget {
                    index: 1,
                    qubits: vec![4, 5],
                },
                CircuitEdit::Replace {
                    index: 2,
                    gate: Gate::X(0),
                },
            ],
        };
        let back = EditSet::from_json(&set.to_json()).expect("round trip");
        assert_eq!(back, set);
        assert_eq!(back.digest(), set.digest());
    }

    #[test]
    fn digest_is_edit_sensitive() {
        let a = EditSet::new(vec![CircuitEdit::Remove { index: 1 }]);
        let b = EditSet::new(vec![CircuitEdit::Remove { index: 2 }]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn bare_edit_line_is_a_single_edit_set() {
        let set = EditSet::parse_line(r#"{"op":"remove","index":4}"#).expect("parse");
        assert_eq!(set.edits, vec![CircuitEdit::Remove { index: 4 }]);
        assert_eq!(set.base_version, None);
        let pinned =
            EditSet::parse_line(r#"{"base_version":2,"edits":[{"op":"remove","index":0}]}"#)
                .expect("parse");
        assert_eq!(pinned.base_version, Some(2));
    }

    #[test]
    fn arity_and_angle_are_checked() {
        assert!(gate_from_parts("cnot", &[1], None).is_err());
        assert!(gate_from_parts("h", &[1, 2], None).is_err());
        assert!(gate_from_parts("rz", &[1], None).is_err());
        assert!(gate_from_parts("h", &[1], Some(0.5)).is_err());
        assert!(gate_from_parts("warp", &[1], None).is_err());
        for turns in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308] {
            let err = gate_from_parts("rz", &[1], Some(turns)).expect_err("refused");
            assert!(err.to_string().contains("is not finite"), "{turns}: {err}");
        }
        assert!(gate_from_parts("rz", &[1], Some(1e300)).is_ok());
    }

    #[test]
    fn retarget_preserves_kind_and_angle() {
        let gate = Gate::Rz(0, Angle::new(0.3));
        let moved = retarget_gate(&gate, &[5]).expect("retarget");
        assert_eq!(moved, Gate::Rz(5, Angle::new(0.3)));
        assert!(retarget_gate(&gate, &[1, 2]).is_err());
    }
}
