//! Compile witnesses: a compact record of a compiled schedule, and a
//! checker that re-checks a `(metrics, witness)` pair against the circuit
//! and options it claims to come from **without re-routing**.
//!
//! A [`Witness`] carries the post-elimination routed-op *sequence* (no
//! start times), the four per-stage cache keys, and the target digest.
//! [`extract_witness`] reads all three off the compiled program, which
//! keeps its stage keys, and runs no stage. That is enough for
//! [`verify_witness`] to
//!
//! 1. run the prepare/lower front end once (cache-assisted) and take both
//!    the four stage keys and the lowered program from that one run,
//! 2. rebuild the layout and factory bank from the target, and check that
//!    every op names only qubits of the lowered program and docked
//!    factories,
//! 3. re-time the witness's ops where they lie with [`time_schedule`] (the
//!    schedule stage's own replay, so a faithful schedule's makespans are
//!    reproduced exactly),
//! 4. sweep the re-timed schedule with the six-invariant physical checker
//!    [`verify_items`], which also rejects cells off the layout grid, and
//! 5. re-derive the full [`Metrics`] document and require equality with
//!    the claimed one.
//!
//! Everything is O(schedule): the expensive map stage (routing) never runs
//! during the check. Two counters are informational pass-throughs the
//! witness cannot re-derive: `n_moves_eliminated` and the incremental
//! router's `route` counters. Both describe how the compiler *got* to the
//! op sequence, not the sequence itself, so a claim that misstates them
//! skews telemetry, never a correctness-bearing metric.

use crate::codec::target_digest;
use crate::error::CompileError;
use crate::export::kind_name;
use crate::metrics::{lower_bound, Metrics};
use crate::options::CompilerOptions;
use crate::pipeline::CompiledProgram;
use crate::routed::{Patches, RoutedOp};
use crate::session::{CompileSession, StageCache};
use crate::timer::time_schedule;
use crate::verify::{supply_timing, verify_items, VerifyError};
use ftqc_arch::{Coord, SingleQubitKind, SurgeryOp, Ticks};
use ftqc_circuit::Circuit;
use ftqc_service::fingerprint;
use ftqc_service::json::{FromJson, JsonError, ToJson, Value};

/// Wire version of the witness document.
pub const WITNESS_VERSION: u64 = 1;

/// The compact record of one compiled schedule: enough to re-verify the
/// compilation in O(schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The four per-stage cache keys (prepare, lower, map, schedule) the
    /// schedule was compiled under — the checker re-derives and compares
    /// them, pinning circuit and options.
    pub stage_keys: [u64; 4],
    /// Digest of the hardware target the schedule was compiled for.
    pub target_digest: u64,
    /// The routed operation sequence after redundant-move elimination, in
    /// schedule order. Start times are *not* carried: re-timing is
    /// deterministic, so the checker replays rather than trusts.
    pub ops: Vec<RoutedOp>,
}

/// Why a witness was rejected. Any variant other than [`Compile`] means
/// the `(metrics, witness)` claim is inconsistent with the job.
///
/// [`Compile`]: WitnessError::Compile
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessError {
    /// The checker's front end (prepare/lower) failed — the job itself is
    /// bad, not the claim.
    Compile(String),
    /// A re-derived stage key disagrees with the witness.
    StageKeyMismatch {
        /// Index into the prepare/lower/map/schedule key array.
        index: usize,
        /// The key the checker derived.
        expected: u64,
        /// The key the witness carried.
        got: u64,
    },
    /// The witness was produced for a different hardware target.
    TargetDigestMismatch {
        /// Digest of the target the checker resolved.
        expected: u64,
        /// Digest the witness carried.
        got: u64,
    },
    /// The target rejects the program shape or the layout cannot be built.
    Target(String),
    /// An op names a patch the lowered program does not have.
    UnknownQubit {
        /// Index of the op in the witness.
        index: usize,
        /// The patch it names.
        qubit: u32,
        /// Qubits of the lowered program.
        qubits: u32,
    },
    /// An op names a factory the target does not dock.
    UnknownFactory {
        /// Index of the op in the witness.
        index: usize,
        /// The factory it names.
        factory: usize,
        /// Factories the target docks.
        factories: usize,
    },
    /// The re-timed schedule violates a physical invariant.
    Invariant(VerifyError),
    /// The metrics derived from the witness disagree with the claimed
    /// ones; `field` names the first differing member.
    MetricsMismatch {
        /// Name of the first differing metrics field.
        field: &'static str,
    },
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::Compile(e) => write!(f, "cannot re-derive stage keys: {e}"),
            WitnessError::StageKeyMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "stage key {index} mismatch: expected {} got {}",
                fingerprint::to_hex(*expected),
                fingerprint::to_hex(*got)
            ),
            WitnessError::TargetDigestMismatch { expected, got } => write!(
                f,
                "target digest mismatch: expected {} got {}",
                fingerprint::to_hex(*expected),
                fingerprint::to_hex(*got)
            ),
            WitnessError::Target(e) => write!(f, "target rejects witness: {e}"),
            WitnessError::UnknownQubit {
                index,
                qubit,
                qubits,
            } => write!(
                f,
                "op {index} names qubit {qubit} but the program has {qubits}"
            ),
            WitnessError::UnknownFactory {
                index,
                factory,
                factories,
            } => write!(
                f,
                "op {index} names factory {factory} but the target docks {factories}"
            ),
            WitnessError::Invariant(e) => write!(f, "invariant violated: {e}"),
            WitnessError::MetricsMismatch { field } => {
                write!(f, "derived metrics disagree on {field:?}")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// Extracts the witness for a compiled program: its stage keys, its
/// target's digest, and its scheduled op sequence in order. No stage
/// runs; `session` and `circuit` only confirm, at the cost of one circuit
/// fingerprint, that the program was routed from `circuit` under
/// `session`'s options (schedule knobs may differ, as after
/// [`Mapped::reschedule`](crate::Mapped::reschedule)).
///
/// # Errors
///
/// [`CompileError::ProgramMismatch`] when the program was routed from
/// another circuit or under other prepare or map options.
pub fn extract_witness(
    session: &CompileSession,
    circuit: &Circuit,
    program: &CompiledProgram,
) -> Result<Witness, CompileError> {
    session.check_routed(circuit, program)?;
    Ok(Witness {
        stage_keys: program.stage_keys(),
        target_digest: target_digest(&program.compile_options().target),
        ops: program.schedule().ops().to_vec(),
    })
}

/// First differing field of two metrics documents, for the rejection
/// message. `None` when equal.
fn first_metrics_diff(a: &Metrics, b: &Metrics) -> Option<&'static str> {
    [
        ("execution_time", a.execution_time == b.execution_time),
        ("unit_cost_time", a.unit_cost_time == b.unit_cost_time),
        ("lower_bound", a.lower_bound == b.lower_bound),
        ("grid_patches", a.grid_patches == b.grid_patches),
        ("factory_patches", a.factory_patches == b.factory_patches),
        ("routing_paths", a.routing_paths == b.routing_paths),
        ("factories", a.factories == b.factories),
        ("n_gates", a.n_gates == b.n_gates),
        ("n_surgery_ops", a.n_surgery_ops == b.n_surgery_ops),
        ("n_moves", a.n_moves == b.n_moves),
        (
            "n_moves_eliminated",
            a.n_moves_eliminated == b.n_moves_eliminated,
        ),
        ("n_magic_states", a.n_magic_states == b.n_magic_states),
        ("route", a.route == b.route),
    ]
    .into_iter()
    .find(|&(_, equal)| !equal)
    .map(|(field, _)| field)
}

/// Checks that every op names only hardware the verifier's machine has:
/// patches below the lowered qubit count, and factories below the docked
/// bank's size.
fn check_hardware(ops: &[RoutedOp], qubits: u32, factories: usize) -> Result<(), WitnessError> {
    for (index, routed) in ops.iter().enumerate() {
        if let Some(&qubit) = routed.patches.iter().find(|&&q| q >= qubits) {
            return Err(WitnessError::UnknownQubit {
                index,
                qubit,
                qubits,
            });
        }
        if let Some(factory) = routed.factory.filter(|&f| f as usize >= factories) {
            return Err(WitnessError::UnknownFactory {
                index,
                factory: factory as usize,
                factories,
            });
        }
    }
    Ok(())
}

/// Verifies a `(metrics, witness)` claim for `circuit` compiled under
/// `options`, in O(schedule): stage keys and target digest are re-derived
/// and compared, every op is checked to name only the target's hardware,
/// the op sequence is re-timed deterministically, the six physical
/// invariants are checked, and the metrics are re-assembled from the
/// replay and compared member-wise with the claim.
///
/// `stages` (when given) lets the one prepare/lower run read from and warm
/// a caller's stage cache; `None` runs it uncached. On success the
/// *derived* metrics document is returned; it is equal to `claimed`.
///
/// # Errors
///
/// The first failed check, as a [`WitnessError`].
pub fn verify_witness(
    circuit: &Circuit,
    options: &CompilerOptions,
    witness: &Witness,
    claimed: &Metrics,
    stages: Option<&StageCache>,
) -> Result<Metrics, WitnessError> {
    let mut session = CompileSession::new(options.clone());
    if let Some(cache) = stages {
        session = session.with_cache(cache.clone());
    }

    // 1. One front-end run yields the stage keys, which pin (circuit,
    // options): a witness replayed from a different job or option set
    // fails here before any replay work.
    let lowered = session
        .prepare(circuit)
        .map_err(|e| WitnessError::Compile(e.to_string()))?
        .lower();
    let keys = lowered.stage_keys();
    for (index, (expected, got)) in keys.iter().zip(witness.stage_keys.iter()).enumerate() {
        if expected != got {
            return Err(WitnessError::StageKeyMismatch {
                index,
                expected: *expected,
                got: *got,
            });
        }
    }
    let expected_digest = target_digest(&options.target);
    if expected_digest != witness.target_digest {
        return Err(WitnessError::TargetDigestMismatch {
            expected: expected_digest,
            got: witness.target_digest,
        });
    }

    // 2. The machine: shape validation, layout, factory bank — all from
    // the target, none from the witness.
    let input_gates = circuit.len();
    let num_qubits = lowered.circuit().num_qubits();
    let t_count = lowered.circuit().t_count() as u64;
    options
        .target
        .validate(num_qubits, t_count)
        .map_err(|e| WitnessError::Target(e.to_string()))?;
    let layout = options
        .target
        .build_layout(num_qubits)
        .map_err(|e| WitnessError::Target(e.to_string()))?;
    let bank = options.target.factory_bank(&layout);

    // Every op must name qubits and factories this machine has before
    // re-timing indexes per-qubit state with them (or folds an unknown
    // factory onto the last one). Cells are the sweep's to check.
    check_hardware(&witness.ops, num_qubits, bank.len())?;

    // 3 + 4. Deterministic re-timing of the ops where they lie, and the
    // physical invariants. The same greedy replay the schedule stage runs,
    // so a faithful schedule's makespans are reproduced bit-for-bit.
    let timing = options.effective_schedule_timing();
    let ops: Vec<&RoutedOp> = witness.ops.iter().collect();
    let (schedule, unit_makespan) = time_schedule(
        ops,
        layout.grid(),
        num_qubits,
        options.target.factories as usize,
        timing,
        options.target.unbounded_magic,
    );
    let supply = supply_timing(timing, options.target.unbounded_magic);
    verify_items(&schedule, &supply, layout.grid()).map_err(WitnessError::Invariant)?;

    // 5. Metrics re-assembly — the schedule stage's recipe, with the two
    // non-derivable informational counters passed through from the claim.
    let n_magic_states = witness
        .ops
        .iter()
        .filter(|o| matches!(o.op, SurgeryOp::ConsumeMagic { .. }))
        .count() as u64;
    let derived = Metrics {
        execution_time: schedule.makespan(),
        unit_cost_time: unit_makespan,
        lower_bound: if options.target.unbounded_magic {
            Ticks::ZERO
        } else {
            lower_bound(
                n_magic_states,
                timing.magic_production,
                options.target.factories,
            )
        },
        grid_patches: layout.total_patches(),
        factory_patches: bank.total_tiles(),
        routing_paths: options.target.routing_paths(),
        factories: options.target.factories,
        n_gates: input_gates,
        n_surgery_ops: witness.ops.len(),
        n_moves: witness.ops.iter().filter(|o| o.is_movement()).count(),
        n_moves_eliminated: claimed.n_moves_eliminated,
        n_magic_states,
        route: claimed.route,
    };
    if let Some(field) = first_metrics_diff(&derived, claimed) {
        return Err(WitnessError::MetricsMismatch { field });
    }
    Ok(derived)
}

// --- JSON codec -----------------------------------------------------------
//
// Compact encoding: coordinates as two-element arrays, op fields flattened
// next to a "k" kind tag (the names `to_csv` uses), routed-op extras under
// short keys ("q" patches, "f" factory, "g" gate) omitted when empty. The
// decoder refuses what a `RoutedOp` cannot hold: more than two patches, or
// a patch, factory or gate index past `u32::MAX`.
// Fingerprints travel as hex strings — a u64 does not survive an f64.

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

fn coord_to_json(c: &Coord) -> Value {
    Value::Arr(vec![
        Value::Num(f64::from(c.row)),
        Value::Num(f64::from(c.col)),
    ])
}

fn coord_from_json(v: &Value) -> Result<Coord, JsonError> {
    let items = v
        .as_arr()
        .filter(|items| items.len() == 2)
        .ok_or_else(|| JsonError::schema("coordinate must be a [row, col] pair"))?;
    let int = |v: &Value| {
        v.as_f64()
            .filter(|n| n.fract() == 0.0 && (-1e9..=1e9).contains(n))
            .map(|n| n as i32)
            .ok_or_else(|| JsonError::schema("coordinate entries must be integers"))
    };
    Ok(Coord::new(int(&items[0])?, int(&items[1])?))
}

fn kind_from_name(name: &str) -> Result<SingleQubitKind, JsonError> {
    match name {
        "h" => Ok(SingleQubitKind::H),
        "s" => Ok(SingleQubitKind::S),
        "sdg" => Ok(SingleQubitKind::Sdg),
        "sx" => Ok(SingleQubitKind::Sx),
        "sxdg" => Ok(SingleQubitKind::Sxdg),
        other => Err(JsonError::schema(format!(
            "unknown single-qubit kind {other:?}"
        ))),
    }
}

fn op_fields(op: &SurgeryOp) -> Vec<(String, Value)> {
    let mut fields = Vec::with_capacity(4);
    let mut put = |key: &str, v: Value| fields.push((key.to_string(), v));
    put("k", Value::Str(kind_name(op).into()));
    match op {
        SurgeryOp::Move { from, to } => {
            put("from", coord_to_json(from));
            put("to", coord_to_json(to));
        }
        SurgeryOp::DeliverMagic { path } => {
            put("path", Value::Arr(path.iter().map(coord_to_json).collect()));
        }
        SurgeryOp::MergeZz { a, b } | SurgeryOp::MergeXx { a, b } => {
            put("a", coord_to_json(a));
            put("b", coord_to_json(b));
        }
        SurgeryOp::Cnot {
            control,
            target,
            ancilla,
        } => {
            put("control", coord_to_json(control));
            put("target", coord_to_json(target));
            put("ancilla", coord_to_json(ancilla));
        }
        SurgeryOp::Single {
            kind,
            cell,
            ancilla,
        } => {
            put("kind", Value::Str(kind.name().into()));
            put("cell", coord_to_json(cell));
            put("ancilla", coord_to_json(ancilla));
        }
        SurgeryOp::ConsumeMagic { target, magic } => {
            put("target", coord_to_json(target));
            put("magic", coord_to_json(magic));
        }
        SurgeryOp::MeasureZ { cell } | SurgeryOp::PauliFrame { cell } => {
            put("cell", coord_to_json(cell));
        }
    }
    fields
}

fn coord_field(v: &Value, key: &str) -> Result<Coord, JsonError> {
    coord_from_json(
        v.get(key)
            .ok_or_else(|| JsonError::schema(format!("op needs field {key:?}")))?,
    )
}

fn op_from_json(v: &Value) -> Result<SurgeryOp, JsonError> {
    let kind = v
        .get("k")
        .and_then(Value::as_str)
        .ok_or_else(|| JsonError::schema("op needs a string \"k\" kind tag"))?;
    match kind {
        "move" => Ok(SurgeryOp::Move {
            from: coord_field(v, "from")?,
            to: coord_field(v, "to")?,
        }),
        "deliver" => {
            let path = v
                .get("path")
                .and_then(Value::as_arr)
                .ok_or_else(|| JsonError::schema("deliver needs a \"path\" array"))?;
            Ok(SurgeryOp::DeliverMagic {
                path: path.iter().map(coord_from_json).collect::<Result<_, _>>()?,
            })
        }
        "mzz" => Ok(SurgeryOp::MergeZz {
            a: coord_field(v, "a")?,
            b: coord_field(v, "b")?,
        }),
        "mxx" => Ok(SurgeryOp::MergeXx {
            a: coord_field(v, "a")?,
            b: coord_field(v, "b")?,
        }),
        "cnot" => Ok(SurgeryOp::Cnot {
            control: coord_field(v, "control")?,
            target: coord_field(v, "target")?,
            ancilla: coord_field(v, "ancilla")?,
        }),
        "single" => Ok(SurgeryOp::Single {
            kind: kind_from_name(
                v.get("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| JsonError::schema("single needs a string \"kind\""))?,
            )?,
            cell: coord_field(v, "cell")?,
            ancilla: coord_field(v, "ancilla")?,
        }),
        "consume" => Ok(SurgeryOp::ConsumeMagic {
            target: coord_field(v, "target")?,
            magic: coord_field(v, "magic")?,
        }),
        "measure" => Ok(SurgeryOp::MeasureZ {
            cell: coord_field(v, "cell")?,
        }),
        "frame" => Ok(SurgeryOp::PauliFrame {
            cell: coord_field(v, "cell")?,
        }),
        other => Err(JsonError::schema(format!("unknown op kind {other:?}"))),
    }
}

impl ToJson for RoutedOp {
    fn to_json(&self) -> Value {
        let mut fields = op_fields(&self.op);
        if !self.patches.is_empty() {
            fields.push((
                "q".into(),
                Value::Arr(self.patches.iter().map(|&q| num(u64::from(q))).collect()),
            ));
        }
        if let Some(f) = self.factory {
            fields.push(("f".into(), num(u64::from(f))));
        }
        if let Some(g) = self.gate {
            fields.push(("g".into(), num(u64::from(g))));
        }
        Value::Obj(fields)
    }
}

impl FromJson for RoutedOp {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let qubit = |v: &Value| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| JsonError::schema("\"q\" entries must be u32 qubits"))
        };
        let patches = match value.get("q").map(Value::as_arr) {
            None => Patches::default(),
            Some(None) => return Err(JsonError::schema("\"q\" must be an array")),
            // The length is checked before any entry is read.
            Some(Some(entries)) => match entries {
                [] => Patches::default(),
                [q] => Patches::one(qubit(q)?),
                [a, b] => Patches::two(qubit(a)?, qubit(b)?),
                _ => {
                    return Err(JsonError::schema(format!(
                        "\"q\" names {} qubits; a routed op has at most 2",
                        entries.len()
                    )))
                }
            },
        };
        let index_of = |key: &str| -> Result<Option<u32>, JsonError> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| JsonError::schema(format!("{key:?} must be a u32 index"))),
            }
        };
        Ok(RoutedOp {
            op: op_from_json(value)?,
            patches,
            factory: index_of("f")?,
            gate: index_of("g")?,
        })
    }
}

impl ToJson for Witness {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("v".into(), num(WITNESS_VERSION)),
            (
                "keys".into(),
                Value::Arr(
                    self.stage_keys
                        .iter()
                        .map(|k| Value::Str(fingerprint::to_hex(*k)))
                        .collect(),
                ),
            ),
            (
                "target".into(),
                Value::Str(fingerprint::to_hex(self.target_digest)),
            ),
            (
                "ops".into(),
                Value::Arr(self.ops.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for Witness {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let version = value
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| JsonError::schema("witness needs a numeric \"v\""))?;
        if version != WITNESS_VERSION {
            return Err(JsonError::schema(format!(
                "unsupported witness version {version}"
            )));
        }
        let hex = |v: &Value| {
            v.as_str()
                .and_then(fingerprint::from_hex)
                .ok_or_else(|| JsonError::schema("witness keys must be hex fingerprints"))
        };
        let keys = value
            .get("keys")
            .and_then(Value::as_arr)
            .filter(|k| k.len() == 4)
            .ok_or_else(|| JsonError::schema("witness needs a 4-element \"keys\" array"))?;
        let mut stage_keys = [0u64; 4];
        for (slot, v) in stage_keys.iter_mut().zip(keys.iter()) {
            *slot = hex(v)?;
        }
        let ops = value
            .get("ops")
            .and_then(Value::as_arr)
            .ok_or_else(|| JsonError::schema("witness needs an \"ops\" array"))?
            .iter()
            .map(RoutedOp::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Witness {
            stage_keys,
            target_digest: hex(value
                .get("target")
                .ok_or_else(|| JsonError::schema("witness needs a \"target\" digest"))?)?,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Stage;
    use ftqc_arch::TimingModel;

    fn testbed() -> (Circuit, CompilerOptions) {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).t(1).cnot(1, 2).s(2).cnot(2, 3).measure(3);
        (c, CompilerOptions::default().routing_paths(4))
    }

    fn compile_witnessed(circuit: &Circuit, options: &CompilerOptions) -> (Witness, Metrics) {
        let session = CompileSession::new(options.clone());
        let program = session.compile(circuit).expect("compiles");
        let witness = extract_witness(&session, circuit, &program).expect("extracts");
        (witness, *program.metrics())
    }

    #[test]
    fn faithful_witness_verifies_and_reproduces_metrics() {
        let (circuit, options) = testbed();
        let (witness, claimed) = compile_witnessed(&circuit, &options);
        let derived = verify_witness(&circuit, &options, &witness, &claimed, None)
            .expect("faithful witness accepted");
        assert_eq!(derived, claimed);
    }

    #[test]
    fn witness_roundtrips_through_json() {
        let (circuit, options) = testbed();
        let (witness, _) = compile_witnessed(&circuit, &options);
        let doc = witness.to_json().render();
        let back = Witness::from_json(&Value::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, witness);
        // Canonical: render-parse-render is a fixed point.
        assert_eq!(back.to_json().render(), doc);
    }

    #[test]
    fn wrong_option_set_rejected_on_stage_keys() {
        let (circuit, options) = testbed();
        let (witness, claimed) = compile_witnessed(&circuit, &options);
        let other = CompilerOptions::default().routing_paths(6);
        let err = verify_witness(&circuit, &other, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(err, WitnessError::StageKeyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn rescheduled_witness_verifies_under_the_retimed_options() {
        let (circuit, options) = testbed();
        let session = CompileSession::new(options.clone());
        let slow = options.clone().schedule_timing(TimingModel {
            cnot: Ticks::from_d(6.0),
            ..TimingModel::paper()
        });
        let program = session
            .prepare(&circuit)
            .expect("prepares")
            .lower()
            .map()
            .expect("maps")
            .reschedule(&slow)
            .expect("re-times");
        let witness = extract_witness(&session, &circuit, &program).expect("extracts");
        let derived = verify_witness(&circuit, &slow, &witness, program.metrics(), None)
            .expect("verifies under the options it was re-timed with");
        assert_eq!(&derived, program.metrics());
        // The schedule key pins the re-timing: the session's own options
        // no longer describe the program.
        let err = verify_witness(&circuit, &options, &witness, program.metrics(), None)
            .expect_err("not the session's schedule");
        assert!(
            matches!(err, WitnessError::StageKeyMismatch { index: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn extract_rejects_another_circuit_or_routing() {
        let (circuit, options) = testbed();
        let session = CompileSession::new(options.clone());
        let program = session.compile(&circuit).expect("compiles");
        let mut other = circuit.clone();
        other.t(0);
        assert_eq!(
            extract_witness(&session, &other, &program).unwrap_err(),
            CompileError::ProgramMismatch {
                stage: Stage::Prepare
            }
        );
        let rerouted = CompileSession::new(options.routing_paths(6));
        assert_eq!(
            extract_witness(&rerouted, &circuit, &program).unwrap_err(),
            CompileError::ProgramMismatch { stage: Stage::Map }
        );
    }

    #[test]
    fn tampered_target_digest_rejected() {
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        witness.target_digest ^= 1;
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(err, WitnessError::TargetDigestMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn inflated_metrics_rejected() {
        let (circuit, options) = testbed();
        let (witness, mut claimed) = compile_witnessed(&circuit, &options);
        claimed.execution_time += Ticks(2);
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert_eq!(
            err,
            WitnessError::MetricsMismatch {
                field: "execution_time"
            }
        );
    }

    #[test]
    fn dropped_op_rejected() {
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        // Dropping any op changes n_surgery_ops (and usually the timing);
        // the claim no longer matches the replay.
        witness.ops.pop();
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(err, WitnessError::MetricsMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn op_naming_a_missing_qubit_rejected() {
        // Caught before re-timing indexes the per-qubit clocks with it.
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        witness.ops[0].patches = Patches::one(4_000_000);
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert_eq!(
            err,
            WitnessError::UnknownQubit {
                index: 0,
                qubit: 4_000_000,
                qubits: 4
            }
        );
    }

    #[test]
    fn grant_from_a_missing_factory_rejected() {
        // A one-factory target: re-timing must not fold factory 99 onto
        // factory 0 and accept the claim.
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        let mut grants = 0;
        for op in &mut witness.ops {
            if op.factory.is_some() {
                op.factory = Some(99);
                grants += 1;
            }
        }
        assert!(grants > 0, "testbed grants a magic state");
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(
                err,
                WitnessError::UnknownFactory {
                    factory: 99,
                    factories: 1,
                    ..
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("factory 99"), "{err}");
    }

    #[test]
    fn off_grid_cell_rejected_before_retiming() {
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        let cell = Coord::new(-7, 1_000_000);
        witness.ops[1].op = SurgeryOp::MeasureZ { cell };
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert_eq!(
            err,
            WitnessError::Invariant(VerifyError::OffGrid { index: 1, cell })
        );
    }

    /// The two-delivery testbed: 9 qubits, T on q0 and q5, one factory, so
    /// the schedule carries two magic-state corridors.
    fn magic_testbed() -> (Circuit, CompilerOptions) {
        let mut c = Circuit::new(9);
        c.t(0).t(5);
        (c, CompilerOptions::default().routing_paths(4).factories(1))
    }

    /// Indices of the `DeliverMagic` ops in a witness.
    fn deliveries(witness: &Witness) -> Vec<usize> {
        witness
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op.op, SurgeryOp::DeliverMagic { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Compiles the magic testbed, checks that its honest witness verifies,
    /// then tampers the witness with `mutate` and returns the checker's
    /// verdict on it against the honest metrics.
    fn verify_mutant(mutate: impl FnOnce(&mut Witness)) -> Result<Metrics, WitnessError> {
        let (circuit, options) = magic_testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        assert_eq!(deliveries(&witness).len(), 2, "testbed has two deliveries");
        verify_witness(&circuit, &options, &witness, &claimed, None)
            .expect("the honest witness verifies");
        mutate(&mut witness);
        verify_witness(&circuit, &options, &witness, &claimed, None)
    }

    #[test]
    fn swapped_delivery_paths_rejected() {
        // Each delivery carries the other delivery's corridor, so neither
        // ends where its magic state is consumed.
        let err = verify_mutant(|witness| {
            let ds = deliveries(witness);
            witness.ops.swap(ds[0], ds[1]);
        })
        .unwrap_err();
        assert!(
            matches!(err, WitnessError::Invariant(VerifyError::UnfedMagic { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn spliced_corridor_rejected() {
        // A corridor that jumps two cells between consecutive entries
        // cannot be walked.
        let err = verify_mutant(|witness| {
            let d = deliveries(witness)[0];
            if let SurgeryOp::DeliverMagic { path } = &mut witness.ops[d].op {
                let first = path[0];
                *path = vec![first, Coord::new(first.row + 2, first.col)];
            }
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                WitnessError::Invariant(VerifyError::InvalidPlacement { .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn dropped_delivery_rejected() {
        let err = verify_mutant(|witness| {
            let d = deliveries(witness)[0];
            witness.ops.remove(d);
        })
        .unwrap_err();
        assert!(
            matches!(err, WitnessError::Invariant(VerifyError::UnfedMagic { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn bad_witness_documents_rejected() {
        for text in [
            r#"{"keys":["0","0","0","0"],"target":"0","ops":[]}"#,
            r#"{"v":99,"keys":["0","0","0","0"],"target":"0","ops":[]}"#,
            r#"{"v":1,"keys":["0","0"],"target":"0","ops":[]}"#,
            r#"{"v":1,"keys":["0","0","0","0"],"target":"0","ops":[{"k":"banana"}]}"#,
            r#"{"v":1,"keys":["0","0","0","0"],"target":"0","ops":[{"k":"move","from":[0],"to":[0,1]}]}"#,
        ] {
            let v = Value::parse(text).unwrap();
            assert!(Witness::from_json(&v).is_err(), "accepted {text}");
        }
    }

    /// Decodes one op from its JSON text.
    fn decode_op(text: &str) -> Result<RoutedOp, JsonError> {
        RoutedOp::from_json(&Value::parse(text).expect("well-formed JSON"))
    }

    #[test]
    fn three_qubit_patch_list_refused() {
        let err = decode_op(r#"{"k":"measure","cell":[0,0],"q":[0,1,2]}"#).unwrap_err();
        assert!(err.message.contains("at most 2"), "{err}");
        // Refused by its length, before any entry is read.
        assert!(decode_op(r#"{"k":"measure","cell":[0,0],"q":[0,1,"x"]}"#)
            .unwrap_err()
            .message
            .contains("at most 2"));
    }

    #[test]
    fn factory_index_past_u32_refused() {
        let err = decode_op(r#"{"k":"deliver","path":[[0,0],[0,1]],"f":4294967296}"#).unwrap_err();
        assert_eq!(err.message, "\"f\" must be a u32 index");
        let max = decode_op(r#"{"k":"deliver","path":[[0,0],[0,1]],"f":4294967295}"#);
        assert_eq!(max.expect("u32::MAX decodes").factory, Some(u32::MAX));
    }

    #[test]
    fn gate_index_past_u32_refused() {
        let err = decode_op(r#"{"k":"measure","cell":[0,0],"g":4294967296}"#).unwrap_err();
        assert_eq!(err.message, "\"g\" must be a u32 index");
        let max = decode_op(r#"{"k":"measure","cell":[0,0],"g":4294967295}"#);
        assert_eq!(max.expect("u32::MAX decodes").gate, Some(u32::MAX));
    }

    #[test]
    fn ops_with_zero_one_and_two_patches_roundtrip() {
        let cell = |row, col| Coord::new(row, col);
        let ops = [
            RoutedOp {
                op: SurgeryOp::DeliverMagic {
                    path: vec![cell(0, 0), cell(0, 1)],
                },
                patches: Patches::default(),
                factory: Some(3),
                gate: Some(7),
            },
            RoutedOp::movement(
                SurgeryOp::Move {
                    from: cell(1, 1),
                    to: cell(1, 2),
                },
                Some(u32::MAX),
                0,
            ),
            RoutedOp::gate_op(
                SurgeryOp::Cnot {
                    control: cell(0, 0),
                    target: cell(1, 1),
                    ancilla: cell(0, 1),
                },
                Patches::two(4, 2),
                9,
            ),
        ];
        for op in ops {
            let text = op.to_json().render();
            let back = decode_op(&text).expect("decodes");
            assert_eq!(back, op, "{text}");
            assert_eq!(back.to_json().render(), text);
        }
    }
}
