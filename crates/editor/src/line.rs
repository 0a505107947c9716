//! One edit line in, one result line out: the JSONL shape
//! `POST /v1/session/<id>/edit` answers and `ftqc edit` prints, from one
//! function both call.

use std::time::Instant;

use ftqc_compiler::{CompileDelta, DeltaKind, Metrics};
use ftqc_service::job::{CacheProvenance, JobResult, JobStatus};
use ftqc_service::json::{ToJson, Value};

use crate::edit::EditSet;
use crate::session::EditSession;

/// The JSON form of a [`CompileDelta`] — what "delta-annotated" means on
/// the wire.
pub fn delta_to_json(delta: &CompileDelta) -> Value {
    Value::Obj(vec![
        (
            "kind".to_string(),
            Value::Str(delta.kind.as_str().to_string()),
        ),
        (
            "gates_total".to_string(),
            Value::Num(delta.gates_total as f64),
        ),
        (
            "gates_rerouted".to_string(),
            Value::Num(delta.gates_rerouted as f64),
        ),
        ("ops_total".to_string(), Value::Num(delta.ops_total as f64)),
        (
            "ops_retimed".to_string(),
            Value::Num(delta.ops_retimed as f64),
        ),
    ])
}

/// An edit line's [`JobResult`] document, then its `delta` (when the
/// batch applied) and a `session` descriptor.
fn line_json(
    session_id: &str,
    version: u64,
    result: JobResult<Metrics>,
    delta: Option<&CompileDelta>,
) -> Value {
    let mut fields = match result.to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("JobResult renders as an object"),
    };
    if let Some(delta) = delta {
        fields.push(("delta".to_string(), delta_to_json(delta)));
    }
    fields.push((
        "session".to_string(),
        Value::Obj(vec![
            ("id".to_string(), Value::Str(session_id.to_string())),
            ("version".to_string(), Value::Num(version as f64)),
        ]),
    ));
    Value::Obj(fields)
}

/// A failed edit line rendered in the same [`JobResult`] shape.
pub fn edit_failed_json(session_id: &str, version: u64, message: &str) -> Value {
    let result = JobResult {
        id: format!("{session_id}@v{version}"),
        fingerprint: 0,
        status: JobStatus::Failed(message.to_string()),
        metrics: None,
        provenance: CacheProvenance::Computed,
        micros: 0,
        queue_micros: 0,
        stage: None,
    };
    line_json(session_id, version, result, None)
}

/// How one edit line went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditLineOutcome {
    /// The batch applied and recompiled.
    Applied {
        /// Single edits in the batch.
        edits: u64,
        /// How the edited circuit was recompiled.
        kind: DeltaKind,
    },
    /// The line is not an edit batch.
    ParseError,
    /// The session refused the batch: version conflict, invalid edit or
    /// failed compile.
    Rejected,
}

impl EditLineOutcome {
    /// The label a trace span records: the recompile's kind, or
    /// `parse-error` / `rejected`.
    pub fn label(self) -> &'static str {
        match self {
            EditLineOutcome::Applied { kind, .. } => kind.as_str(),
            EditLineOutcome::ParseError => "parse-error",
            EditLineOutcome::Rejected => "rejected",
        }
    }
}

/// Parses one JSONL edit line, applies it to `session`, and renders the
/// result line: the [`JobResult`] of the recompile with its `delta` and
/// the session's id and new version, or a failed line at the unchanged
/// version.
pub fn apply_edit_line(session: &mut EditSession, line: &str) -> (Value, EditLineOutcome) {
    let started = Instant::now();
    let set = match EditSet::parse_line(line) {
        Ok(set) => set,
        Err(e) => {
            let message = format!("bad edit line: {e}");
            let doc = edit_failed_json(session.id(), session.version(), &message);
            return (doc, EditLineOutcome::ParseError);
        }
    };
    match session.apply(&set) {
        Ok((program, delta)) => {
            let result = JobResult {
                id: format!("{}@v{}", session.id(), session.version()),
                fingerprint: set.digest(),
                status: JobStatus::Ok,
                metrics: Some(*program.metrics()),
                provenance: CacheProvenance::Computed,
                micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                queue_micros: 0,
                stage: None,
            };
            let outcome = EditLineOutcome::Applied {
                edits: set.edits.len() as u64,
                kind: delta.kind,
            };
            let doc = line_json(session.id(), session.version(), result, Some(&delta));
            (doc, outcome)
        }
        Err(e) => {
            let doc = edit_failed_json(session.id(), session.version(), &e.to_string());
            (doc, EditLineOutcome::Rejected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::Circuit;
    use ftqc_compiler::CompilerOptions;

    #[test]
    fn lines_apply_or_fail_alone() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let options = CompilerOptions::default().routing_paths(2);
        let (mut session, _) = EditSession::open("s", c, options).unwrap();

        let insert = r#"{"op":"insert","index":0,"gate":{"gate":"t","qubits":[1]}}"#;
        let (doc, outcome) = apply_edit_line(&mut session, insert);
        assert_eq!(outcome.label(), "full");
        let text = doc.render();
        assert!(text.contains(r#""id":"s@v1""#), "{text}");
        assert!(text.contains(r#""status":"ok""#), "{text}");
        assert!(text.contains(r#""delta":{"kind":"full""#), "{text}");

        let (doc, outcome) = apply_edit_line(&mut session, "{oops");
        assert_eq!(outcome, EditLineOutcome::ParseError);
        assert!(doc.render().contains("bad edit line"), "{doc:?}");

        let (doc, outcome) = apply_edit_line(&mut session, r#"{"op":"remove","index":99}"#);
        assert_eq!(outcome, EditLineOutcome::Rejected);
        let text = doc.render();
        assert!(
            text.contains(r#""session":{"id":"s","version":1}"#),
            "{text}"
        );
        assert!(!text.contains("\"delta\""), "{text}");
        assert_eq!(session.version(), 1);

        // Finite in units of π, infinite in radians: refused, as in QASM.
        let rz = r#"{"op":"insert","index":0,"gate":{"gate":"rz","qubits":[1],"angle":1e308}}"#;
        let (doc, outcome) = apply_edit_line(&mut session, rz);
        assert_eq!(outcome, EditLineOutcome::ParseError);
        let text = doc.render();
        assert!(!text.contains(r#""status":"ok""#), "{text}");
        assert!(text.contains("is not finite"), "{text}");
        assert_eq!(session.version(), 1);
    }
}
