//! The `/v1/session*` endpoints: interactive edit sessions held in the
//! server's [`SessionStore`].
//!
//! | Route | Payload |
//! |---|---|
//! | `POST /v1/session` | a compile-job object (source + options/target) → session descriptor |
//! | `POST /v1/session/<id>/edit` | JSONL edit batches → JSONL delta-annotated results |
//! | `GET /v1/session/<id>` | session snapshot |
//! | `DELETE /v1/session/<id>` | close the session |
//!
//! Create bodies reuse the exact `POST /v1/compile` job shape — same
//! wire versioning, same `source` forms (`benchmark`, inline `qasm`),
//! same `target` resolution against the server registry — so a client
//! that can compile can open a session by changing only the path.

use std::fmt::Write as _;

use ftqc_arch::TargetRegistry;
use ftqc_compiler::CompilerOptions;
use ftqc_editor::{
    apply_edit_line, delta_to_json, EditLineOutcome, EditSession, SessionCounters, SessionStore,
};
use ftqc_service::job::job_from_value;
use ftqc_service::json::{ToJson, Value};
use ftqc_service::resolve::resolve_source_remote;
use ftqc_telemetry::{ActiveTrace, TraceId};

use crate::api::{check_wire_version, negotiate_version, versioned_as};
use crate::http::Request;
use crate::server::{error_body, method_not_allowed, no_such_endpoint, HandlerResult};

fn no_session(id: &str) -> HandlerResult {
    (
        404,
        "application/json",
        error_body(&format!("no session {id:?} (expired or never created)")),
    )
}

/// `POST /v1/session`: open a session from a compile-job body.
pub(crate) fn create(
    store: &SessionStore,
    targets: &TargetRegistry,
    request: &Request,
    trace: &ActiveTrace,
) -> HandlerResult {
    let started = trace.now_micros();
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
        .and_then(|doc| {
            check_wire_version(&doc)?;
            let wire = negotiate_version(&doc)?;
            let job =
                job_from_value::<CompilerOptions>(&doc, "session").map_err(|e| e.to_string())?;
            Ok((wire, job))
        })
        .and_then(|(wire, job)| {
            let job = ftqc_compiler::apply_job_target(job, targets)?;
            let circuit = resolve_source_remote(&job.source)?;
            Ok((wire, circuit, job.options))
        });
    let (wire, circuit, options) = match parsed {
        Ok(parts) => parts,
        Err(e) => return (400, "application/json", error_body(&e)),
    };
    let id = TraceId::mint().to_hex();
    let gates = circuit.len();
    let num_qubits = circuit.num_qubits();
    let (session, delta) = match EditSession::open(&id, circuit, options) {
        Ok(opened) => opened,
        Err(e) => {
            return (
                400,
                "application/json",
                error_body(&format!("seed compile failed: {e}")),
            )
        }
    };
    let micros = trace.now_micros().saturating_sub(started);
    let metrics = *session.program().metrics();
    store.insert(session);
    trace.add_span(
        "session.create",
        None,
        started,
        micros,
        vec![
            ("session".to_string(), id.clone()),
            ("gates".to_string(), gates.to_string()),
        ],
    );
    let fields = vec![
        ("id".to_string(), Value::Str(id)),
        ("version".to_string(), Value::Num(0.0)),
        ("gates".to_string(), Value::Num(gates as f64)),
        ("num_qubits".to_string(), Value::Num(f64::from(num_qubits))),
        ("delta".to_string(), delta_to_json(&delta)),
        ("metrics".to_string(), metrics.to_json()),
        ("micros".to_string(), Value::Num(micros as f64)),
    ];
    (
        200,
        "application/json",
        versioned_as(wire, Value::Obj(fields)).render(),
    )
}

/// Every route under `/v1/session/`; `rest` is the path after that
/// prefix.
pub(crate) fn handle_session(
    store: &SessionStore,
    request: &Request,
    trace: &ActiveTrace,
    rest: &str,
) -> HandlerResult {
    let method = request.method.as_str();
    match (method, rest.split_once('/')) {
        _ if rest.is_empty() => no_such_endpoint(&request.path),
        ("POST", Some((id, "edit"))) => edit(store, request, trace, id),
        ("GET", None) => snapshot(store, rest),
        ("DELETE", None) => close(store, rest),
        (_, None | Some((_, "edit"))) => method_not_allowed(method),
        (_, Some(_)) => no_such_endpoint(&request.path),
    }
}

/// `POST /v1/session/<id>/edit`: JSONL batches in, JSONL results out.
fn edit(store: &SessionStore, request: &Request, trace: &ActiveTrace, id: &str) -> HandlerResult {
    let Some(handle) = store.get(id) else {
        return no_session(id);
    };
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return (400, "application/json", error_body(&e.to_string())),
    };
    let counters = store.counters();
    let mut lines_out = String::new();
    // One lock for the whole request: batches in one body are applied
    // in order without another client's edits interleaving.
    let mut session = handle.lock().expect("session lock");
    for line in body.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let started = trace.now_micros();
        let (doc, outcome) = apply_edit_line(&mut session, line);
        match outcome {
            EditLineOutcome::Applied { edits, .. } => {
                SessionCounters::bump(&counters.edits, edits);
                SessionCounters::bump(&counters.full, 1);
            }
            EditLineOutcome::ParseError | EditLineOutcome::Rejected => {
                SessionCounters::bump(&counters.rejected, 1);
            }
        }
        trace.add_span(
            "session.edit",
            None,
            started,
            trace.now_micros().saturating_sub(started),
            vec![
                ("session".to_string(), id.to_string()),
                ("version".to_string(), session.version().to_string()),
                ("outcome".to_string(), outcome.label().to_string()),
            ],
        );
        lines_out.push_str(&doc.render());
        lines_out.push('\n');
    }
    drop(session);
    if lines_out.is_empty() {
        return (
            400,
            "application/json",
            error_body("edit body contains no batches"),
        );
    }
    (200, "application/jsonl", lines_out)
}

/// `GET /v1/session/<id>`: snapshot without mutating anything (the idle
/// clock still refreshes — a polling IDE keeps its session warm).
fn snapshot(store: &SessionStore, id: &str) -> HandlerResult {
    let Some(handle) = store.get(id) else {
        return no_session(id);
    };
    let session = handle.lock().expect("session lock");
    let doc = Value::Obj(vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("version".to_string(), Value::Num(session.version() as f64)),
        (
            "gates".to_string(),
            Value::Num(session.circuit().len() as f64),
        ),
        (
            "num_qubits".to_string(),
            Value::Num(f64::from(session.circuit().num_qubits())),
        ),
        (
            "edits_applied".to_string(),
            Value::Num(session.edits_applied() as f64),
        ),
        (
            "full_recompiles".to_string(),
            Value::Num(session.full_recompiles() as f64),
        ),
        ("metrics".to_string(), session.program().metrics().to_json()),
    ]);
    (200, "application/json", doc.render())
}

/// `DELETE /v1/session/<id>`: close and free the session.
fn close(store: &SessionStore, id: &str) -> HandlerResult {
    let Some(handle) = store.remove(id) else {
        return no_session(id);
    };
    let session = handle.lock().expect("session lock");
    let doc = Value::Obj(vec![
        ("closed".to_string(), Value::Bool(true)),
        ("id".to_string(), Value::Str(id.to_string())),
        (
            "edits_applied".to_string(),
            Value::Num(session.edits_applied() as f64),
        ),
    ]);
    (200, "application/json", doc.render())
}

/// The `ftqc_session_*` families appended to `GET /metrics`.
pub(crate) fn metrics_text(store: &SessionStore) -> String {
    let c = store.counters();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP ftqc_session_active Live edit sessions.\n# TYPE ftqc_session_active gauge\nftqc_session_active {}",
        store.len()
    );
    let _ = writeln!(
        out,
        "# HELP ftqc_session_created_total Edit sessions created.\n# TYPE ftqc_session_created_total counter\nftqc_session_created_total {}",
        SessionCounters::get(&c.created)
    );
    let _ = writeln!(
        out,
        "# HELP ftqc_session_closed_total Edit sessions closed by the client or shutdown.\n# TYPE ftqc_session_closed_total counter\nftqc_session_closed_total {}",
        SessionCounters::get(&c.closed)
    );
    let _ = writeln!(
        out,
        "# HELP ftqc_session_evicted_total Edit sessions evicted by TTL or capacity.\n# TYPE ftqc_session_evicted_total counter\nftqc_session_evicted_total {}",
        SessionCounters::get(&c.evicted)
    );
    let _ = writeln!(
        out,
        "# HELP ftqc_session_edits_total Single edits applied across all sessions.\n# TYPE ftqc_session_edits_total counter\nftqc_session_edits_total {}",
        SessionCounters::get(&c.edits)
    );
    let _ = writeln!(
        out,
        "# HELP ftqc_session_recompiles_total Edit-batch recompiles by path (every one is a full compile).\n# TYPE ftqc_session_recompiles_total counter\nftqc_session_recompiles_total{{kind=\"full\"}} {}",
        SessionCounters::get(&c.full)
    );
    let _ = writeln!(
        out,
        "# HELP ftqc_session_edit_rejects_total Edit batches rejected (parse, version, validation, or compile failure).\n# TYPE ftqc_session_edit_rejects_total counter\nftqc_session_edit_rejects_total {}",
        SessionCounters::get(&c.rejected)
    );
    out
}

/// The `"sessions"` object of `GET /v1/cache/stats`.
pub(crate) fn stats_json(store: &SessionStore) -> Value {
    let c = store.counters();
    let get = SessionCounters::get;
    let counts = [
        ("active", store.len() as u64),
        ("created", get(&c.created)),
        ("closed", get(&c.closed)),
        ("evicted", get(&c.evicted)),
        ("edits", get(&c.edits)),
        ("full", get(&c.full)),
        ("rejected", get(&c.rejected)),
    ];
    Value::Obj(
        counts
            .into_iter()
            .map(|(key, n)| (key.to_string(), Value::Num(n as f64)))
            .collect(),
    )
}
