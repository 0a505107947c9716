//! The `/v1/session*` endpoints, grafted onto the core server through
//! the [`ServerExtension`] seam.
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
use std::time::Duration;

use ftqc_compiler::{CompileDelta, CompilerOptions, Metrics};
use ftqc_server::server::{error_body, HandlerResult, ServerContext, ServerExtension};
use ftqc_server::{check_wire_version, http::Request, negotiate_version, versioned_as};
use ftqc_service::job::{job_from_value, CacheProvenance, JobResult, JobStatus};
use ftqc_service::json::{ToJson, Value};
use ftqc_service::resolve::resolve_source_remote;
use ftqc_telemetry::TraceId;

use crate::edit::EditSet;
use crate::session::EditSession;
use crate::store::{SessionCounters, SessionStore, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL};

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

/// A successful edit/create outcome rendered as a delta-annotated
/// [`JobResult`] document plus a `session` descriptor — the shape every
/// edit-result line uses, on the wire and in `ftqc edit`'s local loop.
pub fn edit_result_json(
    session_id: &str,
    version: u64,
    fingerprint: u64,
    metrics: &Metrics,
    delta: &CompileDelta,
    micros: u64,
) -> Value {
    let result: JobResult<Metrics> = JobResult {
        id: format!("{session_id}@v{version}"),
        fingerprint,
        status: JobStatus::Ok,
        metrics: Some(*metrics),
        provenance: CacheProvenance::Computed,
        micros,
        queue_micros: 0,
        stage: None,
    };
    let mut fields = match result.to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("JobResult renders as an object"),
    };
    fields.push(("delta".to_string(), delta_to_json(delta)));
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
    let result: JobResult<Metrics> = JobResult {
        id: format!("{session_id}@v{version}"),
        fingerprint: 0,
        status: JobStatus::Failed(message.to_string()),
        metrics: None,
        provenance: CacheProvenance::Computed,
        micros: 0,
        queue_micros: 0,
        stage: None,
    };
    let mut fields = match result.to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("JobResult renders as an object"),
    };
    fields.push((
        "session".to_string(),
        Value::Obj(vec![
            ("id".to_string(), Value::Str(session_id.to_string())),
            ("version".to_string(), Value::Num(version as f64)),
        ]),
    ));
    Value::Obj(fields)
}

/// Interactive edit sessions as a [`ServerExtension`].
pub struct SessionExtension {
    store: SessionStore,
}

impl Default for SessionExtension {
    fn default() -> Self {
        SessionExtension::new(DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL)
    }
}

impl SessionExtension {
    /// An extension bounded to `capacity` live sessions with the given
    /// idle TTL.
    pub fn new(capacity: usize, ttl: Duration) -> Self {
        SessionExtension {
            store: SessionStore::new(capacity, ttl),
        }
    }

    /// The underlying store (tests and embedding callers).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// `POST /v1/session`: open a session from a compile-job body.
    fn create(&self, ctx: &ServerContext<'_>, request: &Request) -> HandlerResult {
        let started = ctx.trace().now_micros();
        let parsed = request
            .body_str()
            .map_err(|e| e.to_string())
            .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
            .and_then(|doc| {
                check_wire_version(&doc)?;
                let wire = negotiate_version(&doc)?;
                let job = job_from_value::<CompilerOptions>(&doc, "session")
                    .map_err(|e| e.to_string())?;
                Ok((wire, job))
            })
            .and_then(|(wire, job)| {
                let job = ftqc_compiler::apply_job_target(job, ctx.targets())?;
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
        let micros = ctx.trace().now_micros().saturating_sub(started);
        let metrics = *session.program().metrics();
        self.store.insert(session);
        ctx.trace().add_span(
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
            ("id".to_string(), Value::Str(id.clone())),
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

    /// `POST /v1/session/<id>/edit`: JSONL batches in, JSONL results out.
    fn edit(&self, ctx: &ServerContext<'_>, request: &Request, id: &str) -> HandlerResult {
        let Some(handle) = self.store.get(id) else {
            return (
                404,
                "application/json",
                error_body(&format!("no session {id:?} (expired or never created)")),
            );
        };
        let body = match request.body_str() {
            Ok(b) => b,
            Err(e) => return (400, "application/json", error_body(&e.to_string())),
        };
        let counters = self.store.counters();
        let mut lines_out = String::new();
        let mut any = false;
        // One lock for the whole request: batches in one body are applied
        // in order without another client's edits interleaving.
        let mut session = handle.lock().expect("session lock");
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            any = true;
            let started = ctx.trace().now_micros();
            let (doc, outcome_label) = match EditSet::parse_line(line) {
                Err(e) => {
                    SessionCounters::bump(&counters.rejected, 1);
                    (
                        edit_failed_json(id, session.version(), &format!("bad edit line: {e}")),
                        "parse-error",
                    )
                }
                Ok(set) => {
                    let digest = set.digest();
                    let edits = set.edits.len() as u64;
                    match session.apply(&set) {
                        Ok((program, delta)) => {
                            SessionCounters::bump(&counters.edits, edits);
                            SessionCounters::bump(&counters.full, 1);
                            let micros = ctx.trace().now_micros().saturating_sub(started);
                            (
                                edit_result_json(
                                    id,
                                    session.version(),
                                    digest,
                                    program.metrics(),
                                    &delta,
                                    micros,
                                ),
                                delta.kind.as_str(),
                            )
                        }
                        Err(e) => {
                            SessionCounters::bump(&counters.rejected, 1);
                            (
                                edit_failed_json(id, session.version(), &e.to_string()),
                                "rejected",
                            )
                        }
                    }
                }
            };
            let micros = ctx.trace().now_micros().saturating_sub(started);
            ctx.trace().add_span(
                "session.edit",
                None,
                started,
                micros,
                vec![
                    ("session".to_string(), id.to_string()),
                    ("version".to_string(), session.version().to_string()),
                    ("outcome".to_string(), outcome_label.to_string()),
                ],
            );
            lines_out.push_str(&doc.render());
            lines_out.push('\n');
        }
        drop(session);
        if !any {
            return (
                400,
                "application/json",
                error_body("edit body contains no batches"),
            );
        }
        (200, "application/jsonl", lines_out)
    }

    /// `GET /v1/session/<id>`: snapshot without mutating anything (the
    /// idle clock still refreshes — a polling IDE keeps its session warm).
    fn snapshot(&self, id: &str) -> HandlerResult {
        let Some(handle) = self.store.get(id) else {
            return (
                404,
                "application/json",
                error_body(&format!("no session {id:?} (expired or never created)")),
            );
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
    fn close(&self, id: &str) -> HandlerResult {
        match self.store.remove(id) {
            None => (
                404,
                "application/json",
                error_body(&format!("no session {id:?} (expired or never created)")),
            ),
            Some(handle) => {
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
        }
    }
}

impl ServerExtension for SessionExtension {
    fn handle(&self, ctx: &ServerContext<'_>, request: &Request) -> Option<HandlerResult> {
        let path = request.path.as_str();
        let method = request.method.as_str();
        if path == "/v1/session" {
            return Some(match method {
                "POST" => self.create(ctx, request),
                _ => (
                    405,
                    "application/json",
                    error_body(&format!("method {method} not allowed here")),
                ),
            });
        }
        let rest = path.strip_prefix("/v1/session/")?;
        if rest.is_empty() {
            return Some((
                404,
                "application/json",
                error_body("no such endpoint \"/v1/session/\""),
            ));
        }
        Some(match (method, rest.split_once('/')) {
            ("POST", Some((id, "edit"))) => self.edit(ctx, request, id),
            (_, Some((_, "edit"))) => (
                405,
                "application/json",
                error_body(&format!("method {method} not allowed here")),
            ),
            ("GET", None) => self.snapshot(rest),
            ("DELETE", None) => self.close(rest),
            (_, None) => (
                405,
                "application/json",
                error_body(&format!("method {method} not allowed here")),
            ),
            (_, Some(_)) => (
                404,
                "application/json",
                error_body(&format!("no such endpoint {path:?}")),
            ),
        })
    }

    fn metrics_text(&self) -> String {
        let c = self.store.counters();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP ftqc_session_active Live edit sessions.\n# TYPE ftqc_session_active gauge\nftqc_session_active {}",
            self.store.len()
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

    fn stats_fields(&self) -> Vec<(String, Value)> {
        let c = self.store.counters();
        vec![(
            "sessions".to_string(),
            Value::Obj(vec![
                ("active".to_string(), Value::Num(self.store.len() as f64)),
                (
                    "created".to_string(),
                    Value::Num(SessionCounters::get(&c.created) as f64),
                ),
                (
                    "closed".to_string(),
                    Value::Num(SessionCounters::get(&c.closed) as f64),
                ),
                (
                    "evicted".to_string(),
                    Value::Num(SessionCounters::get(&c.evicted) as f64),
                ),
                (
                    "edits".to_string(),
                    Value::Num(SessionCounters::get(&c.edits) as f64),
                ),
                (
                    "full".to_string(),
                    Value::Num(SessionCounters::get(&c.full) as f64),
                ),
                (
                    "rejected".to_string(),
                    Value::Num(SessionCounters::get(&c.rejected) as f64),
                ),
            ]),
        )]
    }

    fn on_shutdown(&self) {
        self.store.drain();
    }
}
