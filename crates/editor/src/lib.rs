//! `ftqc-editor` — interactive edit sessions for IDE-style clients.
//!
//! The batch endpoints take a whole circuit per request. An IDE making
//! one small change per keystroke would resend it every time; this crate
//! keeps a *session* alive instead: the circuit, its latest compiled
//! program and a version counter, so a client sends only its edits. Each
//! edit batch compiles the edited circuit in full with
//! [`ftqc_compiler::Compiler::compile`], so a session's program is always
//! a cold compile of its circuit.
//!
//! A session edit sends a few dozen bytes where re-sending the edited
//! circuit sends kilobytes, and the server skips parsing and resolving
//! the circuit: over loopback, an edit of a paper-size Table I circuit
//! answers ~1.4× faster than the same circuit re-sent as inline QASM
//! (the README's edit-session section has the measurement).
//!
//! * [`edit`] — the [`CircuitEdit`] / [`EditSet`] model and its JSON
//!   wire form (insert / remove / retarget / replace, batched, with a
//!   stable content digest and optional optimistic version pinning).
//! * [`session`] — [`EditSession`]: one circuit, its latest program, a
//!   version counter; batches apply atomically.
//! * [`line`](mod@line) — [`apply_edit_line`]: one JSONL edit line
//!   applied to a session and its result line rendered, for the server's
//!   `/v1/session/<id>/edit` and `ftqc edit` alike.
//! * [`store`] — [`SessionStore`]: bounded, TTL-evicting, one lock per
//!   session so distinct sessions never contend. `ftqc-server` holds one
//!   and serves the `/v1/session*` endpoints from it.
//!
//! # Example
//!
//! ```
//! use ftqc_circuit::{Circuit, Gate};
//! use ftqc_compiler::{CompilerOptions, DeltaKind};
//! use ftqc_editor::{CircuitEdit, EditSession, EditSet};
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cnot(0, 1).t(1).cnot(1, 2);
//! let (mut session, _) =
//!     EditSession::open("demo", c, CompilerOptions::default().routing_paths(4))?;
//!
//! // Append a gate: the edited circuit compiles in full.
//! let set = EditSet::new(vec![CircuitEdit::Insert {
//!     index: session.circuit().len(),
//!     gate: Gate::T(2),
//! }]);
//! let (program, delta) = session.apply(&set).expect("edit applies");
//! assert_eq!(delta.kind, DeltaKind::Full);
//! assert_eq!(program.metrics().n_gates, 5);
//! assert_eq!(session.version(), 1);
//! # Ok::<(), ftqc_compiler::CompileError>(())
//! ```

pub mod edit;
pub mod line;
pub mod session;
pub mod store;

pub use edit::{
    gate_from_json, gate_from_parts, gate_to_json, retarget_gate, CircuitEdit, EditSet,
};
pub use line::{apply_edit_line, delta_to_json, edit_failed_json, EditLineOutcome};
pub use session::{apply_edit, EditApplyError, EditSession};
pub use store::{SessionCounters, SessionStore, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL};
