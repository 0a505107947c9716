//! `ftqc-editor` — interactive edit sessions for IDE-style clients.
//!
//! The batch endpoints treat every request as a fresh circuit; an IDE
//! making one small change per keystroke pays a full recompile each
//! time. This crate keeps a *session* alive instead: the circuit, plus
//! the previous compile's artifacts held warm inside
//! [`ftqc_compiler::DifferentialCompiler`], so each edit batch re-lowers
//! only the affected suffix, resumes routing from the deepest sound
//! checkpoint, and splices the unchanged prefix of the schedule — with
//! the compiler's six-invariant verifier run on every differential
//! result, and a clean full compile as the fallback whenever reuse is
//! unsound.
//!
//! * [`edit`] — the [`CircuitEdit`] / [`EditSet`] model and its JSON
//!   wire form (insert / remove / retarget / replace, batched, with a
//!   stable content digest and optional optimistic version pinning).
//! * [`session`] — [`EditSession`]: one circuit, one differential
//!   compiler, a version counter; batches apply atomically.
//! * [`store`] — [`SessionStore`]: bounded, TTL-evicting, one lock per
//!   session so distinct sessions never contend.
//! * [`extension`] — [`SessionExtension`]: the four `/v1/session*`
//!   endpoints on the server's [`ServerExtension`] seam, with
//!   `ftqc_session_*` Prometheus families and per-edit trace spans.
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
//! // Append a gate: only the tail of the schedule is recomputed.
//! let set = EditSet::new(vec![CircuitEdit::Insert {
//!     index: session.circuit().len(),
//!     gate: Gate::T(2),
//! }]);
//! let (program, delta) = session.apply(&set).expect("edit applies");
//! assert_eq!(delta.kind, DeltaKind::Differential);
//! assert_eq!(program.metrics().n_gates, 5);
//! assert_eq!(session.version(), 1);
//! # Ok::<(), ftqc_compiler::CompileError>(())
//! ```
//!
//! [`ServerExtension`]: ftqc_server::ServerExtension

pub mod edit;
pub mod extension;
pub mod session;
pub mod store;

pub use edit::{
    gate_from_json, gate_from_parts, gate_to_json, retarget_gate, CircuitEdit, EditSet,
};
pub use extension::{delta_to_json, edit_failed_json, edit_result_json, SessionExtension};
pub use session::{apply_edit, EditApplyError, EditSession};
pub use store::{SessionCounters, SessionStore, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL};
