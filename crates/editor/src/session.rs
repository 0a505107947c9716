//! One interactive edit session: a circuit plus its latest compiled
//! program. Each applied batch compiles the edited circuit in full.

use ftqc_circuit::{Circuit, EditError};
use ftqc_compiler::{
    CompileDelta, CompileError, CompiledProgram, CompilerOptions, DifferentialCompiler,
};

use crate::edit::{retarget_gate, CircuitEdit, EditSet};

/// Why an edit batch failed to apply. The session is left exactly as it
/// was: batches are atomic, and a failed compile discards the edited
/// circuit rather than leaving the session half-updated.
#[derive(Debug)]
pub enum EditApplyError {
    /// The batch was authored against a stale session version.
    VersionConflict {
        /// The session's current version.
        current: u64,
        /// The version the batch was authored against.
        base: u64,
    },
    /// An edit failed circuit validation (bad index, bad operand).
    Edit(EditError),
    /// A retarget named an operand list the gate kind cannot take.
    Retarget(String),
    /// The edited circuit failed to compile.
    Compile(CompileError),
}

impl std::fmt::Display for EditApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditApplyError::VersionConflict { current, base } => write!(
                f,
                "version conflict: batch authored against v{base}, session is at v{current}"
            ),
            EditApplyError::Edit(e) => write!(f, "invalid edit: {e}"),
            EditApplyError::Retarget(msg) => write!(f, "invalid retarget: {msg}"),
            EditApplyError::Compile(e) => write!(f, "recompile failed: {e}"),
        }
    }
}

impl std::error::Error for EditApplyError {}

impl From<EditError> for EditApplyError {
    fn from(e: EditError) -> Self {
        EditApplyError::Edit(e)
    }
}

impl From<CompileError> for EditApplyError {
    fn from(e: CompileError) -> Self {
        EditApplyError::Compile(e)
    }
}

/// Applies one edit to `circuit`, validating as it goes. Public so
/// clients (and the session property test) can maintain their own
/// mirror of a session's circuit.
pub fn apply_edit(circuit: &mut Circuit, edit: &CircuitEdit) -> Result<(), EditApplyError> {
    match edit {
        CircuitEdit::Insert { index, gate } => circuit.insert_gate(*index, *gate)?,
        CircuitEdit::Remove { index } => {
            circuit.remove_gate(*index)?;
        }
        CircuitEdit::Retarget { index, qubits } => {
            let old = circuit
                .gates()
                .get(*index)
                .cloned()
                .ok_or(EditError::IndexOutOfRange {
                    index: *index,
                    len: circuit.len(),
                })?;
            let moved =
                retarget_gate(&old, qubits).map_err(|e| EditApplyError::Retarget(e.message))?;
            circuit.replace_gate(*index, moved)?;
        }
        CircuitEdit::Replace { index, gate } => {
            circuit.replace_gate(*index, *gate)?;
        }
    }
    Ok(())
}

/// A live edit session: the current circuit, its latest program (held by
/// a [`DifferentialCompiler`], which compiles every circuit in full), and
/// a version counter that advances once per applied batch.
pub struct EditSession {
    id: String,
    circuit: Circuit,
    compiler: DifferentialCompiler,
    version: u64,
    edits_applied: u64,
    full_recompiles: u64,
}

impl EditSession {
    /// Opens a session on `circuit`, running the initial full compile.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] of the seed compile.
    pub fn open(
        id: impl Into<String>,
        circuit: Circuit,
        options: CompilerOptions,
    ) -> Result<(EditSession, CompileDelta), CompileError> {
        let mut compiler = DifferentialCompiler::new(options);
        let (_, delta) = compiler.recompile(&circuit)?;
        Ok((
            EditSession {
                id: id.into(),
                circuit,
                compiler,
                version: 0,
                edits_applied: 0,
                full_recompiles: 1,
            },
            delta,
        ))
    }

    /// The session id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The current version (0 after open, +1 per applied batch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The compiler options the session compiles under.
    pub fn options(&self) -> &CompilerOptions {
        self.compiler.options()
    }

    /// The latest compiled program (always present after [`open`]).
    ///
    /// [`open`]: EditSession::open
    pub fn program(&self) -> &CompiledProgram {
        self.compiler
            .last_program()
            .expect("session always holds its last compile")
    }

    /// Total single edits applied across all batches.
    pub fn edits_applied(&self) -> u64 {
        self.edits_applied
    }

    /// How many full compiles the session has run: the one at open, plus
    /// one per applied batch.
    pub fn full_recompiles(&self) -> u64 {
        self.full_recompiles
    }

    /// Applies one batch atomically, then compiles the edited circuit in
    /// full with [`Compiler::compile`](ftqc_compiler::Compiler::compile).
    ///
    /// On any error the session is unchanged: edits land on a scratch
    /// copy of the circuit, and a failed compile keeps the previous
    /// program.
    ///
    /// # Errors
    ///
    /// [`EditApplyError`] — version conflict, invalid edit, or compile
    /// failure.
    pub fn apply(
        &mut self,
        set: &EditSet,
    ) -> Result<(CompiledProgram, CompileDelta), EditApplyError> {
        if let Some(base) = set.base_version {
            if base != self.version {
                return Err(EditApplyError::VersionConflict {
                    current: self.version,
                    base,
                });
            }
        }
        let mut edited = self.circuit.clone();
        for edit in &set.edits {
            apply_edit(&mut edited, edit)?;
        }
        let (program, delta) = self.compiler.recompile(&edited)?;
        self.circuit = edited;
        self.version += 1;
        self.edits_applied += set.edits.len() as u64;
        self.full_recompiles += 1;
        Ok((program, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::TargetSpec;
    use ftqc_circuit::Gate;
    use ftqc_compiler::{Compiler, DeltaKind};

    fn seed_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        for q in 0..3 {
            c.cnot(q, q + 1);
            c.t(q + 1);
        }
        c
    }

    fn options() -> CompilerOptions {
        CompilerOptions::default().routing_paths(4)
    }

    #[test]
    fn open_apply_and_version_advance() {
        let (mut session, delta) = EditSession::open("s1", seed_circuit(), options()).unwrap();
        assert_eq!(delta.kind, DeltaKind::Full);
        assert_eq!(session.version(), 0);
        let set = EditSet::new(vec![CircuitEdit::Insert {
            index: seed_circuit().len(),
            gate: Gate::T(0),
        }])
        .at_version(0);
        let (program, delta) = session.apply(&set).unwrap();
        assert_eq!(session.version(), 1);
        assert_eq!(session.edits_applied(), 1);
        assert_eq!(program.metrics().n_gates, seed_circuit().len() + 1);
        assert!(delta.gates_total > 0);
    }

    #[test]
    fn stale_base_version_is_rejected_atomically() {
        let (mut session, _) = EditSession::open("s1", seed_circuit(), options()).unwrap();
        let set = EditSet::new(vec![CircuitEdit::Remove { index: 0 }]).at_version(3);
        let err = session.apply(&set).unwrap_err();
        assert!(matches!(
            err,
            EditApplyError::VersionConflict {
                current: 0,
                base: 3
            }
        ));
        assert_eq!(session.version(), 0);
        assert_eq!(session.circuit().len(), seed_circuit().len());
    }

    #[test]
    fn bad_edit_leaves_session_unchanged() {
        let (mut session, _) = EditSession::open("s1", seed_circuit(), options()).unwrap();
        let set = EditSet::new(vec![
            CircuitEdit::Remove { index: 0 },
            CircuitEdit::Remove { index: 10_000 },
        ]);
        assert!(session.apply(&set).is_err());
        assert_eq!(session.circuit().len(), seed_circuit().len());
        assert_eq!(session.version(), 0);
    }

    #[test]
    fn every_edit_is_a_cold_compile() {
        let (mut session, _) = EditSession::open("s1", seed_circuit(), options()).unwrap();
        let set = EditSet::new(vec![CircuitEdit::Insert {
            index: session.circuit().len(),
            gate: Gate::T(3),
        }]);
        let (program, delta) = session.apply(&set).unwrap();
        assert_eq!(delta.kind, DeltaKind::Full);
        assert_eq!(delta.gates_rerouted, delta.gates_total);
        assert_eq!(delta.ops_retimed, delta.ops_total);
        assert_eq!(session.full_recompiles(), 2);
        let cold = Compiler::new(options()).compile(session.circuit()).unwrap();
        assert_eq!(program.metrics(), cold.metrics());
        assert_eq!(program.schedule(), cold.schedule());
    }

    #[test]
    fn failed_compile_keeps_the_last_program() {
        // A machine without magic states compiles the Clifford seed but
        // refuses a T, as a cold compile of the edited circuit does.
        let mut target = TargetSpec::paper();
        target.capabilities.magic_states = false;
        let options = CompilerOptions::default().target(target);
        let mut seed = Circuit::new(4);
        seed.h(0).cnot(0, 1);
        let (mut session, _) = EditSession::open("s1", seed.clone(), options).unwrap();
        let before = *session.program().metrics();
        let set = EditSet::new(vec![CircuitEdit::Insert {
            index: 0,
            gate: Gate::T(2),
        }]);
        let err = session.apply(&set).unwrap_err();
        assert!(matches!(err, EditApplyError::Compile(_)), "{err}");
        assert_eq!(session.version(), 0);
        assert_eq!(session.circuit(), &seed);
        assert_eq!(session.program().metrics(), &before);
    }

    #[test]
    fn retarget_applies_through_replace() {
        let (mut session, _) = EditSession::open("s1", seed_circuit(), options()).unwrap();
        // Gate 0 is H(0); move it to qubit 3.
        let set = EditSet::new(vec![CircuitEdit::Retarget {
            index: 0,
            qubits: vec![3],
        }]);
        session.apply(&set).unwrap();
        assert_eq!(session.circuit().gates()[0], Gate::H(3));
    }
}
