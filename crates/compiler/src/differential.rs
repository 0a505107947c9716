//! The compiler behind interactive edit sessions.
//!
//! A [`DifferentialCompiler`] compiles every circuit it is given in full,
//! with [`Compiler::compile`], and keeps the last program so a session can
//! serve it between edits. Each result is a cold compile, so it is
//! byte-identical to one, route counters included.
//!
//! Nothing is reused between compiles: resuming routing and timing from
//! checkpoints of the previous compile ran slower than a cold compile for
//! most edits of the paper's Table I circuits. The `DifferentialCompiler`
//! and [`CompileDelta`] names stay because the benchmark in `perfbench/`
//! imports them.

use crate::error::CompileError;
use crate::options::CompilerOptions;
use crate::pipeline::{CompiledProgram, Compiler};
use ftqc_circuit::Circuit;

/// Which path produced a [`DifferentialCompiler::recompile`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// A full compile of the whole circuit: the only path.
    Full,
}

impl DeltaKind {
    /// Stable lower-case label (`"full"`), the delta's wire `"kind"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaKind::Full => "full",
        }
    }
}

/// What one [`DifferentialCompiler::recompile`] recomputed — the delta
/// annotation an edit session attaches to its result. Every recompile is
/// a full compile, so the re-routed and re-timed counts equal the totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileDelta {
    /// Always [`DeltaKind::Full`].
    pub kind: DeltaKind,
    /// Gates in the lowered circuit.
    pub gates_total: usize,
    /// Gates routed by this compile (`gates_total`).
    pub gates_rerouted: usize,
    /// Ops in the post-elimination sequence.
    pub ops_total: usize,
    /// Ops timed by this compile (`ops_total`).
    pub ops_retimed: usize,
}

impl CompileDelta {
    /// The delta of a full compile that produced `program`.
    fn full(program: &CompiledProgram) -> Self {
        let gates = program.lowered_circuit().len();
        let ops = program.schedule().len();
        CompileDelta {
            kind: DeltaKind::Full,
            gates_total: gates,
            gates_rerouted: gates,
            ops_total: ops,
            ops_retimed: ops,
        }
    }
}

/// A compiler that keeps its last program: each
/// [`recompile`](Self::recompile) is a [`Compiler::compile`] of the whole
/// circuit. See the [module docs](self) for why nothing is reused.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{Compiler, CompilerOptions, DeltaKind, DifferentialCompiler};
///
/// let options = CompilerOptions::default().routing_paths(4);
/// let mut diff = DifferentialCompiler::new(options.clone());
/// let mut c = Circuit::new(4);
/// c.h(0).cnot(0, 1).t(1);
/// diff.recompile(&c)?;
///
/// c.t(1); // edit: append a gate
/// let (program, delta) = diff.recompile(&c)?;
/// assert_eq!(delta.kind, DeltaKind::Full);
/// assert_eq!(delta.gates_rerouted, delta.gates_total);
/// let cold = Compiler::new(options).compile(&c)?;
/// assert_eq!(program.metrics(), cold.metrics());
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
pub struct DifferentialCompiler {
    compiler: Compiler,
    last: Option<CompiledProgram>,
}

impl DifferentialCompiler {
    /// A compiler for `options` that holds no program yet.
    pub fn new(options: CompilerOptions) -> Self {
        DifferentialCompiler {
            compiler: Compiler::new(options),
            last: None,
        }
    }

    /// The options every compile runs under.
    pub fn options(&self) -> &CompilerOptions {
        self.compiler.options()
    }

    /// The last compiled program, if any compile has succeeded. A failed
    /// recompile leaves it in place.
    pub fn last_program(&self) -> Option<&CompiledProgram> {
        self.last.as_ref()
    }

    /// Compiles `circuit` in full and keeps the program. Returns the
    /// program plus a [`CompileDelta`] counting what was compiled.
    ///
    /// # Errors
    ///
    /// Exactly [`Compiler::compile`]'s errors.
    pub fn recompile(
        &mut self,
        circuit: &Circuit,
    ) -> Result<(CompiledProgram, CompileDelta), CompileError> {
        let program = self.compiler.compile(circuit)?;
        let delta = CompileDelta::full(&program);
        self.last = Some(program.clone());
        Ok((program, delta))
    }
}
