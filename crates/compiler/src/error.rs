//! Compiler error type.

use crate::session::Stage;
use ftqc_arch::{LayoutError, TargetError};
use std::error::Error;
use std::fmt;

/// Error produced by [`Compiler::compile`](crate::Compiler::compile) and
/// the staged [`CompileSession`](crate::CompileSession).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The requested layout is invalid for this circuit.
    Layout(LayoutError),
    /// The program violates the hardware target's capabilities (qubit
    /// cap, Clifford-only machine, zero factories).
    Target(TargetError),
    /// The router could not realise a gate (congestion beyond recovery).
    RoutingFailed {
        /// Index of the gate in the (lowered) circuit.
        gate_index: usize,
        /// Description of the failure.
        reason: String,
    },
    /// The circuit is empty of qubits.
    EmptyRegister,
    /// A stage resume was attempted with options that disagree with the
    /// cached artifact's upstream option subsets (the artifact would not
    /// correspond to the requested compilation).
    OptionsDiverged {
        /// The stage whose upstream options diverged.
        stage: Stage,
    },
    /// A compiled program was paired with a circuit or options it was not
    /// routed from: its key for `stage` differs from theirs.
    ProgramMismatch {
        /// The first stage whose key differs.
        stage: Stage,
    },
    /// A pipeline stage failed. Attached by [`CompileSession`] so batch
    /// error lines say *where* a job died; [`Compiler::compile`] strips the
    /// wrapper for backwards compatibility.
    ///
    /// [`CompileSession`]: crate::CompileSession
    /// [`Compiler::compile`]: crate::Compiler::compile
    Stage {
        /// The stage that failed.
        stage: Stage,
        /// Wall-clock microseconds the stage ran before failing.
        micros: u64,
        /// The underlying failure.
        source: Box<CompileError>,
    },
}

impl CompileError {
    /// Wraps an error with the stage it occurred in (idempotent: an error
    /// already carrying a stage is returned unchanged).
    pub fn at_stage(self, stage: Stage, micros: u64) -> Self {
        match self {
            e @ CompileError::Stage { .. } => e,
            source => CompileError::Stage {
                stage,
                micros,
                source: Box::new(source),
            },
        }
    }

    /// The failing stage, when one was attached.
    pub fn stage(&self) -> Option<Stage> {
        match self {
            CompileError::Stage { stage, .. } => Some(*stage),
            _ => None,
        }
    }

    /// The underlying error with any stage wrapper removed.
    pub fn into_root(self) -> Self {
        match self {
            CompileError::Stage { source, .. } => source.into_root(),
            e => e,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Layout(e) => write!(f, "layout error: {e}"),
            CompileError::Target(e) => write!(f, "target error: {e}"),
            CompileError::RoutingFailed { gate_index, reason } => {
                write!(f, "routing failed at gate {gate_index}: {reason}")
            }
            CompileError::EmptyRegister => write!(f, "circuit has no qubits"),
            CompileError::OptionsDiverged { stage } => write!(
                f,
                "cannot resume at the {} stage: options diverge from the cached \
                 artifact's upstream option subsets",
                stage.name()
            ),
            CompileError::ProgramMismatch { stage } => write!(
                f,
                "the program was not routed from this circuit and options: \
                 its {} key differs",
                stage.name()
            ),
            CompileError::Stage {
                stage,
                micros,
                source,
            } => write!(
                f,
                "{} stage failed after {micros}\u{b5}s: {source}",
                stage.name()
            ),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Layout(e) => Some(e),
            CompileError::Target(e) => Some(e),
            CompileError::Stage { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<LayoutError> for CompileError {
    fn from(e: LayoutError) -> Self {
        CompileError::Layout(e)
    }
}

impl From<TargetError> for CompileError {
    fn from(e: TargetError) -> Self {
        CompileError::Target(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = CompileError::EmptyRegister;
        assert_eq!(e.to_string(), "circuit has no qubits");
        let e = CompileError::RoutingFailed {
            gate_index: 7,
            reason: "no path".into(),
        };
        assert!(e.to_string().contains("gate 7"));
        let e: CompileError = LayoutError::NoDataQubits.into();
        assert!(e.to_string().contains("layout error"));
    }

    #[test]
    fn source_chains_layout_errors() {
        let e: CompileError = LayoutError::TooFewRoutingPaths {
            requested: 0,
            max: 10,
        }
        .into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CompileError::EmptyRegister).is_none());
    }

    #[test]
    fn target_errors_convert_and_chain() {
        let e: CompileError = TargetError::NoFactories.into();
        assert!(e.to_string().contains("target error"), "got {e}");
        assert!(Error::source(&e).is_some());
        let e: CompileError = TargetError::TooManyQubits { qubits: 16, max: 9 }.into();
        assert!(e.to_string().contains("16"), "got {e}");
    }

    #[test]
    fn stage_wrapper_names_the_stage() {
        let inner = CompileError::RoutingFailed {
            gate_index: 7,
            reason: "no path".into(),
        };
        let e = inner.clone().at_stage(Stage::Map, 123);
        assert_eq!(e.stage(), Some(Stage::Map));
        let text = e.to_string();
        assert!(text.starts_with("map stage failed after 123"), "got {text}");
        assert!(text.contains("gate 7"), "got {text}");
        assert!(Error::source(&e).is_some());
        // Idempotent wrapping and clean unwrapping.
        let rewrapped = e.clone().at_stage(Stage::Schedule, 9);
        assert_eq!(rewrapped.stage(), Some(Stage::Map));
        assert_eq!(e.into_root(), inner);
        assert_eq!(inner.clone().into_root(), inner);
    }
}
