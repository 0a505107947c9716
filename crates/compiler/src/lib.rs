//! The `ftqc` compiler: the paper's primary contribution.
//!
//! A three-stage pipeline (paper §V) turning a Clifford+T [`Circuit`] into a
//! timed lattice-surgery schedule on a routing-path-parameterised layout:
//!
//! 1. **Mapping** — program qubits are assigned home cells on the 2D grid
//!    (row-major or snake order, preserving nearest-neighbour structure).
//! 2. **Routing** — a greedy engine consumes the circuit DAG front layer,
//!    planning qubit movements with penalty-weighted Dijkstra, clearing
//!    ancilla space with space search, choosing CNOT configurations with
//!    gate-dependent look-ahead, and routing magic states from distillation
//!    factories to their consumers.
//! 3. **Scheduling** — redundant move pairs are cancelled and the operation
//!    sequence is re-timed against per-cell resource timelines, yielding
//!    the execution time, the unit-cost execution time, and the spacetime
//!    metrics of the evaluation.
//!
//! The pipeline is exposed two ways: the one-shot [`Compiler::compile`]
//! façade, and the staged [`CompileSession`] (prepare → lower → map →
//! schedule) whose typed artifacts carry stable fingerprints, checkpoint
//! into a stage-keyed [`StageCache`], and report per-stage progress to
//! [`TraceHook`]s — so sweeps that vary only downstream options re-run
//! only the stages that changed.
//!
//! # Example
//!
//! ```
//! use ftqc_circuit::Circuit;
//! use ftqc_compiler::{Compiler, CompilerOptions};
//!
//! let mut c = Circuit::new(4);
//! c.h(0).cnot(0, 1).t(1).cnot(1, 2).t(3);
//! let compiled = Compiler::new(CompilerOptions::default().routing_paths(4))
//!     .compile(&c)?;
//! let m = compiled.metrics();
//! assert!(m.execution_time >= m.lower_bound);
//! assert_eq!(m.n_magic_states, 2);
//! # Ok::<(), ftqc_compiler::CompileError>(())
//! ```
//!
//! [`Circuit`]: ftqc_circuit::Circuit

pub mod analysis;
pub mod codec;
pub mod differential;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod explore;
pub mod export;
pub mod mapping;
pub mod metrics;
pub mod options;
pub mod pipeline;
pub mod redundant;
pub mod routed;
pub mod semantics;
pub mod session;
pub mod svg;
pub mod targets;
pub mod timer;
pub mod trace;
pub mod verify;
pub mod witness;

pub use analysis::{diagnose, Bottleneck, BottleneckReport};
pub use codec::{
    route_counters_from_json, route_counters_to_json, target_digest, target_from_json,
    target_to_json,
};
pub use differential::{CompileDelta, DeltaKind, DifferentialCompiler};
pub use engine::{route_circuit, RoutedProgram};
pub use error::CompileError;
pub use estimate::{
    estimate_resources, EstimateError, EstimateRequest, Objective, ResourceEstimate,
};
pub use explore::{
    best_by_volume, explore, explore_session, explore_targets, pareto_front, target_sweep_options,
    DesignPoint, TargetSweep,
};
pub use export::{to_csv, utilization, UtilizationStats};
pub use ftqc_route::RouteCounters;
pub use mapping::{InitialMapping, MappingStrategy};
pub use metrics::Metrics;
pub use options::{CompilerOptions, TStatePolicy};
pub use pipeline::{lower, prepare, CompiledProgram, Compiler};
pub use redundant::eliminate_redundant_moves;
pub use routed::{Patches, RoutedOp};
pub use semantics::{check_semantics, EquivalenceMethod, SemanticsError, SemanticsReport};
pub use session::{
    stage_outcome, CompileSession, Lowered, Mapped, Prepared, Stage, StageCache, StageCacheStats,
    StageEvent, StageRun, StageTrace, TraceHook, DEFAULT_STAGE_CACHE_CAPACITY,
};
pub use targets::{apply_job_target, resolve_target_ref};
pub use timer::{time_ops, CostKind};
pub use trace::{activity_strip, kind_breakdown, Activity, KindBreakdown};
pub use verify::{verify, VerifyError};
pub use witness::{extract_witness, verify_witness, Witness, WitnessError, WITNESS_VERSION};
