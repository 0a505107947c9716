//! `ftqc-service` — the parallel batch-compilation service.
//!
//! The paper's design-space exploration compiles one circuit across a grid
//! of routing-path × factory configurations; this crate turns that
//! single-shot research pipeline into a throughput-oriented subsystem that
//! every sweep binary and the CLI share. Three layers:
//!
//! * [`job`] — the batch job model: [`CompileJob`] (circuit source +
//!   options) and [`JobResult`] (metrics, status, timing, cache
//!   provenance), carried in a JSON-lines format.
//! * [`pool`] — a deterministic [`WorkerPool`]: jobs fan out across
//!   `std::thread` workers and results merge in submission order, so a
//!   parallel run is byte-identical to a serial one.
//! * [`cache`] — a content-addressed [`CompileCache`]: a 64-bit
//!   fingerprint of *(canonical circuit, canonical options)* maps to the
//!   compile result, with an in-memory LRU tier, an optional JSON
//!   file-backed tier for cross-run reuse, and hit/miss/eviction counters.
//!
//! [`batch::BatchService`] glues the three together. The crate sits
//! *below* the compiler and is generic over the option/metrics types, so
//! `ftqc_compiler::explore_session` can route through the same pool and
//! cache without a dependency cycle; the compiler and CLI instantiate the
//! generics with `CompilerOptions` / `Metrics`.
//!
//! Serialization note: the wire format is hand-written in [`json`] — a
//! small canonical-JSON value model whose deterministic rendering doubles
//! as the fingerprint pre-image. The workspace uses no serialization
//! crate.
//!
//! # Example
//!
//! ```
//! use ftqc_service::{BatchConfig, BatchService, CompileJob, CircuitSource, StageOutcome};
//! use ftqc_service::json::{FromJson, JsonError, ToJson, Value};
//! use ftqc_circuit::Circuit;
//!
//! // A toy "compiler": metrics = gate count. Real callers plug in
//! // ftqc_compiler::Compiler and its Metrics.
//! #[derive(Clone)]
//! struct GateCount(u64);
//! impl ToJson for GateCount {
//!     fn to_json(&self) -> Value { Value::Num(self.0 as f64) }
//! }
//! impl FromJson for GateCount {
//!     fn from_json(v: &Value) -> Result<Self, JsonError> {
//!         v.as_u64().map(GateCount).ok_or_else(|| JsonError::schema("number"))
//!     }
//! }
//! #[derive(Clone)]
//! struct NoOptions;
//! impl ToJson for NoOptions {
//!     fn to_json(&self) -> Value { Value::Obj(vec![]) }
//! }
//!
//! let service: BatchService<GateCount> = BatchService::new(BatchConfig {
//!     workers: 2,
//!     ..BatchConfig::default()
//! })?;
//! let jobs = vec![CompileJob::new(
//!     "bell",
//!     CircuitSource::QasmInline { qasm: "2".into() },
//!     NoOptions,
//! )];
//! let results = service.run(
//!     jobs,
//!     |_source| { let mut c = Circuit::new(2); c.h(0).cnot(0, 1); Ok(c) },
//!     |circuit, _job| Ok(StageOutcome::complete(GateCount(circuit.len() as u64))),
//! );
//! assert!(results[0].is_ok());
//! assert_eq!(service.cache_stats().misses, 1);
//! # Ok::<(), ftqc_service::json::JsonError>(())
//! ```

pub mod batch;
pub mod cache;
pub mod fingerprint;
pub mod job;
pub mod json;
pub mod pool;
pub mod resolve;

pub use batch::{run_jsonl_streamed_via, run_jsonl_via, BatchConfig, BatchService};
pub use cache::{
    CacheHit, CacheStats, CacheTier, CompileCache, SharedCache, DEFAULT_CACHE_CAPACITY,
};
pub use fingerprint::{combine, fingerprint_circuit, fingerprint_value, job_key, Fnv64};
pub use job::{
    job_from_value, parse_jobs, parse_jobs_lenient, render_results, CacheProvenance, CircuitSource,
    CompileJob, JobResult, JobStatus, ParsedLine, StageOutcome, TargetRef, JOB_SCHEMA_VERSION,
    MIN_JOB_SCHEMA_VERSION,
};
pub use json::{FromJson, JsonError, ToJson, Value};
pub use pool::WorkerPool;
