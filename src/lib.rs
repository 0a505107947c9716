//! `ftqc` — space-time optimisations for early fault-tolerant quantum
//! computation.
//!
//! Umbrella crate re-exporting the workspace: a distillation-adaptive
//! surface-code compiler (Sharma & Murali, CGO 2026) together with the
//! substrates it is built on and the baselines it is evaluated against.
//!
//! * [`circuit`] — Clifford+T IR, dependency DAG, Pauli/tableau algebra,
//!   PPR transpilation, OpenQASM subset I/O.
//! * [`arch`] — logical-qubit grid, routing-path-parameterised layouts,
//!   lattice-surgery instruction set, timing model, distillation factories.
//! * [`route`] — weighted Dijkstra pathfinding, space search, and
//!   gate-dependent look-ahead moves.
//! * [`sim`] — per-cell resource timeline (discrete-event scheduling core).
//! * [`compiler`] — the mapping → routing → scheduling pipeline and its
//!   metrics (the paper's primary contribution).
//! * [`baselines`] — Litinski block layouts, LSQCA Line-SAM, and DASCOT
//!   comparison models.
//! * [`benchmarks`] — Table I workload generators (condensed-matter Trotter
//!   circuits, GHZ, adder, multiplier).
//! * [`service`] — the parallel batch-compilation service: JSON-lines
//!   compile jobs, a deterministic worker pool, and a content-addressed
//!   compile cache shared by `compiler::explore_session` (the one sweep
//!   runner), the sweep binaries and the `ftqc batch` / `ftqc sweep` CLI.
//! * [`server`] — the HTTP compile server over that service: JSON
//!   endpoints for single compiles, JSONL batches, and design-space
//!   sweeps, one process-wide compile cache shared by all clients,
//!   Prometheus metrics, graceful shutdown, and a blocking client API
//!   (`ftqc serve` / `ftqc client`).
//! * [`editor`] — interactive edit sessions: gate-level circuit edits
//!   batched over the wire, each batch a full compile of the edited
//!   circuit, served as the stateful `/v1/session*` endpoints
//!   (`ftqc edit`).
//! * [`reactor`] — the event-driven serving core behind `ftqc serve`: a
//!   dependency-free epoll reactor with sharded event loops, incremental
//!   HTTP framing, a bounded per-client-fair admission queue, computed
//!   `Retry-After` backpressure, and graceful drain.
//! * [`telemetry`] — request-scoped tracing: trace ids, span trees,
//!   log₂ latency histograms with percentiles, and the bounded flight
//!   recorder behind the server's `/v1/traces` endpoints.
//!
//! # Quickstart
//!
//! ```
//! use ftqc::benchmarks::ising_2d;
//! use ftqc::compiler::{Compiler, CompilerOptions};
//!
//! let circuit = ising_2d(2); // 2x2 Ising model, single Trotter step
//! let options = CompilerOptions::default().routing_paths(4).factories(1);
//! let compiled = Compiler::new(options).compile(&circuit)?;
//! assert!(compiled.metrics().execution_time >= compiled.metrics().lower_bound);
//! # Ok::<(), ftqc::compiler::CompileError>(())
//! ```

pub use ftqc_arch as arch;
pub use ftqc_baselines as baselines;
pub use ftqc_benchmarks as benchmarks;
pub use ftqc_circuit as circuit;
pub use ftqc_compiler as compiler;
pub use ftqc_editor as editor;
pub use ftqc_reactor as reactor;
pub use ftqc_route as route;
pub use ftqc_server as server;
pub use ftqc_service as service;
pub use ftqc_sim as sim;
pub use ftqc_telemetry as telemetry;
