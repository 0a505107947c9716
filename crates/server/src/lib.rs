//! `ftqc-server` — the HTTP compile server.
//!
//! PR 1 built the in-process half of the serving story (`ftqc-service`:
//! job model, deterministic worker pool, content-addressed compile cache);
//! this crate adds the network boundary: a long-lived daemon that amortises
//! process startup and cache warmth across clients. Dependency-free by
//! construction — the HTTP/1.1 layer is hand-rolled on
//! `std::net::TcpListener` because the build environment has no registry
//! access (no hyper, no tokio).
//!
//! * [`http`] — request/response parsing and writing with Content-Length
//!   framing, size limits, and timeout mapping.
//! * [`server`] — the JSON endpoints, served from `ftqc_reactor`'s
//!   sharded epoll event loops with a bounded, per-client-fair admission
//!   queue and pre-body `429 + Retry-After` backpressure, and graceful
//!   (SIGINT-safe) shutdown that drains in-flight requests and persists
//!   the cache file tier. Linux only: elsewhere `Server::run` returns
//!   `Unsupported`.
//! * [`metrics`] — Prometheus-style counters and latency histograms
//!   behind `GET /metrics`.
//! * [`api`] — sweep request/response wire types shared with the CLI.
//! * `sessions` — the `/v1/session*` endpoints over the server's
//!   `ftqc_editor::SessionStore`.
//! * [`client`] — a small blocking client for every endpoint.
//!
//! Circuit resolution lives in `ftqc_service::resolve`, shared with the
//! CLI; the server uses the remote-safe variant, which refuses
//! `qasm_file` sources rather than reading paths network clients name.
//!
//! # Endpoints
//!
//! | Route | Payload |
//! |---|---|
//! | `POST /v1/compile` | one JSON `CompileJob` → one JSON `JobResult` |
//! | `POST /v1/batch` | JSONL jobs → JSONL results (submission order) |
//! | `POST /v1/sweep` | options grid → design points / Pareto front |
//! | `POST /v1/session` | one JSON `CompileJob` → an edit session's descriptor |
//! | `POST /v1/session/<id>/edit` | JSONL edit batches → JSONL results |
//! | `GET`/`DELETE /v1/session/<id>` | snapshot / close an edit session |
//! | `GET /v1/targets` | the registered hardware targets |
//! | `GET /v1/cache/stats` | compile-cache counters + latency percentiles |
//! | `GET /v1/traces` | flight-recorder trace summaries, newest first |
//! | `GET /v1/trace/<id>` | one retained trace's full span tree |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text exposition |
//!
//! All compile paths share one process-wide
//! [`ftqc_service::SharedCache`], so concurrent clients warm each other:
//! the second client to ask for a configuration gets it at cache speed no
//! matter who asked first.
//!
//! Every request is traced: the server assigns (or honours) an
//! `x-ftqc-trace` id, records a span tree — parse, queue wait, pipeline
//! stages, router counters — into a bounded keep-slowest flight
//! recorder (`ftqc_telemetry`), and aggregates latencies into the log₂
//! histograms `GET /metrics` exposes.

pub mod api;
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;
mod sessions;

pub use api::{
    check_wire_version, negotiate_version, versioned, versioned_as, MultiSweepResponse,
    SweepRequest, SweepResponse, TargetInfo, TargetsResponse, DEFAULT_FACTORIES,
    DEFAULT_ROUTING_PATHS, MIN_WIRE_VERSION, WIRE_VERSION,
};
pub use client::{Client, ClientError, RetryPolicy};
pub use metrics::{Endpoint, ServerMetrics};
pub use server::{Server, ServerConfig, ServerError, ServerReport, ShutdownHandle};
