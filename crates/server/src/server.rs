//! The compile server: JSON endpoints over the batch-compilation service,
//! served from `ftqc_reactor`'s sharded epoll event loops, with graceful
//! shutdown that drains in-flight requests and persists the file cache
//! tier.
//!
//! The reactor owns the sockets: it accepts on epoll readiness, frames
//! each request incrementally, refuses over-capacity requests with a
//! `429` + `Retry-After` before their bodies are read, reaps slow-loris
//! peers with a `408`, and answers `503` at the connection cap. Complete
//! requests run on `workers` dispatcher threads (`ReactorApp`), never
//! on an event loop; with one worker, a `/healthz` waits behind a
//! running sweep. The reactor needs epoll, so on other platforms
//! [`Server::run`] fails with [`io::ErrorKind::Unsupported`].
//!
//! Every request path — single compiles, JSONL batches, design-space
//! sweeps — shares one process-wide [`SharedCache`], so concurrent clients
//! warm each other and a repeated request mix is answered without
//! recompiling. The server also holds the edit sessions' bounded store
//! ([`ServerConfig::session_capacity`], [`ServerConfig::session_ttl`]);
//! `/v1/session*` routes to it like any other endpoint, and shutdown
//! closes every session.
//!
//! ```no_run
//! use ftqc_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! let handle = server.handle()?; // clone into another thread to stop it
//! server.install_sigint_handler(); // Ctrl-C also shuts down cleanly
//! let report = server.run()?;
//! println!("served {} requests", report.requests);
//! # Ok::<(), ftqc_server::ServerError>(())
//! ```

use crate::api::{
    check_wire_version, negotiate_version, versioned, versioned_as, MultiSweepResponse,
    SweepRequest, SweepResponse, TargetInfo, TargetsResponse, WIRE_VERSION,
};
use crate::http::{self, HttpError, Request};
use crate::metrics::{Endpoint, ServerMetrics};
use crate::sessions;
use ftqc_arch::TargetRegistry;
use ftqc_compiler::{
    apply_job_target, explore_session, explore_targets, pareto_front, resolve_target_ref,
    stage_outcome, CompileSession, CompilerOptions, Metrics, Stage, StageCache, StageCacheStats,
};
use ftqc_editor::{SessionStore, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL};
use ftqc_reactor::{ReactorConfig, ReactorService, Refusal};
use ftqc_service::json::{JsonError, ToJson, Value};
use ftqc_service::resolve::resolve_source_remote;
use ftqc_service::{
    job_from_value, BatchService, CacheStats, CompileCache, CompileJob, JobResult, SharedCache,
    StageOutcome, TargetRef, WorkerPool,
};
use ftqc_telemetry::{
    duration_micros_saturating, ActiveTrace, FlightRecorder, HistogramSnapshot, StageSpanHook,
    TraceId, DEFAULT_TRACE_CAPACITY,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing, persistence, and safety knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads per batch/sweep, and the number of dispatcher
    /// threads that run requests (0 ⇒ the machine's available
    /// parallelism).
    pub workers: usize,
    /// Memory-tier capacity of the shared compile cache.
    pub cache_capacity: usize,
    /// Optional file-backed cache tier, persisted on graceful shutdown.
    pub cache_file: Option<PathBuf>,
    /// Concurrent connections (at least 1) before new ones are turned
    /// away with 503.
    pub max_connections: usize,
    /// Whole-request read deadline: a peer that has not delivered its
    /// complete request by then is answered 408 (slow-loris reaping).
    pub read_timeout: Duration,
    /// How long shutdown waits for in-flight connections to drain.
    pub drain_timeout: Duration,
    /// How many finished request traces the flight recorder retains for
    /// `GET /v1/traces` / `GET /v1/trace/<id>`.
    pub trace_capacity: usize,
    /// Event-loop shards (0 ⇒ min(4, available parallelism)).
    pub shards: usize,
    /// Admission-queue bound (at least 1): requests beyond it are
    /// answered with 429 + `Retry-After` before their bodies are read.
    pub queue_cap: usize,
    /// Longest a request may wait in the reactor's admission queue before
    /// it is answered with a retryable 503 instead of being served stale.
    pub queue_timeout: Duration,
    /// Live edit sessions (at least 1) before opening another evicts the
    /// least recently used.
    pub session_capacity: usize,
    /// Idle time after which an edit session is evicted.
    pub session_ttl: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".into(),
            workers: 0,
            cache_capacity: ftqc_service::DEFAULT_CACHE_CAPACITY,
            cache_file: None,
            max_connections: 4096,
            read_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            shards: 0,
            queue_cap: 256,
            queue_timeout: Duration::from_secs(30),
            session_capacity: DEFAULT_SESSION_CAPACITY,
            session_ttl: DEFAULT_SESSION_TTL,
        }
    }
}

/// A server-level failure (bind, cache file, I/O).
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io(io::Error),
    /// The configured cache file exists but is malformed.
    CacheFile(JsonError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "{e}"),
            ServerError::CacheFile(e) => write!(f, "cache file: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// What a finished server run did, returned by [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests handled.
    pub requests: u64,
    /// Connections accepted.
    pub connections: u64,
    /// The shared cache's final counters.
    pub cache: CacheStats,
    /// The stage cache's final per-stage counters.
    pub stages: StageCacheStats,
    /// Where the cache was persisted, when a file tier was configured.
    pub persisted: Option<PathBuf>,
}

/// Everything the request handlers share, behind one `Arc`.
struct AppState {
    service: BatchService<Metrics>,
    cache: SharedCache<Metrics>,
    /// Process-wide stage-artifact cache: every compile on this server —
    /// single jobs, batch lines, sweep grid points — resumes from whatever
    /// stages any earlier request already computed.
    stages: StageCache,
    /// Named hardware targets: the built-in presets, served by
    /// `GET /v1/targets` and resolved for job/sweep `"target"` fields.
    targets: TargetRegistry,
    /// Live edit sessions, served by `/v1/session*` and drained at
    /// shutdown.
    sessions: SessionStore,
    /// Behind an `Arc` so per-job trace hooks on worker threads can feed
    /// the stage histograms directly.
    metrics: Arc<ServerMetrics>,
    /// The last N finished request traces, served by `GET /v1/traces`.
    recorder: FlightRecorder,
    workers: usize,
    started: Instant,
}

/// A cloneable handle that stops a running [`Server`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the server to stop: within one 10 ms stop poll the event
    /// loops stop accepting, in-flight requests drain, and the cache
    /// persists. Safe to call more than once.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

// A SIGINT handler can only set a flag; the reactor polls it. Installed
// lazily by `install_sigint_handler` so embedded servers (tests, examples)
// never touch process-global signal state.
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sigint {
    use super::SIGINT_FLAG;
    use std::sync::atomic::Ordering;

    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SIGINT_FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // std already links libc on unix; declaring `signal` directly keeps
        // the crate dependency-free.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;

    pub fn install() {
        unsafe {
            #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_any)]
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

/// The compile server. Build with [`Server::bind`], stop with a
/// [`ShutdownHandle`] or SIGINT.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    reactor: ReactorConfig,
    cache_file: Option<PathBuf>,
}

impl Server {
    /// Binds the listener and loads the file cache tier when configured.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the address cannot be bound,
    /// [`ServerError::CacheFile`] when the cache file exists but is
    /// malformed.
    pub fn bind(config: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut cache = CompileCache::new(config.cache_capacity);
        if let Some(path) = &config.cache_file {
            cache = cache.with_file_tier(path).map_err(ServerError::CacheFile)?;
        }
        let cache = SharedCache::new(cache);
        let workers = if config.workers == 0 {
            WorkerPool::auto().workers()
        } else {
            config.workers
        };
        let reactor = ReactorConfig {
            shards: config.shards,
            // Compile work still fans out across the worker pool;
            // dispatchers only shuttle requests into it.
            dispatchers: workers,
            queue_cap: config.queue_cap.max(1),
            max_connections: config.max_connections.max(1),
            read_timeout: config.read_timeout,
            queue_timeout: config.queue_timeout,
            drain_timeout: config.drain_timeout,
            head_limit: http::MAX_HEAD_BYTES,
            body_limit: http::MAX_BODY_BYTES,
        };
        let state = AppState {
            service: BatchService::with_cache(workers, cache.clone()),
            cache,
            stages: StageCache::new(ftqc_compiler::DEFAULT_STAGE_CACHE_CAPACITY),
            targets: TargetRegistry::builtin(),
            sessions: SessionStore::new(config.session_capacity, config.session_ttl),
            metrics: Arc::new(ServerMetrics::new()),
            recorder: FlightRecorder::new(config.trace_capacity),
            workers,
            started: Instant::now(),
        };
        Ok(Server {
            listener,
            state: Arc::new(state),
            shutdown: Arc::new(AtomicBool::new(false)),
            reactor,
            cache_file: config.cache_file,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` keeps callers' error handling
    /// stable.
    pub fn handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
        })
    }

    /// Routes SIGINT (Ctrl-C) to a graceful shutdown of every server in
    /// this process. No-op on non-unix platforms.
    pub fn install_sigint_handler(&self) {
        #[cfg(unix)]
        sigint::install();
    }

    /// The resolved worker-thread count (after 0-means-all-cores).
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// Serves the endpoints from the `ftqc-reactor` event loops until a
    /// [`ShutdownHandle`] fires or SIGINT arrives (after
    /// [`Self::install_sigint_handler`]); then drains in-flight
    /// connections, closes the edit sessions, persists the cache file
    /// tier, and reports. The reactor owns accepting, framing, admission,
    /// and draining.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] from event-loop setup (`Unsupported` on
    /// non-Linux platforms, which have no epoll) or from persisting the
    /// cache; errors on individual connections are absorbed, not fatal.
    pub fn run(self) -> Result<ServerReport, ServerError> {
        let app = Arc::new(ReactorApp {
            state: Arc::clone(&self.state),
        });
        let shutdown = Arc::clone(&self.shutdown);
        ftqc_reactor::run(self.listener, app, &self.reactor, move || {
            shutdown.load(Ordering::SeqCst) || SIGINT_FLAG.load(Ordering::SeqCst)
        })?;
        self.state.sessions.drain();
        let persisted = match &self.cache_file {
            Some(path) => {
                self.state.cache.persist().map_err(ServerError::Io)?;
                Some(path.clone())
            }
            None => None,
        };
        Ok(ServerReport {
            requests: self.state.metrics.total_requests(),
            connections: self.state.metrics.connections(),
            cache: self.state.cache.stats(),
            stages: self.state.stages.stats(),
            persisted,
        })
    }
}

/// How a routed request was answered.
enum Served {
    /// A complete `(status, content type, body)` still to be rendered.
    Full(HandlerResult),
    /// The handler already wrote its head and body through the sink
    /// (streaming endpoints); only the status remains to account.
    Streamed {
        /// The status the streamed head carried.
        status: u16,
    },
}

/// Traces, routes, and answers one parsed request, pushing raw response
/// bytes (head first, then body chunks) through `respond`. Returns the
/// response status.
fn serve_parsed(
    state: &AppState,
    request: &Request,
    started: Instant,
    respond: &mut dyn FnMut(&[u8]),
) -> u16 {
    let endpoint = Endpoint::of_path(&request.path);
    // Honour a caller-chosen id (a client correlating its own logs with
    // this request's trace); mint otherwise.
    let trace_id = request
        .header("x-ftqc-trace")
        .and_then(TraceId::parse)
        .unwrap_or_else(TraceId::mint);
    let trace = ActiveTrace::begin_at(trace_id, "request", started);
    trace.add_span(
        "parse",
        None,
        0,
        trace.now_micros(),
        vec![("bytes".into(), request.body.len().to_string())],
    );
    let trace_hex = trace_id.to_hex();
    let in_flight = state.metrics.begin_request();
    // A handler panic (a compiler bug on some exotic input) must cost one
    // request, not the whole server.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route_request(state, request, &trace, &trace_hex, respond)
    }));
    drop(in_flight);
    let (status, response) = match outcome.unwrap_or_else(|_| {
        Served::Full((
            500,
            "application/json",
            error_body("internal error: handler panicked"),
        ))
    }) {
        Served::Streamed { status } => (status, None),
        Served::Full((status, content_type, body)) => (
            status,
            Some(http::render_response_with(
                status,
                content_type,
                &[("x-ftqc-trace", &trace_hex)],
                body.as_bytes(),
            )),
        ),
    };
    // Record before the last bytes leave: a client that reads its response
    // and then asks `/metrics` or `/v1/trace/<id>` finds this request, and
    // the event loop usually gets the response and the close in one
    // wake-up.
    state.metrics.record(endpoint, status, started.elapsed());
    state
        .recorder
        .record(trace.finish(status, endpoint.label()));
    if let Some(response) = response {
        respond(&response);
    }
    status
}

/// [`handle_request`] plus the streaming special case: `POST /v1/batch`
/// writes its head and each JSONL line through the sink as jobs finish.
fn route_request(
    state: &AppState,
    request: &Request,
    trace: &Arc<ActiveTrace>,
    trace_hex: &str,
    respond: &mut dyn FnMut(&[u8]),
) -> Served {
    if request.method == "POST" && request.path == "/v1/batch" {
        return handle_batch(state, request, trace, trace_hex, respond);
    }
    Served::Full(handle_request(state, request, trace))
}

/// The server's [`ReactorService`]: frames arrive complete from the event
/// loops, get parsed by [`http::read_request`]'s strict parser, and flow
/// through [`serve_parsed`] on a dispatcher thread. Refusals render the
/// server's standard [`error_body`] shape.
struct ReactorApp {
    state: Arc<AppState>,
}

impl ReactorService for ReactorApp {
    fn handle(&self, _peer: SocketAddr, request: Vec<u8>, respond: &mut dyn FnMut(&[u8])) {
        let started = Instant::now();
        let request = match http::read_request(&mut &request[..]) {
            Ok(Some(request)) => request,
            Ok(None) => return, // empty frame: nothing owed
            Err(e) => {
                let status = match e {
                    HttpError::Malformed(_) => 400,
                    HttpError::TooLarge(_) => 413,
                    HttpError::Unsupported(_) => 501,
                    HttpError::Timeout => 408,
                    HttpError::Io(_) => return,
                };
                let body = error_body(&e.to_string());
                respond(&http::render_response(
                    status,
                    "application/json",
                    body.as_bytes(),
                ));
                return;
            }
        };
        serve_parsed(&self.state, &request, started, respond);
    }

    fn refuse(&self, refusal: &Refusal) -> Vec<u8> {
        match refusal {
            Refusal::OverCapacity {
                retry_after_secs, ..
            } => http::render_response_with(
                429,
                "application/json",
                &[("retry-after", &retry_after_secs.to_string())],
                error_body("server over capacity, retry later").as_bytes(),
            ),
            Refusal::ConnectionLimit { .. } => http::render_response(
                503,
                "application/json",
                error_body("server at connection limit, retry later").as_bytes(),
            ),
            // The bodies `http::read_request` produces for the same
            // limits (HttpError::TooLarge's display over http.rs's
            // messages).
            Refusal::HeadTooLarge { limit } => http::render_response(
                413,
                "application/json",
                error_body(&format!("message too large: head exceeds {limit} bytes")).as_bytes(),
            ),
            Refusal::BodyTooLarge { length, limit } => http::render_response(
                413,
                "application/json",
                error_body(&format!(
                    "message too large: body of {length} bytes exceeds {limit}"
                ))
                .as_bytes(),
            ),
            // The body `http::read_request` produces for the same
            // condition (HttpError::Timeout's display).
            Refusal::Timeout => http::render_response(
                408,
                "application/json",
                error_body("timed out reading from peer").as_bytes(),
            ),
            Refusal::Expired { retry_after_secs } => http::render_response_with(
                503,
                "application/json",
                &[("retry-after", &retry_after_secs.to_string())],
                error_body("request expired in the admission queue, retry later").as_bytes(),
            ),
        }
    }

    fn on_connection(&self) {
        self.state.metrics.connection_opened();
    }

    fn on_admitted(&self, wait: Duration, depth: usize) {
        self.state
            .metrics
            .record_admission(duration_micros_saturating(wait));
        self.state.metrics.set_queue_depth(depth as u64);
    }

    fn on_rejected(&self, refusal: &Refusal) {
        match refusal {
            Refusal::OverCapacity { .. } => self.state.metrics.request_throttled(),
            Refusal::ConnectionLimit { .. } => self.state.metrics.connection_rejected(),
            Refusal::Expired { .. } => self.state.metrics.request_expired(),
            Refusal::HeadTooLarge { .. } | Refusal::BodyTooLarge { .. } | Refusal::Timeout => {}
        }
    }

    fn on_queue_depth(&self, depth: usize) {
        self.state.metrics.set_queue_depth(depth as u64);
    }
}

/// Renders the server's standard versioned `{"error": …}` body.
pub(crate) fn error_body(message: &str) -> String {
    versioned(Value::Obj(vec![(
        "error".into(),
        Value::Str(message.into()),
    )]))
    .render()
}

/// What a handler returns: `(status, content type, body)`.
pub(crate) type HandlerResult = (u16, &'static str, String);

/// The 405 every endpoint answers a method it does not serve with.
pub(crate) fn method_not_allowed(method: &str) -> HandlerResult {
    (
        405,
        "application/json",
        error_body(&format!("method {method} not allowed here")),
    )
}

/// The 404 for a path no endpoint serves.
pub(crate) fn no_such_endpoint(path: &str) -> HandlerResult {
    (
        404,
        "application/json",
        error_body(&format!("no such endpoint {path:?}")),
    )
}

/// Routes one parsed request other than `POST /v1/batch` (which
/// [`route_request`] streams) to its endpoint.
fn handle_request(state: &AppState, request: &Request, trace: &Arc<ActiveTrace>) -> HandlerResult {
    let method = request.method.as_str();
    match (method, request.path.as_str()) {
        ("POST", "/v1/compile") => handle_compile(state, request, trace),
        ("POST", "/v1/sweep") => handle_sweep(state, request),
        ("POST", "/v1/session") => {
            sessions::create(&state.sessions, &state.targets, request, trace)
        }
        (_, path) if path.starts_with("/v1/session/") => sessions::handle_session(
            &state.sessions,
            request,
            trace,
            &path["/v1/session/".len()..],
        ),
        ("GET", "/v1/targets") => handle_targets(state),
        ("GET", "/v1/cache/stats") => handle_cache_stats(state),
        ("GET", "/v1/traces") => handle_traces(state, request),
        ("GET", path) if path.strip_prefix("/v1/trace/").is_some() => {
            handle_trace(state, path.strip_prefix("/v1/trace/").expect("guarded"))
        }
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => {
            let mut text = state.metrics.render_prometheus(
                &state.cache.stats(),
                &state.stages.stats(),
                &state.stages.route_stats(),
                state.started.elapsed(),
            );
            text.push_str(&sessions::metrics_text(&state.sessions));
            (200, "text/plain; version=0.0.4", text)
        }
        (
            _,
            "/v1/compile" | "/v1/batch" | "/v1/sweep" | "/v1/session" | "/v1/targets"
            | "/v1/cache/stats" | "/v1/traces" | "/healthz" | "/metrics",
        ) => method_not_allowed(method),
        (_, path) if path.starts_with("/v1/trace/") => method_not_allowed(method),
        (_, path) => no_such_endpoint(path),
    }
}

/// The compile closure every job endpoint shares: a staged session over
/// the process-wide stage cache, honouring each job's `stop_after` /
/// `resume_from` stage fields. Failures carry the failing stage in their
/// message, so batch JSONL error lines say where a job died.
fn compile_staged(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    circuit: &ftqc_circuit::Circuit,
    job: &CompileJob<CompilerOptions>,
) -> Result<StageOutcome<Metrics>, String> {
    // Each finished stage feeds the process-wide per-stage latency
    // histograms and the request trace (a child span per stage, tagged
    // with the job id).
    let session = CompileSession::new(job.options.clone())
        .with_cache(state.stages.clone())
        .with_hook(Arc::<ServerMetrics>::clone(&state.metrics))
        .with_hook(Arc::new(
            StageSpanHook::new(Arc::clone(trace)).with_attr("job", &job.id),
        ));
    stage_outcome(
        &session,
        circuit,
        job.stop_after.as_deref(),
        job.resume_from.as_deref(),
    )
}

/// Counts finished jobs into the `ftqc_jobs_*` metrics — the single
/// accounting recipe for every job-producing endpoint.
fn record_job_outcomes(state: &AppState, results: &[JobResult<Metrics>]) {
    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
    state.metrics.record_jobs(ok, results.len() as u64 - ok);
}

/// Post-run trace enrichment shared by the compile and batch endpoints:
/// a `queue-wait` span per job (the pool's measured submission→claim gap,
/// anchored at `submitted`), the queue-wait histogram samples, and a
/// `route` span per successful job carrying the router's per-compile
/// counters, parented under that job's `map` stage span.
fn trace_job_results(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    submitted: u64,
    results: &[JobResult<Metrics>],
) {
    for r in results {
        state.metrics.record_queue_wait(r.queue_micros);
        trace.add_span(
            "queue-wait",
            None,
            submitted,
            r.queue_micros,
            vec![("job".into(), r.id.clone())],
        );
        if let Some(m) = &r.metrics {
            let parent = trace.find_span_with_attr("map", "job", &r.id);
            trace.add_span(
                "route",
                parent,
                submitted.saturating_add(r.queue_micros),
                0,
                vec![
                    ("job".into(), r.id.clone()),
                    ("arena_reuses".into(), m.route.arena_reuses.to_string()),
                ],
            );
        }
    }
}

/// Runs `jobs` on the server's worker pool, returning results in
/// submission order.
fn execute_jobs(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    jobs: Vec<CompileJob<CompilerOptions>>,
) -> Vec<JobResult<Metrics>> {
    state.service.run(jobs, resolve_source_remote, |c, job| {
        compile_staged(state, trace, c, job)
    })
}

/// [`execute_jobs`] with a per-job streaming sink: the pool calls `sink`
/// as each job's ordered prefix completes.
fn execute_jobs_streamed(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    jobs: Vec<CompileJob<CompilerOptions>>,
    sink: &mut dyn FnMut(usize, &JobResult<Metrics>),
) -> Vec<JobResult<Metrics>> {
    state.service.run_streamed(
        jobs,
        resolve_source_remote,
        |c, job| compile_staged(state, trace, c, job),
        sink,
    )
}

fn run_jobs(
    state: &AppState,
    trace: &Arc<ActiveTrace>,
    jobs: Vec<CompileJob<CompilerOptions>>,
) -> Vec<JobResult<Metrics>> {
    let submitted = trace.now_micros();
    let results = execute_jobs(state, trace, jobs);
    trace_job_results(state, trace, submitted, &results);
    record_job_outcomes(state, &results);
    results
}

/// `POST /v1/compile[?stage=prepare|lower|map|schedule]`: one JSON job
/// object in, one JSON result out. The `stage` query parameter (or the
/// body's `stop_after` field, which it overrides) stops the pipeline at
/// the named stage: the result then carries the stage name and its
/// artifact fingerprint instead of metrics. A `"target"` field (wire v2)
/// — preset name or inline spec — is resolved against the registry and
/// replaces the options' machine half before the job is fingerprinted. A
/// job that fails to *compile* is still HTTP 200 — the failure is in the
/// result's `status`; only an unparseable request (or an unsupported
/// wire version, or an unknown target) is a 400.
fn handle_compile(state: &AppState, request: &Request, trace: &Arc<ActiveTrace>) -> HandlerResult {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
        .and_then(|doc| {
            check_wire_version(&doc)?;
            let wire = negotiate_version(&doc)?;
            let job =
                job_from_value::<CompilerOptions>(&doc, "job-1").map_err(|e| e.to_string())?;
            Ok((wire, job))
        })
        .and_then(|(wire, mut job)| {
            if let Some(stage) = request.query_param("stage") {
                job.stop_after = Some(Stage::parse_or_err(stage)?.name().to_string());
            }
            let job = apply_job_target(job, &state.targets)?;
            Ok((wire, job))
        });
    match parsed {
        Err(e) => (400, "application/json", error_body(&e)),
        Ok((wire, job)) => {
            let results = run_jobs(state, trace, vec![job]);
            let result = results.into_iter().next().expect("one job, one result");
            (
                200,
                "application/json",
                versioned_as(wire, result.to_json()).render(),
            )
        }
    }
}

/// `POST /v1/batch`: a JSONL body fanned through the worker pool, JSONL
/// results in submission order. Malformed lines — including lines naming
/// unknown targets — cost only themselves: each yields an error result
/// naming its line number. The 200 head goes out when the first result
/// line is ready, and every subsequent line is written the moment its job
/// (and all earlier lines) finish — a long batch trickles results instead
/// of buffering them. An empty batch never streams; it is a full 400.
fn handle_batch(
    state: &AppState,
    request: &Request,
    trace: &Arc<ActiveTrace>,
    trace_hex: &str,
    respond: &mut dyn FnMut(&[u8]),
) -> Served {
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Served::Full((400, "application/json", error_body(&e.to_string()))),
    };
    let submitted = trace.now_micros();
    let mut streamed_head = false;
    let results = {
        let streamed_head = &mut streamed_head;
        let mut emit_line = move |result: &JobResult<Metrics>| {
            if !*streamed_head {
                *streamed_head = true;
                respond(&http::render_streaming_head(
                    200,
                    "application/jsonl",
                    &[("x-ftqc-trace", trace_hex)],
                ));
            }
            let mut line = result.to_json().render();
            line.push('\n');
            respond(line.as_bytes());
        };
        ftqc_service::run_jsonl_streamed_via::<CompilerOptions, Metrics, _, _, _>(
            body,
            |job| apply_job_target(job, &state.targets),
            |jobs, sink| execute_jobs_streamed(state, trace, jobs, sink),
            &mut emit_line,
        )
    };
    if results.is_empty() {
        return Served::Full((
            400,
            "application/json",
            error_body("batch contains no jobs"),
        ));
    }
    trace_job_results(state, trace, submitted, &results);
    record_job_outcomes(state, &results);
    Served::Streamed { status: 200 }
}

/// Resolves a sweep request's target references to labelled specs (the
/// preset name, or `inline-<k>` for the `k`-th inline spec).
fn resolve_sweep_targets(
    state: &AppState,
    targets: &[TargetRef],
) -> Result<Vec<(String, ftqc_arch::TargetSpec)>, String> {
    targets
        .iter()
        .enumerate()
        .map(|(index, target)| {
            let spec = resolve_target_ref(target, &state.targets)?;
            let label = match target {
                TargetRef::Named(name) => name.clone(),
                TargetRef::Inline(_) => format!("inline-{}", index + 1),
            };
            Ok((label, spec))
        })
        .collect()
}

/// `POST /v1/sweep`: an options grid in, design points (optionally reduced
/// to the Pareto front) out, memoised in the shared cache. With a
/// `"targets"` list (wire v2) the sweep runs once per target — per-target
/// grids and Pareto fronts in one process, sharing the server's metrics
/// and stage caches — and answers with the [`MultiSweepResponse`] shape
/// (each slice always carries both its grid points and its front; the
/// `pareto` flag only reduces the classic single-machine response). A
/// grid point that fails to compile is a 400, like every other input
/// error here; only a handler panic is a 500.
fn handle_sweep(state: &AppState, request: &Request) -> HandlerResult {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse(text).map_err(|e| e.to_string()))
        .and_then(|doc| {
            use ftqc_service::json::FromJson as _;
            check_wire_version(&doc)?;
            let wire = negotiate_version(&doc)?;
            let req = SweepRequest::from_json(&doc).map_err(|e| e.to_string())?;
            Ok((wire, req))
        });
    let (wire, req) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return (400, "application/json", error_body(&e)),
    };
    let circuit = match resolve_source_remote(&req.source) {
        Ok(c) => c,
        Err(e) => return (400, "application/json", error_body(&e)),
    };
    let targets = match resolve_sweep_targets(state, &req.targets) {
        Ok(t) => t,
        Err(e) => return (400, "application/json", error_body(&e)),
    };

    let workers = state.workers as u64;
    let swept = if targets.is_empty() {
        explore_session(
            &circuit,
            &req.routing_paths,
            &req.factories,
            &req.options,
            state.workers,
            &state.cache,
            &state.stages,
        )
        .map(|points| {
            let points = if req.pareto {
                pareto_front(&points)
            } else {
                points
            };
            SweepResponse {
                points,
                cache: state.cache.stats(),
                workers,
            }
            .to_json()
        })
    } else {
        explore_targets(
            &circuit,
            &targets,
            &req.routing_paths,
            &req.factories,
            &req.options,
            state.workers,
            &state.cache,
            &state.stages,
        )
        .map(|targets| {
            MultiSweepResponse {
                targets,
                cache: state.cache.stats(),
                workers,
            }
            .to_json()
        })
    };
    match swept {
        Ok(doc) => (200, "application/json", versioned_as(wire, doc).render()),
        Err(e) => (400, "application/json", error_body(&e.to_string())),
    }
}

/// `GET /v1/targets`: the registered hardware targets — names,
/// descriptions, canonical spec documents, and digests.
fn handle_targets(state: &AppState) -> HandlerResult {
    let response = TargetsResponse {
        targets: state
            .targets
            .entries()
            .iter()
            .map(TargetInfo::of_entry)
            .collect(),
    };
    (
        200,
        "application/json",
        versioned_as(WIRE_VERSION, response.to_json()).render(),
    )
}

/// `GET /v1/traces?min_micros=N&limit=N`: newest-first flight-recorder
/// summaries, optionally filtered to traces at least `min_micros` long.
fn handle_traces(state: &AppState, request: &Request) -> HandlerResult {
    let min_micros = match request.query_param("min_micros") {
        None => 0,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                return (
                    400,
                    "application/json",
                    error_body("min_micros must be a non-negative integer"),
                )
            }
        },
    };
    let limit = match request.query_param("limit") {
        None => 50,
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                return (
                    400,
                    "application/json",
                    error_body("limit must be a positive integer"),
                )
            }
        },
    };
    let summaries = state.recorder.recent(min_micros, limit);
    let doc = Value::Obj(vec![
        (
            "traces".into(),
            Value::Arr(summaries.iter().map(ToJson::to_json).collect()),
        ),
        ("retained".into(), Value::Num(state.recorder.len() as f64)),
    ]);
    (200, "application/json", versioned(doc).render())
}

/// `GET /v1/trace/<id>`: one retained trace's full span tree. Bad hex is
/// a 400; an id the recorder no longer (or never) held is a 404.
fn handle_trace(state: &AppState, raw_id: &str) -> HandlerResult {
    let Some(id) = TraceId::parse(raw_id) else {
        return (
            400,
            "application/json",
            error_body(&format!(
                "malformed trace id {raw_id:?} (want 1-16 hex digits)"
            )),
        );
    };
    match state.recorder.get(id) {
        None => (
            404,
            "application/json",
            error_body(&format!("no retained trace {}", id.to_hex())),
        ),
        Some(trace) => (200, "application/json", versioned(trace.to_json()).render()),
    }
}

/// A latency distribution as a JSON object: count plus p50/p95/p99
/// (microseconds).
fn percentiles_json(snap: &HistogramSnapshot) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::Num(snap.count as f64)),
        ("p50_micros".into(), Value::Num(snap.p50() as f64)),
        ("p95_micros".into(), Value::Num(snap.p95() as f64)),
        ("p99_micros".into(), Value::Num(snap.p99() as f64)),
    ])
}

/// `GET /v1/cache/stats`: the shared cache's counters, the memory tier's
/// current entry count, the stage cache's per-stage counters, the
/// incremental router's cumulative arena-reuse counter, and the
/// request/stage/queue-wait latency percentiles.
fn handle_cache_stats(state: &AppState) -> HandlerResult {
    let mut doc = match state.cache.stats().to_json() {
        Value::Obj(fields) => fields,
        _ => unreachable!("CacheStats renders as an object"),
    };
    doc.push(("entries".into(), Value::Num(state.cache.len() as f64)));
    doc.push(("stages".into(), state.stages.stats().to_json()));
    doc.push((
        "router".into(),
        ftqc_compiler::route_counters_to_json(&state.stages.route_stats()),
    ));
    // Additive wire fields (no version bump): per-endpoint request-latency
    // percentiles for endpoints that have seen traffic, per-stage compile
    // times, and worker-pool queue waits.
    let latency: Vec<(String, Value)> = Endpoint::ALL
        .iter()
        .filter_map(|e| {
            let snap = state.metrics.latency_snapshot(*e);
            (snap.count > 0).then(|| (e.label().to_string(), percentiles_json(&snap)))
        })
        .collect();
    doc.push(("latency".into(), Value::Obj(latency)));
    let stage_latency: Vec<(String, Value)> = Stage::ALL
        .iter()
        .filter_map(|s| {
            let snap = state.metrics.stage_snapshot(*s);
            (snap.count > 0).then(|| (s.name().to_string(), percentiles_json(&snap)))
        })
        .collect();
    doc.push(("stage_latency".into(), Value::Obj(stage_latency)));
    doc.push((
        "queue_wait".into(),
        percentiles_json(&state.metrics.queue_wait_snapshot()),
    ));
    // Admission-control counters (an additive field): admitted/throttled
    // requests and the queue-wait percentiles between framing and
    // dispatch.
    doc.push((
        "admission".into(),
        Value::Obj(vec![
            (
                "admitted".into(),
                Value::Num(state.metrics.admitted() as f64),
            ),
            (
                "throttled".into(),
                Value::Num(state.metrics.throttled() as f64),
            ),
            (
                "wait".into(),
                percentiles_json(&state.metrics.admission_wait_snapshot()),
            ),
        ]),
    ));
    doc.push(("sessions".into(), sessions::stats_json(&state.sessions)));
    (200, "application/json", versioned(Value::Obj(doc)).render())
}

/// `GET /healthz`: liveness plus a little context.
fn handle_healthz(state: &AppState) -> HandlerResult {
    let doc = Value::Obj(vec![
        ("status".into(), Value::Str("ok".into())),
        (
            "uptime_seconds".into(),
            Value::Num(state.started.elapsed().as_secs() as f64),
        ),
        (
            "in_flight".into(),
            Value::Num(state.metrics.in_flight() as f64),
        ),
        ("workers".into(), Value::Num(state.workers as f64)),
    ]);
    (200, "application/json", versioned(doc).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(workers: usize) -> AppState {
        let cache = SharedCache::in_memory(64);
        AppState {
            service: BatchService::with_cache(workers, cache.clone()),
            cache,
            stages: StageCache::new(64),
            targets: TargetRegistry::builtin(),
            sessions: SessionStore::new(4, Duration::from_secs(60)),
            metrics: Arc::new(ServerMetrics::new()),
            recorder: FlightRecorder::new(16),
            workers,
            started: Instant::now(),
        }
    }

    /// Most tests don't care about tracing: mint a throwaway trace, call
    /// the real router with a byte-collecting sink, and record the result
    /// like `serve_parsed` does. A streamed response (`POST /v1/batch`)
    /// comes back as its status, head content type, and collected body.
    /// (Shadows the outer `handle_request` for the module.)
    fn handle_request(state: &AppState, request: &Request) -> (u16, String, String) {
        let trace = ActiveTrace::begin(TraceId::mint(), "request");
        trace.add_span(
            "parse",
            None,
            0,
            trace.now_micros(),
            vec![("bytes".into(), request.body.len().to_string())],
        );
        let mut streamed = Vec::new();
        let trace_hex = trace.id().to_hex();
        let served = route_request(state, request, &trace, &trace_hex, &mut |bytes: &[u8]| {
            streamed.extend_from_slice(bytes)
        });
        let result = match served {
            Served::Full((status, content_type, body)) => (status, content_type.to_string(), body),
            Served::Streamed { status } => {
                let text = String::from_utf8(streamed).expect("utf-8 response");
                let (head, body) = text.split_once("\r\n\r\n").expect("a streamed head");
                let content_type = head
                    .lines()
                    .find_map(|line| line.strip_prefix("content-type: "))
                    .expect("a content type");
                (status, content_type.to_string(), body.to_string())
            }
        };
        state
            .recorder
            .record(trace.finish(result.0, Endpoint::of_path(&request.path).label()));
        result
    }

    fn post_q(path: &str, query: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        post_q(path, "", body)
    }

    fn get_q(path: &str, query: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn get(path: &str) -> Request {
        get_q(path, "")
    }

    #[test]
    fn compile_endpoint_roundtrips_a_job() {
        let state = test_state(2);
        let (status, _ct, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"a","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("id").and_then(Value::as_str), Some("a"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(doc.get("cache").and_then(Value::as_str), Some("computed"));

        // Same job again: served from the shared cache. Responses carry
        // the wire version.
        let (_s, _ct, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"a","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#,
            ),
        );
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("cache").and_then(Value::as_str), Some("memory"));
        assert_eq!(doc.get("v").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn compile_endpoint_staged_requests() {
        let state = test_state(2);
        let job = r#"{"id":"warm","source":{"benchmark":"ising","size":2}}"#;
        // ?stage=map stops the pipeline: no metrics, stage named, stage
        // cache warmed.
        let (status, _, body) = handle_request(&state, &post_q("/v1/compile", "stage=map", job));
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("stage").and_then(Value::as_str), Some("map"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert!(doc.get("metrics").is_none(), "partial runs carry none");
        let stats = state.stages.stats();
        assert_eq!(stats.map.misses, 1);

        // A full compile of the same job resumes from the warmed stages.
        let (status, _, body) = handle_request(&state, &post("/v1/compile", job));
        assert_eq!(status, 200);
        let doc = Value::parse(&body).unwrap();
        assert!(doc.get("metrics").is_some(), "got {body}");
        let stats = state.stages.stats();
        assert_eq!(stats.map.hits, 1, "routing reused: {stats:?}");
        assert_eq!(stats.map.misses, 1);

        // resume_from in the body asserts the warm path; a bad stage 400s.
        let resumed = r#"{"source":{"benchmark":"ising","size":2},"resume_from":"map"}"#;
        let (status, _, body) = handle_request(&state, &post("/v1/compile", resumed));
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "got {body}");
        let (status, _, body) = handle_request(&state, &post_q("/v1/compile", "stage=banana", job));
        assert_eq!(status, 400);
        assert!(body.contains("unknown stage"), "got {body}");
    }

    #[test]
    fn wire_version_is_enforced_and_tolerant() {
        let state = test_state(1);
        // v:1 and unknown extra fields are accepted.
        let (status, _, _) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"v":1,"source":{"benchmark":"ising","size":2},"future_field":[1,2]}"#,
            ),
        );
        assert_eq!(status, 200);
        // v:2 is this server's native version.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"v":2,"source":{"benchmark":"ising","size":2}}"#,
            ),
        );
        assert_eq!(status, 200);
        assert!(
            body.contains("\"v\":2"),
            "echoes the declared version: {body}"
        );
        // The classic (target-less) sweep echoes a declared v:2 too.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"v":2,"source":{"benchmark":"ising","size":2},"routing_paths":[2],"factories":[1]}"#,
            ),
        );
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"v\":2"), "got {body}");
        // A version from the future is refused, not misread.
        let (status, _, body) = handle_request(
            &state,
            &post("/v1/compile", r#"{"v":99,"source":{"benchmark":"ising"}}"#),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unsupported wire version"), "got {body}");
        let (status, _, _) = handle_request(
            &state,
            &post("/v1/sweep", r#"{"v":99,"source":{"benchmark":"ising"}}"#),
        );
        assert_eq!(status, 400);
        // Error bodies are versioned too.
        let (_, _, body) = handle_request(&state, &post("/v1/compile", "{oops"));
        assert!(body.contains("\"v\":1"), "got {body}");
    }

    #[test]
    fn v1_requests_stay_byte_identical() {
        // The acceptance pin: a target-less request must produce the same
        // bytes the pre-target server produced (v:1 stamp included).
        let state = test_state(1);
        let job =
            r#"{"id":"a","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#;
        let (status, _, body) = handle_request(&state, &post("/v1/compile", job));
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"v\":1,\"id\":\"a\""), "got {body}");
        // The same job compiled through the paper target returns the same
        // result document (modulo the wire stamp and timing): same
        // fingerprint, same metrics.
        let targeted = r#"{"id":"a","source":{"benchmark":"ising","size":2},"target":"paper","options":{"routing_paths":4}}"#;
        let (status, _, tbody) = handle_request(&state, &post("/v1/compile", targeted));
        assert_eq!(status, 200);
        assert!(tbody.starts_with("{\"v\":2"), "got {tbody}");
        let fp = |b: &str| {
            Value::parse(b)
                .unwrap()
                .get("fingerprint")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(fp(&body), fp(&tbody), "same machine, same fingerprint");
    }

    #[test]
    fn targets_endpoint_lists_presets() {
        let state = test_state(1);
        let (status, _, body) = handle_request(&state, &get("/v1/targets"));
        assert_eq!(status, 200, "got {body}");
        assert!(body.starts_with("{\"v\":2"), "got {body}");
        use ftqc_service::json::FromJson as _;
        let resp = TargetsResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        let names: Vec<&str> = resp.targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["paper", "sparse", "fast-d"]);
        let (status, _, _) = handle_request(&state, &post("/v1/targets", ""));
        assert_eq!(status, 405);
    }

    #[test]
    fn compile_with_targets() {
        let state = test_state(2);
        // A named preset resolves; its result matches compiling the spec's
        // options directly.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"s","source":{"benchmark":"ising","size":2},"target":"sparse"}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(m.get("routing_paths").and_then(Value::as_u64), Some(2));

        // An inline spec object works too.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"i","source":{"benchmark":"ising","size":2},"target":{"routing_paths":3,"factories":2}}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(m.get("factories").and_then(Value::as_u64), Some(2));

        // Unknown targets are client errors; declared-v1 + target too.
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"source":{"benchmark":"ising"},"target":"warp"}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unknown target"), "got {body}");
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"v":1,"source":{"benchmark":"ising"},"target":"paper"}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("wire version 2"), "got {body}");

        // In a batch, a bad target fails its line alone.
        let jsonl = concat!(
            "{\"id\":\"good\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"target\":\"paper\"}\n",
            "{\"id\":\"bad\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"target\":\"warp\"}\n",
        );
        let (status, _, body) = handle_request(&state, &post("/v1/batch", jsonl));
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].contains("\"status\":\"ok\""), "got {body}");
        assert!(lines[1].contains("unknown target"), "got {body}");
    }

    #[test]
    fn sweep_with_targets_matches_local_explore_targets() {
        let state = test_state(2);
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2,3],"factories":[1],"targets":["sparse","paper"]}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        use ftqc_service::json::FromJson as _;
        let resp = MultiSweepResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        assert_eq!(resp.targets.len(), 2);
        assert_eq!(resp.targets[0].name, "sparse");
        assert_eq!(resp.targets[1].name, "paper");
        // Sparse pins its bus: factories axis only; paper sweeps the grid.
        assert_eq!(resp.targets[0].points.len(), 1);
        assert_eq!(resp.targets[1].points.len(), 2);
        assert!(!resp.targets[0].front.is_empty());

        // Byte-identical to the local cross-target sweep.
        let circuit = resolve_source_remote(&ftqc_service::CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .unwrap();
        let local = explore_targets(
            &circuit,
            &[
                ("sparse".to_string(), ftqc_arch::TargetSpec::sparse()),
                ("paper".to_string(), ftqc_arch::TargetSpec::paper()),
            ],
            &[2, 3],
            &[1],
            &CompilerOptions::default(),
            2,
            &SharedCache::in_memory(64),
            &StageCache::new(64),
        )
        .unwrap();
        assert_eq!(resp.targets, local);

        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"source":{"benchmark":"ising","size":2},"targets":["warp"]}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unknown target"), "got {body}");
    }

    #[test]
    fn compile_endpoint_rejects_garbage() {
        let state = test_state(1);
        let (status, _, _) = handle_request(&state, &post("/v1/compile", "{oops"));
        assert_eq!(status, 400);
        let (status, _, _) = handle_request(&state, &post("/v1/compile", r#"{"source":{}}"#));
        assert_eq!(status, 400);
        // An unresolvable benchmark is a job-level failure, not an HTTP one.
        let (status, _, body) = handle_request(
            &state,
            &post("/v1/compile", r#"{"source":{"benchmark":"nope"}}"#),
        );
        assert_eq!(status, 200);
        assert!(body.contains("failed"), "got {body}");
    }

    #[test]
    fn batch_endpoint_is_line_resilient() {
        let state = test_state(2);
        let jsonl = concat!(
            "{\"id\":\"good\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
            "{oops}\n",
            "{\"id\":\"also-good\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":3}}\n",
        );
        let (status, ct, body) = handle_request(&state, &post("/v1/batch", jsonl));
        assert_eq!(status, 200);
        assert_eq!(ct, "application/jsonl");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "got {body}");
        assert!(lines[0].contains("\"id\":\"good\""));
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].contains("\"id\":\"line-2\""));
        assert!(lines[1].contains("line 2"));
        assert!(lines[2].contains("\"id\":\"also-good\""));

        let (status, _, _) = handle_request(&state, &post("/v1/batch", "# nothing\n"));
        assert_eq!(status, 400, "an empty batch is a client error");
    }

    /// Regression: the streamed batch path once handed the whole batch to
    /// a non-streaming job hook, so no line reached the sink until every
    /// job had finished.
    #[test]
    fn streamed_batches_reach_the_sink() {
        let state = test_state(1);
        let jobs = (0..3)
            .map(|i| {
                CompileJob::new(
                    format!("j{i}"),
                    ftqc_service::CircuitSource::Benchmark {
                        name: "ising".into(),
                        size: Some(2),
                    },
                    CompilerOptions::default().routing_paths(2 + i),
                )
            })
            .collect();
        let trace = ActiveTrace::begin(TraceId::mint(), "request");
        let mut seen = Vec::new();
        let results = execute_jobs_streamed(&state, &trace, jobs, &mut |index, _| seen.push(index));
        assert_eq!(results.len(), 3);
        assert_eq!(
            seen,
            [0, 1, 2],
            "the sink saw every job before the call returned"
        );
    }

    #[test]
    fn sweep_endpoint_matches_local_explore() {
        let state = test_state(2);
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/sweep",
                r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2,3],"factories":[1]}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        use ftqc_service::json::FromJson as _;
        let resp = SweepResponse::from_json(&Value::parse(&body).unwrap()).unwrap();
        assert_eq!(resp.points.len(), 2);
        let circuit = resolve_source_remote(&ftqc_service::CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .unwrap();
        let local =
            ftqc_compiler::explore(&circuit, &[2, 3], &[1], &CompilerOptions::default()).unwrap();
        assert_eq!(resp.points, local, "served sweep must equal local explore");

        let (status, _, _) = handle_request(
            &state,
            &post("/v1/sweep", r#"{"source":{"benchmark":"nope"}}"#),
        );
        assert_eq!(status, 400, "unresolvable source is a client error");
    }

    /// A grid point that cannot compile is an input error, as the same
    /// options are on `/v1/compile` (a job failure there, not a 500).
    #[test]
    fn sweep_point_that_fails_to_compile_is_a_client_error() {
        let state = test_state(2);
        for body in [
            r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2,4],"factories":[0,1]}"#,
            r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2],"factories":[0],"targets":["paper"]}"#,
        ] {
            let (status, _, body) = handle_request(&state, &post("/v1/sweep", body));
            assert_eq!(status, 400, "got {body}");
            assert!(body.contains("target provides no factories"), "got {body}");
        }
    }

    #[test]
    fn observability_endpoints() {
        let state = test_state(1);
        let (status, _, body) = handle_request(&state, &get("/healthz"));
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));

        let (status, _, body) = handle_request(&state, &get("/v1/cache/stats"));
        assert_eq!(status, 200);
        assert!(body.contains("\"hits\":0"));
        assert!(body.contains("\"entries\":0"));
        assert!(body.contains("\"stages\""), "got {body}");
        assert!(body.contains("\"prepare\""), "got {body}");
        assert!(body.contains("\"router\""), "got {body}");
        assert!(body.contains("\"arena_reuses\":0"), "got {body}");

        state
            .metrics
            .record(Endpoint::Healthz, 200, Duration::from_micros(5));
        let (status, ct, body) = handle_request(&state, &get("/metrics"));
        assert_eq!(status, 200);
        assert!(ct.starts_with("text/plain"));
        assert!(body.contains("ftqc_http_requests_total{endpoint=\"healthz\"} 1"));
    }

    #[test]
    fn unknown_paths_and_methods() {
        let state = test_state(1);
        let (status, _, _) = handle_request(&state, &get("/nope"));
        assert_eq!(status, 404);
        let (status, _, _) = handle_request(&state, &get("/v1/compile"));
        assert_eq!(status, 405);
        let (status, _, _) = handle_request(&state, &post("/metrics", ""));
        assert_eq!(status, 405);
        let (status, _, _) = handle_request(&state, &post("/v1/traces", ""));
        assert_eq!(status, 405);
        let (status, _, _) = handle_request(&state, &post("/v1/trace/ff", ""));
        assert_eq!(status, 405);
    }

    #[test]
    fn trace_endpoints_serve_the_flight_recorder() {
        let state = test_state(1);
        let (status, _, _) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"t","source":{"benchmark":"ising","size":2}}"#,
            ),
        );
        assert_eq!(status, 200);

        let (status, _, body) = handle_request(&state, &get("/v1/traces"));
        assert_eq!(status, 200, "got {body}");
        let doc = Value::parse(&body).unwrap();
        let traces = match doc.get("traces") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("traces must be an array, got {other:?}"),
        };
        assert_eq!(traces.len(), 1, "only the compile ran before this call");
        assert_eq!(
            traces[0].get("endpoint").and_then(Value::as_str),
            Some("compile")
        );
        let id = traces[0]
            .get("id")
            .and_then(Value::as_str)
            .expect("summary id")
            .to_string();

        // The full span tree covers parse → queue-wait → stages → route.
        let (status, _, body) = handle_request(&state, &get(&format!("/v1/trace/{id}")));
        assert_eq!(status, 200, "got {body}");
        use ftqc_service::json::FromJson as _;
        let trace =
            ftqc_telemetry::FinishedTrace::from_json(&Value::parse(&body).unwrap()).unwrap();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "request",
            "parse",
            "queue-wait",
            "prepare",
            "lower",
            "map",
            "schedule",
            "route",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let map = trace.spans.iter().find(|s| s.name == "map").unwrap();
        let route = trace.spans.iter().find(|s| s.name == "route").unwrap();
        assert_eq!(route.parent, Some(map.id), "route hangs off its map span");
        assert_eq!(route.attr("job"), Some("t"));
        assert_eq!(map.attr("cached"), Some("false"));

        // min_micros filters; absurd thresholds leave nothing.
        let (status, _, body) =
            handle_request(&state, &get_q("/v1/traces", "min_micros=999999999999"));
        assert_eq!(status, 200);
        assert!(body.contains("\"traces\":[]"), "got {body}");
        let (status, _, _) = handle_request(&state, &get_q("/v1/traces", "min_micros=-3"));
        assert_eq!(status, 400);
        let (status, _, _) = handle_request(&state, &get_q("/v1/traces", "limit=0"));
        assert_eq!(status, 400);

        // Bad hex is a 400; a well-formed unknown id is a 404.
        let (status, _, _) = handle_request(&state, &get("/v1/trace/nothex"));
        assert_eq!(status, 400);
        let (status, _, _) = handle_request(&state, &get("/v1/trace/1234"));
        assert_eq!(status, 404);
    }

    #[test]
    fn cache_stats_carries_latency_percentiles() {
        let state = test_state(1);
        state
            .metrics
            .record(Endpoint::Compile, 200, Duration::from_micros(100));
        let (status, _, body) = handle_request(
            &state,
            &post(
                "/v1/compile",
                r#"{"id":"p","source":{"benchmark":"ising","size":2}}"#,
            ),
        );
        assert_eq!(status, 200, "got {body}");
        let (status, _, body) = handle_request(&state, &get("/v1/cache/stats"));
        assert_eq!(status, 200);
        let doc = Value::parse(&body).unwrap();
        let latency = doc.get("latency").expect("latency object");
        let compile = latency.get("compile").expect("compile had traffic");
        assert_eq!(compile.get("count").and_then(Value::as_u64), Some(1));
        // One 100µs sample: the estimate clamps to the observed max.
        assert_eq!(compile.get("p50_micros").and_then(Value::as_u64), Some(100));
        assert!(
            latency.get("other").is_none(),
            "idle endpoints are omitted: {body}"
        );
        let stages = doc.get("stage_latency").expect("stage_latency object");
        for stage in ["prepare", "lower", "map", "schedule"] {
            let s = stages.get(stage).expect("every stage ran once");
            assert_eq!(s.get("count").and_then(Value::as_u64), Some(1), "{stage}");
        }
        let queue = doc.get("queue_wait").expect("queue_wait object");
        assert_eq!(queue.get("count").and_then(Value::as_u64), Some(1));
    }
}
