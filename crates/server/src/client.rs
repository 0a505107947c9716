//! A small blocking client for the compile server: one connection per
//! request (the server speaks `Connection: close`), typed wrappers over
//! every endpoint. Used by `ftqc client …`, the loopback tests, and the
//! `remote_compile` example.

use crate::api::{MultiSweepResponse, SweepRequest, SweepResponse, TargetsResponse};
use crate::http::{self, HttpError};
use ftqc_compiler::{CompilerOptions, Metrics};
use ftqc_service::json::{FromJson, JsonError, ToJson, Value};
use ftqc_service::{CacheStats, CompileJob, JobResult};
use ftqc_telemetry::{FinishedTrace, TraceId, TraceSummary};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect / read / write.
    Io(io::Error),
    /// The HTTP exchange itself broke (truncated message, bad framing).
    Http(HttpError),
    /// The server answered with a non-2xx status; the body usually carries
    /// `{"error": …}`.
    Status {
        /// The HTTP status code.
        status: u16,
        /// The response body, as text.
        body: String,
        /// The `Retry-After` header in seconds, when the server sent one
        /// (the reactor transport's 429/503 backpressure responses do).
        retry_after: Option<u64>,
    },
    /// The response body did not decode to the expected shape.
    Decode(JsonError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Http(e) => write!(f, "bad HTTP exchange: {e}"),
            ClientError::Status { status, body, .. } => {
                write!(f, "server answered {status}: {body}")
            }
            ClientError::Decode(e) => write!(f, "cannot decode response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Http(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Decode(e)
    }
}

/// A bounded exponential-backoff retry policy for transient transport
/// failures (connect refused, read timeout, connection reset). Non-transport
/// failures — HTTP error statuses, malformed responses, decode errors —
/// never retry: the server answered, retrying would not change its mind.
///
/// Retrying a POST re-sends the request; that is safe here because every
/// compile endpoint is deterministic and cache-backed, so a duplicate
/// delivery costs at most one cache hit.
///
/// The delay for attempt `n` (0-based) is `base_delay · 2ⁿ`, clamped to
/// `max_delay`, with deterministic jitter keeping at least half the delay:
/// the realised sleep lands in `[d/2, d]`, spread by a hash of the
/// (seed, attempt) pair so many clients hammering one recovering
/// server desynchronise instead of thundering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 ⇒ no retries).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 50 ms base, 2 s cap — right for interactive CLI use.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: fail on the first transport error. The default
    /// for a bare [`Client`], preserving its historical behaviour.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// Is this failure worth retrying? Transport-level ones, plus the two
    /// statuses that *mean* "try again": 429 (over capacity) and 503 (at
    /// the connection limit / draining). Other statuses never retry: the
    /// server answered, retrying would not change its mind.
    pub fn retryable(error: &ClientError) -> bool {
        matches!(
            error,
            ClientError::Io(_)
                | ClientError::Http(HttpError::Timeout | HttpError::Io(_))
                | ClientError::Status {
                    status: 429 | 503,
                    ..
                }
        )
    }

    /// The backoff before retry number `attempt` (0-based), jittered
    /// deterministically by `seed`.
    pub fn delay_for(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.base_delay.as_millis() as u64;
        let cap = self.max_delay.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(32)).min(cap);
        if exp == 0 {
            return Duration::ZERO;
        }
        // FNV-1a over (seed, attempt): deterministic, but spread across
        // seeds so concurrent clients don't retry in lockstep.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in seed.to_le_bytes().iter().chain(&attempt.to_le_bytes()) {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let span = exp / 2;
        Duration::from_millis(exp - span + if span > 0 { h % (span + 1) } else { 0 })
    }
}

/// A handle on one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
    retry: RetryPolicy,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7070`) with a 60 s timeout
    /// (sweeps over large circuits are slow) and no retries.
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(60),
            retry: RetryPolicy::none(),
        }
    }

    /// Overrides the per-request socket timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Retries transient transport failures under `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/response exchange, retried per the client's
    /// [`RetryPolicy`] on transport failures.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<http::Response, ClientError> {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.addr.bytes().chain(path.bytes()) {
            seed ^= u64::from(byte);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut attempt = 0u32;
        loop {
            match self.exchange_once(method, path, content_type, body) {
                Ok(response) => return Ok(response),
                Err(e)
                    if attempt + 1 < self.retry.attempts.max(1) && RetryPolicy::retryable(&e) =>
                {
                    // A server-stated Retry-After beats the exponential
                    // schedule — it knows its queue — but never past the
                    // policy's ceiling.
                    let delay = match &e {
                        ClientError::Status {
                            retry_after: Some(secs),
                            ..
                        } => Duration::from_secs(*secs).min(self.retry.max_delay),
                        _ => self.retry.delay_for(attempt, seed),
                    };
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One request/response exchange on a fresh connection.
    fn exchange_once(
        &self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<http::Response, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let _ = stream.set_nodelay(true);
        http::write_all(
            &mut stream,
            &http::render_request(method, path, content_type, body),
        )?;
        let response = http::read_response(&mut stream)?;
        if response.status / 100 != 2 {
            return Err(ClientError::Status {
                status: response.status,
                body: String::from_utf8_lossy(&response.body).into_owned(),
                retry_after: response
                    .header("retry-after")
                    .and_then(|v| v.trim().parse().ok()),
            });
        }
        Ok(response)
    }

    /// `POST` a JSON document to an arbitrary path and parse the JSON
    /// response, for callers that want the raw document rather than a
    /// typed wrapper's.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn post_value(&self, path: &str, body: &Value) -> Result<Value, ClientError> {
        self.exchange_json("POST", path, Some(body))
    }

    /// `GET` an arbitrary path and parse the JSON response.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn get_value(&self, path: &str) -> Result<Value, ClientError> {
        self.exchange_json("GET", path, None)
    }

    fn exchange_json(
        &self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<Value, ClientError> {
        let rendered = body.map(Value::render).unwrap_or_default();
        let response = self.exchange(method, path, "application/json", rendered.as_bytes())?;
        let text = response.body_str()?;
        Ok(Value::parse(text)?)
    }

    /// `POST /v1/compile`: one job in, one result out.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a job-level compile failure is *not* an error —
    /// inspect the returned result's `status`.
    pub fn compile(
        &self,
        job: &CompileJob<CompilerOptions>,
    ) -> Result<JobResult<Metrics>, ClientError> {
        let doc = self.exchange_json("POST", "/v1/compile", Some(&job.to_json()))?;
        Ok(JobResult::from_json(&doc)?)
    }

    /// `POST /v1/compile`, also returning the server-assigned trace id
    /// from the `x-ftqc-trace` response header — feed it to
    /// [`Client::trace`] to fetch the request's span tree afterwards.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a missing or malformed trace header decodes to
    /// `None` (a pre-tracing server).
    pub fn compile_traced(
        &self,
        job: &CompileJob<CompilerOptions>,
    ) -> Result<(JobResult<Metrics>, Option<TraceId>), ClientError> {
        let rendered = job.to_json().render();
        let response = self.exchange(
            "POST",
            "/v1/compile",
            "application/json",
            rendered.as_bytes(),
        )?;
        let trace_id = response.header("x-ftqc-trace").and_then(TraceId::parse);
        let doc = Value::parse(response.body_str()?)?;
        Ok((JobResult::from_json(&doc)?, trace_id))
    }

    /// `POST /v1/compile?stage=…`: run the pipeline only up to `stage`
    /// (`"prepare"`, `"lower"`, `"map"`, `"schedule"`). Partial results
    /// carry the stage name and its artifact fingerprint instead of
    /// metrics; use this to warm or probe the server's stage cache.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; unknown stage names come back as
    /// [`ClientError::Status`] 400.
    pub fn compile_staged(
        &self,
        job: &CompileJob<CompilerOptions>,
        stage: &str,
    ) -> Result<JobResult<Metrics>, ClientError> {
        // Validate before splicing into the request target: an arbitrary
        // string (spaces, CRLF) would corrupt the request line and come
        // back as a confusing generic 400.
        let stage = ftqc_compiler::Stage::parse_or_err(stage)
            .map_err(|e| ClientError::Http(HttpError::Malformed(e)))?;
        let path = format!("/v1/compile?stage={}", stage.name());
        let doc = self.exchange_json("POST", &path, Some(&job.to_json()))?;
        Ok(JobResult::from_json(&doc)?)
    }

    /// `POST /v1/batch`: raw JSONL in, results out in submission order.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; per-line failures come back as failed results.
    pub fn batch(&self, jsonl: &str) -> Result<Vec<JobResult<Metrics>>, ClientError> {
        let response = self.exchange("POST", "/v1/batch", "application/jsonl", jsonl.as_bytes())?;
        let text = response.body_str()?;
        text.lines()
            .map(|line| {
                Value::parse(line)
                    .and_then(|doc| JobResult::from_json(&doc))
                    .map_err(ClientError::from)
            })
            .collect()
    }

    /// `POST /v1/sweep`: a design-space sweep.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a request carrying `targets` answers with the
    /// multi-target shape — use [`Client::sweep_targets`] for those.
    pub fn sweep(&self, request: &SweepRequest) -> Result<SweepResponse, ClientError> {
        let doc = self.exchange_json("POST", "/v1/sweep", Some(&request.to_json()))?;
        Ok(SweepResponse::from_json(&doc)?)
    }

    /// `POST /v1/sweep` with a `targets` list (wire v2): one grid and one
    /// Pareto front per target, sharing the server's caches.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; unknown targets come back as
    /// [`ClientError::Status`] 400.
    pub fn sweep_targets(&self, request: &SweepRequest) -> Result<MultiSweepResponse, ClientError> {
        let doc = self.exchange_json("POST", "/v1/sweep", Some(&request.to_json()))?;
        Ok(MultiSweepResponse::from_json(&doc)?)
    }

    /// `GET /v1/targets`: the server's registered hardware targets.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn targets(&self) -> Result<TargetsResponse, ClientError> {
        let doc = self.exchange_json("GET", "/v1/targets", None)?;
        Ok(TargetsResponse::from_json(&doc)?)
    }

    /// `POST /v1/session`: open an interactive edit session from a
    /// compile-job document (same shape as [`Client::compile`] takes).
    /// Answers the session descriptor — `"id"` is the handle for
    /// [`Client::session_edit`] and friends.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn session_create(&self, job: &CompileJob<CompilerOptions>) -> Result<Value, ClientError> {
        self.exchange_json("POST", "/v1/session", Some(&job.to_json()))
    }

    /// `POST /v1/session/<id>/edit`: JSONL edit batches in, one
    /// delta-annotated result document per batch out.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; per-batch failures come back as documents
    /// whose `status` carries the error.
    pub fn session_edit(&self, id: &str, jsonl: &str) -> Result<Vec<Value>, ClientError> {
        let path = format!("/v1/session/{id}/edit");
        let response = self.exchange("POST", &path, "application/jsonl", jsonl.as_bytes())?;
        let text = response.body_str()?;
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| Value::parse(line).map_err(ClientError::from))
            .collect()
    }

    /// `GET /v1/session/<id>`: the session's snapshot document.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; an expired or unknown session is a 404
    /// [`ClientError::Status`].
    pub fn session_get(&self, id: &str) -> Result<Value, ClientError> {
        self.exchange_json("GET", &format!("/v1/session/{id}"), None)
    }

    /// `DELETE /v1/session/<id>`: close the session.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn session_close(&self, id: &str) -> Result<Value, ClientError> {
        self.exchange_json("DELETE", &format!("/v1/session/{id}"), None)
    }

    /// `GET /v1/cache/stats`: the shared cache's counters.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn cache_stats(&self) -> Result<CacheStats, ClientError> {
        let doc = self.exchange_json("GET", "/v1/cache/stats", None)?;
        Ok(CacheStats::from_json(&doc)?)
    }

    /// `GET /v1/traces`: newest-first summaries of the traces the server's
    /// flight recorder retains, filtered to those at least `min_micros`
    /// long (pass 0 for all).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn traces(&self, min_micros: u64) -> Result<Vec<TraceSummary>, ClientError> {
        let path = format!("/v1/traces?min_micros={min_micros}");
        let doc = self.exchange_json("GET", &path, None)?;
        match doc.get("traces") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|item| TraceSummary::from_json(item).map_err(ClientError::from))
                .collect(),
            _ => Err(ClientError::Decode(JsonError::schema(
                "\"traces\" must be an array",
            ))),
        }
    }

    /// `GET /v1/trace/<id>`: one retained trace's full span tree.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; an id the recorder no longer holds comes back
    /// as [`ClientError::Status`] 404.
    pub fn trace(&self, id: TraceId) -> Result<FinishedTrace, ClientError> {
        let path = format!("/v1/trace/{}", id.to_hex());
        let doc = self.exchange_json("GET", &path, None)?;
        Ok(FinishedTrace::from_json(&doc)?)
    }

    /// `GET /healthz`: the liveness document.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn healthz(&self) -> Result<Value, ClientError> {
        self.exchange_json("GET", "/healthz", None)
    }

    /// `GET /metrics`: the raw Prometheus exposition text.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        let response = self.exchange("GET", "/metrics", "text/plain", b"")?;
        Ok(response.body_str()?.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(450),
        };
        // Each delay lands in [d/2, d] for d = min(base·2ⁿ, cap).
        for (attempt, expected) in [(0u32, 100u64), (1, 200), (2, 400), (3, 450), (4, 450)] {
            let d = policy.delay_for(attempt, 7).as_millis() as u64;
            assert!(
                (expected / 2..=expected).contains(&d),
                "attempt {attempt}: {d}ms outside [{}, {expected}]",
                expected / 2
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_spread_across_seeds() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.delay_for(1, 42), policy.delay_for(1, 42));
        // 64 seeds at the same attempt must not all collapse to one value.
        let distinct: std::collections::HashSet<_> =
            (0..64u64).map(|seed| policy.delay_for(1, seed)).collect();
        assert!(distinct.len() > 1, "jitter never varies");
    }

    #[test]
    fn none_policy_never_sleeps() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.attempts, 1);
        assert_eq!(policy.delay_for(0, 9), Duration::ZERO);
    }

    #[test]
    fn only_transport_failures_are_retryable() {
        assert!(RetryPolicy::retryable(&ClientError::Io(io::Error::other(
            "refused"
        ))));
        assert!(RetryPolicy::retryable(&ClientError::Http(
            HttpError::Timeout
        )));
        assert!(!RetryPolicy::retryable(&ClientError::Status {
            status: 500,
            body: String::new(),
            retry_after: None,
        }));
        // The two explicit back-off statuses are worth another try.
        for status in [429, 503] {
            assert!(RetryPolicy::retryable(&ClientError::Status {
                status,
                body: String::new(),
                retry_after: Some(1),
            }));
        }
        assert!(!RetryPolicy::retryable(&ClientError::Decode(
            JsonError::schema("x")
        )));
        assert!(!RetryPolicy::retryable(&ClientError::Http(
            HttpError::Malformed("x".into())
        )));
    }

    /// One canned HTTP/1.1 response per accepted connection, then exit.
    fn canned_server(
        answers: &'static [&'static str],
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            for answer in answers {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                use std::io::Write as _;
                stream.write_all(answer.as_bytes()).unwrap();
            }
        });
        (addr, thread)
    }

    #[test]
    fn status_errors_carry_the_retry_after_header() {
        let (addr, server) = canned_server(&[
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\nretry-after: 7\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
        ]);
        let err = Client::new(addr.to_string())
            .timeout(Duration::from_secs(5))
            .healthz()
            .expect_err("429 is an error without retries");
        match err {
            ClientError::Status {
                status: 429,
                retry_after: Some(7),
                ..
            } => {}
            other => panic!("wrong error shape: {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn retry_after_is_honoured_but_capped_by_max_delay() {
        let (addr, server) = canned_server(&[
            // The server asks for a 7 s pause; the policy's ceiling is
            // 150 ms, so the retry must come quickly — but not instantly.
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\nretry-after: 7\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 15\r\nconnection: close\r\n\r\n{\"status\":\"ok\"}",
        ]);
        let client = Client::new(addr.to_string())
            .timeout(Duration::from_secs(5))
            .retry(RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(150),
            });
        let started = std::time::Instant::now();
        let doc = client.healthz().expect("the retry succeeds");
        let waited = started.elapsed();
        server.join().unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert!(
            waited >= Duration::from_millis(140),
            "retry fired before the capped Retry-After pause: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "the 7 s Retry-After was not capped: {waited:?}"
        );
    }

    #[test]
    fn exchange_retries_exactly_attempts_times() {
        // A "server" that accepts and slams every connection: each attempt
        // reaches it and dies mid-exchange, so the client must come back
        // exactly `attempts` times and then surface the failure.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&hits);
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                counted.fetch_add(1, Ordering::SeqCst);
                // Read a byte so the client's write lands, then hang up.
                let mut byte = [0u8; 1];
                let _ = stream.read(&mut byte);
                drop(stream);
            }
        });
        let client = Client::new(addr.to_string())
            .timeout(Duration::from_millis(500))
            .retry(RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            });
        let err = client.healthz().expect_err("every attempt is slammed");
        assert!(RetryPolicy::retryable(&err), "failed as transport: {err}");
        server.join().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 3, "one hit per attempt");
    }
}
