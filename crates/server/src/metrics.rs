//! Server-side counters rendered in the Prometheus text exposition format.
//!
//! Everything is a plain atomic: handlers bump counters as requests finish,
//! and `GET /metrics` renders a point-in-time snapshot. Request, stage, and
//! queue-wait latencies go into log₂ [`Histogram`]s, so the exposition
//! carries proper `_bucket`/`_sum`/`_count` series and `/v1/cache/stats`
//! can answer p50/p95/p99. Cache hit/miss gauges are not duplicated here —
//! they are read live from the shared [`ftqc_service::CacheStats`] at
//! render time, so the numbers can never drift from what the cache itself
//! reports.

use ftqc_compiler::{RouteCounters, Stage, StageCacheStats, StageEvent, TraceHook};
use ftqc_service::CacheStats;
use ftqc_telemetry::{duration_micros_saturating, Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// The endpoints the registry tracks individually; anything else lands in
/// [`Endpoint::Other`] (404s, typos, probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/compile`
    Compile,
    /// `POST /v1/batch`
    Batch,
    /// `POST /v1/sweep`
    Sweep,
    /// `GET /v1/targets`
    Targets,
    /// `GET /v1/cache/stats`
    CacheStats,
    /// `GET /v1/traces` and `GET /v1/trace/<id>`
    Traces,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/session`, `GET|DELETE /v1/session/<id>`, and
    /// `POST /v1/session/<id>/edit` (interactive edit sessions).
    Session,
    /// Everything else.
    Other,
}

impl Endpoint {
    /// All tracked endpoints, in render order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Compile,
        Endpoint::Batch,
        Endpoint::Sweep,
        Endpoint::Targets,
        Endpoint::CacheStats,
        Endpoint::Traces,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Session,
        Endpoint::Other,
    ];

    /// The label value used in the exposition format.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Compile => "compile",
            Endpoint::Batch => "batch",
            Endpoint::Sweep => "sweep",
            Endpoint::Targets => "targets",
            Endpoint::CacheStats => "cache_stats",
            Endpoint::Traces => "traces",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Session => "session",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request path.
    pub fn of_path(path: &str) -> Endpoint {
        match path {
            "/v1/compile" => Endpoint::Compile,
            "/v1/batch" => Endpoint::Batch,
            "/v1/sweep" => Endpoint::Sweep,
            "/v1/targets" => Endpoint::Targets,
            "/v1/cache/stats" => Endpoint::CacheStats,
            "/v1/traces" => Endpoint::Traces,
            "/healthz" => Endpoint::Healthz,
            "/metrics" => Endpoint::Metrics,
            _ if path.starts_with("/v1/trace/") => Endpoint::Traces,
            "/v1/session" => Endpoint::Session,
            _ if path.starts_with("/v1/session/") => Endpoint::Session,
            _ => Endpoint::Other,
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == self)
            .expect("listed")
    }
}

#[derive(Debug, Default)]
struct EndpointCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

/// The process-wide counter registry.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    per_endpoint: [EndpointCounters; 10],
    /// Per-stage compile times, fed by the staged-session trace hooks.
    per_stage: [Histogram; 4],
    /// Worker-pool queue waits (batch submission → worker claim).
    queue_wait: Histogram,
    /// Reactor admission waits (request framed → dispatcher claim).
    admission_wait: Histogram,
    in_flight: AtomicU64,
    connections: AtomicU64,
    rejected: AtomicU64,
    /// Live reactor admission-queue depth.
    queue_depth: AtomicU64,
    /// Requests admitted through the reactor's bounded queue.
    admitted: AtomicU64,
    /// Requests refused with 429 because the admission queue was full.
    throttled: AtomicU64,
    /// Requests that out-waited their admission deadline in the queue.
    expired: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
}

impl ServerMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts an accepted connection.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection turned away at the limit.
    pub fn connection_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request in flight; the guard decrements on drop (even if the
    /// handler panics).
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { metrics: self }
    }

    /// Records a finished request: endpoint, status, and wall-clock
    /// latency. Durations past `u64::MAX` microseconds clamp instead of
    /// truncating, and the histogram's running sum saturates at `u64::MAX`.
    pub fn record(&self, endpoint: Endpoint, status: u16, latency: std::time::Duration) {
        let c = &self.per_endpoint[endpoint.index()];
        c.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        c.latency.record(duration_micros_saturating(latency));
    }

    /// Records one compile-stage execution time.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.per_stage[stage as usize].record(micros);
    }

    /// Records one job's queue wait (batch submission → worker claim).
    pub fn record_queue_wait(&self, micros: u64) {
        self.queue_wait.record(micros);
    }

    /// Records one request's admission-queue wait (request framed →
    /// dispatcher claim) and counts the admission.
    pub fn record_admission(&self, wait_micros: u64) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.admission_wait.record(wait_micros);
    }

    /// Updates the live admission-queue depth gauge.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts a request refused with 429 over admission-queue capacity.
    pub fn request_throttled(&self) {
        self.throttled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that out-waited its admission deadline.
    pub fn request_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests refused with 429 so far.
    pub fn throttled(&self) -> u64 {
        self.throttled.load(Ordering::Relaxed)
    }

    /// Requests admitted through the bounded queue so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Point-in-time admission-wait distribution.
    pub fn admission_wait_snapshot(&self) -> HistogramSnapshot {
        self.admission_wait.snapshot()
    }

    /// Records job outcomes from compile/batch handlers.
    pub fn record_jobs(&self, ok: u64, failed: u64) {
        self.jobs_ok.fetch_add(ok, Ordering::Relaxed);
        self.jobs_failed.fetch_add(failed, Ordering::Relaxed);
    }

    /// Requests finished so far for `endpoint`.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.per_endpoint[endpoint.index()]
            .requests
            .load(Ordering::Relaxed)
    }

    /// Total requests finished across all endpoints.
    pub fn total_requests(&self) -> u64 {
        Endpoint::ALL.iter().map(|e| self.requests(*e)).sum()
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Requests currently being handled.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Point-in-time latency distribution for one endpoint.
    pub fn latency_snapshot(&self, endpoint: Endpoint) -> HistogramSnapshot {
        self.per_endpoint[endpoint.index()].latency.snapshot()
    }

    /// Point-in-time execution-time distribution for one compile stage.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.per_stage[stage as usize].snapshot()
    }

    /// Point-in-time queue-wait distribution.
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.queue_wait.snapshot()
    }

    /// Renders the Prometheus text exposition: request/error counts and
    /// latency histograms per endpoint, the in-flight gauge, connection counters,
    /// job outcomes, the shared cache's live counters, the stage cache's
    /// per-stage hit/miss counters, and the incremental router's cumulative
    /// arena-reuse counter.
    pub fn render_prometheus(
        &self,
        cache: &CacheStats,
        stages: &StageCacheStats,
        route: &RouteCounters,
        uptime: std::time::Duration,
    ) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "# HELP ftqc_http_requests_total Requests finished, by endpoint.\n# TYPE ftqc_http_requests_total counter"
        );
        for e in Endpoint::ALL {
            let _ = writeln!(
                out,
                "ftqc_http_requests_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.requests(e)
            );
        }
        let _ = writeln!(
            out,
            "# HELP ftqc_http_errors_total Requests finished with status >= 400, by endpoint.\n# TYPE ftqc_http_errors_total counter"
        );
        for e in Endpoint::ALL {
            let _ = writeln!(
                out,
                "ftqc_http_errors_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.per_endpoint[e.index()].errors.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# HELP ftqc_request_latency_micros Request latency in microseconds, by endpoint.\n# TYPE ftqc_request_latency_micros histogram"
        );
        for e in Endpoint::ALL {
            let snap = self.latency_snapshot(e);
            // Endpoints that never fired still emit a well-formed empty
            // histogram (+Inf bucket, zero sum/count) so dashboards can
            // rely on the series existing.
            snap.render_prometheus(
                &mut out,
                "ftqc_request_latency_micros",
                &format!("endpoint=\"{}\"", e.label()),
            );
        }
        let _ = writeln!(
            out,
            "# HELP ftqc_stage_latency_micros Compile-stage execution time in microseconds, by stage.\n# TYPE ftqc_stage_latency_micros histogram"
        );
        for stage in Stage::ALL {
            self.stage_snapshot(stage).render_prometheus(
                &mut out,
                "ftqc_stage_latency_micros",
                &format!("stage=\"{}\"", stage.name()),
            );
        }
        let _ = writeln!(
            out,
            "# HELP ftqc_queue_wait_micros Worker-pool queue wait in microseconds (batch submission to worker claim).\n# TYPE ftqc_queue_wait_micros histogram"
        );
        self.queue_wait_snapshot()
            .render_prometheus(&mut out, "ftqc_queue_wait_micros", "");
        let _ = writeln!(
            out,
            "# HELP ftqc_admission_wait_micros Reactor admission-queue wait in microseconds (request framed to dispatcher claim).\n# TYPE ftqc_admission_wait_micros histogram"
        );
        self.admission_wait_snapshot().render_prometheus(
            &mut out,
            "ftqc_admission_wait_micros",
            "",
        );
        let gauges: [(&str, &str, u64); 10] = [
            (
                "ftqc_http_in_flight",
                "Requests currently being handled.",
                self.in_flight(),
            ),
            (
                "ftqc_connections_total",
                "TCP connections accepted.",
                self.connections(),
            ),
            (
                "ftqc_connections_rejected_total",
                "Connections turned away at the connection limit.",
                self.rejected.load(Ordering::Relaxed),
            ),
            (
                "ftqc_admission_queue_depth",
                "Requests waiting in the reactor admission queue.",
                self.queue_depth.load(Ordering::Relaxed),
            ),
            (
                "ftqc_requests_admitted_total",
                "Requests admitted through the reactor's bounded queue.",
                self.admitted(),
            ),
            (
                "ftqc_requests_throttled_total",
                "Requests refused with 429 over admission-queue capacity.",
                self.throttled(),
            ),
            (
                "ftqc_requests_expired_total",
                "Requests that out-waited their admission deadline in the queue.",
                self.expired.load(Ordering::Relaxed),
            ),
            (
                "ftqc_jobs_ok_total",
                "Compile jobs that succeeded.",
                self.jobs_ok.load(Ordering::Relaxed),
            ),
            (
                "ftqc_jobs_failed_total",
                "Compile jobs that failed.",
                self.jobs_failed.load(Ordering::Relaxed),
            ),
            (
                "ftqc_uptime_seconds",
                "Seconds since the server started.",
                uptime.as_secs(),
            ),
        ];
        for (name, help, value) in gauges {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        let cache_counters: [(&str, &str, u64); 5] = [
            (
                "ftqc_cache_hits_total",
                "Compile-cache lookups served from memory or file.",
                cache.hits,
            ),
            (
                "ftqc_cache_file_hits_total",
                "Of the hits, how many came from the file tier.",
                cache.file_hits,
            ),
            (
                "ftqc_cache_misses_total",
                "Compile-cache lookups that found nothing.",
                cache.misses,
            ),
            (
                "ftqc_cache_insertions_total",
                "Compile-cache entries inserted.",
                cache.insertions,
            ),
            (
                "ftqc_cache_evictions_total",
                "Compile-cache entries evicted by the LRU bound.",
                cache.evictions,
            ),
        ];
        for (name, help, value) in cache_counters {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        type StagePick = fn(CacheStats) -> u64;
        let stage_counters: [(&str, &str, StagePick); 2] = [
            (
                "ftqc_stage_cache_hits_total",
                "Stage-cache lookups answered from a cached stage artifact, by stage.",
                |s| s.hits,
            ),
            (
                "ftqc_stage_cache_misses_total",
                "Stage-cache lookups that recomputed the stage, by stage.",
                |s| s.misses,
            ),
        ];
        for (name, help, pick) in stage_counters {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            for stage in Stage::ALL {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\"}} {}",
                    stage.name(),
                    pick(stages.for_stage(stage))
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP ftqc_route_arena_reuses_total Router searches that reused the per-compile search arena.\n# TYPE ftqc_route_arena_reuses_total counter"
        );
        let _ = writeln!(out, "ftqc_route_arena_reuses_total {}", route.arena_reuses);
        out
    }
}

/// Attached to every served compile session: each finished stage is one
/// sample of its per-stage latency histogram.
impl TraceHook for ServerMetrics {
    fn on_stage(&self, event: &StageEvent) {
        self.record_stage(event.stage, event.micros);
    }
}

/// RAII guard holding the in-flight gauge up for one request.
#[derive(Debug)]
pub struct InFlightGuard<'m> {
    metrics: &'m ServerMetrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn endpoints_classify_paths() {
        assert_eq!(Endpoint::of_path("/v1/compile"), Endpoint::Compile);
        assert_eq!(Endpoint::of_path("/v1/batch"), Endpoint::Batch);
        assert_eq!(Endpoint::of_path("/v1/sweep"), Endpoint::Sweep);
        assert_eq!(Endpoint::of_path("/v1/targets"), Endpoint::Targets);
        assert_eq!(Endpoint::of_path("/v1/cache/stats"), Endpoint::CacheStats);
        assert_eq!(Endpoint::of_path("/v1/traces"), Endpoint::Traces);
        assert_eq!(Endpoint::of_path("/v1/trace/00ff"), Endpoint::Traces);
        assert_eq!(Endpoint::of_path("/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::of_path("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::of_path("/nope"), Endpoint::Other);
    }

    /// Regression: `/v1/targets` used to fall through to `Other`, so its
    /// traffic was invisible in the per-endpoint families.
    #[test]
    fn targets_is_a_first_class_endpoint() {
        assert_ne!(Endpoint::of_path("/v1/targets"), Endpoint::Other);
        assert!(Endpoint::ALL.contains(&Endpoint::Targets));
        let m = ServerMetrics::new();
        m.record(Endpoint::Targets, 200, Duration::from_micros(5));
        assert_eq!(m.requests(Endpoint::Targets), 1);
        assert_eq!(m.requests(Endpoint::Other), 0);
        let text = m.render_prometheus(
            &CacheStats::default(),
            &StageCacheStats::default(),
            &RouteCounters::default(),
            Duration::ZERO,
        );
        assert!(text.contains("ftqc_http_requests_total{endpoint=\"targets\"} 1"));
    }

    /// Regression guard for the same bug class on the session routes: every
    /// `/v1/session*` shape must classify as `Session`, not `Other`.
    #[test]
    fn session_is_a_first_class_endpoint() {
        assert_ne!(Endpoint::of_path("/v1/session"), Endpoint::Other);
        assert_eq!(Endpoint::of_path("/v1/session"), Endpoint::Session);
        assert_eq!(Endpoint::of_path("/v1/session/abc123"), Endpoint::Session);
        assert_eq!(
            Endpoint::of_path("/v1/session/abc123/edit"),
            Endpoint::Session
        );
        assert!(Endpoint::ALL.contains(&Endpoint::Session));
        let m = ServerMetrics::new();
        m.record(Endpoint::Session, 200, Duration::from_micros(5));
        assert_eq!(m.requests(Endpoint::Session), 1);
        assert_eq!(m.requests(Endpoint::Other), 0);
        let text = m.render_prometheus(
            &CacheStats::default(),
            &StageCacheStats::default(),
            &RouteCounters::default(),
            Duration::ZERO,
        );
        assert!(text.contains("ftqc_http_requests_total{endpoint=\"session\"} 1"));
    }

    /// `Duration::as_micros` yields a `u128`; a plain `as u64` cast used to
    /// truncate absurd-but-possible durations to a small number. The record
    /// path must clamp instead.
    #[test]
    fn oversized_latency_clamps_instead_of_truncating() {
        let m = ServerMetrics::new();
        // Duration::MAX is ~5.8e20 µs — past u64::MAX (~1.8e19), and its
        // low 64 bits are a nonsense value the old cast would have kept.
        m.record(Endpoint::Compile, 200, Duration::MAX);
        let snap = m.latency_snapshot(Endpoint::Compile);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max, u64::MAX, "clamped to the ceiling, not wrapped");
        assert_eq!(snap.min, u64::MAX);
        // The sample lands in the +Inf overflow bucket, not a finite one.
        assert_eq!(snap.counts.last(), Some(&1));
    }

    /// The reactor transport's admission families: the wait histogram,
    /// the live depth gauge, and the throttle/expiry counters.
    #[test]
    fn admission_families_accumulate_and_render() {
        let m = ServerMetrics::new();
        m.record_admission(250);
        m.record_admission(80);
        m.set_queue_depth(7);
        m.request_throttled();
        m.request_throttled();
        m.request_expired();
        assert_eq!(m.admitted(), 2);
        assert_eq!(m.throttled(), 2);
        let snap = m.admission_wait_snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 330);
        let text = m.render_prometheus(
            &CacheStats::default(),
            &StageCacheStats::default(),
            &RouteCounters::default(),
            Duration::ZERO,
        );
        assert!(text.contains("ftqc_admission_wait_micros_count 2"));
        assert!(text.contains("ftqc_admission_wait_micros_sum 330"));
        assert!(text.contains("ftqc_admission_queue_depth 7"));
        assert!(text.contains("ftqc_requests_admitted_total 2"));
        assert!(text.contains("ftqc_requests_throttled_total 2"));
        assert!(text.contains("ftqc_requests_expired_total 1"));
        // The depth gauge is a gauge, not a counter.
        assert!(text.contains("# TYPE ftqc_admission_queue_depth gauge"));
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = ServerMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_rejected();
        {
            let _g = m.begin_request();
            assert_eq!(m.in_flight(), 1);
            m.record(Endpoint::Compile, 200, Duration::from_micros(150));
        }
        assert_eq!(m.in_flight(), 0, "guard drop releases the gauge");
        m.record(Endpoint::Compile, 200, Duration::from_micros(50));
        m.record(Endpoint::Batch, 400, Duration::from_micros(10));
        m.record_jobs(3, 1);

        assert_eq!(m.requests(Endpoint::Compile), 2);
        assert_eq!(m.requests(Endpoint::Batch), 1);
        assert_eq!(m.total_requests(), 3);

        let cache = CacheStats {
            hits: 7,
            file_hits: 2,
            misses: 3,
            insertions: 3,
            evictions: 0,
        };
        let stages = StageCacheStats {
            map: CacheStats {
                hits: 5,
                file_hits: 0,
                misses: 2,
                insertions: 2,
                evictions: 0,
            },
            ..StageCacheStats::default()
        };
        let route = RouteCounters { arena_reuses: 17 };
        m.record_stage(Stage::Map, 120);
        m.record_queue_wait(33);

        let text = m.render_prometheus(&cache, &stages, &route, Duration::from_secs(42));
        assert!(text.contains("ftqc_http_requests_total{endpoint=\"compile\"} 2"));
        assert!(text.contains("ftqc_http_errors_total{endpoint=\"batch\"} 1"));
        // The latency family is a real histogram now: bucketed counts plus
        // exact sum/count per endpoint.
        assert!(text.contains("ftqc_request_latency_micros_sum{endpoint=\"compile\"} 200"));
        assert!(text.contains("ftqc_request_latency_micros_count{endpoint=\"compile\"} 2"));
        assert!(
            text.contains("ftqc_request_latency_micros_bucket{endpoint=\"compile\",le=\"+Inf\"} 2")
        );
        assert!(
            text.contains("ftqc_request_latency_micros_bucket{endpoint=\"healthz\",le=\"+Inf\"} 0"),
            "idle endpoints still expose an empty histogram"
        );
        assert!(text.contains("ftqc_stage_latency_micros_bucket{stage=\"map\",le=\"128\"} 1"));
        assert!(text.contains("ftqc_stage_latency_micros_sum{stage=\"map\"} 120"));
        assert!(text.contains("ftqc_stage_latency_micros_count{stage=\"prepare\"} 0"));
        assert!(text.contains("ftqc_queue_wait_micros_sum 33"));
        assert!(text.contains("ftqc_queue_wait_micros_count 1"));
        assert!(text.contains("ftqc_http_in_flight 0"));
        assert!(text.contains("ftqc_connections_total 2"));
        assert!(text.contains("ftqc_connections_rejected_total 1"));
        assert!(text.contains("ftqc_cache_hits_total 7"));
        assert!(text.contains("ftqc_cache_misses_total 3"));
        assert!(text.contains("ftqc_jobs_ok_total 3"));
        assert!(text.contains("ftqc_jobs_failed_total 1"));
        assert!(text.contains("ftqc_uptime_seconds 42"));
        assert!(text.contains("ftqc_stage_cache_hits_total{stage=\"map\"} 5"));
        assert!(text.contains("ftqc_stage_cache_misses_total{stage=\"map\"} 2"));
        assert!(text.contains("ftqc_stage_cache_hits_total{stage=\"prepare\"} 0"));
        assert!(text.contains("ftqc_route_arena_reuses_total 17"));
        assert!(!text.contains("ftqc_route_table"));
        // Every exposed family carries HELP/TYPE lines.
        assert_eq!(
            text.lines().filter(|l| l.starts_with("# HELP")).count(),
            text.lines().filter(|l| l.starts_with("# TYPE")).count(),
        );
    }
}
