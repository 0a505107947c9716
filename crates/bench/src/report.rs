//! Machine-readable bench summaries: the `--json` writer behind
//! `cargo run -p ftqc-bench --bin bench_session`, so CI can archive a
//! `BENCH_session.json` trajectory (median per-stage latencies,
//! stage-cache hit ratios) next to the human-readable tables.

use ftqc_compiler::{RouteCounters, Stage, StageCacheStats, StageEvent};
use ftqc_service::json::{ToJson, Value};
use std::io;
use std::path::Path;

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

/// The median of a sample set (lower-middle for even counts, 0 for empty).
pub fn median_micros(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

/// Exact nearest-rank percentiles over a raw sample set. Unlike the
/// server's log₂ histograms (which trade resolution for lock-free
/// accumulation), the bench holds every sample, so these are computed
/// from the sorted raw data with no bucketing error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// 50th percentile (lower-middle for even counts, matching
    /// [`median_micros`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl LatencyPercentiles {
    /// Computes the percentiles from raw samples (all zero when empty).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let at = |q: f64| {
            let rank = (q * samples.len() as f64).ceil() as usize;
            samples[rank.saturating_sub(1).min(samples.len() - 1)]
        };
        LatencyPercentiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
        }
    }
}

impl ToJson for LatencyPercentiles {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("p50_micros".into(), num(self.p50)),
            ("p95_micros".into(), num(self.p95)),
            ("p99_micros".into(), num(self.p99)),
        ])
    }
}

/// One pipeline stage's aggregate over a bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Events observed.
    pub samples: u64,
    /// Median wall-clock microseconds per event.
    pub median_micros: u64,
    /// Exact tail percentiles over the raw per-event timings.
    pub percentiles: LatencyPercentiles,
    /// Events answered from the stage cache.
    pub cached: u64,
}

impl StageSummary {
    /// Cache-hit ratio over the observed events (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.cached as f64 / self.samples as f64
        }
    }
}

impl ToJson for StageSummary {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("stage".into(), Value::Str(self.stage.name().into())),
            ("samples".into(), num(self.samples)),
            ("median_micros".into(), num(self.median_micros)),
            ("percentiles".into(), self.percentiles.to_json()),
            ("cached".into(), num(self.cached)),
            ("hit_ratio".into(), Value::Num(self.hit_ratio())),
        ])
    }
}

/// Folds raw per-stage trace events into one [`StageSummary`] per stage,
/// in pipeline order.
pub fn summarise_stages(events: &[StageEvent]) -> Vec<StageSummary> {
    Stage::ALL
        .iter()
        .map(|&stage| {
            let of_stage: Vec<&StageEvent> = events.iter().filter(|e| e.stage == stage).collect();
            let micros: Vec<u64> = of_stage.iter().map(|e| e.micros).collect();
            StageSummary {
                stage,
                samples: of_stage.len() as u64,
                median_micros: median_micros(micros.clone()),
                percentiles: LatencyPercentiles::from_samples(micros),
                cached: of_stage.iter().filter(|e| e.cached).count() as u64,
            }
        })
        .collect()
}

/// One benched configuration (a target, a circuit, …) with its stage
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// The configuration's label (e.g. the target name).
    pub label: String,
    /// Per-stage aggregates, in pipeline order.
    pub stages: Vec<StageSummary>,
}

impl ToJson for CaseReport {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("label".into(), Value::Str(self.label.clone())),
            (
                "stages".into(),
                Value::Arr(self.stages.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// The routing-bound hot-path measurement: the map stage timed cache-less
/// under the seed (reference) router and the incremental engine, on a
/// dense-CNOT workload. This is the recorded perf trajectory entry the
/// bench-regression CI gate compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingReport {
    /// The routing-bound circuit spec (e.g. `"ghz"`).
    pub circuit: String,
    /// Map-stage runs per mode.
    pub iterations: u64,
    /// Median map-stage microseconds through the seed router.
    pub reference_median_micros: u64,
    /// Median map-stage microseconds through the incremental engine.
    pub incremental_median_micros: u64,
    /// Fastest map-stage run through the incremental engine. Scheduler
    /// noise only ever *adds* time, so the minimum is the noise-robust
    /// statistic the regression gate confirms a median excursion against.
    pub incremental_min_micros: u64,
    /// Exact tail percentiles over the incremental map-stage samples.
    /// Recorded for the trajectory only — the regression gate reads the
    /// median/minimum/speedup, so baselines without these still check.
    pub incremental_percentiles: LatencyPercentiles,
    /// The incremental router's counters for one representative run.
    pub route: RouteCounters,
}

impl RoutingReport {
    /// Reference-over-incremental speedup (the headline number; 0 when
    /// the incremental median is 0 — sub-microsecond map stages are not
    /// meaningfully comparable).
    pub fn speedup(&self) -> f64 {
        if self.incremental_median_micros == 0 {
            0.0
        } else {
            self.reference_median_micros as f64 / self.incremental_median_micros as f64
        }
    }
}

impl ToJson for RoutingReport {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("circuit".into(), Value::Str(self.circuit.clone())),
            ("iterations".into(), num(self.iterations)),
            (
                "reference_median_micros".into(),
                num(self.reference_median_micros),
            ),
            (
                "incremental_median_micros".into(),
                num(self.incremental_median_micros),
            ),
            (
                "incremental_min_micros".into(),
                num(self.incremental_min_micros),
            ),
            (
                "incremental_percentiles".into(),
                self.incremental_percentiles.to_json(),
            ),
            ("speedup".into(), Value::Num(self.speedup())),
            (
                "route".into(),
                ftqc_compiler::route_counters_to_json(&self.route),
            ),
        ])
    }
}

/// The concurrent-connection capacity measurement: idle connections held
/// open against the server, probed with live requests until it refuses
/// new work, plus request latency percentiles taken *while* the idle
/// connections are held — the number that shows event-driven readiness
/// doesn't pay for parked sockets. Recorded for the trajectory only — the
/// regression gate never reads it, so reactor-less baselines keep
/// checking cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityReport {
    /// Idle connections the server held while still serving probes.
    /// When this equals [`probe_ceiling`](Self::probe_ceiling) the
    /// measurement stopped at the bench's own fd budget, not at the
    /// server's limit — the true capacity is at least this.
    pub reactor_connections: u64,
    /// The bench's own ceiling on held connections (fd budget).
    pub probe_ceiling: u64,
    /// Probe requests timed against the saturated reactor.
    pub probe_requests: u64,
    /// Request latency percentiles against the reactor while all
    /// [`reactor_connections`](Self::reactor_connections) idle
    /// connections are held.
    pub latency: LatencyPercentiles,
}

impl ToJson for CapacityReport {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("reactor_connections".into(), num(self.reactor_connections)),
            ("probe_ceiling".into(), num(self.probe_ceiling)),
            ("probe_requests".into(), num(self.probe_requests)),
            ("latency".into(), self.latency.to_json()),
        ])
    }
}

/// The edit-storm measurement: single-gate edit batches applied near the
/// tail of a live [`EditSession`], each timed edit-to-schedule (a full
/// compile of the edited circuit), against the median of cold compiles
/// of the same circuit. Recorded for the trajectory only — the regression
/// gate never reads it, so edit-less baselines keep checking cleanly.
///
/// [`EditSession`]: https://docs.rs/ftqc-editor
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditReport {
    /// Edit batches applied in the storm.
    pub edits: u64,
    /// Median edit-to-schedule microseconds across the storm.
    pub edit_median_micros: u64,
    /// Exact tail percentiles over the edit-to-schedule samples.
    pub edit_percentiles: LatencyPercentiles,
    /// Median microseconds for a cold compile of the same circuit.
    pub full_median_micros: u64,
}

impl EditReport {
    /// Cold-compile-over-edit ratio (the headline number; 0 when the edit
    /// median is 0 — sub-microsecond edits are not meaningfully
    /// comparable).
    pub fn speedup(&self) -> f64 {
        if self.edit_median_micros == 0 {
            0.0
        } else {
            self.full_median_micros as f64 / self.edit_median_micros as f64
        }
    }
}

impl ToJson for EditReport {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("edits".into(), num(self.edits)),
            ("edit_median_micros".into(), num(self.edit_median_micros)),
            ("edit_percentiles".into(), self.edit_percentiles.to_json()),
            ("full_median_micros".into(), num(self.full_median_micros)),
            ("speedup".into(), Value::Num(self.speedup())),
        ])
    }
}

/// The whole bench run: what ran, how often, and what the shared stage
/// cache did across all cases.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The benched circuit spec (e.g. `"ising:3"`).
    pub circuit: String,
    /// Compile iterations per case.
    pub iterations: u64,
    /// One entry per benched configuration.
    pub cases: Vec<CaseReport>,
    /// The shared stage cache's final counters.
    pub stage_cache: StageCacheStats,
    /// The routing-bound hot-path measurement, when the run performed one.
    pub routing: Option<RoutingReport>,
    /// The edit-storm measurement, when `--edits N` asked for one.
    pub edits: Option<EditReport>,
    /// The connection-capacity measurement, when `--reactor N` asked for
    /// one.
    pub reactor: Option<CapacityReport>,
}

impl ToJson for SessionReport {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("circuit".into(), Value::Str(self.circuit.clone())),
            ("iterations".into(), num(self.iterations)),
            (
                "cases".into(),
                Value::Arr(self.cases.iter().map(ToJson::to_json).collect()),
            ),
            ("stage_cache".into(), self.stage_cache.to_json()),
        ];
        if let Some(routing) = &self.routing {
            fields.push(("routing".into(), routing.to_json()));
        }
        if let Some(edits) = &self.edits {
            fields.push(("edits".into(), edits.to_json()));
        }
        if let Some(reactor) = &self.reactor {
            fields.push(("reactor".into(), reactor.to_json()));
        }
        Value::Obj(fields)
    }
}

/// The CI regression gate: compares this run against a checked-in
/// baseline document and rejects a regression beyond `tolerance`
/// (0.15 = fail when more than 15% worse).
///
/// Exactly one key is **gated**: `routing.incremental_median_micros`, the
/// incremental map-stage median. Everything else in the document
/// (`cases`, `stage_cache`, `edits`, `reactor`, every
/// percentile block, and the raw route counters) is trajectory data the
/// gate never reads, so baselines missing those sections check
/// identically to baselines carrying them.
///
/// Absolute microseconds are machine- and load-dependent, so a median
/// excursion alone is not enough. Two vetoes keep the gate from flaking
/// on hardware variance while still catching real regressions:
///
/// * the run's *minimum* must confirm the excursion — scheduler noise
///   spikes inflate medians but rarely the fastest run;
/// * the same-run reference/incremental *speedup ratio* must have
///   degraded past the tolerance too. Load slows both modes in the same
///   process equally (the ratio holds), whereas a regression in the
///   engine uniquely collapses it — the machine-independent signal the
///   speedup claim is actually about.
///
/// Baselines missing the minimum or the speedup skip that veto.
///
/// # Errors
///
/// A rendered message naming the regression (or the baseline field that
/// could not be read).
pub fn check_regression(
    current: &RoutingReport,
    baseline: &Value,
    tolerance: f64,
) -> Result<(), String> {
    let routing = baseline
        .get("routing")
        .ok_or("baseline document has no routing object")?;
    let base = routing
        .get("incremental_median_micros")
        .and_then(Value::as_u64)
        .ok_or("baseline document has no routing.incremental_median_micros")?;
    let limit = (base as f64 * (1.0 + tolerance)).ceil() as u64;
    let min_confirms = match routing
        .get("incremental_min_micros")
        .and_then(Value::as_u64)
    {
        Some(base_min) => {
            let min_limit = (base_min as f64 * (1.0 + tolerance)).ceil() as u64;
            current.incremental_min_micros > min_limit
        }
        // Old baseline without a recorded minimum: the median decides.
        None => true,
    };
    let ratio_confirms = match routing.get("speedup").and_then(Value::as_f64) {
        Some(base_speedup) => current.speedup() < base_speedup * (1.0 - tolerance),
        None => true,
    };
    if current.incremental_median_micros > limit && min_confirms && ratio_confirms {
        return Err(format!(
            "map-stage regression: median {}µs (min {}µs, speedup {:.2}x) exceeds baseline \
             {}µs by more than {:.0}% (limit {}µs)",
            current.incremental_median_micros,
            current.incremental_min_micros,
            current.speedup(),
            base,
            tolerance * 100.0,
            limit
        ));
    }
    Ok(())
}

impl SessionReport {
    /// Writes the report as pretty-enough JSON (one document, trailing
    /// newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json().render()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_samples() {
        assert_eq!(median_micros(vec![]), 0);
        assert_eq!(median_micros(vec![7]), 7);
        assert_eq!(median_micros(vec![9, 1, 5]), 5);
        assert_eq!(median_micros(vec![4, 1, 9, 5]), 4, "lower middle");
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        assert_eq!(
            LatencyPercentiles::from_samples(vec![]),
            LatencyPercentiles::default()
        );
        let one = LatencyPercentiles::from_samples(vec![7]);
        assert_eq!((one.p50, one.p95, one.p99), (7, 7, 7));
        // 1..=100: nearest-rank percentiles are the literal ranks.
        let p = LatencyPercentiles::from_samples((1..=100).rev().collect());
        assert_eq!((p.p50, p.p95, p.p99), (50, 95, 99));
        // Even counts take the lower middle, agreeing with median_micros.
        let four = vec![4, 1, 9, 5];
        assert_eq!(
            LatencyPercentiles::from_samples(four.clone()).p50,
            median_micros(four)
        );
    }

    #[test]
    fn summarise_groups_by_stage() {
        let events = vec![
            StageEvent {
                stage: Stage::Prepare,
                fingerprint: 1,
                cached: false,
                micros: 10,
            },
            StageEvent {
                stage: Stage::Prepare,
                fingerprint: 1,
                cached: true,
                micros: 2,
            },
            StageEvent {
                stage: Stage::Map,
                fingerprint: 2,
                cached: false,
                micros: 100,
            },
        ];
        let summary = summarise_stages(&events);
        assert_eq!(summary.len(), 4, "every stage appears");
        assert_eq!(summary[0].stage, Stage::Prepare);
        assert_eq!(summary[0].samples, 2);
        assert_eq!(summary[0].median_micros, 2);
        assert!((summary[0].hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(summary[2].stage, Stage::Map);
        assert_eq!(summary[2].samples, 1);
        assert_eq!(summary[3].samples, 0, "schedule unobserved");
        assert_eq!(summary[3].hit_ratio(), 0.0);
    }

    #[test]
    fn report_renders_and_writes() {
        use ftqc_compiler::StageCache;
        let report = SessionReport {
            circuit: "ising:2".into(),
            iterations: 3,
            cases: vec![CaseReport {
                label: "paper".into(),
                stages: summarise_stages(&[]),
            }],
            stage_cache: StageCache::new(4).stats(),
            routing: Some(RoutingReport {
                circuit: "ghz".into(),
                iterations: 5,
                reference_median_micros: 9000,
                incremental_median_micros: 3000,
                incremental_min_micros: 2800,
                incremental_percentiles: LatencyPercentiles {
                    p50: 3000,
                    p95: 3400,
                    p99: 3500,
                },
                route: RouteCounters::default(),
            }),
            edits: Some(EditReport {
                edits: 40,
                edit_median_micros: 200,
                edit_percentiles: LatencyPercentiles {
                    p50: 200,
                    p95: 260,
                    p99: 300,
                },
                full_median_micros: 1600,
            }),
            reactor: Some(CapacityReport {
                reactor_connections: 1280,
                probe_ceiling: 1280,
                probe_requests: 200,
                latency: LatencyPercentiles {
                    p50: 90,
                    p95: 300,
                    p99: 900,
                },
            }),
        };
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"circuit\":\"ising:2\""), "{rendered}");
        assert!(rendered.contains("\"median_micros\""), "{rendered}");
        assert!(rendered.contains("\"hit_ratio\""), "{rendered}");
        assert!(
            rendered.contains("\"incremental_median_micros\":3000"),
            "{rendered}"
        );
        assert!(rendered.contains("\"speedup\":3"), "{rendered}");
        assert!(rendered.contains("\"p95_micros\":3400"), "{rendered}");
        assert!(rendered.contains("\"percentiles\""), "{rendered}");
        assert!(rendered.contains("\"arena_reuses\":0"), "{rendered}");
        assert!(
            rendered.contains("\"edit_median_micros\":200"),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"full_median_micros\":1600"),
            "{rendered}"
        );
        assert!(!rendered.contains("\"differential\""), "{rendered}");
        assert!(rendered.contains("\"reactor\""), "{rendered}");
        assert!(
            rendered.contains("\"reactor_connections\":1280"),
            "{rendered}"
        );

        let dir = std::env::temp_dir().join("ftqc-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_session.json");
        report.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        // The written document parses back.
        assert!(ftqc_service::Value::parse(text.trim()).is_ok());
    }

    #[test]
    fn regression_gate_compares_against_baseline() {
        let current = RoutingReport {
            circuit: "ghz".into(),
            iterations: 5,
            reference_median_micros: 9000,
            incremental_median_micros: 1200,
            incremental_min_micros: 1150,
            incremental_percentiles: LatencyPercentiles::default(),
            route: RouteCounters::default(),
        };
        let baseline = |micros: u64| {
            Value::parse(&format!(
                "{{\"routing\":{{\"incremental_median_micros\":{micros}}}}}"
            ))
            .unwrap()
        };
        // Within 15% of a 1100µs baseline (limit 1265µs): pass.
        check_regression(&current, &baseline(1100), 0.15).expect("within tolerance");
        // More than 15% over a 1000µs baseline: fail, naming the numbers.
        let err = check_regression(&current, &baseline(1000), 0.15).unwrap_err();
        assert!(err.contains("1200µs"), "{err}");
        assert!(err.contains("1000µs"), "{err}");
        // A baseline without the fields is a loud error, not a silent pass.
        let err = check_regression(&current, &Value::parse("{}").unwrap(), 0.15).unwrap_err();
        assert!(err.contains("no routing object"), "{err}");
        let err = check_regression(&current, &Value::parse("{\"routing\":{}}").unwrap(), 0.15)
            .unwrap_err();
        assert!(err.contains("incremental_median_micros"), "{err}");

        // A baseline that also records the minimum gates on both: a median
        // excursion whose minimum stayed fast is scheduler noise, not a
        // regression…
        let with_min = |median: u64, min: u64| {
            Value::parse(&format!(
                "{{\"routing\":{{\"incremental_median_micros\":{median},\
                 \"incremental_min_micros\":{min}}}}}"
            ))
            .unwrap()
        };
        check_regression(&current, &with_min(1000, 1100), 0.15)
            .expect("fast minimum vetoes the noisy median");
        // …while a regression that moved the minimum too still fails.
        let err = check_regression(&current, &with_min(1000, 900), 0.15).unwrap_err();
        assert!(err.contains("min 1150µs"), "{err}");

        // A baseline that also records the speedup gates on the
        // machine-independent ratio: uniform machine slowness (absolute
        // numbers up, same-run ratio held) is not a regression…
        let full = |median: u64, min: u64, speedup: f64| {
            Value::parse(&format!(
                "{{\"routing\":{{\"incremental_median_micros\":{median},\
                 \"incremental_min_micros\":{min},\"speedup\":{speedup}}}}}"
            ))
            .unwrap()
        };
        // current: median 1200, min 1150, speedup 9000/1200 = 7.5.
        check_regression(&current, &full(1000, 900, 7.5), 0.15)
            .expect("held speedup ratio vetoes a uniform slowdown");
        // …while a collapse of the ratio itself still fails.
        let err = check_regression(&current, &full(1000, 900, 10.0), 0.15).unwrap_err();
        assert!(err.contains("speedup 7.50x"), "{err}");
    }

    #[test]
    fn gate_tolerates_baselines_without_percentiles() {
        // The percentile fields are trajectory data, not gate inputs: a
        // checked-in baseline written before they existed must still
        // check cleanly, and one written after must not behave
        // differently. Both documents here carry the same gate fields.
        let current = RoutingReport {
            circuit: "ghz".into(),
            iterations: 5,
            reference_median_micros: 9000,
            incremental_median_micros: 1200,
            incremental_min_micros: 1150,
            incremental_percentiles: LatencyPercentiles {
                p50: 1200,
                p95: 1900,
                p99: 2000,
            },
            route: RouteCounters::default(),
        };
        let old = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5}}",
        )
        .unwrap();
        let new = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5,\
             \"incremental_percentiles\":{\"p50_micros\":1100,\
             \"p95_micros\":1150,\"p99_micros\":1160}}}",
        )
        .unwrap();
        check_regression(&current, &old, 0.15).expect("percentile-less baseline checks");
        check_regression(&current, &new, 0.15).expect("percentile-carrying baseline checks");
    }

    #[test]
    fn gate_ignores_the_fleet_section() {
        // Baselines committed before the distributed fleet was removed
        // still carry a "fleet" key; the gate must check them exactly as
        // it checks fleet-less ones.
        let current = RoutingReport {
            circuit: "ghz".into(),
            iterations: 5,
            reference_median_micros: 9000,
            incremental_median_micros: 1200,
            incremental_min_micros: 1150,
            incremental_percentiles: LatencyPercentiles::default(),
            route: RouteCounters::default(),
        };
        let fleet_less = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5}}",
        )
        .unwrap();
        let fleet_full = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5},\
             \"fleet\":{\"workers\":2,\"jobs\":8,\"peer_hit_ratio\":0.5}}",
        )
        .unwrap();
        check_regression(&current, &fleet_less, 0.15).expect("fleet-less baseline checks");
        check_regression(&current, &fleet_full, 0.15).expect("fleet-carrying baseline checks");
    }

    #[test]
    fn gate_ignores_the_edits_section() {
        // The edit-storm numbers are trajectory data: baselines with and without an "edits" key must check
        // identically, so CI runs with and without --edits can share
        // checked-in baselines.
        let current = RoutingReport {
            circuit: "ghz".into(),
            iterations: 5,
            reference_median_micros: 9000,
            incremental_median_micros: 1200,
            incremental_min_micros: 1150,
            incremental_percentiles: LatencyPercentiles::default(),
            route: RouteCounters::default(),
        };
        let edit_less = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5}}",
        )
        .unwrap();
        let edit_full = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5},\
             \"edits\":{\"edits\":40,\"edit_median_micros\":1,\"speedup\":900.0}}",
        )
        .unwrap();
        check_regression(&current, &edit_less, 0.15).expect("edit-less baseline checks");
        check_regression(&current, &edit_full, 0.15).expect("edit-carrying baseline checks");
    }

    #[test]
    fn gate_ignores_the_reactor_section() {
        // The connection-capacity numbers are trajectory data too:
        // baselines with and without a "reactor" key must check
        // identically, so CI runs with and without --reactor can share
        // checked-in baselines. The fixture's "reactor" object is an old
        // baseline's, with fields the report no longer writes.
        let current = RoutingReport {
            circuit: "ghz".into(),
            iterations: 5,
            reference_median_micros: 9000,
            incremental_median_micros: 1200,
            incremental_min_micros: 1150,
            incremental_percentiles: LatencyPercentiles::default(),
            route: RouteCounters::default(),
        };
        let reactor_less = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5}}",
        )
        .unwrap();
        let reactor_full = Value::parse(
            "{\"routing\":{\"incremental_median_micros\":1100,\
             \"incremental_min_micros\":1100,\"speedup\":7.5},\
             \"reactor\":{\"threaded_connections\":64,\
             \"reactor_connections\":1280,\"capacity_ratio\":20}}",
        )
        .unwrap();
        check_regression(&current, &reactor_less, 0.15).expect("reactor-less baseline checks");
        check_regression(&current, &reactor_full, 0.15).expect("reactor-carrying baseline checks");
    }

    #[test]
    fn edit_speedup_is_full_over_edit() {
        let e = EditReport {
            edits: 10,
            edit_median_micros: 4,
            edit_percentiles: LatencyPercentiles::default(),
            full_median_micros: 30,
        };
        assert!((e.speedup() - 7.5).abs() < 1e-12);
        let zero = EditReport {
            edit_median_micros: 0,
            ..e
        };
        assert_eq!(zero.speedup(), 0.0);
    }

    #[test]
    fn speedup_is_reference_over_incremental() {
        let r = RoutingReport {
            circuit: "ghz".into(),
            iterations: 1,
            reference_median_micros: 10,
            incremental_median_micros: 4,
            incremental_min_micros: 4,
            incremental_percentiles: LatencyPercentiles::default(),
            route: RouteCounters::default(),
        };
        assert!((r.speedup() - 2.5).abs() < 1e-12);
        let zero = RoutingReport {
            incremental_median_micros: 0,
            ..r
        };
        assert_eq!(zero.speedup(), 0.0);
    }
}
