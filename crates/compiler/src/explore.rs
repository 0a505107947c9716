//! Design-space exploration: the paper's third contribution is that the
//! compiler "enables a richer set of space vs. time tradeoffs compared to
//! prior work which handpicks certain space-time configurations" (§I).
//!
//! Every sweep goes through one runner: [`explore_session`] compiles a
//! circuit across a grid of routing-path and factory counts on
//! `ftqc-service`'s worker pool, answering repeats from a caller-owned
//! whole-job cache and sharing stage artifacts through a caller-owned
//! [`StageCache`]. [`explore`] is that runner on one worker with fresh
//! caches, and [`explore_targets`] feeds it one option list per hardware
//! target. [`pareto_front`] filters the results to the
//! qubit/time-Pareto-optimal machines a hardware designer would choose
//! from; [`best_by_volume`] picks the single spacetime-volume optimum (the
//! quantity minimised in Fig 9).

use crate::error::CompileError;
use crate::metrics::Metrics;
use crate::options::CompilerOptions;
use crate::session::{CompileSession, StageCache, DEFAULT_STAGE_CACHE_CAPACITY};
use ftqc_arch::TargetSpec;
use ftqc_circuit::Circuit;
use ftqc_service::{fingerprint, SharedCache, WorkerPool, DEFAULT_CACHE_CAPACITY};

/// One evaluated machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Routing paths of the layout.
    pub routing_paths: u32,
    /// Distillation factories.
    pub factories: u32,
    /// The compiled metrics.
    pub metrics: Metrics,
}

impl DesignPoint {
    /// Total qubits of this configuration.
    pub fn qubits(&self) -> u32 {
        self.metrics.total_qubits()
    }

    /// Execution time in `d` units.
    pub fn time_d(&self) -> f64 {
        self.metrics.execution_time.as_d()
    }

    /// Spacetime volume (including factories), qubit·d.
    pub fn volume(&self) -> f64 {
        self.metrics.spacetime_volume(true)
    }
}

/// Compiles `circuit` for every combination of `routing_paths` ×
/// `factories`, skipping combinations whose layout is invalid for this
/// register size: [`explore_session`] on one worker with fresh caches.
///
/// # Errors
///
/// Returns the first compile failure in grid order; invalid-layout
/// combinations are silently skipped (e.g. `r > 2L+2`). Returns an empty
/// vector only if every combination was skipped.
pub fn explore(
    circuit: &Circuit,
    routing_paths: &[u32],
    factories: &[u32],
    base: &CompilerOptions,
) -> Result<Vec<DesignPoint>, CompileError> {
    explore_session(
        circuit,
        routing_paths,
        factories,
        base,
        1,
        &SharedCache::in_memory(DEFAULT_CACHE_CAPACITY),
        &StageCache::new(DEFAULT_STAGE_CACHE_CAPACITY),
    )
}

/// The `(routing_paths, factories)` combinations a grid sweep visits, in
/// visit order (routing paths outer, factories inner).
fn sweep_grid(circuit: &Circuit, routing_paths: &[u32], factories: &[u32]) -> Vec<(u32, u32)> {
    let max_r = ftqc_arch::Layout::max_routing_paths(circuit.num_qubits());
    let mut combos = Vec::new();
    for &r in routing_paths {
        if r < 2 || r > max_r {
            continue;
        }
        for &f in factories {
            combos.push((r, f));
        }
    }
    combos
}

/// The sweep runner: compiles `circuit` under every option set of
/// `work`, fanned across `workers` threads through `ftqc-service`'s
/// deterministic worker pool.
///
/// Each point is keyed with [`fingerprint::job_key`]; repeats are answered
/// from `cache`, and misses compile through a [`CompileSession`] on
/// `stages`, so the grid shares one prepare/lower pass and a sweep varying
/// only scheduling knobs reuses the routed ops. Points come back in `work`
/// order whatever the thread interleaving: artifacts are pure functions of
/// their keys, so workers racing on either cache cannot change the
/// outcome.
fn run_sweep(
    circuit: &Circuit,
    work: Vec<CompilerOptions>,
    workers: usize,
    cache: &SharedCache<Metrics>,
    stages: &StageCache,
) -> Result<Vec<DesignPoint>, CompileError> {
    let circuit_fp = fingerprint::fingerprint_circuit(circuit);
    let results = WorkerPool::new(workers).run(work, |options| {
        let key = fingerprint::job_key(circuit_fp, &options);
        let routing_paths = options.target.routing_paths();
        let factories = options.target.factories;
        let metrics = match cache.get(key) {
            Some(hit) => hit.value,
            None => {
                let program = CompileSession::new(options)
                    .with_cache(stages.clone())
                    .compile(circuit)
                    .map_err(CompileError::into_root)?;
                cache.insert(key, *program.metrics());
                *program.metrics()
            }
        };
        Ok(DesignPoint {
            routing_paths,
            factories,
            metrics,
        })
    });
    // collect() surfaces the first error in work-list order — the same
    // error a serial sweep would have stopped at.
    results.into_iter().collect()
}

/// [`explore`] on `workers` threads against caller-owned caches: repeated
/// sweeps (resource estimators, interactive frontends, the `ftqc sweep`
/// CLI, the server's `POST /v1/sweep`) are answered from `cache` instead
/// of recompiled, and misses reuse stage artifacts from `stages`. Same
/// arguments, same skip rules, and exactly the same result vector as
/// [`explore`] at any worker count.
///
/// Cache keys are content-addressed over the canonical circuit and the
/// full option set ([`fingerprint::job_key`]), so a hit is only possible
/// when both match exactly.
///
/// # Errors
///
/// As [`explore`]: the first compile failure in grid order.
pub fn explore_session(
    circuit: &Circuit,
    routing_paths: &[u32],
    factories: &[u32],
    base: &CompilerOptions,
    workers: usize,
    cache: &SharedCache<Metrics>,
    stages: &StageCache,
) -> Result<Vec<DesignPoint>, CompileError> {
    let work = sweep_grid(circuit, routing_paths, factories)
        .into_iter()
        .map(|(r, f)| base.clone().routing_paths(r).factories(f))
        .collect();
    run_sweep(circuit, work, workers, cache, stages)
}

/// One target's slice of a cross-target sweep: its design points in grid
/// order and their qubit/time Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSweep {
    /// The target's label (preset name or a caller-chosen tag).
    pub name: String,
    /// The target's canonical digest ([`crate::codec::target_digest`]).
    pub digest: u64,
    /// Every evaluated grid point, in grid order.
    pub points: Vec<DesignPoint>,
    /// The qubit/time Pareto front of `points`, sorted by qubit count.
    pub front: Vec<DesignPoint>,
}

/// The exact option sets a cross-target sweep visits for one target — the
/// work-list [`explore_targets`] hands the sweep runner, in order.
///
/// Targets with a pinned bus (explicit masks, [`fixed_bus`] presets) keep
/// their own provisioning and sweep only the factory axis; routing-path
/// families sweep the full `routing_paths × factories` grid. Targets the
/// circuit cannot run on — capability violations (qubit cap,
/// Clifford-only, zero or too many factories) or a pinned layout that does
/// not fit — contribute no entries, mirroring [`explore`]'s silent skip of
/// invalid grid combinations, so one impossible target never sinks the
/// rest of a cross-target sweep.
///
/// [`fixed_bus`]: ftqc_arch::Capabilities::fixed_bus
pub fn target_sweep_options(
    circuit: &Circuit,
    spec: &TargetSpec,
    routing_paths: &[u32],
    factories: &[u32],
    base: &CompilerOptions,
) -> Vec<CompilerOptions> {
    if spec
        .validate(circuit.num_qubits(), circuit.t_count() as u64)
        .is_err()
    {
        return Vec::new();
    }
    let with_target = base.clone().target(spec.clone());
    if spec.bus_is_pinned() {
        if spec.build_layout(circuit.num_qubits()).is_err() {
            return Vec::new();
        }
        factories
            .iter()
            .map(|&f| with_target.clone().factories(f))
            .collect()
    } else {
        sweep_grid(circuit, routing_paths, factories)
            .into_iter()
            .map(|(r, f)| with_target.clone().routing_paths(r).factories(f))
            .collect()
    }
}

/// Cross-target design-space exploration: one sweep per named target, all
/// run as a single work-list through the sweep runner, sharing one metrics
/// cache and one [`StageCache`]. The circuit prepares and lowers once for
/// every target (those stages are target-independent), each target's grid
/// points route under its own layout/timing, and every target comes back
/// with its grid points plus its qubit/time Pareto front.
///
/// Results are byte-identical to compiling each target's
/// [`target_sweep_options`] serially in order.
///
/// # Errors
///
/// As [`explore`]: the first compile failure in work-list order.
#[allow(clippy::too_many_arguments)]
pub fn explore_targets(
    circuit: &Circuit,
    targets: &[(String, TargetSpec)],
    routing_paths: &[u32],
    factories: &[u32],
    base: &CompilerOptions,
    workers: usize,
    cache: &SharedCache<Metrics>,
    stages: &StageCache,
) -> Result<Vec<TargetSweep>, CompileError> {
    let per_target: Vec<Vec<CompilerOptions>> = targets
        .iter()
        .map(|(_, spec)| target_sweep_options(circuit, spec, routing_paths, factories, base))
        .collect();
    let counts: Vec<usize> = per_target.iter().map(Vec::len).collect();
    let work = per_target.into_iter().flatten().collect();
    let mut points = run_sweep(circuit, work, workers, cache, stages)?.into_iter();
    Ok(targets
        .iter()
        .zip(counts)
        .map(|((name, spec), count)| {
            let points: Vec<DesignPoint> = points.by_ref().take(count).collect();
            TargetSweep {
                name: name.clone(),
                digest: crate::codec::target_digest(spec),
                front: pareto_front(&points),
                points,
            }
        })
        .collect())
}

/// Filters to the Pareto front over `(qubits, execution time)`: a point
/// survives iff no other point is at least as good in both dimensions and
/// strictly better in one. The result is sorted by ascending qubit count.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut front: Vec<DesignPoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                let leq = q.qubits() <= p.qubits() && q.time_d() <= p.time_d();
                let strict = q.qubits() < p.qubits() || q.time_d() < p.time_d();
                leq && strict
            })
        })
        .copied()
        .collect();
    front.sort_by_key(|p| (p.qubits(), p.metrics.execution_time));
    front.dedup_by_key(|p| (p.qubits(), p.metrics.execution_time));
    front
}

/// The single point minimising spacetime volume (including factories).
/// Returns `None` for an empty slice.
pub fn best_by_volume(points: &[DesignPoint]) -> Option<DesignPoint> {
    points
        .iter()
        .min_by(|a, b| a.volume().total_cmp(&b.volume()))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;
    use ftqc_arch::Ticks;

    fn point(r: u32, f: u32, qubits: u32, time_d: f64) -> DesignPoint {
        let mut metrics = Metrics {
            execution_time: Ticks::from_d(time_d),
            unit_cost_time: Ticks::from_d(time_d),
            lower_bound: Ticks::from_d(1.0),
            grid_patches: qubits,
            factory_patches: 0,
            routing_paths: r,
            factories: f,
            n_gates: 10,
            n_surgery_ops: 10,
            n_moves: 0,
            n_moves_eliminated: 0,
            n_magic_states: 1,
            route: ftqc_route::RouteCounters::default(),
        };
        metrics.factory_patches = 0;
        DesignPoint {
            routing_paths: r,
            factories: f,
            metrics,
        }
    }

    #[test]
    fn pareto_drops_dominated_points() {
        let pts = vec![
            point(2, 1, 100, 50.0),
            point(4, 1, 120, 40.0),
            point(6, 1, 150, 45.0), // dominated by (120, 40)
            point(8, 1, 200, 30.0),
        ];
        let front = pareto_front(&pts);
        let qubits: Vec<u32> = front.iter().map(|p| p.qubits()).collect();
        assert_eq!(qubits, vec![100, 120, 200]);
    }

    #[test]
    fn pareto_keeps_all_when_none_dominated() {
        let pts = vec![point(2, 1, 100, 50.0), point(4, 1, 200, 25.0)];
        assert_eq!(pareto_front(&pts).len(), 2);
    }

    #[test]
    fn best_by_volume_picks_minimum() {
        let pts = vec![
            point(2, 1, 100, 50.0), // 5000
            point(4, 1, 120, 40.0), // 4800
            point(8, 1, 200, 30.0), // 6000
        ];
        let best = best_by_volume(&pts).unwrap();
        assert_eq!(best.qubits(), 120);
        assert!(best_by_volume(&[]).is_none());
    }

    #[test]
    fn explore_session_matches_serial_and_reuses_stages() {
        use ftqc_circuit::Circuit;
        use ftqc_service::SharedCache;
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q).t(q);
        }
        c.cnot(0, 1).cnot(2, 3);
        let base = CompilerOptions::default();
        let serial = explore(&c, &[2, 4], &[1, 2], &base).expect("serial");
        let cache = SharedCache::in_memory(64);
        let stages = StageCache::new(64);
        let staged =
            explore_session(&c, &[2, 4], &[1, 2], &base, 3, &cache, &stages).expect("staged");
        assert_eq!(staged, serial);
        let stats = stages.stats();
        // Four grid points share one circuit: prepare/lower computed once
        // (modulo benign recompute races), routing per grid point.
        assert_eq!(stats.prepare.insertions + stats.prepare.hits, 4);
        assert!(stats.prepare.hits >= 1, "front end reused: {stats:?}");
        assert_eq!(stats.map.misses, 4, "each grid point routes once");
    }

    #[test]
    fn explore_targets_matches_per_target_serial() {
        use ftqc_circuit::Circuit;
        use ftqc_service::SharedCache;
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q).t(q);
        }
        c.cnot(0, 1).cnot(2, 3);
        let base = CompilerOptions::default();
        let targets = vec![
            ("paper".to_string(), TargetSpec::paper()),
            ("sparse".to_string(), TargetSpec::sparse()),
            ("fast-d".to_string(), TargetSpec::fast_d()),
        ];
        let cache = SharedCache::in_memory(128);
        let stages = StageCache::new(128);
        let sweeps = explore_targets(&c, &targets, &[2, 4], &[1, 2], &base, 3, &cache, &stages)
            .expect("sweeps");
        assert_eq!(sweeps.len(), 3);
        // Byte-for-byte equal to compiling each target's options serially.
        for ((name, spec), sweep) in targets.iter().zip(&sweeps) {
            assert_eq!(&sweep.name, name);
            assert_eq!(sweep.digest, crate::codec::target_digest(spec));
            let serial: Vec<DesignPoint> = target_sweep_options(&c, spec, &[2, 4], &[1, 2], &base)
                .into_iter()
                .map(|o| {
                    let r = o.target.routing_paths();
                    let f = o.target.factories;
                    let metrics = *Compiler::new(o).compile(&c).expect("serial").metrics();
                    DesignPoint {
                        routing_paths: r,
                        factories: f,
                        metrics,
                    }
                })
                .collect();
            assert_eq!(sweep.points, serial, "target {name}");
            assert_eq!(sweep.front, pareto_front(&serial));
        }
        // The sparse target pins its bus: factories axis only.
        assert_eq!(sweeps[1].points.len(), 2);
        assert!(sweeps[1].points.iter().all(|p| p.routing_paths == 2));
        // Family targets sweep the full grid.
        assert_eq!(sweeps[0].points.len(), 4);
        // One shared front end across all targets: prepare/lower computed
        // once (modulo benign recompute races).
        let stats = stages.stats();
        assert!(stats.prepare.hits >= 1, "front end shared: {stats:?}");
    }

    #[test]
    fn explore_on_real_circuit() {
        use ftqc_circuit::Circuit;
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
            c.t(q);
        }
        c.cnot(0, 1).cnot(4, 5);
        let pts =
            explore(&c, &[2, 4, 6, 99], &[1, 2], &CompilerOptions::default()).expect("compiles");
        // r=99 is invalid for 9 qubits (max 2*3+2=8) and silently skipped.
        assert_eq!(pts.len(), 6);
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        // Front is sorted and strictly improving in time as qubits grow.
        for w in front.windows(2) {
            assert!(w[0].qubits() < w[1].qubits());
            assert!(w[0].time_d() > w[1].time_d());
        }
        let best = best_by_volume(&pts).unwrap();
        assert!(pts.iter().any(|p| p.volume() >= best.volume()));
    }
}
