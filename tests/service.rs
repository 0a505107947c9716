//! Integration tests for the batch-compilation service (ISSUE 1 acceptance
//! criteria): every sweep entry point is bit-identical to a serial
//! per-point compile loop, repeated sweeps and batches are served entirely
//! from cache, and cache keys are sensitive to every input that can change
//! a compile result.

use ftqc::arch::TargetSpec;
use ftqc::benchmarks::ising_2d;
use ftqc::compiler::{
    explore, explore_session, explore_targets, pareto_front, Compiler, CompilerOptions,
    DesignPoint, Metrics, StageCache,
};
use ftqc::service::json::ToJson;
use ftqc::service::{
    fingerprint, parse_jobs, BatchConfig, BatchService, CacheProvenance, CircuitSource, CompileJob,
    SharedCache, StageOutcome,
};
use ftqc_circuit::{parse_qasm, Circuit};

fn test_circuit() -> Circuit {
    let mut c = Circuit::new(9);
    for q in 0..9 {
        c.h(q);
        c.t(q);
    }
    c.cnot(0, 1).cnot(3, 4).cnot(7, 8).t(4);
    c
}

/// (a) every sweep entry point — `explore`, `explore_session` at any
/// worker count, and `explore_targets` over the paper target — produces
/// exactly the design points of a serial per-point `Compiler::compile`
/// loop: same points, same order, and therefore the same Pareto front.
#[test]
fn parallel_explore_equals_serial() {
    let circuit = test_circuit();
    let rs = [2u32, 4, 6, 8, 99]; // 99 is invalid for 9 qubits and skipped
    let fs = [1u32, 2, 3];
    let base = CompilerOptions::default();
    let mut oracle = Vec::new();
    for r in [2u32, 4, 6, 8] {
        for &f in &fs {
            let options = base.clone().routing_paths(r).factories(f);
            let program = Compiler::new(options).compile(&circuit).expect("compiles");
            oracle.push(DesignPoint {
                routing_paths: r,
                factories: f,
                metrics: *program.metrics(),
            });
        }
    }
    assert_eq!(oracle.len(), 12, "four valid r values × three f values");

    let serial = explore(&circuit, &rs, &fs, &base).expect("explore");
    assert_eq!(serial, oracle, "explore must equal the per-point loop");
    for workers in [1, 2, 4] {
        let cache = SharedCache::in_memory(64);
        let stages = StageCache::new(64);
        let swept = explore_session(&circuit, &rs, &fs, &base, workers, &cache, &stages)
            .expect("explore_session");
        assert_eq!(swept, oracle, "result set must match at {workers} workers");
        assert_eq!(
            pareto_front(&swept),
            pareto_front(&oracle),
            "Pareto front must match at {workers} workers"
        );
    }
    let targets = [("paper".to_string(), TargetSpec::paper())];
    let sweeps = explore_targets(
        &circuit,
        &targets,
        &rs,
        &fs,
        &base,
        2,
        &SharedCache::in_memory(64),
        &StageCache::new(64),
    )
    .expect("explore_targets");
    assert_eq!(sweeps.len(), 1);
    assert_eq!(sweeps[0].points, oracle, "the paper target's grid");
    assert_eq!(sweeps[0].front, pareto_front(&oracle));
}

/// (b) a second identical sweep against the same cache compiles nothing:
/// every lookup hits, and the design points are identical.
#[test]
fn repeated_sweep_is_served_from_cache() {
    let circuit = test_circuit();
    let rs = [2u32, 4, 6];
    let fs = [1u32, 2];
    let base = CompilerOptions::default();
    let cache: SharedCache<Metrics> = SharedCache::in_memory(1024);
    let stages = StageCache::new(64);

    let first =
        explore_session(&circuit, &rs, &fs, &base, 4, &cache, &stages).expect("first sweep");
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "cold cache");
    assert_eq!(stats.misses as usize, first.len());

    let second =
        explore_session(&circuit, &rs, &fs, &base, 4, &cache, &stages).expect("second sweep");
    assert_eq!(second, first, "cache must reproduce identical metrics");
    let stats = cache.stats();
    assert_eq!(
        stats.hits as usize,
        first.len(),
        "second sweep must be 100% cache hits"
    );
    assert_eq!(stats.misses as usize, first.len(), "no new misses");
    assert_eq!(stats.insertions as usize, first.len(), "nothing recompiled");
}

/// (b′) the same guarantee at the batch-service level, via the JSONL job
/// model: a repeated batch reports every job as a memory hit with metrics
/// equal to the first run.
#[test]
fn repeated_batch_is_all_cache_hits() {
    let jsonl = r#"
{"id":"r2","source":{"benchmark":"ising","size":2},"options":{"routing_paths":2}}
{"id":"r4","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}
{"id":"r4f2","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4,"factories":2}}
"#;
    let service: BatchService<Metrics> = BatchService::new(BatchConfig {
        workers: 3,
        ..BatchConfig::default()
    })
    .expect("service");
    let resolve = |source: &CircuitSource| match source {
        CircuitSource::Benchmark { size: Some(l), .. } => Ok(ising_2d(*l)),
        other => Err(format!("unsupported source {other}")),
    };
    let compile = |circuit: &Circuit, job: &CompileJob<CompilerOptions>| {
        Compiler::new(job.options.clone())
            .compile(circuit)
            .map(|p| StageOutcome::complete(*p.metrics()))
            .map_err(|e| e.to_string())
    };

    let jobs = || parse_jobs::<CompilerOptions>(jsonl).expect("jobs parse");
    let first = service.run(jobs(), resolve, compile);
    assert!(first.iter().all(|r| r.is_ok()));
    assert!(first
        .iter()
        .all(|r| r.provenance == CacheProvenance::Computed));

    let second = service.run(jobs(), resolve, compile);
    assert_eq!(second.len(), first.len());
    for (f, s) in first.iter().zip(&second) {
        assert_eq!(s.provenance, CacheProvenance::MemoryHit, "job {}", s.id);
        assert_eq!(
            s.metrics, f.metrics,
            "job {} metrics must be identical",
            s.id
        );
        assert_eq!(s.fingerprint, f.fingerprint);
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 3);
}

/// (c) cache keys distinguish circuits differing in a single gate and
/// options differing in a single field.
#[test]
fn fingerprints_distinguish_close_inputs() {
    // One-gate circuit difference (same width, same gate count).
    let mut a = Circuit::new(4);
    a.h(0).t(1).cnot(1, 2);
    let mut b = Circuit::new(4);
    b.h(0).t(2).cnot(1, 2); // t moved one qubit over
    let fa = fingerprint::fingerprint_circuit(&a);
    let fb = fingerprint::fingerprint_circuit(&b);
    assert_ne!(fa, fb, "one-gate circuit difference must change the key");

    // Same circuit through different construction paths keys identically.
    let qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\nt q[1];\ncx q[1],q[2];\n";
    let reparsed = parse_qasm(qasm).expect("valid qasm");
    assert_eq!(
        fingerprint::fingerprint_circuit(&reparsed),
        fa,
        "identical gates from QASM must key identically"
    );

    // One-field option differences, including nested timing fields.
    let base = CompilerOptions::default();
    let base_fp = fingerprint::fingerprint_value(&base.to_json());
    let variants = [
        base.clone().routing_paths(5),
        base.clone().factories(2),
        base.clone().lookahead(false),
        base.clone().eliminate_redundant_moves(false),
        base.clone().penalty_weight(7),
        base.clone().optimize(true),
        base.clone().unbounded_magic(true),
        base.clone()
            .magic_production(ftqc::arch::Ticks::from_d(5.0)),
    ];
    let mut keys = vec![base_fp];
    for options in &variants {
        let fp = fingerprint::fingerprint_value(&options.to_json());
        assert!(
            !keys.contains(&fp),
            "option variant {options:?} collided with an earlier key"
        );
        keys.push(fp);
    }

    // And the combined (circuit, options) key separates both axes.
    let k_aa = fingerprint::combine(fa, base_fp);
    let k_ba = fingerprint::combine(fb, base_fp);
    let k_ab = fingerprint::combine(fa, keys[1]);
    assert_ne!(k_aa, k_ba);
    assert_ne!(k_aa, k_ab);
}

/// Full-stack smoke test of the JSONL round trip: jobs parse, run, render,
/// and the rendered results parse back with matching payloads.
#[test]
fn jsonl_roundtrip_through_service() {
    use ftqc::service::{render_results, JobResult};

    let jsonl = r#"{"source":{"benchmark":"ising","size":2}}"#;
    let jobs = parse_jobs::<CompilerOptions>(jsonl).expect("parse");
    assert_eq!(jobs[0].id, "job-1");
    assert_eq!(jobs[0].options, CompilerOptions::default());

    let service: BatchService<Metrics> =
        BatchService::new(BatchConfig::default()).expect("service");
    let results = service.run(
        jobs,
        |_| Ok(ising_2d(2)),
        |circuit, job: &CompileJob<CompilerOptions>| {
            Compiler::new(job.options.clone())
                .compile(circuit)
                .map(|p| StageOutcome::complete(*p.metrics()))
                .map_err(|e| e.to_string())
        },
    );
    let rendered = render_results(&results);
    let line = rendered.lines().next().expect("one line");
    let value = ftqc::service::Value::parse(line).expect("valid json");
    let back: JobResult<Metrics> = ftqc::service::FromJson::from_json(&value).expect("decodes");
    assert_eq!(back, results[0]);
}
