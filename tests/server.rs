//! Loopback integration tests for the HTTP compile server (ISSUE 2
//! acceptance criteria): N concurrent clients receive byte-identical
//! results to serial local compilation, a repeat pass is served
//! entirely from the shared cache, and `/metrics` counters match the
//! request mix.

use ftqc::circuit::Gate;
use ftqc::compiler::{explore, pareto_front, Compiler, CompilerOptions, Metrics};
use ftqc::editor::{CircuitEdit, EditSet};
use ftqc::server::{Client, ClientError, Server, ServerConfig, ShutdownHandle, SweepRequest};
use ftqc::service::json::{FromJson, ToJson};
use ftqc::service::{fingerprint, CircuitSource, CompileJob, JobResult, JobStatus};
use std::time::Duration;

/// Starts a server on an ephemeral loopback port; returns the client
/// address, the shutdown handle, and the join handle for the run thread.
fn spawn_server(
    config: ServerConfig,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<ftqc::server::ServerReport>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle().expect("shutdown handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// The job grid: one circuit across eight (routing_paths, factories)
/// configurations, ids "r<r>f<f>".
fn grid_jobs() -> Vec<CompileJob<CompilerOptions>> {
    let mut jobs = Vec::new();
    for r in [2u32, 3, 4, 5] {
        for f in [1u32, 2] {
            jobs.push(CompileJob::new(
                format!("r{r}f{f}"),
                CircuitSource::Benchmark {
                    name: "ising".into(),
                    size: Some(2),
                },
                CompilerOptions::default().routing_paths(r).factories(f),
            ));
        }
    }
    jobs
}

/// Serial reference results: each job's whole-job cache key and a local
/// compile — the ground truth the served responses must reproduce
/// byte-for-byte.
fn serial_reference(jobs: &[CompileJob<CompilerOptions>]) -> Vec<(u64, Metrics)> {
    let circuit = ftqc::benchmarks::ising_2d(2);
    let circuit_fp = fingerprint::fingerprint_circuit(&circuit);
    jobs.iter()
        .map(|job| {
            let key = fingerprint::job_key(circuit_fp, &job.options);
            let program = Compiler::new(job.options.clone())
                .compile(&circuit)
                .expect("serial compile");
            (key, *program.metrics())
        })
        .collect()
}

/// Fans `jobs` across `threads` concurrent clients; results come back in
/// job order.
fn compile_concurrently(
    addr: &str,
    jobs: &[CompileJob<CompilerOptions>],
    threads: usize,
) -> Vec<JobResult<Metrics>> {
    let mut slots: Vec<Option<JobResult<Metrics>>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let chunks: Vec<_> = jobs.chunks(jobs.len().div_ceil(threads)).collect();
        let mut offset = 0;
        let mut handles = Vec::new();
        for chunk in chunks {
            let client = Client::new(addr.to_string());
            handles.push((
                offset,
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|job| client.compile(job).expect("compile request"))
                        .collect::<Vec<_>>()
                }),
            ));
            offset += chunk.len();
        }
        for (offset, handle) in handles {
            for (i, result) in handle
                .join()
                .expect("client thread")
                .into_iter()
                .enumerate()
            {
                slots[offset + i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("all jobs ran"))
        .collect()
}

#[test]
fn concurrent_clients_match_serial_and_hit_cache_on_repeat() {
    let dir = std::env::temp_dir().join("ftqc-server-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("server-cache.json");
    let _ = std::fs::remove_file(&cache_file);

    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.clone());
    let jobs = grid_jobs();
    let reference = serial_reference(&jobs);

    // First pass: 8 jobs across 4 concurrent clients, all computed fresh.
    let first = compile_concurrently(&addr, &jobs, 4);
    assert_eq!(first.len(), jobs.len());
    for ((job, result), (key, metrics)) in jobs.iter().zip(&first).zip(&reference) {
        assert_eq!(result.id, job.id);
        assert!(result.is_ok(), "{} failed: {:?}", job.id, result.status);
        assert_eq!(
            result.fingerprint, *key,
            "{}: served fingerprint must equal the local job key",
            job.id
        );
        let served = result.metrics.as_ref().expect("ok result has metrics");
        assert_eq!(
            served.to_json().render(),
            metrics.to_json().render(),
            "{}: served metrics must be byte-identical to a serial compile",
            job.id
        );
    }

    // Repeat pass: the same mix from 4 fresh clients is 100% cache hits
    // with identical payloads.
    let second = compile_concurrently(&addr, &jobs, 4);
    for (f, s) in first.iter().zip(&second) {
        assert!(
            s.provenance.is_hit(),
            "{} repeat must be served from cache, got {:?}",
            s.id,
            s.provenance
        );
        assert_eq!(
            s.metrics, f.metrics,
            "{}: hit must reproduce the miss",
            s.id
        );
        assert_eq!(s.fingerprint, f.fingerprint);
    }
    let stats = client.cache_stats().expect("cache stats");
    assert_eq!(stats.misses, 8, "first pass compiled every job once");
    assert_eq!(stats.hits, 8, "repeat pass was 100% cache hits");
    assert_eq!(stats.insertions, 8);

    // /metrics counters match the request mix: 16 compiles + the
    // cache-stats probe above (the /metrics request itself is counted when
    // it finishes, i.e. in the *next* scrape).
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.get("status").and_then(ftqc::service::Value::as_str),
        Some("ok")
    );
    let metrics_text = client.metrics_text().expect("metrics");
    let expect = |line: &str| {
        assert!(
            metrics_text.lines().any(|l| l == line),
            "missing {line:?} in:\n{metrics_text}"
        );
    };
    expect("ftqc_http_requests_total{endpoint=\"compile\"} 16");
    expect("ftqc_http_requests_total{endpoint=\"cache_stats\"} 1");
    expect("ftqc_http_requests_total{endpoint=\"healthz\"} 1");
    expect("ftqc_http_requests_total{endpoint=\"metrics\"} 0");
    expect("ftqc_http_errors_total{endpoint=\"compile\"} 0");
    // The scrape observes itself: it is the one request in flight.
    expect("ftqc_http_in_flight 1");
    expect("ftqc_cache_hits_total 8");
    expect("ftqc_cache_misses_total 8");
    expect("ftqc_jobs_ok_total 16");
    expect("ftqc_jobs_failed_total 0");
    // A second scrape sees the first one counted.
    let metrics_text = client.metrics_text().expect("metrics again");
    assert!(
        metrics_text
            .lines()
            .any(|l| l == "ftqc_http_requests_total{endpoint=\"metrics\"} 1"),
        "the previous /metrics request must now be counted:\n{metrics_text}"
    );

    // Graceful shutdown drains and persists the cache file tier.
    handle.shutdown();
    let report = thread.join().expect("server thread");
    assert_eq!(
        report.requests, 20,
        "16 compiles + stats + healthz + 2 scrapes"
    );
    assert_eq!(report.cache.hits, 8);
    assert_eq!(report.persisted.as_deref(), Some(cache_file.as_path()));
    let persisted = std::fs::read_to_string(&cache_file).expect("persisted cache");
    assert!(
        persisted.contains(&fingerprint::to_hex(reference[0].0)),
        "persisted cache must contain the first job's key"
    );

    // A fresh server over the same cache file answers from the file tier.
    let (addr2, handle2, thread2) = spawn_server(ServerConfig {
        workers: 2,
        cache_file: Some(cache_file),
        ..ServerConfig::default()
    });
    let warm = compile_concurrently(&addr2, &jobs[..1], 1);
    assert!(
        warm[0].provenance.is_hit(),
        "restarted server must answer from the persisted tier, got {:?}",
        warm[0].provenance
    );
    handle2.shutdown();
    thread2.join().expect("second server thread");
}

#[test]
fn batch_and_sweep_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(addr);

    // Batch: malformed lines fail alone, good lines compile.
    let results = client
        .batch(concat!(
            "{\"id\":\"a\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
            "{definitely not json}\n",
            "{\"id\":\"b\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":3}}\n",
        ))
        .expect("batch request");
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert_eq!(results[1].id, "line-2");
    assert!(!results[1].is_ok());
    assert!(results[2].is_ok());

    // Sweep: the served Pareto front equals the locally computed one.
    let circuit = ftqc::benchmarks::ising_2d(2);
    let request = SweepRequest {
        source: CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        },
        routing_paths: vec![2, 3, 4],
        factories: vec![1, 2],
        options: CompilerOptions::default(),
        pareto: true,
        targets: Vec::new(),
    };
    let response = client.sweep(&request).expect("sweep request");
    let local =
        explore(&circuit, &[2, 3, 4], &[1, 2], &CompilerOptions::default()).expect("local explore");
    assert_eq!(
        response.points,
        pareto_front(&local),
        "served Pareto front must equal the local one"
    );
    assert!(response.workers >= 1);
    // The sweep shares the compile cache with the batch endpoint: batch
    // already compiled (r=4,f=1)-defaults and (r=3,f=1), so the sweep's six
    // grid points include hits.
    assert!(
        response.cache.hits >= 2,
        "sweep must reuse batch-warmed cache entries, got {:?}",
        response.cache
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn staged_requests_and_per_stage_counters_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(addr.clone());
    let job = CompileJob::new(
        "warm",
        CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        },
        CompilerOptions::default(),
    );

    // 1. `?stage=map` stops the pipeline: stage named, no metrics.
    let partial = client.compile_staged(&job, "map").expect("staged compile");
    assert!(partial.is_ok(), "got {:?}", partial.status);
    assert_eq!(partial.stage.as_deref(), Some("map"));
    assert!(
        partial.metrics.is_none(),
        "partial results carry no metrics"
    );
    assert_ne!(partial.fingerprint, 0);

    // 2. A full compile of the same job resumes from the warmed stages and
    //    reports the same metrics a cold server would compute.
    let full = client.compile(&job).expect("full compile");
    assert!(full.is_ok());
    let circuit = ftqc::benchmarks::ising_2d(2);
    let expected = Compiler::new(CompilerOptions::default())
        .compile(&circuit)
        .expect("local reference");
    assert_eq!(
        full.metrics.as_ref().unwrap().to_json().render(),
        expected.metrics().to_json().render(),
        "resumed compile must equal a cold local compile"
    );

    // 3. An unknown stage is rejected client-side before a malformed
    //    request target ever hits the wire…
    let err = client
        .compile_staged(&job, "banana")
        .expect_err("unknown stage");
    assert!(err.to_string().contains("unknown stage"), "got {err:?}");
    // …and a raw request that sneaks one through still gets a clean 400.
    {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let body = r#"{"source":{"benchmark":"ising","size":2}}"#;
        stream
            .write_all(
                format!(
                    "POST /v1/compile?stage=banana HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
        let response = ftqc::server::http::read_response(&mut stream).expect("response");
        assert_eq!(response.status, 400);
        assert!(
            response.body_str().unwrap().contains("unknown stage"),
            "got {:?}",
            response.body_str()
        );
    }

    // 4. /v1/cache/stats and /metrics expose the per-stage counters: the
    //    full compile hit prepare/lower/map (warmed by the staged request)
    //    and computed only scheduling.
    let stats_doc = {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"GET /v1/cache/stats HTTP/1.1\r\nhost: x\r\n\r\n")
            .expect("send");
        let response = ftqc::server::http::read_response(&mut stream).expect("response");
        ftqc::service::Value::parse(response.body_str().expect("utf8")).expect("json")
    };
    assert_eq!(
        stats_doc.get("v").and_then(ftqc::service::Value::as_u64),
        Some(1),
        "responses carry the wire version"
    );
    let stages = stats_doc.get("stages").expect("stages object");
    let stage_counter = |stage: &str, field: &str| {
        stages
            .get(stage)
            .and_then(|s| s.get(field))
            .and_then(ftqc::service::Value::as_u64)
            .unwrap_or_else(|| panic!("missing stages.{stage}.{field}"))
    };
    assert_eq!(stage_counter("map", "misses"), 1, "routing ran once");
    assert_eq!(stage_counter("map", "hits"), 1, "full compile reused it");
    assert_eq!(stage_counter("prepare", "hits"), 1);
    assert_eq!(
        stage_counter("schedule", "misses"),
        1,
        "only the full run scheduled"
    );

    let metrics_text = client.metrics_text().expect("metrics");
    for line in [
        "ftqc_stage_cache_hits_total{stage=\"map\"} 1",
        "ftqc_stage_cache_misses_total{stage=\"map\"} 1",
        "ftqc_stage_cache_misses_total{stage=\"schedule\"} 1",
    ] {
        assert!(
            metrics_text.lines().any(|l| l == line),
            "missing {line:?} in:\n{metrics_text}"
        );
    }

    handle.shutdown();
    let report = thread.join().expect("server thread");
    assert_eq!(report.stages.map.misses, 1);
    assert_eq!(report.stages.map.hits, 1);
}

#[test]
fn router_counters_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(addr.clone());

    // Four T gates on one stationary qubit: every delivery after the first
    // searches the same grid shape, so the router reuses its arena.
    let qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nt q[2];\nt q[2];\nt q[2];\nt q[2];\n";
    let source = CircuitSource::QasmInline { qasm: qasm.into() };
    let job = |id: &str, r: u32| {
        CompileJob::new(
            id,
            source.clone(),
            CompilerOptions::default().routing_paths(r),
        )
    };

    let served_router = || {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"GET /v1/cache/stats HTTP/1.1\r\nhost: x\r\n\r\n")
            .expect("send");
        let response = ftqc::server::http::read_response(&mut stream).expect("response");
        let doc = ftqc::service::Value::parse(response.body_str().expect("utf8")).expect("json");
        ftqc::compiler::route_counters_from_json(doc.get("router").expect("router object"))
            .expect("router counters decode")
    };

    // Known compile mix: two jobs that both route (different map keys).
    let first = client.compile(&job("r4", 4)).expect("first compile");
    assert!(first.is_ok(), "got {:?}", first.status);
    let second = client.compile(&job("r3", 3)).expect("second compile");
    assert!(second.is_ok());
    let m1 = first.metrics.as_ref().expect("metrics").route;
    let m2 = second.metrics.as_ref().expect("metrics").route;
    assert!(
        m1.arena_reuses >= 3,
        "repeat deliveries reuse the arena: {m1:?}"
    );
    assert!(m2.arena_reuses >= 3, "got {m2:?}");

    // /v1/cache/stats exposes exactly the mix's cumulative counters.
    let after_two = served_router();
    assert_eq!(
        after_two,
        m1.merged(m2),
        "served router counters must equal the sum over the compile mix"
    );

    // A *repeat* of the same job answers from the cache without routing —
    // the counters stand still, which is the point of the stage cache…
    let repeat = client.compile(&job("r4", 4)).expect("repeat compile");
    assert!(repeat.provenance.is_hit(), "got {:?}", repeat.provenance);
    assert_eq!(
        repeat.metrics.as_ref().expect("metrics").route,
        m1,
        "cached metrics carry the original compile's router counters"
    );
    assert_eq!(served_router(), m1.merged(m2));

    // …while a third routed compile grows them.
    let third = client.compile(&job("r5", 5)).expect("third compile");
    assert!(third.is_ok());
    let m3 = third.metrics.as_ref().expect("metrics").route;
    assert!(m3.arena_reuses >= 3, "got {m3:?}");
    let after_three = served_router();
    assert_eq!(after_three, m1.merged(m2).merged(m3));
    assert!(after_three.arena_reuses > after_two.arena_reuses);

    // /metrics renders the same cumulative counter as Prometheus text.
    let metrics_text = client.metrics_text().expect("metrics");
    let line = format!("ftqc_route_arena_reuses_total {}", after_three.arena_reuses);
    assert!(
        metrics_text.lines().any(|l| l == line),
        "missing {line:?} in:\n{metrics_text}"
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

/// Benchmark names outside the Table I suite — including the synthetic
/// `magic-rounds`/`cnot-bricks` workloads that used to resolve, with a
/// size their generators asserted against — fail their own job with a
/// typed resolve error instead of panicking the handler, and the other
/// lines of a batch still compile.
#[test]
fn unknown_benchmarks_fail_per_job_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(addr);

    for name in ["magic-rounds", "cnot-bricks"] {
        let expected = format!("cannot resolve {name}:0: no such benchmark");
        let job = format!("{{\"source\":{{\"benchmark\":\"{name}\",\"size\":0}}}}");
        let doc = client
            .post_value(
                "/v1/compile",
                &ftqc::service::Value::parse(&job).expect("json"),
            )
            .expect("a per-job result, not an HTTP error");
        let status = doc.get("status").and_then(|s| s.as_str()).expect("status");
        assert!(
            status.starts_with(&format!("failed: {expected}")),
            "{name}: got {status:?}"
        );

        let results = client
            .batch(&format!(
                "{{\"id\":\"before\",\"source\":{{\"benchmark\":\"ising\",\"size\":2}}}}\n\
                 {{\"id\":\"gone\",\"source\":{{\"benchmark\":\"{name}\",\"size\":0}}}}\n\
                 {{\"id\":\"after\",\"source\":{{\"benchmark\":\"ising\",\"size\":2}},\
                 \"options\":{{\"routing_paths\":3}}}}\n"
            ))
            .expect("batch request");
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["before", "gone", "after"]);
        assert!(results[0].is_ok(), "{name}: got {:?}", results[0].status);
        assert!(
            matches!(&results[1].status, JobStatus::Failed(e) if e.starts_with(&expected)),
            "{name}: got {:?}",
            results[1].status
        );
        assert!(results[2].is_ok(), "{name}: got {:?}", results[2].status);
    }
    assert!(client.healthz().is_ok());

    handle.shutdown();
    thread.join().expect("server thread");
}

/// A program past the qubit cap fails its own job with the typed cap
/// error instead of aborting the server on a layout or generator
/// allocation, and a program at the cap compiles under interaction-aware
/// placement, whose interaction graph grows with the gates, not `n²`.
#[test]
fn over_cap_programs_fail_per_job_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let client = Client::new(addr);
    let qasm = |qubits: u64| {
        format!(
            "{{\"qasm\":\"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[{qubits}];\\ncx \
             q[0],q[1];\\n\"}}"
        )
    };
    let cap = ftqc::arch::MAX_QUBITS;
    let refusal =
        |qubits: u64| format!("program needs {qubits} data qubits but at most {cap} are supported");
    for (source, options, expected) in [
        (qasm(4_000_000_000), "{}", refusal(4_000_000_000)),
        (
            qasm(u64::from(cap) + 1),
            r#"{"mapping":"interaction"}"#,
            refusal(u64::from(cap) + 1),
        ),
        (
            r#"{"benchmark":"ising","size":100000}"#.to_string(),
            "{}",
            format!("ising:100000: {}", refusal(10_000_000_000)),
        ),
        (
            qasm(u64::from(cap)),
            r#"{"mapping":"interaction"}"#,
            String::new(),
        ),
    ] {
        let job = format!("{{\"id\":\"huge\",\"source\":{source},\"options\":{options}}}");
        let doc = client
            .post_value(
                "/v1/compile",
                &ftqc::service::Value::parse(&job).expect("json"),
            )
            .expect("a per-job result, not an HTTP error");
        let status = doc.get("status").and_then(|s| s.as_str()).expect("status");
        if expected.is_empty() {
            assert_eq!(status, "ok", "the at-cap program compiles");
        } else {
            assert!(
                status.starts_with("failed: ") && status.contains(&expected),
                "got {status:?}"
            );
        }
        assert!(client.healthz().is_ok());
    }

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn server_rejects_nonsense_gracefully() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let client = Client::new(addr.clone());

    // Unknown endpoint → 404; wrong method → 405; bad JSON → 400. All as
    // typed status errors, with the connection (and server) surviving.
    for (path, expected) in [("/nope", 404), ("/v1/compile", 405)] {
        assert_eq!(client_get_error(&addr, path), expected, "{path}");
    }
    let err = client.batch("").expect_err("empty batch rejected");
    assert!(matches!(
        err,
        ftqc::server::ClientError::Status { status: 400, .. }
    ));
    // The server is still healthy afterwards.
    assert!(client.healthz().is_ok());

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn targets_over_loopback() {
    use ftqc::arch::TargetSpec;
    use ftqc::compiler::target_digest;
    use ftqc::service::TargetRef;

    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(addr);

    // GET /v1/targets lists the presets with their canonical digests.
    let listed = client.targets().expect("targets endpoint");
    let names: Vec<&str> = listed.targets.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, vec!["paper", "sparse", "fast-d"]);
    assert_eq!(listed.targets[1].spec, TargetSpec::sparse());
    assert_eq!(
        listed.targets[1].digest,
        target_digest(&TargetSpec::sparse())
    );

    // A target-bearing compile resolves server-side and fingerprints
    // identically to the equivalent explicit options.
    let source = CircuitSource::Benchmark {
        name: "ising".into(),
        size: Some(2),
    };
    let named = CompileJob::new("t", source.clone(), CompilerOptions::default())
        .with_target(TargetRef::Named("sparse".into()));
    let by_name = client.compile(&named).expect("targeted compile");
    assert!(by_name.is_ok(), "got {:?}", by_name.status);
    let explicit = CompileJob::new(
        "t",
        source.clone(),
        CompilerOptions::default().target(TargetSpec::sparse()),
    );
    let by_options = client.compile(&explicit).expect("explicit compile");
    assert_eq!(by_name.fingerprint, by_options.fingerprint);
    assert_eq!(
        by_name.metrics.as_ref().unwrap().to_json().render(),
        by_options.metrics.as_ref().unwrap().to_json().render()
    );

    // A cross-target sweep answers with per-target grids and fronts.
    let request = SweepRequest {
        source,
        routing_paths: vec![2, 3],
        factories: vec![1],
        options: CompilerOptions::default(),
        pareto: false,
        targets: vec![
            TargetRef::Named("paper".into()),
            TargetRef::Named("sparse".into()),
        ],
    };
    let multi = client.sweep_targets(&request).expect("target sweep");
    assert_eq!(multi.targets.len(), 2);
    assert_eq!(multi.targets[0].name, "paper");
    assert_eq!(multi.targets[0].points.len(), 2, "family sweeps the grid");
    assert_eq!(multi.targets[1].points.len(), 1, "sparse pins its bus");
    assert!(!multi.targets[1].front.is_empty());

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn trace_headers_and_span_accounting_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(addr);
    let job = |id: &str, r: u32| {
        CompileJob::new(
            id,
            CircuitSource::Benchmark {
                name: "ising".into(),
                size: Some(2),
            },
            CompilerOptions::default().routing_paths(r),
        )
    };

    // Every response carries a server-assigned x-ftqc-trace header, unique
    // per request.
    let mut ids = Vec::new();
    for (i, r) in [2u32, 3, 4].into_iter().enumerate() {
        let (result, id) = client
            .compile_traced(&job(&format!("j{i}"), r))
            .expect("traced compile");
        assert!(result.is_ok(), "got {:?}", result.status);
        ids.push(id.expect("response carries x-ftqc-trace"));
    }
    let unique: std::collections::HashSet<u64> = ids.iter().map(|id| id.as_u64()).collect();
    assert_eq!(unique.len(), ids.len(), "trace ids must be unique: {ids:?}");

    // The retained trace covers the request end-to-end — parse, queue
    // wait, and every pipeline stage — and accounts its time: the root
    // duration bounds the stages' summed self-times.
    let trace = client.trace(ids[2]).expect("trace fetch");
    assert_eq!(trace.id, ids[2]);
    assert_eq!(trace.endpoint, "compile");
    assert_eq!(trace.status, 200);
    let span = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| {
                panic!(
                    "missing span {name:?} in {:?}",
                    trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
                )
            })
    };
    for name in [
        "request",
        "parse",
        "queue-wait",
        "prepare",
        "lower",
        "map",
        "schedule",
    ] {
        span(name);
    }
    let stage_self: u64 = ["prepare", "lower", "map", "schedule"]
        .iter()
        .map(|n| trace.self_micros(span(n).id))
        .sum();
    assert!(
        trace.duration_micros >= stage_self,
        "root duration {}µs must bound the stages' summed self-time {stage_self}µs",
        trace.duration_micros
    );

    // /v1/traces lists the compile among its newest-first summaries.
    let summaries = client.traces(0).expect("trace summaries");
    assert!(
        summaries
            .iter()
            .any(|s| s.id == ids[2] && s.endpoint == "compile"),
        "summaries must include the traced compile: {summaries:?}"
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn flight_recorder_keeps_slowest_over_loopback() {
    use ftqc::telemetry::TraceId;
    use std::io::Write as _;

    // Capacity 8 ⇒ one recorder slot per stripe: every same-stripe
    // request evicts something.
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 2,
        trace_capacity: 8,
        ..ServerConfig::default()
    });
    let client = Client::new(addr.clone());

    // A compile pinned (via the inbound header) to recorder stripe 0.
    let pinned = TraceId::from_u64(8);
    {
        let body = r#"{"id":"pinned","source":{"benchmark":"ising","size":3}}"#;
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(
                format!(
                    "POST /v1/compile HTTP/1.1\r\nhost: x\r\nx-ftqc-trace: 8\r\n\
                     content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
        let response = ftqc::server::http::read_response(&mut stream).expect("response");
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header("x-ftqc-trace"),
            Some(pinned.to_hex()).as_deref(),
            "inbound trace ids are honoured and echoed"
        );
    }

    // Flood the same stripe with fast healthz probes. With one slot per
    // stripe each probe forces an eviction, but keep-slowest retention
    // must preserve the compile — the trace worth debugging.
    for i in 2..40u64 {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(
                format!(
                    "GET /healthz HTTP/1.1\r\nhost: x\r\nx-ftqc-trace: {:x}\r\n\r\n",
                    i * 8
                )
                .as_bytes(),
            )
            .expect("send");
        let response = ftqc::server::http::read_response(&mut stream).expect("response");
        assert_eq!(response.status, 200);
    }
    let survived = client
        .trace(pinned)
        .expect("slow compile trace survives the flood of fast probes");
    assert_eq!(survived.endpoint, "compile");
    assert_eq!(survived.status, 200);

    handle.shutdown();
    thread.join().expect("server thread");
}

/// The `/v1/session*` wire through the client API: an edit batch is one
/// full compile whose metrics equal a local compile of the edited
/// circuit, a stale batch is rejected without moving the version, the
/// session counters reach `/metrics`, and a closed session is gone.
#[test]
fn edit_sessions_over_loopback() {
    let (addr, handle, thread) = spawn_server(ServerConfig {
        workers: 1,
        session_capacity: 4,
        session_ttl: Duration::from_secs(600),
        ..ServerConfig::default()
    });
    let client = Client::new(addr);
    let options = CompilerOptions::default().routing_paths(4);
    let job = CompileJob::new(
        "session",
        CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        },
        options.clone(),
    );
    let num = |doc: &ftqc::service::json::Value, path: &[&str]| {
        path.iter()
            .try_fold(doc, |v, key| v.get(key))
            .and_then(|v| v.as_u64())
    };

    let descriptor = client.session_create(&job).expect("open session");
    assert_eq!(num(&descriptor, &["version"]), Some(0), "{descriptor:?}");
    let id = descriptor
        .get("id")
        .and_then(|v| v.as_str())
        .expect("session id")
        .to_string();

    // One insert: a full compile equal to a local one.
    let insert = CircuitEdit::Insert {
        index: 0,
        gate: Gate::T(1),
    };
    let batch = EditSet::new(vec![insert.clone()]).to_json().render();
    let lines = client.session_edit(&id, &batch).expect("edit");
    assert_eq!(lines.len(), 1, "{lines:?}");
    let line = &lines[0];
    let kind = line.get("delta").and_then(|d| d.get("kind"));
    assert_eq!(kind.and_then(|k| k.as_str()), Some("full"), "{line:?}");
    assert_eq!(num(line, &["session", "version"]), Some(1), "{line:?}");
    let result = JobResult::<Metrics>::from_json(line).expect("edit line decodes");
    assert_eq!(result.status, JobStatus::Ok, "{line:?}");
    let mut edited = ftqc::benchmarks::ising_2d(2);
    ftqc::editor::apply_edit(&mut edited, &insert).expect("insert applies");
    let local = Compiler::new(options)
        .compile(&edited)
        .expect("local compile");
    assert_eq!(result.metrics, Some(*local.metrics()));

    // A batch authored against the seed version is stale now.
    let stale = EditSet::new(vec![insert]).at_version(0).to_json().render();
    let lines = client.session_edit(&id, &stale).expect("stale edit");
    let status = lines[0].get("status").and_then(|s| s.as_str());
    assert!(
        status.is_some_and(|s| s.contains("version conflict")),
        "{lines:?}"
    );
    assert_eq!(num(&lines[0], &["session", "version"]), Some(1));

    let metrics = client.metrics_text().expect("metrics");
    for series in [
        "ftqc_session_edits_total 1",
        "ftqc_session_recompiles_total{kind=\"full\"} 1",
        "ftqc_session_edit_rejects_total 1",
    ] {
        assert!(metrics.lines().any(|l| l == series), "{series}: {metrics}");
    }
    assert!(!metrics.contains("kind=\"differential\""), "{metrics}");

    let snapshot = client.session_get(&id).expect("snapshot");
    assert_eq!(num(&snapshot, &["version"]), Some(1), "{snapshot:?}");
    let rendered = snapshot.render();
    assert!(!rendered.contains("differential"), "{rendered}");

    let closed = client.session_close(&id).expect("close");
    assert_eq!(
        closed.get("closed").and_then(|v| v.as_bool()),
        Some(true),
        "{closed:?}"
    );
    match client.session_get(&id) {
        Err(ClientError::Status { status: 404, .. }) => {}
        other => panic!("closed session answered {other:?}"),
    }

    handle.shutdown();
    thread.join().expect("server thread");
}

/// GETs `path` and returns the non-2xx status the server answered with.
fn client_get_error(addr: &str, path: &str) -> u16 {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes())
        .expect("send");
    let response = ftqc::server::http::read_response(&mut stream).expect("response");
    response.status
}
