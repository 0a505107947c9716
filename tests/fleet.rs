//! Loopback integration tests for the distributed compile fleet (ISSUE 7
//! acceptance criteria): a 3-worker fleet produces byte-identical JSONL
//! batch output to a single-process server with every accepted result
//! verified from its witness alone, a worker dying mid-batch is drained
//! and reassigned without changing the output, tampered witnesses are
//! rejected with quarantine + local recompute, and the sharded peer cache
//! answers warm repeats across workers.

use ftqc::arch::{Coord, SurgeryOp};
use ftqc::compiler::{extract_witness, CompileSession, CompilerOptions, Metrics, Witness};
use ftqc::fleet::{
    CoordinatorConfig, CoordinatorExtension, HashRing, WorkerConfig, WorkerExtension,
};
use ftqc::server::{
    Client, RetryPolicy, Server, ServerConfig, ServerExtension, ServerReport, ShutdownHandle,
};
use ftqc::service::json::{FromJson, ToJson, Value};
use ftqc::service::{
    fingerprint, CacheProvenance, CircuitSource, CompileJob, JobResult, JobStatus,
};
use std::sync::Arc;
use std::time::Duration;

/// Starts a server (optionally wearing a fleet role) on `addr`.
fn spawn_with(
    addr: &str,
    extension: Option<Arc<dyn ServerExtension>>,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<ServerReport>,
) {
    let server = Server::bind_with(
        ServerConfig {
            addr: addr.into(),
            workers: 2,
            ..ServerConfig::default()
        },
        extension,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle().expect("shutdown handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// Spawns a plain worker (no peer cache) on an ephemeral port.
fn spawn_worker() -> (
    String,
    Arc<WorkerExtension>,
    ShutdownHandle,
    std::thread::JoinHandle<ServerReport>,
) {
    let worker = Arc::new(WorkerExtension::new(WorkerConfig::default()).expect("worker role"));
    let (addr, handle, thread) = spawn_with("127.0.0.1:0", Some(worker.clone()));
    (addr, worker, handle, thread)
}

/// Spawns a coordinator over `workers` on an ephemeral port.
fn spawn_coordinator(
    workers: Vec<String>,
    retry: RetryPolicy,
) -> (
    String,
    Arc<CoordinatorExtension>,
    ShutdownHandle,
    std::thread::JoinHandle<ServerReport>,
) {
    let coordinator = Arc::new(
        CoordinatorExtension::new(CoordinatorConfig {
            workers,
            cap: 2,
            deadline: Duration::from_secs(30),
            retry,
        })
        .expect("coordinator role"),
    );
    let (addr, handle, thread) = spawn_with("127.0.0.1:0", Some(coordinator.clone()));
    (addr, coordinator, handle, thread)
}

/// Renders results as a JSONL document with the wall-clock fields zeroed —
/// the byte-identity comparison the acceptance criteria ask for.
fn normalized_jsonl(results: &[JobResult<Metrics>]) -> String {
    results
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.micros = 0;
            r.queue_micros = 0;
            r.to_json().render()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The batch under test: an 8-job option grid, a malformed line in the
/// middle, and a job that fails resolution — exercising ok, failed, and
/// malformed slots in one submission order.
fn grid_jsonl() -> String {
    let mut lines = Vec::new();
    for r in [2u32, 3, 4, 5] {
        for f in [1u32, 2] {
            lines.push(format!(
                "{{\"id\":\"r{r}f{f}\",\"source\":{{\"benchmark\":\"ising\",\"size\":2}},\
                 \"options\":{{\"routing_paths\":{r},\"factories\":{f}}}}}"
            ));
        }
    }
    lines.insert(3, "{definitely not json}".into());
    lines.push("{\"id\":\"bad\",\"source\":{\"benchmark\":\"no-such-circuit\"}}".into());
    lines.join("\n")
}

#[test]
fn three_worker_fleet_is_byte_identical_to_local_batch() {
    let (w1, _x1, h1, t1) = spawn_worker();
    let (w2, _x2, h2, t2) = spawn_worker();
    let (w3, _x3, h3, t3) = spawn_worker();
    let (coord_addr, coordinator, hc, tc) =
        spawn_coordinator(vec![w1, w2, w3], RetryPolicy::default());
    let (local_addr, hl, tl) = spawn_with("127.0.0.1:0", None);

    let jsonl = grid_jsonl();
    let fleet = Client::new(coord_addr.clone())
        .batch(&jsonl)
        .expect("fleet batch");
    let local = Client::new(local_addr).batch(&jsonl).expect("local batch");
    assert_eq!(
        normalized_jsonl(&fleet),
        normalized_jsonl(&local),
        "fleet output must be byte-identical to the single-process batch"
    );
    assert_eq!(fleet.len(), 10, "8 ok + 1 malformed + 1 failing");
    assert_eq!(fleet.iter().filter(|r| r.is_ok()).count(), 8);
    assert!(
        fleet.iter().all(|r| r.witness.is_none()),
        "the coordinator strips witnesses before serving"
    );

    // Every accepted result passed coordinator-side verification on the
    // witness alone; the only local recompute is the failing job (a worker
    // cannot prove a failure, so it is never accepted from the wire).
    let m = coordinator.metrics();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(get(&m.verify_ok), 8, "every ok job verified exactly once");
    assert_eq!(get(&m.verify_fail), 0);
    assert_eq!(get(&m.quarantine), 0);
    assert_eq!(
        get(&m.local_recompute),
        1,
        "only the failing job recomputes"
    );
    assert_eq!(get(&m.dispatch), 9, "8 ok + the failing job's round trip");

    // The fleet counters surface on the coordinator's /metrics.
    let text = Client::new(coord_addr).metrics_text().expect("metrics");
    for needle in [
        "ftqc_fleet_dispatch_total 9",
        "ftqc_fleet_verify_total 8",
        "ftqc_fleet_quarantine_total 0",
        "ftqc_fleet_worker_usable{worker=\"",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    for (h, t) in [(h1, t1), (h2, t2), (h3, t3), (hc, tc), (hl, tl)] {
        h.shutdown();
        t.join().expect("server thread");
    }
}

#[test]
fn dead_and_dying_workers_reassign_without_changing_output() {
    // One live worker plus one address nobody listens on: every dispatch
    // to the dead peer fails at the transport, reassigning its jobs.
    let (w1, _x1, h1, t1) = spawn_worker();
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
        l.local_addr().expect("addr").to_string()
        // dropped: the port is closed again
    };
    let (coord_addr, coordinator, hc, tc) = spawn_coordinator(vec![w1, dead], RetryPolicy::none());
    let (local_addr, hl, tl) = spawn_with("127.0.0.1:0", None);

    let jsonl = grid_jsonl();
    let fleet = Client::new(coord_addr).batch(&jsonl).expect("fleet batch");
    let local = Client::new(local_addr.clone())
        .batch(&jsonl)
        .expect("local batch");
    assert_eq!(
        normalized_jsonl(&fleet),
        normalized_jsonl(&local),
        "losing a worker must not change the batch output"
    );
    let m = coordinator.metrics();
    let reassigned = m.reassign.load(std::sync::atomic::Ordering::Relaxed);
    assert!(reassigned >= 1, "the dead worker's jobs were reassigned");

    // A worker killed mid-batch: start the batch, shut the second worker
    // down while it runs. Output still byte-identical.
    let (w2, _x2, h2, t2) = spawn_worker();
    let (w3, _x3, h3, t3) = spawn_worker();
    let (coord2, _c2, hc2, tc2) = spawn_coordinator(vec![w2, w3], RetryPolicy::none());
    let batch_thread = {
        let jsonl = jsonl.clone();
        std::thread::spawn(move || Client::new(coord2).batch(&jsonl).expect("fleet batch"))
    };
    std::thread::sleep(Duration::from_millis(20));
    h3.shutdown();
    t3.join().expect("killed worker drains");
    let fleet2 = batch_thread.join().expect("batch thread");
    assert_eq!(
        normalized_jsonl(&fleet2),
        normalized_jsonl(&local),
        "killing a worker mid-batch must not change the batch output"
    );

    for (h, t) in [(h1, t1), (h2, t2), (hc, tc), (hc2, tc2), (hl, tl)] {
        h.shutdown();
        t.join().expect("server thread");
    }
}

// --- tampered-witness mutants --------------------------------------------

/// The two-delivery testbed from `tests/verifier_mutations.rs`, as a wire
/// source: 9 qubits, T on 0 and 5, one factory.
fn magic_source() -> (CircuitSource, CompilerOptions) {
    let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[9];\nt q[0];\nt q[5];\n";
    (
        CircuitSource::QasmInline { qasm: qasm.into() },
        CompilerOptions::default().routing_paths(4).factories(1),
    )
}

/// Compiles the magic testbed honestly and returns the pieces a malicious
/// worker would start from: the job, its true metrics, and its witness.
fn honest_claim() -> (CompileJob<CompilerOptions>, Metrics, Witness) {
    let (source, options) = magic_source();
    let circuit = ftqc::service::resolve::resolve_source_remote(&source).expect("resolves");
    let session = CompileSession::new(options.clone());
    let program = session.compile(&circuit).expect("compiles");
    let witness = extract_witness(&session, &circuit, &program).expect("extracts");
    (
        CompileJob::new("m1", source, options),
        *program.metrics(),
        witness,
    )
}

/// Runs a one-connection-at-a-time fake worker that answers every request
/// with `doc`, no matter what was asked. Returns its address; the serving
/// thread dies with the test process.
fn spawn_malicious_worker(doc: String) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = ftqc::server::http::read_request(&mut stream);
            let bytes =
                ftqc::server::http::render_response(200, "application/json", doc.as_bytes());
            use std::io::Write as _;
            let _ = stream.write_all(&bytes);
        }
    });
    addr
}

/// Submits the magic-testbed job through a coordinator whose only worker
/// serves `(metrics, witness)` tampered by `mutate`, and asserts the
/// coordinator rejects it, quarantines the worker, and recomputes the
/// right answer locally.
fn assert_mutant_quarantined(name: &str, mutate: impl FnOnce(&mut Witness, &mut Metrics)) {
    let (job, mut metrics, mut witness) = honest_claim();
    let expected = metrics; // the honest answer the recompute must produce
    mutate(&mut witness, &mut metrics);
    let claim = JobResult::<Metrics> {
        id: job.id.clone(),
        fingerprint: {
            let circuit =
                ftqc::service::resolve::resolve_source_remote(&job.source).expect("resolves");
            fingerprint::combine(
                fingerprint::fingerprint_circuit(&circuit),
                fingerprint::fingerprint_value(&job.options.to_json()),
            )
        },
        status: JobStatus::Ok,
        metrics: Some(metrics),
        provenance: CacheProvenance::Computed,
        micros: 1,
        queue_micros: 0,
        stage: None,
        witness: Some(witness.to_json()),
    };
    let fake = spawn_malicious_worker(claim.to_json().render());
    let (coord_addr, coordinator, hc, tc) = spawn_coordinator(vec![fake], RetryPolicy::none());

    let jsonl = job.to_json().render();
    let results = Client::new(coord_addr).batch(&jsonl).expect("fleet batch");
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert!(
        result.is_ok(),
        "{name}: recompute answers, got {:?}",
        result.status
    );
    assert_eq!(
        result.metrics.as_ref().expect("metrics").to_json().render(),
        expected.to_json().render(),
        "{name}: the served answer must be the honest local one"
    );

    let m = coordinator.metrics();
    let get = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(get(&m.verify_fail), 1, "{name}: witness rejected");
    assert_eq!(get(&m.quarantine), 1, "{name}: worker quarantined");
    assert_eq!(get(&m.local_recompute), 1, "{name}: job recomputed locally");
    assert_eq!(
        get(&m.verify_ok),
        0,
        "{name}: nothing accepted from the wire"
    );

    hc.shutdown();
    tc.join().expect("coordinator thread");
}

/// Indices of the DeliverMagic ops in a witness.
fn deliveries(witness: &Witness) -> Vec<usize> {
    witness
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.op, SurgeryOp::DeliverMagic { .. }))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn swapped_delivery_paths_are_quarantined() {
    assert_mutant_quarantined("swapped-paths", |witness, _| {
        // The swapped-corridor mutant: each delivery carries the *other*
        // delivery's corridor, so neither ends where its magic is consumed.
        let ds = deliveries(witness);
        assert!(ds.len() >= 2, "testbed has two deliveries");
        witness.ops.swap(ds[0], ds[1]);
    });
}

#[test]
fn spliced_corridor_is_quarantined() {
    assert_mutant_quarantined("spliced-corridor", |witness, _| {
        // The wrong-generation-stamp mutant: a corridor that jumps two
        // cells between consecutive entries cannot be walked.
        let d = deliveries(witness)[0];
        if let SurgeryOp::DeliverMagic { path } = &mut witness.ops[d].op {
            let first = path[0];
            *path = vec![first, Coord::new(first.row + 2, first.col)];
        }
    });
}

#[test]
fn dropped_delivery_is_quarantined() {
    assert_mutant_quarantined("dropped-delivery", |witness, _| {
        let d = deliveries(witness)[0];
        witness.ops.remove(d);
    });
}

#[test]
fn inflated_metrics_are_quarantined() {
    assert_mutant_quarantined("inflated-metrics", |_, metrics| {
        // A lazy cheat: claim a faster schedule than the witness replays.
        metrics.execution_time = ftqc::arch::Ticks(1);
    });
}

// --- sharded peer cache ---------------------------------------------------

#[test]
fn peer_cache_answers_warm_repeats_across_workers() {
    // Two peered workers need fixed addresses before bind; reserve two
    // ephemeral ports and rebind them immediately.
    let reserve = || {
        std::net::TcpListener::bind("127.0.0.1:0")
            .expect("reserve")
            .local_addr()
            .expect("addr")
            .to_string()
    };
    let (a1, a2) = (reserve(), reserve());
    let peers = vec![a1.clone(), a2.clone()];
    let make_worker = |advertise: &str| {
        Arc::new(
            WorkerExtension::new(WorkerConfig {
                peers: peers.clone(),
                advertise: Some(advertise.into()),
                ..WorkerConfig::default()
            })
            .expect("worker role"),
        )
    };
    let (x1, x2) = (make_worker(&a1), make_worker(&a2));
    let (_, h1, t1) = spawn_with(&a1, Some(x1.clone()));
    let (_, h2, t2) = spawn_with(&a2, Some(x2.clone()));

    // Work out which node owns the job's schedule key, then compile on the
    // owner first so the non-owner's probe is a guaranteed peer hit.
    let job = CompileJob::new(
        "p1",
        CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        },
        CompilerOptions::default(),
    );
    let circuit = ftqc::service::resolve::resolve_source_remote(&job.source).expect("resolves");
    let key = CompileSession::new(job.options.clone())
        .stage_keys(&circuit)
        .expect("stage keys")[3];
    let owner = HashRing::new(&peers).owner(key).expect("two-node ring");
    let (owner_addr, other_addr) = if owner == 0 {
        (a1.clone(), a2.clone())
    } else {
        (a2.clone(), a1.clone())
    };
    let (owner_ext, other_ext) = if owner == 0 {
        (x1.clone(), x2.clone())
    } else {
        (x2.clone(), x1.clone())
    };

    let doc = job.to_json();
    let first = Client::new(owner_addr.clone())
        .post_value("/v1/work", &doc)
        .expect("owner compiles");
    let first = JobResult::<Metrics>::from_json(&first).expect("result doc");
    assert!(first.is_ok());
    assert!(first.witness.is_some(), "work responses carry the witness");

    // Warm repeat on the *other* node: local miss → peek the owner →
    // verify its witness → serve, no recompilation.
    let second = Client::new(other_addr.clone())
        .post_value("/v1/work", &doc)
        .expect("peer-served work");
    let second = JobResult::<Metrics>::from_json(&second).expect("result doc");
    assert!(second.provenance.is_hit(), "got {:?}", second.provenance);
    assert_eq!(second.fingerprint, first.fingerprint);
    assert_eq!(
        second.metrics.as_ref().map(|m| m.to_json().render()),
        first.metrics.as_ref().map(|m| m.to_json().render()),
    );
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&other_ext.metrics().peer_hits), 1);
    assert_eq!(load(&owner_ext.metrics().peeks_served), 1);

    // A third hit on the same node answers from its own witness cache.
    let third = Client::new(other_addr.clone())
        .post_value("/v1/work", &doc)
        .expect("locally cached work");
    assert!(JobResult::<Metrics>::from_json(&third)
        .expect("result doc")
        .is_ok());
    assert_eq!(load(&other_ext.metrics().witness_hits), 1);

    // The peer traffic shows in /v1/cache/stats and /metrics.
    let stats = Client::new(other_addr.clone())
        .get_value("/v1/cache/stats")
        .expect("cache stats");
    let fleet = stats.get("fleet").expect("fleet stats section");
    assert_eq!(fleet.get("role").and_then(Value::as_str), Some("worker"));
    assert_eq!(fleet.get("peer_hits").and_then(Value::as_u64), Some(1));
    let text = Client::new(other_addr).metrics_text().expect("metrics");
    for needle in [
        "ftqc_fleet_peer_hits_total 1",
        "ftqc_fleet_witness_cache_hits_total 1",
        "ftqc_fleet_witness_cache_entries 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // The owner either served its peek from a local compile or was offered
    // the entry; its own metrics say which.
    let owner_text = Client::new(owner_addr).metrics_text().expect("metrics");
    assert!(owner_text.contains("ftqc_fleet_peeks_served_total 1"));

    for (h, t) in [(h1, t1), (h2, t2)] {
        h.shutdown();
        t.join().expect("server thread");
    }
}

#[test]
fn work_endpoint_rejects_staged_and_wrong_method_requests() {
    let (addr, _ext, handle, thread) = spawn_worker();
    let client = Client::new(addr);

    // Staged jobs are not dispatchable: the worker refuses rather than
    // silently compiling the wrong thing.
    let mut job = CompileJob::new(
        "s",
        CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        },
        CompilerOptions::default(),
    );
    job.stop_after = Some("map".into());
    let err = client
        .post_value("/v1/work", &job.to_json())
        .expect_err("staged jobs are refused");
    assert!(err.to_string().contains("not dispatchable"), "got {err}");

    // Wrong methods on the fleet endpoints are 405s, not silent falls
    // through to the core router.
    let err = client
        .get_value("/v1/work")
        .expect_err("GET /v1/work refused");
    assert!(err.to_string().contains("405"), "got {err}");
    let err = client
        .get_value("/v1/cache/peek/nothex!")
        .expect_err("malformed keys are 400s");
    assert!(err.to_string().contains("400"), "got {err}");
    let err = client
        .get_value(&format!("/v1/cache/peek/{}", fingerprint::to_hex(42)))
        .expect_err("a cold cache 404s");
    assert!(err.to_string().contains("404"), "got {err}");

    handle.shutdown();
    thread.join().expect("server thread");
}
