//! Staged-session bench across the built-in hardware targets, with a
//! machine-readable summary for CI trajectories.
//!
//! Compiles one circuit repeatedly for every registered target through a
//! single shared stage cache, then reports per-stage median latencies and
//! cache-hit ratios — the numbers that show what the target-aware stage
//! cache actually saves (prepare/lower shared across targets, map/schedule
//! per machine).
//!
//! It also measures the routing-bound hot path itself: the map stage of a
//! dense-CNOT workload (`--routing-circuit`, default the 255-qubit GHZ
//! chain) timed cache-less under the seed router
//! ([`ftqc_bench::reference::SeedRouter`]) and the shipping
//! [`ftqc_route::Router`], recording the speedup and the router counters.
//! `--check BASELINE.json` turns the run into a CI regression gate: the
//! incremental map median must stay within 15% of the checked-in
//! baseline (see `report::check_regression` for the noise vetoes).
//!
//! `--reactor N` additionally measures concurrent-connection capacity:
//! idle connections held against the server (up to the ceiling N) until a
//! live probe is refused, plus the saturated server's request-latency
//! percentiles — recorded under a `"reactor"` key. The key is trajectory
//! data only: the regression gate ignores it.
//!
//! `--edits N` additionally runs the interactive-session hot path: N
//! single-gate edit batches applied near the tail of the bench circuit
//! through a live edit session, each timed edit-to-schedule, against the
//! median of `--iters` cold compiles timed between the edits — recorded
//! under an `"edits"` key the regression gate likewise ignores. Every edit
//! is a full compile plus the session's circuit and program copies, so the
//! ratio sits just under 1.
//!
//! ```text
//! cargo run --release -p ftqc-bench --bin bench_session -- \
//!     --circuit ising:3 --iters 5 --json BENCH_session.json \
//!     --check BENCH_session.json
//! ```

use ftqc_arch::TargetRegistry;
use ftqc_bench::reference::SeedRouter;
use ftqc_bench::report::{
    check_regression, median_micros, summarise_stages, CapacityReport, CaseReport, EditReport,
    LatencyPercentiles, RoutingReport, SessionReport,
};
use ftqc_bench::Table;
use ftqc_circuit::Gate;
use ftqc_compiler::{
    route_circuit, CompileSession, Compiler, CompilerOptions, StageCache, StageTrace, TraceHook,
};
use ftqc_editor::{CircuitEdit, EditSession, EditSet};
use ftqc_route::{CostModel, RouteQueries, Router};
use ftqc_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The CI gate's tolerance: fail when the incremental map median regresses
/// more than 15% past the baseline.
const REGRESSION_TOLERANCE: f64 = 0.15;

struct Args {
    circuit: String,
    routing_circuit: String,
    iters: u64,
    edits: u64,
    reactor: u64,
    json: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        circuit: "ising:3".into(),
        routing_circuit: "ghz".into(),
        iters: 5,
        edits: 0,
        reactor: 0,
        json: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--circuit" => args.circuit = value("--circuit")?,
            "--routing-circuit" => args.routing_circuit = value("--routing-circuit")?,
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|_| "--iters expects a number".to_string())?;
            }
            "--edits" => {
                args.edits = value("--edits")?
                    .parse()
                    .map_err(|_| "--edits expects an edit-batch count".to_string())?;
            }
            "--reactor" => {
                args.reactor = value("--reactor")?
                    .parse()
                    .map_err(|_| "--reactor expects a connection ceiling".to_string())?;
            }
            "--json" => args.json = Some(value("--json")?),
            "--check" => args.check = Some(value("--check")?),
            other => {
                return Err(format!(
                    "unknown flag {other:?} (use --circuit/--routing-circuit\
                     /--iters/--edits/--reactor/--json/--check)"
                ))
            }
        }
    }
    if args.iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    Ok(args)
}

/// Times the map stage of `spec` cache-less under the seed router and the
/// shipping one, one iteration of each in turn, and reports medians,
/// speedup, and the router's counters.
/// Fails if the two ever emit different routed programs — the bench
/// doubles as a last-line differential check.
fn bench_routing(spec: &str, iters: u64) -> Result<RoutingReport, String> {
    let options = CompilerOptions::default();
    let lowered = lower_spec(spec, &options)?;
    let reference =
        route_circuit(&lowered, &options, SeedRouter::new).map_err(|e| e.to_string())?;
    let incremental = route_circuit(&lowered, &options, Router::new).map_err(|e| e.to_string())?;
    if reference.ops != incremental.ops {
        return Err(format!(
            "router differential failure on {spec}: reference and incremental ops diverge"
        ));
    }

    // Alternate the two routers, so a load shift during the run slows both
    // halves alike and the same-run speedup the gate vetoes on holds.
    let mut reference_samples = Vec::with_capacity(iters as usize);
    let mut incremental_samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        reference_samples.push(time_map(&lowered, &options, SeedRouter::new)?);
        incremental_samples.push(time_map(&lowered, &options, Router::new)?);
    }
    let incremental_min_micros = incremental_samples.iter().copied().min().unwrap_or(0);

    Ok(RoutingReport {
        circuit: spec.to_string(),
        iterations: iters,
        reference_median_micros: median_micros(reference_samples),
        incremental_median_micros: median_micros(incremental_samples.clone()),
        incremental_min_micros,
        incremental_percentiles: LatencyPercentiles::from_samples(incremental_samples),
        route: incremental.route,
    })
}

/// One cache-less map-stage timing of `lowered`, in microseconds, with the
/// router `new_router` builds.
fn time_map<R: RouteQueries>(
    lowered: &ftqc_circuit::Circuit,
    options: &CompilerOptions,
    new_router: fn(CostModel) -> R,
) -> Result<u64, String> {
    let started = Instant::now();
    route_circuit(lowered, options, new_router).map_err(|e| e.to_string())?;
    Ok(started.elapsed().as_micros() as u64)
}

/// Resolves and lowers a circuit spec for the routing-family benches.
fn lower_spec(spec: &str, options: &CompilerOptions) -> Result<ftqc_circuit::Circuit, String> {
    let circuit = ftqc_service::resolve::load_circuit_spec(spec)?;
    Ok(CompileSession::new(options.clone())
        .prepare(&circuit)
        .map_err(|e| e.to_string())?
        .lower()
        .circuit()
        .clone())
}

/// One raw probe request: a fresh connection, `GET /healthz`, the whole
/// response read back. Returns the wall-clock microseconds when the
/// server answered 200, `Ok(None)` when it refused (connection error,
/// non-200, or timeout) — refusal is data for the capacity bench, not a
/// failure.
fn probe(addr: &str) -> Option<u64> {
    use std::io::{Read, Write};
    let started = Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .ok()?;
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n")
        .ok()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).ok()?;
    response
        .starts_with(b"HTTP/1.1 200")
        .then(|| started.elapsed().as_micros() as u64)
}

/// Opens idle connections against `addr` until a live probe fails or
/// `ceiling` is reached, probing every 8. Returns the held sockets (kept
/// open by the caller) and the held count at the last successful probe.
fn hold_idle(addr: &str, ceiling: u64) -> (Vec<std::net::TcpStream>, u64) {
    let mut held = Vec::new();
    let mut last_good = 0u64;
    while (held.len() as u64) < ceiling {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(_) => break,
        }
        if held.len() % 8 == 0 || held.len() as u64 == ceiling {
            if probe(addr).is_none() {
                break;
            }
            last_good = held.len() as u64;
        }
    }
    (held, last_good)
}

/// The connection-capacity measurement: a server loaded with idle
/// connections until it refuses a live probe (capped at `ceiling`, the
/// bench's fd budget), then probed `iters * 40` more times *while*
/// saturated for the latency percentiles. The server gets a long read
/// timeout so the held idle connections survive the measurement window.
fn bench_capacity(ceiling: u64, iters: u64) -> Result<CapacityReport, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = server.handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || {
        let _ = server.run();
    });
    if probe(&addr).is_none() {
        handle.shutdown();
        thread.join().ok();
        return Err("server refused the first probe".into());
    }
    let (held, reactor_connections) = hold_idle(&addr, ceiling);
    let probe_requests = iters.max(1) * 40;
    let samples: Vec<u64> = (0..probe_requests).filter_map(|_| probe(&addr)).collect();
    let answered = samples.len() as u64;
    drop(held);
    handle.shutdown();
    thread.join().ok();
    if answered < probe_requests {
        return Err(format!(
            "saturated server dropped probes: {answered}/{probe_requests} answered"
        ));
    }

    Ok(CapacityReport {
        reactor_connections,
        probe_ceiling: ceiling,
        probe_requests,
        latency: LatencyPercentiles::from_samples(samples),
    })
}

/// The edit storm: opens an edit session on the bench circuit and applies
/// `edits` single-gate batches near the tail — the IDE keystroke pattern
/// (append a T on the last qubit, retract it, repeat) — timing each batch
/// edit-to-schedule through the live session. The baseline is the median
/// of `iters` cold compiles of the same circuit, one timed after every
/// `edits / iters` edits (any left over run after the last edit), so a
/// shift in host speed moves both sides of the ratio alike. Their ratio is
/// what a session costs over a bare compile.
fn bench_edits(spec: &str, edits: u64, iters: u64) -> Result<EditReport, String> {
    let circuit = ftqc_service::resolve::load_circuit_spec(spec)?;
    let options = CompilerOptions::default();
    let qubit = circuit.num_qubits().saturating_sub(1);
    let (mut session, _) =
        EditSession::open("bench", circuit.clone(), options.clone()).map_err(|e| e.to_string())?;
    let cold_compile = || -> Result<u64, String> {
        let started = Instant::now();
        Compiler::new(options.clone())
            .compile(&circuit)
            .map_err(|e| e.to_string())?;
        Ok(started.elapsed().as_micros() as u64)
    };
    let edits_per_compile = (edits / iters).max(1);

    let mut samples = Vec::with_capacity(edits as usize);
    let mut full_samples = Vec::with_capacity(iters as usize);
    for i in 0..edits {
        let len = session.circuit().len();
        let edit = if i % 2 == 0 {
            CircuitEdit::Insert {
                index: len,
                gate: Gate::T(qubit),
            }
        } else {
            CircuitEdit::Remove { index: len - 1 }
        };
        let set = EditSet::new(vec![edit]);
        let started = Instant::now();
        session.apply(&set).map_err(|e| e.to_string())?;
        samples.push(started.elapsed().as_micros() as u64);
        if (i + 1) % edits_per_compile == 0 && (full_samples.len() as u64) < iters {
            full_samples.push(cold_compile()?);
        }
    }
    while (full_samples.len() as u64) < iters {
        full_samples.push(cold_compile()?);
    }

    Ok(EditReport {
        edits,
        edit_median_micros: median_micros(samples.clone()),
        edit_percentiles: LatencyPercentiles::from_samples(samples),
        full_median_micros: median_micros(full_samples),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_session: {e}");
            std::process::exit(2);
        }
    };
    let circuit = match ftqc_service::resolve::load_circuit_spec(&args.circuit) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_session: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "Staged sessions over {} ({} qubits, {} gates), {} iterations per target\n",
        args.circuit,
        circuit.num_qubits(),
        circuit.len(),
        args.iters
    );

    // One stage cache for the whole fleet: the interesting number is how
    // much of each target's pipeline the cache absorbs once any target
    // (or iteration) has warmed the shared front end.
    let stages = StageCache::default();
    let registry = TargetRegistry::builtin();
    let table = Table::new(&[
        "target",
        "stage",
        "samples",
        "median µs",
        "p95 µs",
        "p99 µs",
        "hits",
        "hit ratio",
    ]);
    let mut cases = Vec::new();
    for entry in registry.entries() {
        let trace = StageTrace::new();
        let session = CompileSession::new(CompilerOptions::default().target(entry.spec.clone()))
            .with_cache(stages.clone())
            .with_hook(Arc::clone(&trace) as Arc<dyn TraceHook>);
        for _ in 0..args.iters {
            if let Err(e) = session.compile(&circuit) {
                eprintln!("bench_session: {}: {e}", entry.name);
                std::process::exit(1);
            }
        }
        let summary = summarise_stages(&trace.events());
        for s in &summary {
            table.row(&[
                entry.name.clone(),
                s.stage.name().to_string(),
                s.samples.to_string(),
                s.median_micros.to_string(),
                s.percentiles.p95.to_string(),
                s.percentiles.p99.to_string(),
                s.cached.to_string(),
                format!("{:.2}", s.hit_ratio()),
            ]);
        }
        cases.push(CaseReport {
            label: entry.name.clone(),
            stages: summary,
        });
    }

    // The routing-bound hot path: the map stage under the seed router and
    // the shipping one.
    let routing = match bench_routing(&args.routing_circuit, args.iters) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_session: routing bench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "\nrouting hot path ({}, {} iters): reference {}µs -> incremental {}µs ({:.2}x), \
         p95 {}µs, p99 {}µs, {} arena reuses",
        routing.circuit,
        routing.iterations,
        routing.reference_median_micros,
        routing.incremental_median_micros,
        routing.speedup(),
        routing.incremental_percentiles.p95,
        routing.incremental_percentiles.p99,
        routing.route.arena_reuses,
    );

    // The edit storm, when asked for: the interactive-session hot path,
    // single-gate batches through a live edit session against cold
    // compiles.
    let edits = if args.edits > 0 {
        match bench_edits(&args.circuit, args.edits, args.iters) {
            Ok(e) => {
                println!(
                    "\nedit storm ({} batches): edit-to-schedule {}µs median \
                     (p95 {}µs, p99 {}µs) vs cold compile {}µs ({:.2}x)",
                    e.edits,
                    e.edit_median_micros,
                    e.edit_percentiles.p95,
                    e.edit_percentiles.p99,
                    e.full_median_micros,
                    e.speedup(),
                );
                Some(e)
            }
            Err(e) => {
                eprintln!("bench_session: edit bench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    // The connection-capacity probe, when asked for: idle connections
    // held against the server until a live probe is refused, then the
    // saturated server's request latency.
    let reactor = if args.reactor > 0 {
        match bench_capacity(args.reactor, args.iters) {
            Ok(c) => {
                println!(
                    "\ncapacity (ceiling {}): {} idle conns held; \
                     saturated p50 {}µs, p95 {}µs, p99 {}µs over {} probes",
                    c.probe_ceiling,
                    c.reactor_connections,
                    c.latency.p50,
                    c.latency.p95,
                    c.latency.p99,
                    c.probe_requests,
                );
                Some(c)
            }
            Err(e) => {
                eprintln!("bench_session: capacity bench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let report = SessionReport {
        circuit: args.circuit.clone(),
        iterations: args.iters,
        cases,
        stage_cache: stages.stats(),
        routing: Some(routing),
        edits,
        reactor,
    };
    let stats = report.stage_cache;
    println!(
        "shared stage cache: {} hits / {} lookups",
        stats.hits(),
        stats.hits() + stats.misses()
    );

    // CI regression gate *before* overwriting any baseline file.
    if let Some(path) = &args.check {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| {
                ftqc_service::Value::parse(text.trim())
                    .map_err(|e| format!("cannot parse {path}: {e}"))
            });
        let verdict = baseline.and_then(|doc| {
            check_regression(
                report.routing.as_ref().expect("routing bench ran"),
                &doc,
                REGRESSION_TOLERANCE,
            )
        });
        match verdict {
            Ok(()) => println!("regression gate   : ok (vs {path})"),
            Err(e) => {
                eprintln!("bench_session: regression gate: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.json {
        if let Err(e) = report.write_json(path) {
            eprintln!("bench_session: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("json summary      : {path}");
    }
}
