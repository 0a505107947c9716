//! Subcommand implementations.
//!
//! Every subcommand returns its report as a `String` (printed by `main`),
//! which keeps the command layer unit-testable without capturing stdout.

use crate::args::{parse, ArgError, ParsedArgs};
use ftqc_arch::qec::PhysicalAssumptions;
use ftqc_arch::{render_layout, Layout, Ticks};
use ftqc_arch::{TargetRegistry, TargetSpec};
use ftqc_baselines::litinski::{BlockLayout, GameOfSurfaceCodes};
use ftqc_baselines::{dascot_estimate, edpc_estimate, LineSam};
use ftqc_benchmarks::suite::Benchmark;
use ftqc_circuit::Circuit;
use ftqc_compiler::estimate::{estimate_resources, EstimateRequest, Objective};
use ftqc_compiler::svg::to_svg;
use ftqc_compiler::{
    apply_job_target, check_semantics, explore, explore_session, explore_targets, pareto_front,
    stage_outcome, target_digest, target_from_json, target_to_json, to_csv, verify, CompileSession,
    Compiler, CompilerOptions, DesignPoint, Metrics, Stage, StageCache, StageCacheStats,
    StageEvent, StageTrace,
};
use ftqc_editor::{
    apply_edit_line, delta_to_json, edit_failed_json, EditLineOutcome, EditSession,
    DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_TTL,
};
use ftqc_server::{Client, MultiSweepResponse, RetryPolicy, Server, ServerConfig, SweepResponse};
use ftqc_service::json::ToJson;
use ftqc_service::{
    fingerprint, render_results, BatchConfig, BatchService, CacheProvenance, CompileCache,
    CompileJob, JobResult, JobStatus, SharedCache, TargetRef,
};
use ftqc_telemetry::{render_span_tree, ActiveTrace, StageSpanHook, TraceId};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A CLI failure: argument, I/O, parse, or pipeline error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Unknown subcommand or circuit.
    Unknown(String),
    /// Anything the underlying libraries report.
    Pipeline(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Unknown(s) => write!(f, "{s}"),
            CliError::Pipeline(s) => write!(f, "{s}"),
        }
    }
}

impl Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// What a subcommand printed, plus whether the process should exit
/// non-zero even though there was a report to print (e.g. a batch where
/// some jobs failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// The report for stdout.
    pub text: String,
    /// Whether the run should exit with a failure status.
    pub failed: bool,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        CmdOutput {
            text,
            failed: false,
        }
    }
}

/// Dispatches a raw argument list to its subcommand.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong; `main` prints it to
/// stderr and exits non-zero.
pub fn run(raw: &[String]) -> Result<CmdOutput, CliError> {
    if raw.is_empty() {
        return Ok(help().into());
    }
    let parsed = parse(raw)?;
    match parsed.command.as_str() {
        "compile" => cmd_compile(&parsed),
        "explore" => cmd_explore(&parsed).map(CmdOutput::from),
        "sweep" => cmd_sweep(&parsed).map(CmdOutput::from),
        "batch" => cmd_batch(&parsed),
        "serve" => cmd_serve(&parsed).map(CmdOutput::from),
        "edit" => cmd_edit(&parsed),
        "client" => cmd_client(&parsed),
        "estimate" => cmd_estimate(&parsed).map(CmdOutput::from),
        "compare" => cmd_compare(&parsed).map(CmdOutput::from),
        "layout" => cmd_layout(&parsed).map(CmdOutput::from),
        "targets" => cmd_targets(&parsed).map(CmdOutput::from),
        "bench" => Ok(cmd_bench().into()),
        "help" | "--help" | "-h" => Ok(help().into()),
        other => Err(CliError::Unknown(format!(
            "unknown subcommand {other:?} (try `ftqc help`)"
        ))),
    }
}

fn help() -> String {
    "ftqc — space-time optimising compiler for early fault-tolerant quantum computers

USAGE: ftqc <command> [circuit] [options]

COMMANDS
  compile <circuit>    compile and print metrics
                       --target NAME|@spec.json   hardware target (preset name
                                     or a JSON spec file; see `ftqc targets`);
                                     explicit --r/--factories/--t-msf override
                                     the target's own values
                       --r N   routing paths (default 4)
                       --factories N (default 1)
                       --t-msf D     magic-state production time in d (default 11)
                       --verify      run the physical schedule verifier
                       --semantics   run the semantic replay verifier
                       --csv FILE    write the schedule as CSV
                       --svg FILE    render the schedule as an SVG Gantt chart
                       --optimize    peephole-optimise the circuit first
                       --mapping snake|row-major|interaction (default snake)
                       --no-lookahead / --no-redundant-elim / --unbounded-magic
                       --stop-after prepare|lower|map|schedule
                                     run the staged pipeline only that far and
                                     print the per-stage fingerprint report
                       --explain     full compile plus per-stage timing /
                                     fingerprint / cache-provenance table
                       --trace       full compile plus the request span tree
                                     (per-stage durations and self-times)
  explore <circuit>    sweep the design space
                       --r LO..HI (default 2..8), --factories LO..HI (default 1..4)
                       --pareto yes|no  print only the Pareto front (default no)
  sweep <circuit>      explore through the batch-compilation service
                       --parallel       fan the sweep across all cores
                       --workers N      worker threads (implies --parallel)
                       --cache FILE     JSON file-backed compile cache (reused
                                        across runs; created when missing)
                       --r / --factories / --pareto as for explore
                       --target NAME|@spec.json (repeatable) cross-target
                                        sweep: one grid + Pareto front per
                                        target, all sharing one stage cache;
                                        pinned-bus targets (sparse, explicit
                                        masks) sweep factories only
  batch <jobs.jsonl>   run a JSON-lines batch of compile jobs
                       one job per line, e.g.
                       {\"id\":\"a\",\"source\":{\"benchmark\":\"ising\",\"size\":2},
                        \"options\":{\"routing_paths\":4,\"factories\":1}}
                       source: {\"benchmark\":NAME[,\"size\":L]} | {\"qasm_file\":PATH}
                               | {\"qasm\":SOURCE}
                       a job may name a hardware target: \"target\":\"sparse\"
                       or an inline spec object (declare \"v\":2)
                       a malformed line fails that line only; the exit code
                       is non-zero when any job failed
                       --target NAME|@spec.json  default target for jobs
                                        still on the paper machine; a job's
                                        own \"target\" field or non-default
                                        machine options win (pin the paper
                                        machine with \"target\":\"paper\")
                       --workers N      worker threads (default: all cores)
                       --cache FILE     file-backed compile cache
                       --cache-capacity N  memory-tier entries (default 4096)
                       --out FILE       write results as JSON-lines
  serve                run the HTTP compile server (POST /v1/compile,
                       /v1/batch, /v1/sweep; GET /v1/cache/stats, /v1/traces,
                       /v1/trace/<id>, /healthz, /metrics) from sharded
                       epoll event loops (Linux only); a bounded admission
                       queue answers 429 + Retry-After over capacity;
                       Ctrl-C drains and persists the cache
                       --addr HOST:PORT (default 127.0.0.1:7070; port 0
                                         picks an ephemeral port)
                       --workers N      worker threads (default: all cores)
                       --cache FILE     file-backed compile cache, persisted
                                        on shutdown
                       --cache-capacity N / --max-connections N (dflt 4096)
                       --timeout-ms N   whole-request read deadline, then
                                        408 (default 10000)
                       --shards N       event-loop shards (default auto)
                       --queue-cap N    admission queue bound (default 256)
                       --queue-timeout-s N  max queue wait before a
                                        retryable 503 (default 30)
                       sessions: POST /v1/session opens an interactive edit
                       session (create body = compile-job shape); POST
                       /v1/session/<id>/edit applies JSONL edit batches,
                       each a full recompile; GET/DELETE /v1/session/<id>
                       --session-capacity N  max live sessions (default 64)
                       --session-ttl-s N     idle eviction (default 900)
  edit <circuit>       interactive edit loop: one edit (or
                       {\"edits\":[…]} batch) JSON per stdin line, one full
                       recompile and one delta-annotated result line per
                       batch; `quit` or EOF ends
                       edits: {\"op\":\"insert|remove|retarget|replace\",
                               \"index\":N[,\"gate\":{\"gate\":\"t\",\"qubits\":[0]}]
                               [,\"qubits\":[…]]}  (rz adds \"angle\", in π)
                       --from FILE.qasm  seed from an OpenQASM 2 file
                       --server HOST:PORT  keep the session on a remote
                                        server via /v1/session endpoints
                       compile options (--target/--r/--factories/…) as above
  client compile <circuit>   compile on a remote server
                       --addr HOST:PORT (default 127.0.0.1:7070)
                       --stop-after STAGE  POST /v1/compile?stage=STAGE (warm
                                           or probe the server's stage cache)
                       --target NAME|@spec.json  resolved by the server
                                           (wire v2)
                       --trace             also print the request's span
                                           tree from the server's recorder
                       compile options as for `compile`; file paths are
                       shipped as inline QASM
  client batch <jobs.jsonl>  run a JSONL batch on a remote server
                       --addr HOST:PORT, --out FILE as for `batch`
  client traces        list the server's retained request traces
                       --min-micros N   only traces at least N µs long
  client trace <id>    print one retained trace's span tree
  estimate <circuit>   physical resource estimate
                       --error-rate P (default 1e-3), --budget B (default 0.01)
                       --objective qubits|volume|time (default qubits)
  compare <circuit>    compare against Litinski, LSQCA, DASCOT and EDPC
                       --factories N (default 1), --r N (default 4)
  layout <n> <r>       render the layout for n data qubits, r routing paths
  targets [list]       list the registered hardware targets
  targets show <NAME|@spec.json>  canonical spec JSON + digest of a target
  bench                list built-in benchmark circuits

CIRCUITS
  built-ins: ising, heisenberg, fermi-hubbard (append :L for an LxL lattice,
  default 10), ghz, adder, multiplier — or a path to an OpenQASM 2 file.

OUTPUT
  compile, sweep, and client compile accept --json: machine-readable
  JobResult / sweep JSON on stdout instead of the human tables."
        .to_string()
}

/// Resolves a circuit argument: benchmark name (with optional `:L` size) or
/// a QASM file path. The shared recipe lives in `ftqc_service::resolve` so
/// the CLI and the HTTP server cannot drift on what a spec means.
fn load_circuit(spec: &str) -> Result<Circuit, CliError> {
    ftqc_service::resolve::load_circuit_spec(spec).map_err(CliError::Unknown)
}

/// The CLI's target registry: the built-in presets. User-defined specs
/// come in as `@file.json` values rather than registrations.
fn target_registry() -> TargetRegistry {
    TargetRegistry::builtin()
}

/// Resolves one `--target` value: a preset name against the registry, or
/// `@path.json` holding a standalone target-spec document. Returns the
/// display label alongside the spec.
fn parse_target_value(
    value: &str,
    registry: &TargetRegistry,
) -> Result<(String, TargetSpec), CliError> {
    if let Some(path) = value.strip_prefix('@') {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Unknown(format!("cannot read target spec {path:?}: {e}")))?;
        let doc = ftqc_service::Value::parse(&text)
            .map_err(|e| CliError::Unknown(format!("target spec {path}: {e}")))?;
        let spec = target_from_json(&doc)
            .map_err(|e| CliError::Unknown(format!("target spec {path}: {e}")))?;
        Ok((value.to_string(), spec))
    } else {
        ftqc_compiler::resolve_target_ref(&TargetRef::Named(value.to_string()), registry)
            .map(|spec| (value.to_string(), spec))
            .map_err(CliError::Unknown)
    }
}

/// Every `--target` value resolved, in command-line order.
fn targets_from(p: &ParsedArgs) -> Result<Vec<(String, TargetSpec)>, CliError> {
    let registry = target_registry();
    p.get_all("target")
        .into_iter()
        .map(|value| parse_target_value(value, &registry))
        .collect()
}

/// Whether any explicit machine flag was given (they override a
/// `--target` preset's own values).
fn machine_flags_present(p: &ParsedArgs) -> bool {
    ["r", "factories", "t-msf"]
        .iter()
        .any(|k| p.contains_key(k))
        || p.flag("unbounded-magic")
}

fn options_from(p: &ParsedArgs) -> Result<CompilerOptions, CliError> {
    let mut o = CompilerOptions::default();
    if let Some(value) = p.get("target") {
        let (_, spec) = parse_target_value(value, &target_registry())?;
        o = o.target(spec);
    }
    // Explicit flags override the target's own values; absent flags keep
    // them (for the default paper target these are r=4, f=1, t_MSF=11d).
    if p.contains_key("r") {
        o = o.routing_paths(p.get_or("r", 4u32)?);
    }
    if p.contains_key("factories") {
        o = o.factories(p.get_or("factories", 1u32)?);
    }
    if p.contains_key("t-msf") {
        o = o.magic_production(Ticks::from_d(p.get_or("t-msf", 11.0f64)?));
    }
    if p.flag("no-lookahead") {
        o = o.lookahead(false);
    }
    if p.flag("no-redundant-elim") {
        o = o.eliminate_redundant_moves(false);
    }
    if p.flag("unbounded-magic") {
        o = o.unbounded_magic(true);
    }
    if p.flag("optimize") {
        o = o.optimize(true);
    }
    o = o.mapping(match p.get_or("mapping", "snake".to_string())?.as_str() {
        "snake" => ftqc_compiler::MappingStrategy::Snake,
        "row-major" => ftqc_compiler::MappingStrategy::RowMajor,
        "interaction" => ftqc_compiler::MappingStrategy::InteractionAware,
        other => {
            return Err(CliError::Unknown(format!(
                "mapping {other:?} (use snake|row-major|interaction)"
            )))
        }
    });
    Ok(o)
}

fn circuit_arg(p: &ParsedArgs) -> Result<Circuit, CliError> {
    let spec = p
        .positionals
        .first()
        .ok_or_else(|| CliError::Unknown("missing circuit argument".into()))?;
    load_circuit(spec)
}

/// Builds the `JobResult` the `--json` flag emits for a locally compiled
/// circuit: the same codec the server speaks, so shell pipelines can mix
/// local and remote output.
fn local_job_result(id: &str, circuit: &Circuit, options: &CompilerOptions) -> JobResult<Metrics> {
    let started = Instant::now();
    let fingerprint = fingerprint::job_key(fingerprint::fingerprint_circuit(circuit), options);
    let (status, metrics) = match compile_metrics(circuit, options) {
        Ok(m) => (JobStatus::Ok, Some(m)),
        Err(e) => (JobStatus::Failed(e), None),
    };
    JobResult {
        id: id.to_string(),
        fingerprint,
        status,
        metrics,
        provenance: CacheProvenance::Computed,
        micros: started.elapsed().as_micros() as u64,
        queue_micros: 0,
        stage: None,
    }
}

fn cmd_compile(p: &ParsedArgs) -> Result<CmdOutput, CliError> {
    let spec = p
        .positionals
        .first()
        .ok_or_else(|| CliError::Unknown("missing circuit argument".into()))?
        .clone();
    let circuit = load_circuit(&spec)?;
    let options = options_from(p)?;
    let timing = options.target.timing;
    let stop_after = match p.get("stop-after") {
        None => None,
        Some(name) => Some(Stage::parse_or_err(name).map_err(CliError::Unknown)?),
    };

    if p.flag("json") {
        if p.flag("explain") {
            return Err(CliError::Unknown(
                "--explain is a human-readable report; drop --json or --explain".into(),
            ));
        }
        if p.flag("trace") {
            return Err(CliError::Unknown(
                "--trace is a human-readable report; drop --json or --trace".into(),
            ));
        }
        // `--json --stop-after <stage>`: the same staged JobResult the
        // server's `?stage=` endpoint returns. A compile failure stays on
        // the JSON contract too — a failed result document, not a
        // plain-text error.
        if let Some(stop) = stop_after {
            let started = Instant::now();
            let result = match CompileSession::new(options).run_until(&circuit, stop) {
                Ok(run) => JobResult::<Metrics> {
                    id: spec,
                    fingerprint: run.fingerprint,
                    status: JobStatus::Ok,
                    metrics: run.program.as_ref().map(|prog| *prog.metrics()),
                    provenance: CacheProvenance::Computed,
                    micros: started.elapsed().as_micros() as u64,
                    queue_micros: 0,
                    stage: Some(run.stage.name().to_string()),
                },
                Err(e) => JobResult::<Metrics> {
                    id: spec,
                    fingerprint: 0,
                    status: JobStatus::Failed(e.to_string()),
                    metrics: None,
                    provenance: CacheProvenance::Computed,
                    micros: started.elapsed().as_micros() as u64,
                    queue_micros: 0,
                    stage: None,
                },
            };
            let failed = !result.is_ok();
            return Ok(CmdOutput {
                text: result.to_json().render(),
                failed,
            });
        }
        let result = local_job_result(&spec, &circuit, &options);
        return Ok(CmdOutput {
            text: result.to_json().render(),
            failed: !result.is_ok(),
        });
    }

    // `--stop-after <stage>`: run the staged session up to the named
    // stage and report the trail — no schedule, no metrics.
    if let Some(stop) = stop_after {
        if stop != Stage::Schedule {
            let run = CompileSession::new(options)
                .run_until(&circuit, stop)
                .map_err(|e| CliError::Pipeline(e.to_string()))?;
            let mut out = render_stage_trace(&run.events);
            let _ = write!(
                out,
                "stopped after {} (artifact {})",
                run.stage,
                fingerprint::to_hex(run.fingerprint)
            );
            return Ok(out.into());
        }
        // --stop-after schedule is a full compile; fall through (with the
        // stage table, like --explain).
    }

    // `--explain` / `--trace`: compile through the session with a trace
    // hook and prepend the per-stage report (a timing/fingerprint table
    // for --explain, a span tree with self-times for --trace).
    let want_table = p.flag("explain") || stop_after == Some(Stage::Schedule);
    let span_trace = p
        .flag("trace")
        .then(|| ActiveTrace::begin(TraceId::mint(), "compile"));
    let (program, explain) = if want_table || span_trace.is_some() {
        let trace = StageTrace::new();
        let mut session = CompileSession::new(options).with_hook(trace.clone());
        if let Some(active) = &span_trace {
            session = session.with_hook(std::sync::Arc::new(
                StageSpanHook::new(std::sync::Arc::clone(active)).with_attr("job", &spec),
            ));
        }
        let program = session
            .compile(&circuit)
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
        (
            program,
            want_table.then(|| render_stage_trace(&trace.events())),
        )
    } else {
        let program = Compiler::new(options)
            .compile(&circuit)
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
        (program, None)
    };

    let mut out = String::new();
    let m = program.metrics();
    if let Some(active) = span_trace {
        // Status 0 = the process-exit convention for a successful local
        // compile (there is no HTTP status to report).
        out.push_str(&render_span_tree(&active.finish(0, "compile")));
    }
    if let Some(trace) = explain {
        out.push_str(&trace);
        let _ = writeln!(out, "router    : {} arena reuses", m.route.arena_reuses);
    }
    let _ = writeln!(
        out,
        "circuit         : {} ({} qubits, {} gates)",
        circuit.name(),
        circuit.num_qubits(),
        circuit.len()
    );
    let _ = writeln!(
        out,
        "layout          : r={} ({} patches + {} factory tiles)",
        m.routing_paths, m.grid_patches, m.factory_patches
    );
    let _ = writeln!(
        out,
        "execution time  : {} (unit-cost {})",
        m.execution_time, m.unit_cost_time
    );
    let _ = writeln!(
        out,
        "lower bound     : {} (overhead {:.2}x)",
        m.lower_bound,
        m.overhead()
    );
    let _ = writeln!(out, "magic states    : {}", m.n_magic_states);
    let _ = writeln!(
        out,
        "surgery ops     : {} ({} moves, {} eliminated)",
        m.n_surgery_ops, m.n_moves, m.n_moves_eliminated
    );
    let _ = writeln!(
        out,
        "spacetime volume: {:.0} qubit-d (incl. factories)",
        m.spacetime_volume(true)
    );
    let _ = write!(
        out,
        "bottleneck      : {}",
        ftqc_compiler::diagnose(&program)
    );

    if p.flag("verify") {
        verify(&program, &timing).map_err(|e| CliError::Pipeline(format!("VERIFY FAILED: {e}")))?;
        let _ = write!(out, "\nphysical verify : ok");
    }
    if p.flag("semantics") {
        let r = check_semantics(&circuit, &program)
            .map_err(|e| CliError::Pipeline(format!("SEMANTICS FAILED: {e}")))?;
        let _ = write!(out, "\nsemantic verify : ok ({r})");
    }
    if let Some(path) = p.get("csv") {
        std::fs::write(path, to_csv(&program))
            .map_err(|e| CliError::Pipeline(format!("cannot write {path}: {e}")))?;
        let _ = write!(out, "\nschedule csv    : {path}");
    }
    if let Some(path) = p.get("svg") {
        std::fs::write(path, to_svg(&program))
            .map_err(|e| CliError::Pipeline(format!("cannot write {path}: {e}")))?;
        let _ = write!(out, "\nschedule svg    : {path}");
    }
    Ok(out.into())
}

/// The per-stage table behind `compile --explain` and `--stop-after`.
fn render_stage_trace(events: &[StageEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:>17} {:>9} {:>9}",
        "stage", "fingerprint", "cache", "µs"
    );
    for e in events {
        let _ = writeln!(
            out,
            "{:<9} {:>17} {:>9} {:>9}",
            e.stage.name(),
            fingerprint::to_hex(e.fingerprint),
            if e.cached { "hit" } else { "computed" },
            e.micros,
        );
    }
    out
}

/// One-line stage-cache summary shared by `sweep` and `batch` reports.
fn render_stage_stats(stats: &StageCacheStats) -> String {
    Stage::ALL
        .iter()
        .map(|s| {
            let c = stats.for_stage(*s);
            format!("{} {}/{}", s.name(), c.hits, c.lookups())
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_design_points(rows: &[DesignPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>3} {:>9} {:>8} {:>12} {:>10} {:>14}",
        "r", "factories", "qubits", "time (d)", "overhead", "volume (q·d)"
    );
    for pt in rows {
        let _ = writeln!(
            out,
            "{:>3} {:>9} {:>8} {:>12.1} {:>9.2}x {:>14.0}",
            pt.routing_paths,
            pt.factories,
            pt.qubits(),
            pt.time_d(),
            pt.metrics.overhead(),
            pt.volume(),
        );
    }
    let _ = write!(out, "{} design points", rows.len());
    out
}

fn cmd_explore(p: &ParsedArgs) -> Result<String, CliError> {
    let circuit = circuit_arg(p)?;
    let rs = p.range_or("r", (2, 8))?;
    let fs = p.range_or("factories", (1, 4))?;
    let pareto: String = p.get_or("pareto", "no".to_string())?;
    let points = explore(&circuit, &rs, &fs, &CompilerOptions::default())
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let rows = if pareto == "yes" {
        pareto_front(&points)
    } else {
        points
    };
    Ok(render_design_points(&rows))
}

/// The `--workers` option resolved against the service's 0-means-all-cores
/// convention.
fn worker_count(p: &ParsedArgs) -> Result<usize, CliError> {
    let n: usize = p.get_or("workers", 0)?;
    Ok(if n == 0 {
        ftqc_service::WorkerPool::auto().workers()
    } else {
        n
    })
}

/// `explore` routed through the batch-compilation service: a worker pool
/// plus a (optionally file-backed) content-addressed compile cache.
fn cmd_sweep(p: &ParsedArgs) -> Result<String, CliError> {
    let circuit = circuit_arg(p)?;
    let rs = p.range_or("r", (2, 8))?;
    let fs = p.range_or("factories", (1, 4))?;
    let pareto: String = p.get_or("pareto", "no".to_string())?;
    // --parallel defaults to all cores; an explicit --workers N implies
    // parallelism on its own rather than being silently ignored.
    let workers = if p.flag("parallel") || p.contains_key("workers") {
        worker_count(p)?
    } else {
        1
    };

    let cache_file = p.get("cache").map(PathBuf::from);
    let mut cache = CompileCache::new(ftqc_service::DEFAULT_CACHE_CAPACITY);
    if let Some(path) = &cache_file {
        cache = cache
            .with_file_tier(path)
            .map_err(|e| CliError::Pipeline(format!("cache file: {e}")))?;
    }
    let cache = SharedCache::new(cache);

    let stages = StageCache::new(ftqc_compiler::DEFAULT_STAGE_CACHE_CAPACITY);

    // `--target a --target b …` makes a cross-target sweep: one grid and
    // one Pareto front per target, through the same worker pool, metrics
    // cache and stage cache as the single-machine grid. Each branch yields
    // the `--json` document (the one the server's POST /v1/sweep returns)
    // and the table it prints.
    let targets = targets_from(p)?;
    let base = CompilerOptions::default();
    let workers_u64 = workers as u64;
    let pipeline = |e: ftqc_compiler::CompileError| CliError::Pipeline(e.to_string());
    let (doc, mut out) = if targets.is_empty() {
        let points = explore_session(&circuit, &rs, &fs, &base, workers, &cache, &stages)
            .map_err(pipeline)?;
        let rows = if pareto == "yes" {
            pareto_front(&points)
        } else {
            points
        };
        let table = render_design_points(&rows) + "\n";
        let response = SweepResponse {
            points: rows,
            cache: cache.stats(),
            workers: workers_u64,
        };
        (response.to_json(), table)
    } else {
        let sweeps = explore_targets(
            &circuit, &targets, &rs, &fs, &base, workers, &cache, &stages,
        )
        .map_err(pipeline)?;
        let mut table = String::new();
        for sweep in &sweeps {
            let _ = writeln!(
                table,
                "== target {} (digest {})",
                sweep.name,
                fingerprint::to_hex(sweep.digest)
            );
            table.push_str(&render_design_points(&sweep.front));
            let _ = writeln!(
                table,
                " on the Pareto front ({} grid points evaluated)",
                sweep.points.len()
            );
        }
        let response = MultiSweepResponse {
            targets: sweeps,
            cache: cache.stats(),
            workers: workers_u64,
        };
        (response.to_json(), table)
    };

    if cache_file.is_some() {
        cache
            .persist()
            .map_err(|e| CliError::Pipeline(format!("cannot persist cache: {e}")))?;
    }
    if p.flag("json") {
        return Ok(doc.render());
    }
    let stats = cache.stats();
    let _ = write!(
        out,
        "service: {workers} worker(s), cache {}/{} hits ({:.0}%){}\nstage cache: {}",
        stats.hits,
        stats.lookups(),
        stats.hit_rate() * 100.0,
        match &cache_file {
            Some(f) => format!(", file tier {}", f.display()),
            None => String::new(),
        },
        render_stage_stats(&stages.stats()),
    );
    Ok(out)
}

use ftqc_service::resolve::resolve_source;

/// The compile closure `batch` and the compile/sweep paths share.
fn compile_metrics(circuit: &Circuit, options: &CompilerOptions) -> Result<Metrics, String> {
    Compiler::new(options.clone())
        .compile(circuit)
        .map(|program| *program.metrics())
        .map_err(|e| e.to_string())
}

/// The per-job table shared by `batch` and `client batch`.
fn render_batch_table(results: &[JobResult<Metrics>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>8} {:>12} {:>14} {:>9} {:>10}",
        "job", "status", "qubits", "time (d)", "volume (q·d)", "cache", "µs"
    );
    for r in results {
        match (&r.status, &r.metrics) {
            (JobStatus::Ok, Some(m)) => {
                let _ = writeln!(
                    out,
                    "{:<16} {:>7} {:>8} {:>12.1} {:>14.0} {:>9} {:>10}",
                    r.id,
                    "ok",
                    m.total_qubits(),
                    m.execution_time.as_d(),
                    m.spacetime_volume(true),
                    r.provenance.as_str(),
                    r.micros,
                );
            }
            (JobStatus::Failed(e), _) => {
                let _ = writeln!(out, "{:<16} {:>7}  {e}", r.id, "FAILED");
            }
            // A staged job stopped before scheduling: no metrics to show,
            // but the stage and its artifact fingerprint are the payload.
            (JobStatus::Ok, None) => {
                let _ = writeln!(
                    out,
                    "{:<16} {:>7}  stopped after {} (artifact {})",
                    r.id,
                    "ok",
                    r.stage.as_deref().unwrap_or("?"),
                    fingerprint::to_hex(r.fingerprint),
                );
            }
        }
    }
    out
}

/// Writes `--out FILE` results, appending a note to the report.
fn write_results_out(
    p: &ParsedArgs,
    results: &[JobResult<Metrics>],
    out: &mut String,
) -> Result<(), CliError> {
    if let Some(out_path) = p.get("out") {
        std::fs::write(out_path, render_results(results))
            .map_err(|e| CliError::Pipeline(format!("cannot write {out_path}: {e}")))?;
        let _ = write!(out, "\nresults jsonl   : {out_path}");
    }
    Ok(())
}

/// Runs a JSON-lines batch of compile jobs through the service. A
/// malformed line fails that line only; the exit status is non-zero when
/// any job failed.
fn cmd_batch(p: &ParsedArgs) -> Result<CmdOutput, CliError> {
    let path = p
        .positionals
        .first()
        .ok_or_else(|| CliError::Unknown("usage: ftqc batch <jobs.jsonl>".into()))?;
    let jsonl = std::fs::read_to_string(path)
        .map_err(|e| CliError::Unknown(format!("cannot read {path:?}: {e}")))?;

    let cache_capacity: usize = p.get_or("cache-capacity", ftqc_service::DEFAULT_CACHE_CAPACITY)?;
    if cache_capacity == 0 {
        return Err(CliError::Unknown(
            "--cache-capacity must be at least 1".into(),
        ));
    }
    let config = BatchConfig {
        workers: worker_count(p)?,
        cache_capacity,
        cache_file: p.get("cache").map(PathBuf::from),
    };
    let persist = config.cache_file.is_some();
    let workers = config.workers;
    let service: BatchService<Metrics> =
        BatchService::new(config).map_err(|e| CliError::Pipeline(format!("cache file: {e}")))?;

    let started = Instant::now();
    // One stage cache across the whole batch: jobs that share a circuit
    // reuse prepare/lower (and map, when only scheduling knobs differ),
    // and `stop_after`/`resume_from` job fields are honoured.
    let stages = StageCache::new(ftqc_compiler::DEFAULT_STAGE_CACHE_CAPACITY);
    // `--target` sets the default machine for jobs whose decoded machine
    // spec is still the paper default; a job's own "target" field or any
    // machine option that moves off the default wins. (A job that spells
    // out exactly the paper defaults is indistinguishable from one that
    // said nothing — add `"target":"paper"` to pin it explicitly.)
    // Resolution runs before each job is fingerprinted.
    let registry = target_registry();
    let default_target = p
        .get("target")
        .map(|value| parse_target_value(value, &registry))
        .transpose()?
        .map(|(_, spec)| spec);
    let results = service.run_jsonl_with::<CompilerOptions, _, _, _>(
        &jsonl,
        |mut job| {
            if job.target.is_none() && job.options.target == TargetSpec::paper() {
                if let Some(spec) = &default_target {
                    job.options.target = spec.clone();
                }
            }
            apply_job_target(job, &registry)
        },
        resolve_source,
        |c, job| {
            let session = CompileSession::new(job.options.clone()).with_cache(stages.clone());
            stage_outcome(
                &session,
                c,
                job.stop_after.as_deref(),
                job.resume_from.as_deref(),
            )
        },
    );
    let elapsed = started.elapsed();
    if results.is_empty() {
        return Err(CliError::Unknown(format!("{path} contains no jobs")));
    }
    if persist {
        service
            .persist_cache()
            .map_err(|e| CliError::Pipeline(format!("cannot persist cache: {e}")))?;
    }

    let mut out = render_batch_table(&results);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let stats = service.cache_stats();
    let _ = write!(
        out,
        "{ok}/{} jobs ok in {:.1} ms ({workers} workers); cache: {} hits / {} lookups ({:.0}%)",
        results.len(),
        elapsed.as_secs_f64() * 1e3,
        stats.hits,
        stats.lookups(),
        stats.hit_rate() * 100.0,
    );
    let _ = write!(
        out,
        "\nstage cache: {}",
        render_stage_stats(&stages.stats())
    );
    write_results_out(p, &results, &mut out)?;
    Ok(CmdOutput {
        text: out,
        failed: ok < results.len(),
    })
}

/// Every option `ftqc serve` documents; anything else is refused before
/// the server binds.
const SERVE_OPTIONS: &[&str] = &[
    "addr",
    "workers",
    "cache",
    "cache-capacity",
    "max-connections",
    "timeout-ms",
    "shards",
    "queue-cap",
    "queue-timeout-s",
    "session-capacity",
    "session-ttl-s",
];

/// Runs the HTTP compile server until SIGINT (or a shutdown poke), then
/// reports what it served.
fn cmd_serve(p: &ParsedArgs) -> Result<String, CliError> {
    p.reject_unknown(SERVE_OPTIONS)?;
    let cache_capacity: usize = p.get_or("cache-capacity", ftqc_service::DEFAULT_CACHE_CAPACITY)?;
    if cache_capacity == 0 {
        return Err(CliError::Unknown(
            "--cache-capacity must be at least 1".into(),
        ));
    }
    let config = ServerConfig {
        addr: p.get_or("addr", "127.0.0.1:7070".to_string())?,
        workers: p.get_or("workers", 0usize)?,
        cache_capacity,
        cache_file: p.get("cache").map(PathBuf::from),
        max_connections: p.get_or("max-connections", 4096usize)?.max(1),
        read_timeout: Duration::from_millis(p.get_or("timeout-ms", 10_000u64)?),
        shards: p.get_or("shards", 0usize)?,
        queue_cap: p.get_or("queue-cap", 256usize)?.max(1),
        queue_timeout: Duration::from_secs(p.get_or("queue-timeout-s", 30u64)?.max(1)),
        session_capacity: p
            .get_or("session-capacity", DEFAULT_SESSION_CAPACITY)?
            .max(1),
        session_ttl: Duration::from_secs(
            p.get_or("session-ttl-s", DEFAULT_SESSION_TTL.as_secs())?
                .max(1),
        ),
        ..ServerConfig::default()
    };
    let cache_note = match &config.cache_file {
        Some(f) => format!(", cache file {}", f.display()),
        None => String::new(),
    };
    let server = Server::bind(config).map_err(|e| CliError::Pipeline(e.to_string()))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    server.install_sigint_handler();
    // Announce before blocking: main only prints after run() returns.
    println!(
        "ftqc-server listening on {addr} ({} workers{cache_note}); Ctrl-C to stop",
        server.workers()
    );
    let report = server
        .run()
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let mut out = format!(
        "shut down cleanly: {} requests over {} connections; cache: {} hits / {} lookups ({:.0}%)",
        report.requests,
        report.connections,
        report.cache.hits,
        report.cache.lookups(),
        report.cache.hit_rate() * 100.0,
    );
    if let Some(path) = report.persisted {
        let _ = write!(out, "\ncache persisted : {}", path.display());
    }
    Ok(out)
}

/// Seeds the edit session's circuit: `--from file.qasm` parses the file
/// through the OpenQASM reader; otherwise the positional spec resolves
/// like every other command's circuit argument.
fn edit_seed(p: &ParsedArgs) -> Result<(String, Circuit), CliError> {
    if let Some(path) = p.get("from") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Unknown(format!("cannot read {path:?}: {e}")))?;
        let circuit = ftqc_circuit::parse_qasm(&text)
            .map_err(|e| CliError::Unknown(format!("QASM parse error in {path:?}: {e}")))?;
        return Ok((path.clone(), circuit));
    }
    let spec = p
        .positionals
        .first()
        .ok_or_else(|| CliError::Unknown("usage: ftqc edit <circuit> | --from file.qasm".into()))?;
    Ok((spec.clone(), load_circuit(spec)?))
}

/// `ftqc edit`: an interactive edit loop. Reads one edit (or edit-set)
/// JSON document per stdin line, applies it to the live session, compiles
/// the edited circuit in full, and prints one delta-annotated result line
/// per batch, through the same `apply_edit_line` that answers
/// `POST /v1/session/<id>/edit`. The trailer counts the full compiles,
/// the seed compile included. With `--server ADDR` the session lives on a
/// remote server instead and every batch round-trips through
/// `/v1/session/<id>/edit`.
fn cmd_edit(p: &ParsedArgs) -> Result<CmdOutput, CliError> {
    use std::io::BufRead as _;
    if let Some(addr) = p.get("server") {
        return cmd_edit_remote(p, addr);
    }
    let (label, circuit) = edit_seed(p)?;
    let options = options_from(p)?;
    let started = Instant::now();
    let (mut session, delta) = EditSession::open("local", circuit, options)
        .map_err(|e| CliError::Pipeline(format!("seed compile failed: {e}")))?;
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    println!(
        "{}",
        ftqc_service::json::Value::Obj(vec![
            (
                "id".to_string(),
                ftqc_service::json::Value::Str("local".into())
            ),
            ("source".to_string(), ftqc_service::json::Value::Str(label)),
            ("version".to_string(), ftqc_service::json::Value::Num(0.0)),
            (
                "gates".to_string(),
                ftqc_service::json::Value::Num(session.circuit().len() as f64)
            ),
            ("delta".to_string(), delta_to_json(&delta)),
            ("metrics".to_string(), session.program().metrics().to_json()),
            (
                "micros".to_string(),
                ftqc_service::json::Value::Num(micros as f64)
            ),
        ])
        .render()
    );
    let stdin = std::io::stdin();
    let mut batches = 0u64;
    let mut rejected = 0u64;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CliError::Pipeline(e.to_string()))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        batches += 1;
        let (doc, outcome) = apply_edit_line(&mut session, line);
        if !matches!(outcome, EditLineOutcome::Applied { .. }) {
            rejected += 1;
        }
        println!("{}", doc.render());
    }
    Ok(CmdOutput {
        text: format!(
            "session closed at v{}: {} batches ({} rejected), {} full compiles",
            session.version(),
            batches,
            rejected,
            session.full_recompiles(),
        ),
        failed: false,
    })
}

/// The remote half of `ftqc edit --server ADDR`.
fn cmd_edit_remote(p: &ParsedArgs, addr: &str) -> Result<CmdOutput, CliError> {
    use std::io::BufRead as _;
    let source = if let Some(path) = p.get("from") {
        let qasm = std::fs::read_to_string(path)
            .map_err(|e| CliError::Unknown(format!("cannot read {path:?}: {e}")))?;
        ftqc_service::CircuitSource::QasmInline { qasm }
    } else {
        let spec = p.positionals.first().ok_or_else(|| {
            CliError::Unknown("usage: ftqc edit <circuit> | --from file.qasm".into())
        })?;
        ftqc_service::resolve::source_from_spec(spec).map_err(CliError::Unknown)?
    };
    let options = options_from(p)?;
    let client = Client::new(addr).retry(RetryPolicy::default());
    let job = CompileJob::new("edit", source, options);
    let descriptor = client
        .session_create(&job)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let id = descriptor
        .get("id")
        .and_then(|v| v.as_str())
        .ok_or_else(|| CliError::Pipeline("session descriptor has no id".into()))?
        .to_string();
    println!("{}", descriptor.render());
    let stdin = std::io::stdin();
    let mut batches = 0u64;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CliError::Pipeline(e.to_string()))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        batches += 1;
        match client.session_edit(&id, line) {
            Ok(docs) => {
                for doc in docs {
                    println!("{}", doc.render());
                }
            }
            Err(e) => println!(
                "{}",
                edit_failed_json(&id, 0, &format!("edit request failed: {e}")).render()
            ),
        }
    }
    let closed = client
        .session_close(&id)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    Ok(CmdOutput {
        text: format!(
            "closed remote session {id} after {batches} batches: {}",
            closed.render()
        ),
        failed: false,
    })
}

/// `ftqc client compile|batch --addr …`: drive a remote compile server.
fn cmd_client(p: &ParsedArgs) -> Result<CmdOutput, CliError> {
    let addr: String = p.get_or("addr", "127.0.0.1:7070".to_string())?;
    // Transient transport blips (server mid-restart, connection reset)
    // retry with bounded jittered backoff rather than failing the command.
    let client = Client::new(addr).retry(RetryPolicy::default());
    let usage =
        || CliError::Unknown("usage: ftqc client compile|batch|trace|traces <arg> [--addr]".into());
    match p.positionals.first().map(String::as_str) {
        Some("compile") => {
            let spec = p.positionals.get(1).ok_or_else(usage)?;
            let source =
                ftqc_service::resolve::source_from_spec(spec).map_err(CliError::Unknown)?;
            let options = options_from(p)?;
            // Ship the target for the server to resolve (wire v2): the
            // preset name when nothing overrides it, otherwise the merged
            // spec inline so explicit --r/--factories flags survive the
            // server-side replacement.
            let job_target = match p.get("target") {
                None => None,
                Some(value) if !value.starts_with('@') && !machine_flags_present(p) => {
                    Some(TargetRef::Named(value.clone()))
                }
                Some(_) => Some(TargetRef::Inline(target_to_json(&options.target))),
            };
            let mut job = CompileJob::new(spec.clone(), source, options);
            job.target = job_target;
            // `--trace`: use the header-aware exchange, then pull the full
            // span tree back off the server's flight recorder.
            let mut trace_tree = None;
            let result = match (p.get("stop-after"), p.flag("trace")) {
                (Some(stage), _) => client.compile_staged(&job, stage),
                (None, false) => client.compile(&job),
                (None, true) => client.compile_traced(&job).map(|(result, id)| {
                    trace_tree = id
                        .and_then(|id| client.trace(id).ok())
                        .map(|t| render_span_tree(&t));
                    result
                }),
            }
            .map_err(|e| CliError::Pipeline(e.to_string()))?;
            let failed = !result.is_ok();
            if p.flag("json") {
                return Ok(CmdOutput {
                    text: result.to_json().render(),
                    failed,
                });
            }
            let mut text = trace_tree.unwrap_or_default();
            text.push_str(render_batch_table(std::slice::from_ref(&result)).trim_end());
            Ok(CmdOutput { text, failed })
        }
        Some("trace") => {
            let raw = p.positionals.get(1).ok_or_else(usage)?;
            let id = TraceId::parse(raw).ok_or_else(|| {
                CliError::Unknown(format!("malformed trace id {raw:?} (want 1-16 hex digits)"))
            })?;
            let trace = client
                .trace(id)
                .map_err(|e| CliError::Pipeline(e.to_string()))?;
            Ok(render_span_tree(&trace).trim_end().to_string().into())
        }
        Some("traces") => {
            let min_micros: u64 = p.get_or("min-micros", 0)?;
            let summaries = client
                .traces(min_micros)
                .map_err(|e| CliError::Pipeline(e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<17} {:<11} {:>6} {:>12} {:>6}",
                "trace", "endpoint", "status", "µs", "spans"
            );
            for s in &summaries {
                let _ = writeln!(
                    out,
                    "{:<17} {:<11} {:>6} {:>12} {:>6}",
                    s.id.to_hex(),
                    s.endpoint,
                    s.status,
                    s.duration_micros,
                    s.spans
                );
            }
            let _ = write!(out, "{} traces retained", summaries.len());
            Ok(out.into())
        }
        Some("batch") => {
            let path = p.positionals.get(1).ok_or_else(usage)?;
            let jsonl = std::fs::read_to_string(path)
                .map_err(|e| CliError::Unknown(format!("cannot read {path:?}: {e}")))?;
            let results = client
                .batch(&jsonl)
                .map_err(|e| CliError::Pipeline(e.to_string()))?;
            let ok = results.iter().filter(|r| r.is_ok()).count();
            if p.flag("json") {
                // Stdout stays pure JSONL (--out still writes its file,
                // but the human-readable note would corrupt the stream).
                let mut text = render_results(&results);
                text.truncate(text.trim_end().len());
                let mut ignored_note = String::new();
                write_results_out(p, &results, &mut ignored_note)?;
                return Ok(CmdOutput {
                    text,
                    failed: ok < results.len(),
                });
            }
            let mut out = render_batch_table(&results);
            let _ = write!(out, "{ok}/{} jobs ok (remote)", results.len());
            write_results_out(p, &results, &mut out)?;
            Ok(CmdOutput {
                text: out,
                failed: ok < results.len(),
            })
        }
        _ => Err(usage()),
    }
}

fn cmd_estimate(p: &ParsedArgs) -> Result<String, CliError> {
    let circuit = circuit_arg(p)?;
    let objective = match p.get_or("objective", "qubits".to_string())?.as_str() {
        "qubits" => Objective::PhysicalQubits,
        "volume" => Objective::SpacetimeVolume,
        "time" => Objective::WallClock,
        other => {
            return Err(CliError::Unknown(format!(
                "objective {other:?} (use qubits|volume|time)"
            )))
        }
    };
    let request = EstimateRequest {
        budget: p.get_or("budget", 0.01f64)?,
        assumptions: PhysicalAssumptions {
            physical_error_rate: p.get_or("error-rate", 1e-3f64)?,
            ..PhysicalAssumptions::superconducting()
        },
        objective,
        ..Default::default()
    };
    let e =
        estimate_resources(&circuit, &request).map_err(|e| CliError::Pipeline(e.to_string()))?;
    Ok(format!("{e}"))
}

fn cmd_compare(p: &ParsedArgs) -> Result<String, CliError> {
    let circuit = circuit_arg(p)?;
    let options = options_from(p)?;
    let timing = options.target.timing;
    let f = options.target.factories;
    let program = Compiler::new(options.clone())
        .compile(&circuit)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let m = program.metrics();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>8} {:>16}",
        "approach", "qubits", "time (d)", "CPI", "volume/op (q·d)"
    );
    let mut row = |name: &str, qubits: u32, time: Ticks, n_ops: usize| {
        let cpi = time.as_d() / n_ops.max(1) as f64;
        let vol = qubits as f64 * time.as_d() / n_ops.max(1) as f64;
        let _ = writeln!(
            out,
            "{name:<28} {qubits:>8} {:>12.1} {cpi:>8.2} {vol:>16.1}",
            time.as_d()
        );
    };
    row(
        "ours (greedy, this work)",
        m.total_qubits(),
        m.execution_time,
        m.n_gates,
    );

    for block in [
        BlockLayout::Compact,
        BlockLayout::Intermediate,
        BlockLayout::Fast,
    ] {
        let g = GameOfSurfaceCodes::new(block)
            .factories(f)
            .estimate(&circuit);
        row(&g.name, g.total_qubits(), g.execution_time, g.n_input_gates);
    }
    let l = LineSam::new().factories(f).estimate(&circuit);
    row(&l.name, l.total_qubits(), l.execution_time, l.n_input_gates);
    let d = dascot_estimate(&circuit, Some(f), &timing);
    row(&d.name, d.total_qubits(), d.execution_time, d.n_input_gates);
    let e = edpc_estimate(&circuit, Some(f), &timing);
    row(&e.name, e.total_qubits(), e.execution_time, e.n_input_gates);

    let _ = write!(out, "({} factories, t_MSF={})", f, timing.magic_production);
    Ok(out)
}

fn cmd_layout(p: &ParsedArgs) -> Result<String, CliError> {
    let n: u32 = p
        .positionals
        .first()
        .ok_or_else(|| CliError::Unknown("usage: ftqc layout <n> <r>".into()))?
        .parse()
        .map_err(|_| CliError::Unknown("n must be a number".into()))?;
    let r: u32 = p
        .positionals
        .get(1)
        .ok_or_else(|| CliError::Unknown("usage: ftqc layout <n> <r>".into()))?
        .parse()
        .map_err(|_| CliError::Unknown("r must be a number".into()))?;
    let layout =
        Layout::try_with_routing_paths(n, r).map_err(|e| CliError::Pipeline(e.to_string()))?;
    Ok(format!(
        "{}\n{} data qubits, r={}: {} patches ({}x{} grid)",
        render_layout(&layout),
        n,
        r,
        layout.total_patches(),
        layout.grid().rows(),
        layout.grid().cols(),
    ))
}

/// `ftqc targets [list]` / `ftqc targets show <NAME|@spec.json>`.
fn cmd_targets(p: &ParsedArgs) -> Result<String, CliError> {
    let registry = target_registry();
    match p.positionals.first().map(String::as_str) {
        None | Some("list") => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<10} {:>3} {:>9} {:>7} {:>6} {:<18} description",
                "name", "r", "factories", "t_msf", "bus", "digest"
            );
            for entry in registry.entries() {
                let spec = &entry.spec;
                let _ = writeln!(
                    out,
                    "{:<10} {:>3} {:>9} {:>7} {:>6} {:<18} {}",
                    entry.name,
                    spec.routing_paths(),
                    spec.factories,
                    spec.timing.magic_production.to_string(),
                    if spec.bus_is_pinned() {
                        "pinned"
                    } else {
                        "swept"
                    },
                    fingerprint::to_hex(target_digest(spec)),
                    entry.description,
                );
            }
            let _ = write!(
                out,
                "use --target NAME on compile/sweep/batch, or --target @spec.json \
                 for a custom machine (see `ftqc targets show paper` for the schema)"
            );
            Ok(out)
        }
        Some("show") => {
            let value = p.positionals.get(1).ok_or_else(|| {
                CliError::Unknown("usage: ftqc targets show <NAME|@spec.json>".into())
            })?;
            let (label, spec) = parse_target_value(value, &registry)?;
            Ok(format!(
                "target : {label}\ndigest : {}\nspec   : {}",
                fingerprint::to_hex(target_digest(&spec)),
                target_to_json(&spec).render(),
            ))
        }
        Some(other) => Err(CliError::Unknown(format!(
            "unknown targets subcommand {other:?} (use list|show)"
        ))),
    }
}

fn cmd_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>7} {:>7} {:>8}",
        "benchmark", "qubits", "gates", "T-count"
    );
    for b in Benchmark::all() {
        let c = b.circuit();
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>7} {:>8}",
            b.name(),
            c.num_qubits(),
            c.len(),
            c.t_count()
        );
    }
    let _ = write!(
        out,
        "condensed-matter families accept `:L` (e.g. ising:4 for a 4x4 lattice)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(s: &str) -> Result<String, CliError> {
        run_full(s).map(|out| out.text)
    }

    fn run_full(s: &str) -> Result<CmdOutput, CliError> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(&argv)
    }

    #[test]
    fn help_on_empty_and_help() {
        assert!(run(&[]).unwrap().text.contains("USAGE"));
        assert!(run_line("help").unwrap().contains("USAGE"));
        assert!(run_line("help").unwrap().contains("serve"));
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(run_line("frobnicate").is_err());
    }

    #[test]
    fn bench_lists_table1() {
        let out = run_line("bench").unwrap();
        assert!(out.contains("Ising 2D"));
        assert!(out.contains("Multiplier"));
        assert!(out.contains("255") || out.contains("GHZ"));
    }

    /// A factory count past the target's cap is a plain error, not a
    /// multi-gigabyte factory-bank allocation that aborts the process.
    #[test]
    fn over_cap_factory_count_is_a_clean_error() {
        let err = run_line("compile ising:2 --factories 4000000000").unwrap_err();
        assert!(
            err.to_string().contains(&format!(
                "4000000000 factories but at most {} are supported",
                ftqc_arch::MAX_FACTORIES
            )),
            "got {err}"
        );
    }

    #[test]
    fn compile_small_ising() {
        let out = run_line("compile ising:2 --r 4 --verify --semantics").unwrap();
        assert!(out.contains("execution time"));
        assert!(out.contains("physical verify : ok"));
        assert!(out.contains("semantic verify : ok"));
    }

    #[test]
    fn compile_unknown_circuit() {
        assert!(run_line("compile not-a-circuit").is_err());
    }

    #[test]
    fn compile_stop_after_reports_stages() {
        let out = run_line("compile ising:2 --stop-after map").unwrap();
        assert!(out.contains("stage"), "got: {out}");
        assert!(out.contains("prepare"), "got: {out}");
        assert!(out.contains("stopped after map"), "got: {out}");
        assert!(!out.contains("execution time"), "no schedule ran: {out}");
        assert!(run_line("compile ising:2 --stop-after banana").is_err());

        // --json composes: the staged JobResult document, like ?stage=.
        let out = run_full("compile ising:2 --json --stop-after map").unwrap();
        assert!(!out.failed);
        let doc = ftqc_service::Value::parse(&out.text).expect("valid json");
        assert_eq!(
            doc.get("stage").and_then(ftqc_service::Value::as_str),
            Some("map")
        );
        assert!(doc.get("metrics").is_none(), "got: {}", out.text);
        assert!(run_line("compile ising:2 --json --explain").is_err());
    }

    #[test]
    fn compile_explain_adds_stage_table() {
        let out = run_line("compile ising:2 --explain").unwrap();
        for stage in ["prepare", "lower", "map", "schedule"] {
            assert!(out.contains(stage), "missing {stage} in: {out}");
        }
        assert!(out.contains("computed"), "got: {out}");
        assert!(out.contains("execution time"), "full report follows: {out}");
        assert!(
            out.contains("router    : ") && out.contains("arena reuses"),
            "router counters follow the stage table: {out}"
        );
    }

    #[test]
    fn compile_trace_renders_span_tree() {
        let out = run_line("compile ising:2 --trace").unwrap();
        assert!(out.starts_with("trace "), "header line first: {out}");
        assert!(out.contains("endpoint=compile"), "got: {out}");
        for stage in ["prepare", "lower", "map", "schedule"] {
            assert!(out.contains(stage), "missing {stage} span in: {out}");
        }
        assert!(out.contains("self"), "self-times shown: {out}");
        assert!(out.contains("cached=false"), "stage attrs shown: {out}");
        assert!(out.contains("execution time"), "full report follows: {out}");
        // --trace and --explain compose: table and tree both print.
        let both = run_line("compile ising:2 --trace --explain").unwrap();
        assert!(both.contains("fingerprint") && both.starts_with("trace "));
        // Like --explain, --trace is a human report.
        assert!(run_line("compile ising:2 --json --trace").is_err());
    }

    #[test]
    fn explore_produces_table() {
        let out = run_line("explore ising:2 --r 2..4 --factories 1..2").unwrap();
        assert!(out.contains("design points"));
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn explore_pareto_subset() {
        let full = run_line("explore ising:2 --r 2..5 --factories 1..2").unwrap();
        let pareto = run_line("explore ising:2 --r 2..5 --factories 1..2 --pareto yes").unwrap();
        let count = |s: &str| -> usize {
            s.lines()
                .last()
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(count(&pareto) <= count(&full));
    }

    #[test]
    fn sweep_serial_matches_explore() {
        let explore = run_line("explore ising:2 --r 2..4 --factories 1..2").unwrap();
        let sweep = run_line("sweep ising:2 --r 2..4 --factories 1..2").unwrap();
        // Same table; sweep adds service + stage-cache stats lines.
        assert!(sweep.starts_with(explore.as_str()));
        assert!(sweep.contains("service: 1 worker(s)"));
        // 6 grid points over one circuit: the front end is reused.
        assert!(sweep.contains("stage cache: prepare 5/6"), "got: {sweep}");
    }

    #[test]
    fn batch_honours_stop_after_jobs() {
        let dir = std::env::temp_dir().join("ftqc-cli-test-staged");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("staged.jsonl");
        std::fs::write(
            &jobs,
            concat!(
                "{\"id\":\"warm\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"stop_after\":\"map\"}\n",
                "{\"id\":\"full\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"resume_from\":\"map\"}\n",
            ),
        )
        .unwrap();
        let out = run_full(&format!("batch {} --workers 1", jobs.display())).unwrap();
        assert!(!out.failed, "got: {}", out.text);
        assert!(out.text.contains("stopped after map"), "got: {}", out.text);
        // The warm job misses prepare once; the full job's resume_from
        // probe and run both hit it, and the map artifact is reused.
        assert!(
            out.text.contains("stage cache: prepare 2/3"),
            "the full job resumed from the warm stages: {}",
            out.text
        );
        assert!(out.text.contains("map 1/2"), "got: {}", out.text);
    }

    #[test]
    fn sweep_parallel_matches_explore() {
        let explore = run_line("explore ising:2 --r 2..4 --factories 1..2").unwrap();
        let sweep =
            run_line("sweep ising:2 --r 2..4 --factories 1..2 --parallel --workers 3").unwrap();
        assert!(sweep.starts_with(explore.as_str()));
        assert!(sweep.contains("3 worker(s)"));
    }

    #[test]
    fn sweep_file_cache_hits_on_second_run() {
        let dir = std::env::temp_dir().join("ftqc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-cache.json");
        let _ = std::fs::remove_file(&path);
        let line = format!(
            "sweep ising:2 --r 2..3 --factories 1..2 --parallel --cache {}",
            path.display()
        );
        let first = run_line(&line).unwrap();
        assert!(first.contains("cache 0/4 hits"), "got: {first}");
        let second = run_line(&line).unwrap();
        assert!(second.contains("cache 4/4 hits (100%)"), "got: {second}");
        // Identical tables either way.
        assert_eq!(first.lines().next(), second.lines().next());
    }

    #[test]
    fn batch_runs_jobs_and_reports_cache() {
        let dir = std::env::temp_dir().join("ftqc-cli-test-batch");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.jsonl");
        let out = dir.join("results.jsonl");
        let cache = dir.join("batch-cache.json");
        let _ = std::fs::remove_file(&cache);
        std::fs::write(
            &jobs,
            concat!(
                "# sample batch\n",
                "{\"id\":\"r4\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":4}}\n",
                "{\"id\":\"r6\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":6}}\n",
                "{\"id\":\"broken\",\"source\":{\"benchmark\":\"nope\"}}\n",
            ),
        )
        .unwrap();
        let line = format!(
            "batch {} --workers 2 --cache {} --out {}",
            jobs.display(),
            cache.display(),
            out.display()
        );
        let report = run_line(&line).unwrap();
        assert!(report.contains("2/3 jobs ok"), "got: {report}");
        assert!(report.contains("0 hits / 2 lookups"), "got: {report}");
        assert!(report.contains("FAILED"));
        let results = std::fs::read_to_string(&out).unwrap();
        assert_eq!(results.lines().count(), 3);
        assert!(results.contains("\"cache\":\"computed\""));

        // A second identical invocation is a fresh process-level service;
        // the file tier answers both compilable jobs.
        let report = run_line(&line).unwrap();
        assert!(
            report.contains("2 hits / 2 lookups (100%)"),
            "got: {report}"
        );
        let results = std::fs::read_to_string(&out).unwrap();
        assert!(results.contains("\"cache\":\"file\""), "got: {results}");
    }

    #[test]
    fn batch_rejects_missing_input_and_survives_malformed_lines() {
        assert!(run_line("batch").is_err());
        assert!(run_line("batch /nonexistent/jobs.jsonl").is_err());
        let dir = std::env::temp_dir().join("ftqc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        // A malformed line fails that line, not the batch; the exit status
        // reflects the failure.
        let bad = dir.join("bad.jsonl");
        std::fs::write(
            &bad,
            "{\"source\":{}}\n{\"id\":\"ok\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
        )
        .unwrap();
        let out = run_full(&format!("batch {}", bad.display())).unwrap();
        assert!(out.failed, "a failed line must fail the exit status");
        assert!(out.text.contains("line-1"), "got: {}", out.text);
        assert!(out.text.contains("line 1"), "got: {}", out.text);
        assert!(out.text.contains("1/2 jobs ok"), "got: {}", out.text);
        // An input with no jobs at all is still a hard error.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "# nothing\n").unwrap();
        assert!(run_line(&format!("batch {}", empty.display())).is_err());
    }

    #[test]
    fn batch_exit_status_clean_when_all_jobs_ok() {
        let dir = std::env::temp_dir().join("ftqc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("clean.jsonl");
        std::fs::write(
            &jobs,
            "{\"id\":\"a\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
        )
        .unwrap();
        let out = run_full(&format!("batch {}", jobs.display())).unwrap();
        assert!(!out.failed);
        assert!(out.text.contains("1/1 jobs ok"));
    }

    #[test]
    fn compile_json_emits_job_result() {
        let out = run_full("compile ising:2 --r 4 --json").unwrap();
        assert!(!out.failed);
        let doc = ftqc_service::Value::parse(&out.text).expect("valid json");
        assert_eq!(
            doc.get("id").and_then(ftqc_service::Value::as_str),
            Some("ising:2")
        );
        assert_eq!(
            doc.get("status").and_then(ftqc_service::Value::as_str),
            Some("ok")
        );
        let result: JobResult<Metrics> =
            ftqc_service::FromJson::from_json(&doc).expect("decodes as JobResult");
        let m = result.metrics.expect("ok result carries metrics");
        assert_eq!(m.routing_paths, 4);
    }

    #[test]
    fn sweep_json_matches_server_schema() {
        let out = run_full("sweep ising:2 --r 2..3 --factories 1 --json").unwrap();
        assert!(!out.failed);
        let doc = ftqc_service::Value::parse(&out.text).expect("valid json");
        let resp: SweepResponse =
            ftqc_service::FromJson::from_json(&doc).expect("decodes as SweepResponse");
        assert_eq!(resp.points.len(), 2);
        assert_eq!(resp.cache.misses, 2);
    }

    #[test]
    fn serve_rejects_unknown_options_before_binding() {
        // Every line also carries `--cache-capacity 0`, which `serve`
        // refuses before binding, so a missing option check fails this
        // test with the wrong message instead of serving forever.
        for (line, option) in [
            ("serve --fleet x", "--fleet"),
            ("serve --worker --addr 127.0.0.1:0", "--worker"),
            ("serve --max-conections 8", "--max-conections"),
            ("serve --addr 127.0.0.1:0 --reactor", "--reactor"),
        ] {
            let e = run_line(&format!("{line} --cache-capacity 0"))
                .unwrap_err()
                .to_string();
            assert!(e.starts_with(&format!("{option}: ")), "{line}: {e}");
        }
        for option in ["--worker", "--reactor"] {
            let e = run_line(&format!("serve {option}"))
                .unwrap_err()
                .to_string();
            assert!(e.starts_with(&format!("{option}: ")), "{e}");
        }
    }

    #[test]
    fn serve_and_client_roundtrip_on_loopback() {
        // `serve` itself blocks, so drive the server directly and exercise
        // the `client` subcommands against it.
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let thread = std::thread::spawn(move || server.run().unwrap());

        let out = run_full(&format!("client compile ising:2 --r 4 --addr {addr}")).unwrap();
        assert!(!out.failed, "got: {}", out.text);
        assert!(out.text.contains("ising:2"), "got: {}", out.text);

        let out = run_full(&format!(
            "client compile ising:2 --r 4 --addr {addr} --json"
        ))
        .unwrap();
        let doc = ftqc_service::Value::parse(&out.text).expect("valid json");
        assert_eq!(
            doc.get("cache").and_then(ftqc_service::Value::as_str),
            Some("memory"),
            "second identical request must hit the server's cache"
        );

        // A staged remote compile stops at the named stage.
        let out = run_full(&format!(
            "client compile ising:2 --r 4 --addr {addr} --stop-after map"
        ))
        .unwrap();
        assert!(!out.failed, "got: {}", out.text);
        assert!(out.text.contains("stopped after map"), "got: {}", out.text);

        // `--trace` prints the server-side span tree above the result row.
        let out = run_full(&format!("client compile ising:2 --addr {addr} --trace")).unwrap();
        assert!(!out.failed, "got: {}", out.text);
        assert!(out.text.starts_with("trace "), "got: {}", out.text);
        assert!(out.text.contains("queue-wait"), "got: {}", out.text);
        assert!(out.text.contains("ising:2"), "result row follows");

        // The recorder lists it; `client trace <id>` replays any entry.
        let out = run_full(&format!("client traces --addr {addr}")).unwrap();
        assert!(out.text.contains("traces retained"), "got: {}", out.text);
        let id = out
            .text
            .lines()
            .nth(1)
            .and_then(|row| row.split_whitespace().next())
            .expect("at least one retained trace")
            .to_string();
        let out = run_full(&format!("client trace {id} --addr {addr}")).unwrap();
        assert!(
            out.text.starts_with(&format!("trace {id}")),
            "got: {}",
            out.text
        );
        assert!(run_line(&format!("client trace zz --addr {addr}")).is_err());

        let dir = std::env::temp_dir().join("ftqc-cli-test-client");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("jobs.jsonl");
        std::fs::write(
            &jobs,
            "{\"id\":\"a\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":4}}\n{oops}\n",
        )
        .unwrap();
        let out = run_full(&format!("client batch {} --addr {addr}", jobs.display())).unwrap();
        assert!(out.failed, "the malformed line must fail the exit status");
        assert!(out.text.contains("1/2 jobs ok"), "got: {}", out.text);

        assert!(run_line(&format!("client --addr {addr}")).is_err());
        assert!(run_line("client compile ising:2 --addr 127.0.0.1:1").is_err());

        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn estimate_reports_physical_resources() {
        let out = run_line("estimate ising:2 --error-rate 1e-4").unwrap();
        assert!(out.contains("physical qubits"));
        assert!(out.contains("wall clock"));
    }

    #[test]
    fn estimate_rejects_bad_objective() {
        assert!(run_line("estimate ising:2 --objective banana").is_err());
    }

    #[test]
    fn compare_lists_all_baselines() {
        let out = run_line("compare ising:2").unwrap();
        assert!(out.contains("ours"));
        assert!(out.contains("compact"));
        assert!(out.contains("line-sam") || out.contains("Line-SAM") || out.contains("lsqca"));
        assert!(out.contains("dascot"));
        assert!(out.contains("edpc"));
    }

    #[test]
    fn layout_renders() {
        let out = run_line("layout 16 4").unwrap();
        assert!(out.contains("16 data qubits"));
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn layout_usage_errors() {
        assert!(run_line("layout").is_err());
        assert!(run_line("layout 16").is_err());
        assert!(run_line("layout banana 4").is_err());
    }

    #[test]
    fn qasm_file_roundtrip() {
        let dir = std::env::temp_dir().join("ftqc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bell.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        )
        .unwrap();
        let out = run_line(&format!("compile {} --semantics", path.display())).unwrap();
        assert!(out.contains("semantic verify : ok"));
    }

    #[test]
    fn csv_export_writes_file() {
        let dir = std::env::temp_dir().join("ftqc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sched.csv");
        let out = run_line(&format!("compile ising:2 --csv {}", path.display())).unwrap();
        assert!(out.contains("schedule csv"));
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.lines().count() > 10);
    }

    #[test]
    fn compile_ablation_flags_accepted() {
        let out = run_line("compile ising:2 --no-lookahead --no-redundant-elim").unwrap();
        assert!(out.contains("execution time"));
    }

    #[test]
    fn targets_list_and_show() {
        let out = run_line("targets").unwrap();
        for name in ["paper", "sparse", "fast-d"] {
            assert!(out.contains(name), "missing {name} in: {out}");
        }
        assert!(out.contains("pinned"), "sparse pins its bus: {out}");
        assert_eq!(
            run_line("targets").unwrap(),
            run_line("targets list").unwrap()
        );

        let out = run_line("targets show sparse").unwrap();
        assert!(out.contains("digest"), "got {out}");
        assert!(out.contains("\"routing_paths\":2"), "got {out}");
        assert!(out.contains("\"fixed_bus\":true"), "got {out}");
        assert!(run_line("targets show warp").is_err());
        assert!(run_line("targets frobnicate").is_err());
        assert!(run_line("targets show").is_err());
    }

    #[test]
    fn compile_with_target_flag() {
        // --target sparse compiles on the r=2 clustered machine.
        let out = run_line("compile ising:2 --target sparse").unwrap();
        assert!(out.contains("layout          : r=2"), "got {out}");
        // Explicit flags override the preset's values.
        let out = run_line("compile ising:2 --target sparse --r 4").unwrap();
        assert!(out.contains("layout          : r=4"), "got {out}");
        assert!(run_line("compile ising:2 --target warp").is_err());

        // A spec file works everywhere a preset name does.
        let dir = std::env::temp_dir().join("ftqc-cli-test-target");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("lab.json");
        std::fs::write(&spec, r#"{"routing_paths":3,"factories":2}"#).unwrap();
        let out = run_line(&format!("compile ising:2 --target @{}", spec.display())).unwrap();
        assert!(out.contains("layout          : r=3"), "got {out}");
        let out = run_line(&format!("targets show @{}", spec.display())).unwrap();
        assert!(out.contains("\"factories\":2"), "got {out}");
    }

    #[test]
    fn sweep_multi_target_produces_per_target_fronts() {
        let out = run_line(
            "sweep ising:2 --target sparse --target paper --r 2..4 --factories 1..2 --parallel",
        )
        .unwrap();
        assert!(out.contains("== target sparse"), "got {out}");
        assert!(out.contains("== target paper"), "got {out}");
        assert!(out.contains("on the Pareto front"), "got {out}");
        // The sparse target pins its bus: 2 factory points; paper sweeps
        // the full 3x2 grid.
        assert!(out.contains("(2 grid points evaluated)"), "got {out}");
        assert!(out.contains("(6 grid points evaluated)"), "got {out}");
        assert!(out.contains("stage cache"), "one shared cache: {out}");

        // --json emits the server's MultiSweepResponse schema.
        let out = run_full("sweep ising:2 --target sparse --target paper --r 2..3 --json").unwrap();
        let doc = ftqc_service::Value::parse(&out.text).expect("valid json");
        let resp: MultiSweepResponse =
            ftqc_service::FromJson::from_json(&doc).expect("decodes as MultiSweepResponse");
        assert_eq!(resp.targets.len(), 2);
        assert_eq!(resp.targets[0].name, "sparse");
        assert!(!resp.targets[1].front.is_empty());
    }

    #[test]
    fn batch_jobs_with_targets() {
        let dir = std::env::temp_dir().join("ftqc-cli-test-batch-target");
        std::fs::create_dir_all(&dir).unwrap();
        let jobs = dir.join("targets.jsonl");
        std::fs::write(
            &jobs,
            concat!(
                "{\"id\":\"s\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"target\":\"sparse\"}\n",
                "{\"id\":\"d\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
                "{\"id\":\"r6\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":6}}\n",
                "{\"id\":\"bad\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"target\":\"warp\"}\n",
            ),
        )
        .unwrap();
        // --target fast-d is the default for the job that names none.
        let out = run_full(&format!(
            "batch {} --workers 2 --target fast-d --out {}",
            jobs.display(),
            dir.join("out.jsonl").display()
        ))
        .unwrap();
        assert!(
            out.failed,
            "the unknown-target line must fail: {}",
            out.text
        );
        assert!(out.text.contains("3/4 jobs ok"), "got {}", out.text);
        assert!(out.text.contains("unknown target"), "got {}", out.text);
        let results = std::fs::read_to_string(dir.join("out.jsonl")).unwrap();
        let r_of = |line: &str| {
            ftqc_service::Value::parse(line)
                .unwrap()
                .get("metrics")
                .and_then(|m| m.get("routing_paths"))
                .and_then(ftqc_service::Value::as_u64)
        };
        let mut lines = results.lines();
        assert_eq!(r_of(lines.next().unwrap()), Some(2), "job target wins");
        // The default-machine job picked up --target fast-d (r=4 family,
        // halved latencies); the r=6 job kept its explicit machine.
        assert_eq!(r_of(lines.next().unwrap()), Some(4));
        assert_eq!(
            r_of(lines.next().unwrap()),
            Some(6),
            "explicit per-job machine options beat the --target default: {results}"
        );
    }

    #[test]
    fn client_compile_with_target() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let thread = std::thread::spawn(move || server.run().unwrap());

        let out = run_full(&format!(
            "client compile ising:2 --addr {addr} --target sparse --json"
        ))
        .unwrap();
        assert!(!out.failed, "got: {}", out.text);
        let doc = ftqc_service::Value::parse(&out.text).expect("valid json");
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("routing_paths"))
                .and_then(ftqc_service::Value::as_u64),
            Some(2),
            "server resolved the named target: {}",
            out.text
        );
        // An unknown preset is rejected by the server with a 400.
        assert!(run_line(&format!(
            "client compile ising:2 --addr {addr} --target warp"
        ))
        .is_err());

        handle.shutdown();
        thread.join().unwrap();
    }
}
