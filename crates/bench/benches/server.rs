//! Criterion benchmarks for the compile server's hot path: what a request
//! for an already-cached job costs once the compile itself is amortised
//! away — fingerprinting, cache lookup, and the HTTP parse/serialize round
//! trip.

use criterion::{criterion_group, criterion_main, Criterion};
use ftqc_benchmarks::ising_2d;
use ftqc_compiler::{Compiler, CompilerOptions, Metrics};
use ftqc_server::http;
use ftqc_service::json::{FromJson, ToJson, Value};
use ftqc_service::{fingerprint, CircuitSource, CompileJob, JobResult, SharedCache};
use std::hint::black_box;
use std::io::Cursor;

/// The cached-job scenario every benchmark below shares: one circuit, one
/// option set, already compiled into the cache.
fn warmed() -> (
    ftqc_circuit::Circuit,
    u64,
    CompilerOptions,
    SharedCache<Metrics>,
) {
    let circuit = ising_2d(2);
    let circuit_fp = fingerprint::fingerprint_circuit(&circuit);
    let options = CompilerOptions::default().routing_paths(4);
    let cache: SharedCache<Metrics> = SharedCache::in_memory(64);
    let program = Compiler::new(options.clone())
        .compile(&circuit)
        .expect("warm the cache");
    cache.insert(
        fingerprint::job_key(circuit_fp, &options),
        *program.metrics(),
    );
    (circuit, circuit_fp, options, cache)
}

fn bench_fingerprint_and_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_hot_path");
    group.sample_size(200);
    let (circuit, _fp, options, cache) = warmed();

    group.bench_function("fingerprint_circuit", |b| {
        b.iter(|| black_box(fingerprint::fingerprint_circuit(black_box(&circuit))))
    });
    group.bench_function("fingerprint_options", |b| {
        b.iter(|| {
            black_box(fingerprint::fingerprint_value(
                &black_box(&options).to_json(),
            ))
        })
    });
    let key = fingerprint::job_key(fingerprint::fingerprint_circuit(&circuit), &options);
    group.bench_function("cache_lookup_hit", |b| {
        b.iter(|| black_box(cache.get(black_box(key)).expect("warmed key hits")))
    });
    group.finish();
}

fn bench_http_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_hot_path");
    group.sample_size(200);
    let (_circuit, circuit_fp, options, cache) = warmed();
    let fp = fingerprint::job_key(circuit_fp, &options);

    let job = CompileJob::new(
        "bench",
        CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        },
        options.clone(),
    );
    let request_wire = http::render_request(
        "POST",
        "/v1/compile",
        "application/json",
        job.to_json().render().as_bytes(),
    );
    group.bench_function("http_parse_request", |b| {
        b.iter(|| {
            let req = http::read_request(&mut Cursor::new(black_box(&request_wire)))
                .expect("parses")
                .expect("not eof");
            black_box(req)
        })
    });

    let hit = cache.get(fp).expect("warmed");
    let result = JobResult {
        id: job.id.clone(),
        fingerprint: fp,
        status: ftqc_service::JobStatus::Ok,
        metrics: Some(hit.value),
        provenance: ftqc_service::CacheProvenance::MemoryHit,
        micros: 42,
        queue_micros: 0,
        stage: None,
    };
    group.bench_function("serialize_response", |b| {
        b.iter(|| {
            let body = black_box(&result).to_json().render();
            black_box(http::render_response(
                200,
                "application/json",
                body.as_bytes(),
            ))
        })
    });

    let response_wire = http::render_response(
        200,
        "application/json",
        result.to_json().render().as_bytes(),
    );
    group.bench_function("http_parse_response", |b| {
        b.iter(|| {
            let resp =
                http::read_response(&mut Cursor::new(black_box(&response_wire))).expect("parses");
            black_box(resp)
        })
    });

    // The whole cached-request pipeline, sockets excluded: parse the
    // request, decode the job, fingerprint, hit the cache, build and
    // serialize the result.
    let circuit = ising_2d(2);
    group.bench_function("cached_request_end_to_end", |b| {
        b.iter(|| {
            let req = http::read_request(&mut Cursor::new(black_box(&request_wire)))
                .expect("parses")
                .expect("not eof");
            let doc = Value::parse(req.body_str().expect("utf8")).expect("json");
            let job: CompileJob<CompilerOptions> =
                ftqc_service::job_from_value(&doc, "job-1").expect("job");
            let key =
                fingerprint::job_key(fingerprint::fingerprint_circuit(&circuit), &job.options);
            let hit = cache.get(key).expect("cached");
            let result = JobResult {
                id: job.id,
                fingerprint: key,
                status: ftqc_service::JobStatus::Ok,
                metrics: Some(hit.value),
                provenance: ftqc_service::CacheProvenance::MemoryHit,
                micros: 0,
                queue_micros: 0,
                stage: None,
            };
            let body = result.to_json().render();
            let wire = http::render_response(200, "application/json", body.as_bytes());
            let back = http::read_response(&mut Cursor::new(&wire)).expect("parses back");
            let decoded: JobResult<Metrics> =
                JobResult::from_json(&Value::parse(back.body_str().expect("utf8")).expect("json"))
                    .expect("decodes");
            black_box(decoded)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fingerprint_and_lookup, bench_http_round_trip);
criterion_main!(benches);
