//! Staged-session benchmarks: what resume-from-`Mapped` saves.
//!
//! The sweep varies only scheduling knobs — re-timing latency models
//! (`schedule_timing`) and redundant-move elimination — across a fixed
//! circuit. The monolithic path re-runs prepare/lower/map (routing is the
//! dominant cost) for every point; the session path routes once and
//! re-schedules the cached routed ops, so the per-point cost collapses to
//! move elimination + the paired timing replay.

use criterion::{criterion_group, criterion_main, Criterion};
use ftqc_arch::{Ticks, TimingModel};
use ftqc_benchmarks::ising_2d;
use ftqc_compiler::{CompileSession, Compiler, CompilerOptions, StageCache};
use std::hint::black_box;

/// The scheduling-options sweep: 4 latency models × move elimination
/// on/off = 8 grid points, all sharing one routed program.
fn sweep() -> Vec<CompilerOptions> {
    let mut out = Vec::new();
    for eliminate in [true, false] {
        for cnot_d in [1.0, 2.0, 3.0, 4.0] {
            out.push(
                CompilerOptions::default()
                    .eliminate_redundant_moves(eliminate)
                    .schedule_timing(TimingModel {
                        cnot: Ticks::from_d(cnot_d),
                        ..TimingModel::paper()
                    }),
            );
        }
    }
    out
}

fn bench_schedule_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_sweep");
    group.sample_size(10);
    let circuit = ising_2d(4);
    let options = sweep();

    // Baseline: the monolithic compiler re-runs every stage per point.
    group.bench_function("monolithic_full_compile_x8", |b| {
        b.iter(|| {
            for o in &options {
                black_box(
                    Compiler::new(o.clone())
                        .compile(black_box(&circuit))
                        .expect("compiles"),
                );
            }
        })
    });

    // Session: route once, re-schedule eight times from the Mapped
    // artifact.
    let mapped = CompileSession::new(CompilerOptions::default())
        .prepare(&circuit)
        .expect("prepare")
        .lower()
        .map()
        .expect("map");
    group.bench_function("session_resume_from_mapped_x8", |b| {
        b.iter(|| {
            for o in &options {
                black_box(mapped.reschedule(black_box(o)).expect("re-times"));
            }
        })
    });

    // Session with a shared stage cache, cold start included: the first
    // point pays routing, the remaining seven resume — the service/server
    // configuration.
    group.bench_function("session_stage_cache_cold_x8", |b| {
        b.iter(|| {
            let stages = StageCache::new(64);
            for o in &options {
                black_box(
                    CompileSession::new(o.clone())
                        .with_cache(stages.clone())
                        .compile(black_box(&circuit))
                        .expect("compiles"),
                );
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schedule_sweep);
criterion_main!(benches);
