//! Golden regression tests: the compiler is deterministic, so key metric
//! values are pinned exactly. A change here means the compilation
//! behaviour changed — intentional improvements should update the numbers
//! *and* re-run the figure harnesses (EXPERIMENTS.md).

use ftqc::benchmarks::{ising_1d, ising_2d, Benchmark};
use ftqc::compiler::{export::to_csv, Compiler, CompilerOptions, MappingStrategy, Metrics};
use ftqc::service::fingerprint::{fingerprint_bytes, to_hex};
use ftqc::service::json::{ToJson, Value};

fn compile(r: u32, f: u32) -> Metrics {
    *Compiler::new(CompilerOptions::default().routing_paths(r).factories(f))
        .compile(&ising_2d(4))
        .expect("compiles")
        .metrics()
}

#[test]
fn ising_4x4_r2_f1_pinned() {
    let m = compile(2, 1);
    assert_eq!(m.execution_time.raw(), 959); // 479.5d
    assert_eq!(m.unit_cost_time.raw(), 910);
    assert_eq!(m.lower_bound.raw(), 880); // 40 states * 11d
    assert_eq!(m.n_surgery_ops, 380);
    assert_eq!(m.n_moves, 244);
}

#[test]
fn ising_4x4_r4_f1_pinned() {
    let m = compile(4, 1);
    assert_eq!(m.execution_time.raw(), 916);
    assert_eq!(m.unit_cost_time.raw(), 894);
    assert_eq!(m.n_surgery_ops, 330);
    assert_eq!(m.n_moves, 194);
}

#[test]
fn ising_4x4_r6_f2_pinned() {
    let m = compile(6, 2);
    assert_eq!(m.execution_time.raw(), 471);
    assert_eq!(m.lower_bound.raw(), 440);
    assert_eq!(m.n_surgery_ops, 263);
}

#[test]
fn more_routing_paths_reduce_moves() {
    // The r=2 layout forces more displacement: strictly more moves than r=4.
    assert!(compile(2, 1).n_moves > compile(4, 1).n_moves);
}

#[test]
fn snake_mapping_benefits_1d_chains() {
    // Paper §V: "a 1D Ising model benefits from a snake-like mapping that
    // preserves NN interactions". On a 16-qubit chain the snake mapping
    // cuts movement substantially versus row-major.
    let c = ising_1d(16);
    let moves_of = |strategy: MappingStrategy| {
        Compiler::new(
            CompilerOptions::default()
                .routing_paths(4)
                .mapping(strategy),
        )
        .compile(&c)
        .expect("compiles")
        .metrics()
        .n_moves
    };
    let snake = moves_of(MappingStrategy::Snake);
    let row_major = moves_of(MappingStrategy::RowMajor);
    assert_eq!(snake, 50);
    assert_eq!(row_major, 86);
    assert!(snake < row_major);
}

/// One Table I circuit's compile at paper size under the default options:
/// a digest of every scheduled op (start, duration, cells, qubits,
/// factory, gate) via the CSV export plus the metrics document without
/// its `"route"` object, and the router's `arena_reuses` apart. The digest
/// pins the schedule; the count moves whenever the router runs fewer or
/// more searches for the same schedule.
fn paper_size_digest(benchmark: Benchmark) -> (String, u64) {
    let program = Compiler::new(CompilerOptions::default())
        .compile(&benchmark.circuit())
        .expect("compiles");
    let mut metrics = program.metrics().to_json();
    let Value::Obj(fields) = &mut metrics else {
        panic!("metrics render as an object");
    };
    fields.retain(|(key, _)| key != "route");
    let mut doc = to_csv(&program);
    doc.push_str(&metrics.render());
    (
        to_hex(fingerprint_bytes(doc.as_bytes())),
        program.metrics().route.arena_reuses,
    )
}

#[test]
fn table1_paper_size_schedules_pinned() {
    let expected = [
        (Benchmark::Ising2d, "6bcfe340c194bd2a", 1978),
        (Benchmark::Heisenberg2d, "04028b5bfbb98df9", 3154),
        (Benchmark::FermiHubbard2d, "9868e3973f57b601", 1397),
        (Benchmark::Ghz, "713b27f9c4ee3577", 678),
        (Benchmark::Adder, "d05c40915d84b1a1", 809),
        (Benchmark::Multiplier, "bbee5e9891a20440", 882),
    ];
    let got: Vec<(Benchmark, String, u64)> = expected
        .iter()
        .map(|&(benchmark, _, _)| {
            let (digest, reuses) = paper_size_digest(benchmark);
            (benchmark, digest, reuses)
        })
        .collect();
    let expected: Vec<(Benchmark, String, u64)> = expected
        .iter()
        .map(|&(benchmark, hex, reuses)| (benchmark, hex.to_string(), reuses))
        .collect();
    assert_eq!(got, expected);
}
