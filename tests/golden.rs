//! Golden regression tests: the compiler is deterministic, so key metric
//! values are pinned exactly. A change here means the compilation
//! behaviour changed — intentional improvements should update the numbers
//! *and* re-run the figure harnesses (EXPERIMENTS.md).

use ftqc::benchmarks::{ising_1d, ising_2d, Benchmark};
use ftqc::compiler::{export::to_csv, Compiler, CompilerOptions, MappingStrategy, Metrics};
use ftqc::service::fingerprint::{fingerprint_bytes, to_hex};
use ftqc::service::json::ToJson;

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

/// Digest of one Table I circuit's whole compile at paper size under the
/// default options: every scheduled op (start, duration, cells, qubits,
/// factory, gate) via the CSV export, plus the metrics document.
fn paper_size_digest(benchmark: Benchmark) -> String {
    let program = Compiler::new(CompilerOptions::default())
        .compile(&benchmark.circuit())
        .expect("compiles");
    let mut doc = to_csv(&program);
    doc.push_str(&program.metrics().to_json().render());
    to_hex(fingerprint_bytes(doc.as_bytes()))
}

#[test]
fn table1_paper_size_schedules_pinned() {
    let expected = [
        (Benchmark::Ising2d, "13604cf713465c8e"),
        (Benchmark::Heisenberg2d, "7ec62ca806407cee"),
        (Benchmark::FermiHubbard2d, "5ec8099df53ebeeb"),
        (Benchmark::Ghz, "6d0f3d647be446d2"),
        (Benchmark::Adder, "294eae05fda4a160"),
        (Benchmark::Multiplier, "70757ff7da0e7e4a"),
    ];
    let got: Vec<(Benchmark, String)> = expected
        .iter()
        .map(|&(benchmark, _)| (benchmark, paper_size_digest(benchmark)))
        .collect();
    let expected: Vec<(Benchmark, String)> = expected
        .iter()
        .map(|&(benchmark, hex)| (benchmark, hex.to_string()))
        .collect();
    assert_eq!(got, expected);
}
