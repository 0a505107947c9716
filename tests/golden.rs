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

/// One Table I circuit's compile at paper size under `options`: a digest
/// of every scheduled op (start, duration, cells, qubits, factory, gate)
/// via the CSV export plus the metrics document without its `"route"`
/// object, and the router's `arena_reuses` apart. The digest pins the
/// schedule; the count moves whenever the router runs fewer or more
/// searches for the same schedule.
fn paper_size_digest(benchmark: Benchmark, options: CompilerOptions) -> (String, u64) {
    let program = Compiler::new(options)
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
            let (digest, reuses) = paper_size_digest(benchmark, CompilerOptions::default());
            (benchmark, digest, reuses)
        })
        .collect();
    let expected: Vec<(Benchmark, String, u64)> = expected
        .iter()
        .map(|&(benchmark, hex, reuses)| (benchmark, hex.to_string(), reuses))
        .collect();
    assert_eq!(got, expected);
}

/// The Fig 9 design-space grid at paper size (10×10 Ising, the points the
/// `fig9-sweep` benchmark compiles): per routing-paths × factories point,
/// the schedule digest and search count of `paper_size_digest`. The wide
/// bus layouts (r ≥ 10) are where a goal-directed search prunes most.
#[test]
fn fig9_paper_size_schedules_pinned() {
    let expected: [(u32, u32, &str, u64); 18] = [
        (2, 1, "621eb77d72bfa11e", 2440),
        (2, 3, "90ec922e4b2b934d", 2433),
        (2, 6, "21fe86cb497096db", 2477),
        (4, 1, "6bcfe340c194bd2a", 1978),
        (4, 3, "a4e4ec2fd9098a94", 2102),
        (4, 6, "8de2d20e835da172", 2009),
        (6, 1, "5ed4af68f2591cfc", 1868),
        (6, 3, "432612b043fee7f7", 1675),
        (6, 6, "fb7069f13d57a3d2", 1708),
        (10, 1, "315b8177bcfc7b98", 1354),
        (10, 3, "d03c459e5fe14341", 1282),
        (10, 6, "c9dc222f0072dd7f", 1325),
        (14, 1, "c4aef203a0932954", 1176),
        (14, 3, "b6617af431807f9b", 1127),
        (14, 6, "9038814584b0f25d", 1167),
        (22, 1, "f9a04837d7609ffd", 736),
        (22, 3, "dec2c69b64f8e258", 790),
        (22, 6, "398aac1209989320", 754),
    ];
    let got: Vec<(u32, u32, String, u64)> = expected
        .iter()
        .map(|&(r, f, _, _)| {
            let options = CompilerOptions::default().routing_paths(r).factories(f);
            let (digest, reuses) = paper_size_digest(Benchmark::Ising2d, options);
            (r, f, digest, reuses)
        })
        .collect();
    let expected: Vec<(u32, u32, String, u64)> = expected
        .iter()
        .map(|&(r, f, hex, reuses)| (r, f, hex.to_string(), reuses))
        .collect();
    assert_eq!(got, expected);
}
