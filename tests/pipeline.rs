//! End-to-end integration tests: every Table I benchmark compiles across
//! layouts and factory counts, and the headline metrics behave like the
//! paper's.

use ftqc::benchmarks::{adder, fermi_hubbard_2d, ghz, heisenberg_2d, ising_2d, multiplier};
use ftqc::compiler::{Compiler, CompilerOptions, Metrics};
use ftqc_circuit::Circuit;

fn compile(c: &Circuit, r: u32, f: u32) -> Metrics {
    let options = CompilerOptions::default().routing_paths(r).factories(f);
    *Compiler::new(options)
        .compile(c)
        .unwrap_or_else(|e| panic!("{} at r={r}, f={f}: {e}", c.name()))
        .metrics()
}

#[test]
fn all_benchmarks_compile_at_default_layout() {
    for c in [
        ising_2d(4),
        heisenberg_2d(4),
        fermi_hubbard_2d(4),
        ghz(32),
        adder(),
        multiplier(),
    ] {
        let m = compile(&c, 4, 1);
        assert!(m.execution_time >= m.lower_bound, "{}", c.name());
        assert!(m.unit_cost_time <= m.execution_time, "{}", c.name());
        assert_eq!(m.n_gates, c.len());
    }
}

#[test]
fn table1_sizes_compile() {
    // The full 100-qubit condensed-matter circuits of the evaluation.
    for c in [ising_2d(10), fermi_hubbard_2d(10)] {
        let m = compile(&c, 4, 1);
        assert_eq!(m.grid_patches, 144);
        assert!(
            m.overhead() < 1.5,
            "{} overhead {:.2} out of the paper's range",
            c.name(),
            m.overhead()
        );
    }
}

#[test]
fn execution_time_always_at_least_lower_bound() {
    let c = ising_2d(4);
    for r in [2u32, 4, 6, 10] {
        for f in [1u32, 2, 4, 8] {
            let m = compile(&c, r, f);
            assert!(
                m.execution_time >= m.lower_bound,
                "r={r} f={f}: {} < {}",
                m.execution_time,
                m.lower_bound
            );
        }
    }
}

#[test]
fn qubit_count_grows_with_routing_paths() {
    let c = ising_2d(4);
    let mut prev = 0;
    for r in 2..=10u32 {
        let m = compile(&c, r, 1);
        assert!(m.total_qubits() > prev);
        prev = m.total_qubits();
    }
}

#[test]
fn factories_trade_qubits_for_time() {
    let c = fermi_hubbard_2d(4);
    let m1 = compile(&c, 6, 1);
    let m4 = compile(&c, 6, 4);
    assert!(
        m4.execution_time < m1.execution_time,
        "more factories, less time"
    );
    assert!(
        m4.total_qubits() > m1.total_qubits(),
        "more factories, more qubits"
    );
    assert_eq!(m4.factory_patches, 44);
}

#[test]
fn ghz_needs_no_magic_states() {
    let m = compile(&ghz(64), 4, 1);
    assert_eq!(m.n_magic_states, 0);
    assert_eq!(m.lower_bound.raw(), 0);
}

#[test]
fn compilation_is_deterministic_across_runs() {
    let c = heisenberg_2d(2);
    let a = compile(&c, 4, 2);
    let b = compile(&c, 4, 2);
    assert_eq!(a, b);
}

#[test]
fn snake_vs_row_major_mapping_both_work() {
    use ftqc::compiler::MappingStrategy;
    let c = ising_2d(4);
    for strategy in [MappingStrategy::Snake, MappingStrategy::RowMajor] {
        let options = CompilerOptions::default()
            .routing_paths(4)
            .mapping(strategy);
        let m = *Compiler::new(options)
            .compile(&c)
            .expect("compiles")
            .metrics();
        assert!(m.execution_time >= m.lower_bound);
    }
}

#[test]
fn ablation_flags_change_only_quality_not_correctness() {
    let c = ising_2d(4);
    for lookahead in [true, false] {
        for elim in [true, false] {
            for pw in [0u64, 5, 20] {
                let options = CompilerOptions::default()
                    .routing_paths(4)
                    .lookahead(lookahead)
                    .eliminate_redundant_moves(elim)
                    .penalty_weight(pw);
                let m = *Compiler::new(options)
                    .compile(&c)
                    .expect("compiles")
                    .metrics();
                assert!(m.execution_time >= m.lower_bound);
                assert_eq!(m.n_magic_states, c.t_count() as u64);
            }
        }
    }
}

/// Penalty weights past the layout's cell count order every path alike —
/// fewest occupied cells crossed, then fewest steps — so they all route
/// alike, and none may fail, panic or hang. (`u64::MAX` overflowed the
/// router's bucket-ring guard, and `u64::MAX / 4` wrapped the seed search's
/// cost sums until it stopped converging.) The compiles run on a thread so
/// that a hang fails the test instead of stalling the suite.
#[test]
fn huge_penalty_weights_route_alike() {
    use std::sync::mpsc;
    use std::time::Duration;

    // The paper-size Ising layout has 12x12 = 144 cells, so the engine caps
    // the weight at 288; 143 and 144 run uncapped.
    let weights = [
        143,
        144,
        288,
        4094,
        1 << 53,
        1 << 60,
        u64::MAX / 4,
        u64::MAX,
    ];
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let circuit = ising_2d(10);
        for w in weights {
            let metrics = Compiler::new(CompilerOptions::default().penalty_weight(w))
                .compile(&circuit)
                .map(|p| *p.metrics());
            if tx.send((w, metrics)).is_err() {
                return;
            }
        }
    });
    let mut first: Option<Metrics> = None;
    for _ in weights {
        let (w, metrics) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("each compile finishes within 60 s");
        let metrics = metrics.unwrap_or_else(|e| panic!("penalty weight {w}: {e}"));
        let first = *first.get_or_insert(metrics);
        assert_eq!(metrics, first, "penalty weight {w}");
    }
    worker.join().expect("compile thread");
}
