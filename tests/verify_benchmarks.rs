//! Runs the public schedule verifier over the benchmark suite — every
//! compiled program must pass all soundness invariants, including the
//! larger circuits and edge-case layouts.

use ftqc::arch::TimingModel;
use ftqc::benchmarks::{
    adder, fermi_hubbard_2d, ghz, heisenberg_2d, ising_1d, ising_2d, multiplier,
};
use ftqc::compiler::{verify, Compiler, CompilerOptions};
use ftqc_circuit::Circuit;

fn check(c: &Circuit, options: CompilerOptions) {
    let timing = options.target.timing;
    let p = Compiler::new(options)
        .compile(c)
        .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
    verify(&p, &timing).unwrap_or_else(|e| panic!("{}: {e}", c.name()));
}

#[test]
fn condensed_benchmarks_verify() {
    for c in [
        ising_2d(6),
        heisenberg_2d(4),
        fermi_hubbard_2d(6),
        ising_1d(20),
    ] {
        check(&c, CompilerOptions::default().routing_paths(4).factories(2));
    }
}

#[test]
fn arithmetic_benchmarks_verify() {
    check(&adder(), CompilerOptions::default().routing_paths(3));
    check(
        &multiplier(),
        CompilerOptions::default().routing_paths(5).factories(2),
    );
}

#[test]
fn ghz_chain_verifies_at_scale() {
    // 128-qubit entanglement chain: long serial CNOT dependencies across
    // the whole grid.
    check(&ghz(128), CompilerOptions::default().routing_paths(4));
}

#[test]
fn minimal_and_maximal_layouts_verify() {
    let c = ising_2d(4);
    let max_r = ftqc::arch::Layout::max_routing_paths(16);
    check(&c, CompilerOptions::default().routing_paths(2));
    check(&c, CompilerOptions::default().routing_paths(max_r));
}

#[test]
fn nonstandard_timing_verifies() {
    let mut timing = TimingModel::paper();
    timing.magic_production = ftqc::arch::Ticks::from_d(3.0);
    timing.hadamard = ftqc::arch::Ticks::from_d(5.0);
    let c = fermi_hubbard_2d(4);
    check(
        &c,
        CompilerOptions::default()
            .routing_paths(6)
            .factories(3)
            .timing(timing),
    );
}

#[test]
fn unbounded_magic_verifies() {
    // With unlimited supply a factory's grants need only come in start
    // order; everything else must hold as under bounded supply.
    let c = ising_2d(4);
    let options = CompilerOptions::default()
        .routing_paths(6)
        .factories(4)
        .unbounded_magic(true);
    let p = Compiler::new(options).compile(&c).expect("compiles");
    verify(&p, &TimingModel::paper()).expect("sound");
}
