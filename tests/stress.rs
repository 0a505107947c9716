//! Stress and failure-injection tests: degenerate inputs, starved
//! factories, congested layouts and adversarial circuits.
//!
//! Each case runs the full pipeline *and* both verifiers (physical and
//! semantic), so a pass means "compiled, executable, and computes the right
//! unitary", not merely "did not crash".

use ftqc::arch::Ticks;
use ftqc::benchmarks::random_clifford_t;
use ftqc::circuit::{Angle, Circuit};
use ftqc::compiler::{
    check_semantics, verify, CompileError, Compiler, CompilerOptions, TStatePolicy,
};

fn compile_and_verify(c: &Circuit, options: CompilerOptions) {
    let timing = options.target.timing;
    let p = Compiler::new(options).compile(c).expect("compiles");
    verify(&p, &timing).expect("physically executable");
    check_semantics(c, &p).expect("semantically sound");
}

#[test]
fn empty_circuit_on_nonempty_register() {
    let c = Circuit::new(5);
    compile_and_verify(&c, CompilerOptions::default());
    let p = Compiler::default().compile(&c).unwrap();
    assert_eq!(p.metrics().execution_time, Ticks::ZERO);
    assert_eq!(p.metrics().n_surgery_ops, 0);
}

#[test]
fn zero_qubit_register_rejected() {
    let c = Circuit::new(0);
    assert_eq!(
        Compiler::default().compile(&c).unwrap_err(),
        CompileError::EmptyRegister
    );
}

#[test]
fn single_qubit_deep_chain() {
    // 200 sequential gates on one qubit: no parallelism to exploit, every
    // ancilla acquisition hits the same neighbourhood.
    let mut c = Circuit::new(1);
    for i in 0..200 {
        match i % 4 {
            0 => c.h(0),
            1 => c.s(0),
            2 => c.t(0),
            _ => c.x(0),
        };
    }
    compile_and_verify(&c, CompilerOptions::default().routing_paths(2));
}

#[test]
fn two_qubit_register_minimal_layout() {
    let mut c = Circuit::new(2);
    c.h(0).cnot(0, 1).t(1).cnot(1, 0).measure(0).measure(1);
    compile_and_verify(&c, CompilerOptions::default().routing_paths(2));
}

#[test]
fn all_to_all_cnots_on_minimal_routing() {
    // Every ordered pair of 6 qubits: 30 CNOTs crossing the whole grid,
    // compiled on the stingiest layout (r=2).
    let mut c = Circuit::new(6);
    for a in 0..6u32 {
        for b in 0..6u32 {
            if a != b {
                c.cnot(a, b);
            }
        }
    }
    compile_and_verify(&c, CompilerOptions::default().routing_paths(2));
}

#[test]
fn factory_starvation_is_bounded_below() {
    // 40 T gates, one factory: the distillation bound dominates, and the
    // compiler should stay within a modest factor of it.
    let mut c = Circuit::new(4);
    for i in 0..40 {
        c.t(i % 4);
    }
    let options = CompilerOptions::default().routing_paths(4).factories(1);
    let timing = options.target.timing;
    let p = Compiler::new(options).compile(&c).expect("compiles");
    verify(&p, &timing).expect("executable");
    check_semantics(&c, &p).expect("sound");
    let m = p.metrics();
    assert_eq!(m.lower_bound, Ticks::from_d(40.0 * 11.0));
    assert!(m.execution_time >= m.lower_bound);
    assert!(
        m.overhead() < 1.5,
        "starved schedule should track the bound, got {:.2}x",
        m.overhead()
    );
}

#[test]
fn more_factories_never_hurt_starved_workloads() {
    let mut c = Circuit::new(9);
    for i in 0..27 {
        c.t(i % 9);
    }
    let time_at = |f: u32| {
        Compiler::new(CompilerOptions::default().routing_paths(6).factories(f))
            .compile(&c)
            .expect("compiles")
            .metrics()
            .execution_time
    };
    let t1 = time_at(1);
    let t4 = time_at(4);
    assert!(
        t4 <= t1,
        "4 factories ({t4}) should not be slower than 1 ({t1})"
    );
}

#[test]
fn fast_distillation_shifts_bottleneck_to_routing() {
    let mut c = Circuit::new(4);
    for i in 0..20 {
        c.t(i % 4);
    }
    let slow = CompilerOptions::default().magic_production(Ticks::from_d(22.0));
    let fast = CompilerOptions::default().magic_production(Ticks::from_d(1.0));
    let ts = Compiler::new(slow)
        .compile(&c)
        .unwrap()
        .metrics()
        .execution_time;
    let tf = Compiler::new(fast)
        .compile(&c)
        .unwrap()
        .metrics()
        .execution_time;
    assert!(tf < ts);
}

#[test]
fn zero_latency_distillation_still_verifies() {
    let mut c = Circuit::new(2);
    c.t(0).t(1).cnot(0, 1).t(1);
    compile_and_verify(&c, CompilerOptions::default().magic_production(Ticks::ZERO));
}

#[test]
fn unbounded_magic_mode_verifies() {
    let mut c = Circuit::new(4);
    for i in 0..12 {
        c.t(i % 4);
    }
    let options = CompilerOptions::default()
        .unbounded_magic(true)
        .factories(2);
    let timing = options.target.timing;
    let p = Compiler::new(options).compile(&c).expect("compiles");
    // The program's own timing: under unbounded supply the factory check
    // asks only that each factory's grants come in start order.
    verify(&p, &timing).expect("executable");
    check_semantics(&c, &p).expect("sound");
    assert_eq!(p.metrics().lower_bound, Ticks::ZERO);
}

#[test]
fn heavy_synthesis_policy_multiplies_consumption() {
    let mut c = Circuit::new(3);
    c.rz(0, Angle::new(0.123))
        .cnot(0, 1)
        .rz(2, Angle::new(0.71));
    let options = CompilerOptions::default()
        .t_state_policy(TStatePolicy::synthesis(17))
        .factories(3);
    let timing = options.target.timing;
    let p = Compiler::new(options).compile(&c).expect("compiles");
    verify(&p, &timing).expect("executable");
    let r = check_semantics(&c, &p).expect("sound");
    assert_eq!(r.magic_consumed, 34);
    assert_eq!(p.metrics().n_magic_states, 34);
}

#[test]
fn maximum_routing_paths_layout() {
    // r = 2L+2 (the paper's maximum) on a 3x3 block.
    let mut c = Circuit::new(9);
    for q in 0..9 {
        c.h(q);
    }
    c.cnot(0, 8).cnot(2, 6).t(4);
    compile_and_verify(&c, CompilerOptions::default().routing_paths(8));
}

#[test]
fn oversized_routing_paths_rejected() {
    let c = Circuit::new(4);
    let err = Compiler::new(CompilerOptions::default().routing_paths(99))
        .compile(&c)
        .unwrap_err();
    assert!(matches!(err, CompileError::Layout(_)));
}

#[test]
fn wide_shallow_circuit_parallelises() {
    // 36 independent H gates: unit-cost time must be far below the serial
    // sum (3d × 36 = 108d).
    let mut c = Circuit::new(36);
    for q in 0..36 {
        c.h(q);
    }
    let options = CompilerOptions::default().routing_paths(6);
    let p = Compiler::new(options).compile(&c).expect("compiles");
    assert!(
        p.metrics().execution_time < Ticks::from_d(54.0),
        "got {}",
        p.metrics().execution_time
    );
}

#[test]
fn random_soak_with_full_verification() {
    // A small soak across seeds; every schedule fully verified.
    for seed in 0..12 {
        let c = random_clifford_t(5, 40, seed);
        compile_and_verify(&c, CompilerOptions::default().routing_paths(3));
    }
}

#[test]
fn mixed_measure_mid_circuit() {
    let mut c = Circuit::new(3);
    c.h(0)
        .cnot(0, 1)
        .measure(1)
        .h(2)
        .cnot(2, 0)
        .measure(0)
        .measure(2);
    compile_and_verify(&c, CompilerOptions::default());
}

#[test]
fn swap_and_cz_lowering_under_stress() {
    let mut c = Circuit::new(5);
    for i in 0..5u32 {
        c.swap(i, (i + 2) % 5);
        c.cz(i, (i + 1) % 5);
    }
    compile_and_verify(&c, CompilerOptions::default().routing_paths(4));
}
