//! Every checker on the paper's own workload: the six Table I circuits at
//! their paper sizes, compiled under default options and again with an
//! unbounded magic-state supply, pass the physical verifier, the semantic
//! replay, and the witness round trip (extract a witness, then re-check it
//! against the circuit and options).

use ftqc::benchmarks::Benchmark;
use ftqc::compiler::{
    check_semantics, extract_witness, verify, verify_witness, CompileSession, CompilerOptions,
};

#[test]
fn table1_schedules_pass_every_checker() {
    for options in [
        CompilerOptions::default(),
        CompilerOptions::default().unbounded_magic(true),
    ] {
        let unbounded = options.target.unbounded_magic;
        for benchmark in Benchmark::all() {
            let name = format!("{} (unbounded_magic={unbounded})", benchmark.name());
            let circuit = benchmark.circuit();
            let session = CompileSession::new(options.clone());
            let program = session
                .compile(&circuit)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            verify(&program, options.effective_schedule_timing())
                .unwrap_or_else(|e| panic!("{name}: verify: {e}"));
            check_semantics(&circuit, &program)
                .unwrap_or_else(|e| panic!("{name}: semantics: {e}"));
            let witness = extract_witness(&session, &circuit, &program)
                .unwrap_or_else(|e| panic!("{name}: extract: {e}"));
            verify_witness(&circuit, &options, &witness, program.metrics(), None)
                .unwrap_or_else(|e| panic!("{name}: witness: {e}"));
        }
    }
}
