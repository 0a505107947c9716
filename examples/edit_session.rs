//! Interactive edit sessions: open a circuit once, then send small edit
//! batches instead of whole circuits. Every batch compiles the edited
//! circuit in full, so the session's program is checked byte-for-byte
//! against a cold compile of the same circuit.
//!
//! Run with: `cargo run --release --example edit_session`

use ftqc::circuit::{Circuit, Gate};
use ftqc::compiler::{Compiler, CompilerOptions, DeltaKind};
use ftqc::editor::{CircuitEdit, EditSession, EditSet};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small seed circuit: a GHZ-style ladder with some T gates.
    let mut circuit = Circuit::new(5);
    circuit.h(0);
    for q in 0..4 {
        circuit.cnot(q, q + 1);
        circuit.t(q + 1);
    }

    let options = CompilerOptions::default().routing_paths(4);

    // 1. Opening a session runs the initial compile and keeps the program
    //    until the next batch replaces it.
    let (mut session, delta) = EditSession::open("demo", circuit.clone(), options.clone())?;
    println!(
        "opened   : v{} ({:?}, {} gates, schedule {} ticks)",
        session.version(),
        delta.kind,
        delta.gates_total,
        session.program().metrics().execution_time
    );

    // 2. An append at the end of the circuit: the session applies it and
    //    compiles the edited circuit in full.
    let set = EditSet::new(vec![CircuitEdit::Insert {
        index: session.circuit().len(),
        gate: Gate::T(4),
    }])
    .at_version(session.version());
    let start = Instant::now();
    let (_, delta) = session.apply(&set)?;
    println!(
        "append   : v{} ({:?}) in {}µs — {} of {} gates rerouted, {} of {} ops retimed",
        session.version(),
        delta.kind,
        start.elapsed().as_micros(),
        delta.gates_rerouted,
        delta.gates_total,
        delta.ops_retimed,
        delta.ops_total
    );
    assert_eq!(delta.kind, DeltaKind::Full);

    // 3. Batches apply atomically, and every edit kind composes: here a
    //    retarget plus a replace in one version step.
    let set = EditSet::new(vec![
        CircuitEdit::Retarget {
            index: 0,
            qubits: vec![2],
        },
        CircuitEdit::Replace {
            index: 2,
            gate: Gate::S(1),
        },
    ]);
    let (_, delta) = session.apply(&set)?;
    println!("batch    : v{} ({:?})", session.version(), delta.kind);

    // 4. The wire form is one JSONL line per batch — exactly what
    //    `POST /v1/session/<id>/edit` and `ftqc edit` consume.
    let set = EditSet::parse_line(
        r#"{"edits":[{"op":"insert","index":0,"gate":{"gate":"h","qubits":[3]}},{"op":"remove","index":5}]}"#,
    )?;
    let (_, delta) = session.apply(&set)?;
    println!(
        "wire     : v{} ({:?}, digest {:016x})",
        session.version(),
        delta.kind,
        set.digest()
    );

    // 5. The contract behind it all: the session's program is
    //    indistinguishable from a cold compile of the edited circuit.
    let cold_start = Instant::now();
    let cold = Compiler::new(options).compile(session.circuit())?;
    let cold_micros = cold_start.elapsed().as_micros();
    assert_eq!(session.program().schedule(), cold.schedule());
    assert_eq!(session.program().metrics(), cold.metrics());
    println!("contract : schedule and metrics byte-identical to a cold compile ({cold_micros}µs)");
    println!(
        "totals   : {} edits, {} full compiles",
        session.edits_applied(),
        session.full_recompiles()
    );
    Ok(())
}
