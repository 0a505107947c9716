//! Differential harness for interactive edit sessions.
//!
//! The editor's contract is that a session's program is indistinguishable
//! from throwing the edited circuit at a cold compiler: same schedule
//! byte-for-byte, same metrics, route counters included — an edit session
//! compiles every edited circuit in full.
//!
//! Random circuits take random edit storms (insert / remove / retarget /
//! replace, batched), and after **every** batch the session's program is
//! checked against a cold [`Compiler::compile`] of the edited circuit,
//! across all three built-in target presets. Every program additionally
//! passes the six-invariant schedule verifier.

use ftqc::arch::TargetRegistry;
use ftqc::benchmarks::random_clifford_t;
use ftqc::circuit::{Angle, Circuit, Gate};
use ftqc::compiler::{verify, Compiler, CompilerOptions};
use ftqc::editor::{CircuitEdit, EditSession, EditSet};
use proptest::prelude::*;

/// splitmix64: a tiny deterministic stream for deriving edit storms from
/// one proptest-drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random valid gate on `n` qubits.
fn random_gate(n: u32, state: &mut u64) -> Gate {
    let q = (mix(state) % n as u64) as u32;
    let other = {
        let o = (mix(state) % (n as u64 - 1)) as u32;
        if o >= q {
            o + 1
        } else {
            o
        }
    };
    match mix(state) % 8 {
        0 => Gate::H(q),
        1 => Gate::S(q),
        2 => Gate::T(q),
        3 => Gate::X(q),
        4 => Gate::Z(q),
        5 => Gate::Rz(q, Angle::new(0.25)),
        6 => Gate::Cnot {
            control: q,
            target: other,
        },
        _ => Gate::Cz(q, other),
    }
}

/// A random valid edit against the circuit's current shape.
fn random_edit(circuit: &Circuit, state: &mut u64) -> CircuitEdit {
    let n = circuit.num_qubits();
    let len = circuit.len();
    match mix(state) % 4 {
        // Insert anywhere (including the end).
        0 => CircuitEdit::Insert {
            index: (mix(state) % (len as u64 + 1)) as usize,
            gate: random_gate(n, state),
        },
        // Remove, but never empty the circuit entirely.
        1 if len > 1 => CircuitEdit::Remove {
            index: (mix(state) % len as u64) as usize,
        },
        // Replace an existing gate wholesale.
        2 => CircuitEdit::Replace {
            index: (mix(state) % len as u64) as usize,
            gate: random_gate(n, state),
        },
        // Retarget: keep the gate, move it to fresh qubits of the same
        // arity (distinct for two-qubit gates).
        _ => {
            let index = (mix(state) % len as u64) as usize;
            let arity = circuit.gates()[index].qubits().count();
            let a = (mix(state) % n as u64) as u32;
            let b = {
                let o = (mix(state) % (n as u64 - 1)) as u32;
                if o >= a {
                    o + 1
                } else {
                    o
                }
            };
            let qubits = if arity == 2 { vec![a, b] } else { vec![a] };
            CircuitEdit::Retarget { index, qubits }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every edit batch, the session's schedule and metrics are
    /// byte-identical to a cold full recompile of the edited circuit —
    /// on every built-in target preset — and the program passes the full
    /// schedule verifier.
    #[test]
    fn edited_sessions_match_cold_compiles_across_targets(
        n in 3u32..7,
        gates in 4usize..40,
        seed in 0u64..10_000,
        batches in 2usize..6,
    ) {
        for entry in TargetRegistry::builtin().entries() {
            let options = CompilerOptions::default().target(entry.spec.clone());
            let mut circuit = random_clifford_t(n, gates, seed);
            let (mut session, _) = EditSession::open("prop", circuit.clone(), options.clone())
                .expect("seed compile");
            let mut state = seed ^ 0xd1f3_55a4;

            for batch in 0..batches {
                // 1-3 edits per batch, applied to a scratch circuit so the
                // expected post-edit circuit is known independently.
                let count = 1 + (mix(&mut state) % 3) as usize;
                let mut edits = Vec::with_capacity(count);
                for _ in 0..count {
                    let edit = random_edit(&circuit, &mut state);
                    ftqc::editor::session::apply_edit(&mut circuit, &edit)
                        .expect("generated edits are valid");
                    edits.push(edit);
                }

                let (program, delta) = session
                    .apply(&EditSet::new(edits))
                    .expect("valid edit batch applies");
                prop_assert_eq!(session.version(), batch as u64 + 1);

                let cold = Compiler::new(options.clone())
                    .compile(&circuit)
                    .expect("cold compile of the edited circuit");

                prop_assert_eq!(
                    program.schedule(),
                    cold.schedule(),
                    "schedule diverged on {} (delta: {:?})",
                    entry.name.clone(),
                    delta
                );
                prop_assert_eq!(
                    program.metrics(),
                    cold.metrics(),
                    "metrics diverged on {}",
                    entry.name.clone()
                );
                let timing = *options.effective_schedule_timing();
                prop_assert!(verify(&program, &timing).is_ok());
            }
        }
    }
}
