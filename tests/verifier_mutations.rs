//! Mutation tests: deliberately corrupt compiled schedules and assert the
//! verifiers reject them.
//!
//! A verifier that accepts everything is worse than none — these tests
//! prove each failure class of `verify` and `check_semantics` actually
//! fires on the kind of miscompile it claims to catch.

use ftqc::arch::{Coord, SurgeryOp, TimingModel};
use ftqc::circuit::Circuit;
use ftqc::compiler::{
    check_semantics, verify, CompiledProgram, Compiler, CompilerOptions, Patches, RoutedOp,
    SemanticsError,
};
use ftqc::sim::{Schedule, ScheduledOp};

fn testbed() -> (Circuit, CompiledProgram) {
    let mut c = Circuit::new(4);
    c.h(0).cnot(0, 1).t(1).cnot(1, 2).s(2).cnot(2, 3).measure(3);
    let p = Compiler::new(CompilerOptions::default().routing_paths(4))
        .compile(&c)
        .expect("compiles");
    // Sanity: the unmutated program passes both verifiers.
    verify(&p, &TimingModel::paper()).expect("clean program verifies");
    check_semantics(&c, &p).expect("clean program is sound");
    (c, p)
}

/// A copy of the program's scheduled items, in issue order.
fn items(p: &CompiledProgram) -> Vec<ScheduledOp<RoutedOp>> {
    p.schedule()
        .iter()
        .map(|it| ScheduledOp {
            op: it.op.clone(),
            start: it.start,
            duration: it.duration,
        })
        .collect()
}

/// Rebuilds the schedule through `f`, which may edit, drop, or reorder the
/// item list.
fn mutate(p: &CompiledProgram, f: impl FnOnce(&mut Vec<ScheduledOp<RoutedOp>>)) -> CompiledProgram {
    let mut items: Vec<ScheduledOp<RoutedOp>> = items(p);
    f(&mut items);
    let mut s = Schedule::new();
    for it in items {
        s.push(it.op, it.start, it.duration);
    }
    p.clone().with_schedule(s)
}

/// Index of the first op matching `pred`.
fn find(p: &CompiledProgram, pred: impl Fn(&SurgeryOp) -> bool) -> usize {
    items(p)
        .iter()
        .position(|it| pred(&it.op.op))
        .expect("testbed contains the op kind")
}

#[test]
fn dropping_a_gate_is_caught() {
    let (c, p) = testbed();
    let i = find(&p, |op| matches!(op, SurgeryOp::Cnot { .. }));
    let bad = mutate(&p, |items| {
        items.remove(i);
    });
    let err = check_semantics(&c, &bad).unwrap_err();
    assert!(
        matches!(
            err,
            SemanticsError::Coverage { .. } | SemanticsError::OrderViolation { .. }
        ),
        "got {err}"
    );
}

#[test]
fn duplicating_a_gate_is_caught() {
    let (c, p) = testbed();
    let i = find(&p, |op| matches!(op, SurgeryOp::Cnot { .. }));
    let bad = mutate(&p, |items| {
        let dup = items[i].clone();
        items.push(dup);
    });
    let err = check_semantics(&c, &bad).unwrap_err();
    // Caught as a double realisation, or earlier as an operand mismatch
    // (the duplicate runs where its qubits no longer sit).
    assert!(
        matches!(
            err,
            SemanticsError::DoubleRealization { .. } | SemanticsError::OperandMismatch { .. }
        ),
        "got {err}"
    );
}

#[test]
fn breaking_dependency_order_is_caught() {
    let (c, p) = testbed();
    // Move the final measurement to the very front: it now runs before the
    // gates it depends on.
    let i = find(&p, |op| matches!(op, SurgeryOp::MeasureZ { .. }));
    let bad = mutate(&p, |items| {
        let m = items.remove(i);
        items.insert(0, m);
    });
    let err = check_semantics(&c, &bad).unwrap_err();
    assert!(
        matches!(
            err,
            SemanticsError::OrderViolation { .. } | SemanticsError::OperandMismatch { .. }
        ),
        "got {err}"
    );
}

#[test]
fn teleporting_a_move_is_caught() {
    let (c, p) = testbed();
    let i = find(&p, |op| matches!(op, SurgeryOp::Move { .. }));
    let bad = mutate(&p, |items| {
        if let SurgeryOp::Move { from, to } = &mut items[i].op.op {
            // Send the patch somewhere else entirely.
            *to = Coord::new(to.row + 1, to.col);
            let _ = from;
        }
    });
    // Either the replay notices the divergence immediately (BadMove /
    // OperandMismatch downstream) or the physical verifier rejects the
    // now-illegal geometry.
    let semantic = check_semantics(&c, &bad);
    let physical = verify(&bad, &TimingModel::paper());
    assert!(
        semantic.is_err() || physical.is_err(),
        "teleported move escaped both verifiers"
    );
}

#[test]
fn retagging_an_op_is_caught() {
    let (c, p) = testbed();
    let i = find(&p, |op| matches!(op, SurgeryOp::Single { .. }));
    let bad = mutate(&p, |items| {
        // Claim the H/S op realises the measurement instead.
        let measure_gate = c.len() - 1;
        items[i].op.gate = Some(measure_gate as u32);
    });
    let err = check_semantics(&c, &bad).unwrap_err();
    assert!(
        matches!(err, SemanticsError::GateMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn untagging_an_op_is_caught() {
    let (c, p) = testbed();
    let i = find(&p, |op| matches!(op, SurgeryOp::Cnot { .. }));
    let bad = mutate(&p, |items| {
        items[i].op.gate = None;
    });
    let err = check_semantics(&c, &bad).unwrap_err();
    assert!(matches!(err, SemanticsError::Untagged { .. }), "got {err}");
}

#[test]
fn swapping_cnot_direction_is_caught() {
    let (c, p) = testbed();
    let i = find(&p, |op| matches!(op, SurgeryOp::Cnot { .. }));
    let bad = mutate(&p, |items| {
        if let SurgeryOp::Cnot {
            control, target, ..
        } = &mut items[i].op.op
        {
            std::mem::swap(control, target);
        }
    });
    // Swapping control/target breaks either the placement constraint
    // (ancilla geometry) or the operand positions.
    let semantic = check_semantics(&c, &bad);
    let physical = verify(&bad, &TimingModel::paper());
    assert!(
        semantic.is_err() || physical.is_err(),
        "reversed CNOT escaped both verifiers"
    );
}

#[test]
fn overlapping_ops_on_one_cell_are_caught() {
    let (_, p) = testbed();
    // Force the second op to start while the first still holds its cells.
    let items = items(&p);
    let busy = items
        .iter()
        .position(|it| it.duration.raw() > 0)
        .expect("some op has duration");
    let cell = items[busy].op.op.cells()[0];
    let bad = mutate(&p, |items| {
        let start = items[busy].start;
        items.push(ScheduledOp {
            op: RoutedOp {
                op: SurgeryOp::MeasureZ { cell },
                patches: Patches::default(),
                factory: None,
                gate: None,
            },
            start,
            duration: ftqc::arch::Ticks::from_d(1.0),
        });
    });
    assert!(verify(&bad, &TimingModel::paper()).is_err());
}

#[test]
fn factory_overrun_is_caught() {
    let mut c = Circuit::new(2);
    c.t(0).t(1).t(0).t(1);
    let p = Compiler::new(CompilerOptions::default().factories(1))
        .compile(&c)
        .expect("compiles");
    verify(&p, &TimingModel::paper()).expect("clean");
    // Squeeze all deliveries to the same instant.
    let bad = mutate(&p, |items| {
        for it in items.iter_mut() {
            if it.op.factory.is_some() {
                it.start = ftqc::arch::Ticks::ZERO;
            }
        }
    });
    assert!(verify(&bad, &TimingModel::paper()).is_err());
}

/// A testbed with two magic deliveries to *different* delivery cells —
/// the shape the incremental-router mutants below need.
fn magic_testbed() -> CompiledProgram {
    let mut c = Circuit::new(9);
    c.t(0).t(5);
    let p = Compiler::new(CompilerOptions::default().routing_paths(4).factories(1))
        .compile(&c)
        .expect("compiles");
    verify(&p, &TimingModel::paper()).expect("clean program verifies");
    p
}

/// Indices of every DeliverMagic in the schedule.
fn deliveries(p: &CompiledProgram) -> Vec<usize> {
    items(p)
        .iter()
        .enumerate()
        .filter(|(_, it)| matches!(it.op.op, SurgeryOp::DeliverMagic { .. }))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn delivery_ending_off_its_consumer_is_caught() {
    // Swaps the corridors of two deliveries, as a router answering one
    // query with another query's path would: each delivery then ends at a
    // cell other than the one its consumption reads.
    let p = magic_testbed();
    let ds = deliveries(&p);
    assert!(ds.len() >= 2, "testbed has two deliveries");
    let (a, b) = (ds[0], ds[1]);
    let path_of = |i: usize| match &items(&p)[i].op.op {
        SurgeryOp::DeliverMagic { path } => path.clone(),
        _ => unreachable!(),
    };
    assert_ne!(
        path_of(a).last(),
        path_of(b).last(),
        "the two deliveries end at different cells"
    );
    let bad = mutate(&p, |items| {
        let (pa, pb) = (path_of(a), path_of(b));
        items[a].op.op = SurgeryOp::DeliverMagic { path: pb };
        items[b].op.op = SurgeryOp::DeliverMagic { path: pa };
    });
    let err = verify(&bad, &TimingModel::paper()).unwrap_err();
    assert!(
        matches!(
            err,
            ftqc::compiler::VerifyError::UnfedMagic { .. }
                | ftqc::compiler::VerifyError::ResourceConflict { .. }
        ),
        "got {err}"
    );
}

#[test]
fn skipped_invalidation_reroute_is_caught() {
    // Simulates a *skipped invalidation*: the router kept a corridor that
    // crosses cells another operation has since claimed, so the delivery
    // runs straight through a concurrently reserved cell.
    let p = magic_testbed();
    let d = deliveries(&p)[0];
    // A busy multi-cell op to collide with: the magic consumption itself
    // (it holds the target and magic cells while it runs).
    let consume = find(&p, |op| matches!(op, SurgeryOp::ConsumeMagic { .. }));
    let (target, magic) = match &items(&p)[consume].op.op {
        SurgeryOp::ConsumeMagic { target, magic } => (*target, *magic),
        _ => unreachable!(),
    };
    assert!(target.is_adjacent(magic), "consume cells are adjacent");
    let start = items(&p)[consume].start;
    let bad = mutate(&p, |items| {
        items[d].op.op = SurgeryOp::DeliverMagic {
            path: vec![magic, target],
        };
        items[d].start = start;
    });
    let err = verify(&bad, &TimingModel::paper()).unwrap_err();
    assert!(
        matches!(
            err,
            ftqc::compiler::VerifyError::ResourceConflict { .. }
                | ftqc::compiler::VerifyError::UnfedMagic { .. }
        ),
        "got {err}"
    );
}

#[test]
fn wrong_generation_stamp_path_is_caught() {
    // Simulates a *wrong generation stamp*: parent pointers left over from
    // a previous search leak into path reconstruction, producing a
    // spliced, non-contiguous corridor.
    let p = magic_testbed();
    let d = deliveries(&p)[0];
    let bad = mutate(&p, |items| {
        if let SurgeryOp::DeliverMagic { path } = &mut items[d].op.op {
            let first = path[0];
            // A cell two steps away can never be adjacent to the first:
            // the reconstructed chain visibly jumps between generations.
            let jump = Coord::new(first.row + 2, first.col);
            *path = vec![first, jump];
        }
    });
    let err = verify(&bad, &TimingModel::paper()).unwrap_err();
    assert!(
        matches!(err, ftqc::compiler::VerifyError::InvalidPlacement { .. }),
        "got {err}"
    );
}

#[test]
fn wrong_policy_count_is_caught() {
    let (c, p) = testbed();
    // Drop one ConsumeMagic: the T gate then consumed 0 states.
    let i = find(&p, |op| matches!(op, SurgeryOp::ConsumeMagic { .. }));
    let bad = mutate(&p, |items| {
        items.remove(i);
    });
    let err = check_semantics(&c, &bad).unwrap_err();
    assert!(
        matches!(
            err,
            SemanticsError::Coverage { .. } | SemanticsError::OrderViolation { .. }
        ),
        "got {err}"
    );
}
