//! Schedule-soundness integration tests: the timed lattice-surgery schedule
//! must be physically executable — no two concurrent operations share a
//! grid cell, every operation satisfies its placement constraint, program
//! order per qubit is respected, and per-factory magic grants are spaced by
//! the production latency.

use ftqc::arch::SurgeryOp;
use ftqc::benchmarks::{fermi_hubbard_2d, ising_2d, random_clifford_t};
use ftqc::compiler::{CompiledProgram, Compiler, CompilerOptions};
use ftqc_circuit::Circuit;
use std::collections::HashMap;

fn compile(c: &Circuit, r: u32, f: u32) -> CompiledProgram {
    Compiler::new(CompilerOptions::default().routing_paths(r).factories(f))
        .compile(c)
        .expect("compiles")
}

fn assert_schedule_sound(p: &CompiledProgram, production_d: f64) {
    let items: Vec<_> = p.schedule().iter().collect();

    // 1. Placement constraints.
    for item in &items {
        item.op
            .op
            .validate()
            .unwrap_or_else(|e| panic!("invalid op {}: {e}", item.op.op));
    }

    // 2. No two overlapping-in-time operations share a cell.
    for (i, a) in items.iter().enumerate() {
        for b in items.iter().skip(i + 1) {
            let overlap = a.start < b.end() && b.start < a.end();
            if !overlap || a.duration.raw() == 0 || b.duration.raw() == 0 {
                continue;
            }
            let cells_a = a.op.op.cells();
            let shared = b.op.op.cells().iter().any(|c| cells_a.contains(c));
            assert!(
                !shared,
                "ops overlap in time and share a cell:\n  {} @ {}..{}\n  {} @ {}..{}",
                a.op.op,
                a.start,
                a.end(),
                b.op.op,
                b.start,
                b.end()
            );
        }
    }

    // 3. Per-qubit program order: operations touching a qubit never overlap.
    let mut by_qubit: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for item in &items {
        for &q in &item.op.patches {
            by_qubit
                .entry(q)
                .or_default()
                .push((item.start.raw(), item.end().raw()));
        }
    }
    for (q, intervals) in by_qubit {
        let mut sorted = intervals.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "qubit {q} has overlapping operations: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    // 4. Magic grants per factory are spaced by the production latency.
    let mut per_factory: HashMap<u32, Vec<u64>> = HashMap::new();
    for item in &items {
        if let Some(f) = item.op.factory {
            per_factory.entry(f).or_default().push(item.start.raw());
        }
    }
    let spacing = (production_d * 2.0) as u64; // ticks
    for (f, mut starts) in per_factory {
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(
                w[1] - w[0] >= spacing,
                "factory {f} grants too close: {} then {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn ising_schedule_is_sound() {
    let p = compile(&ising_2d(4), 4, 2);
    assert_schedule_sound(&p, 11.0);
}

#[test]
fn fermi_hubbard_schedule_is_sound() {
    let p = compile(&fermi_hubbard_2d(4), 3, 1);
    assert_schedule_sound(&p, 11.0);
}

#[test]
fn packed_layout_schedule_is_sound() {
    // r=2 maximises displacement churn.
    let p = compile(&ising_2d(4), 2, 1);
    assert_schedule_sound(&p, 11.0);
}

#[test]
fn random_circuit_schedules_are_sound() {
    for seed in 0..5u64 {
        let c = random_clifford_t(9, 120, seed);
        let p = compile(&c, 4, 2);
        assert_schedule_sound(&p, 11.0);
    }
}

#[test]
fn consume_follows_its_delivery() {
    let p = compile(&fermi_hubbard_2d(2), 4, 1);
    let items: Vec<_> = p.schedule().iter().collect();
    for (i, item) in items.iter().enumerate() {
        if let SurgeryOp::ConsumeMagic { magic, .. } = &item.op.op {
            // Find the nearest preceding delivery ending at this magic cell,
            // or a grant carried by the consume itself.
            if item.op.factory.is_some() {
                continue;
            }
            let deliver = items[..i]
                .iter()
                .rev()
                .find(|d| match &d.op.op {
                    SurgeryOp::DeliverMagic { path } => path.last() == Some(magic),
                    _ => false,
                })
                .expect("consume without a grant must have a delivery");
            assert!(
                deliver.end() <= item.start,
                "consume at {} starts before its delivery ends at {}",
                item.start,
                deliver.end()
            );
        }
    }
}
