//! Textual execution traces: a one-character-per-timestep activity strip
//! and a per-kind busy-time breakdown.
//!
//! The strip makes the paper's execution structure visible at a glance —
//! long distillation-bound stretches punctuated by delivery/consumption
//! bursts, with movement filling the windows (the latency-hiding behaviour
//! of §V: "we use this window to pack as many qubit movement operations as
//! possible").

use crate::pipeline::CompiledProgram;
use ftqc_arch::{SurgeryOp, TICKS_PER_D};

/// Activity classes shown in the strip, in display-priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// A magic state is being consumed (`C`).
    Consume,
    /// A magic state is in transit (`D`).
    Deliver,
    /// A logical gate (CNOT/single/merge/measure) is running (`G`).
    Gate,
    /// Only movement is happening (`m`).
    Move,
    /// Nothing is running (`.`).
    Idle,
}

impl Activity {
    /// The strip glyph.
    pub fn glyph(self) -> char {
        match self {
            Activity::Consume => 'C',
            Activity::Deliver => 'D',
            Activity::Gate => 'G',
            Activity::Move => 'm',
            Activity::Idle => '.',
        }
    }
}

/// Renders the activity strip with one glyph per `bucket_d` timesteps.
/// Each bucket shows its highest-priority activity
/// (consume > deliver > gate > move > idle).
///
/// # Panics
///
/// Panics if `bucket_d` is not a positive multiple of 0.5.
pub fn activity_strip(program: &CompiledProgram, bucket_d: f64) -> String {
    let bucket_ticks = (bucket_d * TICKS_PER_D as f64).round() as u64;
    assert!(
        bucket_ticks > 0 && (bucket_d * TICKS_PER_D as f64 - bucket_ticks as f64).abs() < 1e-9,
        "bucket must be a positive multiple of 0.5d"
    );
    let makespan = program.metrics().execution_time.raw();
    if makespan == 0 {
        return String::new();
    }
    let n_buckets = makespan.div_ceil(bucket_ticks) as usize;
    let mut buckets = vec![Activity::Idle; n_buckets];
    for item in program.schedule() {
        if item.duration.raw() == 0 {
            continue;
        }
        let class = match item.op.op {
            SurgeryOp::ConsumeMagic { .. } => Activity::Consume,
            SurgeryOp::DeliverMagic { .. } => Activity::Deliver,
            SurgeryOp::Move { .. } => Activity::Move,
            _ => Activity::Gate,
        };
        let first = (item.start.raw() / bucket_ticks) as usize;
        let last = ((item.end().raw() - 1) / bucket_ticks) as usize;
        for b in buckets.iter_mut().take(last + 1).skip(first) {
            if priority(class) < priority(*b) {
                *b = class;
            }
        }
    }
    buckets.into_iter().map(Activity::glyph).collect()
}

fn priority(a: Activity) -> u8 {
    match a {
        Activity::Consume => 0,
        Activity::Deliver => 1,
        Activity::Gate => 2,
        Activity::Move => 3,
        Activity::Idle => 4,
    }
}

/// Busy cell-time per operation kind, in qubit·d.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindBreakdown {
    /// Moves.
    pub moves: f64,
    /// Magic deliveries.
    pub deliveries: f64,
    /// Magic consumptions.
    pub consumes: f64,
    /// CNOTs.
    pub cnots: f64,
    /// Single-patch Cliffords.
    pub singles: f64,
    /// Merges and measurements.
    pub other: f64,
}

impl KindBreakdown {
    /// Total busy volume.
    pub fn total(&self) -> f64 {
        self.moves + self.deliveries + self.consumes + self.cnots + self.singles + self.other
    }
}

/// Computes the busy-time breakdown of a compiled program.
pub fn kind_breakdown(program: &CompiledProgram) -> KindBreakdown {
    let mut b = KindBreakdown::default();
    for item in program.schedule() {
        let vol = item.duration.raw() as f64 * item.op.op.cells().len() as f64 / TICKS_PER_D as f64;
        match item.op.op {
            SurgeryOp::Move { .. } => b.moves += vol,
            SurgeryOp::DeliverMagic { .. } => b.deliveries += vol,
            SurgeryOp::ConsumeMagic { .. } => b.consumes += vol,
            SurgeryOp::Cnot { .. } => b.cnots += vol,
            SurgeryOp::Single { .. } => b.singles += vol,
            _ => b.other += vol,
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions};
    use ftqc_circuit::Circuit;

    fn program() -> CompiledProgram {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).t(1).measure(1);
        Compiler::new(CompilerOptions::default().routing_paths(4))
            .compile(&c)
            .expect("compiles")
    }

    #[test]
    fn strip_length_matches_makespan() {
        let p = program();
        let strip = activity_strip(&p, 1.0);
        let expected = (p.metrics().execution_time.raw() as f64 / 2.0).ceil() as usize;
        assert_eq!(strip.len(), expected);
    }

    #[test]
    fn strip_contains_distillation_phases() {
        let p = program();
        let strip = activity_strip(&p, 1.0);
        assert!(strip.contains('C'), "consumption visible: {strip}");
        assert!(strip.contains('G'), "gates visible: {strip}");
        // The 11d production window before the first delivery shows
        // idle/move/gate time, never consumption.
        assert!(!strip[..5].contains('C'));
    }

    #[test]
    fn coarse_buckets_shrink_strip() {
        let p = program();
        let fine = activity_strip(&p, 0.5);
        let coarse = activity_strip(&p, 4.0);
        assert!(coarse.len() < fine.len());
    }

    #[test]
    #[should_panic(expected = "multiple of 0.5d")]
    fn bad_bucket_rejected() {
        activity_strip(&program(), 0.3);
    }

    #[test]
    fn empty_program_empty_strip() {
        let p = Compiler::new(CompilerOptions::default())
            .compile(&Circuit::new(4))
            .expect("compiles");
        assert_eq!(activity_strip(&p, 1.0), "");
    }

    #[test]
    fn breakdown_sums_to_busy_volume() {
        let p = program();
        let b = kind_breakdown(&p);
        let u = crate::export::utilization(&p);
        assert!((b.total() - u.busy_volume).abs() < 1e-9);
        assert!(b.consumes > 0.0);
        assert!(b.cnots > 0.0);
    }
}
