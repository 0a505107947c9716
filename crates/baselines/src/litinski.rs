//! The *Game of Surface Codes* block layouts \[28\] with the constant-depth
//! PPR decomposition of \[30\] (paper §VII.C, Fig 10, Appendix A).
//!
//! Litinski compiles circuits to Pauli-product rotations; a block layout
//! executes one rotation at a time against a dedicated ancilla region.
//! The original blocks assume multi-qubit PPRs are primitive; the paper
//! makes them implementable with the decomposition of \[30\], which doubles
//! the ancillary qubits (compact: `1.5n+3 → 3n+3`; intermediate: `→ 4n`;
//! fast: `→ 4n+6`) and gives constant-depth rotations — 4d on the compact
//! block (overlapping XX/ZZ routing, Fig 17), 3d on intermediate/fast.
//!
//! Execution is modelled rotation-by-rotation: each PPR needs one magic
//! state, so time is the distillation-production / rotation-latency
//! interleaving. With one 11d factory the pipeline is distillation-bound
//! and "the execution time of the PPR approach in all three layouts
//! coincides with the lower bound" (§VII.C).

use crate::BaselineResult;
use ftqc_arch::{Ticks, TimingModel, FACTORY_TILES};
use ftqc_circuit::{Circuit, PprProgram};

/// The three block layouts of \[28\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockLayout {
    /// Compact block: smallest footprint, one PPR at a time, 4d per PPR
    /// after the \[30\] modification.
    Compact,
    /// Intermediate block.
    Intermediate,
    /// Fast block: largest footprint, 3d PPRs.
    Fast,
}

impl BlockLayout {
    /// All three layouts.
    pub fn all() -> [BlockLayout; 3] {
        [
            BlockLayout::Compact,
            BlockLayout::Intermediate,
            BlockLayout::Fast,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BlockLayout::Compact => "compact",
            BlockLayout::Intermediate => "intermediate",
            BlockLayout::Fast => "fast",
        }
    }

    /// Logical patches for `n` data qubits.
    ///
    /// `modified = false` gives Litinski's original tile counts
    /// (compact `⌈1.5n⌉+3`, intermediate `2n+4`, fast `2n+⌈√8n⌉+1`);
    /// `modified = true` gives the realistic counts after the \[30\]
    /// decomposition (`3n+3`, `4n`, `4n+6` — paper Fig 10/16).
    pub fn qubit_count(self, n: u32, modified: bool) -> u32 {
        match (self, modified) {
            (BlockLayout::Compact, false) => (3 * n).div_ceil(2) + 3,
            (BlockLayout::Compact, true) => 3 * n + 3,
            (BlockLayout::Intermediate, false) => 2 * n + 4,
            (BlockLayout::Intermediate, true) => 4 * n,
            (BlockLayout::Fast, false) => 2 * n + (8.0 * n as f64).sqrt().ceil() as u32 + 1,
            (BlockLayout::Fast, true) => 4 * n + 6,
        }
    }

    /// Latency of one Pauli-product rotation under the \[30\] decomposition
    /// (Appendix A: 4d on compact due to overlapping XX/ZZ routing, 3d on
    /// intermediate/fast).
    pub fn ppr_latency(self, t: &TimingModel) -> Ticks {
        match self {
            BlockLayout::Compact => t.ppr_compact,
            _ => t.ppr_fast,
        }
    }
}

/// The constant-depth decomposition of one weight-`w` Pauli-product
/// rotation per \[30\] (paper Fig 10): each non-trivial tensor factor pairs
/// with two ancillary qubits through nearest-neighbour `XX` and `ZZ`
/// two-body measurements, all rounds running in constant depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PprPlan {
    /// Rotation weight `w` (non-identity tensor factors).
    pub weight: u32,
    /// Two-body `XX` measurements (one per factor).
    pub xx_ops: u32,
    /// Two-body `ZZ` measurements (one per factor).
    pub zz_ops: u32,
    /// Ancillary qubits consumed (`2w` — "twice the number of ancillary
    /// qubits", Fig 10(b)).
    pub ancillas: u32,
    /// Total depth on the chosen block.
    pub depth: Ticks,
}

/// Plans the \[30\] decomposition of a weight-`w` PPR on `layout`.
///
/// On the compact block the `XX` and `ZZ` routing paths overlap (Fig 17),
/// so the `ZZ` round takes 2d and the total is 4d; the intermediate/fast
/// blocks have disjoint routing and finish in 3d.
pub fn decompose_ppr(weight: u32, layout: BlockLayout, timing: &TimingModel) -> PprPlan {
    PprPlan {
        weight,
        xx_ops: weight,
        zz_ops: weight,
        ancillas: 2 * weight,
        depth: layout.ppr_latency(timing),
    }
}

/// The Game-of-Surface-Codes baseline estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct GameOfSurfaceCodes {
    /// Which block layout.
    pub layout: BlockLayout,
    /// Distillation factories feeding the block.
    pub factories: u32,
    /// Timing model (shared with the compiler for fair comparison).
    pub timing: TimingModel,
    /// Whether to use the realistic (modified) qubit counts.
    pub modified: bool,
}

impl GameOfSurfaceCodes {
    /// A baseline with the paper's defaults (modified counts, 1 factory).
    pub fn new(layout: BlockLayout) -> Self {
        Self {
            layout,
            factories: 1,
            timing: TimingModel::paper(),
            modified: true,
        }
    }

    /// Sets the factory count.
    pub fn factories(mut self, f: u32) -> Self {
        self.factories = f.max(1);
        self
    }

    /// Estimates the execution of `circuit` on this block layout.
    ///
    /// The circuit is transpiled to PPR form; rotations execute strictly
    /// one at a time (the block discipline), each consuming one magic
    /// state, so the start of rotation `i` is
    /// `max(end of rotation i-1, availability of state i)`.
    pub fn estimate(&self, circuit: &Circuit) -> BaselineResult {
        let ppr = PprProgram::from_circuit(circuit);
        let latency = self.layout.ppr_latency(&self.timing);
        let production = self.timing.magic_production;
        let f = self.factories.max(1);

        // Per-factory next-ready times (round-robin earliest-first).
        let mut ready = vec![production; f as usize];
        let mut t = Ticks::ZERO;
        for _ in 0..ppr.t_count() {
            let (idx, _) = ready
                .iter()
                .enumerate()
                .min_by_key(|(i, &r)| (r, *i))
                .expect("at least one factory");
            let state_at = ready[idx].max(Ticks::ZERO);
            let start = t.max(state_at);
            ready[idx] = start + production;
            t = start + latency;
        }
        // Terminal Pauli-product measurements: 1d each, sequential on the
        // block's ancilla region.
        t += self.timing.merge * ppr.measurements().len() as u64;

        BaselineResult {
            name: format!("litinski-{}", self.layout.name()),
            grid_qubits: self.layout.qubit_count(circuit.num_qubits(), self.modified),
            factory_qubits: FACTORY_TILES * f,
            execution_time: t,
            n_input_gates: circuit.len(),
            n_magic: ppr.t_count() as u64,
            factories: f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_circuit::Circuit;

    fn t_chain(n_t: usize) -> Circuit {
        let mut c = Circuit::new(4);
        for i in 0..n_t {
            c.t((i % 4) as u32);
        }
        c
    }

    #[test]
    fn qubit_formulas_match_paper() {
        // §VII.C: compact 1.5n+3 -> 3n+3; intermediate -> 4n; fast -> 4n+6.
        assert_eq!(BlockLayout::Compact.qubit_count(100, false), 153);
        assert_eq!(BlockLayout::Compact.qubit_count(100, true), 303);
        assert_eq!(BlockLayout::Intermediate.qubit_count(100, true), 400);
        assert_eq!(BlockLayout::Fast.qubit_count(100, true), 406);
        // Original intermediate/fast for reference.
        assert_eq!(BlockLayout::Intermediate.qubit_count(100, false), 204);
    }

    #[test]
    fn ppr_latencies_match_appendix() {
        let t = TimingModel::paper();
        assert_eq!(BlockLayout::Compact.ppr_latency(&t).as_d(), 4.0);
        assert_eq!(BlockLayout::Intermediate.ppr_latency(&t).as_d(), 3.0);
        assert_eq!(BlockLayout::Fast.ppr_latency(&t).as_d(), 3.0);
    }

    #[test]
    fn one_factory_is_distillation_bound() {
        // 11d production > 4d rotation: time ≈ n_T * 11d + final latency.
        let c = t_chain(20);
        let r = GameOfSurfaceCodes::new(BlockLayout::Compact).estimate(&c);
        assert_eq!(r.n_magic, 20);
        // State i ready at 11(i+1)d > previous rotation end: the last
        // rotation starts at 220d and ends at 224d — the lower bound plus
        // one rotation tail, matching "coincides with the lower bound".
        assert_eq!(r.execution_time, Ticks::from_d(224.0));
    }

    #[test]
    fn many_factories_become_rotation_bound() {
        let c = t_chain(20);
        let r = GameOfSurfaceCodes::new(BlockLayout::Fast)
            .factories(8)
            .estimate(&c);
        // 3d per rotation: 60d + pipeline fill.
        assert!(r.execution_time <= Ticks::from_d(20.0 * 3.0 + 11.0));
        let slow = GameOfSurfaceCodes::new(BlockLayout::Fast).estimate(&c);
        assert!(r.execution_time < slow.execution_time);
    }

    #[test]
    fn compact_slower_than_fast_when_rotation_bound() {
        let c = t_chain(30);
        let compact = GameOfSurfaceCodes::new(BlockLayout::Compact)
            .factories(8)
            .estimate(&c);
        let fast = GameOfSurfaceCodes::new(BlockLayout::Fast)
            .factories(8)
            .estimate(&c);
        assert!(fast.execution_time < compact.execution_time);
        assert!(fast.total_qubits() > compact.total_qubits());
    }

    #[test]
    fn clifford_only_circuit_costs_measurements_only() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).measure(0).measure(1);
        let r = GameOfSurfaceCodes::new(BlockLayout::Compact).estimate(&c);
        assert_eq!(r.n_magic, 0);
        assert_eq!(r.execution_time, Ticks::from_d(2.0));
    }

    #[test]
    fn decomposition_matches_fig10() {
        let t = TimingModel::paper();
        // Full-width rotation on n = 100 data qubits in the compact block:
        // 2n ancillas + n data + 3 = the modified 3n+3 formula.
        let plan = decompose_ppr(100, BlockLayout::Compact, &t);
        assert_eq!(plan.ancillas, 200);
        assert_eq!(
            100 + plan.ancillas + 3,
            BlockLayout::Compact.qubit_count(100, true)
        );
        assert_eq!(plan.depth.as_d(), 4.0); // overlapping XX/ZZ routing
        assert_eq!(plan.xx_ops, 100);
        assert_eq!(plan.zz_ops, 100);

        let fast = decompose_ppr(100, BlockLayout::Fast, &t);
        assert_eq!(fast.depth.as_d(), 3.0); // disjoint routing paths
    }

    #[test]
    fn factory_tiles_counted() {
        let c = t_chain(4);
        let r = GameOfSurfaceCodes::new(BlockLayout::Compact)
            .factories(3)
            .estimate(&c);
        assert_eq!(r.factory_qubits, 33);
    }
}
