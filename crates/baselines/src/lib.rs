//! Comparison models for the `ftqc` evaluation (paper §VII.C–E).
//!
//! Three prior systems are re-implemented as analytic + simulation models,
//! exactly as the paper itself models them:
//!
//! * [`litinski`] — the compact/intermediate/fast block layouts of
//!   *A Game of Surface Codes* \[28\], including the constant-depth
//!   Pauli-product-rotation decomposition of \[30\] that the paper applies to
//!   make multi-qubit PPRs implementable (Fig 10, Appendix A).
//! * [`lsqca`] — the Line-SAM load/store architecture of LSQCA \[22\]: a
//!   scan-access memory whose sequential data movement limits parallelism.
//! * [`dascot`] — DASCOT \[31\]: dependency-aware near-optimal routing on a
//!   compact layout under an unlimited-magic-state assumption, with the
//!   paper's added distillation constraint.
//! * [`edpc`] — the edge-disjoint-paths compiler of Beverland et al. \[5\]
//!   (related work §III), as a round-synchronous routing simulation with
//!   the same optional distillation constraint.
//!
//! All models share [`BaselineResult`] so figure harnesses can tabulate
//! qubits, execution time, CPI and spacetime volume uniformly.

pub mod dascot;
pub mod edpc;
pub mod litinski;
pub mod lsqca;

pub use dascot::dascot_estimate;
pub use edpc::{edpc_estimate, EdpcModel};
pub use litinski::{decompose_ppr, BlockLayout, GameOfSurfaceCodes, PprPlan};
pub use lsqca::LineSam;

use ftqc_arch::Ticks;
use std::fmt;

/// Result of evaluating a baseline model on a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Model name (for report rows).
    pub name: String,
    /// Logical patches excluding distillation factories.
    pub grid_qubits: u32,
    /// Logical patches of the factory blocks (0 when unlimited supply is
    /// assumed).
    pub factory_qubits: u32,
    /// Estimated execution time.
    pub execution_time: Ticks,
    /// Gates in the input circuit (CPI denominator).
    pub n_input_gates: usize,
    /// Magic states consumed.
    pub n_magic: u64,
    /// Factories assumed (0 = unlimited).
    pub factories: u32,
}

impl BaselineResult {
    /// Total qubits including factory tiles.
    pub fn total_qubits(&self) -> u32 {
        self.grid_qubits + self.factory_qubits
    }

    /// Cycles per instruction (execution time in `d` per input gate).
    pub fn cpi(&self) -> f64 {
        self.execution_time.as_d() / self.n_input_gates.max(1) as f64
    }

    /// Spacetime volume in qubit·d.
    pub fn spacetime_volume(&self, include_factories: bool) -> f64 {
        let q = if include_factories {
            self.total_qubits()
        } else {
            self.grid_qubits
        };
        q as f64 * self.execution_time.as_d()
    }

    /// Spacetime volume per input-circuit operation.
    pub fn spacetime_volume_per_op(&self, include_factories: bool) -> f64 {
        self.spacetime_volume(include_factories) / self.n_input_gates.max(1) as f64
    }
}

impl fmt::Display for BaselineResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits, time {}, CPI {:.2}",
            self.name,
            self.total_qubits(),
            self.execution_time,
            self.cpi()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_arithmetic() {
        let r = BaselineResult {
            name: "test".into(),
            grid_qubits: 100,
            factory_qubits: 11,
            execution_time: Ticks::from_d(200.0),
            n_input_gates: 50,
            n_magic: 10,
            factories: 1,
        };
        assert_eq!(r.total_qubits(), 111);
        assert!((r.cpi() - 4.0).abs() < 1e-12);
        assert!((r.spacetime_volume(true) - 111.0 * 200.0).abs() < 1e-9);
        assert!((r.spacetime_volume(false) - 100.0 * 200.0).abs() < 1e-9);
        assert!((r.spacetime_volume_per_op(false) - 400.0).abs() < 1e-9);
        assert!(r.to_string().contains("111 qubits"));
    }
}
