//! Physical-resource estimation for surface-code machines.
//!
//! The compiler works in *logical* units (patches and code-distance
//! timesteps). This module converts to physical requirements: the code
//! distance needed for a target logical error budget, physical qubits per
//! patch (`2d² − 1`, paper Fig 1), and wall-clock time from the syndrome
//! cycle length — the quantities an early-FTQC hardware roadmap is written
//! in (§I: "systems to have tens to hundreds of logical qubits").
//!
//! The logical error model is the standard surface-code fit
//! `p_L(d) ≈ A · (p/p_th)^((d+1)/2)` per patch per code cycle, with
//! `A = 0.1` and threshold `p_th = 0.01` (Fowler et al. \[16\]).

use crate::timing::Ticks;

/// Physical machine assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalAssumptions {
    /// Physical gate error rate `p` (e.g. `1e-3`).
    pub physical_error_rate: f64,
    /// Surface-code threshold `p_th` (default `1e-2`).
    pub threshold: f64,
    /// Fit prefactor `A` (default 0.1).
    pub prefactor: f64,
    /// Syndrome-measurement cycle time in seconds (e.g. `1e-6` for
    /// superconducting qubits).
    pub cycle_seconds: f64,
}

impl PhysicalAssumptions {
    /// Superconducting-era defaults: `p = 10⁻³`, 1µs cycles.
    pub fn superconducting() -> Self {
        Self {
            physical_error_rate: 1e-3,
            threshold: 1e-2,
            prefactor: 0.1,
            cycle_seconds: 1e-6,
        }
    }

    /// Logical error rate per patch per code cycle at distance `d`.
    pub fn logical_error_per_cycle(&self, d: u32) -> f64 {
        let ratio = self.physical_error_rate / self.threshold;
        self.prefactor * ratio.powf((d as f64 + 1.0) / 2.0)
    }

    /// The smallest odd code distance such that the *total* expected
    /// logical error over `patches × code_cycles` patch-cycles stays below
    /// `budget`.
    ///
    /// Returns `None` when `p ≥ p_th` (below threshold operation is
    /// impossible) or no distance up to 99 suffices.
    pub fn required_distance(&self, patch_cycles: f64, budget: f64) -> Option<u32> {
        if self.physical_error_rate >= self.threshold {
            return None;
        }
        (3..=99)
            .step_by(2)
            .find(|&d| self.logical_error_per_cycle(d) * patch_cycles < budget)
    }
}

impl Default for PhysicalAssumptions {
    fn default() -> Self {
        Self::superconducting()
    }
}

/// Physical qubits in one logical patch at distance `d`: `2d² − 1`
/// (d² data + d²−1 syndrome, paper Fig 1(b)).
pub fn physical_qubits_per_patch(d: u32) -> u64 {
    2 * (d as u64) * (d as u64) - 1
}

/// A complete physical resource estimate for a compiled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalEstimate {
    /// Chosen code distance.
    pub code_distance: u32,
    /// Logical patches (grid + factories).
    pub logical_qubits: u32,
    /// Total physical qubits.
    pub physical_qubits: u64,
    /// Wall-clock execution time in seconds.
    pub wall_clock_seconds: f64,
    /// Expected total logical error of the run.
    pub expected_logical_error: f64,
}

/// Estimates the physical resources for a program of `logical_qubits`
/// patches running for `execution_time`, with total failure budget
/// `budget` (e.g. 0.01 for a 1% failure chance).
///
/// Returns `None` when no distance ≤ 99 meets the budget.
///
/// # Example
///
/// ```
/// use ftqc_arch::qec::{estimate, PhysicalAssumptions};
/// use ftqc_arch::Ticks;
///
/// let est = estimate(
///     155,
///     Ticks::from_d(3100.0),
///     0.01,
///     &PhysicalAssumptions::superconducting(),
/// )
/// .expect("feasible");
/// assert!(est.code_distance >= 13);
/// assert!(est.physical_qubits > 50_000);
/// ```
pub fn estimate(
    logical_qubits: u32,
    execution_time: Ticks,
    budget: f64,
    assumptions: &PhysicalAssumptions,
) -> Option<PhysicalEstimate> {
    // `execution_time` is in d units, so code cycles = time_d × d; the
    // distance appears on both sides — iterate to a fixed point (monotone
    // increasing, converges in a couple of rounds).
    let mut d = 3u32;
    for _ in 0..32 {
        let patch_cycles = logical_qubits as f64 * execution_time.as_d() * d as f64;
        let needed = assumptions.required_distance(patch_cycles, budget)?;
        if needed <= d {
            return Some(PhysicalEstimate {
                code_distance: d,
                logical_qubits,
                physical_qubits: logical_qubits as u64 * physical_qubits_per_patch(d),
                wall_clock_seconds: execution_time.physical_seconds(d, assumptions.cycle_seconds),
                expected_logical_error: assumptions.logical_error_per_cycle(d) * patch_cycles,
            });
        }
        d = needed;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_qubit_formula() {
        // d=5: 2*25-1 = 49 (Fig 1(b): "2d²−1 physical qubits").
        assert_eq!(physical_qubits_per_patch(5), 49);
        assert_eq!(physical_qubits_per_patch(3), 17);
        assert_eq!(physical_qubits_per_patch(21), 881);
    }

    #[test]
    fn logical_error_decreases_with_distance() {
        let a = PhysicalAssumptions::superconducting();
        let e3 = a.logical_error_per_cycle(3);
        let e5 = a.logical_error_per_cycle(5);
        let e21 = a.logical_error_per_cycle(21);
        assert!(e5 < e3);
        assert!(e21 < 1e-10);
    }

    #[test]
    fn required_distance_monotone_in_budget() {
        let a = PhysicalAssumptions::superconducting();
        let tight = a.required_distance(1e9, 1e-3).unwrap();
        let loose = a.required_distance(1e9, 1e-1).unwrap();
        assert!(tight >= loose);
        // Distances are odd.
        assert_eq!(tight % 2, 1);
    }

    #[test]
    fn above_threshold_is_infeasible() {
        let a = PhysicalAssumptions {
            physical_error_rate: 2e-2,
            ..PhysicalAssumptions::superconducting()
        };
        assert_eq!(a.required_distance(1e6, 0.01), None);
    }

    #[test]
    fn end_to_end_estimate_ising_scale() {
        // The compiled 10x10 Ising: 155 patches for ~3100d.
        let est = estimate(
            155,
            Ticks::from_d(3100.0),
            0.01,
            &PhysicalAssumptions::superconducting(),
        )
        .expect("feasible");
        assert!(est.code_distance >= 13 && est.code_distance <= 31);
        assert!(est.expected_logical_error < 0.01);
        assert!(est.wall_clock_seconds > 0.01 && est.wall_clock_seconds < 10.0);
        assert_eq!(
            est.physical_qubits,
            155 * physical_qubits_per_patch(est.code_distance)
        );
    }

    #[test]
    fn better_hardware_needs_less_distance() {
        let sc = PhysicalAssumptions::superconducting();
        let better = PhysicalAssumptions {
            physical_error_rate: 1e-4,
            ..sc
        };
        let d_sc = estimate(100, Ticks::from_d(1000.0), 0.01, &sc)
            .unwrap()
            .code_distance;
        let d_better = estimate(100, Ticks::from_d(1000.0), 0.01, &better)
            .unwrap()
            .code_distance;
        assert!(d_better < d_sc);
    }
}
