//! Evaluation metrics (paper §VI): execution time, unit-cost execution
//! time, the distillation lower bound, qubit counts, spacetime volume and
//! CPI.

use ftqc_arch::Ticks;
use ftqc_route::RouteCounters;
use std::fmt;

/// Metrics of one compiled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Makespan under realistic latencies (Fig 7).
    pub execution_time: Ticks,
    /// Makespan with 1d per operation (Fig 8's "unit cost execution time").
    pub unit_cost_time: Ticks,
    /// The distillation lower bound `l = n_T · t_MSF / n_MSF` (Eq. 2).
    pub lower_bound: Ticks,
    /// Logical patches on the computation grid.
    pub grid_patches: u32,
    /// Logical patches consumed by distillation factory blocks.
    pub factory_patches: u32,
    /// Number of routing paths `r` of the layout.
    pub routing_paths: u32,
    /// Number of distillation factories.
    pub factories: u32,
    /// Gates in the input circuit (CPI denominator).
    pub n_gates: usize,
    /// Lattice-surgery operations in the final schedule.
    pub n_surgery_ops: usize,
    /// Movement operations (moves + deliveries) in the final schedule.
    pub n_moves: usize,
    /// Move ops cancelled by redundant-move elimination.
    pub n_moves_eliminated: usize,
    /// Magic states consumed.
    pub n_magic_states: u64,
    /// Incremental-router activity for the routing run that produced this
    /// program. Deterministic per compile (the router is per-engine), so
    /// cached and fresh compiles report identical values.
    pub route: RouteCounters,
}

impl Metrics {
    /// Total logical qubits: grid patches plus factory tiles.
    pub fn total_qubits(&self) -> u32 {
        self.grid_patches + self.factory_patches
    }

    /// Execution time over the lower bound (the paper's headline overhead,
    /// e.g. "1.2×"). Returns `f64::INFINITY` when the bound is zero (no
    /// magic states).
    pub fn overhead(&self) -> f64 {
        if self.lower_bound == Ticks::ZERO {
            f64::INFINITY
        } else {
            self.execution_time.as_d() / self.lower_bound.as_d()
        }
    }

    /// Unit-cost time over the lower bound.
    pub fn unit_overhead(&self) -> f64 {
        if self.lower_bound == Ticks::ZERO {
            f64::INFINITY
        } else {
            self.unit_cost_time.as_d() / self.lower_bound.as_d()
        }
    }

    /// Spacetime volume in qubit·d: qubits × execution time. Fig 9 includes
    /// factory tiles (`include_factories = true`); the DASCOT comparison of
    /// Fig 15 excludes them.
    pub fn spacetime_volume(&self, include_factories: bool) -> f64 {
        let qubits = if include_factories {
            self.total_qubits()
        } else {
            self.grid_patches
        };
        qubits as f64 * self.execution_time.as_d()
    }

    /// Spacetime volume per input-circuit operation (the y-axis of Figs 9
    /// and 15).
    pub fn spacetime_volume_per_op(&self, include_factories: bool) -> f64 {
        self.spacetime_volume(include_factories) / self.n_gates.max(1) as f64
    }

    /// Cycles per instruction: execution time (in d) per input gate
    /// (Fig 13/14's CPI).
    pub fn cpi(&self) -> f64 {
        self.execution_time.as_d() / self.n_gates.max(1) as f64
    }

    /// Movement overhead: movement ops per input gate.
    pub fn moves_per_gate(&self) -> f64 {
        self.n_moves as f64 / self.n_gates.max(1) as f64
    }
}

/// Computes the lower bound of Eq. (2) in ticks (floor division; the bound
/// is only meaningful relative to makespans far above one tick).
pub fn lower_bound(n_magic: u64, production: Ticks, factories: u32) -> Ticks {
    if factories == 0 {
        return Ticks::ZERO;
    }
    Ticks(n_magic * production.raw() / factories as u64)
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "qubits: {} (grid {} + factories {})",
            self.total_qubits(),
            self.grid_patches,
            self.factory_patches
        )?;
        writeln!(
            f,
            "time: {} (unit-cost {}, lower bound {}, overhead {:.2}x)",
            self.execution_time,
            self.unit_cost_time,
            self.lower_bound,
            self.overhead()
        )?;
        writeln!(
            f,
            "ops: {} surgery ({} moves, {} eliminated) for {} gates, {} magic states",
            self.n_surgery_ops,
            self.n_moves,
            self.n_moves_eliminated,
            self.n_gates,
            self.n_magic_states
        )?;
        writeln!(
            f,
            "spacetime: {:.0} qubit-d ({:.1} per op), CPI {:.2}",
            self.spacetime_volume(true),
            self.spacetime_volume_per_op(true),
            self.cpi()
        )?;
        write!(f, "router: {} arena reuses", self.route.arena_reuses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        Metrics {
            execution_time: Ticks::from_d(120.0),
            unit_cost_time: Ticks::from_d(110.0),
            lower_bound: Ticks::from_d(100.0),
            grid_patches: 144,
            factory_patches: 11,
            routing_paths: 4,
            factories: 1,
            n_gates: 60,
            n_surgery_ops: 150,
            n_moves: 40,
            n_moves_eliminated: 6,
            n_magic_states: 10,
            route: RouteCounters { arena_reuses: 30 },
        }
    }

    #[test]
    fn lower_bound_formula() {
        // 280 states, 11d, 1 factory = 3080d.
        assert_eq!(
            lower_bound(280, Ticks::from_d(11.0), 1),
            Ticks::from_d(3080.0)
        );
        // 4 factories: 770d.
        assert_eq!(
            lower_bound(280, Ticks::from_d(11.0), 4),
            Ticks::from_d(770.0)
        );
        assert_eq!(lower_bound(10, Ticks::from_d(11.0), 0), Ticks::ZERO);
    }

    #[test]
    fn overheads() {
        let m = sample();
        assert!((m.overhead() - 1.2).abs() < 1e-12);
        assert!((m.unit_overhead() - 1.1).abs() < 1e-12);
        assert_eq!(m.total_qubits(), 155);
    }

    #[test]
    fn zero_bound_overhead_is_infinite() {
        let mut m = sample();
        m.lower_bound = Ticks::ZERO;
        assert!(m.overhead().is_infinite());
    }

    #[test]
    fn spacetime_volume_with_and_without_factories() {
        let m = sample();
        assert!((m.spacetime_volume(true) - 155.0 * 120.0).abs() < 1e-9);
        assert!((m.spacetime_volume(false) - 144.0 * 120.0).abs() < 1e-9);
        assert!((m.spacetime_volume_per_op(true) - 155.0 * 120.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn cpi_and_moves_per_gate() {
        let m = sample();
        assert!((m.cpi() - 2.0).abs() < 1e-12);
        assert!((m.moves_per_gate() - 40.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = sample().to_string();
        assert!(s.contains("qubits: 155"));
        assert!(s.contains("overhead 1.20x"));
        assert!(s.contains("CPI 2.00"));
        assert!(s.contains("router: 30 arena reuses"));
    }
}
