//! Magic-state distillation protocols beyond the flat 11d/11-tile factory.
//!
//! The paper fixes one factory model: a 15-to-1 unit taking 11 code cycles
//! and 11 tiles (§II.C, following \[28\]). Its own sensitivity study
//! (Fig 14d) varies the processing time, and real early-FT machines will
//! pick a protocol to hit a *target output fidelity* for a given physical
//! error rate. This module provides that selection layer:
//!
//! * [`DistillationProtocol`] — an `(n → k, O(pᵐ))` distillation unit with a
//!   tile footprint and a latency in code-distance units;
//! * composition ([`DistillationProtocol::compose`]) for multi-level
//!   distillation, e.g. `(15-to-1)²`;
//! * [`choose_protocol`] — the cheapest catalogue entry whose output error
//!   meets a target, the decision an early-FT architect makes when fixing
//!   `t_MSF` and factory count.
//!
//! The error model is the textbook suppression rule for the 15-to-1
//! protocol, `p_out = 35·p³` (Bravyi & Kitaev \[10\]), composed across
//! levels, plus a *logical noise floor*: the distillation block itself
//! runs `tiles × cycles` patch-cycles of error correction, so its output
//! cannot be cleaner than what the code distance sustains. Litinski's
//! protocol zoo (\[29\]) tunes per-level code distances; we expose the same
//! trade-off through [`DistillationProtocol::output_error`]'s explicit
//! floor term. (See DESIGN.md: we implement the published *formulas*, not
//! the paper-specific simulated constants, which depend on their decoder.)

use crate::qec::PhysicalAssumptions;
use crate::timing::Ticks;
use std::fmt;

/// One distillation unit: consumes `inputs` noisy states, produces
/// `outputs` better ones with error `prefactor · p_in^order`.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillationProtocol {
    /// Human-readable name, e.g. `"15-to-1"` or `"(15-to-1)²"`.
    pub name: String,
    /// Noisy input states consumed per round.
    pub inputs: u32,
    /// Distilled output states produced per round.
    pub outputs: u32,
    /// Order of error suppression (3 for 15-to-1).
    pub order: u32,
    /// Prefactor of the suppression rule (35 for 15-to-1).
    pub prefactor: f64,
    /// Logical patches the unit occupies while running.
    pub tiles: u32,
    /// Production latency per round, in code-distance units.
    pub cycles_d: f64,
}

impl DistillationProtocol {
    /// The paper's factory: Bravyi–Kitaev 15-to-1 on 11 tiles, one output
    /// every 11d (\[28\], §II.C).
    pub fn fifteen_to_one() -> Self {
        Self {
            name: "15-to-1".into(),
            inputs: 15,
            outputs: 1,
            order: 3,
            prefactor: 35.0,
            tiles: 11,
            cycles_d: 11.0,
        }
    }

    /// Two-level `(15-to-1)²` distillation: 225 raw inputs per output,
    /// ninth-order suppression. Built with [`DistillationProtocol::compose`].
    pub fn fifteen_to_one_squared() -> Self {
        let l = Self::fifteen_to_one();
        l.compose(&Self::fifteen_to_one())
    }

    /// Composes `self` (first level) with `next` (second level): the first
    /// level must produce the second level's inputs, so per final output
    /// the composite consumes `inputs × next.inputs / outputs` raw states.
    ///
    /// Footprint: the first level needs `ceil(next.inputs / outputs)`
    /// concurrent copies to feed one second-level round, running in
    /// parallel next to it; latency adds one first-level round of fill
    /// (pipelined thereafter).
    pub fn compose(&self, next: &Self) -> Self {
        let copies = next.inputs.div_ceil(self.outputs);
        // p2 = c2 · (c1 · p^k1)^k2 = c2 · c1^k2 · p^(k1·k2)
        let prefactor = next.prefactor * self.prefactor.powi(next.order as i32);
        Self {
            name: format!("({})x({})", self.name, next.name),
            inputs: self.inputs * copies,
            outputs: next.outputs,
            order: self.order * next.order,
            prefactor,
            tiles: self.tiles * copies + next.tiles,
            cycles_d: self.cycles_d + next.cycles_d,
        }
    }

    /// Output error per distilled state for raw input error `p_in`,
    /// ignoring the logical noise floor (infinite-distance limit).
    pub fn ideal_output_error(&self, p_in: f64) -> f64 {
        self.prefactor * p_in.powi(self.order as i32)
    }

    /// Output error including the logical noise floor of running the
    /// distillation block at distance `d` under `assumptions`: the block's
    /// `tiles × cycles_d × d` patch-cycles each contribute the per-cycle
    /// logical error, spread over the round's outputs.
    pub fn output_error(&self, p_in: f64, d: u32, assumptions: &PhysicalAssumptions) -> f64 {
        let floor = assumptions.logical_error_per_cycle(d)
            * (self.tiles as f64)
            * (self.cycles_d * d as f64)
            / self.outputs.max(1) as f64;
        self.ideal_output_error(p_in) + floor
    }

    /// Production latency as [`Ticks`].
    pub fn production_time(&self) -> Ticks {
        Ticks::from_d(self.cycles_d)
    }

    /// Spacetime volume of one round in tile·d units.
    pub fn round_volume(&self) -> f64 {
        self.tiles as f64 * self.cycles_d
    }

    /// Raw (undistilled) states consumed per final output.
    pub fn raw_per_output(&self) -> f64 {
        self.inputs as f64 / self.outputs.max(1) as f64
    }
}

impl fmt::Display for DistillationProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} tiles, {}d/round, p_out≈{}·p^{})",
            self.name, self.tiles, self.cycles_d, self.prefactor, self.order
        )
    }
}

/// The default catalogue an early-FT architect picks from: one- and
/// two-level 15-to-1 stacks.
pub fn catalogue() -> Vec<DistillationProtocol> {
    let one = DistillationProtocol::fifteen_to_one();
    let two = DistillationProtocol::fifteen_to_one_squared();
    let three = two.compose(&DistillationProtocol::fifteen_to_one());
    vec![one, two, three]
}

/// Chooses the smallest-volume catalogue protocol whose output error at
/// distance `d` meets `target`, with raw input error `p_in` (usually the
/// physical error rate: injected states start at ≈ p).
///
/// Returns `None` when no catalogue entry reaches the target — either the
/// target is below the logical noise floor at this distance, or the raw
/// states are too noisy for three levels.
///
/// # Example
///
/// ```
/// use ftqc_arch::distillation::choose_protocol;
/// use ftqc_arch::qec::PhysicalAssumptions;
///
/// let a = PhysicalAssumptions::superconducting();
/// // A loose target is met by single-level 15-to-1.
/// let p = choose_protocol(1e-3, 1e-6, 21, &a).expect("feasible");
/// assert_eq!(p.name, "15-to-1");
/// // A very tight target needs two levels.
/// let p = choose_protocol(1e-3, 1e-13, 41, &a).expect("feasible");
/// assert!(p.name.contains(")x("));
/// ```
pub fn choose_protocol(
    p_in: f64,
    target: f64,
    d: u32,
    assumptions: &PhysicalAssumptions,
) -> Option<DistillationProtocol> {
    let mut feasible: Vec<DistillationProtocol> = catalogue()
        .into_iter()
        .filter(|p| p.output_error(p_in, d, assumptions) < target)
        .collect();
    feasible.sort_by(|a, b| {
        a.round_volume()
            .partial_cmp(&b.round_volume())
            .expect("volumes are finite")
    });
    feasible.into_iter().next()
}

/// The magic-state error budget implied by a circuit: if a run may spend at
/// most `budget` total failure probability on its `n_magic` consumed states,
/// each state must be distilled to `budget / n_magic`.
pub fn per_state_target(budget: f64, n_magic: u64) -> f64 {
    if n_magic == 0 {
        1.0
    } else {
        budget / n_magic as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_to_one_matches_paper_constants() {
        let p = DistillationProtocol::fifteen_to_one();
        assert_eq!(p.tiles, 11);
        assert_eq!(p.cycles_d, 11.0);
        assert_eq!(p.production_time(), Ticks::from_d(11.0));
        assert_eq!(p.raw_per_output(), 15.0);
    }

    #[test]
    fn bravyi_kitaev_suppression() {
        let p = DistillationProtocol::fifteen_to_one();
        // 35·(1e-3)³ = 3.5e-8.
        let out = p.ideal_output_error(1e-3);
        assert!((out - 3.5e-8).abs() < 1e-12);
    }

    #[test]
    fn two_level_composition() {
        let p2 = DistillationProtocol::fifteen_to_one_squared();
        assert_eq!(p2.inputs, 225);
        assert_eq!(p2.outputs, 1);
        assert_eq!(p2.order, 9);
        // c = 35 · 35³ = 35⁴.
        assert!((p2.prefactor - 35.0f64.powi(4)).abs() < 1e-6);
        // 15 first-level copies + 1 second-level unit.
        assert_eq!(p2.tiles, 11 * 15 + 11);
        assert_eq!(p2.cycles_d, 22.0);
        // Ninth-order suppression at p=1e-3: 35⁴·1e-27 ≈ 1.5e-21.
        assert!(p2.ideal_output_error(1e-3) < 1e-20);
    }

    #[test]
    fn composition_is_associativeish_in_order() {
        let one = DistillationProtocol::fifteen_to_one();
        let three = one.compose(&one).compose(&one);
        assert_eq!(three.order, 27);
    }

    #[test]
    fn noise_floor_dominates_at_small_distance() {
        let a = PhysicalAssumptions::superconducting();
        let p = DistillationProtocol::fifteen_to_one();
        // At d=3 the block's own logical errors swamp the distilled output.
        let small_d = p.output_error(1e-3, 3, &a);
        let big_d = p.output_error(1e-3, 25, &a);
        assert!(small_d > 1e3 * big_d);
        // At large d the floor vanishes and we approach the ideal value.
        assert!((big_d - p.ideal_output_error(1e-3)) / big_d < 0.5);
    }

    #[test]
    fn choose_prefers_cheapest() {
        let a = PhysicalAssumptions::superconducting();
        let chosen = choose_protocol(1e-3, 1e-6, 21, &a).expect("feasible");
        assert_eq!(chosen.name, "15-to-1");
    }

    #[test]
    fn choose_escalates_levels_for_tight_targets() {
        let a = PhysicalAssumptions::superconducting();
        let chosen = choose_protocol(1e-3, 1e-13, 41, &a).expect("feasible");
        assert!(chosen.order >= 9, "needs ≥ two levels, got {}", chosen.name);
    }

    #[test]
    fn choose_fails_below_noise_floor() {
        let a = PhysicalAssumptions::superconducting();
        // d=3 cannot certify 1e-15 states no matter the protocol.
        assert_eq!(choose_protocol(1e-3, 1e-15, 3, &a), None);
    }

    #[test]
    fn per_state_target_divides_budget() {
        assert_eq!(per_state_target(0.01, 100), 1e-4);
        assert_eq!(per_state_target(0.01, 0), 1.0);
    }

    #[test]
    fn round_volume_and_display() {
        let p = DistillationProtocol::fifteen_to_one();
        assert_eq!(p.round_volume(), 121.0);
        assert!(p.to_string().contains("15-to-1"));
        assert!(p.to_string().contains("11 tiles"));
    }

    #[test]
    fn catalogue_sorted_by_strength() {
        let c = catalogue();
        assert_eq!(c.len(), 3);
        assert!(c[0].order < c[1].order && c[1].order < c[2].order);
    }
}
