//! Compiler configuration.
//!
//! Since the target redesign, everything that describes the *machine* —
//! bus provisioning, factories, latencies, port placement, capability
//! flags — lives in one [`TargetSpec`] under [`CompilerOptions::target`];
//! the remaining fields are *compilation policy* (heuristics, mapping,
//! accounting). The legacy builder setters (`routing_paths`, `factories`,
//! `timing`, …) are thin forwards into the target, so existing
//! configuration code keeps reading the same.

use crate::mapping::MappingStrategy;
use ftqc_arch::{BusSpec, PortPlacement, TargetSpec, Ticks, TimingModel};

/// How many magic states a non-Clifford rotation consumes.
///
/// The paper (and its Table I accounting) charges one state per `T`, `T†`
/// or non-Clifford `Rz`; a synthesis-aware policy can charge more states per
/// arbitrary-angle rotation for sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TStatePolicy {
    /// States consumed by a T/T† gate (always ≥ 1).
    pub states_per_t: u32,
    /// States consumed by a non-Clifford `Rz` (the paper uses 1).
    pub states_per_rz: u32,
}

impl TStatePolicy {
    /// The paper's accounting: one state per non-Clifford rotation.
    pub fn one_per_rotation() -> Self {
        Self {
            states_per_t: 1,
            states_per_rz: 1,
        }
    }

    /// A synthesis-aware policy charging `k` states per arbitrary `Rz`
    /// (gridsynth-style synthesis sequences), still 1 per exact T.
    pub fn synthesis(k: u32) -> Self {
        Self {
            states_per_t: 1,
            states_per_rz: k.max(1),
        }
    }

    /// Derives the per-`Rz` charge from a synthesis count model
    /// (`ftqc_circuit::SynthesisModel`), e.g. Ross–Selinger at a target
    /// precision. Exact T gates still cost one state.
    ///
    /// # Example
    ///
    /// ```
    /// use ftqc_circuit::SynthesisModel;
    /// use ftqc_compiler::TStatePolicy;
    ///
    /// let p = TStatePolicy::from_synthesis_model(SynthesisModel::RossSelinger { eps: 1e-3 });
    /// assert_eq!(p.states_per_rz, 34);
    /// assert_eq!(p.states_per_t, 1);
    /// ```
    pub fn from_synthesis_model(model: ftqc_circuit::SynthesisModel) -> Self {
        Self::synthesis(model.generic_t_count())
    }
}

impl Default for TStatePolicy {
    fn default() -> Self {
        Self::one_per_rotation()
    }
}

/// Options controlling a [`Compiler`](crate::Compiler) run.
///
/// Builder-style setters return `self` so configurations read as one
/// expression; every knob corresponds to a paper parameter or a DESIGN.md
/// ablation. Machine knobs forward into [`CompilerOptions::target`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// The hardware target: layout family or bus mask, factory bank,
    /// timing model, and capability flags. Defaults to the paper machine
    /// ([`TargetSpec::paper`]).
    pub target: TargetSpec,
    /// Penalty weight of the Dijkstra cost model (§V.B). Default 5.
    pub penalty_weight: u64,
    /// Gate-dependent look-ahead configuration selection (§V.A). Default on.
    pub lookahead: bool,
    /// Redundant-move elimination in the scheduling stage (§V.D). Default on.
    pub eliminate_redundant_moves: bool,
    /// Initial mapping strategy. Default snake (preserves NN chains).
    pub mapping: MappingStrategy,
    /// Magic-state accounting policy.
    pub t_state_policy: TStatePolicy,
    /// Peephole circuit optimisation (inverse-pair cancellation, rotation
    /// merging) before lowering. Off by default: the paper compiles
    /// circuits as-is.
    pub optimize: bool,
    /// Re-time the routed program under this latency model instead of the
    /// target's timing. The router still plans with the target timing;
    /// only the scheduling stage (and its lower bound) uses the override,
    /// so a latency-model sweep through [`CompileSession`](crate::CompileSession)
    /// reuses the routed ops and re-runs scheduling alone. Default `None`
    /// (schedule with the target timing, the paper's behaviour).
    pub schedule_timing: Option<TimingModel>,
}

impl CompilerOptions {
    /// Replaces the whole hardware target.
    pub fn target(mut self, spec: TargetSpec) -> Self {
        self.target = spec;
        self
    }

    /// Sets the number of routing paths (replaces any explicit bus mask
    /// with the routing-path-parameterised family).
    pub fn routing_paths(mut self, r: u32) -> Self {
        self.target.bus = BusSpec::RoutingPaths(r);
        self
    }

    /// Sets the number of distillation factories.
    pub fn factories(mut self, n: u32) -> Self {
        self.target.factories = n;
        self
    }

    /// Sets the target's timing model.
    pub fn timing(mut self, t: TimingModel) -> Self {
        self.target.timing = t;
        self
    }

    /// Sets the magic-state production latency, keeping other timings.
    pub fn magic_production(mut self, t: Ticks) -> Self {
        self.target.timing.magic_production = t;
        self
    }

    /// Sets the Dijkstra penalty weight.
    pub fn penalty_weight(mut self, w: u64) -> Self {
        self.penalty_weight = w;
        self
    }

    /// Enables or disables gate-dependent look-ahead.
    pub fn lookahead(mut self, on: bool) -> Self {
        self.lookahead = on;
        self
    }

    /// Enables or disables redundant-move elimination.
    pub fn eliminate_redundant_moves(mut self, on: bool) -> Self {
        self.eliminate_redundant_moves = on;
        self
    }

    /// Sets the mapping strategy.
    pub fn mapping(mut self, m: MappingStrategy) -> Self {
        self.mapping = m;
        self
    }

    /// Sets the magic-state accounting policy.
    pub fn t_state_policy(mut self, p: TStatePolicy) -> Self {
        self.t_state_policy = p;
        self
    }

    /// Models unlimited magic-state supply.
    pub fn unbounded_magic(mut self, on: bool) -> Self {
        self.target.unbounded_magic = on;
        self
    }

    /// Enables or disables the peephole optimisation pre-pass.
    pub fn optimize(mut self, on: bool) -> Self {
        self.optimize = on;
        self
    }

    /// Sets the factory port placement policy.
    pub fn port_placement(mut self, p: PortPlacement) -> Self {
        self.target.port_placement = p;
        self
    }

    /// Sets the schedule-stage timing override (re-time without re-routing).
    pub fn schedule_timing(mut self, t: TimingModel) -> Self {
        self.schedule_timing = Some(t);
        self
    }

    /// The latency model the scheduling stage replays with:
    /// [`CompilerOptions::schedule_timing`] when set, otherwise the
    /// target's timing.
    pub fn effective_schedule_timing(&self) -> &TimingModel {
        self.schedule_timing.as_ref().unwrap_or(&self.target.timing)
    }
}

impl Default for CompilerOptions {
    fn default() -> Self {
        Self {
            target: TargetSpec::paper(),
            penalty_weight: 5,
            lookahead: true,
            eliminate_redundant_moves: true,
            mapping: MappingStrategy::Snake,
            t_state_policy: TStatePolicy::default(),
            optimize: false,
            schedule_timing: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let o = CompilerOptions::default()
            .routing_paths(6)
            .factories(3)
            .penalty_weight(2)
            .lookahead(false)
            .eliminate_redundant_moves(false)
            .unbounded_magic(true);
        assert_eq!(o.target.routing_paths(), 6);
        assert_eq!(o.target.factories, 3);
        assert_eq!(o.penalty_weight, 2);
        assert!(!o.lookahead);
        assert!(!o.eliminate_redundant_moves);
        assert!(o.target.unbounded_magic);
    }

    #[test]
    fn default_matches_paper() {
        let o = CompilerOptions::default();
        assert_eq!(o.target, TargetSpec::paper());
        assert_eq!(o.target.factories, 1);
        assert_eq!(o.target.timing.magic_production.as_d(), 11.0);
        assert!(o.lookahead);
        assert!(o.eliminate_redundant_moves);
        assert_eq!(o.t_state_policy.states_per_rz, 1);
    }

    #[test]
    fn target_setters() {
        let o = CompilerOptions::default().target(TargetSpec::sparse());
        assert_eq!(o.target, TargetSpec::sparse());
        assert_eq!(o.penalty_weight, 5, "policy knobs untouched");
        // A routing-path override replaces an explicit mask with the family.
        let o = CompilerOptions::default()
            .target(TargetSpec {
                bus: ftqc_arch::BusSpec::Explicit {
                    rows: vec![-1],
                    cols: vec![-1],
                },
                ..TargetSpec::paper()
            })
            .routing_paths(5);
        assert_eq!(o.target.bus, ftqc_arch::BusSpec::RoutingPaths(5));
    }

    #[test]
    fn schedule_timing_override() {
        let o = CompilerOptions::default();
        assert_eq!(o.schedule_timing, None);
        assert_eq!(*o.effective_schedule_timing(), o.target.timing);
        let fast = TimingModel {
            cnot: Ticks::from_d(1.0),
            ..TimingModel::paper()
        };
        let o = o.schedule_timing(fast);
        assert_eq!(o.effective_schedule_timing().cnot.as_d(), 1.0);
        assert_eq!(o.target.timing.cnot.as_d(), 2.0, "router timing untouched");
    }

    #[test]
    fn magic_production_shortcut() {
        let o = CompilerOptions::default().magic_production(Ticks::from_d(5.0));
        assert_eq!(o.target.timing.magic_production.as_d(), 5.0);
        assert_eq!(o.target.timing.cnot.as_d(), 2.0);
    }

    #[test]
    fn synthesis_policy() {
        let p = TStatePolicy::synthesis(15);
        assert_eq!(p.states_per_rz, 15);
        assert_eq!(p.states_per_t, 1);
        assert_eq!(TStatePolicy::synthesis(0).states_per_rz, 1);
    }
}
