//! Logical time units and the per-operation latency table of the paper.
//!
//! All lattice-surgery latencies are multiples of the code distance `d`
//! (Fig 7). The S gate takes 1.5d and T-state consumption 2.5d, so the
//! internal unit is a *tick* of `0.5d`: every paper latency is an integer
//! number of ticks and all arithmetic is exact.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Number of ticks in one code-distance unit `d`.
pub const TICKS_PER_D: u64 = 2;

/// A duration or instant in half-`d` ticks.
///
/// `Ticks(2)` is `1d`; `Ticks(5)` is `2.5d`. Displayed in `d` units.
///
/// # Example
///
/// ```
/// use ftqc_arch::Ticks;
///
/// let t = Ticks::from_d(2.5);
/// assert_eq!(t + Ticks::from_d(1.0), Ticks::from_d(3.5));
/// assert_eq!(t.to_string(), "2.5d");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(pub u64);

impl Ticks {
    /// Zero duration.
    pub const ZERO: Ticks = Ticks(0);

    /// Creates a duration of `d_units · d`.
    ///
    /// # Panics
    ///
    /// Panics if `d_units` is negative or not a multiple of 0.5 (all paper
    /// latencies are half-`d` multiples).
    pub fn from_d(d_units: f64) -> Self {
        let ticks = d_units * TICKS_PER_D as f64;
        assert!(
            ticks >= 0.0 && (ticks - ticks.round()).abs() < 1e-9,
            "{d_units}d is not a non-negative multiple of 0.5d"
        );
        Ticks(ticks.round() as u64)
    }

    /// The duration in `d` units.
    pub fn as_d(self) -> f64 {
        self.0 as f64 / TICKS_PER_D as f64
    }

    /// Raw tick count.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(other.0))
    }

    /// The larger of two instants.
    pub fn max(self, other: Ticks) -> Ticks {
        Ticks(self.0.max(other.0))
    }

    /// Physical duration in seconds for code distance `d` and a syndrome
    /// cycle time of `cycle_seconds` (one code cycle = one syndrome
    /// measurement round; a `1d` logical timestep is `d` code cycles).
    pub fn physical_seconds(self, code_distance: u32, cycle_seconds: f64) -> f64 {
        self.as_d() * code_distance as f64 * cycle_seconds
    }
}

impl Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;
    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        Ticks(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(TICKS_PER_D) {
            write!(f, "{}d", self.0 / TICKS_PER_D)
        } else {
            write!(f, "{}d", self.as_d())
        }
    }
}

/// Per-operation latencies (paper Fig 7 and §VI.A) plus distillation and
/// baseline-PPR latencies.
///
/// All fields are public so experiments can sweep them (e.g. the
/// magic-state-processing-time study of Fig 14(d)); [`TimingModel::paper`]
/// gives the defaults used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingModel {
    /// Move of a patch to an adjacent free cell: 1d.
    pub move_op: Ticks,
    /// `M_ZZ` / `M_XX` merge-split measurement: 1d.
    pub merge: Ticks,
    /// CNOT (two merges): 2d.
    pub cnot: Ticks,
    /// Hadamard (with one ancilla): 3d.
    pub hadamard: Ticks,
    /// S, S†, √X, √X† (with one ancilla): 1.5d.
    pub phase: Ticks,
    /// T-state consumption: `M_ZZ` (1d) + S correction (1.5d) = 2.5d.
    pub t_consume: Ticks,
    /// Z-basis measurement of a patch: 1d.
    pub measure: Ticks,
    /// Magic-state production latency per factory: 11d for 15-to-1 \[28\].
    pub magic_production: Ticks,
    /// PPR latency on the (modified) compact block: 4d (Appendix, Fig 17).
    pub ppr_compact: Ticks,
    /// PPR latency on the modified intermediate/fast blocks: 3d (Fig 10).
    pub ppr_fast: Ticks,
    /// Unit cost assigned to every operation when computing the paper's
    /// "unit cost execution time" (Fig 8): 1d.
    pub unit: Ticks,
}

impl TimingModel {
    /// The latencies used in the paper's evaluation.
    pub fn paper() -> Self {
        Self {
            move_op: Ticks::from_d(1.0),
            merge: Ticks::from_d(1.0),
            cnot: Ticks::from_d(2.0),
            hadamard: Ticks::from_d(3.0),
            phase: Ticks::from_d(1.5),
            t_consume: Ticks::from_d(2.5),
            measure: Ticks::from_d(1.0),
            magic_production: Ticks::from_d(11.0),
            ppr_compact: Ticks::from_d(4.0),
            ppr_fast: Ticks::from_d(3.0),
            unit: Ticks::from_d(1.0),
        }
    }

    /// Paper timings with a different magic-state production latency
    /// (the Fig 14(d) sweep).
    pub fn with_magic_production(mut self, t: Ticks) -> Self {
        self.magic_production = t;
        self
    }

    /// Every latency multiplied by `num/den`, rounded **up** to whole
    /// ticks with a 1-tick floor — the recipe behind timing-scaled targets
    /// (e.g. the `fast-d` machine at `1/2`, whose effective code distance
    /// is halved). Rounding up keeps the model conservative: a scaled
    /// machine is never credited with impossible sub-tick latencies.
    ///
    /// # Panics
    ///
    /// Panics if `num == 0` or `den == 0`.
    pub fn scaled(self, num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "scale factor must be positive");
        let scale = |t: Ticks| Ticks(((t.0 * num).div_ceil(den)).max(1));
        Self {
            move_op: scale(self.move_op),
            merge: scale(self.merge),
            cnot: scale(self.cnot),
            hadamard: scale(self.hadamard),
            phase: scale(self.phase),
            t_consume: scale(self.t_consume),
            measure: scale(self.measure),
            magic_production: scale(self.magic_production),
            ppr_compact: scale(self.ppr_compact),
            ppr_fast: scale(self.ppr_fast),
            unit: scale(self.unit),
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_d_half_multiples() {
        assert_eq!(Ticks::from_d(1.0), Ticks(2));
        assert_eq!(Ticks::from_d(2.5), Ticks(5));
        assert_eq!(Ticks::from_d(0.0), Ticks(0));
        assert_eq!(Ticks::from_d(11.0), Ticks(22));
    }

    #[test]
    #[should_panic(expected = "not a non-negative multiple")]
    fn from_d_rejects_quarter() {
        Ticks::from_d(0.75);
    }

    #[test]
    #[should_panic(expected = "not a non-negative multiple")]
    fn from_d_rejects_negative() {
        Ticks::from_d(-1.0);
    }

    #[test]
    fn arithmetic() {
        let a = Ticks::from_d(1.5);
        let b = Ticks::from_d(2.0);
        assert_eq!(a + b, Ticks::from_d(3.5));
        assert_eq!(b - a, Ticks::from_d(0.5));
        assert_eq!(a * 3, Ticks::from_d(4.5));
        assert_eq!(Ticks::from_d(1.0).max(b), b);
        assert_eq!(a.saturating_sub(b), Ticks::ZERO);
        let total: Ticks = [a, b, a].into_iter().sum();
        assert_eq!(total, Ticks::from_d(5.0));
    }

    #[test]
    fn display_in_d_units() {
        assert_eq!(Ticks::from_d(3.0).to_string(), "3d");
        assert_eq!(Ticks::from_d(2.5).to_string(), "2.5d");
    }

    #[test]
    fn physical_time_conversion() {
        // d=21, 1µs cycles: 1d timestep = 21µs.
        let t = Ticks::from_d(1.0);
        assert!((t.physical_seconds(21, 1e-6) - 21e-6).abs() < 1e-12);
    }

    #[test]
    fn paper_model_values() {
        let t = TimingModel::paper();
        assert_eq!(t.move_op.as_d(), 1.0);
        assert_eq!(t.cnot.as_d(), 2.0);
        assert_eq!(t.hadamard.as_d(), 3.0);
        assert_eq!(t.phase.as_d(), 1.5);
        assert_eq!(t.t_consume.as_d(), 2.5);
        assert_eq!(t.magic_production.as_d(), 11.0);
        assert_eq!(t.ppr_compact.as_d(), 4.0);
        assert_eq!(t.ppr_fast.as_d(), 3.0);
    }

    #[test]
    fn magic_production_override() {
        let t = TimingModel::paper().with_magic_production(Ticks::from_d(5.0));
        assert_eq!(t.magic_production.as_d(), 5.0);
        assert_eq!(t.cnot.as_d(), 2.0);
    }

    #[test]
    fn scaled_rounds_up_with_a_floor() {
        let half = TimingModel::paper().scaled(1, 2);
        assert_eq!(half.cnot, Ticks::from_d(1.0));
        assert_eq!(half.magic_production, Ticks::from_d(5.5));
        // 0.5d move stays a whole tick; 1.5d phase rounds up to 2 ticks.
        assert_eq!(half.move_op, Ticks(1));
        assert_eq!(half.phase, Ticks(2));
        // Identity scale is exact; doubling is exact.
        assert_eq!(TimingModel::paper().scaled(1, 1), TimingModel::paper());
        assert_eq!(TimingModel::paper().scaled(2, 1).cnot, Ticks::from_d(4.0));
        // The floor keeps every latency at least one tick.
        assert_eq!(TimingModel::paper().scaled(1, 1000).cnot, Ticks(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        TimingModel::paper().scaled(0, 2);
    }
}
