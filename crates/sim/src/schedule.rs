//! Timed operation records.

use ftqc_arch::Ticks;
use serde::{Deserialize, Serialize};

/// One operation with its assigned start time and duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledOp<T> {
    /// The operation.
    pub op: T,
    /// Assigned start instant.
    pub start: Ticks,
    /// Duration under the timing model used for scheduling.
    pub duration: Ticks,
}

impl<T> ScheduledOp<T> {
    /// The instant the operation completes.
    pub fn end(&self) -> Ticks {
        self.start + self.duration
    }
}

/// An ordered collection of scheduled operations.
///
/// # Example
///
/// ```
/// use ftqc_arch::Ticks;
/// use ftqc_sim::Schedule;
///
/// let mut s: Schedule<&str> = Schedule::new();
/// s.push("h q0", Ticks::ZERO, Ticks::from_d(3.0));
/// s.push("cnot q0 q1", Ticks::from_d(3.0), Ticks::from_d(2.0));
/// assert_eq!(s.makespan(), Ticks::from_d(5.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule<T> {
    items: Vec<ScheduledOp<T>>,
    makespan: Ticks,
}

impl<T> Default for Schedule<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            makespan: Ticks::ZERO,
        }
    }
}

impl<T> Schedule<T> {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: T, start: Ticks, duration: Ticks) {
        self.makespan = self.makespan.max(start + duration);
        self.items.push(ScheduledOp {
            op,
            start,
            duration,
        });
    }

    /// The scheduled operations, in issue order.
    pub fn items(&self) -> &[ScheduledOp<T>] {
        &self.items
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Keeps the first `len` operations and drops the rest.
    pub fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
        self.makespan = self
            .items
            .iter()
            .map(ScheduledOp::end)
            .fold(Ticks::ZERO, Ticks::max);
    }

    /// Completion time of the last-finishing operation.
    pub fn makespan(&self) -> Ticks {
        self.makespan
    }

    /// Total busy time summed over operations (spacetime numerator when
    /// multiplied by cells, or a utilisation diagnostic).
    pub fn total_busy(&self) -> Ticks {
        self.items.iter().map(|s| s.duration).sum()
    }

    /// Iterates over the scheduled operations.
    pub fn iter(&self) -> std::slice::Iter<'_, ScheduledOp<T>> {
        self.items.iter()
    }
}

impl<'a, T> IntoIterator for &'a Schedule<T> {
    type Item = &'a ScheduledOp<T>;
    type IntoIter = std::slice::Iter<'a, ScheduledOp<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_tracks_latest_end() {
        let mut s: Schedule<u32> = Schedule::new();
        s.push(1, Ticks::ZERO, Ticks::from_d(2.0));
        s.push(2, Ticks::from_d(1.0), Ticks::from_d(0.5));
        assert_eq!(s.makespan(), Ticks::from_d(2.0));
        s.push(3, Ticks::from_d(5.0), Ticks::from_d(1.0));
        assert_eq!(s.makespan(), Ticks::from_d(6.0));
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_busy(), Ticks::from_d(3.5));
    }

    #[test]
    fn scheduled_op_end() {
        let op = ScheduledOp {
            op: (),
            start: Ticks::from_d(2.0),
            duration: Ticks::from_d(2.5),
        };
        assert_eq!(op.end(), Ticks::from_d(4.5));
    }

    #[test]
    fn iteration() {
        let mut s: Schedule<&str> = Schedule::new();
        s.push("a", Ticks::ZERO, Ticks::from_d(1.0));
        s.push("b", Ticks::from_d(1.0), Ticks::from_d(1.0));
        let names: Vec<_> = s.iter().map(|x| x.op).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!s.is_empty());
    }
}
