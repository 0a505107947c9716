//! Timed operation records.

use ftqc_arch::Ticks;

/// One operation with its assigned start time and duration. A
/// [`Schedule`] stores its operations and times apart and yields
/// `ScheduledOp<&T>` views of them.
#[derive(Debug, Clone, PartialEq)]
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

/// An ordered collection of scheduled operations: the operations in issue
/// order, and a parallel array of their `(start, duration)` pairs.
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
/// assert_eq!(s.iter().nth(1).map(|item| item.start), Some(Ticks::from_d(3.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule<T> {
    ops: Vec<T>,
    /// `(start, duration)` of `ops[i]` at index `i`.
    times: Vec<(Ticks, Ticks)>,
    makespan: Ticks,
}

impl<T> Default for Schedule<T> {
    fn default() -> Self {
        Self {
            ops: Vec::new(),
            times: Vec::new(),
            makespan: Ticks::ZERO,
        }
    }
}

impl<T> Schedule<T> {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The schedule of `ops` at `times`, taking both vectors as they are.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ.
    pub fn from_parts(ops: Vec<T>, times: Vec<(Ticks, Ticks)>) -> Self {
        assert_eq!(ops.len(), times.len(), "one (start, duration) per op");
        let makespan = times
            .iter()
            .map(|&(start, duration)| start + duration)
            .fold(Ticks::ZERO, Ticks::max);
        Self {
            ops,
            times,
            makespan,
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: T, start: Ticks, duration: Ticks) {
        self.makespan = self.makespan.max(start + duration);
        self.ops.push(op);
        self.times.push((start, duration));
    }

    /// The operations, in issue order, without their times.
    pub fn ops(&self) -> &[T] {
        &self.ops
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Completion time of the last-finishing operation.
    pub fn makespan(&self) -> Ticks {
        self.makespan
    }

    /// Iterates over the scheduled operations in issue order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: self.ops.iter().zip(self.times.iter()),
        }
    }
}

impl<'a, T> IntoIterator for &'a Schedule<T> {
    type Item = ScheduledOp<&'a T>;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The iterator of [`Schedule::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    inner: std::iter::Zip<std::slice::Iter<'a, T>, std::slice::Iter<'a, (Ticks, Ticks)>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = ScheduledOp<&'a T>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (op, &(start, duration)) = self.inner.next()?;
        Some(ScheduledOp {
            op,
            start,
            duration,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

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
        let names: Vec<_> = s.iter().map(|x| *x.op).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.ops(), ["a", "b"]);
        assert_eq!(s.iter().len(), 2);
        let last = s.iter().last().expect("two ops");
        assert_eq!(
            (*last.op, last.start, last.end()),
            ("b", Ticks::from_d(1.0), Ticks::from_d(2.0))
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn from_parts_equals_pushes() {
        let times = vec![
            (Ticks::ZERO, Ticks::from_d(2.0)),
            (Ticks::from_d(1.0), Ticks::from_d(0.5)),
        ];
        let mut pushed = Schedule::new();
        for (op, &(start, duration)) in [7u32, 8].into_iter().zip(&times) {
            pushed.push(op, start, duration);
        }
        assert_eq!(Schedule::from_parts(vec![7, 8], times), pushed);
        assert_eq!(
            Schedule::<u32>::from_parts(Vec::new(), Vec::new()),
            Schedule::new()
        );
    }

    #[test]
    #[should_panic(expected = "one (start, duration) per op")]
    fn from_parts_refuses_unpaired_times() {
        let _ = Schedule::from_parts(vec![1u32, 2], vec![(Ticks::ZERO, Ticks::ZERO)]);
    }
}
