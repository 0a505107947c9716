//! A deterministic scoped worker pool.
//!
//! [`WorkerPool::run`] fans a job list across `workers` OS threads pulling
//! from a shared queue, then merges results **in submission order**: the
//! output of a parallel run is byte-identical to running the same closure
//! serially over the same list, whatever the thread interleaving was. That
//! property is what lets `explore_session` promise exactly the same
//! result set at any worker count.

use std::sync::mpsc;
use std::sync::Mutex;

/// A fixed-width pool of `std::thread` workers.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every job and returns the results in submission
    /// order.
    ///
    /// Work distribution is dynamic (each idle worker pulls the next
    /// unclaimed job), so long and short jobs interleave well; ordering is
    /// restored when merging, so callers observe serial semantics.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker closure.
    pub fn run<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(J) -> R + Sync,
    {
        self.run_with(jobs, f, |_, _| {})
    }

    /// [`WorkerPool::run`] plus a streaming hook: `emit(index, &result)`
    /// is called from the merging thread for every result **in submission
    /// order**, as soon as the ordered prefix is complete — result 3 is
    /// emitted the moment results 0..=3 all exist, without waiting for the
    /// rest of the batch. The full ordered result list is still returned.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker closure.
    pub fn run_with<J, R, F, E>(&self, jobs: Vec<J>, f: F, mut emit: E) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(J) -> R + Sync,
        E: FnMut(usize, &R),
    {
        let n = jobs.len();
        if self.workers == 1 || n <= 1 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(index, job)| {
                    let result = f(job);
                    emit(index, &result);
                    result
                })
                .collect();
        }

        let queue = Mutex::new(jobs.into_iter().enumerate());
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let f = &f;
        let queue = &queue;

        let slots = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(n))
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        // Hold the lock only to claim a job, never while
                        // running it.
                        let claimed = queue.lock().expect("job queue lock").next();
                        match claimed {
                            Some((index, job)) => {
                                if tx.send((index, f(job))).is_err() {
                                    break;
                                }
                            }
                            None => break,
                        }
                    })
                })
                .collect();
            drop(tx);

            let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
            let mut next_emit = 0;
            for (index, result) in rx {
                slots[index] = Some(result);
                // Flush the newly-complete ordered prefix to the stream.
                while next_emit < n {
                    match &slots[next_emit] {
                        Some(ready) => emit(next_emit, ready),
                        None => break,
                    }
                    next_emit += 1;
                }
            }
            // Join by hand so a panicking worker's own payload reaches the
            // caller (scope's implicit join would replace it with a generic
            // "a scoped thread panicked").
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            slots
        });
        slots
            .into_iter()
            .map(|s| s.expect("every job produces exactly one result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<u64> = (0..100).collect();
        let out = pool.run(jobs.clone(), |j| j * j);
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn matches_serial_with_uneven_job_times() {
        let pool = WorkerPool::new(3);
        let jobs: Vec<u64> = (0..24).collect();
        let out = pool.run(jobs, |j| {
            // Early jobs sleep longest so completion order inverts
            // submission order.
            std::thread::sleep(std::time::Duration::from_millis(24 - j.min(24)));
            j * 10
        });
        assert_eq!(out, (0..24).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn uses_multiple_threads() {
        let pool = WorkerPool::new(4);
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        pool.run((0..16).collect::<Vec<u32>>(), |j| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
            j
        });
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "at least two jobs should have overlapped"
        );
    }

    #[test]
    fn single_worker_and_empty_inputs() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.run(vec![1, 2, 3], |j| j + 1), vec![2, 3, 4]);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(WorkerPool::new(8).run(empty, |j| j), Vec::<u32>::new());
    }

    #[test]
    fn run_with_emits_every_result_in_order() {
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let mut emitted = Vec::new();
            let out = pool.run_with(
                (0..32u64).collect::<Vec<_>>(),
                |j| {
                    // Invert completion order so streaming must buffer.
                    std::thread::sleep(std::time::Duration::from_millis(32 - j.min(32)));
                    j * 2
                },
                |index, r| emitted.push((index, *r)),
            );
            assert_eq!(out, (0..32).map(|j| j * 2).collect::<Vec<_>>());
            assert_eq!(
                emitted,
                (0..32).map(|j| (j as usize, j * 2)).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn run_with_streams_the_prefix_before_the_batch_finishes() {
        use std::sync::atomic::AtomicBool;
        // Job 0 is instant, job 1 blocks until job 0 has been emitted:
        // deadlock-free only if the prefix streams mid-run.
        let first_emitted = AtomicBool::new(false);
        let pool = WorkerPool::new(2);
        let out = pool.run_with(
            vec![0u32, 1],
            |j| {
                if j == 1 {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                    while !first_emitted.load(Ordering::SeqCst) {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "job 0 was never emitted while job 1 ran"
                        );
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                j
            },
            |index, _| {
                if index == 0 {
                    first_emitted.store(true, Ordering::SeqCst);
                }
            },
        );
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert!(WorkerPool::auto().workers() >= 1);
    }

    #[test]
    fn worker_panic_surfaces_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            WorkerPool::new(2).run((0..8).collect::<Vec<u32>>(), |j| {
                assert!(j != 5, "job five exploded");
                j
            })
        })
        .expect_err("the pool must propagate the panic");
        let message = caught
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("job five exploded"),
            "worker's own panic message must survive, got {message:?}"
        );
    }
}
