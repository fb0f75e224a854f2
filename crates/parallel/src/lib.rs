#![warn(missing_docs)]

//! `parallel` — a small deterministic execution substrate (std-only).
//!
//! The study's heavy loops (per-scenario estimation over a fleet, blocked
//! Monte-Carlo draws) are embarrassingly parallel once planned. Instead of
//! pulling in rayon, this crate provides the minimal pieces on top of
//! `std::thread::scope`:
//!
//! - [`split_ranges`] / [`split_mut_by_ranges`]: a fixed, index-based work
//!   plan and each work item's disjoint output slots;
//! - [`run`]: executes one phase's planned [`Job`]s, on the calling thread
//!   or on scoped threads that start and join inside the call;
//! - [`rng::RngStreams`]: reproducible per-task RNG streams (SplitMix64
//!   seeded counters), so parallel Monte-Carlo results are independent of
//!   thread count and scheduling.
//!
//! Results are bit-identical regardless of worker count: inputs are split
//! into fixed chunks by index and every job writes only its own slots, so
//! which thread runs a job never shows in the output.

pub mod rng;

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Returns the effective parallelism: `std::thread::available_parallelism`
/// with a fallback of 4.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

/// Splits `len` items into at most `parts` contiguous ranges of nearly equal
/// size (difference ≤ 1). Empty ranges are omitted.
pub fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// One planned work item of a phase. It may borrow from the caller's
/// stack: [`run`] returns only after every job has finished.
pub type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Runs every job exactly once and returns once all of them have finished.
///
/// With `workers <= 1` or at most one job, the jobs run on the calling
/// thread in plan order and no thread is spawned. Otherwise
/// `min(workers, jobs) − 1` scoped threads and the caller drain one shared
/// queue in plan order; a thread that fails to spawn leaves its share to
/// the others. A panicking job does not stop the rest: its panic resumes
/// on the caller after every other job has finished (one payload, if
/// several jobs panicked).
pub fn run(workers: usize, jobs: Vec<Job<'_>>) {
    let threads = workers.clamp(1, jobs.len().max(1));
    let queue = Mutex::new(jobs.into_iter());
    let drain = || {
        let mut panic = None;
        loop {
            // A statement of its own, so the guard drops before the job runs.
            let next = queue
                .lock()
                .expect("no job runs under the queue lock")
                .next();
            let Some(job) = next else { return panic };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                panic.get_or_insert(payload);
            }
        }
    };
    let panic = std::thread::scope(|s| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the planned-job runner itself: scoped helpers that join before `run` returns"
        )]
        let helpers: Vec<_> = (1..threads)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, drain).ok())
            .collect();
        let mut panic = drain();
        for helper in helpers {
            let helper_panic = helper.join().unwrap_or_else(Some);
            panic = panic.or(helper_panic);
        }
        panic
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Splits a mutable slice into disjoint chunks matching `ranges` (which must
/// be contiguous, ascending and cover a prefix of the slice). Public because
/// planned executors (e.g. the `easyc` session's blocked draw phase) use it
/// to hand each work item its disjoint output slots.
pub fn split_mut_by_ranges<'a, T>(
    slice: &'a mut [T],
    ranges: &[std::ops::Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut chunks = Vec::with_capacity(ranges.len());
    let mut rest = slice;
    let mut consumed = 0;
    for r in ranges {
        debug_assert_eq!(r.start, consumed, "ranges must be contiguous");
        let (head, tail) = rest.split_at_mut(r.len());
        chunks.push(head);
        rest = tail;
        consumed += r.len();
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};

    /// One job per counter, each bumping its own counter once.
    fn counting_jobs(counts: &[AtomicUsize]) -> Vec<Job<'_>> {
        counts
            .iter()
            .map(|count| -> Job<'_> {
                Box::new(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect()
    }

    /// Runs `n` jobs on `workers` and returns each job's (index, thread) in
    /// the order the jobs ran.
    fn trace(workers: usize, n: usize) -> Vec<(usize, ThreadId)> {
        let log = Mutex::new(Vec::new());
        let jobs = (0..n)
            .map(|i| -> Job<'_> {
                let log = &log;
                Box::new(move || log.lock().unwrap().push((i, thread::current().id())))
            })
            .collect();
        run(workers, jobs);
        log.into_inner().unwrap()
    }

    #[test]
    fn run_executes_every_job_exactly_once() {
        for workers in [1, 2, 3, 64] {
            for n in [0, 1, 100] {
                let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                run(workers, counting_jobs(&counts));
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "workers {workers}, jobs {n}"
                );
            }
        }
    }

    #[test]
    fn run_is_inline_in_plan_order_for_one_worker_or_one_job() {
        let caller = thread::current().id();
        for (workers, n) in [(1, 0), (1, 1), (1, 50), (0, 50), (2, 1), (64, 1)] {
            let expected: Vec<_> = (0..n).map(|i| (i, caller)).collect();
            assert_eq!(trace(workers, n), expected, "workers {workers}, jobs {n}");
        }
    }

    #[test]
    fn run_uses_at_most_min_workers_jobs_threads() {
        for workers in [2, 3, 64] {
            for n in [2, 3, 5, 200] {
                let log = trace(workers, n);
                assert_eq!(log.len(), n);
                let threads: HashSet<ThreadId> = log.iter().map(|&(_, t)| t).collect();
                assert!(
                    threads.len() <= workers.min(n),
                    "workers {workers}, jobs {n}: {} threads",
                    threads.len()
                );
            }
        }
    }

    #[test]
    fn run_surfaces_a_job_panic_after_the_other_jobs_and_stays_usable() {
        for workers in [1, 2, 3] {
            let done = AtomicUsize::new(0);
            // The panicking job comes first in plan order, so every other
            // job is still queued when it fails.
            let jobs = (0..20)
                .map(|i| -> Job<'_> {
                    let done = &done;
                    Box::new(move || {
                        if i == 0 {
                            panic!("injected");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| run(workers, jobs)))
                .expect_err("the job's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected"));
            assert_eq!(done.load(Ordering::Relaxed), 19, "workers {workers}");

            let counts: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
            run(workers, counting_jobs(&counts));
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn split_ranges_covers_all() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn split_ranges_more_parts_than_items() {
        let ranges = split_ranges(2, 8);
        assert_eq!(ranges, vec![0..1, 1..2]);
    }

    #[test]
    fn split_ranges_empty() {
        assert!(split_ranges(0, 4).is_empty());
        assert!(split_ranges(4, 0).is_empty());
    }
}
