//! A bounded worker pool for embarrassingly-parallel simulation jobs.
//!
//! The grid runner used to spawn one OS thread per benchmark (22 at a
//! time) while iterating (config, scheme) points serially — oversubscribed
//! on small machines, underparallelized on large ones, and pathological
//! when suites nest inside grids. This pool caps concurrency at the
//! machine's parallelism and lets callers flatten *all* their work into
//! one job list.
//!
//! Panic isolation: every job body runs under `catch_unwind`, so one
//! panicking job can neither poison another job's result slot nor discard
//! the batch's finished work. [`run_indexed_outcomes`] returns one
//! `Result` per slot naming the failing job's index. The structured fault
//! handling (deadlines, budget, failure reports) lives one layer up in
//! [`crate::jobs`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The pool's default width: one worker per available hardware thread.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A panic captured from one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The panicking job's index in `0..n`.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// Stringifies a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(0..n)` across at most `workers` scoped threads, returning one
/// outcome per slot in index order: `Ok(T)` for jobs that returned,
/// `Err(JobPanic)` (naming the job index) for jobs that panicked. A panic
/// in one job never disturbs any other slot — surviving results are
/// always kept. Jobs are pulled from a shared counter, so stragglers
/// never leave workers idle while work remains.
pub fn run_indexed_outcomes<T, F>(n: usize, workers: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let order: Vec<usize> = (0..n).collect();
    run_ordered_outcomes(&order, workers, f)
}

/// [`run_indexed_outcomes`] over `n = order.len()` jobs, started in the
/// order `order` lists them instead of in index order: workers pull
/// `order[0]`, `order[1]`, … from the shared counter. Only the start order
/// changes — outcomes still come back one per index, in index order, and
/// a panic still names the job's index.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..order.len()`.
pub fn run_ordered_outcomes<T, F>(order: &[usize], workers: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = order.len();
    let mut seen = vec![false; n];
    for &i in order {
        assert!(
            i < n && !std::mem::replace(&mut seen[i], true),
            "execution order is not a permutation of 0..{n}"
        );
    }
    if n == 0 {
        return Vec::new();
    }
    let run_one = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| JobPanic {
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // catch_unwind means no job can panic while (or before) holding a slot
    // lock, but stay lossless anyway: a poisoned lock still hands back its
    // data.
    let store = |i: usize, result| {
        *slots[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
    };
    let workers = workers.clamp(1, n);
    if workers == 1 {
        // Single worker: skip the thread machinery entirely (also the path
        // taken by nested pools, keeping nesting from oversubscribing).
        for &i in order {
            store(i, run_one(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        store(i, run_one(i));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| {
                    // Unreachable with the scoped-join above; named rather
                    // than `expect`ed so a future pool bug degrades into a
                    // per-job error instead of discarding the whole batch.
                    Err(JobPanic {
                        index: i,
                        message: "job was never executed (pool bug)".to_string(),
                    })
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The successful results of a batch in which no job panics.
    fn values<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_indexed_outcomes(n, workers, f)
            .into_iter()
            .map(|r| r.expect("no job panics"))
            .collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        let out = values(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<u32> = values(0, 4, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_clamped() {
        // More workers than jobs, and a requested width of zero, both work.
        assert_eq!(values(3, 64, |i| i), vec![0, 1, 2]);
        assert_eq!(values(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn panicking_job_keeps_every_other_slot() {
        // Regression: a single panicking job used to abort collection with
        // "result slot poisoned", discarding all completed work. Now every
        // surviving slot comes back, and the failure names its index.
        for workers in [1, 4] {
            let out = run_indexed_outcomes(10, workers, |i| {
                assert!(i != 7, "injected failure at 7");
                i * 2
            });
            for (i, slot) in out.iter().enumerate() {
                if i == 7 {
                    let e = slot.as_ref().unwrap_err();
                    assert_eq!(e.index, 7);
                    assert!(e.message.contains("injected failure at 7"), "{e}");
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn string_payload_panics_are_preserved() {
        let out = run_indexed_outcomes(1, 1, |_| -> usize { panic!("msg {}", 42) });
        assert_eq!(out[0].as_ref().unwrap_err().message, "msg 42");
    }

    #[test]
    fn ordered_runs_start_jobs_in_the_given_order() {
        let order = [3, 0, 4, 1, 2];
        let started = Mutex::new(Vec::new());
        let out = run_ordered_outcomes(&order, 1, |i| {
            started.lock().unwrap().push(i);
            assert!(i != 4, "boom");
            i * 2
        });
        assert_eq!(started.into_inner().unwrap(), order);
        assert_eq!(out.len(), 5);
        assert_eq!(out[4].as_ref().unwrap_err().index, 4);
        for i in [0, 1, 2, 3] {
            assert_eq!(*out[i].as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn an_order_with_a_repeated_index_is_rejected() {
        let _ = run_ordered_outcomes(&[0, 0], 2, |i| i);
    }

    #[test]
    fn all_jobs_can_fail_without_deadlock() {
        let out = run_indexed_outcomes(20, 6, |i| -> usize { panic!("{i}") });
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(Result::is_err));
    }
}
