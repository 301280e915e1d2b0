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
//! the batch's finished work. [`run_ordered_outcomes`] returns one
//! `Result` per slot, a panic caught as [`JobFailure::Panicked`]. The
//! structured fault handling (deadlines, budget, failure reports) lives
//! one layer up in [`crate::jobs`].

use crate::jobs::JobFailure;
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

/// Stringifies a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over the `n = order.len()` jobs `0..n` across at most
/// `workers` scoped threads, returning one outcome per job in index order:
/// what `f` returned, or [`JobFailure::Panicked`] with the stringified
/// payload (`&str` and `String` payloads are preserved verbatim) for a
/// job that panicked. A panic in one job never disturbs any other slot —
/// surviving results are always kept. Workers pull `order[0]`,
/// `order[1]`, … from a shared counter, so jobs start in the order
/// `order` lists them and stragglers never leave workers idle while work
/// remains.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..order.len()`.
pub fn run_ordered_outcomes<T, F>(
    order: &[usize],
    workers: usize,
    f: F,
) -> Vec<Result<T, JobFailure>>
where
    T: Send,
    F: Fn(usize) -> Result<T, JobFailure> + Sync,
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
        catch_unwind(AssertUnwindSafe(|| f(i)))
            .unwrap_or_else(|payload| Err(JobFailure::Panicked(panic_message(payload.as_ref()))))
    };
    let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
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
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| {
                    // Unreachable with the scoped-join above; named rather
                    // than `expect`ed so a future pool bug degrades into a
                    // per-job error instead of discarding the whole batch.
                    Err(JobFailure::Panicked(
                        "job was never executed (pool bug)".to_string(),
                    ))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(0..n)` in index order, every job returning `Ok`.
    fn indexed<T: Send>(
        n: usize,
        workers: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<Result<T, JobFailure>> {
        let order: Vec<usize> = (0..n).collect();
        run_ordered_outcomes(&order, workers, |i| Ok(f(i)))
    }

    /// The successful results of a batch in which no job panics.
    fn values<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        indexed(n, workers, f)
            .into_iter()
            .map(|r| r.expect("no job panics"))
            .collect()
    }

    /// The panic message caught in a failed slot.
    fn panicked<T>(slot: &Result<T, JobFailure>) -> &str {
        match slot {
            Err(JobFailure::Panicked(message)) => message,
            Err(other) => panic!("expected a caught panic, got {other:?}"),
            Ok(_) => panic!("expected a caught panic, got a result"),
        }
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
        // surviving slot comes back, and the failure sits in its own slot.
        for workers in [1, 4] {
            let out = indexed(10, workers, |i| {
                assert!(i != 7, "injected failure at 7");
                i * 2
            });
            for (i, slot) in out.iter().enumerate() {
                if i == 7 {
                    let m = panicked(slot);
                    assert!(m.contains("injected failure at 7"), "{m}");
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn string_payload_panics_are_preserved() {
        let out = indexed(1, 1, |_| -> usize { panic!("msg {}", 42) });
        assert_eq!(out[0], Err(JobFailure::Panicked("msg 42".to_string())));
    }

    #[test]
    fn ordered_runs_start_jobs_in_the_given_order() {
        let order = [3, 0, 4, 1, 2];
        let started = Mutex::new(Vec::new());
        let out = run_ordered_outcomes(&order, 1, |i| {
            started.lock().unwrap().push(i);
            assert!(i != 4, "boom");
            Ok(i * 2)
        });
        assert_eq!(started.into_inner().unwrap(), order);
        assert_eq!(out.len(), 5);
        assert_eq!(panicked(&out[4]), "boom");
        for i in [0, 1, 2, 3] {
            assert_eq!(*out[i].as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn an_order_with_a_repeated_index_is_rejected() {
        let _ = run_ordered_outcomes(&[0, 0], 2, Ok);
    }

    #[test]
    fn all_jobs_can_fail_without_deadlock() {
        let out = indexed(20, 6, |i| -> usize { panic!("{i}") });
        assert_eq!(out.len(), 20);
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(panicked(slot), i.to_string());
        }
    }
}
