//! Property tests for the fault-tolerant job layer (via the offline
//! proptest shim): arbitrary mixes of succeeding, panicking, failing and
//! slow jobs must never deadlock the pool, never disturb a neighboring
//! slot, run every job exactly once, and always produce an index-aligned
//! batch report whose failure list is exactly the complement of the
//! surviving results.
//!
//! Regression context: a single panicking job used to poison its result
//! slot and abort collection of the whole batch ("result slot poisoned"),
//! discarding every finished simulation.

use proptest::prelude::*;
use sb_experiments::jobs::{run_batch, JobFailure, JobPolicy};
use sb_experiments::pool::run_indexed_outcomes;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// What one randomly-drawn job does when executed.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Behavior {
    Ok,
    Panic,
    Permanent,
}

fn behavior_from(draw: u8) -> Behavior {
    match draw % 3 {
        0 => Behavior::Ok,
        1 => Behavior::Panic,
        _ => Behavior::Permanent,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw pool layer: any panic mask, any worker count — every slot comes
    /// back, errors exactly at the panicking indexes, survivors intact.
    #[test]
    fn any_panic_mask_keeps_every_surviving_slot(
        mask in prop::collection::vec(any::<bool>(), 0..40),
        workers in 0usize..12,
    ) {
        let n = mask.len();
        let out = run_indexed_outcomes(n, workers, |i| {
            assert!(!mask[i], "injected panic at {i}");
            i * 7
        });
        prop_assert_eq!(out.len(), n);
        for (i, slot) in out.iter().enumerate() {
            if mask[i] {
                let e = slot.as_ref().unwrap_err();
                prop_assert_eq!(e.index, i);
                prop_assert!(e.message.contains(&format!("injected panic at {i}")));
            } else {
                prop_assert_eq!(slot.as_ref().unwrap(), &(i * 7));
            }
        }
    }

    /// Structured layer: for any behavior mix, `results[i]` is `Some`
    /// exactly when no failure names index `i`, failures arrive in index
    /// order with the right classification, and every job body runs
    /// exactly once.
    #[test]
    fn any_behavior_mix_yields_an_aligned_report(
        draws in prop::collection::vec(0u8..255, 1..32),
        workers in 1usize..9,
    ) {
        let behaviors: Vec<Behavior> = draws.iter().map(|&d| behavior_from(d)).collect();
        let n = behaviors.len();
        let tries: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let labels: Vec<String> = (0..n).map(|i| format!("job-{i}")).collect();
        let policy = JobPolicy {
            workers,
            ..JobPolicy::default()
        };
        let report = run_batch(&labels, &policy, |ctx| {
            tries[ctx.index].fetch_add(1, Ordering::Relaxed);
            match behaviors[ctx.index] {
                Behavior::Ok => Ok(ctx.index),
                Behavior::Panic => panic!("boom at {}", ctx.index),
                Behavior::Permanent => Err(JobFailure::permanent("bad point")),
            }
        });

        prop_assert_eq!(report.results.len(), n);
        // Complement invariant + index order.
        let failed: Vec<usize> = report.failures.iter().map(|e| e.index).collect();
        let mut sorted = failed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&failed, &sorted, "failures sorted, no duplicates");
        for i in 0..n {
            prop_assert_eq!(report.results[i].is_none(), failed.contains(&i));
        }

        for (i, &b) in behaviors.iter().enumerate() {
            prop_assert_eq!(tries[i].load(Ordering::Relaxed), 1, "every job runs exactly once");
            let failure = report.failures.iter().find(|e| e.index == i);
            match b {
                Behavior::Ok => {
                    prop_assert_eq!(report.results[i], Some(i));
                }
                Behavior::Panic => {
                    let e = failure.expect("panic must be reported");
                    prop_assert!(
                        matches!(&e.cause, JobFailure::Panicked(m) if m.contains("boom")),
                        "{:?}", e.cause
                    );
                }
                Behavior::Permanent => {
                    let e = failure.expect("permanent failure must be reported");
                    prop_assert_eq!(&e.cause, &JobFailure::permanent("bad point"));
                }
            }
        }

        let rendered = report.render_failures();
        if report.ok() {
            prop_assert!(rendered.is_empty());
        } else {
            prop_assert!(
                rendered.starts_with(&format!("{} of {n} jobs failed:", report.failures.len())),
                "{rendered}"
            );
        }
    }
}

proptest! {
    // Wall-clock-bound cases: keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Slow (cooperatively polling) jobs blow the per-job deadline and are
    /// classified `DeadlineExceeded`; fast jobs in the same batch survive
    /// untouched.
    #[test]
    fn slow_jobs_hit_deadlines_without_dragging_fast_ones(
        slow_mask in prop::collection::vec(any::<bool>(), 1..8),
        workers in 1usize..5,
    ) {
        let n = slow_mask.len();
        let labels: Vec<String> = (0..n).map(|i| format!("job-{i}")).collect();
        let policy = JobPolicy {
            workers,
            job_deadline: Some(Duration::from_millis(5)),
            ..JobPolicy::default()
        };
        let report = run_batch(&labels, &policy, |ctx| {
            if slow_mask[ctx.index] {
                // A runaway simulation: polls its token like the core does.
                while !ctx.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(ctx.interruption())
            } else {
                Ok(ctx.index)
            }
        });
        for (i, &slow) in slow_mask.iter().enumerate() {
            if slow {
                let e = report.failures.iter().find(|e| e.index == i).expect("reported");
                prop_assert_eq!(&e.cause, &JobFailure::DeadlineExceeded);
            } else {
                prop_assert_eq!(report.results[i], Some(i));
            }
        }
    }
}
