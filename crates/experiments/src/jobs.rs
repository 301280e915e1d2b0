//! The fault-tolerant job execution layer.
//!
//! [`crate::pool`] gives raw panic isolation; this module layers policy on
//! top: per-job soft deadlines (cooperatively enforced through
//! [`sb_uarch::CancelToken`], which the simulator core polls at
//! cycle-batch granularity), a global wall-clock budget for the whole
//! batch, and a structured per-job failure report. Every job runs exactly
//! once. One misbehaving grid point — a panicking kernel, a runaway
//! simulation, a failed store write — costs exactly that point; every
//! surviving result is kept and every failure is named.
//!
//! Deterministic fault injection ([`crate::faults`]) hooks in here so the
//! whole degradation path is testable end-to-end.

use crate::faults::{self, FaultPlan};
use crate::pool;
use sb_uarch::CancelToken;
use std::time::{Duration, Instant};

/// Why a job failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobFailure {
    /// The job panicked; the stringified payload.
    Panicked(String),
    /// The job overran its per-job soft deadline and was cooperatively
    /// stopped.
    DeadlineExceeded,
    /// The batch's global run budget expired before the job could finish
    /// (or start).
    Cancelled,
    /// The job reported a typed error; the human-readable cause.
    Failed(String),
}

impl JobFailure {
    /// A typed error reported by the job body (e.g. a bad configuration).
    #[must_use]
    pub fn permanent(message: impl Into<String>) -> Self {
        JobFailure::Failed(message.into())
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panicked(m) => write!(f, "panicked: {m}"),
            JobFailure::DeadlineExceeded => write!(f, "exceeded its per-job soft deadline"),
            JobFailure::Cancelled => write!(f, "cancelled (run budget exhausted)"),
            JobFailure::Failed(message) => write!(f, "failed: {message}"),
        }
    }
}

/// One failed job in a batch's failure report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// The job's index in the batch.
    pub index: usize,
    /// The caller-supplied label (e.g. `mega/STT-Issue/505.mcf`).
    pub label: String,
    /// Why it failed.
    pub cause: JobFailure,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {}: {}", self.index, self.label, self.cause)
    }
}

/// Execution policy for one batch of jobs.
#[derive(Clone, Debug)]
pub struct JobPolicy {
    /// Worker-pool width.
    pub workers: usize,
    /// Per-job soft deadline, enforced cooperatively through the job's
    /// [`CancelToken`] (`None` = unbounded).
    pub job_deadline: Option<Duration>,
    /// Global wall-clock budget for the whole batch; once it expires,
    /// running jobs are cancelled and queued jobs never start.
    pub run_budget: Option<Duration>,
    /// Deterministic fault injection; `None` outside the test/CI harness.
    pub faults: Option<FaultPlan>,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy {
            workers: pool::default_workers(),
            job_deadline: None,
            run_budget: None,
            faults: None,
        }
    }
}

/// What a running job sees: its index and its cancellation token. Job
/// bodies hand the token to the simulator core (`Core::set_cancel_token`)
/// and, if the run comes back interrupted, classify via
/// [`JobCtx::interruption`].
pub struct JobCtx {
    /// The job's index in the batch.
    pub index: usize,
    /// Child token: cancelled when the job's deadline passes *or* the
    /// batch budget expires.
    pub cancel: CancelToken,
}

impl JobCtx {
    /// Classifies an observed cooperative interruption: the job's own
    /// deadline ([`JobFailure::DeadlineExceeded`]) versus the batch budget
    /// ([`JobFailure::Cancelled`]).
    #[must_use]
    pub fn interruption(&self) -> JobFailure {
        if self.cancel.deadline_exceeded() {
            JobFailure::DeadlineExceeded
        } else {
            JobFailure::Cancelled
        }
    }
}

/// Outcome of one batch: index-aligned surviving results plus a complete
/// failure report. `results[i]` is `None` exactly when `failures` contains
/// an entry with `index == i`.
#[derive(Clone, Debug)]
pub struct BatchReport<T> {
    /// One slot per job, in submission order.
    pub results: Vec<Option<T>>,
    /// Every failed job, in index order.
    pub failures: Vec<JobError>,
}

impl<T> BatchReport<T> {
    /// True when every job produced a result.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of jobs that produced a result.
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// Renders the per-job failure report (empty string when all jobs
    /// succeeded); see [`render_failures`].
    #[must_use]
    pub fn render_failures(&self) -> String {
        render_failures(&self.failures, self.results.len())
    }
}

/// Renders a per-job failure report. This is the format the CLI prints
/// and the README documents:
///
/// ```text
/// 2 of 88 jobs failed:
///   #17 mega/STT-Issue/505.mcf: panicked: injected fault: panic@17
///   #23 small/NDA/520.omnetpp: exceeded its per-job soft deadline
/// ```
#[must_use]
pub fn render_failures(failures: &[JobError], total: usize) -> String {
    if failures.is_empty() {
        return String::new();
    }
    let mut out = format!("{} of {total} jobs failed:\n", failures.len());
    for e in failures {
        out.push_str(&format!("  {e}\n"));
    }
    out
}

/// Runs one job body once: budget check, fault injection, then the body.
fn run_one_job<T>(
    index: usize,
    policy: &JobPolicy,
    budget: &CancelToken,
    f: &(impl Fn(&JobCtx) -> Result<T, JobFailure> + Sync),
) -> Result<T, JobFailure> {
    if budget.is_cancelled() {
        return Err(JobFailure::Cancelled);
    }
    let deadline = policy.job_deadline.map(|d| Instant::now() + d);
    let ctx = JobCtx {
        index,
        cancel: budget.child(deadline),
    };
    if let Some(plan) = &policy.faults {
        if plan.overruns_at(index) {
            faults::stall_past(deadline);
        }
        if plan.panics_at(index) {
            faults::fire_panic(index);
        }
    }
    f(&ctx)
}

/// Runs `f` over `labels.len()` jobs under `policy`, returning every
/// surviving result plus a complete failure report. Panics are caught
/// (one per job, never disturbing other slots), deadlines and the batch
/// budget are enforced cooperatively through each job's [`JobCtx::cancel`]
/// token, and every job runs exactly once.
pub fn run_batch<T, F>(labels: &[String], policy: &JobPolicy, f: F) -> BatchReport<T>
where
    T: Send,
    F: Fn(&JobCtx) -> Result<T, JobFailure> + Sync,
{
    let order: Vec<usize> = (0..labels.len()).collect();
    run_batch_in_order(labels, &order, policy, f)
}

/// [`run_batch`] with jobs started in the order `order` lists them (a
/// permutation of the job indices; see [`pool::run_ordered_outcomes`]).
/// Only which jobs run when changes: indices, labels, result slots, the
/// failure report and fault-injection indices all still name positions in
/// `labels`. Under an expiring run budget the jobs cancelled are the ones
/// late in `order`.
pub(crate) fn run_batch_in_order<T, F>(
    labels: &[String],
    order: &[usize],
    policy: &JobPolicy,
    f: F,
) -> BatchReport<T>
where
    T: Send,
    F: Fn(&JobCtx) -> Result<T, JobFailure> + Sync,
{
    assert_eq!(order.len(), labels.len(), "one order entry per job");
    // The run budget is a deadline fixed when the batch starts.
    let budget = CancelToken::new().child(policy.run_budget.map(|b| Instant::now() + b));
    let outcomes = pool::run_ordered_outcomes(order, policy.workers, |i| {
        run_one_job(i, policy, &budget, &f)
    });
    // One move-only pass that collects into the outcomes' own allocation
    // (std's in-place `collect`), so a batch never holds its results twice.
    // std does not promise that reuse; `tests/batch_memory.rs` checks it.
    let mut failures = Vec::new();
    let results = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            let cause = match outcome {
                Ok(t) => return Some(t),
                Err(cause) => cause,
            };
            failures.push(JobError {
                index: i,
                label: labels[i].clone(),
                cause,
            });
            None
        })
        .collect();
    BatchReport { results, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job-{i}")).collect()
    }

    fn quick_policy() -> JobPolicy {
        JobPolicy {
            workers: 4,
            ..JobPolicy::default()
        }
    }

    #[test]
    fn all_jobs_succeeding_yields_a_clean_report() {
        let report = run_batch(&labels(8), &quick_policy(), |ctx| Ok(ctx.index * 10));
        assert!(report.ok());
        assert_eq!(report.survivors(), 8);
        assert_eq!(report.results[3], Some(30));
        assert!(report.render_failures().is_empty());
    }

    #[test]
    fn typed_failures_keep_surviving_results() {
        let report = run_batch(&labels(6), &quick_policy(), |ctx| {
            if ctx.index == 2 {
                Err(JobFailure::permanent("bad config"))
            } else {
                Ok(ctx.index)
            }
        });
        assert_eq!(report.survivors(), 5);
        assert_eq!(report.results[2], None);
        assert_eq!(report.failures.len(), 1);
        let e = &report.failures[0];
        assert_eq!(e.index, 2);
        assert_eq!(e.label, "job-2");
        assert_eq!(e.cause, JobFailure::permanent("bad config"));
        let rendered = report.render_failures();
        assert!(rendered.contains("1 of 6 jobs failed"), "{rendered}");
        assert!(
            rendered.contains("#2 job-2: failed: bad config"),
            "{rendered}"
        );
    }

    #[test]
    fn panicking_jobs_become_structured_failures() {
        let report = run_batch(&labels(5), &quick_policy(), |ctx| {
            assert!(ctx.index != 4, "kernel exploded");
            Ok(ctx.index)
        });
        assert_eq!(report.survivors(), 4);
        match &report.failures[0].cause {
            JobFailure::Panicked(m) => assert!(m.contains("kernel exploded"), "{m}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn permanent_failures_are_never_retried() {
        let tries = AtomicU32::new(0);
        let report = run_batch(&labels(1), &quick_policy(), |_| -> Result<(), _> {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(JobFailure::permanent("bad input"))
        });
        assert_eq!(tries.load(Ordering::Relaxed), 1);
        assert_eq!(report.failures[0].cause, JobFailure::permanent("bad input"));
    }

    #[test]
    fn deadline_overrun_is_classified_and_not_retried() {
        let policy = JobPolicy {
            job_deadline: Some(Duration::from_millis(5)),
            ..quick_policy()
        };
        let tries = AtomicU32::new(0);
        let report = run_batch(&labels(1), &policy, |ctx| -> Result<(), _> {
            tries.fetch_add(1, Ordering::Relaxed);
            // Cooperative job body: poll the token like the core does.
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ctx.interruption())
        });
        assert_eq!(report.failures[0].cause, JobFailure::DeadlineExceeded);
        assert_eq!(tries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exhausted_budget_cancels_queued_jobs() {
        let policy = JobPolicy {
            run_budget: Some(Duration::ZERO),
            ..quick_policy()
        };
        let ran = AtomicU32::new(0);
        let report = run_batch(&labels(4), &policy, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no job should start");
        assert_eq!(report.survivors(), 0);
        assert!(report
            .failures
            .iter()
            .all(|e| e.cause == JobFailure::Cancelled));
    }

    #[test]
    fn budget_cancellation_observed_mid_job_classifies_as_cancelled() {
        let policy = JobPolicy {
            workers: 1,
            run_budget: Some(Duration::from_millis(5)),
            ..quick_policy()
        };
        let report = run_batch(&labels(1), &policy, |ctx| -> Result<(), _> {
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ctx.interruption())
        });
        assert_eq!(report.failures[0].cause, JobFailure::Cancelled);
    }

    #[test]
    fn injected_panic_fault_fires_at_the_named_index() {
        let policy = JobPolicy {
            faults: Some(FaultPlan::parse("panic@1").unwrap()),
            ..quick_policy()
        };
        let report = run_batch(&labels(3), &policy, |ctx| Ok(ctx.index));
        assert_eq!(report.survivors(), 2);
        assert_eq!(
            report.failures[0].cause,
            JobFailure::Panicked("injected fault: panic@1".to_string())
        );
    }

    #[test]
    fn ordered_batches_keep_indices_labels_and_fault_targets() {
        let policy = JobPolicy {
            workers: 1,
            faults: Some(FaultPlan::parse("panic@2").unwrap()),
            ..quick_policy()
        };
        let started = std::sync::Mutex::new(Vec::new());
        let report = run_batch_in_order(&labels(4), &[2, 3, 0, 1], &policy, |ctx| {
            started.lock().unwrap().push(ctx.index);
            Ok(ctx.index * 10)
        });
        // Job 2 panicked before its body ran; the rest ran in the given order.
        assert_eq!(started.into_inner().unwrap(), [3, 0, 1]);
        assert_eq!(report.results, [Some(0), Some(10), None, Some(30)]);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 2);
        assert_eq!(report.failures[0].label, "job-2");
    }

    /// Mixed ok, failed and panicking jobs, in index and in shuffled start
    /// order: every result slot, label and failure index is exactly what a
    /// per-index classification of the outcomes gives.
    #[test]
    fn mixed_outcomes_keep_results_labels_and_failure_order() {
        let n = 30;
        let body = |ctx: &JobCtx| match ctx.index % 3 {
            0 => Ok(vec![ctx.index; ctx.index]),
            1 => Err(JobFailure::permanent(format!("bad input {}", ctx.index))),
            _ => panic!("job {} exploded", ctx.index),
        };
        let want_results: Vec<Option<Vec<usize>>> =
            (0..n).map(|i| (i % 3 == 0).then(|| vec![i; i])).collect();
        let want_failures: Vec<JobError> = (0..n)
            .filter(|i| i % 3 != 0)
            .map(|i| JobError {
                index: i,
                label: format!("job-{i}"),
                cause: if i % 3 == 1 {
                    JobFailure::permanent(format!("bad input {i}"))
                } else {
                    JobFailure::Panicked(format!("job {i} exploded"))
                },
            })
            .collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        for report in [
            run_batch(&labels(n), &quick_policy(), body),
            run_batch_in_order(&labels(n), &reversed, &quick_policy(), body),
        ] {
            assert_eq!(report.results, want_results);
            assert_eq!(report.failures, want_failures);
            assert_eq!(report.survivors(), n / 3);
        }
    }

    #[test]
    fn injected_overrun_fault_trips_the_deadline() {
        let policy = JobPolicy {
            job_deadline: Some(Duration::from_millis(5)),
            faults: Some(FaultPlan::parse("overrun@0").unwrap()),
            ..quick_policy()
        };
        let report = run_batch(&labels(1), &policy, |ctx| {
            if ctx.cancel.is_cancelled() {
                Err(ctx.interruption())
            } else {
                Ok(())
            }
        });
        assert_eq!(report.failures[0].cause, JobFailure::DeadlineExceeded);
    }
}
