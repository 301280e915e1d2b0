//! A batch holds its results once: the job layer hands the pool's outcomes
//! back in place instead of copying them into a second buffer. This lives
//! in its own test binary because it reads the process's peak resident
//! set (`VmHWM`), which any other test in the same process would disturb.

use sb_experiments::jobs::{run_batch, JobPolicy};

/// The process's peak resident set in KiB, where the kernel reports it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_batch_holds_its_results_once() {
    let Some(before) = peak_rss_kib() else {
        return;
    };
    const JOBS: usize = 20_000;
    type Payload = [u64; 256];
    let labels: Vec<String> = (0..JOBS).map(|i| format!("job-{i}")).collect();
    let policy = JobPolicy {
        workers: 2,
        ..JobPolicy::default()
    };
    let report = run_batch(&labels, &policy, |ctx| Ok([ctx.index as u64; 256]));
    let after = peak_rss_kib().expect("VmHWM was readable before the batch");
    assert!(report.ok());
    assert!(report
        .results
        .iter()
        .enumerate()
        .all(|(i, r)| r.is_some_and(|p: Payload| p[255] == i as u64)));
    let results_kib = (JOBS * std::mem::size_of::<Payload>() / 1024) as u64;
    let growth = after.saturating_sub(before);
    assert!(
        growth * 2 < results_kib * 3,
        "peak RSS grew by {growth} KiB for {results_kib} KiB of results \
         ({:.2}x; a second copy of the results reads about 2x)",
        growth as f64 / results_kib as f64
    );
}
