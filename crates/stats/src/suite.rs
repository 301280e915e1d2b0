//! Benchmark-suite aggregation.
//!
//! §8.1 of the paper: *"To calculate average IPC for SPEC2017, we calculate
//! the arithmetic mean of cycles and instructions separately, and calculate
//! the IPC from these averages"* (following Eeckhout's methodology). This
//! module implements exactly that aggregation, plus per-benchmark
//! normalization against a baseline run.

/// The result of running one benchmark on one (config, scheme) point.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Benchmark name, e.g. `548.exchange2`.
    pub name: String,
    /// Committed instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
}

impl BenchResult {
    /// Creates a result row.
    #[must_use]
    pub fn new(name: impl Into<String>, instructions: u64, cycles: u64) -> Self {
        BenchResult {
            name: name.into(),
            instructions,
            cycles,
        }
    }

    /// Instructions per cycle for this benchmark alone.
    #[must_use]
    pub(crate) fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Suite-level IPC: arithmetic mean of instructions and of cycles computed
/// separately, then divided (the paper's §8.1 methodology).
///
/// Returns 0 for an empty suite.
///
/// # Example
///
/// ```
/// use sb_stats::{suite_ipc, BenchResult};
/// let runs = vec![
///     BenchResult::new("a", 100, 100),
///     BenchResult::new("b", 300, 100),
/// ];
/// // mean insts = 200, mean cycles = 100 -> IPC 2.0
/// assert!((suite_ipc(&runs) - 2.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn suite_ipc(results: &[BenchResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let n = results.len() as f64;
    let mean_insts: f64 = results.iter().map(|r| r.instructions as f64).sum::<f64>() / n;
    let mean_cycles: f64 = results.iter().map(|r| r.cycles as f64).sum::<f64>() / n;
    if mean_cycles == 0.0 {
        0.0
    } else {
        mean_insts / mean_cycles
    }
}

/// A suite of benchmark results for one scheme, paired with its unsafe
/// baseline, exposing the normalized-IPC views the figures plot.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteSummary {
    baseline: Vec<BenchResult>,
    scheme: Vec<BenchResult>,
}

impl SuiteSummary {
    /// Pairs scheme results with baseline results.
    ///
    /// # Panics
    ///
    /// Panics if the two suites differ in length or benchmark order — results
    /// must describe the same workloads.
    #[must_use]
    pub fn new(baseline: Vec<BenchResult>, scheme: Vec<BenchResult>) -> Self {
        assert_eq!(
            baseline.len(),
            scheme.len(),
            "baseline and scheme suites must cover the same benchmarks"
        );
        for (b, s) in baseline.iter().zip(&scheme) {
            assert_eq!(b.name, s.name, "benchmark order mismatch");
        }
        SuiteSummary { baseline, scheme }
    }

    /// Per-benchmark `(name, scheme IPC / baseline IPC)` rows — the bars of
    /// Figures 6 and 7.
    #[must_use]
    pub fn normalized_ipc(&self) -> Vec<(String, f64)> {
        self.baseline
            .iter()
            .zip(&self.scheme)
            .map(|(b, s)| {
                let norm = if b.ipc() == 0.0 {
                    0.0
                } else {
                    s.ipc() / b.ipc()
                };
                (b.name.clone(), norm)
            })
            .collect()
    }

    /// Suite-mean baseline IPC (absolute; the x-axis of Figures 1/8/10).
    #[must_use]
    pub fn baseline_ipc(&self) -> f64 {
        suite_ipc(&self.baseline)
    }

    /// Suite-mean scheme IPC (absolute).
    #[must_use]
    pub(crate) fn scheme_ipc(&self) -> f64 {
        suite_ipc(&self.scheme)
    }

    /// Suite-mean normalized IPC (`scheme / baseline`; the `arithmetic-mean`
    /// bar of Figure 6).
    #[must_use]
    pub fn mean_normalized_ipc(&self) -> f64 {
        let b = self.baseline_ipc();
        if b == 0.0 {
            0.0
        } else {
            self.scheme_ipc() / b
        }
    }

    /// Relative IPC loss in percent (`(1 - normalized) * 100`; the rows of
    /// Table 5).
    #[must_use]
    pub fn ipc_loss_percent(&self) -> f64 {
        (1.0 - self.mean_normalized_ipc()) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str, i: u64, c: u64) -> BenchResult {
        BenchResult::new(name, i, c)
    }

    #[test]
    fn suite_ipc_empty_is_zero() {
        assert_eq!(suite_ipc(&[]), 0.0);
    }

    #[test]
    fn suite_ipc_is_mean_of_means_not_mean_of_ratios() {
        // mean-of-ratios would give (1.0 + 3.0)/2 = 2.0; the Eeckhout
        // aggregation weights by cycles instead.
        let runs = vec![r("a", 100, 100), r("b", 300, 100)];
        assert!((suite_ipc(&runs) - 2.0).abs() < 1e-12);
        let runs2 = vec![r("a", 100, 100), r("b", 300, 300)];
        // means: insts 200, cycles 200 -> 1.0, not (1+1)/2 trivially equal here
        assert!((suite_ipc(&runs2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_ipc_per_benchmark() {
        let s = SuiteSummary::new(
            vec![r("a", 200, 100), r("b", 100, 100)],
            vec![r("a", 100, 100), r("b", 100, 100)],
        );
        let n = s.normalized_ipc();
        assert_eq!(n[0], ("a".to_string(), 0.5));
        assert_eq!(n[1], ("b".to_string(), 1.0));
    }

    #[test]
    fn ipc_loss_percent_matches_table5_convention() {
        let s = SuiteSummary::new(vec![r("a", 1000, 1000)], vec![r("a", 824, 1000)]);
        assert!((s.ipc_loss_percent() - 17.6).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "same benchmarks")]
    fn mismatched_suites_are_rejected() {
        let _ = SuiteSummary::new(vec![r("a", 1, 1)], vec![]);
    }

    #[test]
    #[should_panic(expected = "order mismatch")]
    fn misordered_suites_are_rejected() {
        let _ = SuiteSummary::new(vec![r("a", 1, 1)], vec![r("b", 1, 1)]);
    }

    #[test]
    fn zero_cycle_results_do_not_divide_by_zero() {
        let b = r("a", 10, 0);
        assert_eq!(b.ipc(), 0.0);
        let s = SuiteSummary::new(vec![r("a", 0, 0)], vec![r("a", 0, 0)]);
        assert_eq!(s.mean_normalized_ipc(), 0.0);
    }

    #[test]
    fn empty_suite_summary_stays_finite_everywhere() {
        // A fully degraded grid point can legitimately produce an empty
        // suite pair; every derived statistic must stay finite (no NaN that
        // would poison downstream means or sort order).
        let s = SuiteSummary::new(vec![], vec![]);
        assert_eq!(s.baseline_ipc(), 0.0);
        assert_eq!(s.scheme_ipc(), 0.0);
        assert_eq!(s.mean_normalized_ipc(), 0.0);
        assert!(s.ipc_loss_percent().is_finite());
        assert!(s.normalized_ipc().is_empty());
    }

    #[test]
    fn zero_cycle_benchmarks_never_produce_nan() {
        let s = SuiteSummary::new(
            vec![r("a", 10, 0), r("b", 100, 100)],
            vec![r("a", 10, 0), r("b", 50, 100)],
        );
        for (_, norm) in s.normalized_ipc() {
            assert!(norm.is_finite());
        }
        assert!(s.mean_normalized_ipc().is_finite());
        assert!(s.ipc_loss_percent().is_finite());
    }

    #[test]
    fn total_cmp_sort_order_is_stable_with_degenerate_rows() {
        // Leaderboard-style ranking: zero-IPC (degenerate) rows must sort
        // deterministically below real rows rather than scrambling the
        // order the way a partial_cmp-based sort would with NaN.
        let mut ipcs = vec![
            suite_ipc(&[r("a", 100, 100)]),
            suite_ipc(&[]),
            suite_ipc(&[r("b", 300, 100)]),
            suite_ipc(&[r("c", 10, 0)]),
        ];
        ipcs.sort_by(|a, b| f64::total_cmp(b, a));
        assert_eq!(ipcs, vec![3.0, 1.0, 0.0, 0.0]);
    }
}
