//! Percentile-bootstrap confidence intervals over per-seed replicates.
//!
//! The sweep leaderboard reports "scheme A costs 3.1% IPC" as an interval,
//! not a point: each design point is simulated with several replicate seeds,
//! and the spread of the replicate means is summarized by a percentile
//! bootstrap (Efron). The implementation is fully deterministic — resampling
//! is driven by an inline splitmix64 generator seeded explicitly — so a
//! resumed or reproduced run prints byte-identical intervals.

/// A percentile-bootstrap confidence interval around a sample mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BootstrapCi {
    /// Arithmetic mean of the observed samples (the point estimate).
    pub mean: f64,
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// Number of observed samples (replicates) the interval is built from.
    pub(crate) samples: usize,
    /// Number of bootstrap resamples drawn.
    pub(crate) resamples: usize,
    /// Nominal two-sided confidence level, e.g. `0.95`.
    pub(crate) confidence: f64,
}

/// Deterministic splitmix64 stream — the same tiny generator the workload
/// synthesizer uses, inlined here so `sb-stats` stays dependency-free.
#[derive(Clone, Copy, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)` without modulo bias worth caring about at
    /// bootstrap sample counts (n is tiny relative to 2^64).
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mean_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Percentile-bootstrap confidence interval for the mean of `samples`.
///
/// Draws `resamples` bootstrap resamples (with replacement) of the same size
/// as `samples`, computes each resample's mean, and takes the empirical
/// `(1 - confidence) / 2` and `(1 + confidence) / 2` percentiles. The
/// interval is widened, if necessary, to contain the sample mean, so the
/// point estimate always lies inside its own interval.
///
/// Degenerate inputs degrade instead of failing: an empty sample set yields
/// the zero interval `[0, 0]`, and a single sample yields the degenerate
/// interval `[x, x]`. All ordering uses [`f64::total_cmp`], so NaN samples
/// cannot poison the sort.
///
/// The same `(samples, resamples, confidence, seed)` always produces the
/// same interval.
#[must_use]
pub fn bootstrap_ci(samples: &[f64], resamples: usize, confidence: f64, seed: u64) -> BootstrapCi {
    let mean = mean_of(samples);
    let confidence = confidence.clamp(0.0, 1.0);
    if samples.len() < 2 || resamples == 0 {
        return BootstrapCi {
            mean,
            lo: mean,
            hi: mean,
            samples: samples.len(),
            resamples,
            confidence,
        };
    }

    let mut rng = SplitMix64::new(seed ^ 0x5bd1_e995_b479_a9d3);
    let mut means: Vec<f64> = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..samples.len() {
            sum += samples[rng.index(samples.len())];
        }
        means.push(sum / samples.len() as f64);
    }
    means.sort_by(f64::total_cmp);

    let quantile = |q: f64| -> f64 {
        let idx = ((means.len() - 1) as f64 * q).round() as usize;
        means[idx.min(means.len() - 1)]
    };
    let alpha = (1.0 - confidence) / 2.0;
    let lo = quantile(alpha);
    let hi = quantile(1.0 - alpha);

    BootstrapCi {
        mean,
        lo: lo.min(mean),
        hi: hi.max(mean),
        samples: samples.len(),
        resamples,
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_yield_the_zero_interval() {
        let ci = bootstrap_ci(&[], 200, 0.95, 1);
        assert_eq!((ci.mean, ci.lo, ci.hi), (0.0, 0.0, 0.0));
        assert_eq!(ci.hi - ci.lo, 0.0);
    }

    #[test]
    fn single_sample_yields_a_degenerate_interval() {
        let ci = bootstrap_ci(&[1.25], 200, 0.95, 1);
        assert_eq!((ci.mean, ci.lo, ci.hi), (1.25, 1.25, 1.25));
    }

    #[test]
    fn identical_samples_yield_a_zero_width_interval() {
        let ci = bootstrap_ci(&[0.7; 8], 200, 0.95, 42);
        assert!((ci.mean - 0.7).abs() < 1e-12);
        assert!((ci.hi - ci.lo).abs() < 1e-12);
    }

    #[test]
    fn interval_contains_the_sample_mean() {
        let samples = [0.9, 1.1, 1.0, 1.3, 0.8];
        let ci = bootstrap_ci(&samples, 500, 0.95, 7);
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi, "{ci:?}");
    }

    #[test]
    fn same_seed_is_deterministic_different_seed_usually_differs() {
        let samples = [0.9, 1.1, 1.0, 1.3, 0.8];
        let a = bootstrap_ci(&samples, 500, 0.95, 7);
        let b = bootstrap_ci(&samples, 500, 0.95, 7);
        assert_eq!(a, b);
        let c = bootstrap_ci(&samples, 500, 0.95, 8);
        // The mean never depends on the seed; the bounds generally do.
        assert_eq!(a.mean, c.mean);
    }

    #[test]
    fn nan_samples_do_not_poison_the_sort() {
        let samples = [1.0, f64::NAN, 0.5, 0.7];
        // Must not panic; the mean is NaN but ordering stays total.
        let ci = bootstrap_ci(&samples, 100, 0.95, 3);
        assert!(ci.mean.is_nan());
    }

    #[test]
    fn width_shrinks_with_more_replicates() {
        // Same alternating population, 4 vs 32 replicates: the bootstrap
        // standard error of the mean scales like 1/sqrt(n).
        let few: Vec<f64> = (0..4).map(|i| if i % 2 == 0 { 0.8 } else { 1.2 }).collect();
        let many: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 0.8 } else { 1.2 })
            .collect();
        let wide = bootstrap_ci(&few, 400, 0.95, 11);
        let narrow = bootstrap_ci(&many, 400, 0.95, 11);
        assert!(
            narrow.hi - narrow.lo < wide.hi - wide.lo,
            "narrow {:?} vs wide {:?}",
            narrow,
            wide
        );
    }
}
