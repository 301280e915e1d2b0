//! The sweep leaderboard: every design point ranked on the
//! security-cost / performance / area / power / frequency frontier.
//!
//! Performance is suite IPC (per-replicate, summarized as a percentile-
//! bootstrap confidence interval) scaled by the analytical clock estimate
//! of `sb-timing` — a slower-but-higher-clocked point can legitimately
//! beat a faster-IPC one. Area (LUT/FF proxies) and relative power come
//! from the same timing models. Pareto-front membership is computed over
//! `(maximize perf, minimize LUTs, minimize power)` among complete rows.

use super::run::SweepOutcome;
use sb_core::{Scheme, ThreatModel};
use sb_stats::{bootstrap_ci, suite_ipc, BootstrapCi};
use sb_timing::{area_estimate, frequency_mhz, power_estimate, ActivityProfile};
use std::collections::HashMap;

/// Bootstrap resamples per interval — cheap (the samples are replicate
/// means, not raw cycles) and stable at three digits.
pub const BOOTSTRAP_RESAMPLES: usize = 1000;

/// Two-sided confidence level of the reported intervals.
pub const CONFIDENCE: f64 = 0.95;

/// One ranked leaderboard row.
#[derive(Clone, Debug, PartialEq)]
pub struct LeaderRow {
    /// Configuration name (derived sweep name or preset).
    pub config: String,
    /// Scheme.
    pub(crate) scheme: Scheme,
    /// Threat model.
    pub(crate) threat: ThreatModel,
    /// Point fingerprint (manifest row identity, bootstrap seed).
    pub(crate) fingerprint: u64,
    /// Complete replicates the interval is built from.
    pub(crate) replicates: usize,
    /// Suite IPC across replicates, with confidence interval.
    pub(crate) ipc: BootstrapCi,
    /// Mean IPC normalized to the unsafe baseline on the same
    /// configuration and threat model; `None` when that baseline is not in
    /// the sweep or produced no complete replicate.
    pub(crate) norm_ipc: Option<f64>,
    /// Analytical clock estimate (MHz).
    pub(crate) freq_mhz: f64,
    /// The ranking metric: mean IPC × frequency (relative MIPS).
    pub(crate) perf: f64,
    /// LUT proxy count.
    pub(crate) luts: f64,
    /// Flip-flop proxy count.
    pub(crate) ffs: f64,
    /// Power relative to the unsafe baseline on the same configuration.
    pub(crate) power: f64,
    /// On the (perf, LUTs, power) Pareto front among complete rows.
    pub(crate) pareto: bool,
    /// Every replicate produced the full benchmark suite.
    pub complete: bool,
}

impl LeaderRow {
    /// Security cost in percent (`(1 - normalized IPC) * 100`), when the
    /// baseline reference exists.
    #[must_use]
    pub(crate) fn security_cost_pct(&self) -> Option<f64> {
        self.norm_ipc.map(|n| (1.0 - n) * 100.0)
    }
}

/// `a` Pareto-dominates `b`: no worse on every objective, strictly better
/// on at least one. NaN never dominates and is never counted as better.
fn dominates(a: &LeaderRow, b: &LeaderRow) -> bool {
    let ge = |x: f64, y: f64| x.total_cmp(&y).is_ge();
    let le = |x: f64, y: f64| x.total_cmp(&y).is_le();
    let no_worse = ge(a.perf, b.perf) && le(a.luts, b.luts) && le(a.power, b.power);
    let better = a.perf > b.perf || a.luts < b.luts || a.power < b.power;
    no_worse && better
}

/// Builds the ranked leaderboard from a sweep outcome: complete rows
/// first, then descending performance ([`f64::total_cmp`], so degenerate
/// rows sort deterministically last), name/scheme/threat as tiebreak.
#[must_use]
pub fn leaderboard(outcome: &SweepOutcome) -> Vec<LeaderRow> {
    // Baseline mean IPC per (config, threat), for normalization.
    let mut baseline_ipc: HashMap<(&str, ThreatModel), f64> = HashMap::new();
    for p in &outcome.points {
        if p.scheme == Scheme::Baseline && p.complete(outcome.benchmarks) {
            let samples: Vec<f64> = p.replicates.iter().map(|r| suite_ipc(r)).collect();
            if !samples.is_empty() {
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                if mean > 0.0 {
                    baseline_ipc.insert((p.config.name, p.threat), mean);
                }
            }
        }
    }
    let mut rows: Vec<LeaderRow> = outcome
        .points
        .iter()
        .map(|p| {
            let complete = p.complete(outcome.benchmarks);
            // Only full-suite replicates contribute samples; a partial
            // replicate's suite mean would silently average a smaller
            // basket.
            let samples: Vec<f64> = p
                .replicates
                .iter()
                .filter(|r| r.len() == outcome.benchmarks)
                .map(|r| suite_ipc(r))
                .collect();
            let ipc = bootstrap_ci(&samples, BOOTSTRAP_RESAMPLES, CONFIDENCE, p.fingerprint);
            let norm_ipc = if p.scheme == Scheme::Baseline {
                complete.then_some(1.0)
            } else {
                baseline_ipc
                    .get(&(p.config.name, p.threat))
                    .map(|b| ipc.mean / b)
            };
            let freq_mhz = frequency_mhz(&p.config, p.scheme);
            let area = area_estimate(&p.config, p.scheme);
            let power = power_estimate(&p.config, p.scheme, &ActivityProfile::typical(p.scheme));
            LeaderRow {
                config: p.config.name.to_string(),
                scheme: p.scheme,
                threat: p.threat,
                fingerprint: p.fingerprint,
                replicates: samples.len(),
                ipc,
                norm_ipc,
                freq_mhz,
                perf: ipc.mean * freq_mhz,
                luts: area.luts,
                ffs: area.flip_flops,
                power,
                pareto: false,
                complete,
            }
        })
        .collect();
    // Pareto front over complete rows only: a degraded point must not
    // shadow (or join) the frontier.
    let complete_idx: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].complete).collect();
    for &i in &complete_idx {
        let dominated = complete_idx
            .iter()
            .any(|&j| j != i && dominates(&rows[j], &rows[i]));
        rows[i].pareto = !dominated;
    }
    rows.sort_by(|a, b| {
        b.complete
            .cmp(&a.complete)
            .then(b.perf.total_cmp(&a.perf))
            .then_with(|| a.config.cmp(&b.config))
            .then_with(|| a.scheme.label().cmp(b.scheme.label()))
            .then_with(|| a.threat.label().cmp(b.threat.label()))
    });
    rows
}

fn opt4(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.4}")).unwrap_or_default()
}

fn opt2(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.2}")).unwrap_or_default()
}

/// Renders the leaderboard as CSV (the machine-readable artifact the
/// manifest's reproduction contract is checked against, byte for byte).
#[must_use]
pub fn leaderboard_csv(rows: &[LeaderRow]) -> String {
    let mut out = String::from(
        "rank,pareto,config,scheme,threat,replicates,ipc_mean,ipc_lo,ipc_hi,\
         norm_ipc,sec_cost_pct,freq_mhz,perf,area_luts,area_ffs,rel_power,fingerprint\n",
    );
    for (rank, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.4},{:.4},{:.4},{},{},{:.1},{:.1},{:.0},{:.0},{:.4},{:016x}\n",
            rank + 1,
            if r.pareto { "*" } else { "" },
            r.config,
            r.scheme,
            r.threat.label(),
            r.replicates,
            r.ipc.mean,
            r.ipc.lo,
            r.ipc.hi,
            opt4(r.norm_ipc),
            opt2(r.security_cost_pct()),
            r.freq_mhz,
            r.perf,
            r.luts,
            r.ffs,
            r.power,
            r.fingerprint,
        ));
    }
    out
}

/// Renders the leaderboard as an aligned text table (`top` limits rows;
/// incomplete rows are flagged so a degraded run cannot masquerade as a
/// clean ranking).
#[must_use]
pub fn leaderboard_table(rows: &[LeaderRow], top: Option<usize>) -> String {
    let shown = top.map_or(rows.len(), |t| t.min(rows.len()));
    let mut table: Vec<Vec<String>> = vec![vec![
        "#".into(),
        "P".into(),
        "config".into(),
        "scheme".into(),
        "threat".into(),
        "IPC (95% CI)".into(),
        "cost%".into(),
        "MHz".into(),
        "perf".into(),
        "kLUT".into(),
        "kFF".into(),
        "power".into(),
    ]];
    for (rank, r) in rows.iter().take(shown).enumerate() {
        let flag = if !r.complete {
            "!"
        } else if r.pareto {
            "*"
        } else {
            ""
        };
        table.push(vec![
            format!("{}", rank + 1),
            flag.into(),
            r.config.clone(),
            r.scheme.label().into(),
            r.threat.label().into(),
            format!("{:.3} [{:.3}, {:.3}]", r.ipc.mean, r.ipc.lo, r.ipc.hi),
            r.security_cost_pct()
                .map(|c| format!("{c:.1}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.0}", r.freq_mhz),
            format!("{:.0}", r.perf),
            format!("{:.1}", r.luts / 1000.0),
            format!("{:.1}", r.ffs / 1000.0),
            format!("{:.3}", r.power),
        ]);
    }
    let mut out = crate::render::format_table(&table);
    if shown < rows.len() {
        out.push_str(&format!(
            "... {} more rows (CSV has all)\n",
            rows.len() - shown
        ));
    }
    out.push_str("P: * = Pareto-optimal (perf vs LUTs vs power), ! = incomplete point\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::run::{point_fingerprint, PointResult, SweepOutcome};
    use super::*;
    use crate::engine::RunReport;
    use sb_stats::BenchResult;
    use sb_uarch::CoreConfig;

    /// One hand-built design point: (config, scheme, threat, per-replicate
    /// (insts, cycles)).
    type Row = (CoreConfig, Scheme, ThreatModel, Vec<(u64, u64)>);

    /// Hand-built outcome with a 1-benchmark suite per replicate.
    fn outcome(rows: Vec<Row>) -> SweepOutcome {
        let points = rows
            .into_iter()
            .map(|(config, scheme, threat, reps)| PointResult {
                fingerprint: point_fingerprint(&config, scheme, threat),
                config,
                scheme,
                threat,
                replicates: reps
                    .into_iter()
                    .map(|(i, c)| vec![BenchResult::new("bench", i, c)])
                    .collect(),
            })
            .collect();
        SweepOutcome {
            points,
            report: RunReport {
                simulated: 0,
                from_cache: 0,
                total: 0,
                failures: vec![],
                traces_decoded: 0,
                peak_resident_traces: 0,
            },
            benchmarks: 1,
        }
    }

    fn spectre() -> ThreatModel {
        ThreatModel::Spectre
    }

    #[test]
    fn rows_rank_by_performance_and_normalize_to_baseline() {
        let out = outcome(vec![
            (
                CoreConfig::mega(),
                Scheme::Baseline,
                spectre(),
                vec![(1000, 1000)],
            ),
            (
                CoreConfig::mega(),
                Scheme::Nda,
                spectre(),
                vec![(800, 1000)],
            ),
        ]);
        let rows = leaderboard(&out);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.complete));
        // Baseline: IPC 1.0, norm 1.0; NDA: IPC 0.8, norm 0.8, cost 20%.
        let nda = rows.iter().find(|r| r.scheme == Scheme::Nda).unwrap();
        assert!((nda.ipc.mean - 0.8).abs() < 1e-12);
        assert!((nda.norm_ipc.unwrap() - 0.8).abs() < 1e-9);
        assert!((nda.security_cost_pct().unwrap() - 20.0).abs() < 1e-6);
        // perf = ipc * freq; both share the config so baseline outranks.
        assert_eq!(rows[0].scheme, Scheme::Baseline);
        assert!(rows[0].perf >= rows[1].perf);
    }

    #[test]
    fn missing_baseline_leaves_norm_empty_not_nan() {
        let out = outcome(vec![(
            CoreConfig::mega(),
            Scheme::Nda,
            spectre(),
            vec![(800, 1000)],
        )]);
        let rows = leaderboard(&out);
        assert_eq!(rows[0].norm_ipc, None);
        assert_eq!(rows[0].security_cost_pct(), None);
        let csv = leaderboard_csv(&rows);
        assert!(!csv.contains("NaN"), "{csv}");
    }

    #[test]
    fn zero_cycle_baseline_cannot_poison_normalization() {
        let out = outcome(vec![
            (
                CoreConfig::mega(),
                Scheme::Baseline,
                spectre(),
                vec![(0, 0)],
            ),
            (
                CoreConfig::mega(),
                Scheme::Nda,
                spectre(),
                vec![(800, 1000)],
            ),
        ]);
        let rows = leaderboard(&out);
        let nda = rows.iter().find(|r| r.scheme == Scheme::Nda).unwrap();
        // Baseline IPC 0 -> no normalization rather than inf/NaN.
        assert_eq!(nda.norm_ipc, None);
        for r in &rows {
            assert!(r.perf.is_finite());
        }
        assert!(!leaderboard_csv(&rows).contains("NaN"));
    }

    #[test]
    fn incomplete_points_sink_and_never_join_the_front() {
        let mut out = outcome(vec![
            (
                CoreConfig::mega(),
                Scheme::Baseline,
                spectre(),
                vec![(1000, 1000)],
            ),
            (
                CoreConfig::mega(),
                Scheme::Nda,
                spectre(),
                vec![(999_999, 1)], // absurdly fast, but we'll hollow it out
            ),
        ]);
        out.points[1].replicates[0].clear(); // failed jobs: empty replicate
        let rows = leaderboard(&out);
        let last = rows.last().unwrap();
        assert_eq!(last.scheme, Scheme::Nda);
        assert!(!last.complete);
        assert!(!last.pareto, "incomplete rows must not claim the front");
        assert_eq!(last.replicates, 0);
        assert_eq!(last.ipc.mean, 0.0);
        assert!(rows[0].pareto, "the only complete row is the whole front");
    }

    #[test]
    fn pareto_front_is_the_nondominated_complete_set() {
        // Same scheme+threat on three configs: mega dominates nothing
        // a priori — bigger cores buy perf with area/power, so typically
        // several points are on the front; what we can assert exactly is
        // that no front member is dominated and every dominated row is off.
        let out = outcome(vec![
            (
                CoreConfig::small(),
                Scheme::Baseline,
                spectre(),
                vec![(500, 1000)],
            ),
            (
                CoreConfig::large(),
                Scheme::Baseline,
                spectre(),
                vec![(900, 1000)],
            ),
            (
                CoreConfig::mega(),
                Scheme::Baseline,
                spectre(),
                vec![(1300, 1000)],
            ),
        ]);
        let rows = leaderboard(&out);
        for (i, r) in rows.iter().enumerate() {
            let dominated = rows
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && dominates(o, r));
            assert_eq!(r.pareto, !dominated, "row {} ({})", i, r.config);
        }
        assert!(rows.iter().any(|r| r.pareto));
    }

    #[test]
    fn csv_is_stable_and_carries_fingerprints() {
        let out = outcome(vec![(
            CoreConfig::small(),
            Scheme::SttRename,
            ThreatModel::Futuristic,
            vec![(700, 1000), (710, 1000)],
        )]);
        let rows = leaderboard(&out);
        let a = leaderboard_csv(&rows);
        let b = leaderboard_csv(&leaderboard(&out));
        assert_eq!(a, b, "identical outcomes must render identical CSV");
        assert!(a.starts_with("rank,pareto,config,"));
        assert!(a.contains(&format!("{:016x}", rows[0].fingerprint)));
        assert!(a.contains("futuristic"));
        // Bootstrap over 2 replicates: interval brackets the mean.
        assert!(rows[0].ipc.lo <= rows[0].ipc.mean && rows[0].ipc.mean <= rows[0].ipc.hi);
    }

    #[test]
    fn table_flags_and_truncates() {
        let mut out = outcome(vec![
            (
                CoreConfig::small(),
                Scheme::Baseline,
                spectre(),
                vec![(500, 1000)],
            ),
            (
                CoreConfig::mega(),
                Scheme::Baseline,
                spectre(),
                vec![(1300, 1000)],
            ),
        ]);
        out.points[0].replicates[0].clear();
        let rows = leaderboard(&out);
        let text = leaderboard_table(&rows, Some(1));
        assert!(text.contains("1 more rows"));
        assert!(text.contains("Pareto-optimal"));
        let full = leaderboard_table(&rows, None);
        assert!(full.contains('!'), "incomplete rows are flagged:\n{full}");
    }
}
