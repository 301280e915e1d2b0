//! One report per paper artifact: each function renders the measured
//! reproduction next to the paper's published numbers so shape fidelity is
//! visible at a glance. Every report also emits CSV for downstream
//! plotting.

use crate::engine::{
    run_report_points, run_suites, ExperimentError, GridResults, RunOptions, RunSpec,
};
use crate::jobs::JobPolicy;
use crate::render::{bar, format_table};
use crate::security::{verify_security_with, BATTERY_SECRET};
use sb_core::{Scheme, ThreatModel};
use sb_stats::{LinearFit, TrendPoint};
use sb_timing::{area_estimate, frequency_mhz, relative_power, relative_timing, ActivityProfile};
use sb_uarch::CoreConfig;
use sb_workloads::{attack_battery, spec2017_profiles, AttackKernel, WorkloadProfile};

/// A rendered experiment: human-readable text plus named CSV payloads.
#[derive(Debug, Clone)]
pub struct Report {
    /// Pretty-printed result, including paper-vs-measured commentary.
    pub text: String,
    /// `(file name, csv content)` pairs.
    pub csv: Vec<(String, String)>,
}

/// Redwood Cove class SPEC2017 IPC the paper extrapolates to (Table 1).
const INTEL_IPC: f64 = 2.03;

/// The paper's published baseline IPC for the four BOOM design points
/// (Table 1) — looked up by name so grids over other configurations simply
/// have no paper column instead of being misattributed a BOOM row.
fn paper_ipc(name: &str) -> Option<f64> {
    match name {
        "small" => Some(0.46),
        "medium" => Some(0.60),
        "large" => Some(0.943),
        "mega" => Some(1.27),
        _ => None,
    }
}

/// The SPEC2017 profile named `name`.
fn profile(name: &str) -> WorkloadProfile {
    spec2017_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .expect("a SPEC2017 profile name")
}

/// Maps a degenerate least-squares fit to the typed per-report error the
/// CLI surfaces — what used to be an `assert!` panic deep inside
/// `LinearFit::fit` when a degraded grid left fewer than two points.
fn trend_fit(scheme: Scheme, pts: &[TrendPoint]) -> Result<LinearFit, ExperimentError> {
    LinearFit::fit(pts).map_err(|reason| ExperimentError::DegenerateTrend { scheme, reason })
}

/// Table 1: configuration characteristics and measured baseline IPC, one
/// row per configuration actually in the grid.
///
/// # Errors
///
/// Propagates grid-lookup failures (missing or incomplete suites after a
/// degraded run) so the CLI reports them per report instead of crashing.
pub fn table1_report(
    grid: &GridResults,
    configs: &[CoreConfig],
) -> Result<Report, ExperimentError> {
    let mut rows = vec![vec![
        "Config".to_string(),
        "Width".into(),
        "MemPorts".into(),
        "ROB".into(),
        "IPC (paper)".into(),
        "IPC (measured)".into(),
    ]];
    let mut csv = String::from("config,width,mem_ports,rob,paper_ipc,measured_ipc\n");
    for c in configs {
        let name = c.name;
        let ipc = grid.baseline_ipc(name)?;
        let paper_cell = match paper_ipc(name) {
            Some(p) => format!("{p:.3}"),
            None => "-".into(),
        };
        let paper_csv = match paper_ipc(name) {
            Some(p) => format!("{p}"),
            None => String::new(),
        };
        rows.push(vec![
            name.to_string(),
            c.width.to_string(),
            c.mem_ports.to_string(),
            c.rob_entries.to_string(),
            paper_cell,
            format!("{ipc:.3}"),
        ]);
        csv.push_str(&format!(
            "{name},{},{},{},{paper_csv},{ipc:.4}\n",
            c.width, c.mem_ports, c.rob_entries
        ));
    }
    Ok(Report {
        text: format!(
            "Table 1: BOOM configurations, baseline IPC\n{}",
            format_table(&rows)
        ),
        csv: vec![("table1.csv".into(), csv)],
    })
}

/// Figure 6: per-benchmark IPC normalized to baseline on the Mega config.
///
/// # Errors
///
/// Propagates grid-lookup failures.
pub fn fig6_report(grid: &GridResults) -> Result<Report, ExperimentError> {
    let schemes = Scheme::secure();
    let mut rows = vec![{
        let mut h = vec!["Benchmark".to_string()];
        h.extend(schemes.iter().map(|s| s.label().to_string()));
        h.push("NDA bar".into());
        h
    }];
    let mut csv = String::from("benchmark,stt_rename,stt_issue,nda\n");
    let summaries: Vec<_> = schemes
        .iter()
        .map(|&s| grid.summary("mega", s))
        .collect::<Result<_, _>>()?;
    let names: Vec<String> = summaries[0]
        .normalized_ipc()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for (i, name) in names.iter().enumerate() {
        let vals: Vec<f64> = summaries.iter().map(|s| s.normalized_ipc()[i].1).collect();
        let mut row = vec![name.clone()];
        row.extend(vals.iter().map(|v| format!("{v:.3}")));
        row.push(bar(vals[2], 20));
        rows.push(row);
        csv.push_str(&format!(
            "{name},{:.4},{:.4},{:.4}\n",
            vals[0], vals[1], vals[2]
        ));
    }
    let means: Vec<f64> = summaries.iter().map(|s| s.mean_normalized_ipc()).collect();
    let mut mean_row = vec!["arithmetic-mean".to_string()];
    mean_row.extend(means.iter().map(|v| format!("{v:.3}")));
    mean_row.push(bar(means[2], 20));
    rows.push(mean_row);
    csv.push_str(&format!(
        "arithmetic-mean,{:.4},{:.4},{:.4}\n",
        means[0], means[1], means[2]
    ));
    let text = format!(
        "Figure 6: normalized IPC on Mega (paper means: STT-Rename 0.819, \
         STT-Issue 0.845, NDA 0.736)\n{}\nMeasured means: STT-Rename {:.3}, \
         STT-Issue {:.3}, NDA {:.3}\n",
        format_table(&rows),
        means[0],
        means[1],
        means[2]
    );
    Ok(Report {
        text,
        csv: vec![("fig6.csv".into(), csv)],
    })
}

/// Figure 7: normalized IPC for every configuration, per scheme.
///
/// # Errors
///
/// Propagates grid-lookup failures.
pub fn fig7_report(grid: &GridResults) -> Result<Report, ExperimentError> {
    let names = grid.configs();
    let mut text = String::from("Figure 7: normalized IPC across configurations\n");
    let mut csv = String::from("scheme,config,benchmark,normalized_ipc\n");
    for scheme in Scheme::secure() {
        let mut rows = vec![{
            let mut h = vec!["Benchmark".to_string()];
            h.extend(names.iter().cloned());
            h
        }];
        let per_cfg: Vec<Vec<(String, f64)>> = names
            .iter()
            .map(|c| Ok(grid.summary(c, scheme)?.normalized_ipc()))
            .collect::<Result<_, ExperimentError>>()?;
        if per_cfg.is_empty() {
            continue;
        }
        for (i, (bench, _)) in per_cfg[0].iter().enumerate() {
            let name = bench.clone();
            let mut row = vec![name.clone()];
            for (ci, c) in names.iter().enumerate() {
                let v = per_cfg[ci][i].1;
                row.push(format!("{v:.3}"));
                csv.push_str(&format!("{scheme},{c},{name},{v:.4}\n"));
            }
            rows.push(row);
        }
        let mut mean = vec!["arithmetic-mean".to_string()];
        for c in names {
            mean.push(format!(
                "{:.3}",
                grid.summary(c, scheme)?.mean_normalized_ipc()
            ));
        }
        rows.push(mean);
        text.push_str(&format!("\n({})\n{}", scheme, format_table(&rows)));
    }
    Ok(Report {
        text,
        csv: vec![("fig7.csv".into(), csv)],
    })
}

/// Trend points for `scheme` over the grid's actual configuration list
/// (x = each configuration's absolute baseline IPC).
fn scheme_trend(
    grid: &GridResults,
    value: impl Fn(&str, Scheme) -> Result<f64, ExperimentError>,
    scheme: Scheme,
) -> Result<Vec<TrendPoint>, ExperimentError> {
    grid.configs()
        .iter()
        .map(|c| Ok(TrendPoint::new(grid.baseline_ipc(c)?, value(c, scheme)?)))
        .collect()
}

/// Figure 8: relative IPC against absolute baseline IPC, with the linear
/// trend and the Redwood-Cove-class extrapolation.
///
/// # Errors
///
/// Propagates grid-lookup failures; [`ExperimentError::DegenerateTrend`]
/// when fewer than two configurations (or none with distinct baseline IPC)
/// survive to fit a line.
pub fn fig8_report(grid: &GridResults) -> Result<Report, ExperimentError> {
    let names = grid.configs();
    let mut rows = vec![{
        let mut h = vec!["Scheme".to_string()];
        h.extend(names.iter().cloned());
        h.extend(["slope".to_string(), "R^2".into(), "@IPC 2.03".into()]);
        h
    }];
    let mut csv = String::from("scheme,config,abs_ipc,rel_ipc\n");
    for scheme in Scheme::secure() {
        let pts = scheme_trend(
            grid,
            |c, s| Ok(grid.summary(c, s)?.mean_normalized_ipc()),
            scheme,
        )?;
        let fit = trend_fit(scheme, &pts)?;
        let mut row = vec![scheme.label().to_string()];
        for (c, p) in names.iter().zip(&pts) {
            row.push(format!("{:.3}", p.value));
            csv.push_str(&format!("{scheme},{c},{:.4},{:.4}\n", p.ipc, p.value));
        }
        row.push(format!("{:.3}", fit.slope));
        row.push(format!("{:.3}", fit.r_squared(&pts)));
        row.push(format!("{:.3}", fit.predict(INTEL_IPC)));
        rows.push(row);
    }
    let text = format!(
        "Figure 8: relative IPC vs absolute IPC (paper: >20% IPC loss \
         extrapolated for leading cores)\n{}",
        format_table(&rows)
    );
    Ok(Report {
        text,
        csv: vec![("fig8.csv".into(), csv)],
    })
}

/// Figure 9: achievable frequency (MHz) per configuration and scheme,
/// over the actual configuration list (grid-free — the timing model needs
/// no simulation results).
///
/// # Errors
///
/// Currently infallible; returns `Result` so the CLI treats every figure
/// uniformly and future timing-model failures stay typed.
pub fn fig9_report(configs: &[CoreConfig]) -> Result<Report, ExperimentError> {
    let mut rows = vec![{
        let mut h = vec!["Config".to_string()];
        h.extend(Scheme::all().iter().map(|s| s.label().to_string()));
        h
    }];
    let mut csv = String::from("config,scheme,mhz\n");
    for c in configs {
        let name = c.name;
        let mut row = vec![name.to_string()];
        for s in Scheme::all() {
            let f = frequency_mhz(c, s);
            row.push(format!("{f:.1}"));
            csv.push_str(&format!("{name},{s},{f:.2}\n"));
        }
        rows.push(row);
    }
    let text = format!(
        "Figure 9: synthesis frequency in MHz (paper: Mega STT-Rename at \
         ~80% of baseline; NDA at or above baseline)\n{}",
        format_table(&rows)
    );
    Ok(Report {
        text,
        csv: vec![("fig9.csv".into(), csv)],
    })
}

/// Figure 10: relative timing against absolute baseline IPC.
///
/// # Errors
///
/// Propagates grid-lookup failures (a configuration absent from the grid
/// is a [`ExperimentError::MissingGridPoint`]);
/// [`ExperimentError::DegenerateTrend`] when too few points survive.
pub fn fig10_report(grid: &GridResults, configs: &[CoreConfig]) -> Result<Report, ExperimentError> {
    let mut rows = vec![{
        let mut h = vec!["Scheme".to_string()];
        h.extend(configs.iter().map(|c| c.name.to_string()));
        h.push("slope".into());
        h
    }];
    let mut csv = String::from("scheme,config,abs_ipc,rel_timing\n");
    for scheme in Scheme::secure() {
        let pts: Vec<TrendPoint> = configs
            .iter()
            .map(|c| {
                Ok(TrendPoint::new(
                    grid.baseline_ipc(c.name)?,
                    relative_timing(c, scheme),
                ))
            })
            .collect::<Result<_, ExperimentError>>()?;
        let fit = trend_fit(scheme, &pts)?;
        let mut row = vec![scheme.label().to_string()];
        for (c, p) in configs.iter().zip(&pts) {
            row.push(format!("{:.3}", p.value));
            csv.push_str(&format!(
                "{scheme},{},{:.4},{:.4}\n",
                c.name, p.ipc, p.value
            ));
        }
        row.push(format!("{:.3}", fit.slope));
        rows.push(row);
    }
    let text = format!(
        "Figure 10: relative timing vs absolute IPC (paper: NDA flat at \
         ~1.0, STT-Issue flat-but-offset, STT-Rename degrading with width)\n{}",
        format_table(&rows)
    );
    Ok(Report {
        text,
        csv: vec![("fig10.csv".into(), csv)],
    })
}

/// Figure 1 + Table 3: performance = IPC × timing, with the halved-growth
/// Redwood-Cove extrapolation.
///
/// # Errors
///
/// Propagates grid-lookup failures; [`ExperimentError::DegenerateTrend`]
/// when too few points survive to extrapolate.
pub fn fig1_table3_report(
    grid: &GridResults,
    configs: &[CoreConfig],
) -> Result<Report, ExperimentError> {
    let paper: [(&str, [f64; 5]); 3] = [
        ("STT-Rename", [0.98, 0.93, 0.84, 0.65, 0.53]),
        ("STT-Issue", [0.98, 0.86, 0.81, 0.73, 0.62]),
        ("NDA", [1.01, 0.88, 0.80, 0.78, 0.66]),
    ];
    let mut rows = vec![{
        let mut h = vec!["Scheme".to_string()];
        h.extend(configs.iter().map(|c| c.name.to_string()));
        h.extend(["Intel(est)".to_string(), "paper row".into()]);
        h
    }];
    let mut csv = String::from("scheme,config,abs_ipc,performance\n");
    for (scheme, (_, paper_row)) in Scheme::secure().into_iter().zip(paper) {
        let pts: Vec<TrendPoint> = configs
            .iter()
            .map(|c| {
                Ok(TrendPoint::new(
                    grid.baseline_ipc(c.name)?,
                    grid.summary(c.name, scheme)?.mean_normalized_ipc()
                        * relative_timing(c, scheme),
                ))
            })
            .collect::<Result<_, ExperimentError>>()?;
        let fit = trend_fit(scheme, &pts)?;
        // Halved growth beyond the last (widest) observed configuration —
        // the paper anchors at Mega, the widest BOOM point.
        let anchor_ipc = pts.last().map_or(INTEL_IPC, |p| p.ipc);
        let intel = fit.predict_halved_growth(anchor_ipc, INTEL_IPC);
        let mut row = vec![scheme.label().to_string()];
        for (c, p) in configs.iter().zip(&pts) {
            row.push(format!("{:.2}", p.value));
            csv.push_str(&format!(
                "{scheme},{},{:.4},{:.4}\n",
                c.name, p.ipc, p.value
            ));
        }
        row.push(format!("{intel:.2}"));
        row.push(format!("{paper_row:.2?}"));
        rows.push(row);
        csv.push_str(&format!("{scheme},intel,{INTEL_IPC},{intel:.4}\n"));
    }
    let text = format!(
        "Figure 1 / Table 3: normalized performance (IPC × timing), halved-\
         growth Intel extrapolation\n{}",
        format_table(&rows)
    );
    Ok(Report {
        text,
        csv: vec![("table3.csv".into(), csv)],
    })
}

/// Table 4: area (LUT/FF) and power relative to baseline at the Mega
/// configuration, with measured switching activity from the simulator.
#[must_use]
pub fn table4_report(spec: &RunSpec) -> Report {
    let mega = CoreConfig::mega();
    let base_area = area_estimate(&mega, Scheme::Baseline);
    let paper = [
        (1.060, 1.094, 1.008),
        (1.059, 1.039, 1.026),
        (0.980, 1.027, 0.936),
    ];
    let mut rows = vec![vec![
        "Scheme".to_string(),
        "LUTs".into(),
        "FFs".into(),
        "Power".into(),
        "paper (LUT/FF/P)".into(),
    ]];
    let mut csv = String::from("scheme,lut_rel,ff_rel,power_rel\n");
    // Measured activity on a representative benchmark mix refines the
    // typical per-scheme activity profile.
    let mix = ["505.mcf", "538.imagick", "548.exchange2"].map(profile);
    let mut points = Vec::new();
    for scheme in Scheme::secure() {
        points.extend(mix.iter().map(|p| (&mega, mega.scheme_config(scheme), p)));
    }
    let stats = run_report_points(&points, spec);
    for ((scheme, (pl, pf, pp)), mix_stats) in Scheme::secure()
        .into_iter()
        .zip(paper)
        .zip(stats.chunks(mix.len()))
    {
        let (l, f) = area_estimate(&mega, scheme).relative_to(&base_area);
        let mut act = ActivityProfile::typical(scheme);
        let measured: f64 = mix_stats
            .iter()
            .map(|s| ActivityProfile::from_stats(s).issue_rate)
            .sum();
        act.issue_rate = 0.5 * act.issue_rate + 0.5 * (measured / mix.len() as f64).min(1.2);
        let p = relative_power(&mega, scheme, &act);
        rows.push(vec![
            scheme.label().to_string(),
            format!("{l:.3}"),
            format!("{f:.3}"),
            format!("{p:.3}"),
            format!("{pl:.3}/{pf:.3}/{pp:.3}"),
        ]);
        csv.push_str(&format!("{scheme},{l:.4},{f:.4},{p:.4}\n"));
    }
    let text = format!(
        "Table 4: area and power at 50 MHz, normalized to baseline (Mega)\n{}",
        format_table(&rows)
    );
    Report {
        text,
        csv: vec![("table4.csv".into(), csv)],
    }
}

/// Table 5: IPC loss on Medium/Large/Mega (RTL fidelity) against gem5-like
/// abstract-fidelity configurations.
///
/// # Errors
///
/// Propagates grid-lookup failures.
pub fn table5_report(grid: &GridResults, spec: &RunSpec) -> Result<Report, ExperimentError> {
    let paper: [(&str, f64, f64, f64); 3] = [
        ("medium", 7.3, 6.4, 10.7),
        ("large", 11.3, 10.0, 18.6),
        ("mega", 17.6, 15.8, 22.4),
    ];
    let mut rows = vec![vec![
        "Configuration".to_string(),
        "Base IPC".into(),
        "STT-Rename loss%".into(),
        "STT-Issue loss%".into(),
        "NDA loss%".into(),
        "paper (R/I/N)".into(),
    ]];
    let mut csv = String::from("config,baseline_ipc,stt_rename_loss,stt_issue_loss,nda_loss\n");
    for (name, pr, pi, pn) in paper {
        let ipc = grid.baseline_ipc(name)?;
        let losses: Vec<f64> = Scheme::secure()
            .iter()
            .map(|&s| Ok(grid.summary(name, s)?.ipc_loss_percent()))
            .collect::<Result<_, ExperimentError>>()?;
        rows.push(vec![
            format!("BOOM {name}"),
            format!("{ipc:.2}"),
            format!("{:.1}", losses[0]),
            format!("{:.1}", losses[1]),
            format!("{:.1}", losses[2]),
            format!("{pr}/{pi}/{pn}"),
        ]);
        csv.push_str(&format!(
            "{name},{ipc:.4},{:.2},{:.2},{:.2}\n",
            losses[0], losses[1], losses[2]
        ));
    }
    // gem5-like rows: abstract fidelity, the original papers' configs.
    let (gem5_stt, gem5_nda) = (CoreConfig::gem5_stt(), CoreConfig::gem5_nda());
    let gem5_points = [
        (&gem5_stt, Scheme::SttRename, 17.2, "gem5 (STT cfg)"),
        (&gem5_nda, Scheme::Nda, 13.0, "gem5 (NDA cfg)"),
    ];
    let suites: Vec<(&CoreConfig, Scheme)> = gem5_points
        .iter()
        .flat_map(|&(config, scheme, ..)| [(config, Scheme::Baseline), (config, scheme)])
        .collect();
    // A failed job leaves its suite incomplete, which `summary` reports.
    let (gem5, _) = run_suites(&suites, spec, &RunOptions::storeless());
    for (config, scheme, paper_loss, label) in gem5_points {
        let summary = gem5.summary(config.name, scheme)?;
        let ipc = summary.baseline_ipc();
        let loss = summary.ipc_loss_percent();
        rows.push(vec![
            label.to_string(),
            format!("{ipc:.2}"),
            if scheme == Scheme::SttRename {
                format!("{loss:.1}")
            } else {
                "-".into()
            },
            "-".into(),
            if scheme == Scheme::Nda {
                format!("{loss:.1}")
            } else {
                "-".into()
            },
            format!("{paper_loss}"),
        ]);
        csv.push_str(&format!("{},{ipc:.4},{loss:.2},,\n", config.name));
    }
    let text = format!(
        "Table 5: IPC loss, BOOM (RTL fidelity) vs gem5-like (abstract \
         fidelity)\n{}",
        format_table(&rows)
    );
    Ok(Report {
        text,
        csv: vec![("table5.csv".into(), csv)],
    })
}

/// §9.2: the exchange2 pathology — store-to-load forwarding errors per
/// scheme, and the split-store-taint ablation, all on the grid's exchange2
/// trace.
#[must_use]
pub fn sec92_report(spec: &RunSpec) -> Report {
    let mega = CoreConfig::mega();
    let exchange2 = profile("548.exchange2");
    let schemes = [
        Scheme::Baseline,
        Scheme::Nda,
        Scheme::SttIssue,
        Scheme::SttRename,
    ];
    let mut points: Vec<_> = schemes
        .iter()
        .map(|&s| (&mega, mega.scheme_config(s), &exchange2))
        .collect();
    // Ablation: §9.2's proposed split-store optimization for STT-Rename.
    let mut split = mega.scheme_config(Scheme::SttRename);
    split.split_store_taints = true;
    points.push((&mega, split, &exchange2));
    let stats = run_report_points(&points, spec);
    let nda_errors = stats[1].forwarding_errors.get();
    let mut rows = vec![vec![
        "Scheme".to_string(),
        "IPC".into(),
        "Fwd errors".into(),
        "vs NDA".into(),
    ]];
    let mut csv = String::from("scheme,ipc,fwd_errors\n");
    let names = schemes
        .iter()
        .map(|s| (s.label().to_string(), s.to_string()))
        .chain([("STT-Rename+split".into(), "stt-rename-split".into())]);
    for ((label, key), s) in names.zip(&stats) {
        let (ipc, errs) = (s.ipc(), s.forwarding_errors.get());
        rows.push(vec![
            label,
            format!("{ipc:.3}"),
            errs.to_string(),
            times_nda(errs, nda_errors),
        ]);
        csv.push_str(&format!("{key},{ipc:.4},{errs}\n"));
    }
    let text = format!(
        "Section 9.2: exchange2 store-to-load forwarding errors (paper: \
         STT-Rename has ~1350x NDA's count; NDA IPC 1.77 vs STT-Rename 1.44)\n{}",
        format_table(&rows)
    );
    Report {
        text,
        csv: vec![("sec92.csv".into(), csv)],
    }
}

/// §9.2's "vs NDA" cell: `errs` as a multiple of NDA's count, or `-` when
/// NDA recorded none and there is no ratio to print.
fn times_nda(errs: u64, nda_errors: u64) -> String {
    if nda_errors == 0 {
        "-".into()
    } else {
        format!("{:.0}x", errs as f64 / nda_errors as f64)
    }
}

/// §7's security check: the attack-battery judge (`verify_security_with`)
/// run on the Spectre v1 and SSB kernels alone under the Spectre threat
/// model, one row per scheme. `Recovered` is the probe slot the
/// event-wheel run leaked when it leaked exactly one (`None` otherwise); a
/// row leaked when that slot is the battery's secret.
///
/// # Panics
///
/// Panics if a battery cell fails to run.
#[must_use]
pub fn security_report() -> Report {
    let battery: Vec<AttackKernel> = attack_battery(BATTERY_SECRET)
        .into_iter()
        .filter(|k| matches!(k.trace.name(), "spectre-v1" | "ssb"))
        .collect();
    let verdict = verify_security_with(&battery, &[ThreatModel::Spectre], &JobPolicy::default());
    assert!(
        verdict.job_failures.is_empty(),
        "security battery failed: {:?}",
        verdict.job_failures
    );
    let mut rows = vec![vec![
        "Kernel".to_string(),
        "Scheme".into(),
        "Leaked?".into(),
        "Recovered".into(),
    ]];
    let mut csv = String::from("kernel,scheme,leaked,recovered\n");
    for cell in &verdict.cells {
        let slots = &cell.evidence.wheel.slots;
        let recovered = slots.first().copied().filter(|_| slots.len() == 1);
        let leaked = recovered == Some(BATTERY_SECRET);
        let (kname, scheme) = (&cell.scenario, cell.scheme);
        rows.push(vec![
            kname.clone(),
            scheme.label().to_string(),
            if leaked {
                "LEAKED".into()
            } else {
                "blocked".into()
            },
            format!("{recovered:?}"),
        ]);
        csv.push_str(&format!("{kname},{scheme},{leaked},{recovered:?}\n"));
    }
    let text = format!(
        "Security: transient-leak verification (baseline must leak; all \
         secure schemes must block — §7's BOOM-attacks check)\n{}",
        format_table(&rows)
    );
    Report {
        text,
        csv: vec![("security.csv".into(), csv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_grid, run_grid_with};
    use sb_stats::TrendError;

    fn tiny_grid() -> GridResults {
        run_grid(
            &[
                CoreConfig::small(),
                CoreConfig::medium(),
                CoreConfig::large(),
                CoreConfig::mega(),
            ],
            &RunSpec {
                ops: 2_000,
                seed: 3,
            },
        )
    }

    /// A grid over an arbitrary config list, run without touching any
    /// persistent store.
    fn storeless_grid(configs: &[CoreConfig], ops: usize) -> GridResults {
        let opts = RunOptions::storeless();
        let (grid, report) = run_grid_with(configs, &RunSpec { ops, seed: 3 }, &opts);
        assert!(report.ok(), "{}", report.render_failures());
        grid
    }

    #[test]
    fn fig9_report_is_grid_free() {
        let r = fig9_report(&CoreConfig::boom_sweep()).expect("grid-free report");
        assert!(r.text.contains("mega"));
        assert!(
            r.csv[0].1.lines().count() > 16,
            "4 configs x 4 schemes + header"
        );
    }

    #[test]
    fn fig9_reports_exactly_the_given_configs() {
        // Regression: fig9 used to hardwire the BOOM names and error on
        // (or silently misreport) any other configuration list.
        let r = fig9_report(&[CoreConfig::gem5_nda()]).unwrap();
        assert!(r.text.contains("gem5-nda"), "{}", r.text);
        assert!(!r.text.contains("mega"), "{}", r.text);
    }

    #[test]
    fn one_config_trend_is_a_typed_error_not_a_panic() {
        // Regression: `LinearFit::fit` asserted on <2 points, so fig8 on a
        // one-config grid panicked the report builder instead of degrading
        // per the typed-error contract. This test aborts on the old code.
        let grid = storeless_grid(&[CoreConfig::small()], 1_000);
        let err = fig8_report(&grid).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::DegenerateTrend {
                scheme: Scheme::SttRename,
                reason: TrendError::TooFewPoints { got: 1 },
            },
            "expected a typed degenerate-trend error"
        );
        assert!(err.to_string().contains("degenerate"), "{err}");
        // The same contract holds for the other two trend reports.
        let configs = [CoreConfig::small()];
        assert!(matches!(
            fig10_report(&grid, &configs),
            Err(ExperimentError::DegenerateTrend { .. })
        ));
        assert!(matches!(
            fig1_table3_report(&grid, &configs),
            Err(ExperimentError::DegenerateTrend { .. })
        ));
    }

    #[test]
    fn empty_grid_trend_is_a_typed_error() {
        let err = fig8_report(&GridResults::default()).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::DegenerateTrend {
                scheme: Scheme::SttRename,
                reason: TrendError::TooFewPoints { got: 0 },
            }
        );
    }

    #[test]
    fn non_boom_grid_reports_its_own_configs() {
        // Regression: the trend reports used to hardwire the four BOOM
        // names, so a grid over any other config set reported missing
        // points. On the old code this fails with MissingGridPoint.
        let configs = [CoreConfig::gem5_stt(), CoreConfig::gem5_nda()];
        let grid = storeless_grid(&configs, 1_000);
        assert_eq!(grid.configs(), ["gem5-stt", "gem5-nda"]);
        let fig8 = fig8_report(&grid).unwrap();
        assert!(fig8.text.contains("gem5-stt"), "{}", fig8.text);
        assert!(fig8.csv[0].1.contains("gem5-nda"), "{}", fig8.csv[0].1);
        let fig10 = fig10_report(&grid, &configs).unwrap();
        assert!(fig10.text.contains("gem5-nda"), "{}", fig10.text);
        let t3 = fig1_table3_report(&grid, &configs).unwrap();
        assert!(t3.csv[0].1.contains("gem5-stt"), "{}", t3.csv[0].1);
        // Table 1 has no paper IPC for non-BOOM configs: "-" in the table.
        let t1 = table1_report(&grid, &configs).unwrap();
        assert!(t1.text.contains('-'), "{}", t1.text);
    }

    #[test]
    fn absent_config_is_a_clean_missing_point_error() {
        // A config list naming a point the grid never ran must surface the
        // typed MissingGridPoint error, not panic or misreport.
        let grid = storeless_grid(&[CoreConfig::small()], 1_000);
        let configs = [CoreConfig::small(), CoreConfig::mega()];
        let err = fig10_report(&grid, &configs).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::MissingGridPoint {
                config: "mega".into(),
                scheme: Scheme::Baseline,
            }
        );
    }

    #[test]
    fn a_zero_nda_forwarding_count_renders_no_ratio() {
        assert_eq!(times_nda(0, 0), "-");
        assert_eq!(times_nda(1350, 0), "-");
        assert_eq!(times_nda(2700, 2), "1350x");
        assert_eq!(times_nda(0, 3), "0x");
    }

    #[test]
    fn security_report_blocks_all_secure_schemes() {
        let r = security_report();
        assert!(!r.text.contains("LEAKED\n") || r.text.contains("Baseline"));
        // Exactly the two baselines leak.
        assert_eq!(r.text.matches("LEAKED").count(), 2, "{}", r.text);
    }

    #[test]
    fn security_report_output_is_pinned() {
        let r = security_report();
        assert_eq!(
            r.text,
            "Security: transient-leak verification (baseline must leak; all \
             secure schemes must block — §7's BOOM-attacks check)\n\
             Kernel          Scheme  Leaked?  Recovered\n\
             ------------------------------------------\n\
             spectre-v1    Baseline   LEAKED   Some(11)\n\
             spectre-v1  STT-Rename  blocked       None\n\
             spectre-v1   STT-Issue  blocked       None\n\
             spectre-v1         NDA  blocked       None\n\
             ssb           Baseline   LEAKED   Some(11)\n\
             ssb         STT-Rename  blocked       None\n\
             ssb          STT-Issue  blocked       None\n\
             ssb                NDA  blocked       None\n"
        );
        assert_eq!(r.csv.len(), 1);
        assert_eq!(r.csv[0].0, "security.csv");
        assert_eq!(
            r.csv[0].1,
            "kernel,scheme,leaked,recovered\n\
             spectre-v1,Baseline,true,Some(11)\n\
             spectre-v1,STT-Rename,false,None\n\
             spectre-v1,STT-Issue,false,None\n\
             spectre-v1,NDA,false,None\n\
             ssb,Baseline,true,Some(11)\n\
             ssb,STT-Rename,false,None\n\
             ssb,STT-Issue,false,None\n\
             ssb,NDA,false,None\n"
        );
    }

    #[test]
    #[ignore = "several seconds; run with --ignored or the binary"]
    fn full_reports_render() {
        let grid = tiny_grid();
        let configs = CoreConfig::boom_sweep();
        let spec = RunSpec {
            ops: 2_000,
            seed: 3,
        };
        for r in [
            table1_report(&grid, &configs).unwrap(),
            fig6_report(&grid).unwrap(),
            fig7_report(&grid).unwrap(),
            fig8_report(&grid).unwrap(),
            fig10_report(&grid, &configs).unwrap(),
            fig1_table3_report(&grid, &configs).unwrap(),
            table4_report(&spec),
            table5_report(&grid, &spec).unwrap(),
            sec92_report(&spec),
        ] {
            assert!(!r.text.is_empty());
            assert!(!r.csv.is_empty());
        }
    }
}
