//! The ShadowBinding reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!   --workload <paper-all|dse-sweep|security-fuzz> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs from the repository root. Repeats the workload (set-up, timed
//! phase, output checks) until `--seconds` have passed, each repetition on
//! its own scratch trace and stats stores under `.bench_work/`, removed
//! afterwards. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! an output check fails and 2 on bad arguments. No timing is asserted.

mod common;
mod fuzz;
mod grid;
mod layers;
mod paper;
mod spans;
mod sweep;

use common::{median, quantile, Dirs, RepOutcome, Workload};
use spans::{Span, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sb-perfbench --workload <paper-all|dse-sweep|security-fuzz> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up samples taken before the timed repetitions (each repetition
/// adds one more), so `setup_s` is a median of several: at least
/// `MIN_SETUPS`, then more while `SETUP_BUDGET` lasts, up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 12;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Repetitions the untraced run always makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Wall-clock budget of each A/B cost measurement in the traced run.
const AB_BUDGET: Duration = Duration::from_millis(800);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("invalid value for {flag}: '{value}' ({what})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One repetition: fresh stores, set-up, timed phase, checks, clean-up.
struct Rep {
    setup_s: f64,
    outcome: RepOutcome,
    spans: Vec<Span>,
    encoded_bytes: u64,
}

fn fresh_dirs(root: &Path, n: usize) -> Dirs {
    let base = root.join(format!("rep{n}"));
    let _ = std::fs::remove_dir_all(&base);
    Dirs {
        traces: base.join("traces"),
        stats: base.join("stats"),
        out: base.join("out"),
    }
}

fn remove_dirs(dirs: &Dirs) {
    if let Some(base) = dirs.traces.parent() {
        let _ = std::fs::remove_dir_all(base);
    }
}

/// Points the engine's process-default trace store at this repetition's
/// scratch directory. Called only between repetitions, when no other
/// thread is running.
fn use_trace_store(dirs: &Dirs) {
    std::env::set_var(sb_workloads::TRACE_CACHE_ENV, &dirs.traces);
}

fn setup_only(w: &mut dyn Workload, root: &Path, n: usize) -> f64 {
    let dirs = fresh_dirs(root, n);
    use_trace_store(&dirs);
    let start = Instant::now();
    w.setup(&dirs, &Tracer::new(false));
    let t = start.elapsed().as_secs_f64();
    remove_dirs(&dirs);
    t
}

fn repetition(w: &mut dyn Workload, root: &Path, n: usize, traced: bool) -> Rep {
    let dirs = fresh_dirs(root, n);
    use_trace_store(&dirs);
    let tr = Tracer::new(traced);
    let start = Instant::now();
    let encoded_bytes = w.setup(&dirs, &tr);
    let setup_s = start.elapsed().as_secs_f64();
    let outcome = w.run(&dirs, &tr);
    remove_dirs(&dirs);
    Rep {
        setup_s,
        outcome,
        spans: tr.take(),
        encoded_bytes,
    }
}

/// Median, quartiles and the bootstrap CI of the mean, for the log.
fn describe(name: &str, unit: &str, v: &[f64]) -> String {
    let ci = sb_stats::bootstrap_ci(v, 1000, 0.95, 2025);
    format!(
        "{name:<24} median {:.6} {unit}  q1 {:.6}  q3 {:.6}  n {}  mean-CI95 [{:.6}, {:.6}]",
        median(v),
        quantile(v, 0.25),
        quantile(v, 0.75),
        v.len(),
        ci.lo,
        ci.hi
    )
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN: a metric that could not be measured reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "paper-all" => Box::new(paper::PaperAll::new(args.seed)),
        "dse-sweep" => Box::new(sweep::DseSweep::new(args.seed)),
        "security-fuzz" => Box::new(fuzz::SecurityFuzz::new(args.seed)),
        other => {
            eprintln!("error: unknown workload '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A warm developer cache must never make a run look faster: every
    // store is a scratch directory this run creates, and the caller's
    // stats-cache setting is dropped (the trace-cache variable is
    // overwritten per repetition).
    std::env::remove_var(sb_experiments::STATS_CACHE_ENV);
    let cwd = std::env::current_dir().expect("a current directory");
    let root: PathBuf =
        cwd.join(".bench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let budget = Duration::from_secs_f64(args.seconds);
    let workers = sb_experiments::pool::default_workers();
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, {workers} workers",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < MIN_SETUPS || (setups.len() < MAX_SETUPS && start.elapsed() < SETUP_BUDGET)
    {
        setups.push(setup_only(w.as_mut(), &root, setups.len()));
    }
    let extra_setups = setups.len();
    let start = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    loop {
        let n = reps.len();
        // The traced run interleaves untraced and traced repetitions in
        // the order U T T U U T ..., so drift over the run and the first
        // repetition's warm-up weigh on both sides of the tracing overhead.
        let traced = args.trace && matches!(n % 4, 1 | 2);
        let rep = repetition(w.as_mut(), &root, extra_setups + n, traced);
        setups.push(rep.setup_s);
        eprintln!(
            "  rep {n}{}: setup {:.3}s, timed {:.3}s, digest {:016x}, {} of {} checks failed",
            if traced { " (traced)" } else { "" },
            rep.setup_s,
            rep.outcome.wall_s,
            rep.outcome.digest,
            rep.outcome.checks.failed,
            rep.outcome.checks.attempted
        );
        for m in &rep.outcome.checks.messages {
            eprintln!("    check failed: {m}");
        }
        reps.push((traced, rep));
        let min = if args.trace { 2 } else { MIN_REPS };
        if reps.len() >= min && start.elapsed() >= budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    if let Ok(mut rest) = std::fs::read_dir(cwd.join(".bench_work")) {
        if rest.next().is_none() {
            let _ = std::fs::remove_dir(cwd.join(".bench_work"));
        }
    }

    // Output checks: every repetition's own, plus digest agreement.
    let digest = reps[0].1.outcome.digest;
    let same_digest = reps.iter().all(|(_, r)| r.outcome.digest == digest);
    if !same_digest {
        eprintln!("check failed: stats_digest differs between repetitions");
    }
    let attempted: u64 = 1 + reps
        .iter()
        .map(|(_, r)| r.outcome.checks.attempted)
        .sum::<u64>();
    let failed: u64 = u64::from(!same_digest)
        + reps
            .iter()
            .map(|(_, r)| r.outcome.checks.failed)
            .sum::<u64>();
    let correct = failed == 0;
    println!("stats_digest: {digest:016x}");

    let untraced: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.outcome.wall_s).collect();
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let per_rep: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .map(|r| layers::rep_metrics(&r.spans, &r.outcome, r.encoded_bytes, workers))
            .collect();
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        for name in per_rep[0].keys() {
            let v: Vec<f64> = per_rep.iter().map(|m| m[name]).collect();
            values.insert(name.clone(), median(&v));
        }
        let job_ms: Vec<f64> = traced
            .iter()
            .flat_map(|r| layers::job_ms(&r.spans))
            .collect();
        for (name, v) in layers::job_latency(&job_ms) {
            values.insert(name.to_string(), v);
        }
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.outcome.wall_s).collect();
        values.insert(
            "trace.overhead_frac".into(),
            median(&traced_walls) / median(&walls) - 1.0,
        );
        values.insert(
            "experiments.jobs.guard_cost_frac".into(),
            common::guard_cost_frac(&w.sample_inputs(), AB_BUDGET),
        );
        for (name, v) in w.ab_costs() {
            values.insert(name.to_string(), v);
        }
        let mut lines = String::new();
        for (i, r) in traced.iter().enumerate() {
            spans::to_json_lines(i, &r.spans, &mut lines);
        }
        let out = cwd
            .join(".bench_work")
            .join(format!("spans-{}.jsonl", args.workload));
        if std::fs::create_dir_all(out.parent().expect("has a parent")).is_ok()
            && std::fs::write(&out, lines).is_ok()
        {
            eprintln!("spans written to {}", out.display());
        }
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    values.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    } else {
        let mops: Vec<f64> = untraced
            .iter()
            .map(|r| r.outcome.counts.committed as f64 / r.outcome.wall_s / 1e6)
            .collect();
        let ns_per_cycle: Vec<f64> = untraced
            .iter()
            .map(|r| r.outcome.wall_s * 1e9 / r.outcome.counts.sim_cycles as f64)
            .collect();
        for (name, unit, v) in [
            ("wall_s", "s", &walls),
            ("sim_mops_per_s", "Mops/s", &mops),
            ("host_ns_per_sim_cycle", "ns", &ns_per_cycle),
            ("setup_s", "s", &setups),
        ] {
            println!("{}", describe(name, unit, v));
        }
        let ok_frac = (attempted - failed) as f64 / attempted as f64;
        vec![
            ("wall_s".into(), median(&walls), "s"),
            ("sim_mops_per_s".into(), median(&mops), "Mops/s"),
            ("host_ns_per_sim_cycle".into(), median(&ns_per_cycle), "ns"),
            ("setup_s".into(), median(&setups), "s"),
            ("peak_rss_mb".into(), common::peak_rss_mb(), "MB"),
            ("ok_frac".into(), ok_frac, "frac"),
        ]
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
