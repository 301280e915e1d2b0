//! `sb-experiments`: regenerate every table and figure of the paper,
//! benchmark the simulator itself, or verify the security property.
//!
//! ```text
//! sb-experiments [--ops N] [--seed S] [--out DIR] [--no-trace-cache] [--resume]
//!                [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]
//!                [EXPERIMENT...]
//! sb-experiments bench [--ops N] [--seed S] [--bench-json PATH]
//! sb-experiments verify-security [--out DIR] [--threat-model spectre|futuristic|both]
//!                [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]
//! sb-experiments analyze-security [--out DIR] [--threat-model spectre|futuristic|both]
//!                [--self-check] [--perturb-claim SCENARIO]
//! sb-experiments sweep (--spec SPEC | --from-manifest PATH) [--top N] [--out DIR]
//!                [--ops N] [--seed S] [--no-trace-cache] [--resume]
//!                [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]
//! ```
//!
//! Experiments: `table1 fig6 fig7 fig8 fig9 fig10 table3 table4 table5
//! sec92 security` or `all` (default). CSVs land in `--out`
//! (default `results/`). Unknown experiment names and malformed flag
//! values are hard errors — a typo must never silently run the default.
//!
//! Workload traces are memoized on disk (default `target/trace-cache/`),
//! so repeated invocations skip generation; `--no-trace-cache` disables
//! the store for this run, and the `SB_TRACE_CACHE` environment variable
//! disables (`0`/`off`) or redirects (a path) it globally.
//!
//! Grid results are persisted the same way: every simulated point's
//! `SimStats` lands in the checksummed stats store (default
//! `target/stats-cache/`; `SB_STATS_CACHE` disables or redirects it with
//! `SB_TRACE_CACHE`'s exact semantics). `--resume` additionally *reads*
//! the store before simulating, so a killed or partially failed run picks
//! up where it left off — only the missing points are simulated, and a
//! fully cached grid performs zero simulations.
//!
//! Grid and battery jobs run panic-isolated: a job that panics, exceeds
//! `--job-deadline`, or is cancelled by the global `--run-budget` becomes
//! a line in the failure report (`N of M jobs failed: #i label: cause`)
//! while every other job's result is kept; the affected reports are
//! skipped with a per-report error and the process exits 1. Transient
//! failures retry with bounded backoff. `--inject-faults
//! panic@I,overrun@I,corrupt-stats@I` (or the `SB_FAULT_INJECT`
//! environment variable; the flag wins) deterministically injects faults
//! at job index I to exercise exactly that machinery.
//!
//! `bench` measures simulated-ops/sec for every (config × scheme) point on
//! both schedulers plus full-grid wall clock, and writes `BENCH_core.json`
//! (default path `BENCH_core.json`; override with `--bench-json`).
//!
//! `verify-security` runs the transient-leak attack battery (Spectre v1,
//! v1 with prefetcher amplification, speculative store bypass, a
//! store→load forwarding transmitter, nested deep speculation, an
//! eviction-set prime+probe over the shared L2, an MSHR-contention
//! channel, and an M-shadow scenario only the Futuristic model claims)
//! under every scheme, both schedulers, and the requested threat models
//! (`--threat-model spectre|futuristic|both`, default `both`; anything
//! else is a hard parse error). It prints one leak-count matrix per
//! threat model and exits nonzero unless the Baseline leaks on every
//! scenario while STT-Rename, STT-Issue and NDA leak on none the judged
//! model claims — identically under both schedulers.
//!
//! `analyze-security` renders the same matrix *statically*: the abstract
//! interpreter (`sb-analysis`) computes each cell's must/may leak bracket
//! and audits every kernel's hand-written claim constants with zero
//! cycles simulated, exiting nonzero on any unprovable claim or audit
//! drift. `--self-check` extends the audit across every encodable secret
//! and a spread of fuzzed attack variants; `--perturb-claim SCENARIO`
//! deliberately corrupts that kernel's constants so the run must fail —
//! CI's proof that the audit actually trips.
//!
//! `sweep` runs a declarative design-space sweep: `--spec` takes a
//! whitespace-separated `key=value` list (axes like `rob=32..128:32
//! width=2,4`, plus `base=`, `preset=boom|gem5`, `scheme=`,
//! `threat=`, `replicates=`) and every expanded `(config, scheme,
//! threat)` point runs the full benchmark suite over the same memoized,
//! fault-tolerant job layer as the grid — `--resume` against a warm store
//! re-simulates nothing. Results land in `--out` as `leaderboard.csv`
//! (points ranked on the security-cost/IPC/area/power/frequency frontier,
//! Pareto front marked, bootstrap confidence intervals over replicates)
//! and `manifest.json` (the reproduction contract); `--from-manifest`
//! re-runs a sweep from a manifest alone and reproduces the leaderboard
//! byte for byte.

use sb_core::{Scheme, ThreatModel};
use sb_experiments::bench::{run_core_bench, BenchOptions};
use sb_experiments::dse::{
    leaderboard, leaderboard_csv, leaderboard_table, manifest_json, parse_manifest, run_sweep,
    SweepSpec,
};
use sb_experiments::security::BATTERY_SECRET;
use sb_experiments::{
    analyze_battery, extended_claims_audit, fig10_report, fig1_table3_report, fig6_report,
    fig7_report, fig8_report, fig9_report, perturb_battery_claim, run_grid_with, sec92_report,
    security_matrix_report, security_report, static_matrix_report, table1_report, table4_report,
    table5_report, verify_security_with, ExperimentError, FaultPlan, GridResults, JobPolicy,
    Report, RunOptions, RunSpec,
};
use sb_uarch::CoreConfig;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Experiment names (selectable together, `all` being the default).
const EXPERIMENT_NAMES: &[&str] = &[
    "all", "table1", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "table3", "table4", "table5",
    "sec92", "security",
];

/// Subcommands: run alone, with their own flag sets.
const SUBCOMMANDS: &[&str] = &["bench", "verify-security", "analyze-security", "sweep"];

const USAGE: &str =
    "usage: sb-experiments [--ops N] [--seed S] [--out DIR] [--no-trace-cache] [--resume]\n\
     \x20                     [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]\n\
     \x20                     [EXPERIMENT...]\n\
     experiments: table1 fig1 fig6 fig7 fig8 fig9 fig10 table3 table4 table5 sec92 security all\n\
     or: sb-experiments bench [--ops N] [--seed S] [--bench-json PATH]\n\
     or: sb-experiments verify-security [--out DIR] [--threat-model spectre|futuristic|both]\n\
     \x20                     [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]\n\
     or: sb-experiments analyze-security [--out DIR] [--threat-model spectre|futuristic|both]\n\
     \x20                     [--self-check] [--perturb-claim SCENARIO]\n\
     or: sb-experiments sweep (--spec SPEC | --from-manifest PATH) [--top N] [--out DIR]\n\
     \x20                     [--ops N] [--seed S] [--no-trace-cache] [--resume]\n\
     \x20                     [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]\n\
     or: sb-experiments import FILE.sbtr [--scheme baseline|stt-rename|stt-issue|nda]\n\
     sweep spec: key=value tokens — axes (rob width mem-ports iq lq sq phys-regs br-tags\n\
     \x20  l1-sets l1-ways l2-sets l2-ways l1-prefetch l2-prefetch) with comma lists or a..b[:step]\n\
     \x20  ranges, base=small|medium|large|mega|gem5-stt|gem5-nda, preset=boom|gem5,\n\
     \x20  scheme=all|secure|<list>, threat=spectre|futuristic|both, replicates=N\n\
     traces are cached under target/trace-cache/ (SB_TRACE_CACHE=0 or --no-trace-cache disables)\n\
     grid stats are cached under target/stats-cache/ (SB_STATS_CACHE=0 disables; --resume reads \
     them back)\n\
     fault spec: comma-separated panic@I | overrun@I | corrupt-stats@I (also via SB_FAULT_INJECT)";

#[derive(Debug)]
struct Args {
    spec: RunSpec,
    ops_overridden: bool,
    out: PathBuf,
    bench_json: PathBuf,
    experiments: Vec<String>,
    threat_models: Vec<ThreatModel>,
    sweep_spec: Option<String>,
    from_manifest: Option<PathBuf>,
    top: Option<usize>,
    self_check: bool,
    perturb_claim: Option<String>,
    no_trace_cache: bool,
    resume: bool,
    job_deadline: Option<Duration>,
    run_budget: Option<Duration>,
    faults: Option<FaultPlan>,
    help: bool,
}

/// Parses `--threat-model`'s value: a single model name or `both`. Any
/// other value is a hard error — the security axis must never silently
/// fall back to a default model.
fn parse_threat_models(value: Option<String>) -> Result<Vec<ThreatModel>, String> {
    let raw = value.ok_or("--threat-model requires a value")?;
    match raw.as_str() {
        "both" => Ok(ThreatModel::all().to_vec()),
        other => other
            .parse::<ThreatModel>()
            .map(|m| vec![m])
            .map_err(|e| format!("invalid value for --threat-model: {e}")),
    }
}

/// Parses a flag's value, failing loudly with the flag name on a missing
/// or malformed value — `--ops garbage` must never silently run the
/// default.
fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value for {flag}: '{raw}'"))
}

/// Parses a duration flag given in (possibly fractional) seconds.
fn secs_value(flag: &str, value: Option<String>) -> Result<Duration, String> {
    let secs: f64 = flag_value(flag, value)?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "invalid value for {flag}: '{secs}' (want non-negative seconds)"
        ));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut spec = RunSpec::default();
    let mut ops_overridden = false;
    let mut out = PathBuf::from("results");
    let mut bench_json = PathBuf::from("BENCH_core.json");
    let mut experiments = Vec::new();
    let mut threat_models = ThreatModel::all().to_vec();
    let mut sweep_spec = None;
    let mut from_manifest = None;
    let mut top = None;
    let mut self_check = false;
    let mut perturb_claim = None;
    let mut no_trace_cache = false;
    let mut resume = false;
    let mut job_deadline = None;
    let mut run_budget = None;
    let mut faults = None;
    let mut help = false;
    let mut flags_given: Vec<&'static str> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ops" => {
                spec.ops = flag_value("--ops", it.next())?;
                ops_overridden = true;
                flags_given.push("--ops");
            }
            "--seed" => {
                spec.seed = flag_value("--seed", it.next())?;
                flags_given.push("--seed");
            }
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out requires a value")?);
                flags_given.push("--out");
            }
            "--bench-json" => {
                bench_json = PathBuf::from(it.next().ok_or("--bench-json requires a value")?);
                flags_given.push("--bench-json");
            }
            "--threat-model" => {
                threat_models = parse_threat_models(it.next())?;
                flags_given.push("--threat-model");
            }
            "--spec" => {
                sweep_spec = Some(it.next().ok_or("--spec requires a value")?);
                flags_given.push("--spec");
            }
            "--from-manifest" => {
                from_manifest = Some(PathBuf::from(
                    it.next().ok_or("--from-manifest requires a value")?,
                ));
                flags_given.push("--from-manifest");
            }
            "--top" => {
                top = Some(flag_value("--top", it.next())?);
                flags_given.push("--top");
            }
            "--self-check" => {
                self_check = true;
                flags_given.push("--self-check");
            }
            "--perturb-claim" => {
                perturb_claim = Some(it.next().ok_or("--perturb-claim requires a value")?);
                flags_given.push("--perturb-claim");
            }
            "--no-trace-cache" => {
                no_trace_cache = true;
                flags_given.push("--no-trace-cache");
            }
            "--resume" => {
                resume = true;
                flags_given.push("--resume");
            }
            "--job-deadline" => {
                job_deadline = Some(secs_value("--job-deadline", it.next())?);
                flags_given.push("--job-deadline");
            }
            "--run-budget" => {
                run_budget = Some(secs_value("--run-budget", it.next())?);
                flags_given.push("--run-budget");
            }
            "--inject-faults" => {
                let spec = it.next().ok_or("--inject-faults requires a value")?;
                faults = Some(
                    FaultPlan::parse(&spec)
                        .map_err(|e| format!("invalid value for --inject-faults: {e}"))?,
                );
                flags_given.push("--inject-faults");
            }
            "--help" | "-h" => {
                help = true;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            other => {
                if other == "import" {
                    // `import` is dispatched before parse_args ever runs;
                    // reaching here means it was not the first argument.
                    return Err(format!("'{other}' must be the first argument"));
                }
                if !EXPERIMENT_NAMES.contains(&other) && !SUBCOMMANDS.contains(&other) {
                    return Err(format!(
                        "unknown experiment '{other}' (expected one of: {} — or a \
                         subcommand: {})",
                        EXPERIMENT_NAMES.join(" "),
                        SUBCOMMANDS.join(", ")
                    ));
                }
                experiments.push(other.to_string());
            }
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    // A subcommand runs alone and accepts only its own flags: `bench
    // table1` would silently drop table1, and `verify-security --ops N`
    // would silently ignore --ops — both violate the same
    // no-silent-defaults contract as flag typos.
    for &sub in SUBCOMMANDS {
        if !experiments.iter().any(|e| e == sub) {
            continue;
        }
        if experiments.len() > 1 {
            return Err(format!(
                "'{sub}' is a subcommand and cannot be combined with other \
                 experiments (got: {})",
                experiments.join(" ")
            ));
        }
        let accepted: &[&str] = match sub {
            // bench measures raw throughput: no job layer, no store.
            "bench" => &["--ops", "--seed", "--bench-json"],
            // sweep has the full grid machinery: job layer, both caches,
            // resume — plus its own spec/manifest/top flags.
            "sweep" => &[
                "--spec",
                "--from-manifest",
                "--top",
                "--out",
                "--ops",
                "--seed",
                "--no-trace-cache",
                "--resume",
                "--job-deadline",
                "--run-budget",
                "--inject-faults",
            ],
            // analyze-security is pure computation: no job layer, no
            // caches — only the model axis, the output dir and its own
            // audit controls.
            "analyze-security" => &["--out", "--threat-model", "--self-check", "--perturb-claim"],
            // verify-security runs on the job layer but has no stats
            // store, so --resume stays rejected.
            _ => &[
                "--out",
                "--threat-model",
                "--job-deadline",
                "--run-budget",
                "--inject-faults",
            ],
        };
        if let Some(rejected) = flags_given.iter().find(|f| !accepted.contains(f)) {
            return Err(format!(
                "{rejected} has no effect with '{sub}' (accepted flags: {})",
                accepted.join(" ")
            ));
        }
    }
    // The converse holds too: a flag owned by one subcommand is rejected
    // when that subcommand is absent — `security --threat-model
    // futuristic` would otherwise run the plain flush+reload experiment
    // under the default model with the axis silently dropped.
    if !experiments
        .iter()
        .any(|e| SUBCOMMANDS.contains(&e.as_str()))
    {
        for (flag, owner) in [
            ("--threat-model", "verify-security"),
            ("--bench-json", "bench"),
            ("--spec", "sweep"),
            ("--from-manifest", "sweep"),
            ("--top", "sweep"),
            ("--self-check", "analyze-security"),
            ("--perturb-claim", "analyze-security"),
        ] {
            if flags_given.contains(&flag) {
                return Err(format!(
                    "{flag} only applies to the '{owner}' subcommand (got: {})",
                    experiments.join(" ")
                ));
            }
        }
    }
    // --perturb-claim is the audit's negative-path smoke: it only makes
    // sense alongside --self-check, the mode whose job is to prove the
    // audit machinery trips.
    if perturb_claim.is_some() && !self_check {
        return Err(
            "--perturb-claim requires --self-check (it deliberately corrupts a \
                    claim to prove the audit fails)"
                .into(),
        );
    }
    // The sweep's inputs are mutually exclusive ways of naming the same
    // run: a manifest *is* the spec+ops+seed bundle, so combining it with
    // any of them would silently reproduce something else.
    if experiments.iter().any(|e| e == "sweep") {
        match (&sweep_spec, &from_manifest) {
            (Some(_), Some(_)) => {
                return Err("--spec and --from-manifest are mutually exclusive".into())
            }
            (None, None) => {
                return Err("'sweep' requires --spec or --from-manifest".into());
            }
            (None, Some(_)) => {
                for flag in ["--ops", "--seed"] {
                    if flags_given.contains(&flag) {
                        return Err(format!(
                            "{flag} conflicts with --from-manifest (the manifest records \
                             its own parameters)"
                        ));
                    }
                }
            }
            (Some(_), None) => {}
        }
    }
    Ok(Args {
        spec,
        ops_overridden,
        out,
        bench_json,
        experiments,
        threat_models,
        sweep_spec,
        from_manifest,
        top,
        self_check,
        perturb_claim,
        no_trace_cache,
        resume,
        job_deadline,
        run_budget,
        faults,
        help,
    })
}

/// Builds the job policy from the CLI flags, resolving the fault plan:
/// `--inject-faults` wins over `SB_FAULT_INJECT`; a malformed environment
/// spec is a hard error (a typo must never silently disarm the harness).
fn job_policy(args: &Args) -> Result<JobPolicy, String> {
    let faults = match &args.faults {
        Some(plan) => Some(plan.clone()),
        None => FaultPlan::from_env()?,
    };
    Ok(JobPolicy {
        job_deadline: args.job_deadline,
        run_budget: args.run_budget,
        faults,
        ..JobPolicy::default()
    })
}

/// The `bench` subcommand: core throughput + grid wall-clock comparison.
fn run_bench_command(args: &Args) {
    let mut opts = BenchOptions {
        seed: args.spec.seed,
        ..BenchOptions::default()
    };
    if args.ops_overridden {
        opts.ops = args.spec.ops;
    }
    eprintln!(
        "benchmarking core throughput: 4 configs x 4 schemes x {} uops (+ reference comparison)...",
        opts.ops
    );
    let report = run_core_bench(&opts);
    print!("{}", report.summary());
    std::fs::write(&args.bench_json, report.to_json()).expect("write bench json");
    eprintln!("wrote {}", args.bench_json.display());
}

/// The `verify-security` subcommand: leak matrix + hard verdict.
fn run_verify_security(args: &Args, policy: &JobPolicy) {
    let models = args
        .threat_models
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("+");
    eprintln!(
        "verifying security: 11-scenario attack battery x 4 schemes x 2 schedulers x {models}..."
    );
    let verdict = verify_security_with(&args.threat_models, policy);
    let report = security_matrix_report(&verdict);
    println!("{}", report.text);
    std::fs::create_dir_all(&args.out).expect("create output dir");
    for (name, csv) in &report.csv {
        std::fs::write(args.out.join(name), csv).expect("write csv");
    }
    eprintln!("CSV written to {}", args.out.display());
    if !verdict.ok {
        std::process::exit(1);
    }
}

/// The `analyze-security` subcommand: the static must/may matrix plus the
/// claims audit — zero cycles simulated.
fn run_analyze_security(args: &Args) {
    let models = args
        .threat_models
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("+");
    eprintln!(
        "analyzing security statically: 11-scenario attack battery x 4 schemes x {models}, \
         zero simulations..."
    );
    let mut battery = sb_workloads::attack_battery(BATTERY_SECRET);
    if let Some(scenario) = &args.perturb_claim {
        if !perturb_battery_claim(&mut battery, scenario) {
            eprintln!("error: --perturb-claim: no battery scenario named '{scenario}'");
            std::process::exit(2);
        }
        eprintln!("perturbed the '{scenario}' claim constants: this run must now fail");
    }
    let verdict = analyze_battery(&battery, &args.threat_models);
    let report = static_matrix_report(&verdict);
    println!("{}", report.text);
    std::fs::create_dir_all(&args.out).expect("create output dir");
    for (name, csv) in &report.csv {
        std::fs::write(args.out.join(name), csv).expect("write csv");
    }
    eprintln!("CSV written to {}", args.out.display());
    let mut ok = verdict.ok;
    if args.self_check {
        let audit = extended_claims_audit();
        if audit.drifts.is_empty() {
            eprintln!(
                "self-check: claims audit clean across {} batteries \
                 (16 secrets + 8 fuzzed variants)",
                audit.batteries_checked
            );
        } else {
            eprintln!(
                "self-check: {} claim drift(s) across {} batteries:",
                audit.drifts.len(),
                audit.batteries_checked
            );
            for d in &audit.drifts {
                eprintln!("  {d}");
            }
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// The `sweep` subcommand: expand the spec (or re-load it from a
/// manifest), run every design point over the memoized job layer, and
/// write the ranked leaderboard plus the reproduction manifest.
fn run_sweep_command(args: &Args, policy: &JobPolicy) {
    let parse_fail = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2);
    };
    let (spec, run) = match &args.from_manifest {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                parse_fail(format!("cannot read manifest {}: {e}", path.display()))
            });
            let params = parse_manifest(&text)
                .unwrap_or_else(|e| parse_fail(format!("{}: {e}", path.display())));
            (
                params.spec,
                RunSpec {
                    ops: params.ops,
                    seed: params.seed,
                },
            )
        }
        None => {
            let raw = args.sweep_spec.as_deref().expect("enforced at parse");
            let spec = SweepSpec::parse(raw)
                .unwrap_or_else(|e| parse_fail(format!("invalid --spec: {e}")));
            (spec, args.spec.clone())
        }
    };
    // Expand early so a spec that only fails at expansion (invalid point,
    // cross-product explosion) is still a parse error, not a late abort.
    let points = spec
        .points()
        .unwrap_or_else(|e| parse_fail(format!("invalid sweep: {e}")));
    eprintln!(
        "running sweep: {} points x {} replicates x 22 benchmarks, {} uops each{}...",
        points.len(),
        spec.replicates(),
        run.ops,
        if args.resume { " (resume)" } else { "" }
    );
    let opts = RunOptions {
        policy: policy.clone(),
        resume: args.resume,
        ..RunOptions::default()
    };
    let outcome = match run_sweep(&spec, &run, &opts) {
        Ok(outcome) => outcome,
        Err(e) => parse_fail(format!("invalid sweep: {e}")),
    };
    eprintln!(
        "sweep: {} simulated, {} from cache, {} of {} failed",
        outcome.report.simulated,
        outcome.report.from_cache,
        outcome.report.failures.len(),
        outcome.report.total
    );
    if !outcome.report.ok() {
        eprint!("{}", outcome.report.render_failures());
    }
    let rows = leaderboard(&outcome);
    println!("{}", leaderboard_table(&rows, args.top));
    std::fs::create_dir_all(&args.out).expect("create output dir");
    std::fs::write(args.out.join("leaderboard.csv"), leaderboard_csv(&rows))
        .expect("write leaderboard csv");
    std::fs::write(
        args.out.join("manifest.json"),
        manifest_json(&spec, &run, &outcome),
    )
    .expect("write manifest");
    eprintln!(
        "leaderboard.csv and manifest.json written to {}",
        args.out.display()
    );
    if !outcome.report.ok() {
        eprintln!("run degraded: rerun with --resume to fill in the missing points");
        std::process::exit(1);
    }
}

/// The `import` subcommand: decode an external SBTR trace file, run it
/// under both schedulers (they must agree), print the summary.
fn run_import_command(rest: &[String]) -> ! {
    let mut file: Option<PathBuf> = None;
    let mut scheme = Scheme::Baseline;
    let mut it = rest.iter().cloned();
    let parse_fail = |e: String| -> ! {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => {
                let Some(name) = it.next() else {
                    parse_fail("--scheme requires a value".into());
                };
                scheme = match name.as_str() {
                    "baseline" => Scheme::Baseline,
                    "stt-rename" => Scheme::SttRename,
                    "stt-issue" => Scheme::SttIssue,
                    "nda" => Scheme::Nda,
                    other => parse_fail(format!(
                        "unknown scheme '{other}' (expected baseline, stt-rename, \
                         stt-issue or nda)"
                    )),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                parse_fail(format!("unknown 'import' argument {other}"));
            }
            other => {
                if file.is_some() {
                    parse_fail("'import' takes exactly one trace file".into());
                }
                file = Some(PathBuf::from(other));
            }
        }
    }
    let Some(file) = file else {
        parse_fail("'import' requires a trace file (e.g. assets/sample-trace.sbtr)".into());
    };
    match sb_experiments::import::import_report(&file, scheme) {
        Ok(report) => {
            print!("{report}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("import") {
        run_import_command(&raw[1..]);
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return;
    }
    if args.no_trace_cache {
        std::env::set_var(sb_workloads::TRACE_CACHE_ENV, "0");
    }
    let policy = match job_policy(&args) {
        Ok(policy) => policy,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.experiments.iter().any(|e| e == "bench") {
        run_bench_command(&args);
        return;
    }
    if args.experiments.iter().any(|e| e == "verify-security") {
        run_verify_security(&args, &policy);
        return;
    }
    if args.experiments.iter().any(|e| e == "analyze-security") {
        run_analyze_security(&args);
        return;
    }
    if args.experiments.iter().any(|e| e == "sweep") {
        run_sweep_command(&args, &policy);
        return;
    }
    let all = args.experiments.iter().any(|e| e == "all");
    let wants = |name: &str| all || args.experiments.iter().any(|e| e == name);

    let needs_grid = [
        "table1", "fig6", "fig7", "fig8", "fig10", "table3", "fig1", "table5",
    ]
    .iter()
    .any(|e| wants(e));
    let mut degraded = false;
    let configs = CoreConfig::boom_sweep();
    let grid: Option<GridResults> = needs_grid.then(|| {
        eprintln!(
            "running grid: 4 configs x 4 schemes x 22 benchmarks, {} uops each{}...",
            args.spec.ops,
            if args.resume { " (resume)" } else { "" }
        );
        let opts = RunOptions {
            policy: policy.clone(),
            resume: args.resume,
            ..RunOptions::default()
        };
        let (grid, run) = run_grid_with(&configs, &args.spec, &opts);
        eprintln!(
            "grid: {} simulated, {} from cache, {} of {} failed",
            run.simulated,
            run.from_cache,
            run.failures.len(),
            run.total
        );
        if !run.ok() {
            eprint!("{}", run.render_failures());
            degraded = true;
        }
        grid
    });
    let grid = grid.as_ref();

    // Each report renders independently: a grid degraded by failed jobs
    // takes down only the reports whose data is missing; the rest still
    // print and write their CSVs.
    let mut reports: Vec<Report> = Vec::new();
    let mut report_errors: Vec<String> = Vec::new();
    let mut push = |name: &str, r: Result<Report, ExperimentError>| match r {
        Ok(report) => reports.push(report),
        Err(e) => report_errors.push(format!("{name}: {e}")),
    };
    if wants("table1") {
        push("table1", table1_report(grid.expect("grid"), &configs));
    }
    if wants("fig6") {
        push("fig6", fig6_report(grid.expect("grid")));
    }
    if wants("fig7") {
        push("fig7", fig7_report(grid.expect("grid")));
    }
    if wants("fig8") {
        push("fig8", fig8_report(grid.expect("grid")));
    }
    if wants("fig9") {
        push("fig9", fig9_report(&configs));
    }
    if wants("fig10") {
        push("fig10", fig10_report(grid.expect("grid"), &configs));
    }
    if wants("table3") || wants("fig1") {
        push("table3", fig1_table3_report(grid.expect("grid"), &configs));
    }
    if wants("table4") {
        push("table4", Ok(table4_report(&args.spec)));
    }
    if wants("table5") {
        push("table5", table5_report(grid.expect("grid"), &args.spec));
    }
    if wants("sec92") {
        push("sec92", Ok(sec92_report(&args.spec)));
    }
    if wants("security") {
        push("security", Ok(security_report()));
    }

    std::fs::create_dir_all(&args.out).expect("create output dir");
    for r in &reports {
        println!("{}\n", r.text);
        for (name, csv) in &r.csv {
            let path = args.out.join(name);
            std::fs::write(&path, csv).expect("write csv");
        }
    }
    eprintln!("CSV written to {}", args.out.display());
    for e in &report_errors {
        eprintln!("report skipped: {e}");
    }
    if degraded || !report_errors.is_empty() {
        eprintln!("run degraded: rerun with --resume to fill in the missing points");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_run_all_experiments() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.experiments, vec!["all"]);
        assert!(!a.ops_overridden);
        assert_eq!(a.out, PathBuf::from("results"));
    }

    #[test]
    fn valid_flags_parse() {
        let a = parse(&["--ops", "5000", "--seed", "9", "--out", "/tmp/x", "table1"]).unwrap();
        assert_eq!(a.spec.ops, 5000);
        assert!(a.ops_overridden);
        assert_eq!(a.spec.seed, 9);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.experiments, vec!["table1"]);
    }

    #[test]
    fn garbage_ops_fails_loudly_with_the_flag_name() {
        // Regression: this used to either silently keep the default or
        // panic with a message omitting the offending value.
        let err = parse(&["--ops", "garbage"]).unwrap_err();
        assert!(err.contains("--ops"), "{err}");
        assert!(err.contains("garbage"), "{err}");
    }

    #[test]
    fn garbage_seed_fails_loudly() {
        let err = parse(&["--seed", "0x12"]).unwrap_err();
        assert!(err.contains("--seed") && err.contains("0x12"), "{err}");
    }

    #[test]
    fn missing_flag_value_fails_loudly() {
        let err = parse(&["--ops"]).unwrap_err();
        assert!(err.contains("--ops requires a value"), "{err}");
        let err = parse(&["--out"]).unwrap_err();
        assert!(err.contains("--out requires a value"), "{err}");
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        // Regression: a typo like `tabel1` used to silently run nothing
        // (or fall through to `all`'s absence) instead of erroring.
        let err = parse(&["tabel1"]).unwrap_err();
        assert!(err.contains("tabel1"), "{err}");
        assert!(err.contains("table1"), "suggests the valid names: {err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn misplaced_import_is_rejected_and_removed_subcommands_are_unknown() {
        // First-position dispatch happens in main(); anywhere else `import`
        // must not be swallowed as an experiment name.
        let err = parse(&["table1", "import", "trace.sbtr"]).unwrap_err();
        assert!(err.contains("'import' must be the first argument"), "{err}");
        for word in ["serve", "submit"] {
            let err = parse(&[word]).unwrap_err();
            assert!(
                err.contains(&format!("unknown experiment '{word}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn subcommands_are_recognized() {
        assert_eq!(parse(&["bench"]).unwrap().experiments, vec!["bench"]);
        assert_eq!(
            parse(&["verify-security"]).unwrap().experiments,
            vec!["verify-security"]
        );
    }

    #[test]
    fn no_trace_cache_is_deferred_to_main() {
        // parse_args must not mutate the process environment (it would
        // race with other tests); it only records the request. Compare
        // before/after rather than asserting absence — the suite may
        // legitimately run with SB_TRACE_CACHE exported.
        let before = std::env::var(sb_workloads::TRACE_CACHE_ENV).ok();
        let a = parse(&["--no-trace-cache"]).unwrap();
        assert!(a.no_trace_cache);
        assert_eq!(std::env::var(sb_workloads::TRACE_CACHE_ENV).ok(), before);
    }

    #[test]
    fn subcommands_cannot_be_combined_with_experiments() {
        let err = parse(&["table1", "verify-security"]).unwrap_err();
        assert!(
            err.contains("verify-security") && err.contains("table1"),
            "{err}"
        );
        let err = parse(&["bench", "table1"]).unwrap_err();
        assert!(err.contains("bench"), "{err}");
    }

    #[test]
    fn subcommands_reject_flags_they_would_silently_ignore() {
        // verify-security runs a fixed battery: --ops/--seed have no
        // effect and must not be silently swallowed.
        let err = parse(&["verify-security", "--ops", "5000"]).unwrap_err();
        assert!(
            err.contains("--ops") && err.contains("verify-security"),
            "{err}"
        );
        let err = parse(&["--seed", "7", "verify-security"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        // bench writes --bench-json, not --out.
        let err = parse(&["bench", "--out", "/tmp/x"]).unwrap_err();
        assert!(err.contains("--out") && err.contains("bench"), "{err}");
        // Each subcommand's own flags still parse.
        assert!(parse(&["verify-security", "--out", "/tmp/x"]).is_ok());
        assert!(parse(&["bench", "--ops", "4000", "--bench-json", "/tmp/b.json"]).is_ok());
    }

    #[test]
    fn analyze_security_flags_parse_strictly() {
        let a = parse(&["analyze-security"]).unwrap();
        assert_eq!(a.experiments, vec!["analyze-security"]);
        assert!(!a.self_check && a.perturb_claim.is_none());
        let a = parse(&[
            "analyze-security",
            "--threat-model",
            "both",
            "--out",
            "/tmp/x",
            "--self-check",
            "--perturb-claim",
            "spectre-v1",
        ])
        .unwrap();
        assert!(a.self_check);
        assert_eq!(a.perturb_claim.as_deref(), Some("spectre-v1"));
        assert_eq!(a.threat_models.len(), 2);
        // Pure computation: the job layer and the simulators' knobs are
        // rejected, not silently ignored.
        for flags in [
            &["analyze-security", "--ops", "5000"][..],
            &["analyze-security", "--job-deadline", "5"],
            &["analyze-security", "--inject-faults", "panic@0"],
            &["analyze-security", "--resume"],
        ] {
            let err = parse(flags).unwrap_err();
            assert!(err.contains("analyze-security"), "{err}");
        }
    }

    #[test]
    fn perturb_claim_requires_self_check() {
        let err = parse(&["analyze-security", "--perturb-claim", "ssb"]).unwrap_err();
        assert!(err.contains("--self-check"), "{err}");
        let err = parse(&["analyze-security", "--perturb-claim"]).unwrap_err();
        assert!(err.contains("--perturb-claim requires a value"), "{err}");
    }

    #[test]
    fn audit_flags_are_rejected_outside_analyze_security() {
        let err = parse(&["--self-check"]).unwrap_err();
        assert!(
            err.contains("--self-check") && err.contains("analyze-security"),
            "{err}"
        );
        let err = parse(&["verify-security", "--self-check"]).unwrap_err();
        assert!(err.contains("--self-check"), "{err}");
        let err = parse(&[
            "sweep",
            "--spec",
            "base=mega",
            "--self-check",
            "--perturb-claim",
            "ssb",
        ])
        .unwrap_err();
        assert!(err.contains("sweep"), "{err}");
    }

    #[test]
    fn analyze_security_accepts_the_threat_model_axis() {
        let a = parse(&["analyze-security", "--threat-model", "spectre"]).unwrap();
        assert_eq!(a.threat_models, vec![ThreatModel::Spectre]);
        let err = parse(&["analyze-security", "--threat-model", "sputnik"]).unwrap_err();
        assert!(err.contains("sputnik"), "{err}");
    }

    #[test]
    fn threat_model_defaults_to_both_and_parses_each_value() {
        let a = parse(&["verify-security"]).unwrap();
        assert_eq!(a.threat_models, ThreatModel::all().to_vec());
        let a = parse(&["verify-security", "--threat-model", "spectre"]).unwrap();
        assert_eq!(a.threat_models, vec![ThreatModel::Spectre]);
        let a = parse(&["verify-security", "--threat-model", "futuristic"]).unwrap();
        assert_eq!(a.threat_models, vec![ThreatModel::Futuristic]);
        let a = parse(&["verify-security", "--threat-model", "both"]).unwrap();
        assert_eq!(a.threat_models.len(), 2);
    }

    #[test]
    fn invalid_threat_model_is_a_hard_parse_error() {
        // Regression: the threat model must never silently fall back to a
        // default — an unknown value (or a missing one) is fatal.
        let err = parse(&["verify-security", "--threat-model", "sputnik"]).unwrap_err();
        assert!(
            err.contains("--threat-model") && err.contains("sputnik"),
            "{err}"
        );
        assert!(err.contains("spectre"), "lists the valid names: {err}");
        let err = parse(&["verify-security", "--threat-model"]).unwrap_err();
        assert!(err.contains("--threat-model requires a value"), "{err}");
    }

    #[test]
    fn threat_model_flag_is_rejected_outside_verify_security() {
        let err = parse(&["bench", "--threat-model", "both"]).unwrap_err();
        assert!(
            err.contains("--threat-model") && err.contains("bench"),
            "{err}"
        );
        // Regression: plain experiment runs used to swallow the flag
        // silently — `security --threat-model futuristic` ran the
        // flush+reload experiment under the default model.
        let err = parse(&["security", "--threat-model", "futuristic"]).unwrap_err();
        assert!(
            err.contains("--threat-model") && err.contains("verify-security"),
            "{err}"
        );
        let err = parse(&["table1", "--bench-json", "/tmp/b.json"]).unwrap_err();
        assert!(
            err.contains("--bench-json") && err.contains("bench"),
            "{err}"
        );
    }

    #[test]
    fn help_flag_is_captured_not_exited() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let a = parse(&[
            "--resume",
            "--job-deadline",
            "2.5",
            "--run-budget",
            "600",
            "--inject-faults",
            "panic@3,corrupt-stats@7",
            "table1",
        ])
        .unwrap();
        assert!(a.resume);
        assert_eq!(a.job_deadline, Some(Duration::from_millis(2500)));
        assert_eq!(a.run_budget, Some(Duration::from_secs(600)));
        let plan = a.faults.unwrap();
        assert!(plan.panics_at(3) && plan.corrupts_stats_at(7));
        assert!(!plan.panics_at(0));
    }

    #[test]
    fn malformed_durations_and_fault_specs_fail_loudly() {
        let err = parse(&["--job-deadline", "soon"]).unwrap_err();
        assert!(
            err.contains("--job-deadline") && err.contains("soon"),
            "{err}"
        );
        let err = parse(&["--run-budget", "-4"]).unwrap_err();
        assert!(err.contains("--run-budget"), "{err}");
        let err = parse(&["--inject-faults", "explode@2"]).unwrap_err();
        assert!(
            err.contains("--inject-faults") && err.contains("explode"),
            "{err}"
        );
        let err = parse(&["--inject-faults"]).unwrap_err();
        assert!(err.contains("--inject-faults requires a value"), "{err}");
    }

    #[test]
    fn job_flags_are_shared_but_resume_is_grid_only() {
        // The job layer runs both the grid and the battery: deadlines,
        // budget and faults are accepted by verify-security too.
        assert!(parse(&[
            "verify-security",
            "--job-deadline",
            "5",
            "--run-budget",
            "60",
            "--inject-faults",
            "panic@0"
        ])
        .is_ok());
        // bench has neither job layer nor store.
        let err = parse(&["bench", "--inject-faults", "panic@0"]).unwrap_err();
        assert!(
            err.contains("--inject-faults") && err.contains("bench"),
            "{err}"
        );
        // --resume reads the stats store, which only the grid has.
        let err = parse(&["verify-security", "--resume"]).unwrap_err();
        assert!(
            err.contains("--resume") && err.contains("verify-security"),
            "{err}"
        );
        let err = parse(&["bench", "--resume"]).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
    }

    #[test]
    fn sweep_flags_parse() {
        let a = parse(&[
            "sweep",
            "--spec",
            "base=mega rob=64,128 scheme=secure",
            "--top",
            "10",
            "--out",
            "/tmp/sweep",
            "--ops",
            "4000",
            "--resume",
        ])
        .unwrap();
        assert_eq!(a.experiments, vec!["sweep"]);
        assert_eq!(
            a.sweep_spec.as_deref(),
            Some("base=mega rob=64,128 scheme=secure")
        );
        assert_eq!(a.top, Some(10));
        assert!(a.resume);
        assert_eq!(a.spec.ops, 4000);
        let a = parse(&["sweep", "--from-manifest", "/tmp/manifest.json"]).unwrap();
        assert_eq!(a.from_manifest, Some(PathBuf::from("/tmp/manifest.json")));
    }

    #[test]
    fn sweep_requires_exactly_one_input() {
        let err = parse(&["sweep"]).unwrap_err();
        assert!(
            err.contains("--spec") && err.contains("--from-manifest"),
            "{err}"
        );
        let err = parse(&[
            "sweep",
            "--spec",
            "base=mega",
            "--from-manifest",
            "/tmp/m.json",
        ])
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn manifest_reruns_reject_overriding_its_parameters() {
        // The manifest records ops and seed; overriding either would
        // silently reproduce a different sweep under the manifest's name.
        let err = parse(&["sweep", "--from-manifest", "/tmp/m.json", "--ops", "9999"]).unwrap_err();
        assert!(
            err.contains("--ops") && err.contains("--from-manifest"),
            "{err}"
        );
        let err = parse(&["sweep", "--from-manifest", "/tmp/m.json", "--seed", "3"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn sweep_flags_are_rejected_outside_sweep() {
        let err = parse(&["table1", "--spec", "base=mega"]).unwrap_err();
        assert!(err.contains("--spec") && err.contains("sweep"), "{err}");
        let err = parse(&["--top", "5"]).unwrap_err();
        assert!(err.contains("--top") && err.contains("sweep"), "{err}");
        let err = parse(&["bench", "--from-manifest", "/tmp/m.json"]).unwrap_err();
        assert!(err.contains("--from-manifest"), "{err}");
        // And sweep rejects flags it would silently ignore.
        let err = parse(&["sweep", "--spec", "base=mega", "--threat-model", "both"]).unwrap_err();
        assert!(err.contains("--threat-model"), "{err}");
        let err = parse(&["sweep", "--spec", "base=mega", "--bench-json", "/tmp/b"]).unwrap_err();
        assert!(err.contains("--bench-json"), "{err}");
    }

    #[test]
    fn sweep_missing_values_fail_loudly() {
        let err = parse(&["sweep", "--spec"]).unwrap_err();
        assert!(err.contains("--spec requires a value"), "{err}");
        let err = parse(&["sweep", "--from-manifest"]).unwrap_err();
        assert!(err.contains("--from-manifest requires a value"), "{err}");
        let err = parse(&["sweep", "--spec", "base=mega", "--top", "many"]).unwrap_err();
        assert!(err.contains("--top") && err.contains("many"), "{err}");
    }

    #[test]
    fn cli_fault_plan_wins_over_the_environment() {
        // job_policy resolution is pure given parsed args with a CLI plan
        // (the env is only consulted when the flag is absent).
        let a = parse(&["--inject-faults", "overrun@1"]).unwrap();
        let policy = job_policy(&a).unwrap();
        assert!(policy.faults.unwrap().overruns_at(1));
    }
}
