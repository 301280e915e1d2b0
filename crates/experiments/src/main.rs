//! `sb-experiments`: regenerate every table and figure of the paper,
//! explore the design space, or verify the security property.
//!
//! ```text
//! sb-experiments [--ops N] [--seed S] [--out DIR] [--no-trace-cache] [--resume]
//!                [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]
//!                [EXPERIMENT...]
//! sb-experiments verify-security [--out DIR] [--threat-model spectre|futuristic|both]
//!                [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]
//! sb-experiments analyze-security [--out DIR] [--threat-model spectre|futuristic|both]
//!                [--self-check] [--perturb-claim SCENARIO]
//! sb-experiments sweep (--spec SPEC | --from-manifest PATH) [--top N] [--out DIR]
//!                [--ops N] [--seed S] [--no-trace-cache] [--resume]
//!                [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]
//! sb-experiments import FILE.sbtr [--scheme baseline|stt-rename|stt-issue|nda]
//! ```
//!
//! Experiments: `table1 fig6 fig7 fig8 fig9 fig10 table3 table4 table5
//! sec92 security` (`fig1` is an alias of `table3`) or `all` (default).
//! CSVs land in `--out` (default `results/`).
//!
//! The command line is read against two tables. `FLAGS` declares each
//! flag once: its name, whether it takes a value, and the commands that
//! own it (the experiment run, `sweep`, `verify-security`,
//! `analyze-security`, `import`). A flag given to a command that does not
//! own it is a usage error, never silently ignored. `EXPERIMENTS`
//! declares each experiment once, in `all`'s output order: the names that
//! select it, and a report builder whose kind says whether the grid must
//! be simulated first. Unknown experiment names and malformed flag values
//! are hard errors too; every usage error exits 2.
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
//! skipped with a per-report error and the process exits 1. Every job runs
//! exactly once. `--inject-faults panic@I,overrun@I,corrupt-stats@I`
//! deterministically injects faults at job index I to exercise exactly
//! that machinery.
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
//!
//! `import` (which must be the first argument) decodes an external SBTR
//! trace file and runs it under both schedulers, which must agree.

use sb_core::{Scheme, ThreatModel};
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
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;
use Build::{Grid, Plain};
use Command::{AnalyzeSecurity, Import, Run, Sweep, VerifySecurity};
use Takes::{Nothing, Value};

const USAGE: &str =
    "usage: sb-experiments [--ops N] [--seed S] [--out DIR] [--no-trace-cache] [--resume]\n\
     \x20                     [--job-deadline SECS] [--run-budget SECS] [--inject-faults SPEC]\n\
     \x20                     [EXPERIMENT...]\n\
     experiments: table1 fig1 fig6 fig7 fig8 fig9 fig10 table3 table4 table5 sec92 security all\n\
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
     fault spec: comma-separated panic@I | overrun@I | corrupt-stats@I";

/// What one invocation runs: a list of experiments, or one subcommand,
/// which runs alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Command {
    #[default]
    Run,
    Sweep,
    VerifySecurity,
    AnalyzeSecurity,
    Import,
}

impl Command {
    /// The subcommands that may appear anywhere among the experiment names
    /// (`import` must be the first argument instead), in the order their
    /// presence is checked.
    const ANYWHERE: [Command; 3] = [VerifySecurity, AnalyzeSecurity, Sweep];

    fn name(self) -> &'static str {
        match self {
            Run => "run",
            Sweep => "sweep",
            VerifySecurity => "verify-security",
            AnalyzeSecurity => "analyze-security",
            Import => "import",
        }
    }
}

#[derive(Debug, Default)]
struct Args {
    command: Command,
    spec: RunSpec,
    out: PathBuf,
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
    trace_file: Option<PathBuf>,
    scheme: Scheme,
    help: bool,
}

/// What a flag consumes from the command line.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: a switch that sets its field.
    Nothing(fn(&mut Args)),
    /// The next argument, parsed into its field; `Err` says what is wrong
    /// with the value.
    Value(fn(&mut Args, &str) -> Result<(), String>),
}

/// One command-line flag. It is accepted only by its `owners`; anywhere
/// else it would be silently ignored, so it is a usage error.
struct Flag {
    name: &'static str,
    takes: Takes,
    owners: &'static [Command],
}

/// Every flag, each declared once. The row order is the order the
/// "accepted flags" hint lists them in.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--spec", takes: Value(|a, v| parse(v).map(|s| a.sweep_spec = Some(s))), owners: &[Sweep] },
    Flag { name: "--from-manifest", takes: Value(|a, v| parse(v).map(|p| a.from_manifest = Some(p))), owners: &[Sweep] },
    Flag { name: "--top", takes: Value(|a, v| parse(v).map(|n| a.top = Some(n))), owners: &[Sweep] },
    Flag { name: "--out", takes: Value(|a, v| parse(v).map(|p| a.out = p)), owners: &[Run, Sweep, VerifySecurity, AnalyzeSecurity] },
    Flag { name: "--ops", takes: Value(|a, v| parse(v).map(|n| a.spec.ops = n)), owners: &[Run, Sweep] },
    Flag { name: "--seed", takes: Value(|a, v| parse(v).map(|n| a.spec.seed = n)), owners: &[Run, Sweep] },
    Flag { name: "--threat-model", takes: Value(|a, v| threat_models(v).map(|m| a.threat_models = m)), owners: &[VerifySecurity, AnalyzeSecurity] },
    Flag { name: "--self-check", takes: Nothing(|a| a.self_check = true), owners: &[AnalyzeSecurity] },
    Flag { name: "--perturb-claim", takes: Value(|a, v| parse(v).map(|s| a.perturb_claim = Some(s))), owners: &[AnalyzeSecurity] },
    Flag { name: "--no-trace-cache", takes: Nothing(|a| a.no_trace_cache = true), owners: &[Run, Sweep] },
    Flag { name: "--resume", takes: Nothing(|a| a.resume = true), owners: &[Run, Sweep] },
    Flag { name: "--job-deadline", takes: Value(|a, v| secs(v).map(|d| a.job_deadline = Some(d))), owners: &[Run, Sweep, VerifySecurity] },
    Flag { name: "--run-budget", takes: Value(|a, v| secs(v).map(|d| a.run_budget = Some(d))), owners: &[Run, Sweep, VerifySecurity] },
    Flag { name: "--inject-faults", takes: Value(|a, v| FaultPlan::parse(v).map(|p| a.faults = Some(p))), owners: &[Run, Sweep, VerifySecurity] },
    Flag { name: "--scheme", takes: Value(|a, v| v.parse().map(|s| a.scheme = s)), owners: &[Import] },
];

type Built = Result<Report, ExperimentError>;

/// How an experiment's report is built: from the simulated grid (which
/// the run then simulates first) or from the configurations and run spec
/// alone.
#[derive(Clone, Copy)]
enum Build {
    Grid(fn(&GridResults, &[CoreConfig], &RunSpec) -> Built),
    Plain(fn(&[CoreConfig], &RunSpec) -> Built),
}

/// One paper artifact: the names that select it (the first names it in
/// messages) and its builder.
struct Experiment {
    names: &'static [&'static str],
    build: Build,
}

/// Every experiment, each declared once, in `all`'s output order.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment { names: &["table1"], build: Grid(|g, c, _| table1_report(g, c)) },
    Experiment { names: &["fig6"], build: Grid(|g, _, _| fig6_report(g)) },
    Experiment { names: &["fig7"], build: Grid(|g, _, _| fig7_report(g)) },
    Experiment { names: &["fig8"], build: Grid(|g, _, _| fig8_report(g)) },
    Experiment { names: &["fig9"], build: Plain(|c, _| fig9_report(c)) },
    Experiment { names: &["fig10"], build: Grid(|g, c, _| fig10_report(g, c)) },
    Experiment { names: &["table3", "fig1"], build: Grid(|g, c, _| fig1_table3_report(g, c)) },
    Experiment { names: &["table4"], build: Plain(|_, s| Ok(table4_report(s))) },
    Experiment { names: &["table5"], build: Grid(|g, _, s| table5_report(g, s)) },
    Experiment { names: &["sec92"], build: Plain(|_, s| Ok(sec92_report(s))) },
    Experiment { names: &["security"], build: Plain(|_, _| Ok(security_report())) },
];

/// Parses a flag value; the error quotes it, so `--ops garbage` names both.
fn parse<T: FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("'{raw}'"))
}

/// Parses a duration given in (possibly fractional) seconds.
fn secs(raw: &str) -> Result<Duration, String> {
    let secs: f64 = parse(raw)?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("'{secs}' (want non-negative seconds)"));
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Parses `--threat-model`'s value: a single model name or `both`. The
/// security axis must never silently fall back to a default model.
fn threat_models(raw: &str) -> Result<Vec<ThreatModel>, String> {
    match raw {
        "both" => Ok(ThreatModel::all().to_vec()),
        one => one.parse().map(|m| vec![m]),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        out: PathBuf::from("results"),
        threat_models: ThreatModel::all().to_vec(),
        ..Args::default()
    };
    let mut it = args.into_iter().peekable();
    if it.next_if(|first| first == "import").is_some() {
        a.command = Import;
    }
    let mut given: Vec<&Flag> = Vec::new();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            a.help = true;
        } else if arg.starts_with('-') {
            let flag = FLAGS
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            match flag.takes {
                Nothing(set) => set(&mut a),
                Value(set) => {
                    let value = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                    set(&mut a, &value).map_err(|why| format!("invalid value for {arg}: {why}"))?;
                }
            }
            given.push(flag);
        } else if a.command == Import {
            if a.trace_file.replace(PathBuf::from(arg)).is_some() {
                return Err("'import' takes exactly one trace file".into());
            }
        } else if arg == "import" {
            return Err("'import' must be the first argument".into());
        } else if arg == "all"
            || EXPERIMENTS.iter().any(|x| x.names.contains(&arg.as_str()))
            || Command::ANYWHERE.iter().any(|c| c.name() == arg)
        {
            a.experiments.push(arg);
        } else {
            let names: Vec<&str> = std::iter::once("all")
                .chain(EXPERIMENTS.iter().flat_map(|x| x.names.iter().copied()))
                .collect();
            let subs: Vec<&str> = Command::ANYWHERE.iter().map(|c| c.name()).collect();
            return Err(format!(
                "unknown experiment '{arg}' (expected one of: {} — or a subcommand: {})",
                names.join(" "),
                subs.join(", ")
            ));
        }
    }
    if a.command != Import {
        if a.experiments.is_empty() {
            a.experiments.push("all".to_string());
        }
        let named = |c: &Command| a.experiments.iter().any(|e| e == c.name());
        if let Some(sub) = Command::ANYWHERE.into_iter().find(named) {
            if a.experiments.len() > 1 {
                return Err(format!(
                    "'{}' is a subcommand and cannot be combined with other experiments \
                     (got: {})",
                    sub.name(),
                    a.experiments.join(" ")
                ));
            }
            a.command = sub;
        }
    }
    if let Some(flag) = given.iter().find(|f| !f.owners.contains(&a.command)) {
        return Err(match a.command {
            Run => format!(
                "{} only applies to the '{}' subcommand (got: {})",
                flag.name,
                flag.owners[0].name(),
                a.experiments.join(" ")
            ),
            sub => {
                let accepted: Vec<&str> = FLAGS
                    .iter()
                    .filter(|f| f.owners.contains(&sub))
                    .map(|f| f.name)
                    .collect();
                format!(
                    "{} has no effect with '{}' (accepted flags: {})",
                    flag.name,
                    sub.name(),
                    accepted.join(" ")
                )
            }
        });
    }
    // Relations between flags, as opposed to ownership. --perturb-claim is
    // the audit's negative-path smoke: it only makes sense alongside
    // --self-check, the mode whose job is to prove the audit trips.
    if a.perturb_claim.is_some() && !a.self_check {
        return Err(
            "--perturb-claim requires --self-check (it deliberately corrupts a \
                    claim to prove the audit fails)"
                .into(),
        );
    }
    // The sweep's inputs name the same run two ways: a manifest *is* the
    // spec+ops+seed bundle, so combining it with any of them would
    // silently reproduce something else.
    if a.command == Sweep {
        match (&a.sweep_spec, &a.from_manifest) {
            (Some(_), Some(_)) => {
                return Err("--spec and --from-manifest are mutually exclusive".into())
            }
            (None, None) => return Err("'sweep' requires --spec or --from-manifest".into()),
            (None, Some(_)) => {
                let overridden = ["--ops", "--seed"]
                    .into_iter()
                    .find(|name| given.iter().any(|f| f.name == *name));
                if let Some(name) = overridden {
                    return Err(format!(
                        "{name} conflicts with --from-manifest (the manifest records its own \
                         parameters)"
                    ));
                }
            }
            (Some(_), None) => {}
        }
    }
    if a.command == Import && a.trace_file.is_none() && !a.help {
        return Err("'import' requires a trace file (e.g. assets/sample-trace.sbtr)".into());
    }
    Ok(a)
}

/// Reports a usage error and exits 2, the code of every malformed
/// invocation.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Creates `out`, writes every report's CSVs into it, and says where.
fn write_reports<'a>(out: &Path, reports: impl IntoIterator<Item = &'a Report>) {
    std::fs::create_dir_all(out).expect("create output dir");
    for report in reports {
        for (name, csv) in &report.csv {
            std::fs::write(out.join(name), csv).expect("write csv");
        }
    }
    eprintln!("CSV written to {}", out.display());
}

/// Builds the job policy from the CLI flags.
fn job_policy(args: &Args) -> JobPolicy {
    JobPolicy {
        job_deadline: args.job_deadline,
        run_budget: args.run_budget,
        faults: args.faults.clone(),
        ..JobPolicy::default()
    }
}

/// The threat models of a security run, as `spectre+futuristic`.
fn model_list(args: &Args) -> String {
    let names: Vec<String> = args.threat_models.iter().map(ToString::to_string).collect();
    names.join("+")
}

/// The `verify-security` subcommand: leak matrix + hard verdict.
fn run_verify_security(args: &Args, policy: &JobPolicy) -> bool {
    eprintln!(
        "verifying security: 11-scenario attack battery x 4 schemes x 2 schedulers x {}...",
        model_list(args)
    );
    let battery = sb_workloads::attack_battery(BATTERY_SECRET);
    let verdict = verify_security_with(&battery, &args.threat_models, policy);
    let report = security_matrix_report(&verdict);
    println!("{}", report.text);
    write_reports(&args.out, [&report]);
    verdict.ok()
}

/// The `analyze-security` subcommand: the static must/may matrix plus the
/// claims audit — zero cycles simulated.
fn run_analyze_security(args: &Args) -> bool {
    eprintln!(
        "analyzing security statically: 11-scenario attack battery x 4 schemes x {}, \
         zero simulations...",
        model_list(args)
    );
    let mut battery = sb_workloads::attack_battery(BATTERY_SECRET);
    if let Some(scenario) = &args.perturb_claim {
        if !perturb_battery_claim(&mut battery, scenario) {
            usage_error(&format!(
                "--perturb-claim: no battery scenario named '{scenario}'"
            ));
        }
        eprintln!("perturbed the '{scenario}' claim constants: this run must now fail");
    }
    let verdict = analyze_battery(&battery, &args.threat_models);
    let report = static_matrix_report(&verdict);
    println!("{}", report.text);
    write_reports(&args.out, [&report]);
    let mut ok = verdict.ok();
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
    ok
}

/// The `sweep` subcommand: expand the spec (or re-load it from a
/// manifest), run every design point over the memoized job layer, and
/// write the ranked leaderboard plus the reproduction manifest.
fn run_sweep_command(args: &Args, policy: &JobPolicy) -> bool {
    let (spec, run) = match &args.from_manifest {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                usage_error(&format!("cannot read manifest {}: {e}", path.display()))
            });
            let params = parse_manifest(&text)
                .unwrap_or_else(|e| usage_error(&format!("{}: {e}", path.display())));
            let run = RunSpec {
                ops: params.ops,
                seed: params.seed,
            };
            (params.spec, run)
        }
        None => {
            let raw = args.sweep_spec.as_deref().expect("enforced at parse");
            let spec = SweepSpec::parse(raw)
                .unwrap_or_else(|e| usage_error(&format!("invalid --spec: {e}")));
            (spec, args.spec.clone())
        }
    };
    // Expand early so a spec that only fails at expansion (invalid point,
    // cross-product explosion) is still a parse error, not a late abort.
    let points = spec
        .points()
        .unwrap_or_else(|e| usage_error(&format!("invalid sweep: {e}")));
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
    let outcome = run_sweep(&spec, &run, &opts)
        .unwrap_or_else(|e| usage_error(&format!("invalid sweep: {e}")));
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
    }
    outcome.report.ok()
}

/// The `import` subcommand: decode an external SBTR trace file, run it
/// under both schedulers (they must agree), print the summary.
fn run_import(args: &Args) -> bool {
    let file = args.trace_file.as_deref().expect("enforced at parse");
    match sb_experiments::import::import_report(file, args.scheme) {
        Ok(report) => {
            print!("{report}");
            true
        }
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

/// The experiments `names` select, each once and in `all`'s order.
fn select(names: &[String]) -> Vec<&'static Experiment> {
    let all = names.iter().any(|n| n == "all");
    EXPERIMENTS
        .iter()
        .filter(|x| all || x.names.iter().any(|n| names.iter().any(|e| e == n)))
        .collect()
}

/// The experiment run: simulate the grid if a selected report needs it,
/// then build, print and write every selected report.
fn run_experiments(args: &Args, policy: &JobPolicy) -> bool {
    let selected = select(&args.experiments);
    let mut degraded = false;
    let configs = CoreConfig::boom_sweep();
    let needs_grid = selected.iter().any(|x| matches!(x.build, Grid(_)));
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

    // Each report renders independently: a grid degraded by failed jobs
    // takes down only the reports whose data is missing; the rest still
    // print and write their CSVs.
    let mut reports: Vec<Report> = Vec::new();
    let mut report_errors: Vec<String> = Vec::new();
    for x in selected {
        let built = match x.build {
            Grid(build) => build(
                grid.as_ref().expect("simulated for grid reports"),
                &configs,
                &args.spec,
            ),
            Plain(build) => build(&configs, &args.spec),
        };
        match built {
            Ok(report) => reports.push(report),
            Err(e) => report_errors.push(format!("{}: {e}", x.names[0])),
        }
    }
    for r in &reports {
        println!("{}\n", r.text);
    }
    write_reports(&args.out, &reports);
    for e in &report_errors {
        eprintln!("report skipped: {e}");
    }
    if degraded || !report_errors.is_empty() {
        eprintln!("run degraded: rerun with --resume to fill in the missing points");
        return false;
    }
    true
}

fn main() {
    let args = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| usage_error(&format!("{e}\n{USAGE}")));
    if args.help {
        println!("{USAGE}");
        return;
    }
    let ok = match args.command {
        Import => run_import(&args),
        command => {
            if args.no_trace_cache {
                std::env::set_var(sb_workloads::TRACE_CACHE_ENV, "0");
            }
            let policy = job_policy(&args);
            match command {
                VerifySecurity => run_verify_security(&args, &policy),
                AnalyzeSecurity => run_analyze_security(&args),
                Sweep => run_sweep_command(&args, &policy),
                Run => run_experiments(&args, &policy),
                Import => unreachable!("handled by the outer match"),
            }
        }
    };
    if !ok {
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
        assert_eq!(a.out, PathBuf::from("results"));
    }

    #[test]
    fn valid_flags_parse() {
        let a = parse(&["--ops", "5000", "--seed", "9", "--out", "/tmp/x", "table1"]).unwrap();
        assert_eq!(a.spec.ops, 5000);
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
        for word in ["serve", "submit", "bench"] {
            let err = parse(&[word]).unwrap_err();
            assert!(
                err.contains(&format!("unknown experiment '{word}'")),
                "{err}"
            );
        }
        let err = parse(&["--bench-json", "/tmp/b.json"]).unwrap_err();
        assert!(err.contains("unknown flag --bench-json"), "{err}");
    }

    #[test]
    fn subcommands_are_recognized() {
        assert_eq!(
            parse(&["analyze-security"]).unwrap().experiments,
            vec!["analyze-security"]
        );
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
        let err = parse(&["analyze-security", "table1"]).unwrap_err();
        assert!(err.contains("analyze-security"), "{err}");
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
        // verify-security never reads a workload trace.
        let err = parse(&["verify-security", "--no-trace-cache"]).unwrap_err();
        assert!(
            err.contains("--no-trace-cache") && err.contains("verify-security"),
            "{err}"
        );
        // Each subcommand's own flags still parse.
        assert!(parse(&["verify-security", "--out", "/tmp/x"]).is_ok());
        assert!(parse(&["sweep", "--spec", "base=mega", "--ops", "4000"]).is_ok());
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
        let err = parse(&["sweep", "--spec", "base=mega", "--threat-model", "both"]).unwrap_err();
        assert!(
            err.contains("--threat-model") && err.contains("sweep"),
            "{err}"
        );
        // Regression: plain experiment runs used to swallow the flag
        // silently — `security --threat-model futuristic` ran the
        // security experiment under the default model.
        let err = parse(&["security", "--threat-model", "futuristic"]).unwrap_err();
        assert!(
            err.contains("--threat-model") && err.contains("verify-security"),
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
        // analyze-security has neither job layer nor store.
        let err = parse(&["analyze-security", "--inject-faults", "panic@0"]).unwrap_err();
        assert!(
            err.contains("--inject-faults") && err.contains("analyze-security"),
            "{err}"
        );
        // --resume reads the stats store, which only the grid has.
        let err = parse(&["verify-security", "--resume"]).unwrap_err();
        assert!(
            err.contains("--resume") && err.contains("verify-security"),
            "{err}"
        );
        let err = parse(&["analyze-security", "--resume"]).unwrap_err();
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
        let err = parse(&["verify-security", "--from-manifest", "/tmp/m.json"]).unwrap_err();
        assert!(err.contains("--from-manifest"), "{err}");
        // And sweep rejects flags it would silently ignore.
        let err = parse(&["sweep", "--spec", "base=mega", "--threat-model", "both"]).unwrap_err();
        assert!(err.contains("--threat-model"), "{err}");
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
    fn import_parses_through_the_same_table() {
        let a = parse(&["import", "t.sbtr", "--scheme", "nda"]).unwrap();
        assert_eq!(a.command, Command::Import);
        assert_eq!(a.trace_file, Some(PathBuf::from("t.sbtr")));
        assert_eq!(a.scheme, Scheme::Nda);
        let a = parse(&["import", "--scheme", "stt-issue", "t.sbtr"]).unwrap();
        assert_eq!(a.scheme, Scheme::SttIssue);
        assert_eq!(
            parse(&["import", "t.sbtr"]).unwrap().scheme,
            Scheme::Baseline
        );
    }

    #[test]
    fn import_argument_errors_are_returned() {
        let err = parse(&["import"]).unwrap_err();
        assert!(err.contains("'import' requires a trace file"), "{err}");
        let err = parse(&["import", "a.sbtr", "b.sbtr"]).unwrap_err();
        assert!(err.contains("exactly one trace file"), "{err}");
        let err = parse(&["import", "a.sbtr", "--scheme", "fast"]).unwrap_err();
        assert!(err.contains("--scheme") && err.contains("'fast'"), "{err}");
        assert!(err.contains("stt-rename"), "lists the valid names: {err}");
        let err = parse(&["import", "a.sbtr", "--scheme"]).unwrap_err();
        assert!(err.contains("--scheme requires a value"), "{err}");
        let err = parse(&["import", "a.sbtr", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        let err = parse(&["import", "a.sbtr", "--ops", "5"]).unwrap_err();
        assert!(err.contains("--ops") && err.contains("'import'"), "{err}");
        assert!(parse(&["import", "--help"]).unwrap().help);
        assert!(parse(&["import", "-h"]).unwrap().help);
        // The import-only flag is rejected everywhere else.
        let err = parse(&["--scheme", "nda"]).unwrap_err();
        assert!(
            err.contains("--scheme") && err.contains("'import'"),
            "{err}"
        );
    }

    #[test]
    fn usage_lists_each_flag_under_exactly_its_owners() {
        let synopsis = USAGE.split("\nsweep spec:").next().unwrap();
        let sections: Vec<&str> = synopsis.split("\nor: ").collect();
        assert_eq!(sections.len(), 5, "{synopsis}");
        for section in sections {
            let command = [Sweep, VerifySecurity, AnalyzeSecurity, Import]
                .into_iter()
                .find(|c| section.starts_with(&format!("sb-experiments {} ", c.name())))
                .unwrap_or(Run);
            for flag in FLAGS {
                assert_eq!(
                    section.contains(flag.name),
                    flag.owners.contains(&command),
                    "{} in the '{}' synopsis",
                    flag.name,
                    command.name()
                );
            }
        }
        let listed: Vec<&str> = USAGE
            .lines()
            .find_map(|l| l.strip_prefix("experiments: "))
            .unwrap()
            .split(' ')
            .collect();
        for name in EXPERIMENTS.iter().flat_map(|x| x.names) {
            assert!(listed.contains(name), "{name} missing from the usage text");
        }
        assert!(listed.contains(&"all"));
    }

    #[test]
    fn fig1_is_an_alias_that_selects_table3_once() {
        let names = |args: &[&str]| -> Vec<&str> {
            let a = parse(args).unwrap();
            select(&a.experiments).iter().map(|x| x.names[0]).collect()
        };
        assert_eq!(names(&["fig1"]), ["table3"]);
        assert_eq!(names(&["table3", "fig1"]), ["table3"]);
        assert_eq!(names(&["sec92", "table1"]), ["table1", "sec92"]);
        assert_eq!(names(&[]).len(), EXPERIMENTS.len());
    }
}
