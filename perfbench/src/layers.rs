//! Per-layer metrics of the traced run, computed from one repetition's
//! spans and exact counts. Every workload reports every metric; a layer
//! the workload never calls reads 0.

use crate::common::{quantile, RepOutcome};
use crate::spans::{self_times, Span, NO_JOB};
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("uarch.core_run.busy_s", "s"),
    ("uarch.core_run.count", "count"),
    ("uarch.ns_per_op.small", "ns"),
    ("uarch.ns_per_op.medium", "ns"),
    ("uarch.ns_per_op.large", "ns"),
    ("uarch.ns_per_op.mega", "ns"),
    ("uarch.core_new.busy_s", "s"),
    ("uarch.core_new.count", "count"),
    ("uarch.predictor.cost_frac", "frac"),
    ("uarch.sim_cycles", "count"),
    ("uarch.committed", "count"),
    ("uarch.squashed", "count"),
    ("uarch.replay_events", "count"),
    ("uarch.useful_frac", "frac"),
    ("core.scheme_cost.stt-rename.spectre", "ns"),
    ("core.scheme_cost.stt-rename.futuristic", "ns"),
    ("core.scheme_cost.stt-issue.spectre", "ns"),
    ("core.scheme_cost.stt-issue.futuristic", "ns"),
    ("core.scheme_cost.nda.spectre", "ns"),
    ("core.scheme_cost.nda.futuristic", "ns"),
    ("core.taints_applied", "count"),
    ("core.scheme_broadcasts", "count"),
    ("core.delayed_transmitters", "count"),
    ("mem.observer.cost_frac", "frac"),
    ("mem.observer.records", "count"),
    ("mem.prefetches", "count"),
    ("analysis.analyze_kernel.busy_s", "s"),
    ("analysis.analyze_kernel.count", "count"),
    ("analysis.audit_kernel.busy_s", "s"),
    ("workloads.generate.busy_s", "s"),
    ("workloads.fuzz_battery.busy_s", "s"),
    ("workloads.trace_store.load.busy_s", "s"),
    ("workloads.trace_store.save.busy_s", "s"),
    ("isa.encode.busy_s", "s"),
    ("isa.decode.busy_s", "s"),
    ("isa.bytes", "B"),
    ("experiments.stats_store.save.busy_s", "s"),
    ("experiments.stats_store.save.count", "count"),
    ("experiments.stats_store.load.busy_s", "s"),
    ("experiments.stats_store.load.count", "count"),
    ("experiments.stats_store.hit_frac", "frac"),
    ("experiments.jobs.guard_cost_frac", "frac"),
    ("experiments.pool.utilization", "frac"),
    ("experiments.pool.queue_wait_s", "s"),
    ("experiments.pool.tail_s", "s"),
    ("experiments.reports.busy_s", "s"),
    ("stats.bootstrap.busy_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p95", "ms"),
    ("job_ms.p99", "ms"),
    ("job_ms.samples", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Span names whose summed self time and call count are reported as
/// `<name>.busy_s` and `<name>.count`.
const BUSY: &[&str] = &[
    "uarch.core_run",
    "uarch.core_new",
    "analysis.analyze_kernel",
    "analysis.audit_kernel",
    "workloads.generate",
    "workloads.fuzz_battery",
    "workloads.trace_store.load",
    "workloads.trace_store.save",
    "isa.encode",
    "isa.decode",
    "experiments.stats_store.save",
    "experiments.stats_store.load",
    "experiments.reports",
    "stats.bootstrap",
];

/// The span- and count-derived metrics of one traced repetition (job
/// latency, the A/B costs and the tracing overhead are added by the
/// caller, across repetitions).
pub fn rep_metrics(
    spans: &[Span],
    out: &RepOutcome,
    encoded_bytes: u64,
    workers: usize,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let selfs = self_times(spans);
    for name in BUSY {
        let (busy, count) = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == *name)
            .fold((0.0, 0.0), |(b, c), (_, t)| (b + t, c + 1.0));
        m.insert(format!("{name}.busy_s"), busy);
        m.insert(format!("{name}.count"), count);
    }

    let runs: Vec<&Span> = spans.iter().filter(|s| s.sim.is_some()).collect();
    for preset in ["small", "medium", "large", "mega"] {
        let (t, ops) = runs
            .iter()
            .filter(|s| s.sim.as_ref().is_some_and(|a| a.preset == preset))
            .fold((0.0, 0u64), |(t, o), s| {
                (t + s.dur(), o + s.sim.as_ref().map_or(0, |a| a.ops))
            });
        m.insert(format!("uarch.ns_per_op.{preset}"), ns_per(t, ops));
    }
    // Scheme cost: each secure-scheme run minus the Baseline run of the
    // same configuration, trace and threat model, per committed op.
    let baseline: HashMap<&str, f64> = runs
        .iter()
        .filter_map(|s| s.sim.as_ref().map(|a| (s, a)))
        .filter(|(_, a)| a.scheme == "baseline")
        .map(|(s, a)| (a.pair_key.as_str(), s.dur()))
        .collect();
    for scheme in ["stt-rename", "stt-issue", "nda"] {
        for threat in ["spectre", "futuristic"] {
            let (extra, ops) = runs
                .iter()
                .filter_map(|s| s.sim.as_ref().map(|a| (s, a)))
                .filter(|(_, a)| a.scheme == scheme && a.threat == threat)
                .filter_map(|(s, a)| {
                    baseline
                        .get(a.pair_key.as_str())
                        .map(|b| (s.dur() - b, a.ops))
                })
                .fold((0.0, 0u64), |(t, o), (d, n)| (t + d, o + n));
            m.insert(
                format!("core.scheme_cost.{scheme}.{threat}"),
                ns_per(extra, ops),
            );
        }
    }

    let c = &out.counts;
    let counts = [
        ("uarch.sim_cycles", c.sim_cycles),
        ("uarch.committed", c.committed),
        ("uarch.squashed", c.squashed),
        ("uarch.replay_events", c.replay_events),
        ("core.taints_applied", c.taints_applied),
        ("core.scheme_broadcasts", c.scheme_broadcasts),
        ("core.delayed_transmitters", c.delayed_transmitters),
        ("mem.prefetches", c.prefetches),
        ("mem.observer.records", c.observer_records),
        ("isa.bytes", encoded_bytes),
    ];
    for (name, v) in counts {
        m.insert(name.to_string(), v as f64);
    }
    m.insert(
        "uarch.useful_frac".into(),
        ratio(c.committed as f64, (c.committed + c.squashed) as f64),
    );
    m.insert(
        "experiments.stats_store.hit_frac".into(),
        ratio(c.stats_hits as f64, c.stats_loads as f64),
    );

    let (utilization, queue_wait, tail) = pool_metrics(spans, workers);
    m.insert("experiments.pool.utilization".into(), utilization);
    m.insert("experiments.pool.queue_wait_s".into(), queue_wait);
    m.insert("experiments.pool.tail_s".into(), tail);
    m
}

/// Job latencies in ms, for `job_ms.*`.
pub fn job_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == "experiments.job")
        .map(|s| s.dur() * 1e3)
        .collect()
}

/// `job_ms.{p50,p95,p99,samples}` over every job of every traced
/// repetition.
pub fn job_latency(ms: &[f64]) -> [(&'static str, f64); 4] {
    [
        ("job_ms.p50", quantile(ms, 0.5)),
        ("job_ms.p95", quantile(ms, 0.95)),
        ("job_ms.p99", quantile(ms, 0.99)),
        ("job_ms.samples", ms.len() as f64),
    ]
}

/// Over every `run_batch` span: utilization (job time over worker time),
/// queue wait (worker idle time between jobs, and before the first), and
/// tail (batch end minus the moment the first worker ran out of work).
fn pool_metrics(spans: &[Span], workers: usize) -> (f64, f64, f64) {
    let (mut busy, mut capacity, mut wait, mut tail) = (0.0, 0.0, 0.0, 0.0);
    for batch in spans.iter().filter(|s| s.name == "experiments.run_batch") {
        let mut by_thread: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in spans.iter().filter(|s| {
            s.name == "experiments.job"
                && s.job != NO_JOB
                && s.start >= batch.start
                && s.end <= batch.end
        }) {
            by_thread.entry(s.thread).or_default().push(s);
            busy += s.dur();
        }
        {
            capacity += workers as f64 * batch.dur();
        }
        let mut first_idle = batch.end;
        for jobs in by_thread.values_mut() {
            jobs.sort_by(|a, b| a.start.total_cmp(&b.start));
            let mut free_at = batch.start;
            for j in jobs.iter() {
                wait += j.start - free_at;
                free_at = j.end;
            }
            first_idle = first_idle.min(free_at);
        }
        if by_thread.len() < workers {
            first_idle = batch.start;
        }
        tail += batch.end - first_idle;
    }
    (ratio(busy, capacity), wait, tail)
}

fn ns_per(seconds: f64, ops: u64) -> f64 {
    ratio(seconds * 1e9, ops as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
