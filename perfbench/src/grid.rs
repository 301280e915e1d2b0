//! The SPEC-profile job path shared by `paper-all` and `dse-sweep`: fill
//! the scratch trace store, run the jobs through the job pool with a span
//! around each public call (traced run), and read every point back from
//! the stats store to check it and fold it into the digest.

use crate::common::{Checks, Counts, Digest, Dirs, MAX_CYCLES};
use crate::spans::{SimAttr, Tracer};
use sb_core::SchemeConfig;
use sb_experiments::{jobs, JobFailure, JobPolicy, StatsStore};
use sb_isa::{decode_trace, encode_trace, Trace};
use sb_uarch::{Core, CoreConfig};
use sb_workloads::{generate, TraceStore, WorkloadProfile};
use std::sync::OnceLock;

/// One trace the workload simulates: a profile at a seed.
pub struct TraceSlot {
    pub profile: WorkloadProfile,
    pub seed: u64,
}

/// One simulation job, keyed exactly as the engine keys it in both stores.
pub struct SimJob {
    pub label: String,
    pub config: CoreConfig,
    pub scheme: SchemeConfig,
    /// Index into the workload's trace slots.
    pub slot: usize,
    /// Stats-store fingerprint.
    pub fp: u64,
}

/// Generates, encodes and writes every slot's trace into `dirs.traces`.
/// Returns the encoded bytes (counted only while tracing).
pub fn fill_traces(slots: &[TraceSlot], ops: usize, dirs: &Dirs, tr: &Tracer) -> u64 {
    let store = TraceStore::new(&dirs.traces);
    let mut bytes = 0;
    for s in slots {
        let trace = tr.span("workloads.generate", || generate(&s.profile, ops, s.seed));
        if tr.on() {
            bytes += tr.span("isa.encode", || encode_trace(&trace).len()) as u64;
        }
        tr.span("workloads.trace_store.save", || {
            store.save(&trace, s.seed, s.profile.fingerprint())
        })
        .expect("write the scratch trace store");
    }
    bytes
}

/// Loads one slot's trace from the scratch store; while tracing, also
/// times a bare decode of the same file (`isa.decode`).
fn load_slot(slot: &TraceSlot, ops: usize, store: &TraceStore, tr: &Tracer) -> Option<Trace> {
    let fp = slot.profile.fingerprint();
    let trace = tr.span("workloads.trace_store.load", || {
        store.load(slot.profile.name, ops, slot.seed, fp)
    });
    if tr.on() {
        let bytes = std::fs::read(store.path_for(slot.profile.name, ops, slot.seed, fp));
        if let Ok(bytes) = bytes {
            let _ = tr.span("isa.decode", || decode_trace(&bytes));
        }
    }
    trace
}

/// The traced job loop: the same calls the engine's grid and sweep runners
/// make (`run_batch` → trace-store load → `Core::new` → `Core::run` →
/// `StatsStore::save`), one span each. Returns the number of failed jobs.
pub fn run_traced(
    jobs_list: &[SimJob],
    slots: &[TraceSlot],
    ops: usize,
    dirs: &Dirs,
    tr: &Tracer,
) -> usize {
    let traces = TraceStore::new(&dirs.traces);
    let stats = StatsStore::new(&dirs.stats);
    let loaded: Vec<OnceLock<Option<Trace>>> = slots.iter().map(|_| OnceLock::new()).collect();
    let labels: Vec<String> = jobs_list.iter().map(|j| j.label.clone()).collect();
    let report = tr.span("experiments.run_batch", || {
        jobs::run_batch(&labels, &JobPolicy::default(), |ctx| {
            tr.job(ctx.index, || {
                let job = &jobs_list[ctx.index];
                let slot = &slots[job.slot];
                let trace = loaded[job.slot]
                    .get_or_init(|| load_slot(slot, ops, &traces, tr))
                    .clone()
                    .ok_or_else(|| JobFailure::permanent("trace missing from the scratch store"))?;
                let mut core = tr.span("uarch.core_new", || {
                    Core::new(job.config.clone(), job.scheme, trace)
                });
                core.set_cancel_token(ctx.cancel.clone());
                tr.span_sim(
                    "uarch.core_run",
                    || core.run(MAX_CYCLES).committed.get(),
                    |&ops| SimAttr {
                        pair_key: format!(
                            "{}/{}/{}",
                            job.config.name,
                            job.slot,
                            job.scheme.threat_model.label()
                        ),
                        preset: crate::common::preset_of(job.config.name),
                        scheme: crate::common::scheme_key(job.scheme.scheme),
                        threat: job.scheme.threat_model.label(),
                        ops,
                    },
                );
                if core.interrupted() {
                    return Err(ctx.interruption());
                }
                if !core.is_done() {
                    return Err(JobFailure::permanent("did not finish"));
                }
                let result = core.stats().clone();
                // A failed save is a cache bypass, never a job failure (as
                // in the engine); the read-back check below catches it.
                let _ = tr.span("experiments.stats_store.save", || {
                    stats.save(slot.profile.name, ops, slot.seed, job.fp, &result)
                });
                Ok(())
            })
        })
    });
    report.failures.len()
}

/// Reads every job's `SimStats` back from the stats store, in run order:
/// each must be present and have committed exactly `ops` micro-ops. Folds
/// each into the digest and the simulated counts.
pub fn read_back(
    jobs_list: &[SimJob],
    slots: &[TraceSlot],
    ops: usize,
    dirs: &Dirs,
    tr: &Tracer,
    checks: &mut Checks,
) -> (Counts, u64) {
    let store = StatsStore::new(&dirs.stats);
    let mut counts = Counts::default();
    let mut digest = Digest::new();
    for job in jobs_list {
        let slot = &slots[job.slot];
        let loaded = tr.span("experiments.stats_store.load", || {
            store.load(slot.profile.name, ops, slot.seed, job.fp)
        });
        counts.stats_loads += 1;
        counts.stats_hits += u64::from(loaded.is_some());
        let committed = loaded.as_ref().map(|s| s.committed.get());
        checks.check(committed == Some(ops as u64), || {
            format!("{}: committed {committed:?}, want {ops}", job.label)
        });
        if let Some(s) = loaded {
            digest.add(slot.profile.name, &s);
            counts.add(&s);
        }
    }
    (counts, digest.value())
}

/// Number of entries in a directory (0 when it does not exist).
pub fn entries(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, Iterator::count)
}
