//! In-memory span recorder for the traced run.
//!
//! A span is one call into a crate's public API: name, start, end, the
//! span that was open on the same thread when it started (its parent), the
//! grid/sweep/security job it belongs to, and the thread that ran it. Spans
//! are only recorded around calls made from this benchmark; nothing inside
//! the crates is instrumented. With the recorder off, [`Tracer::span`] is a
//! plain call.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Job id of a span recorded outside any job.
pub const NO_JOB: u32 = u32::MAX;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static OPEN: Cell<u32> = const { Cell::new(0) };
    static JOB: Cell<u32> = const { Cell::new(NO_JOB) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// What a simulation span ran: enough to group `Core::run` time by
/// configuration preset and to pair each secure-scheme run with the
/// Baseline run of the same configuration, trace and threat model.
#[derive(Clone, Debug, Default)]
pub struct SimAttr {
    /// Configuration, trace and threat model, without the scheme.
    pub pair_key: String,
    /// The preset the configuration derives from (`small` .. `mega`).
    pub preset: &'static str,
    /// Scheme key (`baseline`, `stt-rename`, `stt-issue`, `nda`).
    pub scheme: &'static str,
    /// Threat model label.
    pub threat: &'static str,
    /// Committed micro-ops.
    pub ops: u64,
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u32,
    /// Span open on the same thread when this one started.
    pub parent: u32,
    /// Job index shared by every span of one job, or [`NO_JOB`].
    pub job: u32,
    /// Recording thread.
    pub thread: u32,
    /// `<crate>.<call>` name.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
    /// Present on `uarch.core_run` spans.
    pub sim: Option<SimAttr>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from every thread of one repetition.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, f, |_| None)
    }

    /// Runs a simulation `f` inside a span; only while recording, `attr`
    /// describes what it simulated from `f`'s result.
    pub fn span_sim<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        attr: impl FnOnce(&T) -> SimAttr,
    ) -> T {
        self.record(name, f, |v| Some(attr(v)))
    }

    fn record<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        attr: impl FnOnce(&T) -> Option<SimAttr>,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.replace(id));
        let start = self.epoch.elapsed().as_secs_f64();
        let value = f();
        let end = self.epoch.elapsed().as_secs_f64();
        OPEN.with(|o| o.set(parent));
        let span = Span {
            id,
            parent,
            job: JOB.with(Cell::get),
            thread: THREAD.with(|t| *t),
            name,
            start,
            end,
            sim: attr(&value),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking job")
            .push(span);
        value
    }

    /// Runs job `index` of a batch inside an `experiments.job` span; every
    /// span opened by `f` carries the job id.
    pub fn job<T>(&self, index: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let job = u32::try_from(index).expect("job index fits in u32");
        let outer = JOB.with(|j| j.replace(job));
        let value = self.span("experiments.job", f);
        JOB.with(|j| j.set(outer));
        value
    }

    /// Every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}

/// Self time of every span: its duration minus the part covered by its
/// children (children run on the span's own thread, so they never
/// overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            out[p] -= s.dur();
        }
    }
    out
}

/// Renders spans as JSON lines, one object per span, tagged with the
/// repetition they came from.
pub fn to_json_lines(rep: usize, spans: &[Span], out: &mut String) {
    for s in spans {
        let job = if s.job == NO_JOB {
            "null".to_string()
        } else {
            s.job.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"rep\":{rep},\"id\":{},\"parent\":{},\"job\":{job},\"thread\":{},\
             \"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}",
            s.id, s.parent, s.thread, s.name, s.start, s.end
        );
    }
}
