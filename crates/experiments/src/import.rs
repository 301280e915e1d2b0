//! External-trace import: decode an on-disk SBTR trace and drive the
//! simulator with it.
//!
//! The SBTR codec (`sb_isa::codec`) is the documented interchange format
//! for driving every experiment with real program traces: a tool that can
//! emit the fixed-size record layout (see `docs/ARCHITECTURE.md`, "Trace
//! import format") produces a file this module loads, validates
//! (magic/version/checksum), and runs under any scheme. Version 2 records
//! carry static branch pcs and targets, so imported traces can exercise
//! the modelled frontend predictor and the Spectre-v2 channel family.
//!
//! The CLI face is `sb-experiments import FILE`, which runs the decoded
//! trace under both schedulers and reports the (identical) statistics —
//! a differential check riding along with every import.

use sb_core::{Scheme, SchemeConfig};
use sb_isa::{decode_trace, Trace};
use sb_stats::SimStats;
use sb_uarch::{Core, CoreConfig, SchedulerKind};
use std::path::Path;

/// Cycle budget for an imported run (far above any sample trace's need;
/// a trace that fails to finish is reported, not looped forever).
const MAX_CYCLES: u64 = 100_000_000;

/// The on-disk format version of an encoded trace (bytes 4..8 of the
/// header), for reporting. `None` if the buffer is too short.
#[must_use]
pub(crate) fn encoded_version(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?))
}

/// Runs an imported trace to completion on the mega config.
///
/// # Errors
///
/// Returns a message naming the trace if it does not finish within the
/// cycle budget.
pub(crate) fn run_imported(
    trace: &Trace,
    scheme: Scheme,
    scheduler: SchedulerKind,
) -> Result<SimStats, String> {
    let mut config = CoreConfig::mega();
    config.scheduler = scheduler;
    let scheme_cfg = SchemeConfig::rtl(scheme, config.mem_ports);
    let mut core = Core::new(config, scheme_cfg, trace.clone());
    core.run(MAX_CYCLES);
    if !core.is_done() {
        return Err(format!(
            "trace '{}' did not finish within {MAX_CYCLES} cycles",
            trace.name()
        ));
    }
    Ok(core.stats().clone())
}

/// Imports a trace file, runs it under both schedulers, checks they agree
/// bit-for-bit, and renders a summary report.
///
/// # Errors
///
/// Propagates read/decode/run errors, and reports a scheduler divergence
/// as an error (an imported trace is a differential test case for free).
pub fn import_report(path: &Path, scheme: Scheme) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let version = encoded_version(&bytes).ok_or("trace file shorter than its header")?;
    let trace = decode_trace(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let wheel = run_imported(&trace, scheme, SchedulerKind::EventWheel)?;
    let reference = run_imported(&trace, scheme, SchedulerKind::Reference)?;
    if wheel != reference {
        return Err(format!(
            "imported trace '{}' produced scheduler-dependent statistics",
            trace.name()
        ));
    }
    let blocks = trace.wrong_paths().count();
    Ok(format!(
        "imported '{}' (SBTR v{version}, {} ops, {} wrong-path blocks) under {scheme}\n\
         committed {} ops in {} cycles (IPC {:.3}), {} branch mispredicts\n\
         schedulers agree: event-wheel == reference\n",
        trace.name(),
        trace.len(),
        blocks,
        wheel.committed.get(),
        wheel.cycles.get(),
        wheel.committed.get() as f64 / wheel.cycles.get().max(1) as f64,
        wheel.branch_mispredicts.get(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_isa::encode_trace;

    /// The canonical import sample: a small mixed trace — committed loads and
    /// stores, a trained loop branch with pc/target (forcing SBTR v2), and a
    /// mispredicted branch with a wrong-path block — checked into
    /// `assets/sample-trace.sbtr` and round-tripped by CI.
    fn sample_import_trace() -> Trace {
        use sb_isa::{ArchReg, MicroOp, OpClass, TraceBuilder};
        let x = ArchReg::int;
        let mut b = TraceBuilder::new("sample-import");
        // A short loop body: load, accumulate, taken backward branch.
        for i in 0..4u64 {
            b.load(x(1), x(28), 0x1000_0000 + i * 64, 8);
            b.alu(x(2), Some(x(1)), Some(x(2)));
            b.branch_at(None, None, true, false, 0x400, 0x380);
        }
        // A store and a slow-resolving operand feeding a mispredicted branch.
        b.store(x(28), x(2), 0x1100_0000, 8);
        b.load(x(9), x(28), 0x1200_0000, 8);
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        let br = b.branch_at(Some(x(9)), None, true, true, 0x440, 0x500);
        b.wrong_path(
            br,
            vec![
                MicroOp::load(x(3), x(2), 0x1300_0000, 8),
                MicroOp::alu(x(4), Some(x(3)), None),
            ],
        );
        b.alu(x(5), None, None);
        b.build()
    }

    /// The exact bytes `assets/sample-trace.sbtr` must contain.
    fn sample_import_bytes() -> Vec<u8> {
        encode_trace(&sample_import_trace())
    }

    #[test]
    fn sample_trace_needs_format_v2() {
        let bytes = sample_import_bytes();
        assert_eq!(
            encoded_version(&bytes),
            Some(sb_isa::TRACE_FORMAT_VERSION),
            "branch pcs force the v2 record layout"
        );
    }

    #[test]
    fn import_round_trip_reproduces_identical_stats() {
        let trace = sample_import_trace();
        let bytes = encode_trace(&trace);
        let dir = std::env::temp_dir().join(format!("sb-import-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sbtr");
        std::fs::write(&path, &bytes).unwrap();

        let imported = decode_trace(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(imported, trace, "decode(encode(t)) == t");
        for scheme in Scheme::all() {
            let twin = run_imported(&trace, scheme, SchedulerKind::EventWheel).unwrap();
            let from_disk = run_imported(&imported, scheme, SchedulerKind::EventWheel).unwrap();
            assert_eq!(
                twin, from_disk,
                "{scheme}: imported stats must be identical"
            );
        }
        let report = import_report(&path, Scheme::Baseline).unwrap();
        assert!(report.contains("sample-import"), "{report}");
        assert!(report.contains("SBTR v2"), "{report}");
        assert!(report.contains("schedulers agree"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checked_in_sample_matches_the_generator() {
        // CI's import smoke runs against `assets/sample-trace.sbtr`; this
        // pins the file to the generator so neither can drift silently.
        // Regenerate with SB_WRITE_SAMPLE=1 after changing the sample.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../assets")
            .join("sample-trace.sbtr");
        let expected = sample_import_bytes();
        if std::env::var_os("SB_WRITE_SAMPLE").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &expected).unwrap();
        }
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with SB_WRITE_SAMPLE=1)",
                path.display()
            )
        });
        assert_eq!(
            on_disk, expected,
            "checked-in sample drifted from sample_import_trace()"
        );
    }

    #[test]
    fn import_rejects_garbage_and_missing_files() {
        let err =
            import_report(Path::new("/nonexistent/sample.sbtr"), Scheme::Baseline).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let dir = std::env::temp_dir().join(format!("sb-import-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.sbtr");
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = import_report(&path, Scheme::Baseline).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
