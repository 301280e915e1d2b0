//! End-to-end resumability through the real CLI binary: a run killed
//! partway (simulated with deterministic fault injection) leaves a
//! partial stats cache behind; rerunning with `--resume` simulates only
//! the missing points and produces CSVs byte-identical to an
//! uninterrupted run's. A second `--resume` over the now-complete cache
//! performs zero simulations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sb-experiments");

/// Grid size the CLI always runs: 4 configs x 4 schemes x 22 benchmarks.
const TOTAL: usize = 352;

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        let root = std::env::temp_dir().join(format!("sb-resume-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Scratch { root }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Runs the binary against one stats cache and output dir, with a
    /// fully pinned environment (no ambient cache variables).
    fn run(&self, stats: &str, out: &str, extra: &[&str]) -> Output {
        Command::new(BIN)
            .args(["--ops", "600", "--seed", "7", "table1", "fig6"])
            .args(["--out", self.dir(out).to_str().unwrap()])
            .args(extra)
            .env("SB_STATS_CACHE", self.dir(stats))
            // One shared trace cache: traces are content-addressed and
            // identical across runs, so this only saves generation time.
            .env("SB_TRACE_CACHE", self.dir("traces"))
            .output()
            .expect("spawn sb-experiments")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name))
        .unwrap_or_else(|e| panic!("missing {name} in {}: {e}", dir.display()))
}

#[test]
fn killed_run_resumes_to_byte_identical_csvs() {
    let scratch = Scratch::new();

    // Reference: one uninterrupted run, its own stats cache.
    let reference = scratch.run("stats-ref", "out-ref", &[]);
    assert!(
        reference.status.success(),
        "reference run failed:\n{}",
        stderr_of(&reference)
    );
    let err = stderr_of(&reference);
    assert!(
        err.contains(&format!(
            "{TOTAL} simulated, 0 from cache, 0 of {TOTAL} failed"
        )),
        "{err}"
    );

    // "Killed" run: three injected panics lose three grid points; the
    // process reports them, skips the broken reports, and exits 1 —
    // while every surviving point lands in the stats cache.
    let killed = scratch.run(
        "stats-kill",
        "out-kill",
        &["--inject-faults", "panic@10,panic@155,panic@300"],
    );
    assert_eq!(
        killed.status.code(),
        Some(1),
        "a degraded run must exit 1:\n{}",
        stderr_of(&killed)
    );
    let err = stderr_of(&killed);
    assert!(
        err.contains(&format!("349 simulated, 0 from cache, 3 of {TOTAL} failed")),
        "{err}"
    );
    assert!(err.contains(&format!("3 of {TOTAL} jobs failed:")), "{err}");
    assert!(err.contains("panicked: injected fault: panic@10"), "{err}");
    assert!(err.contains("report skipped:"), "{err}");
    assert!(err.contains("rerun with --resume"), "{err}");

    // Resume: exactly the three missing points are simulated, everything
    // else is served from the cache, and the run completes cleanly.
    let resumed = scratch.run("stats-kill", "out-kill", &["--resume"]);
    assert!(
        resumed.status.success(),
        "resume must heal the run:\n{}",
        stderr_of(&resumed)
    );
    let err = stderr_of(&resumed);
    assert!(
        err.contains(&format!("3 simulated, 349 from cache, 0 of {TOTAL} failed")),
        "{err}"
    );

    // The healed CSVs match the uninterrupted run's byte for byte.
    for name in ["table1.csv", "fig6.csv"] {
        assert_eq!(
            read(&scratch.dir("out-ref"), name),
            read(&scratch.dir("out-kill"), name),
            "{name} must be byte-identical after resume"
        );
    }

    // Warm resume over the complete cache: zero simulations, same bytes.
    let warm = scratch.run("stats-kill", "out-warm", &["--resume"]);
    assert!(warm.status.success(), "{}", stderr_of(&warm));
    let err = stderr_of(&warm);
    assert!(
        err.contains(&format!(
            "0 simulated, {TOTAL} from cache, 0 of {TOTAL} failed"
        )),
        "a fully-cached resume must perform zero simulations: {err}"
    );
    for name in ["table1.csv", "fig6.csv"] {
        assert_eq!(
            read(&scratch.dir("out-kill"), name),
            read(&scratch.dir("out-warm"), name),
            "{name} must be byte-identical on a warm resume"
        );
    }
}
