//! End-to-end design-space-exploration sweeps through the real CLI
//! binary: a sweep killed partway (deterministic fault injection) heals
//! under `--resume` to a leaderboard CSV and manifest byte-identical to
//! an uninterrupted run's; a warm identical re-run performs zero
//! simulations; and `--from-manifest` reproduces the sweep from the
//! manifest alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sb-experiments");

/// The swept spec: 2 configs x 2 schemes x 1 threat = 4 points.
const SPEC: &str = "base=small width=1,2 scheme=baseline,nda";

/// 4 points x 1 replicate x 22 benchmarks.
const TOTAL: usize = 88;

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        let root = std::env::temp_dir().join(format!("sb-sweep-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Scratch { root }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Runs `sweep` against one stats cache and output dir, with a fully
    /// pinned environment (no ambient cache variables).
    fn sweep(&self, stats: &str, out: &str, args: &[&str]) -> Output {
        Command::new(BIN)
            .arg("sweep")
            .args(args)
            .args(["--out", self.dir(out).to_str().unwrap()])
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
fn killed_sweep_resumes_and_manifest_reproduces_it() {
    let scratch = Scratch::new();

    // Reference: one uninterrupted sweep, its own stats cache.
    let reference = scratch.sweep(
        "stats-ref",
        "out-ref",
        &["--spec", SPEC, "--ops", "600", "--seed", "7"],
    );
    assert!(
        reference.status.success(),
        "reference sweep failed:\n{}",
        stderr_of(&reference)
    );
    let err = stderr_of(&reference);
    assert!(
        err.contains(&format!(
            "{TOTAL} simulated, 0 from cache, 0 of {TOTAL} failed"
        )),
        "{err}"
    );
    let ref_csv = read(&scratch.dir("out-ref"), "leaderboard.csv");
    let ref_manifest = read(&scratch.dir("out-ref"), "manifest.json");
    assert!(
        String::from_utf8_lossy(&ref_manifest).contains("sweep_fingerprint"),
        "manifest must record the sweep fingerprint"
    );

    // "Killed" sweep: two injected panics lose two jobs; the process
    // reports them and exits 1 while every surviving job lands in the
    // stats cache.
    let killed = scratch.sweep(
        "stats-kill",
        "out-kill",
        &[
            "--spec",
            SPEC,
            "--ops",
            "600",
            "--seed",
            "7",
            "--inject-faults",
            "panic@3,panic@40",
        ],
    );
    assert_eq!(
        killed.status.code(),
        Some(1),
        "a degraded sweep must exit 1:\n{}",
        stderr_of(&killed)
    );
    let err = stderr_of(&killed);
    assert!(
        err.contains(&format!("86 simulated, 0 from cache, 2 of {TOTAL} failed")),
        "{err}"
    );
    assert!(err.contains("rerun with --resume"), "{err}");

    // Resume: exactly the two missing jobs are simulated; the healed
    // leaderboard and manifest match the uninterrupted run byte for byte.
    let resumed = scratch.sweep(
        "stats-kill",
        "out-kill",
        &["--spec", SPEC, "--ops", "600", "--seed", "7", "--resume"],
    );
    assert!(
        resumed.status.success(),
        "resume must heal the sweep:\n{}",
        stderr_of(&resumed)
    );
    let err = stderr_of(&resumed);
    assert!(
        err.contains(&format!("2 simulated, 86 from cache, 0 of {TOTAL} failed")),
        "{err}"
    );
    assert_eq!(
        ref_csv,
        read(&scratch.dir("out-kill"), "leaderboard.csv"),
        "leaderboard.csv must be byte-identical after resume"
    );
    assert_eq!(
        ref_manifest,
        read(&scratch.dir("out-kill"), "manifest.json"),
        "manifest.json must be byte-identical after resume"
    );

    // Warm identical re-run over the complete cache: zero simulations.
    let warm = scratch.sweep(
        "stats-kill",
        "out-warm",
        &["--spec", SPEC, "--ops", "600", "--seed", "7", "--resume"],
    );
    assert!(warm.status.success(), "{}", stderr_of(&warm));
    let err = stderr_of(&warm);
    assert!(
        err.contains(&format!(
            "0 simulated, {TOTAL} from cache, 0 of {TOTAL} failed"
        )),
        "a warm identical sweep must perform zero simulations: {err}"
    );
    assert_eq!(ref_csv, read(&scratch.dir("out-warm"), "leaderboard.csv"));

    // `--from-manifest` reproduces the sweep from the manifest alone —
    // spec, trace length and seed all come from the file.
    let manifest_path = scratch.dir("out-ref").join("manifest.json");
    let from_manifest = scratch.sweep(
        "stats-ref",
        "out-manifest",
        &[
            "--from-manifest",
            manifest_path.to_str().unwrap(),
            "--resume",
        ],
    );
    assert!(
        from_manifest.status.success(),
        "--from-manifest rerun failed:\n{}",
        stderr_of(&from_manifest)
    );
    let err = stderr_of(&from_manifest);
    assert!(
        err.contains(&format!(
            "0 simulated, {TOTAL} from cache, 0 of {TOTAL} failed"
        )),
        "a manifest rerun against a warm store must perform zero simulations: {err}"
    );
    assert_eq!(
        ref_csv,
        read(&scratch.dir("out-manifest"), "leaderboard.csv"),
        "leaderboard.csv must be byte-identical when rerun from its manifest"
    );
    assert_eq!(
        ref_manifest,
        read(&scratch.dir("out-manifest"), "manifest.json"),
        "manifest.json must round-trip byte-identically"
    );
}
