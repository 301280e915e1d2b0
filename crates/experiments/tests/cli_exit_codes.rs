//! The binary's exit codes: a malformed invocation exits 2 with the usage
//! text on stderr, before any work; `--help` exits 0.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sb-experiments");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn sb-experiments")
}

#[test]
fn malformed_invocations_exit_2_with_the_usage_text() {
    for args in [
        &["--frobnicate"][..],
        &["tabel1"],
        &["import"],
        &["verify-security", "--ops", "5"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("\nusage: sb-experiments"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn help_exits_0_and_prints_the_usage_text() {
    for flag in ["--help", "-h"] {
        let out = run(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "{flag}: {stdout}");
    }
}

#[test]
fn exhausted_run_budget_fails_every_cell_as_cancelled() {
    let out_dir = std::env::temp_dir().join(format!("sb-cli-run-budget-{}", std::process::id()));
    let out = run(&[
        "verify-security",
        "--run-budget",
        "0",
        "--out",
        out_dir.to_str().expect("utf-8 temp dir"),
    ]);
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("\nFAILED:\n"), "{stdout}");
    assert!(
        stdout.contains(
            "  job failed: #0 spectre/spectre-v1/Baseline: cancelled (run budget exhausted)\n"
        ),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches(": cancelled (run budget exhausted)").count(),
        88,
        "every cell of both threat models is cancelled: {stdout}"
    );
}
