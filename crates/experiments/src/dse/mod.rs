//! Design-space exploration: declarative sweeps over microarchitectural
//! knobs × scheme × threat model, executed resumably over the job layer
//! and ranked on the security-cost / IPC / area / power / frequency
//! frontier.
//!
//! Pipeline: [`SweepSpec::parse`] turns a `key=value` string into a
//! validated spec; [`run_sweep`] expands it into design points and runs
//! `points × replicates × benchmarks` jobs memoized in the stats store
//! (warm identical re-run = zero simulations); [`leaderboard`] summarizes
//! each point with a bootstrap confidence interval over replicate suite
//! IPCs plus the `sb-timing` clock/area/power estimates and marks the
//! Pareto front; [`manifest_json`] records the reproduction contract,
//! which [`parse_manifest`] turns back into a runnable sweep.

mod leaderboard;
mod manifest;
mod run;
mod spec;

pub use leaderboard::{
    leaderboard, leaderboard_csv, leaderboard_table, LeaderRow, BOOTSTRAP_RESAMPLES, CONFIDENCE,
};
pub use manifest::{
    manifest_json, parse_manifest, sweep_fingerprint, ManifestParams, MANIFEST_FORMAT,
};
pub use run::{point_fingerprint, replicate_seed, run_sweep, PointResult, SweepOutcome};
pub use spec::{Axis, SpecError, SweepPoint, SweepSpec, MAX_POINTS, MAX_REPLICATES};
