//! Experiment engine for the ShadowBinding reproduction: runs the
//! (configuration × scheme × benchmark) grid and renders every table and
//! figure of the paper's evaluation (§8).
//!
//! The binary (`sb-experiments`) is a thin CLI over this library; the
//! repository benchmark (`perfbench/`) drives the same entry points.

#![forbid(unsafe_code)]

mod analyze;
pub mod dse;
mod engine;
mod faults;
pub mod import;
pub mod jobs;
pub mod pool;
mod render;
mod reports;
pub mod security;
pub mod stats_store;

pub use analyze::{
    analyze_battery, extended_claims_audit, perturb_battery_claim, static_matrix_report,
};
pub use engine::{bench_trace, run_grid_with, ExperimentError, GridResults, RunOptions, RunSpec};
pub use faults::FaultPlan;
pub use jobs::{JobCtx, JobFailure, JobPolicy};
pub use render::{bar, format_table};
pub use reports::{
    fig10_report, fig1_table3_report, fig6_report, fig7_report, fig8_report, fig9_report,
    sec92_report, security_report, table1_report, table4_report, table5_report, Report,
};
pub use security::{battery_scheme_config, security_matrix_report, verify_security_with};
pub use stats_store::{StatsStore, STATS_CACHE_ENV};
