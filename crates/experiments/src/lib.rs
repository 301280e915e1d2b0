//! Experiment engine for the ShadowBinding reproduction: runs the
//! (configuration × scheme × benchmark) grid and renders every table and
//! figure of the paper's evaluation (§8).
//!
//! The binary (`sb-experiments`) is a thin CLI over this library; the
//! repository benchmark (`perfbench/`) drives the same entry points.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod dse;
mod engine;
pub mod faults;
pub mod import;
pub mod jobs;
pub mod pool;
mod render;
mod reports;
pub mod security;
pub mod stats_store;

pub use analyze::{
    analyze_battery, analyze_security, extended_claims_audit, perturb_battery_claim,
    static_matrix_report, ExtendedAudit, StaticCell, StaticVerdict,
};
pub use engine::{
    bench_trace, run_grid, run_grid_with, ExperimentError, GridResults, ProgressSink, RunOptions,
    RunReport, RunSpec,
};
pub use faults::{FaultPlan, FAULT_ENV};
pub use jobs::{BatchReport, JobCtx, JobError, JobFailure, JobPolicy};
pub use render::{bar, format_table};
pub use reports::{
    fig10_report, fig1_table3_report, fig6_report, fig7_report, fig8_report, fig9_report,
    sec92_report, security_report, table1_report, table4_report, table5_report, Report,
};
pub use security::{
    battery_scheme_config, security_matrix_report, verify_security, verify_security_with,
    LeakMeasurement, ScenarioVerdict, SecurityVerdict,
};
pub use stats_store::{StatsStore, STATS_CACHE_ENV};
