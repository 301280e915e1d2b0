//! Statistics substrate: simulation counters, SPEC-style suite means, and the
//! linear trend fits used by Figures 1, 8 and 10 of the paper.
//!
//! Cross-crate data flow: `sb-uarch` fills one [`SimStats`] per simulated
//! run (cycle/commit counters, stall attribution, cache and scheme event
//! counts — the golden-stats differential tests compare these
//! bit-for-bit between schedulers); `sb-experiments` aggregates them into
//! [`BenchResult`] rows and suite means, and fits [`LinearFit`] trends
//! for the figures that plot IPC against core width.

#![forbid(unsafe_code)]

mod bootstrap;
mod counters;
mod suite;
mod trend;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use counters::{Counter, SimStats};
pub use suite::{suite_ipc, BenchResult, SuiteSummary};
pub use trend::{LinearFit, TrendError, TrendPoint};
