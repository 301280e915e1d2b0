//! BOOM-like cycle-level out-of-order core simulator with secure-speculation
//! scheme hooks — the evaluation substrate of the ShadowBinding reproduction.
//!
//! The simulator models the pipeline the paper implements in RTL on the
//! RISC-V BOOM (§7): trace-driven fetch with misprediction stalls and
//! explicit wrong-path injection, register renaming with branch tags, a
//! reorder buffer, age-ordered wakeup/select with speculative load-hit
//! scheduling and replay, a load-store unit with store-to-load forwarding
//! and memory-dependence speculation, a two-level cache hierarchy with
//! stride prefetchers, and in-order commit.
//!
//! The secure schemes (STT-Rename, STT-Issue, NDA — see `sb-core`) plug
//! into rename, issue, and writeback exactly where §4 and §5 of the paper
//! place them.
//!
//! # Example
//!
//! ```
//! use sb_isa::{ArchReg, TraceBuilder};
//! use sb_core::Scheme;
//! use sb_uarch::{Core, CoreConfig};
//!
//! let mut b = TraceBuilder::new("demo");
//! let x1 = ArchReg::int(1);
//! b.load(x1, ArchReg::int(2), 0x1000, 8);
//! b.alu(ArchReg::int(3), Some(x1), None);
//! let mut core = Core::with_scheme(CoreConfig::mega(), Scheme::SttIssue, b.build());
//! let stats = core.run_to_completion(10_000);
//! assert_eq!(stats.committed.get(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod cancel;
mod config;
mod core;
mod frontend;
mod inst;
mod memdep;
mod predictor;
mod rename;
mod rob;
mod sched;

pub use crate::core::Core;
pub use cancel::{CancelToken, CANCEL_POLL_CYCLES};
pub use config::{
    ConfigError, CoreConfig, Fidelity, PredictorConfig, SchedulerKind, SIM_RESULTS_REVISION,
};
pub use frontend::{Fetched, Frontend};
pub use inst::{ColdInst, HotInst, Phase};
pub use memdep::MemDepPredictor;
pub use predictor::{PredEvents, Prediction, Predictor};
pub use rename::{FreeList, Rat};
pub use rob::{RobArena, RobHandle};
