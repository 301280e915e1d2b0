//! # ShadowBinding (reproduction)
//!
//! A from-scratch Rust reproduction of *“ShadowBinding: Realizing Effective
//! Microarchitectures for In-Core Secure Speculation Schemes”* (Kvalsvik &
//! Själander, MICRO 2025): realizable microarchitectures for Speculative
//! Taint Tracking (STT-Rename and the paper's novel STT-Issue) and
//! Non-speculative Data Access (NDA-Permissive), evaluated on a cycle-level
//! BOOM-like out-of-order core with analytical timing/area/power models and
//! synthetic SPEC CPU2017-like workloads.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`core`] (`sb-core`) — the paper's contribution: shadow tracking,
//!   the visibility point, the STT-Rename same-cycle YRoT chain with
//!   checkpoints, the STT-Issue taint unit, and the bandwidth-limited
//!   untaint/delayed-data broadcast network.
//! * [`uarch`] (`sb-uarch`) — the out-of-order core simulator and the four
//!   Table 1 BOOM configurations.
//! * [`isa`], [`mem`], [`stats`] — micro-op ISA, cache hierarchy (plus the
//!   leakage and contention side-channel observers), and statistics
//!   substrates.
//! * [`workloads`] (`sb-workloads`) — 22 SPEC2017-like profiles and the
//!   Spectre-v1 / Speculative-Store-Bypass attack kernels.
//! * [`timing`] (`sb-timing`) — the critical-path, area and power models
//!   substituting for the paper's FPGA synthesis flow.
//! * [`analysis`] (`sb-analysis`) — the static taint-flow analyzer: an
//!   abstract interpreter proving each attack kernel's must/may leak
//!   bracket and auditing the battery's claim constants, with zero
//!   simulation.
//!
//! # Quickstart
//!
//! ```
//! use shadowbinding::core::Scheme;
//! use shadowbinding::uarch::{Core, CoreConfig};
//! use shadowbinding::workloads::{generate, spec2017_profiles};
//!
//! let profile = spec2017_profiles()[2]; // 503.bwaves
//! let trace = generate(&profile, 5_000, 42);
//! let mut core = Core::with_scheme(CoreConfig::mega(), Scheme::SttIssue, trace);
//! let stats = core.run(10_000_000);
//! println!("IPC = {:.3}", stats.ipc());
//! ```

#![forbid(unsafe_code)]

pub use sb_analysis as analysis;
pub use sb_core as core;
pub use sb_isa as isa;
pub use sb_mem as mem;
pub use sb_stats as stats;
pub use sb_timing as timing;
pub use sb_uarch as uarch;
pub use sb_workloads as workloads;
