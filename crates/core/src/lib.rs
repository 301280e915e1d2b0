//! The ShadowBinding paper's primary contribution, as a library: realizable
//! microarchitectural mechanisms for two state-of-the-art in-core secure
//! speculation schemes.
//!
//! * [`SpeculationTracker`] — speculative-shadow (C/D-shadow) tracking and
//!   the *visibility point* (§2.1, §6): the in-order frontier past which
//!   instructions are bound-to-commit.
//! * [`RenameTaintTracker`] — STT-Rename (§4.1/§4.2): taint computation in
//!   the rename stage, including the same-cycle YRoT dependency *chain* the
//!   paper uncovers (Figure 3) and the YRoT checkpoints branches require.
//! * [`IssueTaintUnit`] — STT-Issue (§4.3): the paper's novel
//!   microarchitecture that delays tainting to the issue stage, indexing by
//!   physical register, eliminating both the dependency chain and the
//!   checkpoints.
//! * [`BroadcastQueue`] — the bandwidth-limited broadcast network both STT
//!   (untaint wakeups, §4.4) and NDA (delayed data broadcasts, §5.1) need
//!   when loads become non-speculative.
//! * [`Scheme`] / [`SchemeConfig`] — scheme selection and the ablations the
//!   paper discusses (split-store taints, broadcast bandwidth).
//!
//! The out-of-order core in `sb-uarch` drives these mechanisms; everything
//! here is deterministic, allocation-light data-structure logic that can be
//! tested in isolation.

#![forbid(unsafe_code)]

mod broadcast;
mod rename_taint;
mod scheme;
mod shadows;
mod taint_unit;

pub use broadcast::BroadcastQueue;
pub use rename_taint::{RenameGroupOp, RenameTaintOutcome, RenameTaintTracker};
pub use scheme::{Scheme, SchemeConfig};
pub use shadows::{ShadowKind, SpeculationTracker, ThreatModel};
pub use taint_unit::IssueTaintUnit;
