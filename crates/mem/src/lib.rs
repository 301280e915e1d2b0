//! Memory-hierarchy substrate: set-associative caches, stride prefetchers, a
//! DRAM latency model, and the side-channel observers the Spectre
//! mitigation check (§7 of the paper) judges schemes with.
//!
//! The default latencies follow the paper's critique of earlier gem5
//! evaluations (§9.5): the realistic (RTL-fidelity) L1 data cache costs 4
//! cycles, not the single cycle that made earlier STT evaluations optimistic.
//! The abstract (gem5-like) fidelity mode of `sb-uarch` overrides the L1
//! latency to 1 cycle to reproduce that effect.
//!
//! The model is the one `sb-analysis` reasons about: true-LRU sets kept in
//! recency order, and one stride table shared by the L1 and L2 prefetchers
//! (both observe the same demand stream; only their degrees differ). That
//! table, [`StridePrefetcher`], is public for the analyzer alone: it feeds
//! the table every abstract access instead of keeping a copy.
//!
//! Cross-crate data flow: `sb-uarch`'s LSU and commit stages call
//! [`MemoryHierarchy::access`] for every simulated load/store
//! (it sits on the simulator's hottest shared path — keep it lean), and
//! the `verify-security` battery and the attack examples attach a
//! [`LeakageObserver`] to charge every fill, eviction, prefetch
//! install and MSHR allocation to the instruction that caused it — the
//! ground truth the security verification compares schemes against —
//! plus a [`ContentionObserver`] charging MSHR occupancy and memory-port
//! pressure the same way (the non-cache-state channels: the core's issue
//! paths report port uses via [`MemoryHierarchy::note_port_use`]).
//! Any change to hit/miss or prefetch decisions changes `SimStats`, but
//! `golden_stats` cannot see it: both of its schedulers share this
//! hierarchy, so both sides move together. What catches it is
//! `tests/replay_pin.rs` here (every outcome and leakage record of a fixed
//! stream), the workspace's `results_canary` (a digest of simulated
//! results) and `core_behavior`'s pinned counts.

#![forbid(unsafe_code)]

mod cache;
#[cfg(test)]
mod cache_lru_model;
mod hierarchy;
mod observer;
mod prefetch;

pub use hierarchy::{AccessOutcome, HierarchyConfig, MemoryHierarchy, ServedBy};
pub use observer::{Attribution, CacheChangeKind, ContentionObserver, LeakageObserver};
pub use prefetch::StridePrefetcher;
