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
//! Cross-crate data flow: `sb-uarch`'s LSU and commit stages call
//! [`MemoryHierarchy::access_attributed`] for every simulated load/store
//! (it sits on the simulator's hottest shared path — keep it lean), and
//! the `verify-security` battery and the attack examples attach a
//! [`LeakageObserver`] to charge every fill, eviction, prefetch
//! install and MSHR allocation to the instruction that caused it — the
//! ground truth the security verification compares schemes against —
//! plus a [`ContentionObserver`] charging MSHR occupancy and memory-port
//! pressure the same way (the non-cache-state channels: the core's issue
//! paths report port uses via [`MemoryHierarchy::note_port_use`]).
//! Behaviour here is part of the golden-stats contract: any change to
//! hit/miss or prefetch decisions changes `SimStats` and trips the
//! differential tests.

#![forbid(unsafe_code)]

mod cache;
mod hierarchy;
mod observer;
mod prefetch;

pub use cache::{AccessTrace, Cache, CacheConfig};
pub use hierarchy::{AccessKind, AccessOutcome, HierarchyConfig, MemoryHierarchy, ServedBy};
pub use observer::{
    Attribution, CacheChange, CacheChangeKind, ContentionEvent, ContentionKind, ContentionObserver,
    LeakageObserver,
};
pub use prefetch::StridePrefetcher;
