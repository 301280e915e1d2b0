//! Synthetic SPEC CPU2017-like workloads and transient-execution attack
//! kernels.
//!
//! The paper runs the full SPEC CPU2017 suite on FPGA-synthesized BOOM
//! cores (§7). SPEC binaries and 100-billion-cycle FPGA runs are outside
//! this reproduction's reach, so each of the 22 benchmarks the paper plots
//! (Figure 6) is substituted by a *profile*: a parameterised description of
//! the characteristics that drive the paper's per-benchmark results —
//! instruction mix, branch predictability, memory footprint and access
//! pattern, dependency depth, and store→load aliasing proximity. A seeded
//! generator expands a profile into a deterministic micro-op [`sb_isa::Trace`].
//!
//! The profiles are calibrated so the *shape* of the paper's findings
//! reproduces: `bwaves` streams and prefetches (schemes ≈ free), `imagick`
//! is compute-bound (NDA suffers, STT does not), `exchange2` hammers
//! store-to-load forwarding in a tiny footprint (STT-Rename's unified store
//! taint causes forwarding-error storms, §9.2), `mcf` chases pointers.

#![forbid(unsafe_code)]

mod attacks;
pub mod fuzz_attacks;
mod generator;
mod profiles;
mod store;

pub use attacks::{
    attack_battery, m_shadow_kernel, mshr_contention_kernel, nested_speculation_kernel,
    prime_probe_kernel, spectre_v1_kernel, spectre_v1_prefetch_kernel, spectre_v2_btb_kernel,
    spectre_v2_pht_kernel, spectre_v2_squash_kernel, ssb_kernel, store_forward_kernel,
    AttackKernel, ChannelKind, PredictorParams, ProbeChannel, AMP_BASE, AMP_ENTRIES, AMP_STRIDE,
    BTB_ATTACKER_PC, BTB_VICTIM_PC, CONT_BASE, CONT_BURST, CONT_ENTRIES, CONT_STRIDE,
    EVSET_PRIME_BASE, EVSET_SET_OFFSET, EVSET_SET_STRIDE, EVSET_TARGET_BASE, EVSET_WAYS,
    PHT_PC_BASE, PHT_WINDOW_PC, PROBE_BASE, PROBE_ENTRIES, PROBE_STRIDE,
};
pub use generator::{generate, generate_with, GeneratorKind};
pub use profiles::{spec2017_profiles, AccessPattern, WorkloadProfile};
pub use store::{cached_generate, BlobStore, Codec, TraceCodec, TraceStore, TRACE_CACHE_ENV};
