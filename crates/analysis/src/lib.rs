//! Static taint-flow analysis for the ShadowBinding attack battery: an
//! abstract interpreter over decoded `sb-isa` op sequences that proves,
//! per (kernel × scheme × threat model) and with **zero simulation**,
//! which probe slots *must* leak and which *may* leak.
//!
//! This is a second, independent implementation of the paper's
//! propagation/untaint rules (§3–§4) — deliberately sharing none of
//! `sb-core`'s dynamic `taint_unit`/`shadows` machinery — so the two can
//! serve as oracles for each other:
//!
//! * [`analyze_kernel`] computes the static `must ⊆ dynamic ⊆ may`
//!   bracket ([`StaticLeaks`]) for one cell.
//! * [`check_soundness`] turns a broken bracket into a typed
//!   `SoundnessError` naming the kernel, scheme, threat model and
//!   scheduler — wired into every cell of `sb-experiments`'
//!   `verify-security` judge, under both schedulers.
//! * [`audit_kernel`] / [`audit_battery`] recompute every kernel's
//!   hand-written `expected_slots` / `allowed_slots` / `min_model`
//!   constants and report drift as [`ClaimDrift`] diffs — the claims are
//!   verified artifacts, not trusted inputs.
//!
//! # Example
//!
//! ```
//! use sb_analysis::{analyze_kernel, audit_battery, check_soundness};
//! use sb_core::{Scheme, ThreatModel};
//! use sb_workloads::attack_battery;
//!
//! // No hand-written claim has drifted from the rules.
//! assert!(audit_battery(&attack_battery(7)).is_empty());
//!
//! // STT blocks the Spectre-v1 transmit; the Baseline must leak slot 7.
//! let k = &attack_battery(7)[0];
//! assert!(analyze_kernel(k, Scheme::SttRename, ThreatModel::Spectre)
//!     .may
//!     .is_empty());
//! let base = analyze_kernel(k, Scheme::Baseline, ThreatModel::Spectre);
//! assert_eq!(base.must.iter().copied().collect::<Vec<_>>(), vec![7]);
//!
//! // A dynamic measurement of [7] sits inside the bracket.
//! let dynamic = [7].into_iter().collect();
//! assert!(check_soundness(
//!     "spectre-v1",
//!     Scheme::Baseline,
//!     ThreatModel::Spectre,
//!     "wheel",
//!     &base,
//!     &dynamic
//! )
//! .is_empty());
//! ```

#![forbid(unsafe_code)]

mod audit;
mod interp;
mod lattice;
mod soundness;

pub use audit::{audit_battery, audit_kernel, ClaimDrift};
pub use interp::{analyze_kernel, StaticLeaks};
pub use soundness::check_soundness;
