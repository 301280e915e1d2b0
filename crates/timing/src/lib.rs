//! Analytical timing, area and power models for the secure speculation
//! schemes — the substitute for the paper's Vitis synthesis flow (§7).
//!
//! The paper's headline insight is *structural*: STT-Rename's YRoT
//! computation is a same-cycle serial chain whose length grows with rename
//! width (§4.1, Figure 3), STT-Issue replaces it with an independent
//! per-instruction lookup whose cost scales with the physical register file
//! (§4.3), and NDA adds almost no logic — and even removes the speculative
//! load-hit broadcast path (§5.1). This crate encodes those structures as
//! stage-delay, register-count and activity formulas whose constants are
//! calibrated against the paper's measured anchors (Figure 9, Table 4);
//! the *scaling shape* is the model, the constants are the fit.
//!
//! Cross-crate data flow: inputs come from `sb-uarch` core configurations
//! (width, PRF size, branch tags) and measured per-run activity
//! (`sb-stats` counters, the rename chain depth the core observed);
//! `sb-experiments` multiplies the resulting relative timing into
//! relative IPC to reproduce the paper's combined performance figures.

#![forbid(unsafe_code)]

mod area;
mod critical_path;
mod power;

pub use area::area_estimate;
pub use critical_path::{frequency_mhz, relative_timing};
pub use power::{power_estimate, relative_power, ActivityProfile};
