//! Randomized structural variants of the attack battery.
//!
//! The hand-written kernels behind [`crate::attack_battery`] are eleven
//! fixed points in a large space of equivalent attacks; a
//! taint-propagation bug that happens to dodge those exact shapes would
//! slip past the battery.
//! This module generates *variants* of each scenario family — shuffled
//! filler ops, varied misprediction-window lengths (divide-chain depth),
//! varied prefetch-burst lengths and probe geometries, shuffled eviction-set
//! priming orders, varied MSHR-burst sizes, varied shadow-nesting depth,
//! and random secrets — while preserving each family's documented leak
//! contract (`expected_slots` / `allowed_slots` / `min_model`). The
//! top-level `tests/attack_fuzz.rs` property test runs hundreds of these
//! under every scheme, both schedulers, and both threat models.
//!
//! Filler ops only ever touch the scratch registers `x16`–`x19`, which no
//! kernel uses for its taint chain, so insertion points are structurally
//! free: fillers compete for issue slots but cannot carry or launder taint.
//!
//! Generation is deterministic in the seed (the offline `rand` shim is a
//! fixed xoshiro256++), so any failing variant is reproducible from the
//! case number alone.

use crate::attacks::{
    AttackKernel, ChannelKind, PredictorParams, ProbeChannel, BTB_ATTACKER_PC, BTB_VICTIM_PC,
    CONT_BASE, CONT_STRIDE, EVSET_PRIME_BASE, EVSET_SET_OFFSET, EVSET_SET_STRIDE,
    EVSET_TARGET_BASE, EVSET_WAYS, PHT_PC_BASE, PHT_WINDOW_PC, PROBE_BASE, PROBE_ENTRIES,
    PROBE_STRIDE,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sb_core::ThreatModel;
use sb_isa::{ArchReg, MicroOp, OpClass, TraceBuilder};

/// Number of scenario families [`fuzz_battery`] draws from.
pub const FAMILIES: usize = 11;

fn x(n: u8) -> ArchReg {
    ArchReg::int(n)
}

/// Scratch registers reserved for filler ops (disjoint from every
/// family's taint chain and address registers).
const SCRATCH: [u8; 4] = [16, 17, 18, 19];

struct Fz {
    rng: SmallRng,
}

impl Fz {
    fn new(seed: u64) -> Self {
        Fz {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn secret(&mut self) -> usize {
        self.rng.gen_range(0..PROBE_ENTRIES)
    }

    /// A random filler compute op on scratch registers only.
    fn filler_op(&mut self) -> MicroOp {
        let dst = SCRATCH[self.rng.gen_range(0..SCRATCH.len())];
        let src = if self.rng.gen_bool(0.5) {
            Some(x(SCRATCH[self.rng.gen_range(0..SCRATCH.len())]))
        } else {
            None
        };
        if self.rng.gen_bool(0.25) {
            MicroOp::compute(OpClass::IntMul, x(dst), src, None)
        } else {
            MicroOp::alu(x(dst), src, None)
        }
    }

    /// Appends `0..=max` filler ops to the correct path.
    fn fill(&mut self, b: &mut TraceBuilder, max: usize) {
        for _ in 0..self.rng.gen_range(0..max + 1) {
            let op = self.filler_op();
            b.push(op);
        }
    }

    /// Appends `0..=max` filler ops to a wrong-path block under
    /// construction.
    fn wp_fill(&mut self, ops: &mut Vec<MicroOp>, max: usize) {
        for _ in 0..self.rng.gen_range(0..max + 1) {
            ops.push(self.filler_op());
        }
    }

    /// The shared misprediction prologue: optional fillers, a warm line
    /// for the transient secret read, a cold bounds-check operand plus a
    /// variable-length divide chain (the window length knob), then the
    /// mispredicted branch. Returns the branch's trace index.
    fn window_prologue(&mut self, b: &mut TraceBuilder, warm: u64, cold: u64) -> usize {
        self.fill(b, 2);
        b.load(x(6), x(28), warm, 8);
        self.fill(b, 2);
        b.load(x(9), x(28), cold, 8);
        for _ in 0..self.rng.gen_range(1..4usize) {
            b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        }
        b.branch(Some(x(9)), None, true, true)
    }
}

/// A spectre-v1 variant: fillers everywhere, variable window length.
#[must_use]
pub(crate) fn spectre_v1_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x51);
    let secret = fz.secret();
    let mut b = TraceBuilder::new("spectre-v1-fz");
    let br = fz.window_prologue(&mut b, 0x2000_0000, 0x3000_0000);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2000_0000, 8));
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::alu(x(3), Some(x(1)), None));
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(
        x(4),
        x(3),
        PROBE_BASE + secret as u64 * PROBE_STRIDE,
        8,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 3);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

/// A prefetch-amplification variant: burst length 3–5 (the train-count
/// knob — the stride detectors need three accesses, longer bursts push
/// the run-ahead deeper), variable window, fillers.
#[must_use]
pub(crate) fn spectre_v1_prefetch_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x9F);
    let secret = fz.secret();
    let burst = fz.rng.gen_range(3..6usize);
    let mut b = TraceBuilder::new("spectre-v1-prefetch-fz");
    let br = fz.window_prologue(&mut b, 0x2000_0000, 0x3000_0000);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2000_0000, 8));
    wp.push(MicroOp::alu(x(3), Some(x(1)), None));
    for k in 0..burst {
        wp.push(MicroOp::load(
            x(4 + (k as u8 % 3)),
            x(3),
            crate::attacks::AMP_BASE + (secret + k) as u64 * crate::attacks::AMP_STRIDE,
            8,
        ));
    }
    b.wrong_path(br, wp);
    fz.fill(&mut b, 3);
    b.alu(x(8), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::line_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        // `burst` direct lines plus the first deterministic run-ahead
        // line; the L2 degree-4 prefetcher bounds the reachable set at
        // 4 lines past the last direct access.
        expected_slots: (secret..=secret + burst).collect(),
        allowed_slots: (secret..=secret + burst + 3).collect(),
        predictor: None,
    }
}

/// A speculative-store-bypass variant: variable store-address delay,
/// fillers between the store and the bypassing load.
#[must_use]
pub(crate) fn ssb_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x4B);
    let secret = fz.secret();
    let mut b = TraceBuilder::new("ssb-fz");
    const SLOT: u64 = 0x2100_0000;
    fz.fill(&mut b, 2);
    b.load(x(6), x(28), SLOT, 8);
    b.load(x(9), x(28), 0x3100_0000, 8);
    for _ in 0..fz.rng.gen_range(1..4usize) {
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    }
    b.store(x(9), x(28), SLOT, 8);
    fz.fill(&mut b, 2);
    b.load(x(1), x(27), SLOT, 8);
    b.alu(x(3), Some(x(1)), None);
    b.load(x(4), x(3), PROBE_BASE + secret as u64 * PROBE_STRIDE, 8);
    fz.fill(&mut b, 2);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

/// A store→load-forwarding-transmitter variant.
#[must_use]
pub(crate) fn store_forward_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x3C);
    let secret = fz.secret();
    let mut b = TraceBuilder::new("store-forward-fz");
    const BUF: u64 = 0x2300_0000;
    let br = fz.window_prologue(&mut b, 0x2200_0000, 0x3200_0000);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2200_0000, 8));
    fz.wp_fill(&mut wp, 1);
    wp.push(MicroOp::store(x(28), x(1), BUF, 8));
    fz.wp_fill(&mut wp, 1);
    wp.push(MicroOp::load(x(2), x(27), BUF, 8));
    wp.push(MicroOp::alu(x(3), Some(x(2)), None));
    wp.push(MicroOp::load(
        x(4),
        x(3),
        PROBE_BASE + secret as u64 * PROBE_STRIDE,
        8,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

/// A nested-speculation variant: 1–3 nested correctly-predicted branches
/// between the secret and the transmit (the shadow-nesting-depth knob).
#[must_use]
pub(crate) fn nested_speculation_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x7E);
    let secret = fz.secret();
    let depth = fz.rng.gen_range(1..4usize);
    let mut b = TraceBuilder::new("nested-speculation-fz");
    let br = fz.window_prologue(&mut b, 0x2000_0000, 0x3000_0000);
    let mut wp = Vec::new();
    wp.push(MicroOp::load(x(1), x(2), 0x2000_0000, 8));
    wp.push(MicroOp::compute(OpClass::IntDiv, x(3), Some(x(1)), None));
    for _ in 0..depth {
        wp.push(MicroOp::branch(Some(x(3)), None, true, false));
        fz.wp_fill(&mut wp, 1);
    }
    wp.push(MicroOp::alu(x(4), Some(x(3)), None));
    wp.push(MicroOp::load(
        x(5),
        x(4),
        PROBE_BASE + secret as u64 * PROBE_STRIDE,
        8,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(8), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

/// A prime+probe variant: way 0 of every set is always primed first (it
/// is the documented LRU victim and the channel slot), the remaining way
/// order is shuffled per variant.
#[must_use]
pub(crate) fn prime_probe_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0xE5);
    let secret = fz.secret();
    // Fisher-Yates over ways 1..8; way 0 stays first.
    let mut ways: Vec<u64> = (1..EVSET_WAYS as u64).collect();
    for i in (1..ways.len()).rev() {
        let j = fz.rng.gen_range(0..i + 1);
        ways.swap(i, j);
    }
    let mut b = TraceBuilder::new("prime-probe-fz");
    for set in 0..PROBE_ENTRIES {
        let base = EVSET_PRIME_BASE + (EVSET_SET_OFFSET + set) as u64 * 64;
        b.load(x(10), x(28), base, 8);
        for &w in &ways {
            b.load(x(10), x(28), base + w * EVSET_SET_STRIDE, 8);
        }
    }
    let br = fz.window_prologue(&mut b, 0x2200_0000, 0x3300_0000);
    let target = EVSET_TARGET_BASE + (EVSET_SET_OFFSET + secret) as u64 * 64;
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2200_0000, 8));
    wp.push(MicroOp::alu(x(3), Some(x(1)), None));
    wp.push(MicroOp::load(x(4), x(3), target, 8));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::eviction_set(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

/// An MSHR-contention variant: burst size 2–4 (all lines stay inside the
/// secret's page slot, so the decode is burst-size independent).
#[must_use]
pub(crate) fn mshr_contention_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0xA7);
    let secret = fz.secret();
    let burst = fz.rng.gen_range(2..5usize);
    let mut b = TraceBuilder::new("mshr-contention-fz");
    let br = fz.window_prologue(&mut b, 0x2400_0000, 0x3400_0000);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2400_0000, 8));
    wp.push(MicroOp::alu(x(3), Some(x(1)), None));
    for k in 0..burst {
        wp.push(MicroOp::load(
            x(4 + (k as u8 % 3)),
            x(3),
            CONT_BASE + secret as u64 * CONT_STRIDE + k as u64 * 64,
            8,
        ));
    }
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(8), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::contention_pages(),
        channel_kind: ChannelKind::MshrContention,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

/// An M-shadow variant. Variation is deliberately conservative — the
/// scenario's whole point is a timing corridor (transmit before the
/// window branch resolves, branch resolution long before the commit-wait
/// load retires), so only the secret, scratch fillers, and the
/// divide-chain length (1–2) vary.
#[must_use]
pub(crate) fn m_shadow_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0xD2);
    let secret = fz.secret();
    let mut b = TraceBuilder::new("m-shadow-fz");
    const WAIT: u64 = 0x2600_0000;
    const SLOT: u64 = 0x2700_0000;
    b.load(x(20), x(28), WAIT, 8);
    b.store(x(28), x(27), SLOT, 8);
    b.load(x(1), x(26), SLOT, 8);
    b.alu(x(9), None, None);
    for _ in 0..fz.rng.gen_range(1..3usize) {
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    }
    let br = b.branch(Some(x(9)), None, true, true);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::alu(x(3), Some(x(1)), None));
    wp.push(MicroOp::load(
        x(4),
        x(3),
        PROBE_BASE + secret as u64 * PROBE_STRIDE,
        8,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Futuristic,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: None,
    }
}

impl Fz {
    /// The v2 window prologue: like [`Fz::window_prologue`] but the
    /// mispredicted branch carries a pc so the modelled predictor indexes
    /// it — parked at [`PHT_WINDOW_PC`], outside the judged channel.
    fn v2_window_prologue(&mut self, b: &mut TraceBuilder, warm: u64, cold: u64) -> usize {
        self.fill(b, 2);
        b.load(x(6), x(28), warm, 8);
        self.fill(b, 2);
        b.load(x(9), x(28), cold, 8);
        for _ in 0..self.rng.gen_range(1..4usize) {
            b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        }
        b.branch_at(Some(x(9)), None, true, true, PHT_WINDOW_PC, PHT_PC_BASE)
    }
}

/// A spectre-v2 PHT-poisoning variant: variable window length and fillers
/// around a fixed channel skeleton (the transient not-taken branch at the
/// secret-indexed pc is the channel; its shape cannot vary).
#[must_use]
pub(crate) fn spectre_v2_pht_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x2B);
    let secret = fz.secret();
    let mut b = TraceBuilder::new("spectre-v2-pht-fz");
    let br = fz.v2_window_prologue(&mut b, 0x2000_0000, 0x3000_0000);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2000_0000, 8));
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::branch_at(
        Some(x(1)),
        None,
        false,
        false,
        PHT_PC_BASE + secret as u64,
        0,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 3);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::predictor_state(),
        channel_kind: ChannelKind::PredictorState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: Some(PredictorParams::v2_default()),
    }
}

/// A spectre-v2 BTB-injection variant: victim and attacker training
/// lengths vary (2–4 each; one aliasing branch already displaces the
/// direct-mapped entry), plus the usual window and filler knobs.
#[must_use]
pub(crate) fn spectre_v2_btb_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0x68);
    let secret = fz.secret();
    let mut b = TraceBuilder::new("spectre-v2-btb-fz");
    for _ in 0..fz.rng.gen_range(2..5usize) {
        b.branch_at(None, None, true, false, BTB_VICTIM_PC, 0x100);
    }
    fz.fill(&mut b, 2);
    for _ in 0..fz.rng.gen_range(2..5usize) {
        b.branch_at(None, None, true, false, BTB_ATTACKER_PC, 0x200);
    }
    fz.fill(&mut b, 2);
    b.load(x(6), x(28), 0x2000_0000, 8);
    b.load(x(9), x(28), 0x3000_0000, 8);
    for _ in 0..fz.rng.gen_range(1..4usize) {
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    }
    let br = b.branch_at(Some(x(9)), None, true, true, BTB_VICTIM_PC, 0x100);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2000_0000, 8));
    wp.push(MicroOp::alu(x(3), Some(x(1)), None));
    wp.push(MicroOp::load(
        x(4),
        x(3),
        PROBE_BASE + secret as u64 * PROBE_STRIDE,
        8,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: Some(PredictorParams::v2_default()),
    }
}

/// A spectre-v2 survives-squash variant: the transient branch is taken
/// (PHT *and* BTB footprint); the target and the window knobs vary.
#[must_use]
pub(crate) fn spectre_v2_squash_variant(seed: u64) -> AttackKernel {
    let mut fz = Fz::new(seed ^ 0xC4);
    let secret = fz.secret();
    let target = 0x300 + fz.rng.gen_range(0..4u64) * 0x40;
    let mut b = TraceBuilder::new("spectre-v2-squash-fz");
    let br = fz.v2_window_prologue(&mut b, 0x2000_0000, 0x3000_0000);
    let mut wp = Vec::new();
    fz.wp_fill(&mut wp, 2);
    wp.push(MicroOp::load(x(1), x(2), 0x2000_0000, 8));
    fz.wp_fill(&mut wp, 1);
    wp.push(MicroOp::branch_at(
        Some(x(1)),
        None,
        true,
        false,
        PHT_PC_BASE + secret as u64,
        target,
    ));
    b.wrong_path(br, wp);
    fz.fill(&mut b, 2);
    b.alu(x(5), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::predictor_state(),
        channel_kind: ChannelKind::PredictorState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![secret],
        allowed_slots: vec![secret],
        predictor: Some(PredictorParams::v2_default()),
    }
}

/// One randomized variant of each scenario family, in battery order.
/// Distinct sub-seeds per family keep the knobs independent.
#[must_use]
pub fn fuzz_battery(seed: u64) -> Vec<AttackKernel> {
    vec![
        spectre_v1_variant(seed),
        spectre_v1_prefetch_variant(seed),
        ssb_variant(seed),
        store_forward_variant(seed),
        nested_speculation_variant(seed),
        prime_probe_variant(seed),
        mshr_contention_variant(seed),
        m_shadow_variant(seed),
        spectre_v2_pht_variant(seed),
        spectre_v2_btb_variant(seed),
        spectre_v2_squash_variant(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_battery_is_deterministic_in_the_seed() {
        let a = fuzz_battery(42);
        let b = fuzz_battery(42);
        let c = fuzz_battery(43);
        assert_eq!(a.len(), FAMILIES);
        for (ka, kb) in a.iter().zip(&b) {
            assert_eq!(ka.trace, kb.trace);
            assert_eq!(ka.secret, kb.secret);
        }
        // At least one family must differ structurally across seeds.
        assert!(
            a.iter().zip(&c).any(|(ka, kc)| ka.trace != kc.trace),
            "different seeds must produce different variants"
        );
    }

    #[test]
    fn variants_preserve_the_leak_contract_shape() {
        for seed in 0..32u64 {
            for k in fuzz_battery(seed) {
                assert!(k.expected_slots.contains(&k.secret), "{}", k.trace.name());
                assert!(
                    k.expected_slots.iter().all(|s| k.allowed_slots.contains(s)),
                    "{}",
                    k.trace.name()
                );
                assert!(
                    *k.allowed_slots.iter().max().unwrap() < k.channel.entries,
                    "{}: slots exceed the channel",
                    k.trace.name()
                );
            }
        }
    }

    #[test]
    fn fillers_stay_on_scratch_registers() {
        for seed in 0..16u64 {
            for k in fuzz_battery(seed) {
                for op in k.trace.iter() {
                    if let Some(d) = op.dest() {
                        // Filler destinations are x16..x19; every other
                        // destination belongs to a kernel's documented
                        // structure (x1..x10, x20).
                        let n = d.index();
                        assert!(
                            n <= 10 || (16..=19).contains(&n) || n == 20,
                            "{}: unexpected dest x{n}",
                            k.trace.name()
                        );
                    }
                }
            }
        }
    }
}
