//! Transient-execution attack kernels — the BOOM-attacks analogue the paper
//! uses to verify that the implemented schemes actually mitigate Spectre
//! (§7), grown into a battery of eleven scenarios covering the C-shadow and
//! D-shadow sides of the combined threat model (§2.4) plus a
//! prefetcher-amplified and a deep-speculation variant, an eviction-set
//! (prime+probe) channel over the shared L2, an MSHR-contention channel,
//! an M-shadow scenario that only the Futuristic threat model (§6)
//! claims — under the Spectre model the secure schemes are *expected* to
//! leak it, which is what proves the M/E shadows do real work — and the
//! Spectre-v2 family (PHT poisoning, BTB injection, and
//! predictor-state-survives-squash), whose channel is the modelled
//! frontend predictor's own table state rather than the data caches.
//!
//! Each kernel is a trace whose transient micro-ops (wrong-path ops, or
//! correct-path ops doomed to a forwarding-error replay) encode a secret
//! into a cache *probe channel*: slot `s` of the channel changes cache
//! state iff the secret value is `s`. Two observers can see the leak:
//!
//! * `sb_mem::LeakageObserver` — the verifier's omniscient view: every
//!   cache-state change attributed to a squashed instruction, decoded over
//!   the kernel's [`ProbeChannel`]. It recovers what a flush+reload
//!   attacker would, and also catches channels flush+reload cannot
//!   separate (prefetch amplification, evictions). `sb-experiments
//!   verify-security` runs the whole battery this way under every scheme,
//!   both schedulers, and both threat models;
//! * `sb_mem::ContentionObserver` — the resource-pressure view (MSHR
//!   occupancy, memory-port uses) that decodes the contention scenario,
//!   whose signal is never retained cache state.
//!
//! Every kernel documents its **secret address set**: the exact cache
//! lines its transient path may touch as a function of the secret. The
//! security property verified downstream is that under the Baseline scheme
//! the transient path changes cache state inside that set, and under
//! STT-Rename / STT-Issue / NDA it changes *nothing* in the set.

use sb_core::ThreatModel;
use sb_isa::{ArchReg, MicroOp, OpClass, Trace, TraceBuilder};
use sb_mem::{ContentionObserver, LeakageObserver};
use std::collections::BTreeSet;

/// Base address of the attacker's page-stride probe array.
pub const PROBE_BASE: u64 = 0x4000_0000;

/// Stride between probe slots (one slot per page to avoid prefetch noise).
pub const PROBE_STRIDE: u64 = 4096;

/// Number of slots in the page-stride probe array.
pub const PROBE_ENTRIES: usize = 16;

/// Base address of the line-stride probe array used by the
/// prefetcher-amplification kernel (dense on purpose: the stride
/// prefetcher must be able to run ahead inside one 4 KiB region).
pub const AMP_BASE: u64 = 0x5000_0000;

/// Stride between amplification probe slots: exactly one cache line.
pub const AMP_STRIDE: u64 = 64;

/// Number of slots in the line-stride probe array (covers the direct
/// accesses plus the deepest prefetch run-ahead for any valid secret).
pub const AMP_ENTRIES: usize = 32;

/// Base address of the attacker's eviction-set priming region (the
/// prime+probe kernel). Aligned so `EVSET_PRIME_BASE + k * 64` maps to L2
/// set `k` (and L1 set `k % 64`).
pub const EVSET_PRIME_BASE: u64 = 0x6000_0000;

/// Base address of the victim's secret-indexed region in the prime+probe
/// kernel (same set alignment as the priming region, different tags).
pub const EVSET_TARGET_BASE: u64 = 0x7000_0000;

/// Stride between two addresses mapping to the *same* L2 set
/// (1024 sets × 64-byte lines).
pub const EVSET_SET_STRIDE: u64 = 0x1_0000;

/// Ways the attacker primes per set — the L2 (and L1D) associativity, so a
/// primed set is exactly full.
pub const EVSET_WAYS: usize = 8;

/// First L2 set the prime+probe channel uses. Offsetting the channel keeps
/// the kernel's helper lines (secret buffer, bounds-check operand — all
/// set 0 by construction) out of the monitored sets.
pub const EVSET_SET_OFFSET: usize = 8;

/// Base address of the contention kernel's secret-indexed page array.
pub const CONT_BASE: u64 = 0x8000_0000;

/// Stride between contention probe slots (one 4 KiB page per secret value,
/// so the transient burst and its prefetch run-ahead stay inside one slot).
pub const CONT_STRIDE: u64 = 4096;

/// Number of slots in the contention channel.
pub const CONT_ENTRIES: usize = 16;

/// Loads in the contention kernel's transient burst (each a demand L1
/// miss, so each occupies an MSHR for its fill's full latency).
pub const CONT_BURST: usize = 3;

/// Base pc of the v2 kernels' secret-indexed transient branches. A
/// multiple of the PHT size, so with [`PredictorParams::v2_default`]'s
/// 64-entry PHT (and `ghr_bits = 0`) the branch at `PHT_PC_BASE + s`
/// trains PHT index `s` exactly — and, being also a multiple of the
/// 16-entry BTB, BTB index `s` for `s < 16`.
pub const PHT_PC_BASE: u64 = 0x100;

/// Pc of the v2 kernels' transient-window branch: PHT index 48, safely
/// outside the 16-slot predictor channel so its own (non-transient)
/// training never collides with the judged slots.
pub const PHT_WINDOW_PC: u64 = PHT_PC_BASE + 48;

/// Victim branch pc in the BTB-injection kernel (BTB index 0).
pub const BTB_VICTIM_PC: u64 = 0x40;

/// Attacker branch pc in the BTB-injection kernel: same BTB index as the
/// victim (16 entries apart), different tag — the aliasing that makes
/// cross-training displace the victim's entry.
pub const BTB_ATTACKER_PC: u64 = BTB_VICTIM_PC + 16;

/// The predictor geometry a kernel requires the core to model, as plain
/// parameters (sb-workloads does not depend on sb-uarch; experiment and
/// analysis layers map this onto `sb_uarch::PredictorConfig`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorParams {
    /// Pattern history table entries (2-bit counters); power of two.
    pub pht_entries: usize,
    /// Branch target buffer entries (direct-mapped, tagged); power of two.
    pub btb_entries: usize,
    /// Global history bits in the gshare index (0 = per-pc bimodal).
    pub ghr_bits: u32,
}

impl PredictorParams {
    /// The geometry every v2 kernel uses: 64-entry PHT, 16-entry BTB, no
    /// global history (so PHT indices equal `pc - PHT_PC_BASE` and the
    /// channel decode is exact).
    #[must_use]
    pub fn v2_default() -> Self {
        PredictorParams {
            pht_entries: 64,
            btb_entries: 16,
            ghr_bits: 0,
        }
    }
}

/// The probe-array geometry a kernel transmits through, as the observers
/// decode it (`LeakageObserver::transient_slots(base, stride, entries)`,
/// `ContentionObserver::transient_mshr_slots(base, stride, entries)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeChannel {
    /// First slot's address.
    pub base: u64,
    /// Bytes between consecutive slots.
    pub stride: u64,
    /// Number of slots.
    pub entries: usize,
}

impl ProbeChannel {
    /// The page-stride channel shared by most kernels.
    #[must_use]
    pub fn page_stride() -> Self {
        ProbeChannel {
            base: PROBE_BASE,
            stride: PROBE_STRIDE,
            entries: PROBE_ENTRIES,
        }
    }

    /// The dense line-stride channel of the prefetch-amplification kernel.
    #[must_use]
    pub fn line_stride() -> Self {
        ProbeChannel {
            base: AMP_BASE,
            stride: AMP_STRIDE,
            entries: AMP_ENTRIES,
        }
    }

    /// The eviction-set channel of the prime+probe kernel: slot `s` is the
    /// attacker's first-primed line of L2 set `EVSET_SET_OFFSET + s` — the
    /// LRU victim a transient fill of that set must evict.
    #[must_use]
    pub fn eviction_set() -> Self {
        ProbeChannel {
            base: EVSET_PRIME_BASE + (EVSET_SET_OFFSET as u64) * 64,
            stride: 64,
            entries: PROBE_ENTRIES,
        }
    }

    /// The page-stride channel of the MSHR-contention kernel: slot `s`
    /// covers the page whose lines the transient burst misses on.
    #[must_use]
    pub fn contention_pages() -> Self {
        ProbeChannel {
            base: CONT_BASE,
            stride: CONT_STRIDE,
            entries: CONT_ENTRIES,
        }
    }

    /// The predictor-state channel of the v2 kernels: slot `s` *is*
    /// predictor table index `s` (base 0, stride 1 — the observer records
    /// table indices, not byte addresses). With the v2 branch pcs at
    /// `PHT_PC_BASE + s`, both the PHT counter and the BTB entry a
    /// transient branch trains land in slot `s`.
    #[must_use]
    pub fn predictor_state() -> Self {
        ProbeChannel {
            base: 0,
            stride: 1,
            entries: PROBE_ENTRIES,
        }
    }

    /// Address of probe slot `i`.
    #[must_use]
    pub fn slot_addr(&self, i: usize) -> u64 {
        self.base + self.stride * i as u64
    }

    /// Decodes an event address into its probe slot, if it falls inside
    /// the channel — the inverse of [`ProbeChannel::slot_addr`] and the
    /// exact slot arithmetic of `LeakageObserver::transient_slots` /
    /// `ContentionObserver::transient_mshr_slots`, shared here so the
    /// dynamic observers and the static analyzer can never drift on how
    /// addresses map to slots.
    #[must_use]
    pub fn slot_of_addr(&self, addr: u64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        let slot = usize::try_from(off / self.stride).ok()?;
        (slot < self.entries).then_some(slot)
    }
}

/// The microarchitectural medium a kernel transmits through — it selects
/// which observer the security judge decodes the leak from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKind {
    /// Retained cache state: fills, evictions, prefetch installs
    /// (`sb_mem::LeakageObserver`, projected through the probe channel).
    CacheState,
    /// MSHR occupancy: which miss-status registers squashed instructions
    /// held (`sb_mem::ContentionObserver::transient_mshr_slots`) — a
    /// resource-pressure channel, not retained state.
    MshrContention,
    /// Frontend predictor state: which PHT counters / BTB entries squashed
    /// branches trained (`sb_mem::LeakageObserver::transient_predictor_slots`)
    /// — retained state the squash never rolls back, read out by an
    /// attacker timing its own branches.
    PredictorState,
}

/// A ready-to-run attack kernel.
#[derive(Clone, Debug)]
pub struct AttackKernel {
    /// The victim+attacker instruction trace.
    pub trace: Trace,
    /// The secret value the transient path encodes.
    pub secret: usize,
    /// The probe-array geometry the kernel transmits through.
    pub channel: ProbeChannel,
    /// Which observer medium decodes the leak.
    pub channel_kind: ChannelKind,
    /// The weakest threat model whose protection claim covers this
    /// scenario. `Spectre` scenarios (C/D-shadow rooted) are claimed by
    /// both models; a `Futuristic` scenario's taint root is covered only
    /// by M/E shadows, so under the Spectre model the secure schemes are
    /// *expected to leak it* — see [`AttackKernel::claimed_under`].
    pub min_model: ThreatModel,
    /// Slots of `channel` that MUST change cache state when the transient
    /// path executes unhindered (the Baseline leak signature — and, for a
    /// secure scheme judged under a model that does NOT claim this
    /// scenario, its expected out-of-claim leak signature too). Always
    /// includes the slot directly encoding `secret`.
    pub expected_slots: Vec<usize>,
    /// The full documented secret address set, as channel slots: every slot
    /// the transient path may touch directly *or* via amplification
    /// (prefetch run-ahead). Baseline (and out-of-claim secure-scheme)
    /// leaks must stay inside this set; in-claim secure schemes must leak
    /// in none of it.
    pub allowed_slots: Vec<usize>,
    /// The modelled frontend predictor this kernel requires, if any. The
    /// v1-era kernels run predictor-off (trace bits drive fetch, exactly
    /// as before); the v2 family needs the modelled predictor both to
    /// open its windows (BTB injection) and to carry its signal (PHT/BTB
    /// state).
    pub predictor: Option<PredictorParams>,
}

impl AttackKernel {
    /// Whether `model`'s protection claim covers this scenario: a secure
    /// scheme running under `model` must block it iff this returns true.
    /// Out-of-claim scenarios are still judged — the secure scheme is
    /// expected to leak `expected_slots` within `allowed_slots`, proving
    /// the channel exists and the stronger model's shadows are what close
    /// it.
    #[must_use]
    pub fn claimed_under(&self, model: ThreatModel) -> bool {
        model.covers(self.min_model)
    }

    /// Decodes this kernel's transient leak set from the pair of attached
    /// observers, dispatching on the channel medium — the one place the
    /// [`ChannelKind`] → observer mapping lives, shared by the security
    /// judge, the golden leak-set oracle and the attack fuzzer so they
    /// can never drift apart on what they measure.
    #[must_use]
    pub fn decode_transient_slots(
        &self,
        leakage: &LeakageObserver,
        contention: &ContentionObserver,
    ) -> BTreeSet<usize> {
        let c = self.channel;
        match self.channel_kind {
            ChannelKind::CacheState => leakage.transient_slots(c.base, c.stride, c.entries),
            ChannelKind::MshrContention => {
                contention.transient_mshr_slots(c.base, c.stride, c.entries)
            }
            ChannelKind::PredictorState => {
                leakage.transient_predictor_slots(c.base, c.stride, c.entries)
            }
        }
    }
}

fn x(n: u8) -> ArchReg {
    ArchReg::int(n)
}

/// Spectre v1: a bounds-check branch mispredicts; the transient path loads
/// a secret and transmits it through a secret-dependent load address.
///
/// Under the unsafe baseline the probe slot for `secret` becomes cache
/// resident; STT blocks the transmit load (its address is tainted by the
/// transient secret load), and NDA never broadcasts the secret load's data.
///
/// **Secret address set:** exactly the one line `PROBE_BASE +
/// secret * PROBE_STRIDE`.
///
/// # Panics
///
/// Panics if `secret >= 16` (the probe array has 16 slots).
#[must_use]
pub fn spectre_v1_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("spectre-v1");

    // Victim code warms the in-bounds data the transient load will hit
    // (array1 in the classic gadget is architecturally accessible).
    b.load(x(6), x(28), 0x2000_0000, 8);

    // The bounds check: its operand arrives late (cold load + divides), so
    // the mispredicted branch resolves long after the transient window
    // opens.
    b.load(x(9), x(28), 0x3000_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient path: read the secret (in-bounds warm line so it returns
    // quickly), compute the probe index, transmit.
    let probe_addr = PROBE_BASE + secret as u64 * PROBE_STRIDE;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000_0000, 8),
            MicroOp::alu(x(3), Some(x(1)), None),
            MicroOp::load(x(4), x(3), probe_addr, 8),
        ],
    );

    // Correct path continues.
    b.alu(x(5), None, None);
    b.alu(x(5), Some(x(5)), None);
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

/// Spectre v1 with prefetcher amplification: the transient path touches
/// *three* consecutive lines of a dense (line-stride) probe array starting
/// at the secret's slot. The stride prefetchers (degree 2 at L1, 4 at L2)
/// detect the transient stream and run ahead, installing lines the
/// transient code never touched — the leak is *amplified* beyond the
/// architectural access footprint, which only the leakage observer (not a
/// single-slot flush+reload recovery) attributes correctly.
///
/// **Secret address set:** lines `AMP_BASE + (secret + k) * 64` for
/// `k in 0..=2` (direct transient accesses) and `k in 3..=6` (worst-case
/// prefetch run-ahead: L1 degree 2 reaches `k=4`, L2 degree 4 reaches
/// `k=6`). The Baseline leak signature must include the three direct lines
/// plus `k=3` (the first amplified line, proving the prefetcher leaked
/// state on the transient path's behalf).
///
/// # Panics
///
/// Panics if `secret >= 16` (so the deepest run-ahead `secret + 6` stays
/// inside the 32-slot array).
#[must_use]
pub fn spectre_v1_prefetch_kernel(secret: usize) -> AttackKernel {
    assert!(secret < 16, "amplified secret must fit 16 values");
    let mut b = TraceBuilder::new("spectre-v1-prefetch");

    // Warm the secret line; cold bounds check with a long resolve chain.
    b.load(x(6), x(28), 0x2000_0000, 8);
    b.load(x(9), x(28), 0x3000_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient path: read the secret, then stream three consecutive lines
    // of the dense probe array — enough for the stride detectors to gain
    // confidence and prefetch ahead.
    let slot = |k: usize| AMP_BASE + (secret + k) as u64 * AMP_STRIDE;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000_0000, 8),
            MicroOp::alu(x(3), Some(x(1)), None),
            MicroOp::load(x(4), x(3), slot(0), 8),
            MicroOp::load(x(5), x(3), slot(1), 8),
            MicroOp::load(x(7), x(3), slot(2), 8),
        ],
    );

    b.alu(x(8), None, None);
    AttackKernel {
        trace: b.build(),
        secret,
        channel: ProbeChannel::line_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        // Three direct lines plus the first prefetched one: the
        // prefetchers emit on the third access of a constant-stride
        // stream, so `secret + 3` is deterministically installed.
        expected_slots: (secret..=secret + 3).collect(),
        // L2's degree-4 run-ahead bounds the reachable set.
        allowed_slots: (secret..=secret + 6).collect(),
        predictor: None,
    }
}

/// Speculative Store Bypass (§6's D-shadow motivation, Spectre v4): a
/// store's address arrives late; a younger load speculatively bypasses it,
/// reads the *stale* secret value, and transmits it before the forwarding
/// error is detected.
///
/// The combined C+D-shadow tracking must treat the bypassing load's value
/// as speculative (the unresolved store casts a D-shadow), so STT taints it
/// and NDA withholds its broadcast.
///
/// **Secret address set:** exactly the one line `PROBE_BASE +
/// secret * PROBE_STRIDE` (touched by the doomed first execution of the
/// transmit load; the post-flush replay re-touches the same literal line,
/// which the leakage observer correctly attributes to the *committed*
/// replay, not the squashed transient).
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn ssb_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("ssb");
    const SLOT: u64 = 0x2100_0000;

    // Warm the slot so the stale read returns quickly.
    b.load(x(6), x(28), SLOT, 8);

    // The store that should overwrite the stale secret: its address operand
    // is produced by a cold load + divides, so address generation is late.
    b.load(x(9), x(28), 0x3100_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.store(x(9), x(28), SLOT, 8);

    // The bypassing load (reads stale data long before the store address
    // resolves), then the transmit chain.
    let probe_addr = PROBE_BASE + secret as u64 * PROBE_STRIDE;
    b.load(x(1), x(27), SLOT, 8);
    b.alu(x(3), Some(x(1)), None);
    b.load(x(4), x(3), probe_addr, 8);
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

/// Store→load forwarding transmitter: the transient path copies the secret
/// through the store queue — a wrong-path store writes the secret, a
/// younger wrong-path load *forwards* it (never touching the cache), and
/// the forwarded value feeds the transmit load's address. This probes the
/// taint/speculation plumbing across the forwarding path: a scheme that
/// only tracked cache-read data would lose the secret's speculative status
/// at the forward and let the transmit through.
///
/// **Secret address set:** exactly the one line `PROBE_BASE +
/// secret * PROBE_STRIDE`. The forwarding buffer line (`0x2300_0000`) is
/// never accessed by the wrong path (the store never commits, the load
/// forwards), so it is not part of the channel.
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn store_forward_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("store-forward");
    const BUF: u64 = 0x2300_0000;

    // Warm the secret line; cold bounds check with a long resolve chain.
    b.load(x(6), x(28), 0x2200_0000, 8);
    b.load(x(9), x(28), 0x3200_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient path: secret -> store -> forwarding load -> transmit.
    let probe_addr = PROBE_BASE + secret as u64 * PROBE_STRIDE;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2200_0000, 8),
            MicroOp::store(x(28), x(1), BUF, 8),
            MicroOp::load(x(2), x(27), BUF, 8),
            MicroOp::alu(x(3), Some(x(2)), None),
            MicroOp::load(x(4), x(3), probe_addr, 8),
        ],
    );

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

/// Nested-misprediction deep speculation: the transmit sits under *two*
/// control shadows — the mispredicted bounds check plus a second,
/// correctly-predicted branch inside the transient window whose operand
/// resolves late (a divide on the secret). A scheme that untainted on the
/// first shadow's resolution alone, or tracked only the youngest shadow,
/// would open the gate early; the paper's YRoT machinery must keep the
/// transmit masked until *every* covering root is safe.
///
/// **Secret address set:** exactly the one line `PROBE_BASE +
/// secret * PROBE_STRIDE`.
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn nested_speculation_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("nested-speculation");

    // Warm the secret line; cold bounds check with a long resolve chain.
    b.load(x(6), x(28), 0x2000_0000, 8);
    b.load(x(9), x(28), 0x3000_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient path: the secret feeds a divide whose result both steers a
    // nested branch (casting the second C-shadow, resolving late) and
    // forms the transmit address.
    let probe_addr = PROBE_BASE + secret as u64 * PROBE_STRIDE;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000_0000, 8),
            MicroOp::compute(OpClass::IntDiv, x(3), Some(x(1)), None),
            MicroOp::branch(Some(x(3)), None, true, false),
            MicroOp::alu(x(4), Some(x(3)), None),
            MicroOp::load(x(5), x(4), probe_addr, 8),
        ],
    );

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

/// Prime+probe over a shared L2: the attacker fills every channel set
/// (8 ways each, the full associativity) with its own lines, then the
/// victim's transient path performs one secret-indexed access whose fill
/// must *evict* an attacker line from L2 set `EVSET_SET_OFFSET + secret`
/// (and the congruent L1D set). Unlike flush+reload, nothing secret ever
/// becomes cache-resident in attacker-readable form — the signal is the
/// *victim address* of the eviction, which only the leakage observer's
/// eviction records (or a real attacker's re-probe latency) can see.
///
/// Priming is committed attacker code (its fills and evictions are
/// non-transient by construction); sets are walked set-major so
/// consecutive accesses sit in distinct 4 KiB regions at 64 KiB stride
/// within a set, and per-set LRU order is the demand order — the victim
/// of the transient fill is deterministically the first-primed way.
///
/// **Secret address set:** exactly the one attacker line
/// `EVSET_PRIME_BASE + (EVSET_SET_OFFSET + secret) * 64` (way 0 of the
/// target set — the LRU victim at both levels).
///
/// # Panics
///
/// Panics if `secret >= 16` (the channel monitors 16 sets).
#[must_use]
pub fn prime_probe_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "channel monitors 16 sets");
    let mut b = TraceBuilder::new("prime-probe");

    // Attacker primes: for each monitored set, 8 same-set lines (one per
    // way). Set-major order keeps per-set LRU = way order, and the
    // 64 KiB way stride puts consecutive same-set accesses in distinct
    // prefetcher regions.
    for set in 0..PROBE_ENTRIES {
        for way in 0..EVSET_WAYS {
            let addr = EVSET_PRIME_BASE
                + (EVSET_SET_OFFSET + set) as u64 * 64
                + way as u64 * EVSET_SET_STRIDE;
            b.load(x(10), x(28), addr, 8);
        }
    }

    // Victim: warm the secret line, then the late-resolving bounds check.
    b.load(x(6), x(28), 0x2200_0000, 8);
    b.load(x(9), x(28), 0x3300_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient path: one secret-indexed access into a fully-primed set.
    let target = EVSET_TARGET_BASE + (EVSET_SET_OFFSET + secret) as u64 * 64;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2200_0000, 8),
            MicroOp::alu(x(3), Some(x(1)), None),
            MicroOp::load(x(4), x(3), target, 8),
        ],
    );

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

/// MSHR contention: the transient path bursts `CONT_BURST` demand misses
/// into the secret's page, occupying miss-status holding registers for the
/// fills' full latency. The judged observable is *which MSHRs squashed
/// instructions held* (`sb_mem::ContentionObserver`), a resource-pressure
/// channel a co-resident attacker reads as bank-conflict latency during
/// the transient window — the battery's first non-cache-state medium
/// (this model's MSHR occupancy coincides with fills, but the observer
/// also counts pure port pressure, which leaves no cache state at all).
/// NDA and both STT variants must close it exactly like the cache-fill
/// channels: the burst addresses derive from transiently loaded data.
///
/// **Secret address set:** the `CONT_BURST` lines
/// `CONT_BASE + secret * 4096 + k * 64` (`k < CONT_BURST`) — all inside
/// channel slot `secret`, as is their worst-case prefetch run-ahead.
///
/// # Panics
///
/// Panics if `secret >= 16` (the channel has 16 page slots).
#[must_use]
pub fn mshr_contention_kernel(secret: usize) -> AttackKernel {
    assert!(secret < CONT_ENTRIES, "channel has 16 page slots");
    let mut b = TraceBuilder::new("mshr-contention");

    // Warm the secret line; cold bounds check with a long resolve chain.
    b.load(x(6), x(28), 0x2400_0000, 8);
    b.load(x(9), x(28), 0x3400_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient path: read the secret, then burst cold loads into page
    // `secret` — each is a demand L1 miss and holds an MSHR.
    let line = |k: usize| CONT_BASE + secret as u64 * CONT_STRIDE + k as u64 * 64;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2400_0000, 8),
            MicroOp::alu(x(3), Some(x(1)), None),
            MicroOp::load(x(4), x(3), line(0), 8),
            MicroOp::load(x(5), x(3), line(1), 8),
            MicroOp::load(x(7), x(3), line(2), 8),
        ],
    );

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

/// M-shadow transmitter (the Futuristic threat model's claim, §6): the
/// taint root is a load `A` covered by **no** C- or D-shadow at issue —
/// only by an older in-flight load `W` that has not yet committed (an
/// M-shadow). A mispredicted branch *younger than `A`* opens the transient
/// window in which `A`'s value addresses the transmit. Under the Spectre
/// model `A` counts as non-speculative, so STT issues the transmit
/// untainted and NDA broadcasts `A` immediately: **every secure scheme
/// leaks** — correctly, because the scenario is outside the Spectre
/// model's claim. Under the Futuristic model `W`'s M-shadow (cast at
/// dispatch, released only when `W` is bound to commit) keeps `A`
/// speculative through the whole window, so the same schemes block it.
///
/// Construction notes: `W` is a cold DRAM load (~98-cycle commit wait);
/// the secret crosses the store queue (store→load forward) so `A`'s value
/// arrives fast without warming anything; the branch operand is a pure
/// ALU+divide chain (never tainted under either model) that resolves
/// ~cycle 17 — long after the transmit fills under the leaking schemes,
/// long before `W` commits and `A`'s taint would die under Futuristic.
///
/// **Secret address set:** exactly the one line `PROBE_BASE +
/// secret * PROBE_STRIDE`.
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn m_shadow_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("m-shadow");
    const WAIT: u64 = 0x2600_0000; // W's cold line: the commit wait
    const SLOT: u64 = 0x2700_0000; // secret buffer, crosses the SQ

    // W: cold in-flight load — the only shadow over A, and only under
    // the Futuristic model.
    b.load(x(20), x(28), WAIT, 8);
    // The secret reaches A by store→load forwarding (both store operands
    // ready at dispatch, so the D-shadow resolves before A can issue).
    b.store(x(28), x(27), SLOT, 8);
    b.load(x(1), x(26), SLOT, 8);
    // Clean, load-free branch-operand chain: resolves at ~cycle 17.
    b.alu(x(9), None, None);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);

    // Transient window: transmit A's value.
    let probe_addr = PROBE_BASE + secret as u64 * PROBE_STRIDE;
    b.wrong_path(
        br,
        vec![
            MicroOp::alu(x(3), Some(x(1)), None),
            MicroOp::load(x(4), x(3), probe_addr, 8),
        ],
    );

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

/// Spectre v2, PHT poisoning: the transient path loads the secret and
/// resolves a branch whose *pc* is secret-indexed (`PHT_PC_BASE + secret`,
/// modelling the secret-dependent indirect-branch history of a real v2
/// gadget). Executing that branch trains the PHT counter at index
/// `secret` — predictor state the squash never rolls back, which a
/// co-resident attacker reads out by timing its own branches at the
/// aliasing pcs. The branch is not-taken, so the signal is pure direction
/// state (no BTB entry is written).
///
/// STT treats branches as transmitters (§4.2): the tainted operand gates
/// execution until the squash ends the window, so the branch never trains
/// and the channel closes. NDA likewise never broadcasts the secret into
/// the branch's operand.
///
/// **Secret address set:** exactly PHT index `secret` (channel slot
/// `secret` of the predictor-state channel).
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn spectre_v2_pht_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("spectre-v2-pht");

    // Warm the secret line; cold window-branch operand with a long
    // resolve chain. The window branch carries its pc so the modelled
    // predictor indexes it (outside the judged slots).
    b.load(x(6), x(28), 0x2000_0000, 8);
    b.load(x(9), x(28), 0x3000_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch_at(Some(x(9)), None, true, true, PHT_WINDOW_PC, PHT_PC_BASE);

    // Transient path: read the secret, then resolve a secret-pc branch.
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000_0000, 8),
            MicroOp::branch_at(
                Some(x(1)),
                None,
                false,
                false,
                PHT_PC_BASE + secret as u64,
                0,
            ),
        ],
    );

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

/// Spectre v2, BTB injection by cross-training: the victim's branch at
/// `BTB_VICTIM_PC` is trained taken (PHT counter up, BTB entry with its
/// target); the attacker then executes its own branch at an *aliasing* pc
/// (same BTB index, different tag), displacing the victim's entry. When
/// the victim's branch runs again the predictor still says taken but the
/// BTB tag-misses, so the frontend cannot have followed the branch: a
/// *dynamic* mispredict the predictor itself produced, opening the
/// transient window in which a v1-style gadget transmits the secret
/// through the cache.
///
/// This is the scenario the modelled predictor exists for — the trace's
/// static bits cannot express a mispredict *caused by attacker training*.
/// The judged channel is the cache transmit (the window is the injected
/// part); the secure schemes close it exactly like v1: the transmit load's
/// address is tainted by the transient secret load.
///
/// **Secret address set:** exactly the one line `PROBE_BASE +
/// secret * PROBE_STRIDE`.
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn spectre_v2_btb_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("spectre-v2-btb");

    // Victim warmup: train the branch taken so the direction predictor
    // saturates and the BTB holds (BTB_VICTIM_PC -> 0x100). The first
    // iteration cold-mispredicts; that is part of training.
    for _ in 0..3 {
        b.branch_at(None, None, true, false, BTB_VICTIM_PC, 0x100);
    }

    // Attacker cross-training: an aliasing branch (same BTB index,
    // different tag) evicts the victim's entry and installs its own
    // target.
    for _ in 0..3 {
        b.branch_at(None, None, true, false, BTB_ATTACKER_PC, 0x200);
    }

    // Victim again: warm secret line, late-resolving operand, then the
    // injected branch. Statically marked mispredicted so the builder
    // accepts the wrong-path block; dynamically the tag mismatch is what
    // opens the window.
    b.load(x(6), x(28), 0x2000_0000, 8);
    b.load(x(9), x(28), 0x3000_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch_at(Some(x(9)), None, true, true, BTB_VICTIM_PC, 0x100);

    let probe_addr = PROBE_BASE + secret as u64 * PROBE_STRIDE;
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000_0000, 8),
            MicroOp::alu(x(3), Some(x(1)), None),
            MicroOp::load(x(4), x(3), probe_addr, 8),
        ],
    );

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

/// Spectre v2, predictor state survives the squash: like the PHT kernel
/// but the transient secret-pc branch is *taken*, so training both moves
/// the PHT counter up and installs a BTB entry at index `secret` — and
/// neither is rolled back when the branch is squashed. The persistent
/// footprint spans two predictor structures at once, the strongest form
/// of the survives-squash property.
///
/// **Secret address set:** PHT index `secret` and BTB index `secret`,
/// which the shared index-space channel both decodes to slot `secret`.
///
/// # Panics
///
/// Panics if `secret >= 16`.
#[must_use]
pub fn spectre_v2_squash_kernel(secret: usize) -> AttackKernel {
    assert!(secret < PROBE_ENTRIES, "probe array has 16 slots");
    let mut b = TraceBuilder::new("spectre-v2-squash");

    b.load(x(6), x(28), 0x2000_0000, 8);
    b.load(x(9), x(28), 0x3000_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch_at(Some(x(9)), None, true, true, PHT_WINDOW_PC, PHT_PC_BASE);

    // Transient path: the secret-pc branch is taken, training PHT *and*
    // BTB before the squash discards the architectural work.
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000_0000, 8),
            MicroOp::branch_at(
                Some(x(1)),
                None,
                true,
                false,
                PHT_PC_BASE + secret as u64,
                0x300,
            ),
        ],
    );

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

/// The full battery, one kernel per scenario, all encoding the same
/// `secret`. Order matches the paper-facing report. Spans five channel
/// families — cache fills (direct and prefetch-amplified), eviction sets,
/// store→load forwarding, MSHR contention, and frontend predictor state
/// (the Spectre-v2 family) — plus the M-shadow scenario only the
/// Futuristic threat model claims.
///
/// # Panics
///
/// Panics if `secret >= 16` (every channel fits 16 secret values).
#[must_use]
pub fn attack_battery(secret: usize) -> Vec<AttackKernel> {
    vec![
        spectre_v1_kernel(secret),
        spectre_v1_prefetch_kernel(secret),
        ssb_kernel(secret),
        store_forward_kernel(secret),
        nested_speculation_kernel(secret),
        prime_probe_kernel(secret),
        mshr_contention_kernel(secret),
        m_shadow_kernel(secret),
        spectre_v2_pht_kernel(secret),
        spectre_v2_btb_kernel(secret),
        spectre_v2_squash_kernel(secret),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectre_kernel_shape() {
        let k = spectre_v1_kernel(7);
        assert_eq!(k.secret, 7);
        let br_idx = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .expect("has a mispredicted branch");
        let wp = k.trace.wrong_path(br_idx).expect("wrong-path block");
        assert_eq!(wp.ops.len(), 3);
        let transmit = wp.ops[2];
        assert!(transmit.is_load());
        assert_eq!(
            transmit.mem().unwrap().addr,
            PROBE_BASE + 7 * PROBE_STRIDE,
            "transmit address encodes the secret"
        );
        assert_eq!(k.expected_slots, vec![7]);
        assert_eq!(k.channel, ProbeChannel::page_stride());
    }

    #[test]
    fn ssb_kernel_has_late_store_and_bypassing_load() {
        let k = ssb_kernel(3);
        let store_idx = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_store())
            .unwrap();
        let bypass_idx = (store_idx + 1..k.trace.len())
            .find(|&i| k.trace.op(i).is_load())
            .unwrap();
        assert_eq!(
            k.trace.op(store_idx).mem().unwrap().addr,
            k.trace.op(bypass_idx).mem().unwrap().addr,
            "the load must alias the late store"
        );
    }

    #[test]
    #[should_panic(expected = "16 slots")]
    fn secret_range_is_validated() {
        let _ = spectre_v1_kernel(16);
    }

    #[test]
    fn distinct_secrets_use_distinct_probe_slots() {
        let a = spectre_v1_kernel(1);
        let b = spectre_v1_kernel(2);
        let addr = |k: &AttackKernel| {
            let br = (0..k.trace.len())
                .find(|&i| k.trace.op(i).is_mispredicted())
                .unwrap();
            k.trace.wrong_path(br).unwrap().ops[2].mem().unwrap().addr
        };
        assert_ne!(addr(&a), addr(&b));
        assert_eq!(addr(&b) - addr(&a), PROBE_STRIDE);
    }

    #[test]
    fn prefetch_kernel_streams_consecutive_lines() {
        let k = spectre_v1_prefetch_kernel(4);
        let br = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .unwrap();
        let wp = k.trace.wrong_path(br).unwrap();
        let addrs: Vec<u64> = wp
            .ops
            .iter()
            .filter(|o| o.is_load() && o.mem().unwrap().addr >= AMP_BASE)
            .map(|o| o.mem().unwrap().addr)
            .collect();
        assert_eq!(
            addrs,
            vec![
                AMP_BASE + 4 * AMP_STRIDE,
                AMP_BASE + 5 * AMP_STRIDE,
                AMP_BASE + 6 * AMP_STRIDE
            ],
            "three consecutive lines starting at the secret's slot"
        );
        assert_eq!(k.expected_slots, vec![4, 5, 6, 7]);
        assert_eq!(k.allowed_slots, (4..=10).collect::<Vec<_>>());
        assert!(*k.allowed_slots.iter().max().unwrap() < AMP_ENTRIES);
    }

    #[test]
    fn store_forward_kernel_forwards_before_transmit() {
        let k = store_forward_kernel(9);
        let br = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .unwrap();
        let wp = k.trace.wrong_path(br).unwrap();
        let store = wp.ops.iter().find(|o| o.is_store()).expect("wp store");
        let fwd_load = wp
            .ops
            .iter()
            .find(|o| o.is_load() && o.mem().unwrap().addr == store.mem().unwrap().addr)
            .expect("a wrong-path load aliases the wrong-path store");
        assert!(fwd_load.dst().is_some());
        let transmit = wp.ops.last().unwrap();
        assert_eq!(transmit.mem().unwrap().addr, PROBE_BASE + 9 * PROBE_STRIDE);
    }

    #[test]
    fn nested_kernel_has_a_branch_inside_the_transient_window() {
        let k = nested_speculation_kernel(2);
        let br = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .unwrap();
        let wp = k.trace.wrong_path(br).unwrap();
        let nested: Vec<_> = wp.ops.iter().filter(|o| o.is_branch()).collect();
        assert_eq!(nested.len(), 1);
        assert!(
            !nested[0].is_mispredicted(),
            "the nested branch resolves without squashing (it is already \
             down the wrong path)"
        );
        let transmit_pos = wp
            .ops
            .iter()
            .position(|o| o.is_load() && o.mem().is_some_and(|m| m.addr >= PROBE_BASE));
        let branch_pos = wp.ops.iter().position(MicroOp::is_branch);
        assert!(
            branch_pos < transmit_pos,
            "the transmit must sit under the nested shadow"
        );
    }

    #[test]
    fn battery_covers_eleven_distinct_scenarios() {
        let battery = attack_battery(5);
        assert_eq!(battery.len(), 11);
        let names: Vec<_> = battery.iter().map(|k| k.trace.name().to_string()).collect();
        assert_eq!(
            names,
            vec![
                "spectre-v1",
                "spectre-v1-prefetch",
                "ssb",
                "store-forward",
                "nested-speculation",
                "prime-probe",
                "mshr-contention",
                "m-shadow",
                "spectre-v2-pht",
                "spectre-v2-btb",
                "spectre-v2-squash"
            ]
        );
        for k in &battery {
            assert_eq!(k.secret, 5);
            assert!(k.expected_slots.contains(&k.secret));
            assert!(
                k.expected_slots.iter().all(|s| k.allowed_slots.contains(s)),
                "{}: expected slots must be allowed",
                k.trace.name()
            );
            assert!(*k.allowed_slots.iter().max().unwrap() < k.channel.entries);
            // Every scenario is claimed by the Futuristic model; only the
            // M-shadow scenario escapes the Spectre model's claim.
            assert!(k.claimed_under(ThreatModel::Futuristic));
            assert_eq!(
                k.claimed_under(ThreatModel::Spectre),
                k.trace.name() != "m-shadow",
                "{}",
                k.trace.name()
            );
        }
        assert_eq!(
            battery
                .iter()
                .filter(|k| k.channel_kind == ChannelKind::MshrContention)
                .count(),
            1
        );
        // Exactly the v2 family asks for a modelled predictor; everything
        // else must run with the predictor off so its golden stats hold.
        for k in &battery {
            assert_eq!(
                k.predictor.is_some(),
                k.trace.name().starts_with("spectre-v2"),
                "{}",
                k.trace.name()
            );
        }
        assert_eq!(
            battery
                .iter()
                .filter(|k| k.channel_kind == ChannelKind::PredictorState)
                .count(),
            2
        );
    }

    #[test]
    fn v2_pht_kernel_trains_the_secret_indexed_counter() {
        let k = spectre_v2_pht_kernel(7);
        let params = k.predictor.expect("v2 kernels carry predictor params");
        assert_eq!(params.pht_entries, 64);
        assert_eq!(params.ghr_bits, 0, "ghr off keeps pht index == pc & 63");
        // The transient branch's pc lands on PHT index == secret, and the
        // window branch sits outside the judged 16-slot channel.
        let wrong = &k.trace.wrong_paths().next().unwrap().1.ops;
        let transient_branch = wrong.iter().find(|o| o.ctrl().is_some()).unwrap();
        let ctrl = transient_branch.ctrl().unwrap();
        assert_eq!(ctrl.pc % params.pht_entries as u64, 7);
        assert!(!ctrl.taken, "pht kernel keeps the btb clean");
        assert!(PHT_WINDOW_PC % params.pht_entries as u64 >= PROBE_ENTRIES as u64);
        assert_eq!(k.channel_kind, ChannelKind::PredictorState);
    }

    #[test]
    fn v2_btb_kernel_cross_trains_an_aliasing_branch() {
        let k = spectre_v2_btb_kernel(3);
        let params = k.predictor.expect("v2 kernels carry predictor params");
        // Victim and attacker pcs share a BTB index but differ in tag —
        // the collision is the injection mechanism.
        assert_eq!(
            BTB_VICTIM_PC % params.btb_entries as u64,
            BTB_ATTACKER_PC % params.btb_entries as u64
        );
        assert_ne!(BTB_VICTIM_PC, BTB_ATTACKER_PC);
        // The transmit rides the cache channel like v1.
        assert_eq!(k.channel_kind, ChannelKind::CacheState);
        let wrong = &k.trace.wrong_paths().next().unwrap().1.ops;
        let transmit = wrong.iter().filter_map(|o| o.mem()).next_back().unwrap();
        assert_eq!(transmit.addr, k.channel.slot_addr(3));
    }

    #[test]
    fn v2_squash_kernel_touches_pht_and_btb_at_the_secret_index() {
        let k = spectre_v2_squash_kernel(4);
        let params = k.predictor.expect("v2 kernels carry predictor params");
        let wrong = &k.trace.wrong_paths().next().unwrap().1.ops;
        let ctrl = wrong.iter().find_map(|o| o.ctrl()).unwrap();
        assert!(ctrl.taken, "a taken transient branch also fills the btb");
        assert_eq!(ctrl.pc % params.pht_entries as u64, 4);
        assert_eq!(ctrl.pc % params.btb_entries as u64, 4);
        assert_eq!(k.channel_kind, ChannelKind::PredictorState);
    }

    #[test]
    fn v2_transient_branches_carry_the_tainted_secret_operand() {
        // Secure schemes gate transmitters by tainted operands: every v2
        // transient branch must consume the transiently-loaded secret or
        // the channel would stay open under STT/NDA.
        for k in [
            spectre_v2_pht_kernel(2),
            spectre_v2_squash_kernel(2),
            spectre_v2_btb_kernel(2),
        ] {
            let wrong = &k.trace.wrong_paths().next().unwrap().1.ops;
            let secret_load = wrong.first().unwrap();
            let dst = secret_load.dst().expect("transient secret load has a dst");
            assert!(
                wrong[1..]
                    .iter()
                    .any(|o| o.src1() == Some(dst) || o.src2() == Some(dst)),
                "{}: transient payload must consume the secret register",
                k.trace.name()
            );
        }
    }

    #[test]
    fn prime_probe_kernel_fills_every_monitored_set() {
        let k = prime_probe_kernel(9);
        // 16 sets x 8 ways of committed priming loads precede the victim.
        let prime_loads: Vec<u64> = k
            .trace
            .iter()
            .take(PROBE_ENTRIES * EVSET_WAYS)
            .map(|o| o.mem().expect("prime load").addr)
            .collect();
        assert_eq!(prime_loads.len(), 128);
        // Way 0 of the secret's set is the channel slot for secret 9.
        assert_eq!(prime_loads[9 * EVSET_WAYS], k.channel.slot_addr(9));
        // All 8 ways of one set map to the same L2 set (1024 sets, 64 B).
        let set_of = |a: u64| (a >> 6) & 1023;
        for ways in prime_loads.chunks(EVSET_WAYS) {
            assert!(ways.iter().all(|&a| set_of(a) == set_of(ways[0])));
        }
        // The transient target aliases the primed set but not its tags.
        let br = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .unwrap();
        let target = k.trace.wrong_path(br).unwrap().ops[2].mem().unwrap().addr;
        assert_eq!(set_of(target), set_of(k.channel.slot_addr(9)));
        assert!(!prime_loads.contains(&target));
    }

    #[test]
    fn contention_kernel_bursts_into_the_secret_page() {
        let k = mshr_contention_kernel(6);
        let br = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .unwrap();
        let wp = k.trace.wrong_path(br).unwrap();
        let burst: Vec<u64> = wp
            .ops
            .iter()
            .filter(|o| o.is_load() && o.mem().unwrap().addr >= CONT_BASE)
            .map(|o| o.mem().unwrap().addr)
            .collect();
        assert_eq!(burst.len(), CONT_BURST);
        for (i, &a) in burst.iter().enumerate() {
            assert_eq!(a, CONT_BASE + 6 * CONT_STRIDE + i as u64 * 64);
            assert_eq!((a - CONT_BASE) / CONT_STRIDE, 6, "inside slot 6");
        }
        assert_eq!(k.channel_kind, ChannelKind::MshrContention);
    }

    #[test]
    fn m_shadow_kernel_has_no_cd_shadow_over_its_root() {
        let k = m_shadow_kernel(4);
        // The transmit's taint root (the forwarding load) sits BEFORE the
        // mispredicted branch: the branch's C-shadow never covers it.
        let root_idx = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_load() && k.trace.op(i).mem().unwrap().addr == 0x2700_0000)
            .expect("forwarding load");
        let store_idx = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_store())
            .expect("secret store");
        let br_idx = (0..k.trace.len())
            .find(|&i| k.trace.op(i).is_mispredicted())
            .expect("window branch");
        assert!(store_idx < root_idx, "the secret crosses the SQ");
        assert!(root_idx < br_idx, "root precedes the window branch");
        assert_eq!(
            k.trace.op(store_idx).mem().unwrap().addr,
            k.trace.op(root_idx).mem().unwrap().addr,
            "the root load forwards from the secret store"
        );
        // The branch-operand chain is load-free: never tainted.
        let wp = k.trace.wrong_path(br_idx).unwrap();
        assert_eq!(
            wp.ops.last().unwrap().mem().unwrap().addr,
            PROBE_BASE + 4 * PROBE_STRIDE
        );
        assert_eq!(k.min_model, ThreatModel::Futuristic);
    }

    #[test]
    fn probe_channel_slot_addresses() {
        let c = ProbeChannel::page_stride();
        assert_eq!(c.slot_addr(0), PROBE_BASE);
        assert_eq!(c.slot_addr(3), PROBE_BASE + 3 * 4096);
        let d = ProbeChannel::line_stride();
        assert_eq!(d.slot_addr(2), AMP_BASE + 128);
    }
}
