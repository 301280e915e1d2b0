//! Deterministic trace generation from a workload profile.
//!
//! The generator is seeded: the same `(profile, length, seed)` triple always
//! yields the same trace, which the simulator's flush/replay machinery
//! relies on and which makes every experiment reproducible.
//!
//! Two implementations expand a profile, selected by [`GeneratorKind`]:
//!
//! * [`GeneratorKind::Batched`] (the default) treats the RNG as a stream of
//!   raw 64-bit draws: op-kind selection, register picks and address-stream
//!   draws each consume one raw word against a *precomputed exact integer
//!   threshold* (no `f64` conversion, multiply or compare on the hot path),
//!   the streaming/strided address patterns expand with RNG-free
//!   arithmetic, the recent-store window is a fixed ring, and the op vector
//!   is preallocated. (A literal fill-and-consume block buffer of raw draws
//!   was prototyped at block sizes 32–1024 and measured consistently
//!   *slower* on this workload — the four-word xoshiro state lives entirely
//!   in registers once inlined, so buffering adds a store+load round-trip
//!   per draw for nothing.)
//! * [`GeneratorKind::Reference`] is the original per-op RNG walk, kept as
//!   the differential oracle: `crates/workloads/tests/golden_traces.rs`
//!   asserts full [`Trace`] equality between the two across the suite.
//!
//! Both paths consume the underlying xoshiro stream in exactly the same
//! order and map each draw through the same arithmetic, so they are
//! bit-exact by construction.

use crate::profiles::{AccessPattern, WorkloadProfile};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sb_isa::{ArchReg, MicroOp, OpClass, Trace, TraceBuilder};

/// Base virtual address of a workload's data segment.
const DATA_BASE: u64 = 0x1000_0000;

/// Revision of the generator's output mapping, folded into
/// [`WorkloadProfile::fingerprint`] and thence into trace-store cache keys.
/// Bump whenever a change to either generator path alters the traces it
/// produces for the same `(profile, ops, seed)` — otherwise persisted
/// caches (CI restores `target/trace-cache/` across commits) silently serve
/// traces from the old mapping.
pub(crate) const GENERATOR_REVISION: u64 = 1;

/// Which trace-generator implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum GeneratorKind {
    /// Raw-draw stream with integer-threshold selection (default).
    #[default]
    Batched,
    /// The seed per-op RNG walk — the golden oracle the batched path is
    /// differentially tested against.
    Reference,
}

impl std::fmt::Display for GeneratorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GeneratorKind::Batched => "batched",
            GeneratorKind::Reference => "reference",
        })
    }
}

/// Register-allocation conventions of the generator: a rotating window of
/// compute destinations, a rotating window of load destinations, and a set
/// of always-ready pointer registers for address formation.
struct RegFile {
    next_compute: u8,
    next_load: u8,
}

impl RegFile {
    fn new() -> Self {
        RegFile {
            next_compute: 0,
            next_load: 0,
        }
    }

    /// Compute destinations rotate through `x1..=x12`.
    fn compute_dst(&mut self) -> ArchReg {
        let r = ArchReg::int(1 + self.next_compute);
        self.next_compute = (self.next_compute + 1) % 12;
        r
    }

    /// Load destinations rotate through `x16..=x23`.
    fn load_dst(&mut self) -> ArchReg {
        let r = ArchReg::int(16 + self.next_load);
        self.next_load = (self.next_load + 1) % 8;
        r
    }

    /// Pointer registers `x24..=x28`: written once conceptually, always
    /// ready.
    fn pointer(&self, i: u8) -> ArchReg {
        ArchReg::int(24 + i % 5)
    }
}

/// Address stream for a profile's access pattern, confined to a window of
/// the footprint. Loads and stores use separate windows (input vs output
/// arrays), so store traffic does not detrain the stride prefetchers.
struct AddrGen {
    pattern: AccessPattern,
    window_base: u64,
    window_len: u64,
    hot_frac: f64,
    cursor: u64,
}

/// Size of the hot region cache-friendly accesses stay within.
const HOT_REGION: u64 = 12 * 1024;

impl AddrGen {
    fn new(pattern: AccessPattern, window_base: u64, window_len: u64, hot_frac: f64) -> Self {
        AddrGen {
            pattern,
            window_base,
            window_len: window_len.max(4096),
            hot_frac,
            cursor: 0,
        }
    }

    fn next(&mut self, rng: &mut SmallRng) -> u64 {
        let off = match self.pattern {
            AccessPattern::Streaming => {
                self.cursor = (self.cursor + 64) % self.window_len;
                self.cursor
            }
            AccessPattern::Strided { stride } => {
                self.cursor = (self.cursor + stride) % self.window_len;
                self.cursor
            }
            AccessPattern::Random | AccessPattern::PointerChase => {
                let region = if rng.gen::<f64>() < self.hot_frac {
                    HOT_REGION.min(self.window_len)
                } else {
                    self.window_len
                };
                rng.gen_range(0..region / 8) * 8
            }
        };
        DATA_BASE + self.window_base + off
    }
}

/// Fraction of pointer-chase loads that actually chase the previous load's
/// value; the rest are independent accesses (real pointer-heavy code mixes
/// both, which preserves some memory-level parallelism).
const CHASE_FRAC: f64 = 0.4;

/// Expands `profile` into a deterministic trace of `len` micro-ops with the
/// default (batched) generator.
///
/// # Example
///
/// ```
/// use sb_workloads::{generate, spec2017_profiles};
/// let profiles = spec2017_profiles();
/// let t = generate(&profiles[2], 1000, 42); // 503.bwaves
/// assert_eq!(t.len(), 1000);
/// assert_eq!(t.name(), "503.bwaves");
/// ```
#[must_use]
pub fn generate(profile: &WorkloadProfile, len: usize, seed: u64) -> Trace {
    generate_with(GeneratorKind::Batched, profile, len, seed)
}

/// Expands `profile` with an explicit generator implementation. Both kinds
/// produce identical traces for the same `(profile, len, seed)`.
#[must_use]
pub fn generate_with(
    kind: GeneratorKind,
    profile: &WorkloadProfile,
    len: usize,
    seed: u64,
) -> Trace {
    match kind {
        GeneratorKind::Batched => generate_batched(profile, len, seed),
        GeneratorKind::Reference => generate_reference(profile, len, seed),
    }
}

// ---------------------------------------------------------------------------
// Batched implementation
// ---------------------------------------------------------------------------

/// The raw 64-bit draw stream, with integer-exact consume helpers mirroring
/// the shim's `gen::<f64>()` / `gen_range` arithmetic. Draws come straight
/// off the register-resident xoshiro state — see the module docs for why an
/// explicit block buffer was rejected.
struct DrawStream {
    rng: SmallRng,
}

impl DrawStream {
    fn new(seed: u64) -> Self {
        DrawStream {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// The 53-bit mantissa the shim's `gen::<f64>()` scales into `[0, 1)`.
    #[inline]
    fn mantissa(&mut self) -> u64 {
        self.next() >> 11
    }

    /// Integer-exact equivalent of `rng.gen::<f64>() < p` for `cut(p)`.
    #[inline]
    fn below(&mut self, cut: u64) -> bool {
        self.mantissa() < cut
    }

    /// Same draw and arithmetic as the shim's `gen_range(0..n)`.
    #[inline]
    fn index(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 2^53: the scale of the shim's 53-bit-mantissa `f64` conversion.
const F64_SCALE: f64 = 9_007_199_254_740_992.0;

/// Integer threshold such that `mantissa < cut(p)` is exactly
/// `(mantissa as f64 / 2^53) < p` for every 53-bit mantissa.
///
/// `p * 2^53` is exact in `f64` (scaling by a power of two only shifts the
/// exponent; `p <= 1` so no overflow), and for integer `m`, `m < x` over the
/// reals is `m < ceil(x)` — both when `x` is an integer (`ceil` is the
/// identity) and when it is not (`m <= floor(x)`).
fn cut(p: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (p * F64_SCALE).ceil() as u64
    }
}

/// Batched address stream: the streaming/strided patterns expand with pure
/// arithmetic (no RNG draws), the random/pointer-chase patterns consume the
/// same two draws as [`AddrGen`] via precomputed integer cutoffs.
enum BatchedAddr {
    Seq {
        cursor: u64,
        step: u64,
        len: u64,
        base: u64,
    },
    Rand {
        hot_cut: u64,
        hot_slots: u64,
        full_slots: u64,
        base: u64,
    },
}

impl BatchedAddr {
    fn new(pattern: AccessPattern, window_base: u64, window_len: u64, hot_frac: f64) -> Self {
        let len = window_len.max(4096);
        let base = DATA_BASE + window_base;
        match pattern {
            AccessPattern::Streaming => BatchedAddr::Seq {
                cursor: 0,
                step: 64,
                len,
                base,
            },
            AccessPattern::Strided { stride } => BatchedAddr::Seq {
                cursor: 0,
                step: stride,
                len,
                base,
            },
            AccessPattern::Random | AccessPattern::PointerChase => BatchedAddr::Rand {
                hot_cut: cut(hot_frac),
                hot_slots: HOT_REGION.min(len) / 8,
                full_slots: len / 8,
                base,
            },
        }
    }

    #[inline]
    fn next(&mut self, rng: &mut DrawStream) -> u64 {
        match self {
            BatchedAddr::Seq {
                cursor,
                step,
                len,
                base,
            } => {
                *cursor = (*cursor + *step) % *len;
                *base + *cursor
            }
            BatchedAddr::Rand {
                hot_cut,
                hot_slots,
                full_slots,
                base,
            } => {
                let slots = if rng.below(*hot_cut) {
                    *hot_slots
                } else {
                    *full_slots
                };
                *base + rng.index(slots) * 8
            }
        }
    }
}

/// Fixed ring over the 8 most recent store addresses, index-compatible with
/// the reference path's `Vec` + `remove(0)` window (slot `i` is the `i`-th
/// oldest).
struct StoreRing {
    buf: [u64; 8],
    head: usize,
    len: usize,
}

impl StoreRing {
    fn new() -> Self {
        StoreRing {
            buf: [0; 8],
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.buf[(self.head + i) % 8]
    }

    #[inline]
    fn push(&mut self, addr: u64) {
        if self.len < 8 {
            self.buf[(self.head + self.len) % 8] = addr;
            self.len += 1;
        } else {
            self.buf[self.head] = addr;
            self.head = (self.head + 1) % 8;
        }
    }
}

#[allow(clippy::cast_possible_truncation)] // all narrowing casts are < 12 or < 5
fn generate_batched(profile: &WorkloadProfile, len: usize, seed: u64) -> Trace {
    profile.validate();
    let mut rng = DrawStream::new(seed ^ 0x5BAD_5EED);
    let mut ops: Vec<MicroOp> = Vec::with_capacity(len);
    let mut regs = RegFile::new();
    let half = profile.footprint / 2;
    let mut load_addrs = BatchedAddr::new(profile.access, 0, half, profile.hot_frac);
    let mut store_addrs = BatchedAddr::new(profile.access, half, half, profile.hot_frac);

    // Op-kind selection cutoffs: the reference path compares one f64 draw
    // against running sums, so the cutoffs are taken over the same f64 sums.
    let load_cut = cut(profile.load_frac);
    let store_cut = cut(profile.load_frac + profile.store_frac);
    let branch_cut = cut(profile.load_frac + profile.store_frac + profile.branch_frac);
    let alias_cut = cut(profile.alias_rate);
    let chasing_pattern = profile.access == AccessPattern::PointerChase;
    let chase_cut = cut(CHASE_FRAC);
    let addr_compute_cut = cut(profile.addr_from_compute);
    let store_data_cut = cut(profile.store_data_from_load);
    let load_use_cut = cut(profile.load_use);
    let taken_cut = cut(0.4);
    let mispredict_cut = cut(profile.mispredict_rate);
    let dep_serial_cut = cut(profile.dep_serial);
    let fp_cut = cut(profile.fp_frac);
    let fp_div_cut = cut(0.01);
    let fp_mul_cut = cut(0.25);
    let int_div_cut = cut(0.01);
    let int_mul_cut = cut(0.08);

    let mut last_load_dst: Option<ArchReg> = None;
    let mut last_compute_dst: Option<ArchReg> = None;
    let mut recent_stores = StoreRing::new();

    for _ in 0..len {
        let m = rng.mantissa();
        if m < load_cut {
            // ---- load ----
            let aliased = !recent_stores.is_empty() && rng.below(alias_cut);
            let addr = if aliased {
                recent_stores.get(rng.index(recent_stores.len as u64) as usize)
            } else {
                load_addrs.next(&mut rng)
            };
            let chase = chasing_pattern && rng.below(chase_cut);
            let addr_src = if chase {
                // Chase: this load's address depends on the previous load.
                last_load_dst.unwrap_or_else(|| regs.pointer(0))
            } else if rng.below(addr_compute_cut) {
                // Computed index: the address register comes off the
                // compute chain, serializing the load behind its producers.
                last_compute_dst.unwrap_or_else(|| regs.pointer(0))
            } else {
                regs.pointer(rng.index(5) as u8)
            };
            let dst = regs.load_dst();
            ops.push(MicroOp::load(dst, addr_src, addr, 8));
            last_load_dst = Some(dst);
        } else if m < store_cut {
            // ---- store ----
            let addr = store_addrs.next(&mut rng);
            let data_src = if rng.below(store_data_cut) {
                last_load_dst.unwrap_or_else(|| regs.pointer(1))
            } else {
                last_compute_dst.unwrap_or_else(|| regs.pointer(2))
            };
            let addr_src = regs.pointer(rng.index(5) as u8);
            ops.push(MicroOp::store(addr_src, data_src, addr, 8));
            recent_stores.push(addr);
        } else if m < branch_cut {
            // ---- branch ----
            let src = if rng.below(load_use_cut) {
                last_load_dst.unwrap_or_else(|| regs.pointer(3))
            } else {
                last_compute_dst.unwrap_or_else(|| regs.pointer(3))
            };
            let taken = rng.below(taken_cut);
            let mispredicted = rng.below(mispredict_cut);
            ops.push(MicroOp::branch(Some(src), None, taken, mispredicted));
        } else {
            // ---- compute ----
            let fp = rng.below(fp_cut);
            let heavy = rng.mantissa();
            let class = if fp {
                if heavy < fp_div_cut {
                    OpClass::FpDiv
                } else if heavy < fp_mul_cut {
                    OpClass::FpMul
                } else {
                    OpClass::FpAlu
                }
            } else if heavy < int_div_cut {
                OpClass::IntDiv
            } else if heavy < int_mul_cut {
                OpClass::IntMul
            } else {
                OpClass::IntAlu
            };
            let dst = regs.compute_dst();
            let src1 = if rng.below(dep_serial_cut) {
                last_compute_dst.unwrap_or_else(|| regs.pointer(4))
            } else {
                ArchReg::int(1 + rng.index(12) as u8)
            };
            let src2 = if rng.below(load_use_cut) {
                last_load_dst
            } else {
                None
            };
            ops.push(MicroOp::compute(class, dst, Some(src1), src2));
            last_compute_dst = Some(dst);
        }
    }
    Trace::from_parts(profile.name, ops, Vec::new())
}

// ---------------------------------------------------------------------------
// Reference implementation (the seed path, kept as the golden oracle)
// ---------------------------------------------------------------------------

fn generate_reference(profile: &WorkloadProfile, len: usize, seed: u64) -> Trace {
    profile.validate();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5BAD_5EED);
    let mut b = TraceBuilder::new(profile.name);
    let mut regs = RegFile::new();
    let half = profile.footprint / 2;
    let mut load_addrs = AddrGen::new(profile.access, 0, half, profile.hot_frac);
    let mut store_addrs = AddrGen::new(profile.access, half, half, profile.hot_frac);

    // Recent architectural state the generator threads dependencies
    // through.
    let mut last_load_dst: Option<ArchReg> = None;
    let mut last_compute_dst: Option<ArchReg> = None;
    let mut recent_stores: Vec<u64> = Vec::with_capacity(8);

    while b.len() < len {
        let r: f64 = rng.gen();
        if r < profile.load_frac {
            // ---- load ----
            let aliased = !recent_stores.is_empty() && rng.gen::<f64>() < profile.alias_rate;
            let addr = if aliased {
                recent_stores[rng.gen_range(0..recent_stores.len())]
            } else {
                load_addrs.next(&mut rng)
            };
            let chase =
                profile.access == AccessPattern::PointerChase && rng.gen::<f64>() < CHASE_FRAC;
            let addr_src = if chase {
                // Chase: this load's address depends on the previous load.
                last_load_dst.unwrap_or_else(|| regs.pointer(0))
            } else if rng.gen::<f64>() < profile.addr_from_compute {
                // Computed index: the address register comes off the
                // compute chain, serializing the load behind its producers.
                last_compute_dst.unwrap_or_else(|| regs.pointer(0))
            } else {
                regs.pointer(rng.gen_range(0..5))
            };
            let dst = regs.load_dst();
            b.load(dst, addr_src, addr, 8);
            last_load_dst = Some(dst);
        } else if r < profile.load_frac + profile.store_frac {
            // ---- store ----
            let addr = store_addrs.next(&mut rng);
            let data_src = if rng.gen::<f64>() < profile.store_data_from_load {
                last_load_dst.unwrap_or_else(|| regs.pointer(1))
            } else {
                last_compute_dst.unwrap_or_else(|| regs.pointer(2))
            };
            let addr_src = regs.pointer(rng.gen_range(0..5));
            b.store(addr_src, data_src, addr, 8);
            recent_stores.push(addr);
            if recent_stores.len() > 8 {
                recent_stores.remove(0);
            }
        } else if r < profile.load_frac + profile.store_frac + profile.branch_frac {
            // ---- branch ----
            let src = if rng.gen::<f64>() < profile.load_use {
                last_load_dst.unwrap_or_else(|| regs.pointer(3))
            } else {
                last_compute_dst.unwrap_or_else(|| regs.pointer(3))
            };
            let taken = rng.gen::<f64>() < 0.4;
            let mispredicted = rng.gen::<f64>() < profile.mispredict_rate;
            b.branch(Some(src), None, taken, mispredicted);
        } else {
            // ---- compute ----
            let class = pick_compute_class(&mut rng, profile.fp_frac);
            let dst = regs.compute_dst();
            let src1 = if rng.gen::<f64>() < profile.dep_serial {
                last_compute_dst.unwrap_or_else(|| regs.pointer(4))
            } else {
                ArchReg::int(1 + rng.gen_range(0..12))
            };
            let src2 = if rng.gen::<f64>() < profile.load_use {
                last_load_dst
            } else {
                None
            };
            b.push(MicroOp::compute(class, dst, Some(src1), src2));
            last_compute_dst = Some(dst);
        }
    }
    b.build()
}

fn pick_compute_class(rng: &mut SmallRng, fp_frac: f64) -> OpClass {
    let fp = rng.gen::<f64>() < fp_frac;
    let heavy: f64 = rng.gen();
    if fp {
        if heavy < 0.01 {
            OpClass::FpDiv
        } else if heavy < 0.25 {
            OpClass::FpMul
        } else {
            OpClass::FpAlu
        }
    } else if heavy < 0.01 {
        OpClass::IntDiv
    } else if heavy < 0.08 {
        OpClass::IntMul
    } else {
        OpClass::IntAlu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::spec2017_profiles;

    fn profile(name: &str) -> WorkloadProfile {
        *spec2017_profiles()
            .iter()
            .find(|p| p.name.contains(name))
            .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile("gcc");
        let a = generate(&p, 5000, 7);
        let b = generate(&p, 5000, 7);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.op(i), b.op(i), "op {i} differs");
        }
    }

    #[test]
    fn default_generator_is_batched() {
        assert_eq!(GeneratorKind::default(), GeneratorKind::Batched);
        let p = profile("gcc");
        assert_eq!(
            generate(&p, 1000, 3),
            generate_with(GeneratorKind::Batched, &p, 1000, 3)
        );
    }

    #[test]
    fn batched_matches_reference_smoke() {
        // The full differential matrix lives in tests/golden_traces.rs;
        // this in-module smoke check catches regressions early.
        for name in ["gcc", "mcf", "bwaves", "exchange2"] {
            let p = profile(name);
            assert_eq!(
                generate_with(GeneratorKind::Batched, &p, 2_000, 11),
                generate_with(GeneratorKind::Reference, &p, 2_000, 11),
                "{name} diverged"
            );
        }
    }

    #[test]
    fn threshold_cut_is_exact() {
        // cut() must agree with the f64 compare for every mantissa around
        // the cutoff, for representative probabilities.
        for p in [0.0, 0.001, 0.01, 0.08, 0.25, 0.4, 1.0 / 3.0, 0.93, 1.0] {
            let c = cut(p);
            for m in c.saturating_sub(2)..=(c + 2).min((1u64 << 53) - 1) {
                #[allow(clippy::cast_precision_loss)]
                let r = m as f64 * (1.0 / F64_SCALE);
                assert_eq!(m < c, r < p, "p={p} m={m}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = profile("gcc");
        let a = generate(&p, 2000, 1);
        let b = generate(&p, 2000, 2);
        let same = (0..a.len()).filter(|&i| a.op(i) == b.op(i)).count();
        assert!(same < a.len(), "seeds must matter");
    }

    #[test]
    fn mix_matches_profile_within_tolerance() {
        for p in spec2017_profiles() {
            let t = generate(&p, 20_000, 3);
            let loads = t.fraction(|o| o.is_load());
            let stores = t.fraction(|o| o.is_store());
            let branches = t.fraction(|o| o.is_branch());
            assert!(
                (loads - p.load_frac).abs() < 0.02,
                "{}: load frac {loads} vs {}",
                p.name,
                p.load_frac
            );
            assert!((stores - p.store_frac).abs() < 0.02, "{}", p.name);
            assert!((branches - p.branch_frac).abs() < 0.02, "{}", p.name);
        }
    }

    #[test]
    fn mispredict_rate_is_respected() {
        let p = profile("deepsjeng"); // 3% mispredicts
        let t = generate(&p, 50_000, 11);
        let branches = t.iter().filter(|o| o.is_branch()).count();
        let mispredicted = t.iter().filter(|o| o.is_mispredicted()).count();
        let rate = mispredicted as f64 / branches as f64;
        assert!((rate - 0.030).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exchange2_generates_aliasing_loads() {
        let p = profile("exchange2");
        let t = generate(&p, 20_000, 5);
        // Count loads whose address matches any store address in the trace.
        let store_addrs: std::collections::HashSet<u64> = t
            .iter()
            .filter(|o| o.is_store())
            .map(|o| o.mem().unwrap().addr)
            .collect();
        let aliasing = t
            .iter()
            .filter(|o| o.is_load() && store_addrs.contains(&o.mem().unwrap().addr))
            .count();
        let loads = t.iter().filter(|o| o.is_load()).count();
        assert!(
            aliasing as f64 / loads as f64 > 0.3,
            "exchange2 must alias heavily ({aliasing}/{loads})"
        );
    }

    #[test]
    fn streaming_profiles_stay_sequential() {
        let p = profile("bwaves");
        let t = generate(&p, 5_000, 9);
        let addrs: Vec<u64> = t
            .iter()
            .filter(|o| o.is_load())
            .map(|o| o.mem().unwrap().addr)
            .collect();
        // The load address stream interleaves with stores, but deltas must
        // be small and non-negative most of the time (one wrap allowed).
        let increasing = addrs.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(
            increasing as f64 / (addrs.len() - 1) as f64 > 0.95,
            "streaming must be monotone"
        );
    }

    #[test]
    fn addresses_stay_within_footprint() {
        for p in spec2017_profiles() {
            let t = generate(&p, 5_000, 13);
            for op in t.iter() {
                if let Some(m) = op.mem() {
                    assert!(m.addr >= DATA_BASE);
                    assert!(m.addr < DATA_BASE + p.footprint + 64, "{}", p.name);
                }
            }
        }
    }

    #[test]
    fn requested_length_is_exact() {
        let p = profile("xz");
        for kind in [GeneratorKind::Batched, GeneratorKind::Reference] {
            assert_eq!(generate_with(kind, &p, 1234, 1).len(), 1234);
        }
    }
}
