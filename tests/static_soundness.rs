//! The static-analyzer soundness fuzzer: for every randomized attack
//! variant the dynamic leak measurement must fall inside the abstract
//! interpreter's bracket, `must ⊆ dynamic ⊆ may`, on every (scheme ×
//! threat model × scheduler) point — and the variant's generated claim
//! constants must audit clean against the analyzer.
//!
//! This rides the same `sb_workloads::fuzz_attacks` generator as the
//! dynamic contract fuzzer (`attack_fuzz.rs`): 25 cases × 11 scenario
//! families = 275 randomized variants per CI run, each checked on
//! 4 schemes × 2 threat models × 2 schedulers. A violation reports the
//! typed [`SoundnessError`] naming the exact cell.
//!
//! A hand-built kernel beside the fuzzer spans more than 64 distinct
//! 4 KiB regions between training a prefetcher stream and transiently
//! re-touching it, so the stream table's capacity clear sits between the
//! two. It is deliberately not part of `attack_battery` or `fuzz_battery`.
//!
//! [`SoundnessError`]: shadowbinding::analysis::SoundnessError

use proptest::prelude::*;
use sb_experiments::security::measure_leaks_in;
use shadowbinding::analysis::{analyze_kernel, audit_battery, check_soundness};
use shadowbinding::core::{Scheme, ThreatModel};
use shadowbinding::isa::{ArchReg, MicroOp, OpClass, TraceBuilder};
use shadowbinding::uarch::{CancelToken, CoreConfig, SchedulerKind};
use shadowbinding::workloads::fuzz_attacks::{fuzz_battery, FAMILIES};
use shadowbinding::workloads::{AttackKernel, ChannelKind, ProbeChannel, PROBE_BASE, PROBE_STRIDE};
use std::collections::BTreeSet;

/// The dynamic leak set of one run, measured exactly as the
/// `verify-security` judge measures it: channel-decoded transient slots.
fn dynamic_slots(
    kernel: &AttackKernel,
    scheme: Scheme,
    model: ThreatModel,
    scheduler: SchedulerKind,
) -> BTreeSet<usize> {
    measure_leaks_in(kernel, scheme, model, scheduler, &CancelToken::new())
        .expect("a token that never fires cannot interrupt the run")
        .slots
}

/// Checks `must ⊆ dynamic ⊆ may` for one kernel on every scheme, threat
/// model and scheduler, returning every violation as text.
fn bracket_violations(kernel: &AttackKernel) -> Vec<String> {
    let name = kernel.trace.name().to_string();
    let mut out = Vec::new();
    for scheme in Scheme::all() {
        for model in ThreatModel::all() {
            let bounds = analyze_kernel(kernel, scheme, model);
            if !bounds.must.is_subset(&bounds.may) {
                out.push(format!("{name}/{scheme}/{model}: must ⊄ may"));
            }
            for (label, scheduler) in [
                ("wheel", SchedulerKind::EventWheel),
                ("reference", SchedulerKind::Reference),
            ] {
                let dynamic = dynamic_slots(kernel, scheme, model, scheduler);
                out.extend(
                    check_soundness(&name, scheme, model, label, &bounds, &dynamic)
                        .iter()
                        .map(ToString::to_string),
                );
            }
        }
    }
    out
}

/// Trains a stride stream at the end of probe slot 5's page, touches 64
/// more 4 KiB regions (the stream table holds 64, so it clears), then
/// transiently re-touches the stream one stride on. A table that kept the
/// stream would prefetch on into slot 6; the cleared table starts the
/// region afresh and prefetches nothing.
///
/// The simulator must see the accesses in program order: the filler
/// loads form one dependency chain hanging off the last training load,
/// and a run of ALU ops longer than the ROB keeps the branch (and so its
/// wrong path) from dispatching before the last filler commits. The
/// fillers also share the re-touched line's L1 and L2 sets, evicting the
/// copy the trained stream prefetched, so the transient access misses.
fn stream_table_clear_kernel() -> AttackKernel {
    let x = ArchReg::int;
    let slot5_tail = PROBE_BASE + 5 * PROBE_STRIDE + 0xF00;
    let retouch = slot5_tail + 3 * 64;
    let mut b = TraceBuilder::new("stream-table-clear");
    for k in 0..3 {
        b.load(x(1), x(28), slot5_tail + k * 64, 8);
    }
    // 64 KiB apart: a new 4 KiB region each, all in `retouch`'s sets.
    let mut chain = x(1);
    for region in 0..64u64 {
        b.load(
            x(2),
            chain,
            0x6000_0000 + (retouch & 0xFFFF) + region * 0x1_0000,
            8,
        );
        chain = x(2);
    }
    for _ in 0..2 * CoreConfig::mega().rob_entries {
        b.alu(x(5), None, None);
    }
    // A slow-resolving branch whose wrong path continues the stream.
    b.load(x(9), x(28), 0x3400_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);
    b.wrong_path(br, vec![MicroOp::load(x(3), x(28), retouch, 8)]);
    b.alu(x(4), None, None);
    AttackKernel {
        trace: b.build(),
        secret: 5,
        channel: ProbeChannel::page_stride(),
        channel_kind: ChannelKind::CacheState,
        min_model: ThreatModel::Spectre,
        expected_slots: vec![5],
        allowed_slots: vec![5],
        predictor: None,
    }
}

#[test]
fn stream_table_clear_keeps_the_bracket() {
    let kernel = stream_table_clear_kernel();
    let trace = &kernel.trace;
    let regions: BTreeSet<u64> = (0..trace.len())
        .filter_map(|i| trace.op(i).mem())
        .map(|m| m.addr >> 12)
        .collect();
    assert!(regions.len() > 64, "{} regions", regions.len());
    let baseline = analyze_kernel(&kernel, Scheme::Baseline, ThreatModel::Spectre);
    assert_eq!(
        baseline.must,
        BTreeSet::from([5]),
        "the re-touch itself leaks"
    );
    assert!(!baseline.may.contains(&6), "no run-ahead past the clear");
    let violations = bracket_violations(&kernel);
    assert!(violations.is_empty(), "{}", violations.join("; "));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn static_bracket_contains_every_dynamic_measurement(
        seed in 0u64..1_000_000_000
    ) {
        let battery = fuzz_battery(seed);
        prop_assert_eq!(battery.len(), FAMILIES);

        // The generated claim constants themselves must be reproducible
        // from the analyzer — the audit is part of the soundness story.
        let drifts = audit_battery(&battery);
        prop_assert!(drifts.is_empty(), "#{}: claims drifted: {:?}", seed, drifts);

        for kernel in &battery {
            let name = kernel.trace.name().to_string();
            for scheme in Scheme::all() {
                for model in ThreatModel::all() {
                    let bounds = analyze_kernel(kernel, scheme, model);
                    prop_assert!(
                        bounds.must.is_subset(&bounds.may),
                        "{}#{}/{}/{}: must ⊄ may", name, seed, scheme, model
                    );
                    for (label, scheduler) in [
                        ("wheel", SchedulerKind::EventWheel),
                        ("reference", SchedulerKind::Reference),
                    ] {
                        let dynamic = dynamic_slots(kernel, scheme, model, scheduler);
                        let errors = check_soundness(
                            &name, scheme, model, label, &bounds, &dynamic,
                        );
                        prop_assert!(
                            errors.is_empty(),
                            "#{}: {}",
                            seed,
                            errors
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join("; ")
                        );
                    }
                }
            }
        }
    }
}
