//! Behavioural tests for the out-of-order core and the secure-speculation
//! scheme hooks: each test pins one mechanism the paper's evaluation relies
//! on (taint gating, delayed broadcast, partial store issue, forwarding
//! errors, transient-leak blocking).

use sb_core::Scheme;
use sb_isa::{ArchReg, MicroOp, OpClass, Trace, TraceBuilder};
use sb_uarch::{Core, CoreConfig};

fn x(n: u8) -> ArchReg {
    ArchReg::int(n)
}

fn run(config: CoreConfig, scheme: Scheme, trace: Trace) -> Core {
    let mut core = Core::with_scheme(config, scheme, trace);
    core.run_to_completion(2_000_000);
    core
}

fn cycles(config: CoreConfig, scheme: Scheme, trace: &Trace) -> u64 {
    run(config, scheme, trace.clone()).stats().cycles.get()
}

/// Straight-line independent ALU ops: a 4-wide core should sustain close to
/// 4 IPC; a 1-wide core close to 1.
#[test]
fn width_bounds_throughput() {
    let mut b = TraceBuilder::new("alu");
    for i in 0..4000u32 {
        b.alu(x((1 + (i % 8)) as u8), None, None);
    }
    let t = b.build();
    let mega = cycles(CoreConfig::mega(), Scheme::Baseline, &t);
    let small = cycles(CoreConfig::small(), Scheme::Baseline, &t);
    assert!(mega < 1400, "mega should sustain ~4 IPC, took {mega}");
    assert!(small >= 4000, "small is 1-wide, took {small}");
    assert!(small < 4400, "small should still be near 1 IPC");
}

/// A dependent ALU chain is latency-bound regardless of width.
#[test]
fn dependency_chain_serializes() {
    let mut b = TraceBuilder::new("chain");
    for _ in 0..1000 {
        b.alu(x(1), Some(x(1)), None);
    }
    let t = b.build();
    let c = cycles(CoreConfig::mega(), Scheme::Baseline, &t);
    assert!(c >= 1000, "chain must serialize, took {c}");
}

/// All four schemes commit exactly the trace's instruction count — squashes
/// and replays never lose or duplicate architectural work.
#[test]
fn all_schemes_commit_the_same_work() {
    let mut b = TraceBuilder::new("mixed");
    for i in 0..300u64 {
        b.load(x(1), x(2), 0x1000 + (i % 16) * 8, 8);
        b.alu(x(3), Some(x(1)), Some(x(3)));
        b.store(x(2), x(3), 0x2000 + (i % 8) * 8, 8);
        b.branch(Some(x(3)), None, i % 3 == 0, i % 17 == 0);
        b.load(x(4), x(2), 0x2000 + (i % 8) * 8, 8);
    }
    let t = b.build();
    for scheme in Scheme::all() {
        let core = run(CoreConfig::mega(), scheme, t.clone());
        assert_eq!(
            core.stats().committed.get(),
            t.len() as u64,
            "{scheme} must commit the whole trace"
        );
    }
}

/// Determinism: identical runs produce identical statistics.
#[test]
fn simulation_is_deterministic() {
    let mut b = TraceBuilder::new("det");
    for i in 0..200u64 {
        b.load(x(1), x(2), 0x4000 + (i % 32) * 64, 8);
        b.alu(x(2), Some(x(1)), None);
        b.branch(Some(x(2)), None, false, i % 11 == 0);
    }
    let t = b.build();
    let a = run(CoreConfig::large(), Scheme::SttIssue, t.clone());
    let b2 = run(CoreConfig::large(), Scheme::SttIssue, t);
    assert_eq!(a.stats(), b2.stats());
}

/// Builds the taint-gating kernel: a long-latency branch keeps a shadow
/// open; under it, a load feeds a dependent load (a transmitter).
fn taint_kernel(n: u64) -> Trace {
    let mut b = TraceBuilder::new("taint");
    for i in 0..n {
        // Slow producer for the branch operand: a DRAM-cold load.
        b.load(x(9), x(8), 0x100_0000 + i * 4096, 8);
        b.branch(Some(x(9)), None, false, false);
        // Under the branch's shadow: pointer chase (load -> load).
        b.load(x(1), x(2), 0x2000 + (i % 4) * 64, 8);
        b.alu(x(3), Some(x(1)), None);
        b.load(x(4), x(3), 0x3000 + (i % 4) * 64, 8);
    }
    b.build()
}

/// STT must delay tainted transmitters: the secure schemes take strictly
/// more cycles than baseline on the taint kernel, and STT-Issue wastes
/// issue slots discovering taints (§4.3 step 4).
#[test]
fn stt_delays_tainted_transmitters() {
    let t = taint_kernel(200);
    let base = run(CoreConfig::mega(), Scheme::Baseline, t.clone());
    let rename = run(CoreConfig::mega(), Scheme::SttRename, t.clone());
    let issue = run(CoreConfig::mega(), Scheme::SttIssue, t);

    assert!(
        rename.stats().cycles.get() > base.stats().cycles.get(),
        "STT-Rename must pay for taint gating"
    );
    assert!(
        issue.stats().cycles.get() > base.stats().cycles.get(),
        "STT-Issue must pay for taint gating"
    );
    assert!(rename.stats().delayed_transmitters.get() > 0);
    assert!(
        issue.stats().wasted_issue_slots.get() > 0,
        "nop-issued slots"
    );
    assert_eq!(base.stats().wasted_issue_slots.get(), 0);
    assert!(base.stats().delayed_transmitters.get() == 0);
}

/// §9.1: STT-Issue can issue a transmitter the cycle its root becomes safe,
/// while STT-Rename waits for the broadcast — so STT-Issue is at least as
/// fast on the taint kernel.
#[test]
fn stt_issue_is_no_slower_than_stt_rename() {
    let t = taint_kernel(300);
    let rename = cycles(CoreConfig::mega(), Scheme::SttRename, &t);
    let issue = cycles(CoreConfig::mega(), Scheme::SttIssue, &t);
    assert!(
        issue <= rename,
        "STT-Issue ({issue}) should not be slower than STT-Rename ({rename})"
    );
}

/// NDA delays *all* dependents of speculative loads, not just transmitters,
/// so it loses more IPC than STT on a compute-after-load kernel (§8.1's
/// imagick discussion).
#[test]
fn nda_hurts_compute_bound_kernels_more_than_stt() {
    let mut b = TraceBuilder::new("compute");
    for i in 0..300u64 {
        b.branch(Some(x(7)), None, false, false);
        b.load(x(1), x(2), 0x2000 + (i % 4) * 64, 8);
        // A pile of invisible compute on the loaded value.
        for _ in 0..6 {
            b.alu(x(3), Some(x(1)), Some(x(3)));
        }
        b.alu(x(7), Some(x(3)), None);
    }
    let t = b.build();
    let base = cycles(CoreConfig::mega(), Scheme::Baseline, &t);
    let stt = cycles(CoreConfig::mega(), Scheme::SttIssue, &t);
    let nda = cycles(CoreConfig::mega(), Scheme::Nda, &t);
    assert!(nda > stt, "NDA ({nda}) must lose more than STT ({stt})");
    assert!(stt >= base);
    let nda_run = run(CoreConfig::mega(), Scheme::Nda, t);
    assert!(
        nda_run.stats().delayed_transmitters.get() > 0,
        "NDA must have delayed load broadcasts"
    );
    assert!(nda_run.stats().scheme_broadcasts.get() > 0);
}

/// Store-to-load forwarding works: a load overlapping an older store with
/// known address and data forwards instead of reading the cache.
#[test]
fn store_to_load_forwarding_happens() {
    let mut b = TraceBuilder::new("fwd");
    b.alu(x(1), None, None);
    b.store(x(2), x(1), 0x9000, 8);
    b.load(x(3), x(2), 0x9000, 8);
    let core = run(CoreConfig::small(), Scheme::Baseline, b.build());
    // The load never touched the memory hierarchy for 0x9000 as a read:
    // only the store's commit write did. Forwarding means no L1D read miss
    // beyond the store's own write.
    assert_eq!(core.stats().forwarding_errors.get(), 0);
    assert_eq!(core.stats().committed.get(), 3);
}

/// Forwarding-error recovery: a load that speculates past a store with a
/// slow address operand and aliases it must flush and replay (§6, §9.2).
#[test]
fn forwarding_error_flushes_and_replays() {
    let mut b = TraceBuilder::new("fwd-err");
    // Slow address operand: cold load feeding the store's address register.
    b.load(x(1), x(8), 0x200_0000, 8);
    b.alu(x(2), Some(x(1)), None);
    b.store(x(2), x(3), 0xA000, 8);
    // Aliasing younger load issues long before the store address is known.
    b.load(x(4), x(5), 0xA000, 8);
    b.alu(x(6), Some(x(4)), None);
    let t = b.build();
    let core = run(CoreConfig::mega(), Scheme::Baseline, t.clone());
    assert!(
        core.stats().forwarding_errors.get() >= 1,
        "the aliasing load must be caught"
    );
    assert!(core.stats().memdep_speculations.get() >= 1);
    assert!(core.stats().squashed.get() >= 1);
    assert_eq!(core.stats().committed.get(), t.len() as u64);
}

/// §9.2 (exchange2): STT-Rename's unified store taint blocks address
/// generation when only the *data* operand is tainted, causing forwarding
/// errors that STT-Issue avoids by checking the address operand alone.
#[test]
fn unified_store_taint_causes_forwarding_errors() {
    let mut b = TraceBuilder::new("exchange2-micro");
    for i in 0..120u64 {
        // Shadow source: a store whose address operand arrives late-ish.
        b.branch(Some(x(7)), None, false, false);
        // Speculative load producing the store's DATA operand (tainted).
        b.load(x(1), x(2), 0x2000 + (i % 8) * 64, 8);
        // Store: address operand x5 is clean and ready; data x1 is tainted.
        b.store(x(5), x(1), 0xB000 + (i % 4) * 8, 8);
        // Younger aliasing load.
        b.load(x(3), x(5), 0xB000 + (i % 4) * 8, 8);
        b.alu(x(7), Some(x(3)), None);
    }
    let t = b.build();
    let rename = run(CoreConfig::mega(), Scheme::SttRename, t.clone());
    let issue = run(CoreConfig::mega(), Scheme::SttIssue, t.clone());
    assert!(
        rename.stats().forwarding_errors.get() > issue.stats().forwarding_errors.get(),
        "STT-Rename ({}) must suffer more forwarding errors than STT-Issue ({})",
        rename.stats().forwarding_errors.get(),
        issue.stats().forwarding_errors.get()
    );

    // The split-store ablation (§9.2's proposed optimization) rescues
    // STT-Rename.
    let mut cfg = sb_core::SchemeConfig::rtl(Scheme::SttRename, CoreConfig::mega().mem_ports);
    cfg.split_store_taints = true;
    let mut split = Core::new(CoreConfig::mega(), cfg, t);
    split.run_to_completion(2_000_000);
    assert!(
        split.stats().forwarding_errors.get() < rename.stats().forwarding_errors.get(),
        "split store taints must reduce forwarding errors"
    );
}

/// Mispredicted branches squash wrong-path work and pay the redirect
/// penalty; commit counts stay exact.
#[test]
fn mispredict_recovery_is_exact() {
    let mut b = TraceBuilder::new("mispredict");
    for i in 0..100u64 {
        b.alu(x(1), Some(x(1)), None);
        let br = b.branch(Some(x(1)), None, true, true);
        b.wrong_path(
            br,
            vec![
                MicroOp::alu(x(2), Some(x(1)), None),
                MicroOp::load(x(3), x(2), 0x7000 + i * 64, 8),
            ],
        );
        b.alu(x(4), None, None);
    }
    let t = b.build();
    let core = run(CoreConfig::large(), Scheme::Baseline, t.clone());
    assert_eq!(core.stats().committed.get(), t.len() as u64);
    assert_eq!(core.stats().branch_mispredicts.get(), 100);
    assert!(
        core.stats().squashed.get() >= 100,
        "wrong-path ops squashed"
    );
}

/// The Spectre-v1 shape: a transient (wrong-path) secret-dependent load
/// must warm the probe line under the unsafe baseline and must NOT under
/// STT-Rename, STT-Issue, or NDA.
#[test]
fn transient_leak_blocked_by_secure_schemes() {
    const PROBE: u64 = 0x40_0000;

    let build = || {
        let mut b = TraceBuilder::new("spectre");
        // Victim warms the secret's line (it is architecturally reachable
        // data; the *probe* array is what carries the leak).
        b.load(x(6), x(8), 0x1234_0000, 8);
        // Slow branch operand: a cold load plus a divide chain opens a long
        // transient window (the bounds check that resolves late).
        b.load(x(9), x(8), 0x300_0000, 8);
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        let br = b.branch(Some(x(9)), None, true, true);
        b.wrong_path(
            br,
            vec![
                // Transient secret access (allowed by STT: address clean).
                MicroOp::load(x(1), x(2), 0x1234_0000, 8),
                // Compute on the secret.
                MicroOp::alu(x(3), Some(x(1)), None),
                // Transmit: secret-dependent address.
                MicroOp::load(x(4), x(3), PROBE, 8),
            ],
        );
        b.alu(x(5), None, None);
        b.build()
    };

    let baseline = run(CoreConfig::mega(), Scheme::Baseline, build());
    assert!(
        baseline.memory().probe_l1d(PROBE),
        "unsafe baseline must leak through the cache side channel"
    );

    for scheme in Scheme::secure() {
        let core = run(CoreConfig::mega(), scheme, build());
        assert!(
            !core.memory().probe_l1d(PROBE),
            "{scheme} must block the transient transmit load"
        );
    }
}

/// NDA disables speculative load-hit scheduling, so it must record no
/// replay events while the baseline does on a miss-heavy kernel.
#[test]
fn nda_has_no_load_hit_replays() {
    let mut b = TraceBuilder::new("misses");
    for i in 0..200u64 {
        b.load(x(1), x(2), 0x500_0000 + i * 640, 8);
        b.alu(x(3), Some(x(1)), None);
    }
    let t = b.build();
    let base = run(CoreConfig::mega(), Scheme::Baseline, t.clone());
    let nda = run(CoreConfig::mega(), Scheme::Nda, t);
    assert!(
        base.stats().replay_events.get() > 0,
        "baseline replays on misses"
    );
    assert_eq!(
        nda.stats().replay_events.get(),
        0,
        "NDA never replays (§5.1)"
    );
}

/// The STT-Rename same-cycle YRoT chain depth grows with dispatch width
/// on dependent code (§4.1): a 4-wide core sees deeper chains than a
/// 1-wide core, feeding the timing model.
#[test]
fn rename_chain_depth_scales_with_width() {
    let mut b = TraceBuilder::new("chain-width");
    for i in 0..400u64 {
        b.branch(Some(x(7)), None, false, false);
        b.load(x(1), x(2), 0x2000 + (i % 4) * 64, 8);
        b.alu(x(3), Some(x(1)), None);
        b.alu(x(4), Some(x(3)), None);
        b.alu(x(7), Some(x(4)), None);
    }
    let t = b.build();
    let mega = run(CoreConfig::mega(), Scheme::SttRename, t.clone());
    let small = run(CoreConfig::small(), Scheme::SttRename, t);
    assert!(
        mega.max_rename_chain() > small.max_rename_chain(),
        "wider rename groups must produce deeper same-cycle chains ({} vs {})",
        mega.max_rename_chain(),
        small.max_rename_chain()
    );
    assert_eq!(small.max_rename_chain(), 1, "1-wide has no same-cycle deps");
}

/// Branch-tag exhaustion stalls rename (checkpoint pressure); STT's
/// delayed branch resolution makes it worse than baseline.
#[test]
fn checkpoint_pressure_under_stt() {
    let mut b = TraceBuilder::new("branchy");
    for i in 0..400u64 {
        b.load(x(1), x(2), 0x600_0000 + (i % 64) * 4096, 8);
        b.branch(Some(x(1)), None, false, false);
    }
    let t = b.build();
    let base = run(CoreConfig::small(), Scheme::Baseline, t.clone());
    let stt = run(CoreConfig::small(), Scheme::SttRename, t);
    assert!(
        stt.stats().checkpoint_stalls.get() >= base.stats().checkpoint_stalls.get(),
        "STT holds branches longer, so checkpoint stalls cannot shrink"
    );
}

/// Loads and branch classes commit with correct per-class counters.
#[test]
fn per_class_commit_counters() {
    let mut b = TraceBuilder::new("classes");
    b.load(x(1), x(2), 0x40, 8);
    b.store(x(2), x(1), 0x80, 8);
    b.branch(Some(x(1)), None, false, false);
    b.alu(x(3), None, None);
    b.push(MicroOp::compute(OpClass::FpMul, ArchReg::fp(1), None, None));
    let core = run(CoreConfig::small(), Scheme::Baseline, b.build());
    let s = core.stats();
    assert_eq!(s.committed.get(), 5);
    assert_eq!(s.committed_loads.get(), 1);
    assert_eq!(s.committed_stores.get(), 1);
    assert_eq!(s.committed_branches.get(), 1);
}

/// §6's Futuristic extension: tracking M/E shadows in addition to C/D must
/// cost additional IPC under every secure scheme (loads stay speculative
/// until bound to commit).
#[test]
fn futuristic_threat_model_costs_more() {
    use sb_core::{SchemeConfig, ThreatModel};
    let mut b = TraceBuilder::new("futuristic");
    for i in 0..300u64 {
        // A cold independent load keeps commit (and thus M-shadow
        // resolution) trailing far behind completion.
        b.load(x(9), x(8), 0x700_0000 + i * 4096, 8);
        // A hot load feeding a transmitter: no C/D shadow covers it, so
        // only the Futuristic model delays the dependent load.
        b.load(x(1), x(2), 0x2000 + (i % 4) * 64, 8);
        b.alu(x(3), Some(x(1)), None);
        b.load(x(4), x(3), 0x3000 + (i % 4) * 64, 8);
    }
    let t = b.build();
    for scheme in Scheme::secure() {
        let cycles_for = |model: ThreatModel| {
            let cfg = SchemeConfig::rtl(scheme, 2).with_threat_model(model);
            let mut core = Core::new(CoreConfig::mega(), cfg, t.clone());
            core.run_to_completion(2_000_000);
            core.stats().cycles.get()
        };
        let spectre = cycles_for(ThreatModel::Spectre);
        let futuristic = cycles_for(ThreatModel::Futuristic);
        assert!(
            futuristic > spectre,
            "{scheme}: Futuristic ({futuristic}) must cost more than Spectre ({spectre})"
        );
    }
    // The unsafe baseline is unaffected by the threat model (no gating).
    let base = |model: sb_core::ThreatModel| {
        let cfg = sb_core::SchemeConfig::rtl(Scheme::Baseline, 2).with_threat_model(model);
        let mut core = Core::new(CoreConfig::mega(), cfg, t.clone());
        core.run_to_completion(2_000_000);
        core.stats().cycles.get()
    };
    assert_eq!(
        base(sb_core::ThreatModel::Spectre),
        base(sb_core::ThreatModel::Futuristic)
    );
}

/// M-shadow lifecycle, cast side (§6): under the Futuristic model a load
/// casts a Memory shadow at *dispatch*, not at issue or completion, and
/// the identical trace under the Spectre model casts nothing.
#[test]
fn m_shadow_is_cast_at_dispatch_and_only_under_futuristic() {
    use sb_core::{SchemeConfig, ThreatModel};
    let mut b = TraceBuilder::new("m-cast");
    b.load(x(1), x(2), 0x900_0000, 8); // cold: stays in flight a long time
    b.alu(x(3), None, None);
    b.alu(x(4), None, None);
    let t = b.build();
    for (model, expected) in [(ThreatModel::Spectre, 0), (ThreatModel::Futuristic, 1)] {
        let cfg = SchemeConfig::rtl(Scheme::Baseline, 2).with_threat_model(model);
        let mut core = Core::new(CoreConfig::mega(), cfg, t.clone());
        assert_eq!(core.shadows_in_flight(), 0, "{model:?}: nothing dispatched");
        core.step(); // the whole group dispatches in cycle 0
        assert_eq!(
            core.shadows_in_flight(),
            expected,
            "{model:?}: M-shadow presence right after dispatch"
        );
        core.run_to_completion(1_000_000);
        assert_eq!(core.shadows_in_flight(), 0, "{model:?}: drained at the end");
    }
}

/// M-shadow lifecycle, release side: the shadow outlives the load's
/// *completion* (data back from DRAM) and dies exactly when the load is
/// bound to commit — the `shadow_token` resolved on the commit path.
#[test]
fn m_shadow_survives_completion_and_releases_at_commit() {
    use sb_core::{SchemeConfig, ThreatModel};
    use sb_isa::OpClass;
    let mut b = TraceBuilder::new("m-release");
    // A ~120-cycle dependent divide chain ahead of the load keeps the ROB
    // head busy long past the load's ~98-cycle DRAM fill: the load
    // completes around cycle 102 but cannot commit before ~123, so the
    // shadow's survival past completion is structurally guaranteed.
    for _ in 0..10 {
        b.push(MicroOp::compute(OpClass::IntDiv, x(7), Some(x(7)), None));
    }
    b.load(x(1), x(2), 0x2000, 8);
    b.alu(x(3), None, None);
    let t = b.build();
    let cfg = SchemeConfig::rtl(Scheme::Baseline, 2).with_threat_model(ThreatModel::Futuristic);
    let mut core = Core::new(CoreConfig::mega(), cfg, t);
    // Step until the load has executed (its L1/L2/DRAM access happened —
    // observable as a demand access) but nothing has committed.
    while core.memory().demand_accesses() == 0 {
        core.step();
        assert!(core.cycle() < 10_000, "load never executed");
    }
    assert_eq!(
        core.shadows_in_flight(),
        1,
        "the M-shadow must survive the load's execution"
    );
    // The divides at the head take ~28 cycles; the load completes well
    // before. Its shadow must persist every cycle until the load commits.
    while core.stats().committed_loads.get() == 0 {
        assert_eq!(
            core.shadows_in_flight(),
            1,
            "released before bound-to-commit"
        );
        core.step();
        assert!(core.cycle() < 10_000, "load never committed");
    }
    assert_eq!(
        core.shadows_in_flight(),
        0,
        "bound-to-commit must release the M-shadow"
    );
}

/// M-shadow lifecycle, squash side: wrong-path loads cast M-shadows under
/// the Futuristic model; the mispredict squash must reclaim them (a leaked
/// shadow would pin the speculation frontier and deadlock the core).
#[test]
fn squash_reclaims_wrong_path_m_shadows() {
    use sb_core::{SchemeConfig, ThreatModel};
    let mut b = TraceBuilder::new("m-squash");
    b.load(x(9), x(8), 0x900_0000, 8); // slow branch operand
    let br = b.branch(Some(x(9)), None, true, true);
    b.wrong_path(
        br,
        vec![
            MicroOp::load(x(1), x(2), 0x2000, 8),
            MicroOp::load(x(3), x(2), 0x2040, 8),
            MicroOp::load(x(4), x(2), 0x2080, 8),
        ],
    );
    b.alu(x(5), None, None);
    let t = b.build();
    let peak = |model: ThreatModel| {
        let cfg = SchemeConfig::rtl(Scheme::Baseline, 2).with_threat_model(model);
        let mut core = Core::new(CoreConfig::mega(), cfg, t.clone());
        let mut peak = 0;
        while !core.is_done() {
            peak = peak.max(core.shadows_in_flight());
            core.step();
            assert!(core.cycle() < 1_000_000, "deadlock");
        }
        assert_eq!(core.shadows_in_flight(), 0, "{model:?}: shadows leaked");
        assert_eq!(core.stats().committed.get(), t.len() as u64);
        peak
    };
    let spectre_peak = peak(ThreatModel::Spectre);
    let futuristic_peak = peak(ThreatModel::Futuristic);
    assert!(
        futuristic_peak > spectre_peak,
        "wrong-path loads must have cast extra M-shadows \
         (futuristic peak {futuristic_peak} vs spectre peak {spectre_peak})"
    );
    // Spectre tracks only the branch's C-shadow; Futuristic adds the
    // correct-path load's M-shadow plus the three wrong-path loads'.
    assert!(futuristic_peak >= 4, "peak was {futuristic_peak}");
}

/// The memory-dependence predictor stops a load from re-speculating against
/// the same still-unresolved store after its first forwarding violation —
/// exactly one flush, not a livelock.
#[test]
fn memdep_predictor_prevents_repeat_violations() {
    let mut b = TraceBuilder::new("memdep");
    // Store address takes a very long time: cold DRAM load + divide chain.
    b.load(x(1), x(8), 0x700_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(1), Some(x(1)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(1), Some(x(1)), None));
    b.push(MicroOp::compute(OpClass::IntDiv, x(1), Some(x(1)), None));
    b.store(x(1), x(3), 0xC000, 8);
    // Aliasing load + dependents.
    b.load(x(4), x(5), 0xC000, 8);
    b.alu(x(6), Some(x(4)), None);
    let t = b.build();
    let mut core = Core::with_scheme(CoreConfig::mega(), Scheme::Baseline, t.clone());
    core.run_to_completion(1_000_000);
    assert_eq!(
        core.stats().forwarding_errors.get(),
        1,
        "exactly one violation: the replay must wait, not re-speculate"
    );
    assert_eq!(core.stats().committed.get(), t.len() as u64);
}

/// TraceDoctor-style stall attribution (§7): every zero-retire cycle is
/// attributed to exactly one cause; the baseline never blames the scheme;
/// and a broadcast-starved transmitter at the ROB head is blamed on the
/// scheme under STT.
#[test]
fn stall_attribution_is_complete_and_scheme_aware() {
    // Baseline sanity on a memory-bound kernel.
    let t = taint_kernel(150);
    let base = run(CoreConfig::mega(), Scheme::Baseline, t.clone());
    assert_eq!(
        base.stats().stalls.scheme.get(),
        0,
        "baseline has no scheme stalls"
    );
    assert!(
        base.stats().stalls.memory.get() > 0,
        "cold loads are memory stalls"
    );
    assert!(base.stats().stalls.total() <= base.stats().cycles.get());

    // Broadcast starvation: one long shadow covers a burst of loads; when
    // it resolves, the untaint broadcasts drain at memory width, and the
    // final masked transmitter reaches the head still waiting for its
    // broadcast — a head-visible scheme stall.
    let mut b = TraceBuilder::new("bcast-starve");
    b.load(x(9), x(8), 0x900_0000, 8);
    b.branch(Some(x(9)), None, false, false);
    for i in 0..24u64 {
        b.load(x((16 + i % 8) as u8), x(2), 0x2000 + (i % 8) * 64, 8);
    }
    b.alu(x(3), Some(x(23)), None);
    b.load(x(4), x(3), 0xA000, 8); // transmitter fed by the last burst load
    let starve = b.build();
    let rename = run(CoreConfig::mega(), Scheme::SttRename, starve);
    assert!(
        rename.stats().stalls.scheme.get() > 0,
        "a broadcast-starved masked head must be attributed to the scheme: {:?}",
        rename.stats().stalls
    );
    for scheme in Scheme::secure() {
        let core = run(CoreConfig::mega(), scheme, t.clone());
        assert!(core.stats().stalls.total() <= core.stats().cycles.get());
    }
}

// --- Modelled frontend predictor -------------------------------------

/// A mega config with the modelled predictor switched on (pure per-pc
/// bimodal indexing: ghr_bits = 0).
fn pred_config(pht: usize, btb: usize, ghr_bits: u32) -> CoreConfig {
    let mut c = CoreConfig::mega();
    c.predictor = sb_uarch::PredictorConfig::enabled(pht, btb, ghr_bits);
    c
}

/// With no branches in the trace, enabling the predictor changes nothing:
/// every statistic matches the predictor-off run bit for bit.
#[test]
fn enabled_predictor_is_inert_without_branches() {
    let mut b = TraceBuilder::new("no-branches");
    for i in 0..300u64 {
        b.load(x(1), x(2), 0x4000 + (i % 32) * 64, 8);
        b.alu(x(2), Some(x(1)), None);
    }
    let t = b.build();
    let off = run(CoreConfig::mega(), Scheme::Baseline, t.clone());
    let on = run(pred_config(64, 16, 0), Scheme::Baseline, t);
    assert_eq!(off.stats(), on.stats());
}

/// A repeated taken loop branch: the cold predictor mispredicts it once
/// (weakly not-taken counters, empty BTB), trains, and then predicts every
/// later iteration correctly — even though the trace statically marks the
/// branch well-predicted throughout.
#[test]
fn predictor_learns_a_loop_branch() {
    let mut b = TraceBuilder::new("loop");
    for _ in 0..50 {
        b.alu(x(1), None, None);
        b.branch_at(None, None, true, false, 0x40, 0x80);
    }
    let t = b.build();
    let core = run(pred_config(64, 16, 0), Scheme::Baseline, t.clone());
    assert_eq!(core.stats().committed.get(), t.len() as u64);
    assert_eq!(
        core.stats().branch_mispredicts.get(),
        1,
        "one cold mispredict, then the tables carry it"
    );
    // Predictor off: the static bit says well-predicted, so zero.
    let off = run(CoreConfig::mega(), Scheme::Baseline, t);
    assert_eq!(off.stats().branch_mispredicts.get(), 0);
}

/// An always-not-taken branch never needs the BTB: the cold weakly
/// not-taken counters already predict it, so no mispredicts at all.
#[test]
fn cold_predictor_gets_not_taken_branches_right() {
    let mut b = TraceBuilder::new("nt");
    for _ in 0..50 {
        b.alu(x(1), None, None);
        b.branch_at(None, None, false, false, 0x48, 0);
    }
    let core = run(pred_config(64, 16, 0), Scheme::Baseline, b.build());
    assert_eq!(core.stats().branch_mispredicts.get(), 0);
}

/// Predictor state written by squashed wrong-path branches survives the
/// squash and is recorded transient by the leakage observer — the
/// spectre-v2-squash channel primitive.
#[test]
fn wrong_path_branch_training_survives_squash_as_transient_events() {
    let mut b = TraceBuilder::new("v2-squash");
    // Slow operand keeps the window open.
    b.load(x(9), x(8), 0x300_0000, 8);
    b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
    let br = b.branch(Some(x(9)), None, true, true);
    b.wrong_path(
        br,
        vec![
            // A transient branch at pc 0x7 (PHT index 7), taken: trains
            // the PHT and fills the BTB, then is squashed.
            MicroOp::branch_at(None, None, true, false, 0x7, 0x200),
        ],
    );
    b.alu(x(5), None, None);
    let mut core = Core::with_scheme(pred_config(64, 16, 0), Scheme::Baseline, b.build());
    core.memory_mut().attach_leakage_observer();
    core.run_to_completion(2_000_000);
    let obs = core.memory().leakage_observer().unwrap();
    let slots = obs.transient_predictor_slots(0, 1, 64);
    assert!(
        slots.contains(&7),
        "the squashed branch's PHT training must be transient: {slots:?}"
    );
}

/// Under the secure schemes a tainted transient branch is gated from
/// executing until the squash, so it never trains the predictor: the v2
/// channel closes. (The branch's operand is a transiently loaded secret —
/// exactly the PHT-poisoning shape.)
#[test]
fn secure_schemes_block_tainted_transient_branch_training() {
    let build = || {
        let mut b = TraceBuilder::new("v2-pht");
        b.load(x(9), x(8), 0x300_0000, 8);
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        b.push(MicroOp::compute(OpClass::IntDiv, x(9), Some(x(9)), None));
        let br = b.branch(Some(x(9)), None, true, true);
        b.wrong_path(
            br,
            vec![
                // Transient secret access...
                MicroOp::load(x(1), x(2), 0x1234_0000, 8),
                // ...feeding a branch: a secret-dependent direction.
                MicroOp::branch_at(Some(x(1)), None, false, false, 0x9, 0),
            ],
        );
        b.alu(x(5), None, None);
        b.build()
    };
    let observe = |scheme: Scheme| {
        let mut core = Core::with_scheme(pred_config(64, 16, 0), scheme, build());
        core.memory_mut().attach_leakage_observer();
        core.run_to_completion(2_000_000);
        core.memory()
            .leakage_observer()
            .unwrap()
            .transient_predictor_slots(0, 1, 64)
    };
    let base = observe(Scheme::Baseline);
    assert!(
        base.contains(&9),
        "baseline must leak through PHT training: {base:?}"
    );
    for scheme in Scheme::secure() {
        let slots = observe(scheme);
        assert!(
            !slots.contains(&9),
            "{scheme} must gate the tainted transient branch: {slots:?}"
        );
    }
}

/// BTB injection end to end: an attacker branch aliasing the victim's BTB
/// entry (same index, different tag) replaces the target, so the victim's
/// next fetch tag-misses and mispredicts — opening a transient window the
/// trace models with a wrong-path block.
#[test]
fn btb_aliasing_reopens_the_victims_transient_window() {
    const V: u64 = 0x40; // victim branch pc
    const A: u64 = V + 16; // same BTB index (16 entries), different tag
    let build = |inject: bool| {
        let mut b = TraceBuilder::new("v2-btb");
        // Victim warmup: train V taken -> PHT counter up, BTB[V] = 0x100.
        for _ in 0..3 {
            b.branch_at(None, None, true, false, V, 0x100);
        }
        if inject {
            // Attacker cross-trains the aliasing branch.
            for _ in 0..3 {
                b.branch_at(None, None, true, false, A, 0x200);
            }
        }
        // Victim executes again: statically mispredicted so the builder
        // accepts a wrong-path block; dynamically the predictor decides.
        let br = b.branch_at(None, None, true, true, V, 0x100);
        b.wrong_path(br, vec![MicroOp::load(x(4), x(3), 0x40_0000, 8)]);
        b.alu(x(5), None, None);
        b.build()
    };
    // Without injection the trained predictor rides through the branch:
    // no mispredict, no transient window, probe line cold.
    let clean = run(pred_config(64, 16, 0), Scheme::Baseline, build(false));
    assert!(!clean.memory().probe_l1d(0x40_0000));
    // With injection the tag mismatch forces a dynamic mispredict and the
    // wrong-path transmit warms the probe line.
    let inj = run(pred_config(64, 16, 0), Scheme::Baseline, build(true));
    assert!(inj.memory().probe_l1d(0x40_0000));
    assert!(inj.stats().branch_mispredicts.get() > clean.stats().branch_mispredicts.get());
}

/// A capped run stops on its cap under both schedulers. The event wheel's
/// idle fast-forward used to jump past `max_cycles` (e.g. `run(137)` on
/// the mcf-like profile ended at cycle 199 on the wheel, 137 on the
/// reference), so capped runs reported extra cycles and stalls. Resuming
/// a capped run must also land where one uncapped-to-that-point run does.
#[test]
fn capped_runs_stop_on_the_cap_under_both_schedulers() {
    use sb_uarch::SchedulerKind;
    let mcf = sb_workloads::spec2017_profiles()
        .into_iter()
        .find(|p| p.name == "505.mcf")
        .expect("mcf profile");
    let trace = sb_workloads::generate(&mcf, 3_000, 7);
    let core = |kind: SchedulerKind| {
        let mut config = CoreConfig::mega();
        config.scheduler = kind;
        Core::with_scheme(config, Scheme::Baseline, trace.clone())
    };
    let mut capped = 0;
    for cap in (100..=3_000).step_by(37) {
        let mut reference = core(SchedulerKind::Reference);
        let mut wheel = core(SchedulerKind::EventWheel);
        reference.run(cap);
        wheel.run(cap);
        assert_eq!(
            reference.stats(),
            wheel.stats(),
            "cap {cap}: stats diverged"
        );
        assert_eq!(reference.is_done(), wheel.is_done(), "cap {cap}");
        if !wheel.is_done() {
            capped += 1;
            assert_eq!(wheel.cycle(), cap, "wheel overshot cap {cap}");
            assert_eq!(reference.cycle(), cap, "reference overshot cap {cap}");
        }
        // Two capped segments equal one run to the second cap.
        wheel.run(cap + 50);
        let mut once = core(SchedulerKind::EventWheel);
        once.run(cap + 50);
        assert_eq!(
            wheel.stats(),
            once.stats(),
            "cap {cap}: resumed run diverged"
        );
    }
    assert!(capped > 0, "no cap stopped the run before it finished");
}

/// The cancel token end to end through `Core::run`: a deadline that has
/// already passed stops the run at its first poll, and a token that never
/// fires (no deadline, or a far one) leaves every statistic untouched.
#[test]
fn cancel_token_stops_at_the_first_poll_and_is_otherwise_invisible() {
    use sb_uarch::{CancelToken, CANCEL_POLL_CYCLES};
    use std::time::{Duration, Instant};
    let mcf = sb_workloads::spec2017_profiles()
        .into_iter()
        .find(|p| p.name == "505.mcf")
        .expect("mcf profile");
    let trace = sb_workloads::generate(&mcf, 3_000, 7);
    let plain = run(CoreConfig::mega(), Scheme::Baseline, trace.clone());
    assert!(
        plain.cycle() > CANCEL_POLL_CYCLES,
        "the trace must outlast one poll interval ({} cycles)",
        plain.cycle()
    );
    let with_token = |token: CancelToken| {
        let mut core = Core::with_scheme(CoreConfig::mega(), Scheme::Baseline, trace.clone());
        core.set_cancel_token(token);
        core.run(2_000_000);
        core
    };

    let past = Instant::now() - Duration::from_millis(1);
    let stopped = with_token(CancelToken::new().child(Some(past)));
    assert!(stopped.interrupted());
    assert!(!stopped.is_done());
    assert!(stopped.cycle() >= CANCEL_POLL_CYCLES);
    assert!(
        stopped.cycle() < 2 * CANCEL_POLL_CYCLES,
        "stopped at cycle {}, after the first poll",
        stopped.cycle()
    );

    let far = Instant::now() + Duration::from_secs(3600);
    for token in [CancelToken::new(), CancelToken::new().child(Some(far))] {
        let core = with_token(token);
        assert!(!core.interrupted());
        assert!(core.is_done());
        assert_eq!(core.stats(), plain.stats());
    }
}
