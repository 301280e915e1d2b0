//! Property-based tests (proptest) over the core data structures and the
//! simulator: invariants that must hold for *any* program, not just the
//! calibrated workloads.

use proptest::prelude::*;
use shadowbinding::core::{
    BroadcastQueue, IssueTaintUnit, RenameGroupOp, RenameTaintTracker, Scheme, SpeculationTracker,
};
use shadowbinding::isa::{ArchReg, PhysReg, Seq, TraceBuilder};
use shadowbinding::uarch::{Core, CoreConfig};

/// A tiny op-level program description proptest can generate.
#[derive(Clone, Debug)]
enum GenOp {
    Alu {
        dst: u8,
        src: u8,
    },
    Load {
        dst: u8,
        addr_src: u8,
        slot: u8,
    },
    Store {
        addr_src: u8,
        data_src: u8,
        slot: u8,
    },
    Branch {
        src: u8,
        mispredicted: bool,
    },
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (1u8..12, 1u8..12).prop_map(|(dst, src)| GenOp::Alu { dst, src }),
        (12u8..20, 1u8..12, 0u8..16).prop_map(|(dst, addr_src, slot)| GenOp::Load {
            dst,
            addr_src,
            slot
        }),
        (1u8..12, 12u8..20, 0u8..16).prop_map(|(addr_src, data_src, slot)| GenOp::Store {
            addr_src,
            data_src,
            slot
        }),
        (1u8..20, any::<bool>()).prop_map(|(src, m)| GenOp::Branch {
            src,
            // Keep mispredicts sparse so programs stay long enough to be
            // interesting (each one stalls fetch to resolution).
            mispredicted: m
        }),
    ]
}

fn build(ops: &[GenOp]) -> shadowbinding::isa::Trace {
    let mut b = TraceBuilder::new("prop");
    for op in ops {
        match *op {
            GenOp::Alu { dst, src } => {
                b.alu(ArchReg::int(dst), Some(ArchReg::int(src)), None);
            }
            GenOp::Load {
                dst,
                addr_src,
                slot,
            } => {
                b.load(
                    ArchReg::int(dst),
                    ArchReg::int(addr_src),
                    0x8000 + u64::from(slot) * 8,
                    8,
                );
            }
            GenOp::Store {
                addr_src,
                data_src,
                slot,
            } => {
                b.store(
                    ArchReg::int(addr_src),
                    ArchReg::int(data_src),
                    0x8000 + u64::from(slot) * 8,
                    8,
                );
            }
            GenOp::Branch { src, mispredicted } => {
                b.branch(Some(ArchReg::int(src)), None, false, mispredicted);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any program commits exactly once per op, under every scheme, on two
    /// very different configurations — squash/replay never corrupts
    /// architectural progress, and the core never deadlocks.
    #[test]
    fn any_program_commits_exactly(ops in prop::collection::vec(gen_op(), 1..120)) {
        let trace = build(&ops);
        for config in [CoreConfig::small(), CoreConfig::mega()] {
            for scheme in Scheme::all() {
                let mut core = Core::with_scheme(config.clone(), scheme, trace.clone());
                let stats = core.run_to_completion(3_000_000);
                prop_assert_eq!(stats.committed.get(), trace.len() as u64);
            }
        }
    }

    /// Secure schemes essentially never finish a program faster than the
    /// unsafe baseline. A small tolerance is required: the baseline burns
    /// issue slots replaying load-hit mis-speculations (which NDA removes,
    /// §5.1), so on miss-dominated kernels a scheme can legitimately finish
    /// a few cycles sooner — the same class of anomaly as the paper's
    /// exchange2 case (§8.1).
    #[test]
    fn schemes_only_slow_down(ops in prop::collection::vec(gen_op(), 1..100)) {
        let trace = build(&ops);
        let cycles = |scheme| {
            let mut core = Core::with_scheme(CoreConfig::large(), scheme, trace.clone());
            core.run_to_completion(3_000_000);
            core.stats().cycles.get()
        };
        let base = cycles(Scheme::Baseline);
        for scheme in Scheme::secure() {
            let c = cycles(scheme);
            prop_assert!(
                c as f64 >= base as f64 * 0.97 - 4.0,
                "{} took {c} vs baseline {base}", scheme
            );
        }
    }

    /// The speculation frontier is monotone under in-order cast /
    /// out-of-order resolve: it never moves backwards except by squash.
    #[test]
    fn frontier_is_monotone(resolutions in prop::collection::vec(0usize..24, 0..24)) {
        let mut t = SpeculationTracker::new();
        for i in 0..24u64 {
            t.cast(Seq::new(i + 1));
        }
        let mut prev = Seq::ZERO;
        for r in resolutions {
            t.resolve(Seq::new(r as u64 + 1));
            if let Some(f) = t.frontier() {
                prop_assert!(f >= prev, "frontier went backwards");
                prev = f;
            } else {
                prev = Seq::new(u64::MAX);
            }
        }
    }

    /// The rename-time YRoT chain is equivalent to renaming the same ops
    /// one-at-a-time (serial semantics): final taint state matches.
    #[test]
    fn rename_group_equals_serial_renames(
        ops in prop::collection::vec((1u8..16, 1u8..16, any::<bool>()), 1..8)
    ) {
        let group: Vec<RenameGroupOp> = ops
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, is_load))| RenameGroupOp {
                seq: Seq::new(i as u64 + 1),
                srcs: [Some(ArchReg::int(src)), None],
                dst: Some(ArchReg::int(dst)),
                is_load,
                speculative: true,
            })
            .collect();
        let mut grouped = RenameTaintTracker::new();
        let mut out_group = Vec::new();
        grouped.rename_group(&group, |_| true, &mut out_group);
        let mut serial = RenameTaintTracker::new();
        let mut out_serial = Vec::new();
        let mut out_one = Vec::new();
        for op in &group {
            serial.rename_group(std::slice::from_ref(op), |_| true, &mut out_one);
            out_serial.extend_from_slice(&out_one);
        }
        for r in ArchReg::all() {
            prop_assert_eq!(grouped.taint_of(r), serial.taint_of(r));
        }
        for (g, s) in out_group.iter().zip(&out_serial) {
            prop_assert_eq!(g.yrot, s.yrot, "YRoT values must match serial semantics");
        }
        // Chain depth is bounded by the group size and only the grouped
        // computation can exceed depth 1.
        let max_depth = out_group.iter().map(|o| o.chain_depth).max().unwrap_or(0);
        prop_assert!(max_depth as usize <= group.len());
        prop_assert!(out_serial.iter().all(|o| o.chain_depth == 1));
    }

    /// The issue taint unit returns the youngest live root, independent of
    /// operand order.
    #[test]
    fn taint_unit_is_commutative(a in 1u64..100, b in 1u64..100) {
        let mut u = IssueTaintUnit::new(8);
        u.taint(PhysReg::new(1), Seq::new(a));
        u.taint(PhysReg::new(2), Seq::new(b));
        let fwd = u.compute_yrot([Some(PhysReg::new(1)), Some(PhysReg::new(2))], |_| true);
        let rev = u.compute_yrot([Some(PhysReg::new(2)), Some(PhysReg::new(1))], |_| true);
        prop_assert_eq!(fwd, rev);
        prop_assert_eq!(fwd, Some(Seq::new(a.max(b))));
    }

    /// Broadcast queues deliver every pushed event exactly once, in seq
    /// order, regardless of the per-cycle bandwidth.
    #[test]
    fn broadcast_queue_delivers_in_order(
        seqs in prop::collection::btree_set(1u64..1000, 1..60),
        bandwidth in 1usize..5
    ) {
        let mut q = BroadcastQueue::new();
        for &s in &seqs {
            q.push(Seq::new(s), ());
        }
        let mut delivered = Vec::new();
        let mut sent = Vec::new();
        while !q.is_empty() {
            sent.clear();
            q.drain_ready_into(|_| true, Some(bandwidth), &mut sent);
            delivered.extend(sent.iter().map(|(s, ())| s.value()));
        }
        let expected: Vec<u64> = seqs.into_iter().collect();
        prop_assert_eq!(delivered, expected);
    }

    /// Simulation is a pure function of (trace, config, scheme).
    #[test]
    fn simulation_is_deterministic(ops in prop::collection::vec(gen_op(), 1..80)) {
        let trace = build(&ops);
        let run = || {
            let mut core = Core::with_scheme(CoreConfig::medium(), Scheme::SttRename, trace.clone());
            core.run_to_completion(3_000_000);
            core.stats().clone()
        };
        prop_assert_eq!(run(), run());
    }
}
