//! Pins everything the memory hierarchy decides on one fixed, mixed
//! access stream: every access outcome and every attributed cache-state
//! change a [`LeakageObserver`](sb_mem::LeakageObserver) records.
//!
//! The stream exercises what a refactor of the caches or the stride
//! prefetchers could silently move: positive and negative strides (one
//! descending to address 0, so prefetch targets run negative), more than
//! the prefetcher's 64 tracked regions (so its stream table clears), and
//! set-conflict thrash at both cache levels. It runs under several
//! (L1, L2) prefetch-degree pairs, including each level alone and none.
//! `golden_stats` cannot catch such a change: both schedulers share one
//! hierarchy, so it moves both sides of that differential together.

use sb_isa::fnv;
use sb_isa::Seq;
use sb_mem::{AccessOutcome, Attribution, HierarchyConfig, MemoryHierarchy, ServedBy};

/// The one call into the hierarchy's access path.
fn step(m: &mut MemoryHierarchy, addr: u64, attr: Option<Attribution>) -> AccessOutcome {
    m.access(addr, attr)
}

/// The fixed address stream.
fn stream() -> Vec<u64> {
    let mut s = Vec::new();
    // An ascending line-stride stream.
    s.extend((0..48u64).map(|i| 0x10_0000 + i * 64));
    // A descending stream that ends at address 0: near the end its
    // prefetch targets are negative and get dropped.
    s.extend((0..64u64).map(|i| 0xFC0 - i * 64));
    // A descending multi-line stride.
    s.extend((0..40u64).map(|i| 0x8_0000 - i * 256));
    // Three passes over 70 regions, each advancing one line per pass: the
    // 65th new region clears the prefetcher's stream table.
    for pass in 0..3u64 {
        s.extend((0..70u64).map(|r| 0x4000_0000 + r * 0x1000 + pass * 64));
    }
    // Twelve lines 64 KiB apart share one L1 set and one L2 set (8 ways
    // each): three rounds thrash both levels.
    for _ in 0..3 {
        s.extend((0..12u64).map(|j| 0x2000_0000 + j * 0x1_0000));
    }
    // A pseudo-random interleaving of all of the above plus fresh lines.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let base = s.clone();
    for _ in 0..600 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = if x.is_multiple_of(4) {
            0x6000_0000 + (x >> 40) * 8
        } else {
            base[(x >> 20) as usize % base.len()]
        };
        s.push(addr);
    }
    s
}

fn served_code(s: ServedBy) -> u64 {
    match s {
        ServedBy::L1 => 1,
        ServedBy::L2 => 2,
        ServedBy::Dram => 3,
    }
}

/// Replays the stream under `(l1, l2)` prefetch degrees and returns the
/// FNV digest of every outcome and every recorded change, plus the
/// recorded changes' count.
fn replay(l1: usize, l2: usize) -> (u64, usize) {
    let mut cfg = HierarchyConfig::rtl_default();
    cfg.l1_prefetch_degree = l1;
    cfg.l2_prefetch_degree = l2;
    let mut m = MemoryHierarchy::new(cfg);
    m.attach_leakage_observer();
    let mut h = fnv::OFFSET;
    for (i, &addr) in stream().iter().enumerate() {
        let i = i as u64;
        let seq = i + 1;
        // Every seventh access is unattributed; the rest vary their flags.
        let attr = (!i.is_multiple_of(7)).then_some(Attribution {
            seq: Seq::new(seq),
            speculative: i.is_multiple_of(3),
            wrong_path: i.is_multiple_of(5),
        });
        let out = step(&mut m, addr, attr);
        for v in [
            u64::from(out.latency),
            served_code(out.served_by),
            u64::from(out.prefetches_issued),
        ] {
            h = fnv::fold(h, v);
        }
        if seq.is_multiple_of(50) {
            m.note_squash(Seq::new(seq - 3));
        }
    }
    let obs = m.leakage_observer().expect("attached");
    for c in obs.changes() {
        for v in [
            c.kind as u64,
            c.line_addr,
            c.attr.seq.value(),
            u64::from(c.is_transient()),
        ] {
            h = fnv::fold(h, v);
        }
    }
    (h, obs.len())
}

#[test]
fn stream_covers_what_it_claims() {
    let s = stream();
    let regions: std::collections::BTreeSet<u64> = s.iter().map(|a| a >> 12).collect();
    assert!(regions.len() > 64, "{} regions", regions.len());
    let mut cfg = HierarchyConfig::rtl_default();
    cfg.l1_prefetch_degree = 0;
    cfg.l2_prefetch_degree = 0;
    let mut m = MemoryHierarchy::new(cfg);
    m.attach_leakage_observer();
    for (i, &addr) in s.iter().enumerate() {
        let attr = Attribution {
            seq: Seq::new(i as u64 + 1),
            speculative: false,
            wrong_path: false,
        };
        step(&mut m, addr, Some(attr));
    }
    let kinds: std::collections::BTreeSet<_> = m
        .leakage_observer()
        .unwrap()
        .changes()
        .iter()
        .map(|c| c.kind)
        .collect();
    for k in [
        sb_mem::CacheChangeKind::L1Eviction,
        sb_mem::CacheChangeKind::L2Eviction,
    ] {
        assert!(kinds.contains(&k), "stream never produced {k:?}");
    }
}

#[test]
fn replay_digests_are_pinned() {
    let got: Vec<((usize, usize), (u64, usize))> = [(2, 4), (4, 2), (0, 4), (2, 0), (0, 0)]
        .into_iter()
        .map(|(l1, l2)| ((l1, l2), replay(l1, l2)))
        .collect();
    let want: [((usize, usize), (u64, usize)); 5] = [
        ((2, 4), (0x70e313178f624849, 2294)),
        ((4, 2), (0xb43c673867020c78, 2301)),
        ((0, 4), (0xf498702f20d99ca3, 2410)),
        ((2, 0), (0x224bc7f91d7be5f8, 2286)),
        ((0, 0), (0xa950009307b04630, 2396)),
    ];
    assert_eq!(got, want, "memory-hierarchy behaviour moved");
}
