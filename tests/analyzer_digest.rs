//! Pins the static analyzer's behaviour bit-for-bit: every `(must, may)`
//! bracket over the attack battery at all 16 secrets plus 32 fuzzed
//! batteries, under 4 schemes × 2 threat models, together with each
//! kernel's `audit_kernel` result, folds into one digest. A performance
//! rewrite of the interpreter must leave it unchanged; a deliberate rule
//! change updates `EXPECTED` and says why.

use shadowbinding::analysis::{analyze_kernel, audit_kernel};
use shadowbinding::core::{Scheme, ThreatModel};
use shadowbinding::isa::MixHasher;
use shadowbinding::workloads::attack_battery;
use shadowbinding::workloads::fuzz_attacks::fuzz_battery;
use std::collections::BTreeSet;
use std::hash::Hasher;

/// The digest recorded from the original interpreter, which cloned its
/// whole state per wrong-path block and kept it in ordered trees.
const EXPECTED: u64 = 0x4755_ed68_7742_17e7;

/// Folds one slot set, length-prefixed so adjacent sets cannot alias.
/// Only the byte path (`write`) is used: it is MixHasher's FNV-1a fold,
/// while `write_u64` replaces the state instead of folding into it.
fn fold_slots(h: &mut MixHasher, slots: &BTreeSet<usize>) {
    h.write(&(slots.len() as u64).to_le_bytes());
    for &s in slots {
        h.write(&(s as u64).to_le_bytes());
    }
}

#[test]
fn analyzer_verdicts_match_the_recorded_digest() {
    let kernels = (0..16)
        .flat_map(attack_battery)
        .chain((0..32).flat_map(fuzz_battery));
    let mut h = MixHasher::default();
    let mut cells = 0;
    for k in kernels {
        h.write(k.trace.name().as_bytes());
        for scheme in Scheme::all() {
            for model in ThreatModel::all() {
                let l = analyze_kernel(&k, scheme, model);
                fold_slots(&mut h, &l.must);
                fold_slots(&mut h, &l.may);
                cells += 1;
            }
        }
        h.write(format!("{:?}", audit_kernel(&k)).as_bytes());
    }
    assert_eq!(cells, (16 + 32) * 11 * 8);
    assert_eq!(
        h.finish(),
        EXPECTED,
        "the analyzer's verdicts changed (digest {:#018x})",
        h.finish()
    );
}
