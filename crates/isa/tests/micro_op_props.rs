//! `MicroOp` is bit-packed, so nothing but these properties shows that the
//! packing is lossless. Random ops are drawn over every class, every
//! register and "none", memory access and branch outcome each present or
//! absent (both at once included, which the trace format allows), with
//! `addr`, `bytes`, `pc` and `target` reaching their maxima.

use proptest::prelude::*;
use sb_isa::{decode_trace, encode_trace, ArchReg, CtrlFlow, MemAccess, MicroOp, OpClass, Trace};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

/// Everything a `MicroOp` means, unpacked.
type Fields = (
    OpClass,
    Option<ArchReg>,
    Option<ArchReg>,
    Option<ArchReg>,
    Option<MemAccess>,
    Option<CtrlFlow>,
);

fn build(f: Fields) -> MicroOp {
    MicroOp::new(f.0, f.1, f.2, f.3, f.4, f.5)
}

fn read(op: &MicroOp) -> Fields {
    (
        op.class(),
        op.dst(),
        op.src1(),
        op.src2(),
        op.mem(),
        op.ctrl(),
    )
}

/// A 64-bit word that is 0 or `u64::MAX` half the time.
fn word() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..u64::MAX).prop_map(|(k, v)| match k {
        0 => 0,
        1 => u64::MAX,
        _ => v,
    })
}

/// Any architectural register, or none (index 64).
fn reg() -> impl Strategy<Value = Option<ArchReg>> {
    (0u8..65).prop_map(|i| match i {
        0..=31 => Some(ArchReg::int(i)),
        32..=63 => Some(ArchReg::fp(i - 32)),
        _ => None,
    })
}

fn mem() -> impl Strategy<Value = Option<MemAccess>> {
    (any::<bool>(), word(), 0u16..256).prop_map(|(present, addr, bytes)| {
        present.then_some(MemAccess {
            addr,
            bytes: u8::try_from(bytes).unwrap(),
        })
    })
}

fn ctrl() -> impl Strategy<Value = Option<CtrlFlow>> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        word(),
        word(),
    )
        .prop_map(|((present, taken, mispredicted), pc, target)| {
            present.then_some(CtrlFlow {
                taken,
                mispredicted,
                pc,
                target,
            })
        })
}

fn fields() -> impl Strategy<Value = Fields> {
    (
        (
            (0usize..10).prop_map(|i| OpClass::all()[i]),
            reg(),
            reg(),
            reg(),
        ),
        mem(),
        ctrl(),
    )
        .prop_map(|((class, dst, src1, src2), mem, ctrl)| (class, dst, src1, src2, mem, ctrl))
}

/// Which fields a second op shares with the first: each with probability
/// 3/4, so equal pairs are common.
fn keep_mask() -> impl Strategy<Value = [bool; 6]> {
    prop::collection::vec(0u8..4, 6..7).prop_map(|v| std::array::from_fn(|i| v[i] != 0))
}

/// `a`'s fields where `keep` is set, `b`'s elsewhere.
fn mix(a: Fields, b: Fields, keep: [bool; 6]) -> Fields {
    (
        if keep[0] { a.0 } else { b.0 },
        if keep[1] { a.1 } else { b.1 },
        if keep[2] { a.2 } else { b.2 },
        if keep[3] { a.3 } else { b.3 },
        if keep[4] { a.4 } else { b.4 },
        if keep[5] { a.5 } else { b.5 },
    )
}

fn trace_of(ops: Vec<MicroOp>) -> Trace {
    Trace::from_parts("props", ops, Vec::new())
}

fn version(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

fn hash_of(op: &MicroOp) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The accessors return exactly what was constructed.
    #[test]
    fn accessors_return_what_was_constructed(f in fields()) {
        prop_assert_eq!(read(&build(f)), f);
    }

    /// Encode then decode is the identity under both record layouts. An op
    /// without branch addresses encodes as version 1; a neighbour carrying
    /// a pc moves the whole trace to version 2.
    #[test]
    fn codec_round_trip_is_the_identity_at_both_versions(f in fields()) {
        let mut v1 = f;
        if let Some(c) = v1.5.as_mut() {
            (c.pc, c.target) = (0, 0);
        }
        let bytes = encode_trace(&trace_of(vec![build(v1)]));
        prop_assert_eq!(version(&bytes), 1);
        prop_assert_eq!(read(decode_trace(&bytes).unwrap().op(0)), v1);

        let marker = MicroOp::branch_at(None, None, true, false, 1, 1);
        let t2 = trace_of(vec![build(f), marker]);
        let bytes = encode_trace(&t2);
        prop_assert_eq!(version(&bytes), 2);
        let back = decode_trace(&bytes).unwrap();
        prop_assert_eq!(read(back.op(0)), f);
        prop_assert!(back == t2);
    }

    /// `==` and `Hash` on the packed op agree with field-wise equality.
    #[test]
    fn equality_and_hash_are_field_wise(a in fields(), b in fields(), keep in keep_mask()) {
        let b = mix(a, b, keep);
        let (x, y) = (build(a), build(b));
        prop_assert_eq!(x == y, a == b, "{:?} vs {:?}", x, y);
        if a == b {
            prop_assert_eq!(hash_of(&x), hash_of(&y));
        }
    }
}
