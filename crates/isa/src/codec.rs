//! Compact versioned binary serialization for [`Trace`]s.
//!
//! The persistent trace store (`sb-workloads::store`) memoizes generated
//! workload traces across processes. The paper's evaluation methodology
//! depends on every scheme seeing byte-identical instruction streams, so the
//! on-disk format is defensive: a magic tag, an explicit format version
//! (bumped whenever the micro-op encoding changes), and a 64-bit checksum
//! over the entire payload. Any mismatch — wrong magic, unknown version,
//! flipped bit, truncation, trailing garbage — decodes to an error, and the
//! store falls back to regeneration instead of ever feeding a corrupted
//! trace to the simulator.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    b"SBTR"                          4 bytes
//! version  u32                              4 bytes
//! checksum u64 (word-FNV of the payload)    8 bytes
//! payload:
//!   name     u32 length + UTF-8 bytes
//!   ops      u64 count + fixed-size records
//!   blocks   u64 count + per block (ascending index):
//!              index u64, u64 count + fixed-size records
//! ```
//!
//! A **version-1** micro-op record is a fixed 14 bytes — `class u8,
//! flags u8, dst u8, src1 u8, src2 u8, addr u64, bytes u8` — so decode is
//! one bounds check plus a branch-light parse per `chunks_exact` record
//! instead of a variable-length cursor walk. Register slots use `0xFF` for
//! "none"; branch outcome bits live in the flags byte; `addr`/`bytes` are
//! zero when the mem flag is clear. The flags byte and register codes are
//! the ones an in-memory [`MicroOp`] packs (`op.rs` defines them), so
//! encoding copies them. The checksum folds the payload eight bytes at a
//! time (a byte-at-a-time FNV-1a chain was measured dominating warm cache
//! loads); each fold step is xor-then-odd-multiply, bijective in the data
//! word, so any single corrupted byte still changes the digest.
//!
//! A **version-2** record appends `pc u64, target u64` (30 bytes total,
//! still fixed-size — zero for non-branches) so traces can carry the
//! static branch addresses the modelled frontend predictor indexes by.
//! The encoder stays byte-stable for legacy traces: it emits version 1
//! unless some op actually carries a nonzero pc or target, and the decoder
//! accepts both versions. See `docs/ARCHITECTURE.md` for the worked
//! import-format example.

use crate::ids::{ArchReg, NUM_ARCH_REGS};
use crate::op::{
    CtrlFlow, MemAccess, MicroOp, OpClass, FLAG_CTRL, FLAG_MEM, FLAG_MISPREDICTED, FLAG_TAKEN,
    REG_NONE,
};
use crate::trace::{Trace, WrongPathBlock};
use std::fmt;

/// Newest on-disk trace format version this build can read and write.
/// Bump on any encoding change so stale cache files from older builds are
/// rejected (and regenerated) instead of misparsed.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// The original 14-byte-record format, still emitted whenever a trace
/// carries no branch pc/target info (keeps legacy traces byte-stable) and
/// still accepted on decode.
pub(crate) const TRACE_FORMAT_V1: u32 = 1;

/// File magic identifying a serialized trace.
pub(crate) const TRACE_MAGIC: [u8; 4] = *b"SBTR";

/// Why a byte buffer failed to decode into a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The format version is not [`TRACE_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The stored checksum does not match the payload.
    ChecksumMismatch,
    /// The buffer ended before the encoded structures did.
    Truncated,
    /// A structurally invalid encoding (bad op class, register index,
    /// non-UTF-8 name, unsorted blocks, trailing bytes, ...).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a serialized trace (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            CodecError::ChecksumMismatch => write!(f, "trace payload checksum mismatch"),
            CodecError::Truncated => write!(f, "trace buffer truncated"),
            CodecError::Invalid(what) => write!(f, "invalid trace encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes per fixed-size micro-op record in format version 1.
const OP_RECORD_V1: usize = 14;

/// Bytes per record in format version 2: the v1 base plus `pc u64,
/// target u64` (zero for non-branches).
const OP_RECORD_V2: usize = OP_RECORD_V1 + 16;

/// Record size for a given (validated) format version.
fn op_record_len(version: u32) -> usize {
    if version >= 2 {
        OP_RECORD_V2
    } else {
        OP_RECORD_V1
    }
}

/// Word-folded FNV-style digest: eight bytes per multiply step, with the
/// length mixed in so padding the tail cannot collide. Every step is
/// `(h ^ word) * odd-prime` — bijective in `word` for fixed `h` — so a
/// single-byte corruption anywhere always changes the digest.
fn checksum(bytes: &[u8]) -> u64 {
    use crate::fnv::{fold, OFFSET, PRIME};
    let mut h = OFFSET ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = fold(h, u64::from_le_bytes(tail));
    }
    h ^ (h >> 32)
}

fn class_code(class: OpClass) -> u8 {
    match class {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::IntDiv => 2,
        OpClass::FpAlu => 3,
        OpClass::FpMul => 4,
        OpClass::FpDiv => 5,
        OpClass::Load => 6,
        OpClass::Store => 7,
        OpClass::Branch => 8,
        OpClass::Nop => 9,
    }
}

fn class_from_code(code: u8) -> Option<OpClass> {
    Some(match code {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::IntDiv,
        3 => OpClass::FpAlu,
        4 => OpClass::FpMul,
        5 => OpClass::FpDiv,
        6 => OpClass::Load,
        7 => OpClass::Store,
        8 => OpClass::Branch,
        9 => OpClass::Nop,
        _ => return None,
    })
}

fn reg_from_code(code: u8) -> Result<Option<ArchReg>, CodecError> {
    if code == REG_NONE {
        return Ok(None);
    }
    if usize::from(code) >= NUM_ARCH_REGS {
        return Err(CodecError::Invalid("register index out of range"));
    }
    Ok(Some(ArchReg::from_index(code)))
}

fn encode_op(op: &MicroOp, version: u32, out: &mut Vec<u8>) {
    // Absent fields stay zero in the record, as in the op. A version-1
    // record is the first 14 bytes: its ops carry no pc or target.
    let (flags, regs) = op.codes();
    let mut rec = [0u8; OP_RECORD_V2];
    rec[0] = class_code(op.class());
    rec[1] = flags;
    rec[2..5].copy_from_slice(&regs);
    if let Some(m) = op.mem() {
        rec[5..13].copy_from_slice(&m.addr.to_le_bytes());
        rec[13] = m.bytes;
    }
    if let Some(c) = op.ctrl() {
        rec[14..22].copy_from_slice(&c.pc.to_le_bytes());
        rec[22..30].copy_from_slice(&c.target.to_le_bytes());
    }
    out.extend_from_slice(&rec[..op_record_len(version)]);
}

fn decode_op(rec: &[u8]) -> Result<MicroOp, CodecError> {
    debug_assert!(rec.len() == OP_RECORD_V1 || rec.len() == OP_RECORD_V2);
    let class = class_from_code(rec[0]).ok_or(CodecError::Invalid("bad op class"))?;
    let flags = rec[1];
    let mem = if flags & FLAG_MEM != 0 {
        Some(MemAccess {
            addr: u64::from_le_bytes(rec[5..13].try_into().unwrap()),
            bytes: rec[13],
        })
    } else {
        None
    };
    let ctrl = if flags & FLAG_CTRL != 0 {
        let (pc, target) = if rec.len() >= OP_RECORD_V2 {
            (
                u64::from_le_bytes(rec[14..22].try_into().unwrap()),
                u64::from_le_bytes(rec[22..30].try_into().unwrap()),
            )
        } else {
            (0, 0)
        };
        Some(CtrlFlow {
            taken: flags & FLAG_TAKEN != 0,
            mispredicted: flags & FLAG_MISPREDICTED != 0,
            pc,
            target,
        })
    } else {
        None
    };
    Ok(MicroOp::new(
        class,
        reg_from_code(rec[2])?,
        reg_from_code(rec[3])?,
        reg_from_code(rec[4])?,
        mem,
        ctrl,
    ))
}

/// Byte-slice cursor for decoding.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn ops(&mut self, record_len: usize) -> Result<Vec<MicroOp>, CodecError> {
        let count = usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("op count"))?;
        // One bounds check for the whole array (which also guards the
        // allocation against corrupted counts), then a record-at-a-time
        // parse over exact chunks into a buffer of exactly `count` ops:
        // collecting a `Result` iterator would grow by doubling instead.
        let bytes = self
            .take(count.checked_mul(record_len).ok_or(CodecError::Truncated)?)
            .map_err(|_| CodecError::Truncated)?;
        let mut ops = Vec::with_capacity(count);
        for rec in bytes.chunks_exact(record_len) {
            ops.push(decode_op(rec)?);
        }
        Ok(ops)
    }
}

/// Whether any op in the trace carries branch pc/target info, i.e. whether
/// encoding it needs the version-2 record layout.
fn needs_v2(trace: &Trace) -> bool {
    let carries_info = |op: &MicroOp| op.ctrl().is_some_and(|c| c.pc != 0 || c.target != 0);
    trace.iter().any(carries_info)
        || trace
            .wrong_paths()
            .any(|(_, b)| b.ops.iter().any(carries_info))
}

/// Serializes a trace into the versioned, checksummed binary format.
///
/// Traces whose branches carry no pc/target info encode byte-identically
/// to format version 1 (so the persistent trace store never churns legacy
/// cache files); any nonzero pc or target switches the whole file to the
/// version-2 record layout.
#[must_use]
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let version = if needs_v2(trace) {
        TRACE_FORMAT_VERSION
    } else {
        TRACE_FORMAT_V1
    };
    let record_len = op_record_len(version);
    let mut payload = Vec::with_capacity(32 + trace.name().len() + (trace.len() + 8) * record_len);
    let name = trace.name().as_bytes();
    payload.extend_from_slice(
        &u32::try_from(name.len())
            .expect("name length")
            .to_le_bytes(),
    );
    payload.extend_from_slice(name);
    payload.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for op in trace.iter() {
        encode_op(op, version, &mut payload);
    }
    // `wrong_paths()` yields ascending branch indices, the order the decoder
    // requires.
    payload.extend_from_slice(&(trace.wrong_paths().count() as u64).to_le_bytes());
    for (idx, block) in trace.wrong_paths() {
        payload.extend_from_slice(&(idx as u64).to_le_bytes());
        payload.extend_from_slice(&(block.ops.len() as u64).to_le_bytes());
        for op in &block.ops {
            encode_op(op, version, &mut payload);
        }
    }

    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Deserializes a trace, validating magic, version, checksum and structure.
///
/// # Errors
///
/// Returns a `CodecError` on any deviation from the format — the caller
/// (the trace store) treats every error as a cache miss.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, CodecError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4).map_err(|_| CodecError::BadMagic)? != TRACE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u32().map_err(|_| CodecError::Truncated)?;
    if !(TRACE_FORMAT_V1..=TRACE_FORMAT_VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let record_len = op_record_len(version);
    let stored = r.u64()?;
    if checksum(&bytes[r.pos..]) != stored {
        return Err(CodecError::ChecksumMismatch);
    }

    let name_len = usize::try_from(r.u32()?).map_err(|_| CodecError::Invalid("name length"))?;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CodecError::Invalid("name not UTF-8"))?
        .to_string();
    let ops = r.ops(record_len)?;
    let block_count = usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("block count"))?;
    if block_count > bytes.len().saturating_sub(r.pos) / 16 {
        return Err(CodecError::Truncated);
    }
    let mut wrong_paths = Vec::with_capacity(block_count);
    let mut prev_idx: Option<usize> = None;
    for _ in 0..block_count {
        let idx = usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("block index"))?;
        if prev_idx.is_some_and(|p| idx <= p) {
            return Err(CodecError::Invalid("wrong-path blocks not ascending"));
        }
        prev_idx = Some(idx);
        if idx >= ops.len() {
            return Err(CodecError::Invalid("wrong-path index out of range"));
        }
        let block_ops = r.ops(record_len)?;
        wrong_paths.push((idx, WrongPathBlock { ops: block_ops }));
    }
    if r.pos != bytes.len() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    Ok(Trace::from_parts(name, ops, wrong_paths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("codec-sample");
        b.alu(ArchReg::int(1), Some(ArchReg::int(2)), None);
        b.load(ArchReg::int(3), ArchReg::int(1), 0x1000_0040, 8);
        b.store(ArchReg::int(1), ArchReg::int(3), 0x1000_0080, 8);
        b.push(MicroOp::compute(
            OpClass::FpDiv,
            ArchReg::fp(4),
            Some(ArchReg::fp(5)),
            Some(ArchReg::int(6)),
        ));
        let br = b.branch(Some(ArchReg::int(3)), None, true, true);
        b.wrong_path(
            br,
            vec![
                MicroOp::load(ArchReg::int(7), ArchReg::int(8), 0x4000_2000, 8),
                MicroOp::nop(),
            ],
        );
        b.branch(None, Some(ArchReg::int(1)), false, false);
        b.build()
    }

    fn sample_v2() -> Trace {
        let mut b = TraceBuilder::new("codec-sample-v2");
        b.alu(ArchReg::int(1), Some(ArchReg::int(2)), None);
        let br = b.branch_at(Some(ArchReg::int(1)), None, true, true, 0x4000, 0x4100);
        b.wrong_path(
            br,
            vec![MicroOp::branch_at(None, None, false, false, 0x4040, 0x4200)],
        );
        b.load(ArchReg::int(3), ArchReg::int(1), 0x1000_0040, 8);
        b.build()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let decoded = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(t, decoded);
        assert_eq!(decoded.name(), "codec-sample");
        assert_eq!(decoded.wrong_path(4).unwrap().ops.len(), 2);
    }

    #[test]
    fn round_trip_empty_trace() {
        let t = TraceBuilder::new("empty").build();
        assert_eq!(t, decode_trace(&encode_trace(&t)).unwrap());
    }

    #[test]
    fn traces_without_branch_info_stay_on_version_1() {
        // Legacy byte-stability: the persistent trace store must not see
        // its existing v1 cache files churn just because the codec learned
        // a second version.
        let bytes = encode_trace(&sample());
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            TRACE_FORMAT_V1
        );
    }

    #[test]
    fn branch_info_switches_the_file_to_version_2() {
        let bytes = encode_trace(&sample_v2());
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            TRACE_FORMAT_VERSION
        );
    }

    #[test]
    fn v2_round_trip_preserves_pc_and_target() {
        let t = sample_v2();
        let decoded = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(t, decoded);
        let c = decoded.op(1).ctrl().unwrap();
        assert_eq!((c.pc, c.target), (0x4000, 0x4100));
        let wp = decoded.wrong_path(1).unwrap().ops[0].ctrl().unwrap();
        assert_eq!((wp.pc, wp.target), (0x4040, 0x4200));
    }

    #[test]
    fn v2_payload_flips_are_detected_too() {
        let bytes = encode_trace(&sample_v2());
        for i in 16..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert_eq!(
                decode_trace(&corrupt),
                Err(CodecError::ChecksumMismatch),
                "flip at byte {i} escaped the checksum"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_trace(&sample());
        bytes[0] ^= 0xFF;
        assert_eq!(decode_trace(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_trace(&sample());
        bytes[4] = 0xFE;
        assert!(matches!(
            decode_trace(&bytes),
            Err(CodecError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn any_payload_flip_is_detected() {
        let bytes = encode_trace(&sample());
        for i in 16..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert_eq!(
                decode_trace(&corrupt),
                Err(CodecError::ChecksumMismatch),
                "flip at byte {i} escaped the checksum"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_trace(&sample());
        for keep in [0, 3, 7, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_trace(&bytes[..keep]).is_err(), "kept {keep} bytes");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_trace(&sample());
        bytes.push(0);
        // Appending changes the payload seen by the checksum pass.
        assert!(decode_trace(&bytes).is_err());
    }
}
