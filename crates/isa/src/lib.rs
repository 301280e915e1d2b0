//! Micro-op ISA substrate for the ShadowBinding reproduction.
//!
//! This crate defines the instruction representation shared by every other
//! crate in the workspace: register newtypes, micro-op classes (including the
//! *transmitter* taxonomy that Speculative Taint Tracking relies on), dynamic
//! instruction traces with rewind/replay support, and a builder for
//! hand-written kernels (used by the attack examples and tests).
//!
//! The modelled ISA is a RISC-V-flavoured micro-op format: up to two source
//! registers, at most one destination register, optional memory access and
//! optional control-flow outcome. This is the level of abstraction at which
//! the BOOM core — and the paper's secure-speculation schemes — operate after
//! decode.
//!
//! # Example
//!
//! ```
//! use sb_isa::{ArchReg, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("demo");
//! let x1 = ArchReg::int(1);
//! let x2 = ArchReg::int(2);
//! b.load(x1, x2, 0x1000, 8);
//! b.alu(x2, Some(x1), None);
//! let trace = b.build();
//! assert_eq!(trace.len(), 2);
//! assert!(trace.op(0).is_load());
//! ```

#![forbid(unsafe_code)]

mod codec;
pub mod fnv;
mod hash;
mod ids;
mod op;
mod trace;

pub use codec::{decode_trace, encode_trace, TRACE_FORMAT_VERSION};
pub use hash::MixHasher;
pub use ids::{ArchReg, PhysReg, Seq, NUM_ARCH_REGS};
pub use op::{CtrlFlow, MemAccess, MicroOp, OpClass};
pub use trace::{Trace, TraceBuilder};
