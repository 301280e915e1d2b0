//! The abstract domain: a latency class and a taint/doom pair per
//! architectural register.
//!
//! The analyzer does not track values — only the three properties of a
//! register that the paper's rules and the memory-dependence machinery
//! actually branch on: *when* its value arrives (fast enough to resolve a
//! store address before a younger load issues, or not), whether it is
//! *tainted* (derived from data a still-shadowed load returned, §3.2),
//! and whether it is *doomed* (derived from a load that forwarded stale
//! memory past an unresolved store and will be squashed and replayed —
//! the root of a D-shadow).

use sb_isa::OpClass;

/// How quickly a register's value becomes available, as a three-point
/// lattice ordered `Ready < Fast < Slow`. Only `Slow` vs. not-`Slow`
/// carries meaning: a store whose address operand is `Slow` is still
/// unresolved when a younger, address-ready load issues — the
/// speculative-store-bypass window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Latency {
    /// Never written in the kernel (live-in) — available at rename.
    #[default]
    Ready,
    /// Produced by a short pipeline (ALU, multiply, cache hit).
    Fast,
    /// Produced by a long-latency unit (divide) or a cache miss.
    Slow,
}

impl Latency {
    /// Join (least upper bound): the slowest input dominates.
    #[must_use]
    pub(crate) fn join(self, other: Latency) -> Latency {
        self.max(other)
    }

    /// The latency class an op of `class` contributes on top of its
    /// sources: divides are `Slow` (12/14 cycles — longer than a store
    /// can wait), every other compute pipe is `Fast`. Loads are classed
    /// at the access site from cache warmth, not here.
    #[must_use]
    pub(crate) fn of_compute(class: OpClass) -> Latency {
        if class.is_long_latency() {
            Latency::Slow
        } else if matches!(class, OpClass::IntAlu | OpClass::Nop) {
            Latency::Ready
        } else {
            Latency::Fast
        }
    }
}

/// The abstract value of one architectural register.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AbsVal {
    /// When the value arrives.
    pub(crate) lat: Latency,
    /// Whether the value derives from a shadowed load's data — a secure
    /// scheme must not let a transmitter consume it (§3.2).
    pub(crate) tainted: bool,
    /// Whether the value derives from a stale store-bypass read: the
    /// producing load will be squashed and replayed, so every dependent
    /// executes transiently (a D-shadow root).
    pub(crate) doomed: bool,
}

impl AbsVal {
    /// Join of two operand values (used op-by-op, not at control joins:
    /// the interpreter walks straight-line kernel traces).
    #[must_use]
    pub(crate) fn join(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lat: self.lat.join(other.lat),
            tainted: self.tainted || other.tainted,
            doomed: self.doomed || other.doomed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_order_and_join() {
        assert!(Latency::Ready < Latency::Fast);
        assert!(Latency::Fast < Latency::Slow);
        assert_eq!(Latency::Ready.join(Latency::Slow), Latency::Slow);
        assert_eq!(Latency::Fast.join(Latency::Fast), Latency::Fast);
    }

    #[test]
    fn divides_are_slow_alu_is_ready() {
        assert_eq!(Latency::of_compute(OpClass::IntDiv), Latency::Slow);
        assert_eq!(Latency::of_compute(OpClass::FpDiv), Latency::Slow);
        assert_eq!(Latency::of_compute(OpClass::IntAlu), Latency::Ready);
        assert_eq!(Latency::of_compute(OpClass::IntMul), Latency::Fast);
    }

    #[test]
    fn absval_join_is_pointwise() {
        let a = AbsVal {
            lat: Latency::Fast,
            tainted: true,
            doomed: false,
        };
        let b = AbsVal {
            lat: Latency::Slow,
            tainted: false,
            doomed: true,
        };
        let j = a.join(b);
        assert_eq!(j.lat, Latency::Slow);
        assert!(j.tainted);
        assert!(j.doomed);
    }
}
