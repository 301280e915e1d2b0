//! Speculative-shadow tracking and the visibility point (§2.1, §6).
//!
//! Following the Ghost Loads taxonomy the paper adopts, speculation is
//! described by *shadows* cast over younger instructions: C-shadows by
//! unresolved control instructions, D-shadows by loads whose store-to-load
//! forwarding check is incomplete. Shadows resolve in order; an instruction
//! with no older unresolved shadow is *bound-to-commit* (it has reached the
//! visibility point, in STT terms).

use sb_isa::Seq;
use std::collections::VecDeque;
use std::fmt;

/// The kind of speculation casting a shadow (§2.1's Ghost Loads taxonomy).
///
/// The paper's evaluated threat model covers C and D shadows; §6 notes that
/// protecting against InvisiSpec's *Futuristic* model additionally requires
/// M and E shadows, which this reproduction implements as an extension (see
/// [`ThreatModel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShadowKind {
    /// Control speculation: an unresolved branch.
    Control,
    /// Data speculation: a store whose address is not yet known — younger
    /// loads may have forwarded stale data past it.
    Data,
    /// Memory-consistency speculation: a load that has read its value but
    /// could still be squashed by a consistency violation until it is
    /// bound to commit (Futuristic model only).
    Memory,
    /// Exception speculation: an instruction that may still fault
    /// (Futuristic model only; we model faulting memory ops).
    Exception,
}

/// Which speculation sources the secure scheme defends against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ThreatModel {
    /// The paper's evaluated model: control and store-bypass speculation
    /// (Spectre v1 + Speculative Store Bypass), §2.4.
    #[default]
    Spectre,
    /// InvisiSpec's Futuristic model: all four shadow kinds are tracked
    /// (§6's extension), at additional IPC cost.
    Futuristic,
}

impl ThreatModel {
    /// Whether `kind` is tracked under this threat model.
    #[must_use]
    pub fn tracks(self, kind: ShadowKind) -> bool {
        match self {
            ThreatModel::Spectre => {
                matches!(kind, ShadowKind::Control | ShadowKind::Data)
            }
            ThreatModel::Futuristic => true,
        }
    }

    /// Both threat models, weakest first (the order the security matrix
    /// reports them in).
    #[must_use]
    pub fn all() -> [ThreatModel; 2] {
        [ThreatModel::Spectre, ThreatModel::Futuristic]
    }

    /// Whether this model's protection claim subsumes `other`'s: Futuristic
    /// tracks a strict superset of the Spectre model's shadows, so a
    /// scenario inside the Spectre claim is inside the Futuristic claim too.
    #[must_use]
    pub fn covers(self, other: ThreatModel) -> bool {
        self == ThreatModel::Futuristic || other == ThreatModel::Spectre
    }

    /// Short label used in reports and CLI values.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ThreatModel::Spectre => "spectre",
            ThreatModel::Futuristic => "futuristic",
        }
    }
}

impl fmt::Display for ThreatModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ThreatModel {
    type Err = String;

    /// Parses a CLI-style threat-model name (`spectre` / `futuristic`).
    /// Unknown names are a hard error — the security axis must never fall
    /// back to a silent default.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spectre" => Ok(ThreatModel::Spectre),
            "futuristic" => Ok(ThreatModel::Futuristic),
            other => Err(format!(
                "unknown threat model '{other}' (expected spectre or futuristic)"
            )),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Shadow {
    seq: Seq,
    resolved: bool,
}

/// Tracks all in-flight shadows and exposes the speculation frontier.
///
/// The *frontier* is the sequence number of the oldest unresolved shadow;
/// an instruction is speculative exactly when it is younger than the
/// frontier. Equivalently, a taint whose youngest root of taint (YRoT) is a
/// load younger than the frontier is still live — which is the liveness rule
/// §4.2 asks checkpoint restoration to re-establish, and it falls out here
/// with no extra work.
///
/// # Example
///
/// ```
/// use sb_core::{ShadowKind, SpeculationTracker};
/// use sb_isa::Seq;
///
/// let mut t = SpeculationTracker::new();
/// t.cast(Seq::new(5));
/// assert!(t.is_speculative(Seq::new(6)));
/// assert!(!t.is_speculative(Seq::new(5)), "a shadow does not cover itself");
/// t.resolve(Seq::new(5));
/// assert!(!t.is_speculative(Seq::new(6)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SpeculationTracker {
    /// Shadow-casting instructions in program order.
    shadows: VecDeque<Shadow>,
    /// Token of the shadow currently at the deque front. A token is a
    /// *virtual deque position* (front pops advance it, back pops do
    /// not), so `token - front_token` resolves a live caster's shadow in
    /// O(1). Tokens are NOT unique across time: a squash recycles the
    /// popped positions for later casts — see the holder contract on
    /// [`SpeculationTracker::cast`].
    front_token: u64,
}

impl SpeculationTracker {
    /// A tracker with no in-flight shadows.
    #[must_use]
    pub fn new() -> Self {
        SpeculationTracker::default()
    }

    /// Registers a shadow cast by instruction `seq`, returning the cast
    /// token for [`SpeculationTracker::resolve_at`].
    ///
    /// Holder contract: the token is a deque *position*, not a unique id —
    /// a squash pops younger shadows and later casts reuse their
    /// positions (and therefore their token values). A token must only be
    /// stored where it dies together with its caster (the caster's own
    /// ROB record, as `sb-uarch` does in `ColdInst`), never in a lazily
    /// cleaned container that can outlive a squash. Within that contract
    /// resolution is safe: the caster is live, so its position still names
    /// its own shadow, and resolving an already-retired token is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not younger than every tracked shadow — shadows
    /// must be cast in program order.
    pub fn cast(&mut self, seq: Seq) -> u64 {
        if let Some(last) = self.shadows.back() {
            assert!(seq > last.seq, "shadows must be cast in program order");
        }
        self.shadows.push_back(Shadow {
            seq,
            resolved: false,
        });
        self.front_token + self.shadows.len() as u64 - 1
    }

    /// Marks the shadow cast by `seq` as resolved. No-op if `seq` casts no
    /// shadow (e.g. it was already retired or squashed).
    pub fn resolve(&mut self, seq: Seq) {
        // Shadows are cast in program order, so the deque is seq-sorted.
        if let Ok(i) = self.shadows.binary_search_by(|s| s.seq.cmp(&seq)) {
            self.shadows[i].resolved = true;
        }
        self.retire_resolved_prefix();
    }

    /// Marks the shadow behind cast token `token` as resolved in O(1) —
    /// the hot-path equivalent of [`SpeculationTracker::resolve`]. No-op
    /// for already-retired tokens.
    pub fn resolve_at(&mut self, token: u64) {
        if let Some(i) = token.checked_sub(self.front_token) {
            if let Some(s) = self.shadows.get_mut(i as usize) {
                s.resolved = true;
            }
        }
        self.retire_resolved_prefix();
    }

    fn retire_resolved_prefix(&mut self) {
        while self.shadows.front().is_some_and(|s| s.resolved) {
            self.shadows.pop_front();
            self.front_token += 1;
        }
    }

    /// Removes all shadows cast by instructions younger than `seq`
    /// (exclusive) — called on a squash at `seq`.
    pub fn squash_younger(&mut self, seq: Seq) {
        while self.shadows.back().is_some_and(|s| s.seq > seq) {
            self.shadows.pop_back();
        }
        self.retire_resolved_prefix();
    }

    /// The oldest unresolved shadow's sequence number, or `None` when
    /// nothing in flight is speculative.
    #[must_use]
    pub fn frontier(&self) -> Option<Seq> {
        self.shadows.front().map(|s| s.seq)
    }

    /// Whether instruction `seq` is currently speculative, i.e. younger than
    /// some unresolved shadow.
    #[must_use]
    pub fn is_speculative(&self, seq: Seq) -> bool {
        self.frontier().is_some_and(|f| seq > f)
    }

    /// Whether a taint rooted at load `root` is still live: the root is
    /// itself still speculative. Untainting (§3.1) is exactly this check.
    #[must_use]
    pub fn taint_live(&self, root: Seq) -> bool {
        self.is_speculative(root)
    }

    /// Number of in-flight shadows (resolved-but-buried ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shadows.len()
    }

    /// Whether no shadows are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shadows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> Seq {
        Seq::new(n)
    }

    #[test]
    fn empty_tracker_is_nonspeculative() {
        let t = SpeculationTracker::new();
        assert_eq!(t.frontier(), None);
        assert!(!t.is_speculative(s(100)));
        assert!(!t.taint_live(s(100)));
        assert!(t.is_empty());
    }

    #[test]
    fn shadow_covers_younger_only() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        assert!(!t.is_speculative(s(9)));
        assert!(!t.is_speculative(s(10)));
        assert!(t.is_speculative(s(11)));
    }

    #[test]
    fn shadows_resolve_in_order() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        t.cast(s(20));
        t.resolve(s(20));
        // Younger shadow resolved, older still pending: frontier unchanged.
        assert_eq!(t.frontier(), Some(s(10)));
        assert!(t.is_speculative(s(15)));
        t.resolve(s(10));
        // Both now retire.
        assert_eq!(t.frontier(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn resolve_unknown_seq_is_noop() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        t.resolve(s(99));
        assert_eq!(t.frontier(), Some(s(10)));
    }

    #[test]
    fn squash_removes_younger_shadows() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        t.cast(s(20));
        t.cast(s(30));
        t.squash_younger(s(15));
        assert_eq!(t.len(), 1);
        assert_eq!(t.frontier(), Some(s(10)));
        // The squash point itself survives.
        t.squash_younger(s(10));
        assert_eq!(t.frontier(), Some(s(10)));
    }

    #[test]
    fn squash_after_resolution_retires_prefix() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        t.cast(s(20));
        t.resolve(s(10)); // retires 10, frontier now 20
        assert_eq!(t.frontier(), Some(s(20)));
        t.squash_younger(s(15)); // removes 20
        assert_eq!(t.frontier(), None);
    }

    #[test]
    fn taint_liveness_follows_frontier() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        // A load at seq 12 under the branch's shadow roots a taint.
        assert!(t.taint_live(s(12)));
        t.resolve(s(10));
        // Root no longer speculative -> taint dead, no explicit untaint walk.
        assert!(!t.taint_live(s(12)));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_cast_rejected() {
        let mut t = SpeculationTracker::new();
        t.cast(s(10));
        t.cast(s(5));
    }

    #[test]
    fn threat_models_track_the_right_shadows() {
        for kind in [ShadowKind::Control, ShadowKind::Data] {
            assert!(ThreatModel::Spectre.tracks(kind));
            assert!(ThreatModel::Futuristic.tracks(kind));
        }
        for kind in [ShadowKind::Memory, ShadowKind::Exception] {
            assert!(!ThreatModel::Spectre.tracks(kind));
            assert!(ThreatModel::Futuristic.tracks(kind));
        }
    }

    #[test]
    fn threat_model_parse_and_labels_round_trip() {
        for m in ThreatModel::all() {
            assert_eq!(m.label().parse::<ThreatModel>(), Ok(m));
            assert_eq!(m.to_string(), m.label());
        }
        let err = "sputnik".parse::<ThreatModel>().unwrap_err();
        assert!(err.contains("sputnik") && err.contains("spectre"), "{err}");
    }

    #[test]
    fn futuristic_claim_covers_spectre_claim() {
        use ThreatModel::{Futuristic, Spectre};
        assert!(Futuristic.covers(Spectre));
        assert!(Futuristic.covers(Futuristic));
        assert!(Spectre.covers(Spectre));
        assert!(!Spectre.covers(Futuristic));
    }

    #[test]
    fn memory_shadows_behave_like_other_shadows() {
        let mut t = SpeculationTracker::new();
        t.cast(s(5));
        t.cast(s(7));
        assert!(t.is_speculative(s(6)));
        t.resolve(s(5));
        assert_eq!(t.frontier(), Some(s(7)));
    }
}
