//! The bandwidth-limited broadcast network for loads that become
//! non-speculative (§4.4, §5.1).
//!
//! Both STT variants must broadcast "load *s* is now non-speculative" to
//! every issue slot (to unmask delayed transmitters), and NDA must broadcast
//! the delayed data-ready of speculative loads. The paper notes this network
//! is expensive and bounded: *"the number of parallel broadcasts is limited
//! to the core memory width"* (§5.1). [`BroadcastQueue`] models exactly
//! that: events queue up and drain oldest-first at a configurable per-cycle
//! bandwidth (unbounded in abstract fidelity).

use sb_isa::Seq;
use std::collections::VecDeque;

/// A seq-ordered queue of pending broadcasts with per-cycle bandwidth.
///
/// The payload `T` is what rides the broadcast: `()` for STT untaints (the
/// sequence number itself is the message), the destination physical
/// register for NDA delayed data-ready broadcasts.
///
/// # Example
///
/// ```
/// use sb_core::BroadcastQueue;
/// use sb_isa::Seq;
///
/// let mut q: BroadcastQueue<()> = BroadcastQueue::new();
/// q.push(Seq::new(3), ());
/// q.push(Seq::new(1), ());
/// // Only seq 1 is non-speculative yet; bandwidth 1.
/// let mut sent = Vec::new();
/// q.drain_ready_into(|s| s <= Seq::new(1), Some(1), &mut sent);
/// assert_eq!(sent, vec![(Seq::new(1), ())]);
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BroadcastQueue<T> {
    /// Pending broadcasts, seq-sorted. Pushes are almost always in program
    /// order (loads enqueue at rename), so this behaves as a plain
    /// double-ended queue with a binary-search fallback for out-of-order
    /// pushes — much cheaper than a tree for the per-cycle drain.
    pending: VecDeque<(Seq, T)>,
}

impl<T> Default for BroadcastQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BroadcastQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        BroadcastQueue {
            pending: VecDeque::new(),
        }
    }

    /// Enqueues a broadcast for instruction `seq`. Re-pushing the same seq
    /// replaces the payload (idempotent for untaints).
    pub fn push(&mut self, seq: Seq, payload: T) {
        match self.pending.back() {
            Some(&(last, _)) if last >= seq => {
                // Out-of-order or duplicate push: keep the deque sorted.
                match self.pending.binary_search_by(|&(s, _)| s.cmp(&seq)) {
                    Ok(i) => self.pending[i].1 = payload,
                    Err(i) => self.pending.insert(i, (seq, payload)),
                }
            }
            _ => self.pending.push_back((seq, payload)),
        }
    }

    /// Sends up to `bandwidth` broadcasts this cycle (all of them if
    /// `None`), oldest first, stopping at the first entry for which `ready`
    /// is false. The sent entries are appended to `sent`, a buffer the
    /// caller recycles (the simulator drains this queue every cycle).
    ///
    /// `ready` must be monotone in seq (true for a prefix): loads become
    /// non-speculative in program order, so the visibility point never
    /// leapfrogs a pending entry.
    pub fn drain_ready_into(
        &mut self,
        ready: impl Fn(Seq) -> bool,
        bandwidth: Option<usize>,
        sent: &mut Vec<(Seq, T)>,
    ) {
        let limit = bandwidth.unwrap_or(usize::MAX);
        let start = sent.len();
        while sent.len() - start < limit {
            let Some(&(seq, _)) = self.pending.front() else {
                break;
            };
            if !ready(seq) {
                break;
            }
            let entry = self.pending.pop_front().expect("peeked entry exists");
            sent.push(entry);
        }
    }

    /// Sends the oldest pending broadcast if `ready` accepts it — the
    /// allocation-free single-step variant of
    /// [`BroadcastQueue::drain_ready_into`] for per-cycle hot loops that
    /// do not need to collect the payloads.
    pub fn pop_ready(&mut self, ready: impl Fn(Seq) -> bool) -> Option<(Seq, T)> {
        let &(seq, _) = self.pending.front()?;
        if !ready(seq) {
            return None;
        }
        self.pending.pop_front()
    }

    /// Drops queued broadcasts for squashed instructions (younger than
    /// `seq`, exclusive).
    pub fn squash_younger(&mut self, seq: Seq) {
        while self.pending.back().is_some_and(|&(s, _)| s > seq) {
            self.pending.pop_back();
        }
    }

    /// Sequence number of the oldest pending broadcast, if any.
    #[must_use]
    pub fn peek_seq(&self) -> Option<Seq> {
        self.pending.front().map(|&(s, _)| s)
    }

    /// Pending broadcast count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> Seq {
        Seq::new(n)
    }

    /// Drains into a fresh buffer.
    fn drain<T>(
        q: &mut BroadcastQueue<T>,
        ready: impl Fn(Seq) -> bool,
        bandwidth: Option<usize>,
    ) -> Vec<(Seq, T)> {
        let mut sent = Vec::new();
        q.drain_ready_into(ready, bandwidth, &mut sent);
        sent
    }

    #[test]
    fn drains_oldest_first_up_to_bandwidth() {
        let mut q = BroadcastQueue::new();
        q.push(s(3), 'c');
        q.push(s(1), 'a');
        q.push(s(2), 'b');
        let sent = drain(&mut q, |_| true, Some(2));
        assert_eq!(sent, vec![(s(1), 'a'), (s(2), 'b')]);
        let sent = drain(&mut q, |_| true, Some(2));
        assert_eq!(sent, vec![(s(3), 'c')]);
        assert!(q.is_empty());
    }

    #[test]
    fn unready_front_blocks_drain() {
        let mut q = BroadcastQueue::new();
        q.push(s(5), ());
        q.push(s(8), ());
        let sent = drain(&mut q, |seq| seq <= s(4), Some(4));
        assert!(sent.is_empty());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn unbounded_bandwidth_drains_all_ready() {
        let mut q = BroadcastQueue::new();
        for i in 0..100 {
            q.push(s(i), ());
        }
        let sent = drain(&mut q, |_| true, None);
        assert_eq!(sent.len(), 100);
    }

    #[test]
    fn squash_drops_younger_entries() {
        let mut q = BroadcastQueue::new();
        q.push(s(1), ());
        q.push(s(5), ());
        q.push(s(9), ());
        q.squash_younger(s(5));
        assert_eq!(q.len(), 2, "seq 5 itself survives");
        let sent = drain(&mut q, |_| true, None);
        assert_eq!(
            sent.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
            vec![s(1), s(5)]
        );
    }

    #[test]
    fn repush_replaces_payload() {
        let mut q = BroadcastQueue::new();
        q.push(s(1), 'a');
        q.push(s(1), 'b');
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, |_| true, None), vec![(s(1), 'b')]);
    }

    #[test]
    fn zero_bandwidth_sends_nothing() {
        let mut q = BroadcastQueue::new();
        q.push(s(1), ());
        assert!(drain(&mut q, |_| true, Some(0)).is_empty());
        assert_eq!(q.len(), 1);
    }
}
