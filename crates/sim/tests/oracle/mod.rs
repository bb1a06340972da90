//! The reference event queue for differential testing.
//!
//! [`ReferenceQueue`] is the engine's original `BinaryHeap<(time, seq)>`
//! implementation, kept verbatim in spirit as the *oracle* that pins the
//! timer wheel's delivery semantics: the property suite in
//! `crates/sim/tests/differential.rs` drives arbitrary interleaved
//! schedule / cancel / pop / `pop_until` sequences against both queues and
//! asserts identical `(time, payload)` streams, clocks, and pending counts.
//!
//! It is deliberately the *simple* implementation — O(log n) heap ops, a
//! seq-keyed live-set for cancellation — because its correctness is easy to
//! see by inspection: the heap's `(time, seq)` min-order **is** the
//! specification ("earliest time first, FIFO among ties"). One deviation
//! from the retired production code is intentional: `cancel` consults the
//! live-set instead of blindly inserting a tombstone, so cancelling an
//! already-delivered handle correctly reports `false` and cannot corrupt
//! [`pending`](ReferenceQueue::pending) — the documented semantics, which
//! the wheel also implements.
//!
//! This type is test infrastructure, not simulation surface: it lives
//! under `crates/sim/tests/`, so the library does not ship it.

use domino_sim::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Handle naming an event scheduled on a [`ReferenceQueue`]; wraps the
/// event's sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RefHandle(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Binary-heap event queue: the specification oracle for
/// [`Engine`](domino_sim::Engine).
pub struct ReferenceQueue<E> {
    queue: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    /// Sequence numbers of still-pending (not delivered, not cancelled)
    /// events. A BTreeSet keeps iteration deterministic (lint D002).
    live: BTreeSet<u64>,
    processed: u64,
}

impl<E> std::fmt::Debug for ReferenceQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceQueue")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        ReferenceQueue {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            live: BTreeSet::new(),
            processed: 0,
        }
    }

    /// Current simulation time (timestamp of the last delivered event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of live pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Schedule `payload` at absolute time `at`; panics when `at` is in
    /// the past (same contract as the engine).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> RefHandle {
        assert!(at >= self.now, "cannot schedule into the past: {at:?} < {:?}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { time: at, seq, payload });
        self.live.insert(seq);
        RefHandle(seq)
    }

    /// Schedule `payload` at the current instant.
    #[inline]
    pub fn schedule_now(&mut self, payload: E) -> RefHandle {
        self.schedule_at(self.now, payload)
    }

    /// Cancel a pending event; `true` iff it was still live. Delivered,
    /// already-cancelled, and never-issued handles report `false`.
    pub fn cancel(&mut self, handle: RefHandle) -> bool {
        self.live.remove(&handle.0)
    }

    /// Pop the next live event not later than `horizon`, skipping cancelled
    /// tombstones; the clock stays put on a horizon miss.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        loop {
            let head = self.queue.peek_mut()?;
            if head.time > horizon {
                return None;
            }
            let entry = std::collections::binary_heap::PeekMut::pop(head);
            if !self.live.remove(&entry.seq) {
                continue; // cancelled tombstone
            }
            debug_assert!(entry.time >= self.now, "event queue delivered out of order");
            self.now = entry.time;
            self.processed += 1;
            return Some((entry.time, entry.payload));
        }
    }

    /// Pop the next live event regardless of horizon.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Prune leading tombstones so the peek is accurate.
        while let Some(head) = self.queue.peek_mut() {
            if self.live.contains(&head.seq) {
                return Some(head.time);
            }
            let _ = std::collections::binary_heap::PeekMut::pop(head);
        }
        None
    }

    /// Advance the clock without delivering; same panics as the engine.
    pub fn fast_forward(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot move the clock backwards");
        if let Some(next) = self.peek_time() {
            assert!(at <= next, "fast_forward would skip a pending event at {next:?}");
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_orders_and_cancels() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_micros(7);
        let h0 = q.schedule_at(t, 0u32);
        let _h1 = q.schedule_at(t, 1u32);
        q.schedule_at(SimTime::from_micros(3), 2u32);
        assert!(q.cancel(h0));
        assert!(!q.cancel(h0));
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 2)));
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn oracle_cancel_after_delivery_is_false() {
        let mut q = ReferenceQueue::new();
        let h = q.schedule_at(SimTime::from_micros(1), 9u32);
        assert!(q.pop().is_some());
        assert!(!q.cancel(h));
        assert_eq!(q.pending(), 0);
    }
}
