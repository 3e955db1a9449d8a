//! The deterministic event queue.
//!
//! Events scheduled at the same instant are delivered in the order they were
//! scheduled (FIFO tie-break via a monotone sequence number), which makes
//! whole-simulation runs reproducible bit-for-bit for a given seed.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken(u64);

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// Cancellation is lazy: cancelled tokens are remembered and the matching
/// entries are skipped when popped. A queue that never cancels pays no
/// lookup per pop.
///
/// # Examples
///
/// ```
/// use sim_kernel::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "late");
/// q.schedule(SimTime::from_secs(5), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time` and returns a cancellation token.
    ///
    /// Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        EventToken(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the token had not already fired or been cancelled.
    /// Cancelling an already-delivered event is a silent no-op that returns
    /// `false` and leaves [`len`](Self::len) unchanged.
    ///
    /// Scans the pending events, so it costs O(n); nothing on a hot path
    /// cancels.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if !self.heap.iter().any(|entry| entry.seq == token.0) {
            return false;
        }
        self.cancelled.insert(token.0)
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            return Some((entry.time, entry.event));
        }
        None
    }

    /// The firing time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled heads so the peek is accurate.
        while let Some(head) = self.heap.peek() {
            if !self.cancelled.is_empty() && self.cancelled.contains(&head.seq) {
                let seq = head.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(head.time);
            }
        }
        None
    }

    /// Number of live events: scheduled, not yet delivered, not cancelled.
    pub fn len(&self) -> usize {
        self.heap.len().saturating_sub(self.cancelled.len())
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(SimTime::from_secs(1), "keep");
        let drop = q.schedule(SimTime::from_secs(2), "drop");
        assert!(q.cancel(drop));
        assert!(!q.cancel(drop), "double-cancel reports false");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "keep")));
        assert_eq!(q.pop(), None);
        // Cancelling after delivery is a no-op.
        assert!(!q.cancel(keep), "cancelling a delivered event reports false");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancelling_a_delivered_event_keeps_len() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 'a')));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 'b')));
    }

    #[test]
    fn peek_time_sees_through_cancellations() {
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(5), ());
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_token_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventToken(99)));
    }
}
