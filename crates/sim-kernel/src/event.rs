//! The deterministic event queue.
//!
//! Events scheduled at the same instant are delivered in the order they were
//! scheduled (FIFO tie-break via a monotone sequence number), which makes
//! whole-simulation runs reproducible bit-for-bit for a given seed.
//!
//! Most events a simulation schedules arrive already sorted: a model lays
//! out its arrivals and deadlines in ascending order, and a constant delay
//! after a clock that never goes back is ascending too. Such events wait in
//! FIFO lanes, where appending and popping cost O(1), and only the rest go
//! to a binary heap. Every event carries the same `(time, seq)` key
//! wherever it is stored, and [`EventQueue::pop`] takes the least head over
//! the heap and the lanes, so where an event waits never changes the order
//! it is delivered in.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Capacity each buffer reserves on its first push, so the queue skips the
/// smallest reallocations.
const FIRST_CAPACITY: usize = 256;

/// Most [`EventQueue::schedule_in`] lanes held at once. A delay that finds
/// no lane keyed by it and no free lane waits on the heap, so a model with
/// many distinct delays cannot make every pop scan many lanes.
const MAX_DELAY_LANES: usize = 4;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// A FIFO of events in ascending `(time, seq)` order.
#[derive(Debug)]
struct Lane<E> {
    events: VecDeque<Scheduled<E>>,
}

impl<E> Lane<E> {
    fn new() -> Self {
        Lane {
            events: VecDeque::new(),
        }
    }

    /// Appends `entry` if that keeps the lane sorted, i.e. if it fires no
    /// earlier than the tail (its `seq` is the newest, so it sorts after
    /// any tail at the same instant); otherwise hands it back.
    fn push(&mut self, entry: Scheduled<E>) -> Result<(), Scheduled<E>> {
        if self
            .events
            .back()
            .is_some_and(|tail| entry.time < tail.time)
        {
            return Err(entry);
        }
        if self.events.capacity() == 0 {
            self.events.reserve(FIRST_CAPACITY);
        }
        self.events.push_back(entry);
        Ok(())
    }
}

/// Where the least pending event waits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    InOrder,
    Delay(usize),
}

/// A time-ordered queue of simulation events.
///
/// Events are delivered by `(time, seq)`, where `seq` counts scheduling
/// calls, so equal times fire in scheduling order. [`schedule`] keeps
/// ascending times in one FIFO lane and [`schedule_in`] keeps each constant
/// delay in a FIFO lane of its own; anything else waits on a heap.
///
/// [`schedule`]: EventQueue::schedule
/// [`schedule_in`]: EventQueue::schedule_in
///
/// # Examples
///
/// ```
/// use sim_kernel::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "late");
/// q.schedule(SimTime::from_secs(5), "early");
/// q.schedule_in(SimTime::from_secs(4), SimDuration::from_secs(6), "tied");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(10), "late")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(10), "tied")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// [`EventQueue::schedule`]'s lane.
    in_order: Lane<E>,
    /// [`EventQueue::schedule_in`]'s lanes, each keyed by its delay.
    delayed: Vec<(SimDuration, Lane<E>)>,
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
            in_order: Lane::new(),
            delayed: Vec::new(),
            next_seq: 0,
        }
    }

    fn entry(&mut self, time: SimTime, event: E) -> Scheduled<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled { time, seq, event }
    }

    fn push_heap(&mut self, entry: Scheduled<E>) {
        if self.heap.capacity() == 0 {
            self.heap.reserve(FIRST_CAPACITY);
        }
        self.heap.push(entry);
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        if let Err(entry) = self.in_order.push(entry) {
            self.push_heap(entry);
        }
    }

    /// Schedules `event` to fire `delay` after `now`.
    ///
    /// Delivery is exactly as for `schedule(now + delay, event)`. Events
    /// scheduled with one delay from a clock that never goes back fire in
    /// the order they were scheduled, so they share a FIFO lane.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimDuration, event: E) {
        let entry = self.entry(now + delay, event);
        let lane = match self.delayed.iter().position(|(d, _)| *d == delay) {
            Some(i) => i,
            None => match self
                .delayed
                .iter()
                .position(|(_, lane)| lane.events.is_empty())
            {
                Some(i) => {
                    self.delayed[i].0 = delay;
                    i
                }
                None if self.delayed.len() < MAX_DELAY_LANES => {
                    self.delayed.push((delay, Lane::new()));
                    self.delayed.len() - 1
                }
                None => return self.push_heap(entry),
            },
        };
        if let Err(entry) = self.delayed[lane].1.push(entry) {
            self.push_heap(entry);
        }
    }

    /// The source holding the least `(time, seq)` head, with that head's
    /// time.
    fn head(&self) -> Option<(Source, SimTime)> {
        let mut best = self.heap.peek().map(|h| (Source::Heap, h.key()));
        let lanes = std::iter::once((Source::InOrder, &self.in_order)).chain(
            self.delayed
                .iter()
                .enumerate()
                .map(|(i, (_, lane))| (Source::Delay(i), lane)),
        );
        for (source, lane) in lanes {
            if let Some(h) = lane.events.front() {
                if best.is_none_or(|(_, key)| h.key() < key) {
                    best = Some((source, h.key()));
                }
            }
        }
        best.map(|(source, (time, _))| (source, time))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (source, _) = self.head()?;
        let entry = match source {
            Source::Heap => self.heap.pop(),
            Source::InOrder => self.in_order.events.pop_front(),
            Source::Delay(i) => self.delayed[i].1.events.pop_front(),
        }
        .expect("the head's source is non-empty");
        Some((entry.time, entry.event))
    }

    /// The firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(_, time)| time)
    }

    /// Number of events scheduled and not yet delivered.
    pub fn len(&self) -> usize {
        self.heap.len()
            + self.in_order.events.len()
            + self
                .delayed
                .iter()
                .map(|(_, lane)| lane.events.len())
                .sum::<usize>()
    }

    /// True if no events remain.
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

    /// The lanes carry the sorted streams: ascending `schedule` times and
    /// constant `schedule_in` delays off an advancing clock never reach the
    /// heap. Routing every event to the heap would pass the ordering tests
    /// and lose the lanes' gain; this test fails instead.
    #[test]
    fn sorted_streams_stay_off_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(i / 3), i);
        }
        let mut delivered = 0;
        while let Some((now, e)) = q.pop() {
            delivered += 1;
            if e < 1_000 {
                q.schedule_in(now, SimDuration::ZERO, 1_000 + e);
                q.schedule_in(now, SimDuration::from_mins(15), 2_000 + e);
            }
            assert!(
                q.heap.is_empty(),
                "event {e} at {now} left an event on the heap"
            );
        }
        assert_eq!(delivered, 300);
        assert_eq!(q.heap.capacity(), 0, "the heap was never used");
    }
}
