//! Property-based tests for the simulation kernel's core invariants.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sim_kernel::{EventQueue, RunningStats, SimDuration, SimRng, SimTime, TimeSeries};

/// The queue as a plain binary heap keyed by `(time, seq)`: the reference
/// the lane-backed [`EventQueue`] must match delivery for delivery.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn schedule(&mut self, time: SimTime, event: usize) {
        self.heap.push(Reverse((time, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, event))| (time, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of `schedule`, `schedule_in`, `pop`, `peek_time`
    /// and `len` delivers the same `(time, event)` sequence as the
    /// reference heap. The clock is set from each pop, as a model's pop loop
    /// does. Times span a minute, so many events tie at one instant across
    /// the heap and the lanes; `schedule_in` repeats the delays 0 and
    /// 900 s and mixes in a dozen others, so lanes fill up, empty and are
    /// re-keyed; and absolute times land before lane tails and before the
    /// clock, so events fall back to the heap and the clock can go back.
    #[test]
    fn queue_matches_a_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u64..60), 1..400),
    ) {
        let mut queue = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut now = SimTime::ZERO;
        for (id, (kind, x)) in ops.into_iter().enumerate() {
            match kind {
                0 | 1 => {
                    let at = if kind == 0 {
                        now + SimDuration::from_secs(x % 4)
                    } else {
                        SimTime::from_secs(x)
                    };
                    queue.schedule(at, id);
                    reference.schedule(at, id);
                }
                2..=4 => {
                    let delay = SimDuration::from_secs(match kind {
                        2 => 0,
                        3 => 900,
                        _ => x % 12,
                    });
                    queue.schedule_in(now, delay, id);
                    reference.schedule(now + delay, id);
                }
                5..=7 => {
                    let got = queue.pop();
                    prop_assert_eq!(got, reference.pop());
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                8 => prop_assert_eq!(queue.peek_time(), reference.peek_time()),
                _ => prop_assert_eq!(queue.len(), reference.heap.len()),
            }
        }
        while let Some(got) = queue.pop() {
            prop_assert_eq!(Some(got), reference.pop());
        }
        prop_assert_eq!(reference.pop(), None);
        prop_assert!(queue.is_empty());
    }
}

proptest! {
    /// The queue always delivers events in non-decreasing time order, and
    /// equal-time events in scheduling (FIFO) order.
    #[test]
    fn queue_delivers_in_time_then_fifo_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut delivered = 0;
        while let Some((t, idx)) = q.pop() {
            delivered += 1;
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal time");
                }
            }
            last = Some((t, idx));
        }
        prop_assert_eq!(delivered, times.len());
    }

    /// Welford merge equals sequential accumulation.
    #[test]
    fn stats_merge_is_associative_with_sequential(
        left in prop::collection::vec(-1e6f64..1e6, 0..100),
        right in prop::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let sequential: RunningStats = left.iter().chain(right.iter()).copied().collect();
        let mut merged: RunningStats = left.iter().copied().collect();
        merged.merge(&right.iter().copied().collect());
        prop_assert_eq!(merged.count(), sequential.count());
        if sequential.count() > 0 {
            prop_assert!((merged.mean() - sequential.mean()).abs() < 1e-6 * (1.0 + sequential.mean().abs()));
            prop_assert!((merged.variance() - sequential.variance()).abs() < 1e-4 * (1.0 + sequential.variance().abs()));
        }
    }

    /// Step-function lookups return the most recent value.
    #[test]
    fn time_series_value_at_matches_linear_scan(
        deltas in prop::collection::vec(1u64..100, 1..50),
        query in 0u64..6000,
    ) {
        let mut series = TimeSeries::new("p");
        let mut t = 0u64;
        let mut points = Vec::new();
        for (i, d) in deltas.iter().enumerate() {
            t += d;
            series.push(SimTime::from_secs(t), i as f64);
            points.push((t, i as f64));
        }
        let expected = points
            .iter()
            .rev()
            .find(|&&(pt, _)| pt <= query)
            .map(|&(_, v)| v);
        prop_assert_eq!(series.value_at(SimTime::from_secs(query)), expected);
    }

    /// Forked RNG streams with distinct indices are distinct; equal indices
    /// are equal regardless of parent consumption.
    #[test]
    fn rng_forks_are_stable(seed in any::<u64>(), i in 0u64..1000, j in 0u64..1000) {
        let parent = SimRng::seed_from_u64(seed);
        let mut consumed = parent.clone();
        let _ = consumed.uniform();
        let a = parent.fork_indexed("stream", i);
        let b = consumed.fork_indexed("stream", i);
        prop_assert_eq!(a.seed(), b.seed());
        if i != j {
            prop_assert_ne!(a.seed(), parent.fork_indexed("stream", j).seed());
        }
    }

    /// Exponential samples are non-negative and finite for positive rates.
    #[test]
    fn exponential_samples_are_valid(seed in any::<u64>(), rate in 0.001f64..10.0) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = rng.exponential(rate);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    /// Duration arithmetic: (t + d) - t == d for all t, d.
    #[test]
    fn time_arithmetic_roundtrips(t in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
        let t0 = SimTime::from_secs(t);
        let dur = SimDuration::from_secs(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!((t0 + dur) - dur, t0);
    }
}
