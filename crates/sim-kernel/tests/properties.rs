//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use sim_kernel::{percentile, EventQueue, RunningStats, SimDuration, SimRng, SimTime, TimeSeries};

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

    /// Percentiles are monotone in `p` and bracketed by min/max.
    #[test]
    fn percentile_is_monotone_and_bounded(values in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let p25 = percentile(&values, 25.0).unwrap();
        let p50 = percentile(&values, 50.0).unwrap();
        let p75 = percentile(&values, 75.0).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 <= p50 && p50 <= p75);
        prop_assert!(lo <= p25 && p75 <= hi);
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
