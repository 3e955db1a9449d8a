//! [`TimedStrategy`]: a strategy wrapper that records how often the event
//! loop calls into the strategy/optimizer layer, how long those calls take
//! and how many allocations they make.
//!
//! Only the traced run wraps strategies. The wrapper delegates every
//! `Strategy` method unchanged, so a wrapped run must produce a report
//! equal to the unwrapped one; the benchmark checks that on every traced
//! operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cloud_market::Region;
use sim_kernel::SimDuration;
use spotverse::{CandidateVerdict, Placement, RegionAssessment, Strategy, StrategyContext};

use crate::alloc;

/// Running totals over every wrapped strategy call.
#[derive(Debug)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    allocs: AtomicU64,
}

/// A point-in-time copy of [`CallStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Strategy method calls.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub nanos: u64,
    /// Allocations made inside them.
    pub allocs: u64,
}

impl CallTotals {
    /// The totals accrued since `earlier`.
    pub fn since(self, earlier: CallTotals) -> CallTotals {
        CallTotals {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
            allocs: self.allocs - earlier.allocs,
        }
    }
}

/// The totals for every [`TimedStrategy`] in the process. Counters only:
/// they publish no other data, so relaxed ordering suffices.
pub static STRATEGY_CALLS: CallStats = CallStats {
    calls: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

impl CallStats {
    /// The current totals.
    pub fn totals(&self) -> CallTotals {
        CallTotals {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }

    fn measure<T>(&self, call: impl FnOnce() -> T) -> T {
        let allocs = alloc::tally().allocs;
        let start = Instant::now();
        let out = call();
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.allocs
            .fetch_add(alloc::tally().allocs - allocs, Ordering::Relaxed);
        out
    }
}

/// Wraps a strategy and records each call in [`STRATEGY_CALLS`].
#[derive(Debug)]
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
}

impl TimedStrategy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Strategy>) -> Self {
        TimedStrategy { inner }
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &str {
        STRATEGY_CALLS.measure(|| self.inner.name())
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        STRATEGY_CALLS.measure(|| self.inner.initial_placements_into(ctx, n, out));
    }

    fn initial_placements(&mut self, ctx: &mut StrategyContext<'_>, n: usize) -> Vec<Placement> {
        STRATEGY_CALLS.measure(|| self.inner.initial_placements(ctx, n))
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous_region: Region) -> Placement {
        STRATEGY_CALLS.measure(|| self.inner.relocate(ctx, previous_region))
    }

    fn explain_candidates(
        &self,
        assessments: &[RegionAssessment],
        quarantined: &[Region],
        previous: Option<Region>,
    ) -> Option<Vec<CandidateVerdict>> {
        STRATEGY_CALLS.measure(|| {
            self.inner
                .explain_candidates(assessments, quarantined, previous)
        })
    }

    fn checkpoint_interval(&self, ctx: &StrategyContext<'_>) -> Option<SimDuration> {
        STRATEGY_CALLS.measure(|| self.inner.checkpoint_interval(ctx))
    }
}
