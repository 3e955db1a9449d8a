//! Allocation gate for one fleet run. Building the market with
//! `SpotMarket::new` and running one `run_fleet_on` call on it over a
//! seeded Poisson loadgen fleet — what a one-cell CLI run pays — costs a
//! fixed number of heap allocations: the market's shared regime schedule
//! and the states of the (region, instance type) pairs the run queries, a
//! few per workload to set it up (its spec, its execution plan, a
//! checkpoint key for the kinds that checkpoint) and a few per event after
//! that. This test counts them exactly and fails when a change makes
//! market construction, set-up or dispatch allocate more, long before a
//! timer would notice.
//!
//! Before set-up stopped building a Galaxy `Workflow` per workload, and
//! before the market, EC2 and arrival batches moved from hash maps and
//! per-batch vectors to flat arrays, the same two runs made 61,804
//! allocations (1,000 workloads, 4,469 events: 61.8 per workload, 13.83
//! per event) and 115,264 (2,000 workloads, 8,928 events: 57.6 per
//! workload, 12.91 per event). After that change the runs made 17,329
//! (3.88 per event) and 28,602 (3.20 per event). The event queue's lanes
//! and heap now reserve one capacity on first use, which took one
//! reallocation off each run (17,328 and 28,601). The Monitor's metric
//! puts then stopped building a metric key and a stored series entry per
//! region per collection, which left 14,289 and 24,398. The
//! per-event figure falls with fleet size because part of the count is a
//! fixed cost per run (market states and segments, control-plane
//! provisioning).
//!
//! The counted span used to start after `SpotMarket::new`, when
//! construction built all 69 offered (region, instance type) states. The
//! market now builds
//! a state on its first query, so the 12 m5.xlarge states this fleet reads
//! are built inside `run_fleet_on`; the span was widened to take in
//! `SpotMarket::new` as well. Over the widened span, the eager-state market
//! made 15,734 and 25,843 allocations; the pins below are the lazy
//! market's.
//!
//! The count is kept per thread, so the test harness's other threads do
//! not disturb it; the file holds one test so nothing else shares the
//! counting allocator's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cloud_market::{InstanceType, MarketRegime, SpotMarket};
use sim_kernel::{SimDuration, SimTime};
use spotverse::{run_fleet_on, LoadProfile, SpotVerseConfig, SpotVerseStrategy};

/// Forwards to [`System`] and counts the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counter never allocates and never
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (so
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout` and that `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SEED: u64 = 2024;
/// Arrivals per hour: the benchmark fleet's density (8,000 per hour for
/// 100,000 workloads) scaled to 1,000 workloads.
const RATE_PER_HOUR: f64 = 80.0;

/// (workloads, events the run must deliver, most allocations allowed).
const PINNED: [(usize, u64, u64); 2] = [(1_000, 4_469, 14_551), (2_000, 8_928, 24_660)];

/// Allocations and events of one `SpotMarket::new` plus `run_fleet_on`;
/// the config and strategy are built before counting starts.
fn count_run(workloads: usize) -> (u64, u64) {
    let mut config = LoadProfile::poisson(RATE_PER_HOUR).generate(
        SEED,
        workloads,
        InstanceType::M5Xlarge,
    );
    config.start = SimTime::from_days(1);
    config.max_runtime = SimDuration::from_days(30);
    config.region_capacity = None;
    config.market = config.market.with_regime(MarketRegime::Baseline);
    let strategy = Box::new(SpotVerseStrategy::new(
        SpotVerseConfig::builder(InstanceType::M5Xlarge).threshold(6).build(),
    ));

    let before = ALLOCS.with(Cell::get);
    let market = Arc::new(SpotMarket::new(config.market));
    let report = run_fleet_on(market, config, strategy);
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(report.aggregate.completed + report.expired, workloads);
    (allocs, report.events)
}

#[test]
fn fleet_allocations_stay_pinned() {
    let mut report = String::new();
    let mut over = Vec::new();
    for (workloads, events, pinned) in PINNED {
        let (allocs, delivered) = count_run(workloads);
        report.push_str(&format!(
            "{workloads} workloads: {allocs} allocations, {delivered} events, \
             {:.1} per workload, {:.2} per event\n",
            allocs as f64 / workloads as f64,
            allocs as f64 / delivered as f64,
        ));
        if delivered != events {
            over.push(format!("{workloads} workloads: {delivered} events, not {events}"));
        } else if allocs > pinned {
            over.push(format!("{workloads} workloads: {allocs} > {pinned}"));
        }
    }
    assert!(
        over.is_empty(),
        "the fleet allocates more than pinned, or the simulation changed: {over:?}\n{report}"
    );
}
