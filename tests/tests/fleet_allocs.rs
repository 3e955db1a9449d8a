//! Allocation gates, counted exactly.
//!
//! - A fleet run: building the market with `SpotMarket::new` and running
//!   one `run_fleet_on` call on it over a seeded Poisson loadgen fleet —
//!   what a one-cell CLI run pays. That is the market's shared regime
//!   schedule and the states of the (region, instance type) pairs the run
//!   queries, a few allocations per workload to set it up (its spec, its
//!   execution plan, a checkpoint key for the kinds that checkpoint) and a
//!   few per event after that.
//! - The one-workload NGS cell an orchestrated sweep runs once per shard,
//!   over the same span. Its count is mostly fixed per-cell cost: market
//!   states and control-plane provisioning.
//! - A warm Monitor's hourly collections. Each bills its 12 KV writes
//!   into the ledger's running totals and stores only a stamp per row in
//!   place, so a day of them allocates nothing; the rows' market reads
//!   wait for a decision.
//!
//! A change that makes market construction, set-up, dispatch or the
//! Monitor→KV pipeline allocate more fails here long before a timer would
//! notice; one that allocates less must re-pin, so no pin goes stale.
//! docs/performance.md records each earlier pin and what moved it.
//!
//! The count is kept per thread, so tests running on other threads do
//! not disturb it, and each test counts only the span it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use aws_stack::{FunctionRuntime, KvStore, MetricsService};
use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_compute::BillingLedger;
use cloud_market::{InstanceType, MarketConfig, MarketRegime, SpotMarket};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    run_fleet_on, CollectOutcome, ExperimentConfig, FleetConfig, LoadProfile, Monitor,
    SpotVerseConfig, SpotVerseStrategy,
};

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

/// (workloads, events the run must deliver, exact allocations).
const PINNED: [(usize, u64, u64); 2] = [(1_000, 4_469, FLEET_1000), (2_000, 8_928, FLEET_2000)];
const FLEET_1000: u64 = 4_885;
const FLEET_2000: u64 = 9_394;
/// Events and exact allocations of the one-workload NGS cell.
const SMALL_CELL: (u64, u64) = (45, 321);
/// Exact allocations of 24 hourly steady-state Monitor collections.
const MONITOR_DAY: u64 = 0;

/// The thread's allocation count across `f`, and what `f` returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn spotverse_strategy() -> Box<SpotVerseStrategy> {
    Box::new(SpotVerseStrategy::new(
        SpotVerseConfig::builder(InstanceType::M5Xlarge).threshold(6).build(),
    ))
}

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
    let strategy = spotverse_strategy();

    let (allocs, report) = counted(|| {
        let market = Arc::new(SpotMarket::new(config.market));
        run_fleet_on(market, config, strategy)
    });
    assert_eq!(report.aggregate.completed + report.expired, workloads);
    (allocs, report.events)
}

#[test]
fn fleet_allocations_stay_pinned() {
    let mut report = String::new();
    let mut drift = Vec::new();
    for (workloads, events, pinned) in PINNED {
        let (allocs, delivered) = count_run(workloads);
        report.push_str(&format!(
            "{workloads} workloads: {allocs} allocations, {delivered} events, \
             {:.1} per workload, {:.2} per event\n",
            allocs as f64 / workloads as f64,
            allocs as f64 / delivered as f64,
        ));
        if delivered != events {
            drift.push(format!("{workloads} workloads: {delivered} events, not {events}"));
        } else if allocs != pinned {
            drift.push(format!("{workloads} workloads: {allocs} allocations, pinned {pinned}"));
        }
    }
    assert!(
        drift.is_empty(),
        "the fleet's allocations or the simulation changed; re-pin an improvement: \
         {drift:?}\n{report}"
    );
}

/// The one-workload NGS cell an orchestrated sweep runs once per shard:
/// `SpotMarket::new` plus the run, on the SpotVerse strategy.
#[test]
fn small_cell_allocations_stay_pinned() {
    let rng = SimRng::seed_from_u64(SEED);
    let mut config = ExperimentConfig::new(
        SEED,
        InstanceType::M5Xlarge,
        paper_fleet(WorkloadKind::NgsPreprocessing, 1, &rng),
    );
    config.market = config.market.with_regime(MarketRegime::Baseline);
    let config = FleetConfig::from_experiment(&config);
    let strategy = spotverse_strategy();

    let (allocs, report) = counted(|| {
        let market = Arc::new(SpotMarket::new(config.market));
        run_fleet_on(market, config, strategy)
    });
    assert_eq!(report.aggregate.completed, 1);
    assert_eq!(
        (report.events, allocs),
        SMALL_CELL,
        "the small cell's (events, allocations) changed; re-pin an improvement"
    );
}

/// A warm Monitor's hourly collection restamps its rows in place and
/// bills into running totals: 24 of them, each fresh, allocate nothing.
#[test]
fn steady_state_monitor_collections_stay_pinned() {
    let market = SpotMarket::new(MarketConfig::with_seed(SEED));
    let mut monitor = Monitor::new(InstanceType::M5Xlarge);
    let mut functions = FunctionRuntime::new();
    let mut kv = KvStore::new();
    monitor.provision(&mut functions, &mut kv);
    let metrics = MetricsService::new();
    let mut ledger = BillingLedger::new();
    let mut collect = |at: SimTime| {
        monitor
            .collect(&market, None, at, &mut functions, &mut kv, &metrics, &mut ledger)
            .expect("collection inside the horizon")
    };
    let start = SimTime::from_days(1);
    // The warm-up allocates the row stamps.
    assert_eq!(collect(start), CollectOutcome::Fresh(12));

    let (allocs, ()) = counted(|| {
        for hour in 1..=24 {
            let at = start + SimDuration::from_hours(hour);
            assert_eq!(collect(at), CollectOutcome::Fresh(12));
        }
    });
    assert!(allocs < 24, "{allocs} allocations: a collection allocates per call or per row");
    assert_eq!(allocs, MONITOR_DAY, "re-pin an improvement");
}
