//! Replay-vs-live reconciliation: every `analyse` view rebuilt from the
//! trace alone must equal the corresponding figures the live run
//! reported — billed cost, makespan, launches, interruptions, breaker
//! trips, staleness, checkpoint overhead, fleet occupancy counts, and
//! orchestration shard accounting. The trace is the system of record;
//! any divergence here means a figure exists that replay cannot
//! reproduce.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Usd};
use proptest::prelude::*;
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::replay::strategy_distributions;
use spotverse::{
    merged_trace_jsonl, replay_str, run_fleet, run_matrix, run_matrix_orchestrated,
    trace_to_jsonl, CellState, ExperimentReport, FleetConfig, MarketCache, OrchestratorConfig,
    SweepCell, TimeWindow, TraceConfig, TraceEvent, WorkloadPhase,
};
use spotverse_integration::{spotverse_strategy, spotverse_with_threshold, traced_config};

fn replay_single(doc: &str) -> CellState {
    let state = replay_str(doc, TimeWindow::ALL).expect("trace parses");
    assert_eq!(state.cells.len(), 1, "single-run trace folds into one cell");
    state.cells[0].1.clone()
}

fn assert_reconciles(cell: &CellState, report: &ExperimentReport, label: &str) {
    let s = &cell.summary;
    assert_eq!(s.strategy.as_deref(), Some(report.strategy.as_str()), "{label}: strategy");
    assert_eq!(s.workloads, Some(report.workloads), "{label}: fleet size");
    assert_eq!(s.completed, report.completed, "{label}: completions");
    if report.completed > 0 {
        assert_eq!(
            s.makespan_secs(),
            Some(report.makespan.as_secs()),
            "{label}: makespan from trace equals the report's"
        );
    }

    // Cost ledger == billed instance cost, per region and in total.
    let ledger_launches: u64 = cell
        .ledger
        .active()
        .map(|(_, l)| l.spot_launches + l.on_demand_launches)
        .sum();
    assert_eq!(
        ledger_launches,
        report.launches_by_region.values().sum::<u64>(),
        "{label}: total launches"
    );
    for (region, l) in cell.ledger.active() {
        assert_eq!(
            l.spot_launches + l.on_demand_launches,
            report.launches_by_region.get(&region).copied().unwrap_or(0),
            "{label}: launches in {region}"
        );
        assert_eq!(
            l.interruptions,
            report.interruptions_by_region.get(&region).copied().unwrap_or(0),
            "{label}: interruptions in {region}"
        );
    }
    let intr: u64 = cell.ledger.active().map(|(_, l)| l.interruptions).sum();
    assert_eq!(intr, report.interruptions, "{label}: interruptions");
    if report.completed == report.workloads {
        let billed = (report.cost.spot_instances + report.cost.on_demand_instances).amount();
        assert!(
            (cell.ledger.billed_total() - billed).abs() < 1e-6,
            "{label}: cost ledger ({}) equals billed instance cost ({billed})",
            cell.ledger.billed_total(),
        );
    }

    // Breaker timeline == trip counts.
    assert_eq!(
        cell.breakers.total_trips(),
        report.resilience.breaker_trips,
        "{label}: breaker trips"
    );

    // Freshness and degradation counters.
    let rs = &cell.resilience;
    assert_eq!(rs.stale_serves, report.resilience.freshness.stale_serves, "{label}: stale serves");
    assert_eq!(
        rs.degraded_seconds,
        report.resilience.freshness.degraded_time.as_secs(),
        "{label}: degraded seconds"
    );

    // Checkpoint overhead accounting.
    assert_eq!(cell.checkpoints.saves, report.checkpoints.writes, "{label}: checkpoint writes");
    assert_eq!(cell.checkpoints.torn, report.checkpoints.torn_writes, "{label}: torn writes");
    assert_eq!(
        cell.checkpoints.scratch_restores,
        report.checkpoints.scratch_restarts,
        "{label}: scratch restarts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary seeds × fleet sizes × chaos scenarios, the replayed
    /// views equal the live `ExperimentReport` figures.
    #[test]
    fn replay_views_equal_live_experiment_report(
        seed in 0u64..500,
        n in 2usize..5,
        scenario_idx in 0usize..9,
    ) {
        let lib = chaos::library();
        let scenario = if scenario_idx == 0 {
            None
        } else {
            Some(lib[(scenario_idx - 1) % lib.len()].clone())
        };
        let label = scenario.as_ref().map_or("fault-free", |s| s.name()).to_owned();
        let mut config = traced_config(WorkloadKind::NgsPreprocessing, n, seed);
        config.chaos = scenario;
        let report = spotverse::run_experiment(config, spotverse_strategy());
        let doc = trace_to_jsonl(report.trace.as_ref().expect("tracing enabled"));
        let cell = replay_single(&doc);
        assert_reconciles(&cell, &report, &format!("seed {seed} n {n} {label}"));
    }
}

/// Fleet traces reconcile too: occupancy counts equal the fleet report's
/// workload accounting (arrivals, expirations, capacity deferrals), on
/// top of the experiment-level figures of the aggregate report.
#[test]
fn replay_views_equal_live_fleet_report() {
    for (seed, capacity, runtime_h) in [(11u64, Some(1u32), 720u64), (12, None, 2)] {
        let rng = SimRng::seed_from_u64(seed);
        let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng);
        let mut config = FleetConfig::staggered(
            seed,
            InstanceType::M5Xlarge,
            specs,
            SimDuration::from_hours(2),
        );
        config.region_capacity = capacity;
        config.max_runtime = SimDuration::from_hours(runtime_h);
        config.trace = TraceConfig::enabled();
        let report = run_fleet(config, spotverse_strategy());
        let doc = trace_to_jsonl(report.aggregate.trace.as_ref().expect("tracing enabled"));
        let cell = replay_single(&doc);
        let label = format!("fleet seed {seed}");

        assert_eq!(
            cell.occupancy.arrived as usize, report.aggregate.workloads,
            "{label}: occupancy arrivals equal the fleet size"
        );
        assert_eq!(
            cell.occupancy.late_arrivals, 3,
            "{label}: every workload after the first arrives in a staggered batch"
        );
        assert_eq!(
            cell.occupancy.expired as usize, report.expired,
            "{label}: occupancy expirations equal the report's"
        );
        assert_eq!(
            cell.occupancy.deferred, report.capacity_deferrals,
            "{label}: capacity deferrals"
        );
        assert_eq!(cell.summary.completed, report.aggregate.completed, "{label}: completions");
        assert!(cell.occupancy.peak >= 1, "{label}: something ran");
        if let Some(cap) = capacity {
            // Peak concurrency is bounded by cap × regions-in-use.
            let regions_used = cell.ledger.active().count() as i64;
            assert!(
                cell.occupancy.peak <= i64::from(cap) * regions_used,
                "{label}: peak {} exceeds cap {cap} × {regions_used} regions",
                cell.occupancy.peak,
            );
        }
        assert_reconciles(&cell, &report.aggregate, &label);
    }
}

/// A fleet whose deadlines run past the market horizon stops there, and
/// every workload still open expires at the horizon: the one running
/// there is terminated and billed, the ones not yet arrived expire with
/// no instance. Every workload ends exactly once, and the billed dollars
/// agree across the workload rows, the billing ledger and the replay.
#[test]
fn a_fleet_stopped_at_the_market_horizon_settles_and_bills_every_workload() {
    let seed = 21;
    let rng = SimRng::seed_from_u64(seed);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng);
    let mut config =
        FleetConfig::staggered(seed, InstanceType::M5Xlarge, specs, SimDuration::from_hours(2));
    // Arrivals at 209d22h, 210d00h, 210d02h, 210d04h: only the first
    // arrives before the 210-day horizon, with hours of work left there.
    config.start = SimTime::from_days(209) + SimDuration::from_hours(22);
    config.trace = TraceConfig::enabled();
    let report = run_fleet(config, spotverse_strategy());

    assert_eq!(report.aggregate.completed, 0);
    assert_eq!(report.expired, 4, "every workload expires at the horizon");
    assert!(report.workloads.iter().all(|w| w.phase == WorkloadPhase::Expired));
    let running_at_horizon = &report.workloads[0];
    assert!(running_at_horizon.launches >= 1 && running_at_horizon.billed > Usd::ZERO);
    assert!(report.workloads[1..].iter().all(|w| w.launches == 0 && w.billed == Usd::ZERO));

    let rows: f64 = report.workloads.iter().map(|w| w.billed.amount()).sum();
    let ledger = (report.aggregate.cost.spot_instances
        + report.aggregate.cost.on_demand_instances)
        .amount();
    assert!((rows - ledger).abs() < 1e-9, "rows {rows} vs ledger {ledger}");

    // The first event at or past the horizon stops the run: it is counted
    // with the events delivered before it, and its instant (the second
    // arrival, at 210d00h) stamps the end of the run.
    assert_eq!(report.events, 11);
    let trace = report.aggregate.trace.as_ref().expect("tracing enabled");
    let ended = trace
        .events
        .iter()
        .find(|r| matches!(r.event, TraceEvent::RunEnded { .. }))
        .expect("the run records its end");
    assert_eq!(ended.at, SimTime::from_days(210));
    assert_eq!(ended.event, TraceEvent::RunEnded { completed: 0, aborted: true });

    let doc = trace_to_jsonl(trace);
    let cell = replay_single(&doc);
    assert_eq!(cell.occupancy.expired as usize, report.expired);
    assert!(
        (cell.ledger.billed_total() - ledger).abs() < 1e-9,
        "replay {} vs ledger {ledger}",
        cell.ledger.billed_total()
    );
}

/// Merged sweep traces reconcile cell by cell, and the distribution layer
/// groups them faithfully: one sample per cell, costs equal to each
/// cell's own report.
#[test]
fn replay_reconciles_merged_sweep_and_distributions() {
    let thresholds = [4u8, 6];
    let seeds = [200u64, 201];
    let cells: Vec<SweepCell> = thresholds
        .iter()
        .flat_map(|&t| {
            seeds.iter().map(move |&seed| {
                let config = traced_config(WorkloadKind::NgsPreprocessing, 3, seed);
                SweepCell::new(format!("t{t}/s{seed}"), format!("spotverse-t{t}"), config)
            })
        })
        .collect();
    let cache = MarketCache::new();
    let outcomes = run_matrix(&cells, 2, &cache, |cell| {
        let t = if cell.label.starts_with("t4") { 4 } else { 6 };
        spotverse_with_threshold(t)
    });
    let merged = merged_trace_jsonl(&outcomes);
    let state = replay_str(&merged, TimeWindow::ALL).expect("merged trace parses");
    assert_eq!(state.cells.len(), cells.len(), "one folded cell per sweep cell");
    for ((key, cell), outcome) in state.cells.iter().zip(&outcomes) {
        assert_eq!(key, &outcome.label);
        let report = outcome.report().expect("cell succeeded");
        assert_reconciles(cell, report, key);
    }
    let dists = strategy_distributions(&state);
    assert_eq!(dists.len(), 1, "every cell ran the same strategy display name");
    assert_eq!(dists[0].cells, cells.len());
    let cost = dists[0].cost.as_ref().expect("cost distribution present");
    assert_eq!(cost.count, cells.len());
    assert!(cost.min <= cost.p50 && cost.p50 <= cost.p90);
    assert!(cost.p90 <= cost.p99 && cost.p99 <= cost.max);
}

/// The orchestrator's shard trace reconciles with `OrchestrationStats`:
/// dispatches, re-drives, lease expiries, dead letters, and duplicate
/// completions all match, fault-free and under `sweep_shard_chaos`.
#[test]
fn replay_shard_view_equals_orchestration_stats() {
    let cells: Vec<SweepCell> = (0..4)
        .map(|i| {
            let config = traced_config(WorkloadKind::NgsPreprocessing, 2, 400 + i as u64);
            SweepCell::new(format!("cell-{i}"), "spotverse", config)
        })
        .collect();
    let cache = MarketCache::new();
    for (seed, scenario) in [(1u64, None), (3, Some(chaos::sweep_shard_chaos()))] {
        let config = OrchestratorConfig {
            seed,
            shard_size: 2,
            max_attempts: 2,
            chaos: scenario.clone(),
            trace: TraceConfig::enabled(),
        };
        let report = run_matrix_orchestrated(&cells, &config, &cache, |_| spotverse_strategy());
        let doc = trace_to_jsonl(report.trace.as_ref().expect("tracing enabled"));
        let cell = replay_single(&doc);
        let label = scenario.as_ref().map_or("fault-free", |s| s.name());
        let sh = &cell.shards;
        assert_eq!(sh.dispatches, report.stats.dispatches, "{label}: dispatches");
        assert_eq!(sh.redrives, report.stats.redrives, "{label}: redrives");
        assert_eq!(sh.lease_expiries, report.stats.lease_expiries, "{label}: lease expiries");
        assert_eq!(
            sh.dead_lettered as usize, report.stats.dead_lettered_shards,
            "{label}: dead letters"
        );
        assert_eq!(sh.duplicates, report.stats.duplicate_executions, "{label}: duplicates");
        assert_eq!(
            sh.completions as usize,
            report.stats.completed_shards + sh.duplicates as usize,
            "{label}: completions = completed shards + idempotent re-confirmations"
        );
    }
}
