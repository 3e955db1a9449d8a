//! Trace-layer invariants and reconciliation: the decision trace must be
//! internally consistent (contiguous sequence numbers, monotone sim-time,
//! interruptions always answered by a migration decision), purely
//! observational (tracing on/off changes no report field), and totals
//! recounted from its records must agree exactly with the counters the
//! report keeps independently.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region};
use proptest::prelude::*;
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    merged_trace_jsonl, run_experiment, run_fleet_on, run_matrix, BreakerState, DeadlinePolicy,
    DecisionKind, FleetConfig, InitialPlacement, MarketCache, MetricAvailability, MigrationPolicy,
    RunTrace, SpotVerseConfig, SpotVerseStrategy, SweepCell, TraceEvent,
};
use spotverse_integration::{fleet_config, run_with, spotverse_strategy, traced_config};

use std::sync::Arc;

fn traced_run(
    kind: WorkloadKind,
    n: usize,
    seed: u64,
    scenario: Option<chaos::ChaosScenario>,
) -> (RunTrace, spotverse::ExperimentReport) {
    let mut config = traced_config(kind, n, seed);
    config.chaos = scenario;
    let mut report = run_experiment(config, spotverse_strategy());
    let trace = report.trace.take().expect("tracing was enabled");
    (trace, report)
}

/// Sequence numbers are contiguous from zero and sim-time never runs
/// backwards, under every shipped chaos scenario.
#[test]
fn trace_is_contiguous_and_time_monotone() {
    let scenarios = std::iter::once(None).chain(chaos::library().into_iter().map(Some));
    for scenario in scenarios {
        let label = scenario.as_ref().map_or("fault-free", |s| s.name()).to_owned();
        let (trace, _) = traced_run(WorkloadKind::NgsPreprocessing, 4, 7, scenario);
        assert_eq!(trace.dropped, 0, "{label}: nothing truncated at this size");
        for (i, record) in trace.events.iter().enumerate() {
            assert_eq!(record.seq, i as u64, "{label}: seq contiguous from 0");
        }
        for pair in trace.events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "{label}: sim-time must be monotone");
        }
        assert!(matches!(trace.events.first().unwrap().event, TraceEvent::RunStarted { .. }));
        assert!(matches!(trace.events.last().unwrap().event, TraceEvent::RunEnded { .. }));
    }
}

/// Every interruption is answered: the next trace event that concerns the
/// interrupted workload's placement is a migration decision, never a
/// bare relaunch or completion.
#[test]
fn every_interruption_is_followed_by_a_migration_decision() {
    let scenarios = std::iter::once(None).chain(chaos::library().into_iter().map(Some));
    for scenario in scenarios {
        let label = scenario.as_ref().map_or("fault-free", |s| s.name()).to_owned();
        let (trace, _) = traced_run(WorkloadKind::GenomeReconstruction, 6, 11, scenario);
        for (i, record) in trace.events.iter().enumerate() {
            let TraceEvent::Interrupted { workload, .. } = record.event else {
                continue;
            };
            let next = trace.events[i + 1..].iter().find(|r| match &r.event {
                TraceEvent::Decision { workload: w, .. } => *w == Some(workload),
                TraceEvent::Launched { workload: w, .. }
                | TraceEvent::Completed { workload: w, .. } => *w == workload,
                _ => false,
            });
            match next {
                Some(r) => assert!(
                    matches!(
                        r.event,
                        TraceEvent::Decision { kind: DecisionKind::Migration, .. }
                    ),
                    "{label}: interruption of workload {workload} at seq {} answered by {:?}",
                    record.seq,
                    r.event,
                ),
                None => panic!(
                    "{label}: interruption of workload {workload} at seq {} never answered",
                    record.seq
                ),
            }
        }
    }
}

/// Tracing is purely observational under faults too: a traced run and an
/// untraced run of the same faulted configuration produce identical
/// reports once the trace itself is set aside. Plain SpotVerse runs a
/// classic fleet under every library scenario; then every other SpotVerse
/// variant (the three providers, forecasting, the deadline guard, the two
/// non-default ablations and a single-region start) runs a staggered fleet
/// capped at one instance per region under the next library scenario
/// (the library repeats if it is shorter than the variant list), so the
/// candidate audit a traced decision fills changes no placement, RNG draw
/// or report field.
#[test]
fn tracing_toggle_changes_no_report_field_under_chaos() {
    for scenario in chaos::library() {
        let name = scenario.name().to_owned();
        let base = fleet_config(WorkloadKind::NgsPreprocessing, 5, 7);
        let market = Arc::new(cloud_market::SpotMarket::new(base.market));
        let plain = run_with(&market, &base, Some(scenario.clone()), spotverse_strategy());
        let mut traced_cfg = base;
        traced_cfg.trace = spotverse::TraceConfig::enabled();
        traced_cfg.chaos = Some(scenario);
        let mut traced =
            spotverse::run_experiment_on(market, traced_cfg, spotverse_strategy());
        assert!(traced.trace.take().is_some(), "{name}: trace recorded");
        assert_eq!(plain, traced, "{name}: tracing must not perturb the run");
    }
    let rng = SimRng::seed_from_u64(7);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 8, &rng);
    let mut fleet =
        FleetConfig::staggered(7, InstanceType::M5Xlarge, specs, SimDuration::from_mins(10));
    fleet.region_capacity = Some(1);
    let market = Arc::new(cloud_market::SpotMarket::new(fleet.market));
    let scenarios = chaos::library().into_iter().cycle();
    for (strategy, scenario) in spotverse_variants(fleet.start).into_iter().zip(scenarios) {
        let mut config = fleet.clone();
        config.chaos = Some(scenario);
        let plain = run_fleet_on(Arc::clone(&market), config.clone(), Box::new(strategy.clone()));
        config.trace = spotverse::TraceConfig::enabled();
        let mut traced = run_fleet_on(Arc::clone(&market), config, Box::new(strategy));
        let name = &traced.aggregate.strategy;
        assert!(traced.aggregate.trace.take().is_some(), "{name}: trace recorded");
        assert_eq!(plain, traced, "{name}: tracing must not perturb the run");
    }
}

/// Every SpotVerse variant but the plain one, each as a distinct strategy:
/// the three providers, forecasting, a deadline guard whose slack runs
/// out mid-run, the `StayPut` and `CheapestQualifying` ablations and a
/// single-region start.
fn spotverse_variants(start: SimTime) -> Vec<SpotVerseStrategy> {
    let config = SpotVerseConfig::paper_default(InstanceType::M5Xlarge);
    let provider = |availability| SpotVerseStrategy::on_provider(config.clone(), availability);
    let deadline = DeadlinePolicy {
        deadline: start + SimDuration::from_hours(12),
        workload_duration: SimDuration::from_hours(4),
        safety_factor: 1.1,
    };
    let single = SpotVerseConfig::builder(InstanceType::M5Xlarge)
        .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
        .build();
    vec![
        provider(MetricAvailability::Full),
        provider(MetricAvailability::InterruptionOnly),
        provider(MetricAvailability::PriceOnly),
        SpotVerseStrategy::forecasting(config.clone()),
        SpotVerseStrategy::with_deadline(config.clone(), deadline),
        SpotVerseStrategy::ablated(config.clone(), MigrationPolicy::StayPut),
        SpotVerseStrategy::ablated(config, MigrationPolicy::CheapestQualifying),
        SpotVerseStrategy::new(single),
    ]
}

/// The jobs-invariance contract extends to the merged sweep trace: the
/// canonical JSONL document is byte-identical for any worker count.
#[test]
fn merged_sweep_trace_is_jobs_invariant() {
    let scenarios: Vec<Option<chaos::ChaosScenario>> = std::iter::once(None)
        .chain(chaos::library().into_iter().map(Some))
        .collect();
    let cells: Vec<SweepCell> = scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let mut config = traced_config(WorkloadKind::NgsPreprocessing, 3, 404);
            config.chaos = scenario.clone();
            SweepCell::new(format!("cell-{i}"), "spotverse", config)
        })
        .collect();
    let run = |jobs: usize| {
        let cache = MarketCache::new();
        let outcomes = run_matrix(&cells, jobs, &cache, |_| spotverse_strategy());
        merged_trace_jsonl(&outcomes)
    };
    let serial = run(1);
    assert!(!serial.is_empty());
    assert!(serial.starts_with("{\"cell\":\"cell-0\""));
    for jobs in [2, 4] {
        assert_eq!(run(jobs), serial, "jobs={jobs} must merge byte-identically");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Trace-derived totals reconcile exactly with the report's own
    /// counters — launches, interruptions, checkpoint writes/tears,
    /// breaker trips, staleness telemetry, degraded hours, and (for fully
    /// completed runs) the billed instance cost.
    #[test]
    fn trace_totals_reconcile_with_report(
        seed in 0u64..500,
        n in 2usize..5,
        scenario_idx in 0usize..8,
    ) {
        let lib = chaos::library();
        let scenario = if scenario_idx == 0 {
            None
        } else {
            Some(lib[(scenario_idx - 1) % lib.len()].clone())
        };
        let (trace, report) = traced_run(WorkloadKind::NgsPreprocessing, n, seed, scenario);
        prop_assert_eq!(trace.dropped, 0, "counts below assume an untruncated trace");

        let count = |pred: fn(&TraceEvent) -> bool| trace.count_matching(pred);
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::Interrupted { .. })),
            report.interruptions
        );
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::Launched { .. })),
            report.launches_by_region.values().sum::<u64>()
        );
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::Completed { .. })) as usize,
            report.completed
        );
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::Breaker { to: BreakerState::Open, .. })),
            report.resilience.breaker_trips
        );
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::StaleServe { .. })),
            report.resilience.freshness.stale_serves
        );
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::CheckpointSave { .. })),
            report.checkpoints.writes
        );
        prop_assert_eq!(
            count(|e| matches!(e, TraceEvent::CheckpointTorn { .. })),
            report.checkpoints.torn_writes
        );
        let degraded_secs: u64 = trace
            .events
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::DegradedInterval { duration } => Some(duration.as_secs()),
                _ => None,
            })
            .sum();
        prop_assert_eq!(
            degraded_secs,
            report.resilience.freshness.degraded_time.as_secs()
        );

        // For a fully completed run every launched instance was billed at
        // an Interrupted or Completed event, so the trace's billed total
        // is the report's instance cost.
        if report.completed == report.workloads {
            let billed: f64 = trace
                .events
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::Interrupted { billed, .. }
                    | TraceEvent::Completed { billed, .. } => Some(billed),
                    _ => None,
                })
                .sum();
            let instances = report.cost.spot_instances.amount()
                + report.cost.on_demand_instances.amount();
            prop_assert!(
                (billed - instances).abs() <= 1e-6 * instances.max(1.0),
                "billed {} != instance cost {}", billed, instances
            );
        }
    }
}
