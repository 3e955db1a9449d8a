//! Fleet ⇄ experiment equivalence: the purity contract behind the
//! controller decomposition.
//!
//! The fleet event loop is the engine under `run_experiment`, so a
//! degenerate fleet of one workload — built *field by field*, not through
//! `FleetConfig::from_experiment` — must reproduce the classic
//! single-controller report and decision trace byte-for-byte, for
//! arbitrary seeds and strategies. The remaining tests pin down the
//! fleet-only semantics: staggered-arrival determinism, per-region
//! capacity caps, and per-workload deadline expiry.

use proptest::prelude::*;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region};
use sim_kernel::{SimDuration, SimRng};
use spotverse::{
    run_experiment, run_fleet, trace_to_jsonl, ExperimentConfig, FleetConfig, FleetWorkload,
    NaiveMultiRegionStrategy, OnDemandStrategy, SingleRegionStrategy, SkyPilotStrategy,
    SpotVerseConfig, SpotVerseStrategy, Strategy, TraceConfig, WorkloadPhase,
};

/// One strategy per paper baseline, keyed by index so proptest can draw it.
fn strategy(idx: usize) -> Box<dyn Strategy> {
    match idx % 5 {
        0 => Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
        1 => Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        2 => Box::new(OnDemandStrategy::new()),
        3 => Box::new(SkyPilotStrategy::new()),
        _ => Box::new(NaiveMultiRegionStrategy::paper_motivational()),
    }
}

/// The fleet-of-one equivalent of an experiment, spelled out field by
/// field: if a knob were missing or defaulted differently the proptest
/// below would catch the divergence.
fn fleet_of_one(config: &ExperimentConfig) -> FleetConfig {
    FleetConfig {
        seed: config.seed,
        market: config.market,
        instance_type: config.instance_type,
        workloads: vec![FleetWorkload {
            spec: config.workloads[0].clone(),
            arrival: SimDuration::ZERO,
            tenant: None,
            priority: spotverse::Priority::Standard,
        }],
        start: config.start,
        max_runtime: config.max_runtime,
        checkpoint_backend: config.checkpoint_backend,
        chaos: config.chaos.clone(),
        trace: config.trace,
        region_capacity: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A fleet of N=1 *is* the experiment: identical report (every field,
    /// including the cost ledger and telemetry) and byte-identical
    /// canonical JSONL trace, for arbitrary seeds, kinds, and strategies.
    #[test]
    fn fleet_of_one_reproduces_the_experiment(
        seed in 0u64..500,
        kind_idx in 0usize..3,
        strat_idx in 0usize..5,
    ) {
        let kind = WorkloadKind::ALL[kind_idx];
        let rng = SimRng::seed_from_u64(seed);
        let mut config =
            ExperimentConfig::new(seed, InstanceType::M5Xlarge, paper_fleet(kind, 1, &rng));
        config.trace = TraceConfig::enabled();
        let expected = run_experiment(config.clone(), strategy(strat_idx));
        let fleet = run_fleet(fleet_of_one(&config), strategy(strat_idx));

        prop_assert_eq!(&fleet.aggregate, &expected, "aggregate report must match");
        let fleet_trace = trace_to_jsonl(fleet.aggregate.trace.as_ref().expect("traced"));
        let experiment_trace = trace_to_jsonl(expected.trace.as_ref().expect("traced"));
        prop_assert_eq!(fleet_trace, experiment_trace, "traces must be byte-identical");

        // Fleet-only machinery must never engage on the degenerate path.
        prop_assert_eq!(fleet.capacity_deferrals, 0);
        prop_assert_eq!(fleet.expired, 0);
        prop_assert_eq!(fleet.workloads.len(), 1);
        let w = &fleet.workloads[0];
        prop_assert_eq!(w.completed, expected.completed == 1);
        prop_assert_eq!(w.interruptions, expected.interruptions);
    }
}

#[test]
fn staggered_capacity_capped_fleet_is_deterministic() {
    let build = || {
        let rng = SimRng::seed_from_u64(404);
        let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng);
        let mut config = FleetConfig::staggered(
            404,
            InstanceType::M5Xlarge,
            specs,
            SimDuration::from_hours(2),
        );
        config.region_capacity = Some(1);
        run_fleet(config, strategy(0))
    };
    let a = build();
    let b = build();
    assert_eq!(a, b, "same seed must replay bit-identically");
    assert_eq!(a.aggregate.workloads, 4);
    assert_eq!(a.aggregate.completed + a.expired, 4, "every workload settles");
    // Per-workload billing decomposes the instance spend: the sum of the
    // workload ledgers equals spot + on-demand cost in the aggregate.
    let billed: f64 = a.workloads.iter().map(|w| w.billed.amount()).sum();
    let instances = a.aggregate.cost.spot_instances.amount()
        + a.aggregate.cost.on_demand_instances.amount();
    assert!(
        (billed - instances).abs() < 1e-6,
        "workload ledgers {billed} must sum to instance spend {instances}"
    );
    // Arrivals really are staggered two hours apart.
    for (i, w) in a.workloads.iter().enumerate() {
        assert_eq!(
            w.arrival,
            a.workloads[0].arrival + SimDuration::from_hours(2) * i as u64,
            "workload {i} arrival"
        );
    }
}

#[test]
fn capacity_cap_defers_and_excludes_full_regions() {
    // Four workloads arriving together under a single-region strategy with
    // a cap of one: only one can run at a time, so the cap must defer or
    // re-place the rest rather than oversubscribe the region.
    let rng = SimRng::seed_from_u64(7);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng);
    let mut config =
        FleetConfig::staggered(7, InstanceType::M5Xlarge, specs, SimDuration::ZERO);
    config.region_capacity = Some(1);
    let report = run_fleet(config, strategy(1));
    assert_eq!(report.aggregate.completed + report.expired, 4);
    // A cap of one with four simultaneous arrivals cannot place everyone
    // immediately; the overflow shows up as deferrals.
    assert!(
        report.capacity_deferrals > 0,
        "expected capacity deferrals, got {}",
        report.capacity_deferrals
    );
}

#[test]
fn deadlines_expire_unfinished_workloads() {
    // Paper workloads run 10–11 hours; a one-hour budget can never finish.
    // The two earlier arrivals hit per-workload `Expire` events; the last
    // workload's deadline *is* the global horizon, so it ends through the
    // same abort path a classic experiment takes at `max_runtime` instead
    // of an expiry of its own.
    let rng = SimRng::seed_from_u64(11);
    let specs = paper_fleet(WorkloadKind::GenomeReconstruction, 3, &rng);
    let mut config =
        FleetConfig::staggered(11, InstanceType::M5Xlarge, specs, SimDuration::from_hours(1));
    config.max_runtime = SimDuration::from_hours(1);
    let report = run_fleet(config, strategy(0));
    assert_eq!(report.expired, 2, "both pre-horizon deadlines must expire");
    assert_eq!(report.aggregate.completed, 0);
    for w in &report.workloads[..2] {
        assert_eq!(w.phase, WorkloadPhase::Expired);
        assert!(w.expired && !w.completed);
        assert_eq!(w.completion_time, None);
    }
    let last = &report.workloads[2];
    assert!(!last.completed && !last.expired, "the horizon workload aborts instead");
}
