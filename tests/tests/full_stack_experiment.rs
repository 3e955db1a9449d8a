//! End-to-end integration: strategies against the full simulated cloud
//! stack, checking cross-crate invariants that no single crate can see.

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region, SpotMarket, Usd};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    run_experiment, run_experiment_on, ExperimentConfig, NaiveMultiRegionStrategy,
    OnDemandStrategy, SingleRegionStrategy, SkyPilotStrategy, SpotVerseConfig, SpotVerseStrategy,
    Strategy,
};

fn config(kind: WorkloadKind, n: usize, seed: u64) -> ExperimentConfig {
    let rng = SimRng::seed_from_u64(seed);
    ExperimentConfig::new(seed, InstanceType::M5Xlarge, paper_fleet(kind, n, &rng))
}

#[test]
fn every_strategy_completes_the_fleet() {
    let base = config(WorkloadKind::GenomeReconstruction, 6, 101);
    let market = Arc::new(SpotMarket::new(base.market));
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        Box::new(OnDemandStrategy::new()),
        Box::new(NaiveMultiRegionStrategy::paper_motivational()),
        Box::new(SkyPilotStrategy::new()),
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
    ];
    for strategy in strategies {
        let name = strategy.name().to_owned();
        let report = run_experiment_on(Arc::clone(&market), base.clone(), strategy);
        assert_eq!(report.completed, 6, "{name} left workloads unfinished");
        assert_eq!(report.completion_rate(), 1.0);
        assert!(report.cost.total > Usd::ZERO, "{name} spent nothing");
        assert!(
            report.makespan >= SimDuration::from_hours(10),
            "{name} finished faster than the workload duration"
        );
    }
}

#[test]
fn cost_breakdown_components_sum_to_total() {
    let report = run_experiment(
        config(WorkloadKind::NgsPreprocessing, 5, 102),
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
    );
    let sum = report.cost.spot_instances
        + report.cost.on_demand_instances
        + report.cost.data_transfer
        + report.cost.shared_services;
    assert!(
        (sum.amount() - report.cost.total.amount()).abs() < 1e-9,
        "breakdown {sum:?} != total {:?}",
        report.cost.total
    );
}

#[test]
fn on_demand_is_deterministic_and_interruption_free() {
    let base = config(WorkloadKind::StandardGeneral, 8, 104);
    let a = run_experiment(base.clone(), Box::new(OnDemandStrategy::new()));
    let b = run_experiment(base, Box::new(OnDemandStrategy::new()));
    assert_eq!(a.interruptions, 0);
    assert_eq!(a.cost.total, b.cost.total);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.cost.spot_instances, Usd::ZERO);
    // Exactly one launch per workload.
    let launches: u64 = a.launches_by_region.values().sum();
    assert_eq!(launches, 8);
}

#[test]
fn spot_attempts_dominate_fulfillments() {
    let report = run_experiment(
        config(WorkloadKind::GenomeReconstruction, 6, 105),
        Box::new(SingleRegionStrategy::new(Region::UsEast1)),
    );
    assert!(report.spot_attempts >= report.spot_fulfillments);
    // Every interruption implies a relaunch, so fulfillments strictly
    // exceed the fleet size whenever interruptions occurred.
    if report.interruptions > 0 {
        assert!(report.spot_fulfillments > 6);
    }
}

#[test]
fn deadline_guard_reports_incomplete_fleets() {
    let mut base = config(WorkloadKind::GenomeReconstruction, 4, 106);
    base.max_runtime = SimDuration::from_hours(2); // impossible: workloads need 10 h
    let report = run_experiment(
        base,
        Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
    );
    assert_eq!(report.completed, 0, "nothing can finish inside 2 h");
    assert!(report.completion_rate() < 1.0);
}

#[test]
fn experiments_starting_later_in_horizon_work() {
    let mut base = config(WorkloadKind::GenomeReconstruction, 4, 107);
    base.start = SimTime::from_days(150);
    let report = run_experiment(
        base,
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
    );
    assert_eq!(report.completed, 4);
}

#[test]
fn p3_fleet_respects_regional_availability() {
    let rng = SimRng::seed_from_u64(108);
    let config = ExperimentConfig::new(
        108,
        InstanceType::P32xlarge,
        paper_fleet(WorkloadKind::StandardGeneral, 4, &rng),
    );
    let report = run_experiment(
        config,
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::P32xlarge,
        ))),
    );
    assert_eq!(report.completed, 4);
    for region in report.launches_by_region.keys() {
        assert!(
            !matches!(
                region,
                Region::ApNortheast3 | Region::EuWest3 | Region::EuNorth1
            ),
            "p3 launched in a region that does not offer it: {region}"
        );
    }
}
