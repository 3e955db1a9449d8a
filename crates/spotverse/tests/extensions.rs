//! Integration tests for the extension features: the EFS checkpoint
//! backend, the forecasting strategy, provider-degraded metrics, and
//! ablated migration policies — each run through the full experiment
//! engine — and the fleet's exclusion list binding every SpotVerse
//! variant alike.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region, Usd};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    run_experiment, run_fleet, CandidateOutcome, CheckpointBackend, DeadlinePolicy,
    ExperimentConfig, FleetConfig, MetricAvailability, MigrationPolicy, SingleRegionStrategy,
    SpotVerseConfig, SpotVerseStrategy, TraceConfig, TraceEvent,
};

fn config(kind: WorkloadKind, n: usize, seed: u64, start_day: u64) -> ExperimentConfig {
    let rng = SimRng::seed_from_u64(seed);
    let mut c = ExperimentConfig::new(seed, InstanceType::M5Xlarge, paper_fleet(kind, n, &rng));
    c.start = SimTime::from_days(start_day);
    c
}

#[test]
fn efs_backend_completes_checkpoint_fleets() {
    let mut base = config(WorkloadKind::NgsPreprocessing, 6, 301, 40);
    base.checkpoint_backend = CheckpointBackend::SharedFileSystem;
    let report = run_experiment(
        base,
        Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
    );
    assert_eq!(report.completed, 6);
    // EFS storage accrual shows up in shared services.
    if report.interruptions > 0 {
        assert!(report.cost.shared_services > Usd::ZERO);
    }
}

#[test]
fn efs_and_s3_backends_agree_on_progress_semantics() {
    let mut s3_config = config(WorkloadKind::NgsPreprocessing, 6, 302, 40);
    s3_config.checkpoint_backend = CheckpointBackend::ObjectStore;
    let mut efs_config = s3_config.clone();
    efs_config.checkpoint_backend = CheckpointBackend::SharedFileSystem;
    let s3 = run_experiment(
        s3_config,
        Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
    );
    let efs = run_experiment(
        efs_config,
        Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
    );
    // Identical seeds → identical market and interruption pattern; the
    // backend only changes IO latency and storage fees.
    assert_eq!(s3.interruptions, efs.interruptions);
    assert_eq!(s3.completed, efs.completed);
}

#[test]
fn forecasting_strategy_runs_a_full_fleet() {
    let base = config(WorkloadKind::GenomeReconstruction, 6, 303, 1);
    let report = run_experiment(
        base,
        Box::new(SpotVerseStrategy::forecasting(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
        )),
    );
    assert_eq!(report.completed, 6);
    assert_eq!(report.strategy, "spotverse-forecast");
}

#[test]
fn provider_degraded_strategies_complete_and_rank_sensibly() {
    let base = config(WorkloadKind::GenomeReconstruction, 10, 304, 1);
    let full = run_experiment(
        base.clone(),
        Box::new(SpotVerseStrategy::on_provider(
            SpotVerseConfig::builder(InstanceType::M5Xlarge).threshold(6).build(),
            MetricAvailability::Full,
        )),
    );
    let gcp = run_experiment(
        base,
        Box::new(SpotVerseStrategy::on_provider(
            SpotVerseConfig::builder(InstanceType::M5Xlarge).threshold(7).build(),
            MetricAvailability::PriceOnly,
        )),
    );
    assert_eq!(full.completed, 10);
    assert_eq!(gcp.completed, 10);
    assert!(
        full.interruptions <= gcp.interruptions,
        "full metrics {} should not exceed price-only {}",
        full.interruptions,
        gcp.interruptions
    );
}

#[test]
fn stay_put_ablation_keeps_interruptions_in_one_region() {
    let base = config(WorkloadKind::GenomeReconstruction, 6, 305, 1);
    let mut cfg = SpotVerseConfig::builder(InstanceType::M5Xlarge);
    cfg = cfg.initial_placement(spotverse::InitialPlacement::SingleRegion(Region::CaCentral1));
    let report = run_experiment(
        base,
        Box::new(SpotVerseStrategy::ablated(cfg.build(), MigrationPolicy::StayPut)),
    );
    assert_eq!(report.completed, 6);
    // Every launch and interruption stays in the start region.
    assert!(report
        .launches_by_region
        .keys()
        .all(|r| *r == Region::CaCentral1));
}

#[test]
fn low_placement_market_still_converges_via_retries() {
    // Failure injection: p3.2xlarge has uniform placement mean 4 →
    // fulfill probability 0.55; requests frequently stay open and the
    // 15-minute sweep must carry the fleet to completion anyway.
    let rng = SimRng::seed_from_u64(306);
    let config = ExperimentConfig::new(
        306,
        InstanceType::P32xlarge,
        paper_fleet(WorkloadKind::StandardGeneral, 6, &rng),
    );
    let report = run_experiment(
        config,
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::P32xlarge,
        ))),
    );
    assert_eq!(report.completed, 6);
    assert!(
        report.spot_attempts > report.spot_fulfillments,
        "some requests must have stayed open ({} attempts, {} fulfilled)",
        report.spot_attempts,
        report.spot_fulfillments
    );
}

/// Twelve genome workloads arriving ten minutes apart under a cap of one
/// running instance per region: most decisions see capacity-full regions
/// in their exclusion list.
fn capacity_capped_fleet() -> FleetConfig {
    let rng = SimRng::seed_from_u64(2024);
    let specs = paper_fleet(WorkloadKind::GenomeReconstruction, 12, &rng);
    let mut config = FleetConfig::staggered(
        2024,
        InstanceType::M5Xlarge,
        specs,
        SimDuration::from_mins(10),
    );
    config.region_capacity = Some(1);
    config
}

#[test]
fn provider_full_matches_plain_spotverse_on_a_capacity_capped_fleet() {
    let mut config = capacity_capped_fleet();
    config.trace = TraceConfig::enabled();
    let cfg = SpotVerseConfig::paper_default(InstanceType::M5Xlarge);
    let plain = run_fleet(config.clone(), Box::new(SpotVerseStrategy::new(cfg.clone())));
    let mut aws = run_fleet(
        config,
        Box::new(SpotVerseStrategy::on_provider(cfg, MetricAvailability::Full)),
    );
    assert!(plain.capacity_deferrals > 0, "the cap binds");
    // The name is in the report and in the trace's first record.
    assert_eq!(aws.aggregate.strategy, "spotverse-aws");
    aws.aggregate.strategy = plain.aggregate.strategy.clone();
    let trace = aws.aggregate.trace.as_mut().expect("traced");
    let TraceEvent::RunStarted { strategy, .. } = &mut trace.events[0].event else {
        panic!("a trace opens with RunStarted");
    };
    *strategy = plain.aggregate.strategy.clone();
    assert_eq!(aws, plain);
}

#[test]
fn every_variant_places_spot_only_in_selected_unexcluded_regions() {
    let mut config = capacity_capped_fleet();
    config.trace = TraceConfig::enabled();
    let cfg = |threshold| {
        SpotVerseConfig::builder(InstanceType::M5Xlarge)
            .threshold(threshold)
            .build()
    };
    let deadline = DeadlinePolicy {
        deadline: config.start + SimDuration::from_hours(16),
        workload_duration: SimDuration::from_hours(10),
        safety_factor: 1.1,
    };
    let variants = [
        SpotVerseStrategy::new(cfg(6)),
        SpotVerseStrategy::on_provider(cfg(6), MetricAvailability::Full),
        SpotVerseStrategy::on_provider(cfg(7), MetricAvailability::InterruptionOnly),
        SpotVerseStrategy::on_provider(cfg(7), MetricAvailability::PriceOnly),
        SpotVerseStrategy::forecasting(cfg(6)),
        SpotVerseStrategy::with_deadline(cfg(6), deadline),
    ];
    for strategy in variants {
        let report = run_fleet(config.clone(), Box::new(strategy));
        let name = &report.aggregate.strategy;
        let trace = report.aggregate.trace.as_ref().expect("traced");
        let mut excluded_decisions = 0;
        for record in &trace.events {
            let TraceEvent::Decision { degraded: false, quarantined, candidates, placements, .. } =
                &record.event
            else {
                continue;
            };
            let candidates = candidates.as_ref().expect("every variant explains");
            excluded_decisions += u32::from(!quarantined.is_empty());
            for p in placements.iter().filter(|p| p.is_spot()) {
                assert!(!quarantined.contains(&p.region()), "{name}: {p:?} is excluded");
                assert!(
                    candidates.iter().any(|c| c.region == p.region()
                        && matches!(c.outcome, CandidateOutcome::Selected { .. })),
                    "{name}: {p:?} is not among the selected candidates"
                );
            }
        }
        assert!(excluded_decisions > 0, "{name}: no decision saw an exclusion");
    }
}
