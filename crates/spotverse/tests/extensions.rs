//! Integration tests for the extension features: the EFS checkpoint
//! backend, the forecasting strategy, provider-degraded metrics, and
//! ablated migration policies — each run through the full experiment
//! engine — the fleet's exclusion list binding every SpotVerse variant
//! alike, and each decision's candidate audit being the selection it
//! placed from.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region, Usd};
use proptest::prelude::*;
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    run_experiment, run_fleet, CandidateOutcome, CheckpointBackend, DeadlinePolicy, DecisionKind,
    ExperimentConfig, FleetConfig, InitialPlacement, MetricAvailability, MigrationPolicy,
    SingleRegionStrategy, SpotVerseConfig, SpotVerseStrategy, TraceConfig, TraceEvent,
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

/// Twelve genome workloads arriving ten minutes apart under `cap`
/// running instances per region: with a cap, most decisions see
/// capacity-full regions in their exclusion list.
fn capped_fleet(seed: u64, cap: Option<u32>) -> FleetConfig {
    let rng = SimRng::seed_from_u64(seed);
    let specs = paper_fleet(WorkloadKind::GenomeReconstruction, 12, &rng);
    let mut config =
        FleetConfig::staggered(seed, InstanceType::M5Xlarge, specs, SimDuration::from_mins(10));
    config.region_capacity = cap;
    config
}

/// The fleet of [`capped_fleet`] at seed 2024, capped at one.
fn capacity_capped_fleet() -> FleetConfig {
    capped_fleet(2024, Some(1))
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

/// Which of a strategy's decisions place without Algorithm 1's selection.
#[derive(Clone, Copy)]
enum Unselected {
    /// Every decision comes from the selection.
    Never,
    /// Decisions the deadline guard pins to on-demand.
    DeadlinePin(DeadlinePolicy),
    /// The initial placement of a single-region start.
    Initial,
    /// Every migration of the `StayPut` ablation.
    Migrations,
}

impl Unselected {
    fn covers(self, at: SimTime, kind: DecisionKind) -> bool {
        match self {
            Unselected::Never => false,
            Unselected::DeadlinePin(p) => p.must_go_on_demand(at, p.workload_duration),
            Unselected::Initial => kind == DecisionKind::Initial,
            Unselected::Migrations => kind == DecisionKind::Migration,
        }
    }
}

/// Runs every SpotVerse variant, plus the two non-default ablations and a
/// single-region start, on [`capped_fleet`] traced, under `scenario` (an
/// index into `chaos::library()`) and a deadline `slack_hours` after the
/// start. The trace's candidate audit is the selection the decision
/// placed from: (a) a spot placement of a decision that records
/// candidates is one of its `Selected` regions and is not excluded; (b) a
/// decision whose placement did not come from the selection (a deadline
/// pin, a single-region start, a `StayPut` relaunch) records no
/// candidates; (c) every other non-degraded decision records them. Under
/// a cap of one, every strategy must also meet an exclusion, so (a) is
/// seen to check one.
fn check_decision_audit(
    seed: u64,
    threshold: u8,
    cap: Option<u32>,
    scenario: Option<usize>,
    slack_hours: u64,
) -> Result<(), TestCaseError> {
    let mut config = capped_fleet(seed, cap);
    config.chaos = scenario.map(|i| chaos::library()[i].clone());
    config.trace = TraceConfig::enabled();
    let builder = || SpotVerseConfig::builder(InstanceType::M5Xlarge).threshold(threshold);
    let single = builder()
        .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
        .build();
    let cfg = || builder().build();
    let deadline = DeadlinePolicy {
        deadline: config.start + SimDuration::from_hours(slack_hours),
        workload_duration: SimDuration::from_hours(10),
        safety_factor: 1.1,
    };
    let provider = |availability| SpotVerseStrategy::on_provider(cfg(), availability);
    let ablated = |policy| SpotVerseStrategy::ablated(cfg(), policy);
    let strategies = [
        (SpotVerseStrategy::new(cfg()), Unselected::Never),
        (provider(MetricAvailability::Full), Unselected::Never),
        (provider(MetricAvailability::InterruptionOnly), Unselected::Never),
        (provider(MetricAvailability::PriceOnly), Unselected::Never),
        (SpotVerseStrategy::forecasting(cfg()), Unselected::Never),
        (
            SpotVerseStrategy::with_deadline(cfg(), deadline),
            Unselected::DeadlinePin(deadline),
        ),
        (ablated(MigrationPolicy::StayPut), Unselected::Migrations),
        (ablated(MigrationPolicy::CheapestQualifying), Unselected::Never),
        (SpotVerseStrategy::new(single), Unselected::Initial),
    ];
    for (strategy, unselected) in strategies {
        let report = run_fleet(config.clone(), Box::new(strategy));
        let name = &report.aggregate.strategy;
        let trace = report.aggregate.trace.as_ref().expect("traced");
        let mut excluded_decisions = 0;
        for record in &trace.events {
            let TraceEvent::Decision { kind, degraded, quarantined, candidates, placements, .. } =
                &record.event
            else {
                continue;
            };
            let at = record.at;
            excluded_decisions += u32::from(!*degraded && !quarantined.is_empty());
            let Some(candidates) = candidates else {
                // (b) and (c): only a degraded or unselected decision
                // records no candidates.
                prop_assert!(
                    *degraded || unselected.covers(at, *kind),
                    "{name}: a decision at {at:?} placed from the selection records none"
                );
                continue;
            };
            prop_assert!(!*degraded, "{name}: a degraded decision at {at:?} records candidates");
            prop_assert!(
                !unselected.covers(at, *kind),
                "{name}: {placements:?} at {at:?} did not come from the selection, \
                 yet records candidates"
            );
            // (a)
            for p in placements.iter().filter(|p| p.is_spot()) {
                prop_assert!(!quarantined.contains(&p.region()), "{name}: {p:?} is excluded");
                prop_assert!(
                    candidates.iter().any(|c| c.region == p.region()
                        && matches!(c.outcome, CandidateOutcome::Selected { .. })),
                    "{name}: {p:?} is not among the selected candidates"
                );
            }
        }
        if cap == Some(1) {
            prop_assert!(excluded_decisions > 0, "{name}: no decision saw an exclusion");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// [`check_decision_audit`] with a drawn seed, threshold, capacity cap
    /// (none, 1 or 2), chaos scenario (none or one of the library) and
    /// deadline slack.
    #[test]
    fn every_variant_places_spot_only_in_selected_unexcluded_regions(
        seed in 0u64..1_000,
        threshold in 4u8..=7,
        cap in 0u32..3,
        scenario in 0usize..=chaos::library().len(),
        slack_hours in 11u64..=30,
    ) {
        check_decision_audit(
            seed,
            threshold,
            (cap > 0).then_some(cap),
            scenario.checked_sub(1),
            slack_hours,
        )?;
    }
}

/// [`check_decision_audit`] on the fleet where a deadline-pinned
/// on-demand placement was once traced beside Algorithm 1's `Selected`
/// regions: seed 2024, T=6, a cap of one, no chaos and a deadline 16 h
/// after the start.
#[test]
fn a_deadline_pinned_decision_records_no_candidates() {
    check_decision_audit(2024, 6, Some(1), None, 16).unwrap();
}
