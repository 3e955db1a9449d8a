//! The paper's headline result shapes, asserted at test scale so
//! `cargo test --workspace` continuously validates the reproduction (the
//! full-scale numbers live in the bench harness / EXPERIMENTS.md).

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{cheapest_spot_region_at_start, InstanceType, Region, SpotMarket};
use sim_kernel::{SimRng, SimTime};
use spotverse::{
    compare, run_experiment_on, run_repetitions, ExperimentConfig, InitialPlacement,
    OnDemandStrategy, SingleRegionStrategy, SkyPilotStrategy, SpotVerseConfig, SpotVerseStrategy,
};

fn config(kind: WorkloadKind, n: usize, seed: u64, start_day: u64) -> ExperimentConfig {
    let rng = SimRng::seed_from_u64(seed);
    let mut c = ExperimentConfig::new(seed, InstanceType::M5Xlarge, paper_fleet(kind, n, &rng));
    c.start = SimTime::from_days(start_day);
    c
}

/// Figure 7's headline: SpotVerse beats the single-cheapest-region
/// deployment on interruptions, completion time and cost (mean of 3 reps).
#[test]
fn spotverse_beats_single_region_standard() {
    let base = config(WorkloadKind::GenomeReconstruction, 20, 201, 1);
    let single = run_repetitions(
        &base,
        || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        3,
    );
    let sv = run_repetitions(
        &base,
        || {
            Box::new(SpotVerseStrategy::new(
                SpotVerseConfig::builder(InstanceType::M5Xlarge)
                    .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
                    .build(),
            ))
        },
        3,
    );
    assert!(
        sv.interruptions.mean() < single.interruptions.mean(),
        "interruptions: sv {} vs single {}",
        sv.interruptions.mean(),
        single.interruptions.mean()
    );
    assert!(
        sv.makespan_hours.mean() < single.makespan_hours.mean(),
        "makespan: sv {} vs single {}",
        sv.makespan_hours.mean(),
        single.makespan_hours.mean()
    );
    assert!(
        sv.cost.mean() < single.cost.mean(),
        "cost: sv {} vs single {}",
        sv.cost.mean(),
        single.cost.mean()
    );
}

/// SpotVerse's spot fleets cost well below on-demand (paper: -46.7%).
#[test]
fn spotverse_undercuts_on_demand_substantially() {
    let base = config(WorkloadKind::GenomeReconstruction, 15, 202, 1);
    let market = Arc::new(SpotMarket::new(base.market));
    let od = run_experiment_on(
        Arc::clone(&market),
        base.clone(),
        Box::new(OnDemandStrategy::new()),
    );
    let sv = run_experiment_on(
        market,
        base,
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
    );
    let saving = compare(&od, &sv).cost_reduction_pct;
    assert!(saving > 25.0, "saving only {saving:.1}%");
}

/// Table 4's shape: score-aware SpotVerse beats price-chasing SkyPilot.
#[test]
fn spotverse_beats_skypilot() {
    let base = config(WorkloadKind::StandardGeneral, 20, 203, 1);
    let sky = run_repetitions(&base, || Box::new(SkyPilotStrategy::new()), 3);
    let sv = run_repetitions(
        &base,
        || {
            Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
                InstanceType::M5Xlarge,
            )))
        },
        3,
    );
    assert!(sv.interruptions.mean() < sky.interruptions.mean());
    assert!(sv.makespan_hours.mean() < sky.makespan_hours.mean());
    assert!(sv.cost.mean() < sky.cost.mean());
}

/// Table 1: the calibrated market pins the paper's baseline regions.
#[test]
fn table1_baseline_regions() {
    assert_eq!(
        cheapest_spot_region_at_start(InstanceType::M5Xlarge),
        Region::CaCentral1
    );
    assert_eq!(
        cheapest_spot_region_at_start(InstanceType::M5Large),
        Region::UsWest2
    );
    assert_eq!(
        cheapest_spot_region_at_start(InstanceType::C52xlarge),
        Region::EuNorth1
    );
}

/// §5.2.4: an unreachable threshold falls back to on-demand everywhere —
/// zero interruptions, cost ≈ the pure on-demand deployment.
#[test]
fn unreachable_threshold_falls_back_to_on_demand() {
    let base = config(WorkloadKind::StandardGeneral, 6, 204, 60);
    let market = Arc::new(SpotMarket::new(base.market));
    let od = run_experiment_on(
        Arc::clone(&market),
        base.clone(),
        Box::new(OnDemandStrategy::new()),
    );
    let fallback = run_experiment_on(
        market,
        base,
        Box::new(SpotVerseStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(13)
                .build(),
        )),
    );
    assert_eq!(fallback.interruptions, 0);
    assert_eq!(fallback.cost.spot_instances, cloud_market::Usd::ZERO);
    let ratio = fallback.cost.total.amount() / od.cost.total.amount();
    assert!((0.95..1.05).contains(&ratio), "fallback should price like on-demand: {ratio}");
}

/// Figure 9's mechanism: concentrating the whole fleet in one market
/// raises the reclaim hazard relative to distributing it (crowding).
#[test]
fn initial_distribution_reduces_interruptions_in_wobble_window() {
    let base = config(WorkloadKind::GenomeReconstruction, 20, 205, 10);
    let concentrated = run_repetitions(
        &base,
        || {
            Box::new(SpotVerseStrategy::new(
                SpotVerseConfig::builder(InstanceType::M5Xlarge)
                    .initial_placement(InitialPlacement::SingleRegion(Region::ApNortheast3))
                    .build(),
            ))
        },
        3,
    );
    let distributed = run_repetitions(
        &base,
        || {
            Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
                InstanceType::M5Xlarge,
            )))
        },
        3,
    );
    assert!(
        distributed.interruptions.mean() < concentrated.interruptions.mean(),
        "distributed {} vs concentrated {}",
        distributed.interruptions.mean(),
        concentrated.interruptions.mean()
    );
}

/// The checkpoint workload's mean completion beats the standard workload's
/// under identical interruption pressure (resume vs restart).
#[test]
fn checkpointing_pays_off_under_interruptions() {
    let standard = config(WorkloadKind::GenomeReconstruction, 10, 206, 40);
    let checkpoint = config(WorkloadKind::NgsPreprocessing, 10, 206, 40);
    let s = run_repetitions(
        &standard,
        || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        3,
    );
    let c = run_repetitions(
        &checkpoint,
        || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        3,
    );
    assert!(
        c.mean_completion_hours.mean() < s.mean_completion_hours.mean(),
        "checkpoint {} vs standard {}",
        c.mean_completion_hours.mean(),
        s.mean_completion_hours.mean()
    );
}
