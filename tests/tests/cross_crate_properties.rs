//! Cross-crate property-based tests: invariants that span the market, the
//! compute plane, the optimizer, the experiment engine, and the paper
//! workloads' Galaxy workflows.

use std::sync::Arc;

use proptest::prelude::*;

use bio_workloads::{paper_fleet, workload_fleet, WorkloadKind};
use cloud_compute::{Ec2, PurchaseModel, SpotRequestOutcome, TerminationReason};
use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
use galaxy_flow::{ExecutionPlan, WorkflowInvocation};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    run_experiment, ExperimentConfig, MigrationPolicy, Monitor, Optimizer, SingleRegionStrategy,
    SpotVerseConfig,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Algorithm 1 invariants hold against real market assessments at any
    /// instant: ≤ R regions, all above threshold, price-sorted, and the
    /// migration target never equals the interrupted region when spot is
    /// chosen.
    #[test]
    fn optimizer_invariants_on_live_market(
        seed in 0u64..500,
        day in 0u64..200,
        threshold in 2u8..9,
        interrupted_idx in 0usize..12,
    ) {
        let market = SpotMarket::new(MarketConfig::with_seed(seed));
        let monitor = Monitor::new(InstanceType::M5Xlarge);
        let assessments = monitor
            .fresh_assessments(&market, None, SimTime::from_days(day))
            .expect("within horizon");
        let optimizer = Optimizer::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(threshold)
                .build(),
        );
        let selected = optimizer.select_regions(&assessments, &[]);
        prop_assert!(selected.len() <= 4);
        prop_assert!(selected.iter().all(|a| a.combined().meets(threshold)));
        prop_assert!(selected
            .windows(2)
            .all(|w| w[0].spot_price.rate() <= w[1].spot_price.rate()));

        let interrupted = Region::ALL[interrupted_idx];
        let mut rng = SimRng::seed_from_u64(seed ^ 0xDEAD);
        let target = optimizer.migration_target(
            &assessments,
            interrupted,
            MigrationPolicy::RandomTopR,
            &[],
            &mut rng,
            None,
        );
        if target.is_spot() {
            prop_assert_ne!(target.region(), interrupted);
        }
    }

    /// Billing is additive and non-negative: terminating an instance at any
    /// point yields a cost equal to the integral of the price curve, and
    /// splitting the interval never changes the total.
    #[test]
    fn billing_is_additive_over_splits(
        seed in 0u64..200,
        start_hours in 24u64..2000,
        len_minutes in 10u64..3000,
        split_pct in 1u64..99,
    ) {
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
        let ec2 = Ec2::new(market, SimRng::seed_from_u64(seed));
        let start = SimTime::from_hours(start_hours);
        let len = SimDuration::from_mins(len_minutes);
        let end = start + len;
        let mid = start + SimDuration::from_secs(len.as_secs() * split_pct / 100);
        let whole = ec2
            .usage_cost(Region::EuWest2, InstanceType::M5Xlarge, PurchaseModel::Spot, start, end)
            .expect("within horizon");
        let a = ec2
            .usage_cost(Region::EuWest2, InstanceType::M5Xlarge, PurchaseModel::Spot, start, mid)
            .expect("within horizon");
        let b = ec2
            .usage_cost(Region::EuWest2, InstanceType::M5Xlarge, PurchaseModel::Spot, mid, end)
            .expect("within horizon");
        prop_assert!(((a + b).amount() - whole.amount()).abs() < 1e-9);
        // Spot never exceeds the on-demand bill for the same interval.
        let od = ec2
            .usage_cost(Region::EuWest2, InstanceType::M5Xlarge, PurchaseModel::OnDemand, start, end)
            .expect("within horizon");
        prop_assert!(whole.amount() <= od.amount() + 1e-9);
    }

    /// Interruption times sampled by the compute plane respect the notice
    /// floor and the market horizon.
    #[test]
    fn sampled_interruptions_respect_bounds(seed in 0u64..100, day in 0u64..150) {
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
        let horizon = market.horizon();
        let mut ec2 = Ec2::new(market, SimRng::seed_from_u64(seed));
        let at = SimTime::from_days(day);
        for _ in 0..5 {
            if let SpotRequestOutcome::Fulfilled(launch) =
                ec2.request_spot(Region::CaCentral1, InstanceType::M5Xlarge, at).expect("within horizon")
            {
                if let Some(t) = launch.interruption_at {
                    prop_assert!(t >= at + SimDuration::from_secs(120));
                    prop_assert!(t <= horizon);
                }
                ec2.terminate(launch.instance, at + SimDuration::from_secs(120), TerminationReason::Manual)
                    .expect("instance is running");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whole-experiment conservation laws, for arbitrary small fleets:
    /// completions + incompletions = fleet, regional interruptions sum to
    /// the total, series are monotone, and the ledger total matches the
    /// report.
    #[test]
    fn experiment_conservation_laws(
        seed in 0u64..50,
        n in 2usize..6,
        duration_hours in 2u64..8,
    ) {
        let fleet = workload_fleet(
            WorkloadKind::GenomeReconstruction,
            n,
            SimDuration::from_hours(duration_hours),
            SimDuration::from_mins(30),
            &SimRng::seed_from_u64(seed),
        );
        let config = ExperimentConfig::new(seed, InstanceType::M5Xlarge, fleet);
        let report = run_experiment(
            config,
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        prop_assert_eq!(report.completed, n, "short workloads always finish in 30 days");
        let regional: u64 = report.interruptions_by_region.values().sum();
        prop_assert_eq!(regional, report.interruptions);
        let launches: u64 = report.launches_by_region.values().sum();
        prop_assert!(launches as usize >= n);
        prop_assert_eq!(report.interruptions + n as u64, launches);
        let values: Vec<f64> = report
            .cumulative_interruptions
            .iter()
            .map(|&(_, v)| v)
            .collect();
        prop_assert!(values.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(report.instance_hours >= 0.0);
        prop_assert!(
            report.instance_hours * 3600.0
                >= n as f64 * duration_hours as f64 * 3600.0 * 0.99,
            "billed at least the useful work"
        );
    }
}

/// The flat execution plan the runs advance and the workflow DAG it is
/// built from agree on total work, for each of the paper's workloads:
/// exactly for the monolithic ones, and up to the plan's per-shard
/// rounding (at most half a second per unit) for the sharded NGS
/// workload.
#[test]
fn execution_plan_matches_workflow_duration() {
    for kind in WorkloadKind::ALL {
        let workflow = paper_fleet(kind, 1, &SimRng::seed_from_u64(4))[0].build_workflow();
        let plan = ExecutionPlan::new(&workflow);
        let (planned, nominal) = (plan.total_duration().as_secs(), workflow.total_duration().as_secs());
        if kind.is_checkpointable() {
            let rounding = planned.abs_diff(nominal);
            assert!(2 * rounding <= plan.unit_count() as u64, "{kind}: {planned} s vs {nominal} s");
        } else {
            assert_eq!(planned, nominal, "{kind}");
        }
    }
}

/// The paper's two interruption semantics on its own workloads: the
/// standard Genome Reconstruction restarts from scratch, the sharded NGS
/// preprocessing workload resumes from its last checkpoint.
#[test]
fn standard_vs_checkpoint_interruption_semantics() {
    let standard = paper_fleet(WorkloadKind::GenomeReconstruction, 1, &SimRng::seed_from_u64(5))[0]
        .build_workflow();
    let checkpoint =
        paper_fleet(WorkloadKind::NgsPreprocessing, 1, &SimRng::seed_from_u64(5))[0].build_workflow();

    let mut std_inv = WorkflowInvocation::new(&standard);
    let mut ckpt_inv = WorkflowInvocation::new(&checkpoint);
    let four_hours = SimDuration::from_hours(4);
    std_inv.record_execution(four_hours).unwrap();
    ckpt_inv.record_execution(four_hours).unwrap();
    let std_before = std_inv.units_done();
    let ckpt_before = ckpt_inv.units_done();
    assert!(std_before > 0, "23-step workflow completes early steps in 4 h");
    assert!(ckpt_before > 0);

    std_inv.handle_interruption();
    ckpt_inv.handle_interruption();
    assert_eq!(std_inv.units_done(), 0, "standard restarts from scratch");
    assert_eq!(ckpt_inv.units_done(), ckpt_before, "checkpoint resumes");
    // Checkpoint workload now needs strictly less time than a full run.
    assert!(ckpt_inv.remaining_duration() < checkpoint.total_duration());
    assert_eq!(std_inv.remaining_duration(), standard.total_duration());
}
