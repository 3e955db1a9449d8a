//! The experiment engine: runs a fleet of workloads under a placement
//! strategy against the simulated cloud, reproducing the paper's
//! measurement loop.
//!
//! The engine embodies SpotVerse's **Controller** (paper §3.2, §4):
//!
//! * it launches initial instances per the strategy's placements,
//! * open (unfulfilled) spot requests are retried on a 15-minute sweep,
//! * a two-minute interruption notice precedes every reclaim; checkpoint
//!   workloads upload their progress (KV record + working set to the
//!   object store) inside the notice window,
//! * on reclaim, the interruption-handler function runs and the strategy
//!   chooses the relaunch target,
//! * the Monitor collects market metrics on a periodic schedule so
//!   SpotVerse decides from *observed* data.
//!
//! Everything bills into one ledger; the report reproduces the paper's
//! metrics: completion times, interruption counts and their regional
//! distribution, and the full cost breakdown.

use std::collections::BTreeMap;
use std::sync::Arc;

use bio_workloads::WorkloadSpec;
use chaos::ChaosScenario;
use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket, Usd};
use sim_kernel::{SimDuration, SimTime, TimeSeries};

use crate::fleet::FleetConfig;
use crate::health::ResilienceTelemetry;
use crate::strategy::Strategy;
use crate::trace::{RunTrace, TraceConfig};

/// Name of the interruption-handler function (paper §4).
pub const INTERRUPTION_HANDLER: &str = "spotverse-interruption-handler";

/// Where checkpoint working sets are persisted (paper §7 proposes EFS as
/// an alternative to S3; the checkpoint-storage ablation quantifies it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointBackend {
    /// S3-like object store: cheap storage, cross-region puts pay transfer
    /// and must fit the two-minute notice.
    ObjectStore,
    /// EFS-like shared filesystem: near-instant in-region writes, pricier
    /// storage, WAN-penalized cross-region reads on resume.
    SharedFileSystem,
}
/// Bucket holding checkpoints; activity logs are billed against it but not
/// stored.
pub const LOG_BUCKET: &str = "spotverse-logs";

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed (market + all decision streams fork from it).
    pub seed: u64,
    /// Market build parameters.
    pub market: MarketConfig,
    /// The instance type every workload runs on.
    pub instance_type: InstanceType,
    /// The fleet.
    pub workloads: Vec<WorkloadSpec>,
    /// When the fleet starts (offset into the market horizon).
    pub start: SimTime,
    /// Hard deadline after `start`; workloads still unfinished then are
    /// reported as incomplete.
    pub max_runtime: SimDuration,
    /// Where checkpoint working sets are persisted.
    pub checkpoint_backend: CheckpointBackend,
    /// Optional fault-injection scenario, compiled against `seed` and
    /// `start`. `None` runs fault-free.
    pub chaos: Option<ChaosScenario>,
    /// Decision-trace recording (off by default; purely observational, so
    /// enabling it changes no other report field).
    pub trace: TraceConfig,
}

impl ExperimentConfig {
    /// A standard configuration: 30-day guard, start at day 1 of the
    /// market horizon.
    pub fn new(seed: u64, instance_type: InstanceType, workloads: Vec<WorkloadSpec>) -> Self {
        ExperimentConfig {
            seed,
            market: MarketConfig::with_seed(seed),
            instance_type,
            workloads,
            start: SimTime::from_days(1),
            max_runtime: SimDuration::from_days(30),
            checkpoint_backend: CheckpointBackend::ObjectStore,
            chaos: None,
            trace: TraceConfig::default(),
        }
    }
}

/// The cost breakdown the paper's cost model reports (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Everything.
    pub total: Usd,
    /// Spot instance usage.
    pub spot_instances: Usd,
    /// On-demand instance usage.
    pub on_demand_instances: Usd,
    /// Cross-region data transfer (checkpoints).
    pub data_transfer: Usd,
    /// Shared serverless services (functions, KV, metrics, storage fees).
    pub shared_services: Usd,
}

/// Checkpoint-durability and resilience counters. All zeros on a
/// fault-free run: the hardened Controller only exercises these paths
/// when faults are injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointTelemetry {
    /// Checkpoint write attempts (notice-window uploads).
    pub writes: u64,
    /// Writes still in flight at reclaim — torn, never trusted.
    pub torn_writes: u64,
    /// Durable generations that read back corrupt.
    pub corrupt_reads: u64,
    /// Reclaims resolved by falling back to an older durable generation.
    pub generation_fallbacks: u64,
    /// Reclaims that lost all durable progress and restarted from scratch.
    pub scratch_restarts: u64,
    /// Control-plane retries taken after throttling errors.
    pub throttled_retries: u64,
}

/// The result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Strategy display name.
    pub strategy: String,
    /// Fleet size.
    pub workloads: usize,
    /// Workloads that finished before the deadline.
    pub completed: usize,
    /// Start → last completion (zero if nothing completed).
    pub makespan: SimDuration,
    /// Mean per-workload completion time.
    pub mean_completion: SimDuration,
    /// Total spot interruptions experienced.
    pub interruptions: u64,
    /// Interruptions per region (Figure 7c).
    pub interruptions_by_region: BTreeMap<Region, u64>,
    /// Cumulative interruptions over elapsed time (Figures 7a/7d).
    pub cumulative_interruptions: TimeSeries,
    /// Completed-workload count over elapsed time (Figure 7b).
    pub completions_over_time: TimeSeries,
    /// Instance launches per region.
    pub launches_by_region: BTreeMap<Region, u64>,
    /// Costs.
    pub cost: CostBreakdown,
    /// Total billed instance-hours.
    pub instance_hours: f64,
    /// Spot request attempts (including unfulfilled).
    pub spot_attempts: u64,
    /// Spot requests fulfilled.
    pub spot_fulfillments: u64,
    /// Checkpoint-durability and resilience counters.
    pub checkpoints: CheckpointTelemetry,
    /// Region-health control plane counters (breakers, staleness,
    /// degraded placement). All zeros on a fault-free run.
    pub resilience: ResilienceTelemetry,
    /// The decision trace, when [`ExperimentConfig::trace`] enabled it.
    pub trace: Option<RunTrace>,
}

impl ExperimentReport {
    /// Completion rate in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        if self.workloads == 0 {
            return 0.0;
        }
        self.completed as f64 / self.workloads as f64
    }
}

/// Runs one experiment, building a fresh market from the config.
pub fn run_experiment(config: ExperimentConfig, strategy: Box<dyn Strategy>) -> ExperimentReport {
    let market = Arc::new(SpotMarket::new(config.market));
    run_experiment_on(market, config, strategy)
}

/// Runs one experiment against a shared market, so several strategies can
/// be compared on the identical market trajectory.
///
/// This is the degenerate case of the fleet engine
/// ([`run_fleet_on`](crate::fleet::run_fleet_on)): every workload arrives
/// at the start and no capacity cap applies, which reproduces the
/// original single-experiment Controller event-for-event.
///
/// # Panics
///
/// Panics if the market was built from a different [`MarketConfig`] than
/// the experiment's, or if the fleet is empty.
pub fn run_experiment_on(
    market: Arc<SpotMarket>,
    config: ExperimentConfig,
    strategy: Box<dyn Strategy>,
) -> ExperimentReport {
    assert_eq!(
        market.config(),
        config.market,
        "shared market must match the experiment's market config"
    );
    assert!(!config.workloads.is_empty(), "empty workload fleet");
    crate::fleet::run_fleet_on(market, FleetConfig::from_experiment(&config), strategy).aggregate
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_workloads::{paper_fleet, WorkloadKind};
    use cloud_market::Region;
    use sim_kernel::SimRng;

    use crate::config::{InitialPlacement, SpotVerseConfig};
    use crate::trace::{DecisionKind, TraceEvent};
    use crate::strategy::{
        OnDemandStrategy, SingleRegionStrategy, SpotVerseStrategy,
    };

    fn small_fleet(kind: WorkloadKind, n: usize, seed: u64) -> ExperimentConfig {
        let rng = SimRng::seed_from_u64(seed);
        let fleet = paper_fleet(kind, n, &rng);
        ExperimentConfig::new(seed, InstanceType::M5Xlarge, fleet)
    }

    #[test]
    fn on_demand_fleet_completes_exactly_on_time() {
        let config = small_fleet(WorkloadKind::GenomeReconstruction, 5, 11);
        let durations: Vec<SimDuration> = config.workloads.iter().map(|w| w.duration).collect();
        let report = run_experiment(config, Box::new(OnDemandStrategy::new()));
        assert_eq!(report.completed, 5);
        assert_eq!(report.interruptions, 0);
        assert_eq!(report.cost.spot_instances, Usd::ZERO);
        assert!(report.cost.on_demand_instances > Usd::ZERO);
        // Makespan = longest workload + boot (150 s).
        let expected = *durations.iter().max().unwrap() + SimDuration::from_secs(150);
        assert_eq!(report.makespan, expected);
        assert_eq!(report.spot_attempts, 0);
    }

    #[test]
    fn single_region_unstable_market_interrupts_and_recovers() {
        let config = small_fleet(WorkloadKind::GenomeReconstruction, 8, 12);
        let report = run_experiment(
            config,
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        assert_eq!(report.completed, 8, "all workloads eventually finish");
        assert!(report.interruptions > 0, "ca-central-1 is interruption-prone");
        assert_eq!(
            report.interruptions_by_region.keys().copied().collect::<Vec<_>>(),
            vec![Region::CaCentral1],
            "single-region interruptions stay in one region"
        );
        assert!(report.makespan > SimDuration::from_hours(10));
        assert!(report.cost.total > Usd::ZERO);
    }

    #[test]
    fn spotverse_beats_single_region_on_interruptions() {
        let seed = 13;
        let single = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 20, seed),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let spotverse = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 20, seed),
            Box::new(SpotVerseStrategy::new(
                SpotVerseConfig::builder(InstanceType::M5Xlarge)
                    .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
                    .build(),
            )),
        );
        assert_eq!(spotverse.completed, 20);
        assert!(
            spotverse.interruptions < single.interruptions,
            "spotverse {} vs single {}",
            spotverse.interruptions,
            single.interruptions
        );
        assert!(
            spotverse.makespan < single.makespan,
            "spotverse {} vs single {}",
            spotverse.makespan,
            single.makespan
        );
        // SpotVerse migrated away: interruptions span multiple regions or
        // at least launches do.
        assert!(spotverse.launches_by_region.len() > 1);
    }

    #[test]
    fn checkpoint_workloads_lose_less_time_than_standard() {
        let seed = 14;
        let standard = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 8, seed),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let checkpoint = run_experiment(
            small_fleet(WorkloadKind::NgsPreprocessing, 8, seed),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        assert_eq!(checkpoint.completed, 8);
        assert!(
            checkpoint.mean_completion < standard.mean_completion,
            "checkpoint {} vs standard {}",
            checkpoint.mean_completion,
            standard.mean_completion
        );
        // Checkpoint uploads appear as data-transfer + kv spend.
        assert!(checkpoint.cost.shared_services > Usd::ZERO);
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let a = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 6, 15),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let b = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 6, 15),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        assert_eq!(a.interruptions, b.interruptions);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.cost.total, b.cost.total);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn shared_market_requires_matching_config() {
        let config = small_fleet(WorkloadKind::GenomeReconstruction, 2, 16);
        let other_market = Arc::new(SpotMarket::new(MarketConfig::with_seed(999)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_experiment_on(other_market, config, Box::new(OnDemandStrategy::new()))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cumulative_series_are_monotone() {
        let report = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 8, 17),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let values: Vec<f64> = report
            .cumulative_interruptions
            .iter()
            .map(|&(_, v)| v)
            .collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            report.completions_over_time.last().map(|(_, v)| v as usize),
            Some(report.completed)
        );
        assert_eq!(report.completion_rate(), 1.0);
    }

    #[test]
    fn fault_free_runs_never_engage_the_control_plane() {
        // Plenty of natural interruptions in ca-central-1, yet no chaos:
        // the breakers, staleness counters, and degraded mode must all
        // stay at zero.
        let report = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 8, 12),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        assert!(report.interruptions > 0);
        assert_eq!(report.resilience, ResilienceTelemetry::default());
    }

    #[test]
    fn tracing_is_purely_observational() {
        let base = small_fleet(WorkloadKind::GenomeReconstruction, 5, 12);
        let plain = run_experiment(
            base.clone(),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let mut traced_cfg = base;
        traced_cfg.trace = TraceConfig::enabled();
        let mut traced = run_experiment(
            traced_cfg,
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let trace = traced.trace.take().expect("tracing was enabled");
        assert!(plain.trace.is_none(), "tracing is off by default");
        assert_eq!(plain, traced, "tracing must not change any other report field");
        assert!(matches!(trace.events.first().unwrap().event, TraceEvent::RunStarted { .. }));
        assert!(matches!(trace.events.last().unwrap().event, TraceEvent::RunEnded { .. }));
        assert_eq!(
            trace.count_matching(|e| matches!(e, TraceEvent::Interrupted { .. })),
            traced.interruptions
        );
    }

    #[test]
    fn traced_spotverse_decisions_carry_candidate_verdicts() {
        let mut config = small_fleet(WorkloadKind::GenomeReconstruction, 4, 13);
        config.trace = TraceConfig::enabled();
        let report = run_experiment(
            config,
            Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
                InstanceType::M5Xlarge,
            ))),
        );
        let trace = report.trace.expect("tracing was enabled");
        let initial = trace
            .events
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::Decision { kind: DecisionKind::Initial, candidates, placements, .. } => {
                    Some((candidates.clone(), placements.clone()))
                }
                _ => None,
            })
            .expect("initial decision recorded");
        let (candidates, placements) = initial;
        assert_eq!(placements.len(), report.workloads);
        let candidates = candidates.expect("spotverse explains its candidates");
        assert!(!candidates.is_empty());
        // Every spot placement must target a region the explanation selected.
        use crate::optimizer::CandidateOutcome;
        for p in placements.iter().filter(|p| p.is_spot()) {
            assert!(
                candidates.iter().any(|c| c.region == p.region()
                    && matches!(c.outcome, CandidateOutcome::Selected { .. })),
                "placement {p:?} not among selected candidates"
            );
        }
    }

    #[test]
    fn interruption_total_matches_regional_sum() {
        let report = run_experiment(
            small_fleet(WorkloadKind::GenomeReconstruction, 10, 18),
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        let regional: u64 = report.interruptions_by_region.values().sum();
        assert_eq!(regional, report.interruptions);
    }
}
