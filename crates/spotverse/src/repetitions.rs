//! Repeated experiment runs.
//!
//! The paper repeats every experiment three times "to account for potential
//! cloud performance and pricing variations" (§5.1.2). Here each repetition
//! re-seeds both the market and the decision streams; repetitions execute
//! as a one-column sweep through [`run_matrix`](crate::sweep::run_matrix),
//! so they ride the bounded worker pool and share markets through a
//! [`MarketCache`] whenever their configs coincide.

use cloud_market::MarketConfig;
use sim_kernel::RunningStats;

use crate::experiment::{ExperimentConfig, ExperimentReport};
use crate::strategy::Strategy;
use crate::sweep::{resolve_jobs, run_matrix, MarketCache, SweepCell};

/// Aggregate statistics over repetitions.
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// Strategy display name.
    pub strategy: String,
    /// Per-repetition reports, in repetition order.
    pub runs: Vec<ExperimentReport>,
    /// Interruption-count statistics.
    pub interruptions: RunningStats,
    /// Total-cost statistics (dollars).
    pub cost: RunningStats,
    /// Makespan statistics (hours).
    pub makespan_hours: RunningStats,
    /// Mean-completion statistics (hours).
    pub mean_completion_hours: RunningStats,
}

impl AggregateReport {
    fn from_runs(runs: Vec<ExperimentReport>) -> Self {
        let mut interruptions = RunningStats::new();
        let mut cost = RunningStats::new();
        let mut makespan_hours = RunningStats::new();
        let mut mean_completion_hours = RunningStats::new();
        for run in &runs {
            interruptions.record(run.interruptions as f64);
            cost.record(run.cost.total.amount());
            makespan_hours.record(run.makespan.as_hours_f64());
            mean_completion_hours.record(run.mean_completion.as_hours_f64());
        }
        AggregateReport {
            strategy: runs.first().map(|r| r.strategy.clone()).unwrap_or_default(),
            runs,
            interruptions,
            cost,
            makespan_hours,
            mean_completion_hours,
        }
    }

    /// Number of repetitions.
    pub fn repetitions(&self) -> usize {
        self.runs.len()
    }
}

/// The configuration for repetition `rep` of a base experiment: market and
/// decision seeds are offset deterministically.
pub fn repetition_config(base: &ExperimentConfig, rep: u32) -> ExperimentConfig {
    let seed = base.seed.wrapping_add(u64::from(rep).wrapping_mul(0x9E37_79B9));
    ExperimentConfig {
        seed,
        market: MarketConfig {
            seed,
            ..base.market
        },
        workloads: base.workloads.clone(),
        ..base.clone()
    }
}

/// Runs `reps` repetitions of an experiment on the sweep engine's worker
/// pool, each re-seeding the market and the decision streams
/// ([`repetition_config`], the paper's protocol).
///
/// The factory builds a fresh strategy per repetition (strategies may hold
/// state).
///
/// # Panics
///
/// Panics if `reps` is zero or any repetition cell fails.
pub fn run_repetitions<F>(
    base: &ExperimentConfig,
    strategy_factory: F,
    reps: u32,
) -> AggregateReport
where
    F: Fn() -> Box<dyn Strategy> + Sync,
{
    assert!(reps > 0, "run_repetitions: need at least one repetition");
    let cells: Vec<SweepCell> = (0..reps)
        .map(|r| {
            SweepCell::new(
                format!("rep-{r}"),
                String::new(),
                repetition_config(base, r),
            )
        })
        .collect();
    let cache = MarketCache::new();
    let jobs = resolve_jobs(None, cells.len());
    // Aggregating over a partial repetition set would silently skew the
    // statistics, so a failed repetition is fatal here (into_report).
    let runs = run_matrix(&cells, jobs, &cache, |_| strategy_factory())
        .into_iter()
        .map(crate::sweep::CellOutcome::into_report)
        .collect();
    AggregateReport::from_runs(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_workloads::{paper_fleet, WorkloadKind};
    use cloud_market::{InstanceType, Region};
    use sim_kernel::SimRng;

    use crate::strategy::SingleRegionStrategy;

    fn base(n: usize, seed: u64) -> ExperimentConfig {
        let rng = SimRng::seed_from_u64(seed);
        ExperimentConfig::new(
            seed,
            InstanceType::M5Xlarge,
            paper_fleet(WorkloadKind::GenomeReconstruction, n, &rng),
        )
    }

    #[test]
    fn repetitions_vary_seeds_but_stay_deterministic() {
        let base = base(4, 21);
        let a = run_repetitions(
            &base,
            || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
            3,
        );
        let b = run_repetitions(
            &base,
            || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
            3,
        );
        assert_eq!(a.repetitions(), 3);
        assert_eq!(a.interruptions.mean(), b.interruptions.mean());
        assert_eq!(a.cost.mean(), b.cost.mean());
        // Repetitions should differ among themselves (different seeds).
        let costs: Vec<f64> = a.runs.iter().map(|r| r.cost.total.amount()).collect();
        assert!(costs.windows(2).any(|w| w[0] != w[1]), "{costs:?}");
        assert_eq!(a.strategy, "single-region");
    }

    #[test]
    fn repetition_config_offsets_market_seed() {
        let base = base(2, 5);
        let r0 = repetition_config(&base, 0);
        let r1 = repetition_config(&base, 1);
        assert_eq!(r0.seed, base.seed);
        assert_ne!(r1.seed, r0.seed);
        assert_eq!(r1.market.seed, r1.seed);
        assert_eq!(r1.workloads, base.workloads);
    }

    #[test]
    fn aggregate_stats_match_runs() {
        let base = base(3, 6);
        let agg = run_repetitions(
            &base,
            || Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
            2,
        );
        let manual_mean = agg.runs.iter().map(|r| r.interruptions as f64).sum::<f64>() / 2.0;
        assert!((agg.interruptions.mean() - manual_mean).abs() < 1e-12);
        assert_eq!(agg.makespan_hours.count(), 2);
        assert_eq!(agg.mean_completion_hours.count(), 2);
    }
}
