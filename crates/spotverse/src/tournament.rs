//! The strategy tournament: every strategy × every market regime,
//! ranked on a deterministic leaderboard.
//!
//! The regime abstraction ([`cloud_market::MarketRegime`]) makes "which
//! strategy should I run?" a conditional question — the answer under a
//! capacity crunch need not match the calm baseline. The tournament
//! answers it mechanically: a fleet matrix of (strategy × regime × seed)
//! cells runs on the shared sweep pool ([`run_matrix`]), every
//! cell traced, and the per-regime merged traces feed the replay
//! analytics ([`win_matrix`]) so the pairwise cost wins are derived from
//! the same event-sourced ground truth as `spotverse analyse`.
//!
//! Ranking is lexicographic and total: completions (more is better),
//! then billed cost (less), then mean makespan (less), then strategy
//! name — so the leaderboard is deterministic for any `--jobs` value,
//! exactly like the sweeps it is built on. Optionally each non-baseline
//! regime layers its matched chaos accent ([`chaos::for_regime`]) on
//! top, exercising strategies under the fault texture the regime
//! implies rather than just its price/hazard drift.

use std::fmt::Write as _;

use cloud_market::MarketRegime;

use crate::fleet::FleetConfig;
use crate::replay::{replay_str, win_matrix, ReplayState, TimeWindow, WinMatrix};
use crate::strategy::Strategy;
use crate::sweep::{merged_trace_jsonl, run_matrix, MarketCache, SweepCell};
use crate::trace::TraceConfig;

/// How fault injection enters the tournament matrix.
#[derive(Debug, Clone, Default)]
pub enum TournamentChaos {
    /// Fault-free: regimes differ only in market texture.
    #[default]
    Off,
    /// Each non-baseline regime runs under its matched chaos accent
    /// ([`chaos::for_regime`]); the baseline stays fault-free.
    RegimeMatched,
    /// One fixed scenario applied to every cell, regime included.
    Fixed(chaos::ChaosScenario),
}

/// The tournament matrix: which strategies meet which regimes, over how
/// many repetition seeds, on what fleet shape.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// First repetition seed; rep `r` runs at `base_seed + r`.
    pub base_seed: u64,
    /// Repetitions per (strategy, regime) pairing. Seeds are shared
    /// across strategies so the win matrices compare like with like.
    pub reps: u64,
    /// Strategy selectors, resolved by the caller's factory.
    pub strategies: Vec<String>,
    /// Regimes every strategy is entered under.
    pub regimes: Vec<MarketRegime>,
    /// Fault-injection mode.
    pub chaos: TournamentChaos,
    /// Fleet template: workloads, instance type, timing knobs. Per cell,
    /// `seed`/`market`/`chaos`/`trace` are overridden by the tournament.
    pub fleet: FleetConfig,
}

impl TournamentConfig {
    /// A tournament of `strategies` × `regimes` with `reps` seeds per
    /// pairing, starting from the fleet template's own seed.
    pub fn new(
        strategies: Vec<String>,
        regimes: Vec<MarketRegime>,
        reps: u64,
        fleet: FleetConfig,
    ) -> Self {
        TournamentConfig {
            base_seed: fleet.seed,
            reps,
            strategies,
            regimes,
            chaos: TournamentChaos::Off,
            fleet,
        }
    }

    /// Total cells the matrix will run.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.strategies.len() * self.regimes.len() * self.reps as usize
    }

    /// The chaos scenario a cell under `regime` runs with.
    fn scenario_for(&self, regime: MarketRegime) -> Option<chaos::ChaosScenario> {
        match &self.chaos {
            TournamentChaos::Off => None,
            TournamentChaos::RegimeMatched => chaos::for_regime(regime),
            TournamentChaos::Fixed(s) => Some(s.clone()),
        }
    }

    /// The fleet cells, regime-major then strategy then seed, so one
    /// regime's cells are a contiguous block in matrix (and outcome)
    /// order.
    fn build_cells(&self) -> Vec<SweepCell<FleetConfig>> {
        let mut cells = Vec::with_capacity(self.cells());
        for &regime in &self.regimes {
            let scenario = self.scenario_for(regime);
            for strategy in &self.strategies {
                for rep in 0..self.reps {
                    let seed = self.base_seed + rep;
                    let mut config = self.fleet.clone();
                    config.seed = seed;
                    config.market.seed = seed;
                    config.market = config.market.with_regime(regime);
                    config.chaos = scenario.clone();
                    config.trace = TraceConfig::enabled();
                    let label = format!("{strategy}@{}/s{seed}", regime.name());
                    cells.push(SweepCell::new(label, strategy.clone(), config));
                }
            }
        }
        cells
    }
}

/// One leaderboard row: a strategy's aggregate showing under one regime.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentRow {
    /// 1-based rank within the regime (1 = winner).
    pub rank: usize,
    /// Strategy selector.
    pub strategy: String,
    /// Cells that produced a report (of `reps` entered).
    pub cells: usize,
    /// Workloads completed across all reps.
    pub completed: usize,
    /// Workloads entered across all reps.
    pub workloads: usize,
    /// Total billed cost ($) across all reps.
    pub cost: f64,
    /// Mean per-rep makespan, hours.
    pub mean_makespan_hours: f64,
    /// Spot interruptions across all reps.
    pub interruptions: u64,
}

/// One regime's full standing: ranked rows plus the seed-matched
/// pairwise cost win matrix replayed from the regime's merged trace.
#[derive(Debug, Clone)]
pub struct RegimeStanding {
    /// The regime.
    pub regime: MarketRegime,
    /// Chaos accent the regime's cells ran under, if any.
    pub chaos: Option<String>,
    /// Rows in rank order.
    pub rows: Vec<TournamentRow>,
    /// Pairwise cost wins over the regime's shared seeds.
    pub wins: WinMatrix,
}

/// The complete tournament result.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// One standing per regime, in configured regime order.
    pub standings: Vec<RegimeStanding>,
    /// Repetition seeds per pairing.
    pub reps: u64,
    /// Labels of cells that failed (panicked twice or lost their
    /// worker); their rows aggregate only surviving reps.
    pub failed: Vec<String>,
}

impl TournamentReport {
    /// The 1-based rank of `strategy` under `regime`, if both were in
    /// the tournament.
    #[must_use]
    pub fn rank_of(&self, regime: MarketRegime, strategy: &str) -> Option<usize> {
        self.standings
            .iter()
            .find(|s| s.regime == regime)?
            .rows
            .iter()
            .find(|r| r.strategy == strategy)
            .map(|r| r.rank)
    }
}

/// Runs the tournament matrix on the shared sweep worker pool and folds
/// the outcomes into ranked per-regime standings.
///
/// `strategy_for` resolves a selector into a fresh strategy instance; it
/// runs on the worker thread executing the cell. Markets are shared
/// through `cache`, so all cells at one (seed, regime) reuse a single
/// construction. The report is bit-identical for any `jobs ≥ 1`.
///
/// # Panics
///
/// Panics if `jobs` is zero, or if a succeeded cell's trace fails to
/// replay (impossible for traces the run itself produced).
pub fn run_tournament<F>(
    config: &TournamentConfig,
    jobs: usize,
    cache: &MarketCache,
    strategy_for: F,
) -> TournamentReport
where
    F: Fn(&str) -> Box<dyn Strategy> + Sync,
{
    let cells = config.build_cells();
    let outcomes = run_matrix(&cells, jobs, cache, |cell| strategy_for(&cell.strategy));
    let mut failed = Vec::new();
    let mut standings = Vec::with_capacity(config.regimes.len());
    let block = config.strategies.len() * config.reps as usize;
    for (r, &regime) in config.regimes.iter().enumerate() {
        let slice = &outcomes[r * block..(r + 1) * block];
        failed.extend(slice.iter().filter(|o| !o.is_ok()).map(|o| o.label.clone()));

        let mut rows: Vec<TournamentRow> = config
            .strategies
            .iter()
            .map(|strategy| {
                let mut row = TournamentRow {
                    rank: 0,
                    strategy: strategy.clone(),
                    cells: 0,
                    completed: 0,
                    workloads: 0,
                    cost: 0.0,
                    mean_makespan_hours: 0.0,
                    interruptions: 0,
                };
                let mut makespan_hours = 0.0;
                for outcome in slice.iter().filter(|o| &o.strategy == strategy) {
                    let Some(report) = outcome.report() else { continue };
                    let agg = &report.aggregate;
                    row.cells += 1;
                    row.completed += agg.completed;
                    row.workloads += agg.workloads;
                    row.cost += agg.cost.total.amount();
                    row.interruptions += agg.interruptions;
                    makespan_hours += agg.makespan.as_hours_f64();
                }
                if row.cells > 0 {
                    row.mean_makespan_hours = makespan_hours / row.cells as f64;
                }
                row
            })
            .collect();
        rows.sort_by(|a, b| {
            b.completed
                .cmp(&a.completed)
                .then_with(|| a.cost.total_cmp(&b.cost))
                .then_with(|| a.mean_makespan_hours.total_cmp(&b.mean_makespan_hours))
                .then_with(|| a.strategy.cmp(&b.strategy))
        });
        for (i, row) in rows.iter_mut().enumerate() {
            row.rank = i + 1;
        }

        // The win matrix is replayed from the regime's merged trace, not
        // taken from the in-memory reports: the leaderboard and
        // `spotverse analyse` must never disagree about who beat whom.
        let merged = merged_trace_jsonl(slice);
        let state: ReplayState = replay_str(&merged, TimeWindow::ALL)
            .expect("tournament traces replay cleanly");
        let wins = win_matrix(&state);

        standings.push(RegimeStanding {
            regime,
            chaos: config.scenario_for(regime).map(|s| s.name().to_owned()),
            rows,
            wins,
        });
    }
    TournamentReport { standings, reps: config.reps, failed }
}

/// Renders the leaderboard as deterministic text: one block per regime,
/// rows in rank order, then the regime's win matrix when contested.
#[must_use]
pub fn render_tournament(report: &TournamentReport) -> String {
    let mut out = String::new();
    let name_width = report
        .standings
        .iter()
        .flat_map(|s| s.rows.iter().map(|r| r.strategy.len()))
        .max()
        .unwrap_or(0)
        .max(8);
    for standing in &report.standings {
        let _ = write!(out, "regime {}", standing.regime.name());
        if let Some(chaos) = &standing.chaos {
            let _ = write!(out, "  (chaos: {chaos})");
        }
        out.push('\n');
        for row in &standing.rows {
            let _ = writeln!(
                out,
                "  #{} {:<name_width$}  completed {}/{}  cost ${:.2}  makespan {:.2}h  interruptions {}",
                row.rank,
                row.strategy,
                row.completed,
                row.workloads,
                row.cost,
                row.mean_makespan_hours,
                row.interruptions,
            );
        }
        let wm = &standing.wins;
        if wm.strategies.len() > 1 && wm.contested_seeds > 0 {
            let _ = writeln!(
                out,
                "  win matrix (cheaper-than counts over {} contested seeds)",
                wm.contested_seeds
            );
            let width = wm.strategies.iter().map(String::len).max().unwrap_or(0).max(4);
            let _ = write!(out, "    {:<width$}", "");
            for s in &wm.strategies {
                let _ = write!(out, " {s:>width$}");
            }
            out.push('\n');
            for (i, row) in wm.wins.iter().enumerate() {
                let _ = write!(out, "    {:<width$}", wm.strategies[i]);
                for (j, w) in row.iter().enumerate() {
                    if i == j {
                        let _ = write!(out, " {:>width$}", "-");
                    } else {
                        let _ = write!(out, " {w:>width$}");
                    }
                }
                out.push('\n');
            }
        }
    }
    if !report.failed.is_empty() {
        let _ = writeln!(out, "failed cells: {}", report.failed.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_workloads::{paper_fleet, WorkloadKind};
    use cloud_market::{InstanceType, Region};
    use sim_kernel::SimRng;

    use crate::config::SpotVerseConfig;
    use crate::strategy::{OnDemandStrategy, SingleRegionStrategy, SpotVerseStrategy};

    fn factory(selector: &str) -> Box<dyn Strategy> {
        match selector {
            "single-region" => Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
            "on-demand" => Box::new(OnDemandStrategy::new()),
            "spotverse" => Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
                InstanceType::M5Xlarge,
            ))),
            other => panic!("unknown selector {other}"),
        }
    }

    fn small_config(strategies: &[&str], regimes: Vec<MarketRegime>, reps: u64) -> TournamentConfig {
        let rng = SimRng::seed_from_u64(77);
        let fleet = FleetConfig::new(
            77,
            InstanceType::M5Xlarge,
            paper_fleet(WorkloadKind::GenomeReconstruction, 2, &rng)
                .into_iter()
                .map(|spec| crate::fleet::FleetWorkload::new(spec, sim_kernel::SimDuration::ZERO))
                .collect(),
        );
        TournamentConfig::new(
            strategies.iter().map(|s| (*s).to_owned()).collect(),
            regimes,
            reps,
            fleet,
        )
    }

    #[test]
    fn leaderboard_is_jobs_invariant() {
        let config = small_config(
            &["single-region", "on-demand"],
            vec![MarketRegime::Baseline, MarketRegime::CapacityCrunch],
            2,
        );
        let serial = run_tournament(&config, 1, &MarketCache::new(), factory);
        let parallel = run_tournament(&config, 4, &MarketCache::new(), factory);
        assert_eq!(render_tournament(&serial), render_tournament(&parallel));
        assert!(serial.failed.is_empty());
    }

    #[test]
    fn every_pairing_gets_a_ranked_row() {
        let config = small_config(
            &["single-region", "on-demand"],
            vec![MarketRegime::Baseline, MarketRegime::CorrelatedShock],
            1,
        );
        let report = run_tournament(&config, 2, &MarketCache::new(), factory);
        assert_eq!(report.standings.len(), 2);
        for standing in &report.standings {
            assert_eq!(standing.rows.len(), 2);
            let ranks: Vec<usize> = standing.rows.iter().map(|r| r.rank).collect();
            assert_eq!(ranks, vec![1, 2]);
            assert!(standing.rows.iter().all(|r| r.cells == 1 && r.workloads == 2));
        }
        assert!(report.rank_of(MarketRegime::Baseline, "single-region").is_some());
        assert_eq!(report.rank_of(MarketRegime::RegimeSwitching, "single-region"), None);
    }

    #[test]
    fn regime_matched_chaos_labels_non_baseline_regimes() {
        let mut config = small_config(
            &["single-region"],
            vec![MarketRegime::Baseline, MarketRegime::CapacityCrunch],
            1,
        );
        config.chaos = TournamentChaos::RegimeMatched;
        let report = run_tournament(&config, 1, &MarketCache::new(), factory);
        assert_eq!(report.standings[0].chaos, None, "baseline stays fault-free");
        assert_eq!(report.standings[1].chaos.as_deref(), Some("crunch_squeeze"));
    }

    #[test]
    fn win_matrix_contests_every_shared_seed() {
        let config = small_config(
            &["single-region", "on-demand", "spotverse"],
            vec![MarketRegime::Baseline],
            2,
        );
        let report = run_tournament(&config, 3, &MarketCache::new(), factory);
        let wins = &report.standings[0].wins;
        assert_eq!(wins.strategies.len(), 3);
        assert_eq!(wins.contested_seeds, 2, "both rep seeds are shared");
    }

    #[test]
    fn market_cache_shares_builds_across_strategies() {
        let config = small_config(
            &["single-region", "on-demand"],
            vec![MarketRegime::Baseline, MarketRegime::CapacityCrunch],
            2,
        );
        let cache = MarketCache::new();
        let _ = run_tournament(&config, 2, &cache, factory);
        // 2 seeds × 2 regimes distinct markets; the second strategy hits.
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 4);
    }
}
