//! The parallel sweep engine: deterministic concurrent execution of
//! (strategy × scenario × repetition) experiment matrices.
//!
//! Every table and figure in the paper's evaluation is a *sweep* — the
//! same fleet run cell-by-cell under varying strategies, fault scenarios,
//! or repetition seeds. Cells share nothing mutable, so they parallelize
//! perfectly; what they *can* share is the market: building a 12-region
//! precomputed trajectory dominates small-cell runtime, and every cell at
//! the same [`MarketConfig`] observes the identical market by
//! construction. The engine therefore couples a bounded worker pool
//! ([`run_matrix`]) with a config-keyed [`MarketCache`] handing out
//! `Arc<SpotMarket>` clones, so a whole matrix at one seed performs
//! exactly one market construction.
//!
//! Experiment cells and fleet cells are one [`SweepCell<C>`](SweepCell)
//! over any [`CellConfig`] ([`ExperimentConfig`] or [`FleetConfig`]), run
//! by the one [`run_matrix`] and merged by the one [`merged_trace_jsonl`].
//!
//! Determinism contract: the outcome vector is in cell order and each
//! cell is a pure function of its config and strategy,
//! so the output is bit-identical for any `jobs` value (covered by
//! integration tests). Cells run under `catch_unwind` with one
//! deterministic retry, so one panicking cell degrades to a structured
//! failure instead of poisoning the whole matrix.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cloud_market::{MarketConfig, SpotMarket};

use crate::experiment::{run_experiment_on, ExperimentConfig, ExperimentReport};
use crate::fleet::{run_fleet_on, FleetConfig, FleetReport};
use crate::strategy::Strategy;

/// Environment variable overriding the default sweep parallelism (a
/// `--jobs` flag, when present, wins over it).
pub const JOBS_ENV: &str = "SPOTVERSE_JOBS";

/// A market cache shared across sweep cells: one [`SpotMarket`] per
/// distinct [`MarketConfig`], built at most once no matter how many cells
/// (or worker threads) ask for it concurrently.
///
/// Chaos cells layer their faults through `MarketOverlay`s on the *read*
/// path, so faulted and fault-free cells at the same seed share the same
/// clean base market.
#[derive(Debug, Default)]
pub struct MarketCache {
    markets: Mutex<HashMap<MarketConfig, Arc<OnceLock<Arc<SpotMarket>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MarketCache {
    /// An empty cache.
    pub fn new() -> Self {
        MarketCache::default()
    }

    /// The market for `config`, building it on first request. Concurrent
    /// same-config requests block on the single in-flight build instead of
    /// duplicating it; distinct configs build independently.
    pub fn get_or_build(&self, config: MarketConfig) -> Arc<SpotMarket> {
        let cell = {
            let mut markets = self.markets.lock().expect("market cache poisoned");
            Arc::clone(markets.entry(config).or_default())
        };
        let mut built = false;
        let market = cell.get_or_init(|| {
            built = true;
            Arc::new(SpotMarket::new(config))
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(market)
    }

    /// Requests served from an already-built market.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that performed a market construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct markets held.
    pub fn len(&self) -> usize {
        self.markets.lock().expect("market cache poisoned").len()
    }

    /// Whether the cache holds no markets yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolves the worker count for a sweep of `cells` cells: an explicit
/// request (`--jobs`) wins, then the [`JOBS_ENV`] environment variable,
/// then `min(cells, available_parallelism)`. Always at least 1.
pub fn resolve_jobs(explicit: Option<usize>, cells: usize) -> usize {
    let env = std::env::var(JOBS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok());
    resolve_jobs_from(explicit, env, cells)
}

/// [`resolve_jobs`] with the environment pre-read (pure, for tests).
fn resolve_jobs_from(explicit: Option<usize>, env: Option<usize>, cells: usize) -> usize {
    let default = || {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(cells.max(1))
    };
    explicit
        .filter(|&n| n > 0)
        .or(env.filter(|&n| n > 0))
        .unwrap_or_else(default)
}

/// The structured result of one matrix cell: either the report, or the
/// cell's failure message after the deterministic retry was exhausted.
/// One bad cell never poisons its matrix — neighbours complete and the
/// caller decides how to surface the failure.
///
/// Generic over the report type: experiment cells produce
/// [`CellOutcome`] (= `SweepOutcome<ExperimentReport>`), fleet cells
/// [`FleetCellOutcome`] (= `SweepOutcome<FleetReport>`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<R> {
    /// The cell's display label.
    pub label: String,
    /// The cell's strategy selector.
    pub strategy: String,
    /// Retries taken after a panic (0 or 1 — each cell gets exactly one
    /// deterministic retry).
    pub retries: u32,
    /// The report, or the panic message of the final failed attempt.
    pub result: Result<R, String>,
}

/// The outcome of a classic experiment cell.
pub type CellOutcome = SweepOutcome<ExperimentReport>;

/// The outcome of a fleet cell.
pub type FleetCellOutcome = SweepOutcome<FleetReport>;

impl<R> SweepOutcome<R> {
    /// Whether the cell produced a report.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Whether the cell failed once and then succeeded on its retry.
    pub fn recovered(&self) -> bool {
        self.retries > 0 && self.result.is_ok()
    }

    /// The report, if the cell succeeded.
    pub fn report(&self) -> Option<&R> {
        self.result.as_ref().ok()
    }

    /// Unwraps the report for callers that treat any cell failure as
    /// fatal (e.g. repetition aggregation, where a missing cell would
    /// silently skew the statistics).
    ///
    /// # Panics
    ///
    /// Panics with the cell label and failure message if the cell failed.
    pub fn into_report(self) -> R {
        match self.result {
            Ok(report) => report,
            Err(e) => panic!("sweep cell {} failed: {e}", self.label),
        }
    }
}

/// What a matrix cell runs: a configuration that names its market and
/// runs on it. Implemented by [`ExperimentConfig`] and [`FleetConfig`], so
/// both kinds of cell share [`SweepCell`], [`run_matrix`] and
/// [`merged_trace_jsonl`].
pub trait CellConfig: Clone + Sync {
    /// What one run of the cell reports.
    type Report: Send;

    /// The market the cell runs on: its [`MarketCache`] key.
    fn market_config(&self) -> MarketConfig;

    /// Runs the cell on `market` under `strategy`.
    fn run_on(self, market: Arc<SpotMarket>, strategy: Box<dyn Strategy>) -> Self::Report;
}

impl CellConfig for ExperimentConfig {
    type Report = ExperimentReport;

    fn market_config(&self) -> MarketConfig {
        self.market
    }

    fn run_on(self, market: Arc<SpotMarket>, strategy: Box<dyn Strategy>) -> ExperimentReport {
        run_experiment_on(market, self, strategy)
    }
}

impl CellConfig for FleetConfig {
    type Report = FleetReport;

    fn market_config(&self) -> MarketConfig {
        self.market
    }

    fn run_on(self, market: Arc<SpotMarket>, strategy: Box<dyn Strategy>) -> FleetReport {
        run_fleet_on(market, self, strategy)
    }
}

impl AsRef<ExperimentReport> for ExperimentReport {
    fn as_ref(&self) -> &ExperimentReport {
        self
    }
}

/// A fleet report's aggregate is the run's classic report (and trace).
impl AsRef<ExperimentReport> for FleetReport {
    fn as_ref(&self) -> &ExperimentReport {
        &self.aggregate
    }
}

/// One cell of a matrix: an experiment cell by default, a fleet cell as
/// [`FleetSweepCell`].
#[derive(Debug, Clone)]
pub struct SweepCell<C = ExperimentConfig> {
    /// Display label (e.g. `"spotverse/region_blackout"`).
    pub label: String,
    /// Strategy selector the cell's strategy factory keys on.
    pub strategy: String,
    /// The full configuration, chaos scenario included.
    pub config: C,
}

/// A cell running a [`FleetConfig`]. An alias, kept because `perfbench`
/// names it.
pub type FleetSweepCell = SweepCell<FleetConfig>;

impl<C> SweepCell<C> {
    /// A cell running `strategy` under `config`, labelled `label`.
    pub fn new(label: impl Into<String>, strategy: impl Into<String>, config: C) -> Self {
        SweepCell {
            label: label.into(),
            strategy: strategy.into(),
            config,
        }
    }

    /// This cell's outcome after `retries` retries.
    pub(crate) fn outcome<R>(&self, retries: u32, result: Result<R, String>) -> SweepOutcome<R> {
        SweepOutcome {
            label: self.label.clone(),
            strategy: self.strategy.clone(),
            retries,
            result,
        }
    }
}

/// Merges the traces of a sweep's outcomes into one canonical JSONL
/// document: cells in matrix order, each cell's records prefixed with its
/// label via the `"cell"` key. Fleet outcomes contribute their aggregate
/// trace. Failed cells and cells that ran with tracing disabled
/// contribute nothing. Because [`run_matrix`] returns outcomes in cell
/// order regardless of `jobs`, the merged document is byte-identical for
/// any parallelism — the property the golden-trace suite pins down.
pub fn merged_trace_jsonl<R: AsRef<ExperimentReport>>(outcomes: &[SweepOutcome<R>]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        if let Some(trace) = outcome.report().and_then(|r| r.as_ref().trace.as_ref()) {
            crate::trace::append_trace_jsonl(&mut out, Some(&outcome.label), trace);
        }
    }
    out
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked".to_owned()
    }
}

/// Runs every cell of a matrix on a bounded worker pool and returns one
/// outcome per cell **in cell order**, regardless of which thread
/// finished first: cells are claimed off an atomic counter and results
/// filed into index-addressed slots.
///
/// `strategy_for` builds a fresh strategy per cell (strategies may hold
/// state); it runs on the worker thread executing the cell. Markets are
/// shared through `cache`, so all cells at one seed reuse a single
/// construction.
///
/// Each cell is wrapped in `catch_unwind` with one deterministic retry:
/// a panicking cell becomes a `Failed` outcome while its neighbours run
/// to completion. A worker that dies surfaces its claimed-but-unfiled
/// cells as failures instead of poisoning the matrix.
///
/// Output is bit-identical for any `jobs ≥ 1`: each cell derives every
/// random stream from its own config seed and shares nothing mutable
/// with its neighbours.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_matrix<C, F>(
    cells: &[SweepCell<C>],
    jobs: usize,
    cache: &MarketCache,
    strategy_for: F,
) -> Vec<SweepOutcome<C::Report>>
where
    C: CellConfig,
    F: Fn(&SweepCell<C>) -> Box<dyn Strategy> + Sync,
{
    assert!(jobs > 0, "run_matrix: need at least one worker");
    let jobs = jobs.min(cells.len());
    if jobs <= 1 {
        return cells
            .iter()
            .map(|cell| run_cell(cell, cache, &strategy_for))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<SweepOutcome<C::Report>>> = (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let strategy_for = &strategy_for;
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        local.push((i, run_cell(cell, cache, strategy_for)));
                    }
                    local
                })
            })
            .collect();
        // run_cell never unwinds, so a join failure means the worker
        // itself died; its claimed-but-unfiled cells surface as
        // structured failures below instead of poisoning the matrix.
        for handle in handles {
            if let Ok(local) = handle.join() {
                for (i, outcome) in local {
                    slots[i] = Some(outcome);
                }
            }
        }
    });
    slots
        .into_iter()
        .zip(cells)
        .map(|(slot, cell)| {
            slot.unwrap_or_else(|| cell.outcome(0, Err("sweep worker lost".to_owned())))
        })
        .collect()
}

/// [`run_matrix`] under the fleet name `perfbench` uses.
pub use run_matrix as run_fleet_matrix;

/// [`merged_trace_jsonl`] under the fleet name `perfbench` uses.
pub use merged_trace_jsonl as merged_fleet_trace_jsonl;

/// Executes one cell exactly as `run_matrix` does — the shared path the
/// orchestrator's shard workers also take, so an orchestrated sweep is
/// byte-identical to the in-process pool cell for cell.
///
/// The cell runs with panic isolation and exactly one deterministic
/// retry. Cells are pure functions of their config, so the retry only
/// rescues transient host-level failures; a deterministic panic fails
/// identically twice and is reported as the cell's error.
pub(crate) fn run_cell<C, F>(
    cell: &SweepCell<C>,
    cache: &MarketCache,
    strategy_for: &F,
) -> SweepOutcome<C::Report>
where
    C: CellConfig,
    F: Fn(&SweepCell<C>) -> Box<dyn Strategy>,
{
    let body = || {
        let market = cache.get_or_build(cell.config.market_config());
        cell.config.clone().run_on(market, strategy_for(cell))
    };
    let mut retries = 0;
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&body)) {
            Ok(report) => return cell.outcome(retries, Ok(report)),
            Err(_) if retries == 0 => retries = 1,
            Err(payload) => return cell.outcome(retries, Err(panic_message(payload))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_workloads::{paper_fleet, WorkloadKind};
    use cloud_market::{InstanceType, Region};
    use sim_kernel::SimRng;

    use crate::strategy::SingleRegionStrategy;

    fn config(seed: u64, n: usize) -> ExperimentConfig {
        let rng = SimRng::seed_from_u64(seed);
        ExperimentConfig::new(
            seed,
            InstanceType::M5Xlarge,
            paper_fleet(WorkloadKind::GenomeReconstruction, n, &rng),
        )
    }

    #[test]
    fn cache_builds_each_config_once() {
        let cache = MarketCache::new();
        let a = cache.get_or_build(MarketConfig::with_seed(5));
        let b = cache.get_or_build(MarketConfig::with_seed(5));
        let c = cache.get_or_build(MarketConfig::with_seed(6));
        assert!(Arc::ptr_eq(&a, &b), "same config must share one market");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_same_config_requests_share_one_build() {
        let cache = MarketCache::new();
        let markets: Vec<Arc<SpotMarket>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_build(MarketConfig::with_seed(9))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "exactly one construction");
        assert_eq!(cache.hits(), 3);
        assert!(markets.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn matrix_reports_come_back_in_cell_order() {
        let cache = MarketCache::new();
        let cells: Vec<SweepCell> = (0..4)
            .map(|i| SweepCell::new(format!("cell-{i}"), "single-region", config(40 + i, 2)))
            .collect();
        let outcomes = run_matrix(&cells, 4, &cache, |_| {
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(CellOutcome::is_ok));
        // Distinct seeds give distinct outcomes; order must match cells.
        let serial = run_matrix(&cells, 1, &MarketCache::new(), |_| {
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        for (i, (p, s)) in outcomes.iter().zip(serial.iter()).enumerate() {
            assert_eq!(p.label, format!("cell-{i}"), "outcomes keep cell order");
            let (p, s) = (p.report().unwrap(), s.report().unwrap());
            assert_eq!(p.makespan, s.makespan);
            assert_eq!(p.cost.total, s.cost.total);
        }
    }

    #[test]
    fn merged_trace_prefixes_cells_in_matrix_order() {
        use crate::trace::TraceConfig;
        let cache = MarketCache::new();
        let cells: Vec<SweepCell> = (0..3)
            .map(|i| {
                let mut c = config(60 + i, 2);
                c.trace = TraceConfig::enabled();
                SweepCell::new(format!("cell-{i}"), "single-region", c)
            })
            .collect();
        let outcomes = run_matrix(&cells, 2, &cache, |_| {
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        let merged = merged_trace_jsonl(&outcomes);
        assert!(!merged.is_empty());
        assert!(merged.ends_with('\n'));
        // Lines arrive grouped by cell, cells in matrix order.
        let firsts: Vec<usize> = (0..3)
            .map(|i| merged.find(&format!("{{\"cell\":\"cell-{i}\"")).expect("cell present"))
            .collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "cell order preserved: {firsts:?}");
        // Untraced runs contribute nothing.
        let untraced = run_matrix(
            &[SweepCell::new("plain", "single-region", config(99, 2))],
            1,
            &cache,
            |_| Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        assert!(merged_trace_jsonl(&untraced).is_empty());
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        let cache = MarketCache::new();
        let cells = vec![
            SweepCell::new("good-0", "single-region", config(40, 2)),
            SweepCell::new("bad", "single-region", config(41, 2)),
            SweepCell::new("good-1", "single-region", config(42, 2)),
        ];
        let outcomes = run_matrix(&cells, 2, &cache, |cell| {
            if cell.label == "bad" {
                panic!("injected cell failure");
            }
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok(), "neighbour cells complete");
        assert!(outcomes[2].is_ok());
        let bad = &outcomes[1];
        assert!(!bad.is_ok());
        assert_eq!(bad.retries, 1, "the deterministic retry was attempted");
        assert_eq!(bad.result.as_ref().unwrap_err(), "injected cell failure");
        assert!(!bad.recovered());
    }

    #[test]
    fn transient_cell_failure_recovers_on_retry() {
        use std::sync::atomic::AtomicBool;
        let cache = MarketCache::new();
        let cells = vec![SweepCell::new("flaky", "single-region", config(43, 2))];
        let failed_once = AtomicBool::new(false);
        let outcomes = run_matrix(&cells, 1, &cache, |_| {
            if !failed_once.swap(true, Ordering::Relaxed) {
                panic!("transient failure");
            }
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        assert!(outcomes[0].is_ok());
        assert!(outcomes[0].recovered());
        assert_eq!(outcomes[0].retries, 1);
    }

    #[test]
    fn same_seed_cells_share_one_market() {
        let cache = MarketCache::new();
        let cells: Vec<SweepCell> = (0..6)
            .map(|i| SweepCell::new(format!("rep-{i}"), "single-region", config(7, 2)))
            .collect();
        let _ = run_matrix(&cells, 3, &cache, |_| {
            Box::new(SingleRegionStrategy::new(Region::ApNortheast3))
        });
        assert_eq!(cache.misses(), 1, "one construction for the whole sweep");
        assert_eq!(cache.hits(), 5);
    }

    #[test]
    fn empty_matrix_is_a_no_op() {
        let cache = MarketCache::new();
        assert!(
            run_matrix::<ExperimentConfig, _>(&[], 4, &cache, |_| -> Box<dyn Strategy> {
                unreachable!("no cells to build for")
            })
            .is_empty()
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn jobs_resolution_precedence() {
        // Explicit flag beats env beats default.
        assert_eq!(resolve_jobs_from(Some(3), Some(8), 16), 3);
        assert_eq!(resolve_jobs_from(None, Some(8), 16), 8);
        let auto = resolve_jobs_from(None, None, 16);
        assert!(auto >= 1);
        // Default is bounded by the cell count.
        assert_eq!(resolve_jobs_from(None, None, 1), 1);
        // Zero requests are corrected to a sane floor.
        assert_eq!(resolve_jobs_from(Some(0), None, 4), resolve_jobs_from(None, None, 4));
    }
}
