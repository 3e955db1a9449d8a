//! The four workloads. Each operation makes the same public library calls,
//! with the same configuration, as one `spotverse` CLI command, and its
//! output is checked against references built in set-up.

use std::cell::OnceCell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{MarketConfig, MarketRegime, SpotMarket};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    merged_fleet_trace_jsonl, parse_trace_jsonl, render_analysis, render_tournament, resolve_jobs,
    run_fleet_matrix, run_fleet_on, run_matrix, run_matrix_orchestrated, run_tournament,
    CellOutcome, ExperimentConfig, FleetCellOutcome, FleetConfig, FleetReport, FleetSweepCell,
    LoadProfile, MarketCache, OrchestratedSweepReport, OrchestratorConfig, ReplayCursor,
    ReplayState, SweepCell, TimeWindow, TournamentChaos, TournamentConfig, TournamentReport,
    TournamentRow, TraceConfig,
};

use crate::alloc;
use crate::cli::{self, FLEET_STRATEGIES, INSTANCE_TYPE, TOURNAMENT_STRATEGIES};
use crate::metrics::Layers;
use crate::spans::Probe;
use crate::timed::STRATEGY_CALLS;

/// One benchmark workload: a set-up, a repeatable operation and the
/// checks its output must pass.
pub trait Workload: Sized {
    /// What one operation returns for checking.
    type Output;

    /// Builds the operation's inputs and the references its output is
    /// checked against. `dir` is a scratch directory inside the checkout.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// One operation. With a recording probe it also pre-builds markets in
    /// a span and wraps strategies; its output must not change.
    fn op(&self, probe: &mut Probe) -> Result<Self::Output, String>;

    /// Checks one operation's output.
    fn check(&self, out: &Self::Output) -> Result<(), String>;

    /// Simulated workloads that reached an end (completed or expired) in
    /// one operation.
    fn ended_workloads(&self) -> u64;

    /// Per-layer metrics of one traced operation, including measurements
    /// made after it, outside its partition.
    fn layers(&self, out: &Self::Output, probe: &Probe, m: &mut Layers) -> Result<(), String>;

    /// Counters the operation's public results do not expose, gathered
    /// once per traced run by re-running the operation's cells directly.
    fn counter_pass(&self, _m: &mut Layers) -> Result<(), String> {
        Ok(())
    }
}

/// Builds every distinct market `configs` lists inside a `market.build`
/// span, so the operation's own cache lookups all hit. Untraced operations
/// skip this (and never call `configs`) and build markets where the CLI
/// does.
fn prewarm<I: IntoIterator<Item = MarketConfig>>(
    probe: &mut Probe,
    cache: &MarketCache,
    configs: impl FnOnce() -> I,
) -> Vec<Arc<SpotMarket>> {
    if !probe.is_on() {
        return Vec::new();
    }
    probe.span("market.build", |_| {
        let mut seen = HashSet::new();
        configs()
            .into_iter()
            .filter(|c| seen.insert(*c))
            .map(|c| cache.get_or_build(c))
            .collect()
    })
}

/// The market-layer counters of one operation.
fn market_layers(m: &mut Layers, markets: &[Arc<SpotMarket>], cache: &MarketCache) {
    m.set("market.builds", cache.misses() as f64);
    m.set("market.cache_hits", cache.hits() as f64);
    let segments: usize = markets.iter().map(|mk| mk.materialized_segments().0).sum();
    m.set("market.segments_materialized", segments as f64);
}

/// Fails unless every market the operation used was pre-built in its span.
fn check_prewarmed(markets: &[Arc<SpotMarket>], cache: &MarketCache) -> Result<(), String> {
    if !markets.is_empty() && cache.misses() != markets.len() as u64 {
        return Err(format!(
            "{} market builds ran inside the operation, outside the market.build span",
            cache.misses() - markets.len() as u64
        ));
    }
    Ok(())
}

/// Records the first operation's value, then checks later ones equal it.
fn same_as_first<T: Clone + PartialEq>(
    first: &OnceCell<T>,
    value: &T,
    what: &str,
) -> Result<(), String> {
    match first.get() {
        None => {
            let _ = first.set(value.clone());
            Ok(())
        }
        Some(v) if v == value => Ok(()),
        Some(_) => Err(format!("{what} differs from the first operation's")),
    }
}

fn expect_text(actual: &str, expected: &str, command: &str) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("output differs from `spotverse {command}`"))
    }
}

/// A generated fleet as `spotverse fleet --loadgen` configures it.
fn loadgen_fleet(seed: u64, count: usize, rate: f64) -> FleetConfig {
    let mut config = LoadProfile::named("poisson", rate)
        .expect("poisson is a built-in profile")
        .generate(seed, count, INSTANCE_TYPE);
    config.start = SimTime::from_days(1);
    config.max_runtime = SimDuration::from_days(30);
    config.region_capacity = None;
    config.market = config.market.with_regime(MarketRegime::Baseline);
    config
}

// ---------------------------------------------------------------------
// fleet_loadgen
// ---------------------------------------------------------------------

const FLEET_WORKLOADS: usize = 100_000;
const FLEET_RATE: f64 = 8000.0;
const FLEET_ARGV: [&str; 9] = [
    "fleet",
    "--loadgen",
    "poisson",
    "--workloads",
    "100000",
    "--rate",
    "8000",
    "--jobs",
    "1",
];

/// `fleet --loadgen poisson --workloads 100000 --rate 8000 --jobs 1`.
pub struct FleetLoadgen {
    seed: u64,
    cli_text: String,
    first: OnceCell<FleetReport>,
}

pub struct FleetOut {
    outcomes: Vec<FleetCellOutcome>,
    text: String,
    markets: Vec<Arc<SpotMarket>>,
    cache: MarketCache,
}

impl FleetOut {
    fn report(&self) -> Result<&FleetReport, String> {
        match self.outcomes.as_slice() {
            [one] => one
                .result
                .as_ref()
                .map_err(|e| format!("fleet cell failed: {e}")),
            other => Err(format!("expected one fleet cell, got {}", other.len())),
        }
    }
}

impl Workload for FleetLoadgen {
    type Output = FleetOut;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let cli_text = cli::run(&cli::argv(&FLEET_ARGV, seed))?;
        Ok(FleetLoadgen {
            seed,
            cli_text,
            first: OnceCell::new(),
        })
    }

    fn op(&self, probe: &mut Probe) -> Result<FleetOut, String> {
        let config = probe.span("loadgen.generate", |_| {
            loadgen_fleet(self.seed, FLEET_WORKLOADS, FLEET_RATE)
        });
        let cells = vec![FleetSweepCell::new(
            "spotverse",
            "spotverse",
            config.clone(),
        )];
        let cache = MarketCache::new();
        let markets = prewarm(probe, &cache, || cells.iter().map(|c| c.config.market));
        let jobs = resolve_jobs(Some(1), cells.len());
        let timed = probe.is_on();
        let outcomes = probe.span("fleet.self", |_| {
            run_fleet_matrix(&cells, jobs, &cache, |cell| {
                cli::strategy(&cell.strategy, timed)
            })
        });
        let text = probe.span("cli.render", |_| cli::render_fleet(&outcomes));
        Ok(FleetOut {
            outcomes,
            text,
            markets,
            cache,
        })
    }

    fn check(&self, out: &FleetOut) -> Result<(), String> {
        let report = out.report()?;
        let ended = report.aggregate.completed + report.expired;
        if ended != FLEET_WORKLOADS {
            return Err(format!("{ended} of {FLEET_WORKLOADS} workloads ended"));
        }
        expect_text(&out.text, &self.cli_text, "fleet")?;
        check_prewarmed(&out.markets, &out.cache)?;
        same_as_first(&self.first, report, "fleet report")
    }

    fn ended_workloads(&self) -> u64 {
        FLEET_WORKLOADS as u64
    }

    fn layers(&self, out: &FleetOut, probe: &Probe, m: &mut Layers) -> Result<(), String> {
        let report = out.report()?;
        let events = report.events as f64;
        let self_ns = probe.total_ns("fleet.self") - probe.strategy("fleet.self").nanos;
        m.set("fleet.events", events);
        m.set_ratio("fleet.ns_per_event", self_ns as f64, events);
        m.set_ratio(
            "fleet.allocs_per_event",
            probe.allocs("fleet.self") as f64,
            events,
        );
        m.set_experiment_counters([&report.aggregate]);
        market_layers(m, &out.markets, &out.cache);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// tournament_regimes
// ---------------------------------------------------------------------

const TOURNAMENT_INSTANCES: usize = 20;
const TOURNAMENT_REPS: u64 = 12;
const TOURNAMENT_ARGV: [&str; 11] = [
    "tournament",
    "--instances",
    "20",
    "--workload",
    "genome",
    "--seeds",
    "12",
    "--chaos",
    "regime",
    "--jobs",
    "1",
];
const GOLDEN_ARGV: [&str; 9] = [
    "tournament",
    "--instances",
    "2",
    "--workload",
    "ngs",
    "--seeds",
    "1",
    "--chaos",
    "regime",
];
const GOLDEN_LEADERBOARD: &str = "tests/golden/tournament/leaderboard.txt";

/// `tournament --instances 20 --workload genome --seeds 12 --chaos regime
/// --jobs 1`.
pub struct Tournament {
    seed: u64,
    cli_text: String,
    first: OnceCell<Vec<Vec<TournamentRow>>>,
}

pub struct TournamentOut {
    report: TournamentReport,
    text: String,
    markets: Vec<Arc<SpotMarket>>,
    cache: MarketCache,
}

fn standings_rows(report: &TournamentReport) -> Vec<Vec<TournamentRow>> {
    report.standings.iter().map(|s| s.rows.clone()).collect()
}

impl Tournament {
    /// The tournament as `spotverse tournament` configures it.
    fn config(&self) -> TournamentConfig {
        let rng = SimRng::seed_from_u64(self.seed);
        let mut fleet = FleetConfig::staggered(
            self.seed,
            INSTANCE_TYPE,
            paper_fleet(
                WorkloadKind::GenomeReconstruction,
                TOURNAMENT_INSTANCES,
                &rng,
            ),
            SimDuration::from_mins(60),
        );
        fleet.start = SimTime::from_days(1);
        fleet.max_runtime = SimDuration::from_days(30);
        let mut config = TournamentConfig::new(
            TOURNAMENT_STRATEGIES
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            MarketRegime::ALL.to_vec(),
            TOURNAMENT_REPS,
            fleet,
        );
        config.chaos = TournamentChaos::RegimeMatched;
        config
    }

    /// The fleet cells `run_tournament` builds for `config`: regime-major,
    /// then strategy, then repetition seed, each traced.
    fn cells(config: &TournamentConfig) -> Vec<FleetSweepCell> {
        let mut cells = Vec::with_capacity(config.cells());
        for &regime in &config.regimes {
            for strategy in &config.strategies {
                for rep in 0..config.reps {
                    let seed = config.base_seed + rep;
                    let mut fleet = config.fleet.clone();
                    fleet.seed = seed;
                    fleet.market.seed = seed;
                    fleet.market = fleet.market.with_regime(regime);
                    fleet.chaos = chaos::for_regime(regime);
                    fleet.trace = TraceConfig::enabled();
                    let label = format!("{strategy}@{}/s{seed}", regime.name());
                    cells.push(FleetSweepCell::new(label, strategy.clone(), fleet));
                }
            }
        }
        cells
    }
}

impl Workload for Tournament {
    type Output = TournamentOut;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let golden_path = Path::new(crate::REPO_ROOT).join(GOLDEN_LEADERBOARD);
        let golden = std::fs::read_to_string(&golden_path)
            .map_err(|e| format!("{}: {e}", golden_path.display()))?;
        let argv: Vec<String> = GOLDEN_ARGV.iter().map(|s| (*s).to_owned()).collect();
        expect_text(&cli::run(&argv)?, &golden, &GOLDEN_ARGV.join(" "))?;
        let cli_text = cli::run(&cli::argv(&TOURNAMENT_ARGV, seed))?;
        Ok(Tournament {
            seed,
            cli_text,
            first: OnceCell::new(),
        })
    }

    fn op(&self, probe: &mut Probe) -> Result<TournamentOut, String> {
        let config = self.config();
        let cache = MarketCache::new();
        let jobs = resolve_jobs(Some(1), config.cells());
        let markets = prewarm(probe, &cache, || {
            Tournament::cells(&config)
                .into_iter()
                .map(|c| c.config.market)
        });
        let timed = probe.is_on();
        let (report, text) = probe.span("tournament.self", |_| {
            let report = run_tournament(&config, jobs, &cache, |name| cli::strategy(name, timed));
            let mut text = cli::tournament_header(
                config.strategies.len(),
                config.regimes.len(),
                config.reps,
                config.cells(),
                TOURNAMENT_INSTANCES,
            );
            text.push_str(&render_tournament(&report));
            (report, text)
        });
        Ok(TournamentOut {
            report,
            text,
            markets,
            cache,
        })
    }

    fn check(&self, out: &TournamentOut) -> Result<(), String> {
        if !out.report.failed.is_empty() {
            return Err(format!("failed cells: {}", out.report.failed.join(", ")));
        }
        let workloads: usize = out
            .report
            .standings
            .iter()
            .flat_map(|s| &s.rows)
            .map(|r| r.workloads)
            .sum();
        if workloads as u64 != self.ended_workloads() {
            return Err(format!("leaderboard covers {workloads} workloads"));
        }
        expect_text(&out.text, &self.cli_text, "tournament")?;
        check_prewarmed(&out.markets, &out.cache)?;
        same_as_first(&self.first, &standings_rows(&out.report), "leaderboard")
    }

    fn ended_workloads(&self) -> u64 {
        let cells =
            TOURNAMENT_STRATEGIES.len() * MarketRegime::ALL.len() * TOURNAMENT_REPS as usize;
        (cells * TOURNAMENT_INSTANCES) as u64
    }

    fn layers(&self, out: &TournamentOut, _probe: &Probe, m: &mut Layers) -> Result<(), String> {
        market_layers(m, &out.markets, &out.cache);
        Ok(())
    }

    /// `run_tournament` keeps its fleet reports and traces to itself, so
    /// the traced run re-runs the same cells through `run_fleet_matrix`
    /// and checks they add up to the leaderboard's rows.
    fn counter_pass(&self, m: &mut Layers) -> Result<(), String> {
        let config = self.config();
        let cells = Tournament::cells(&config);
        let cache = MarketCache::new();
        for cell in &cells {
            cache.get_or_build(cell.config.market);
        }
        let allocs = alloc::tally().allocs;
        let calls = STRATEGY_CALLS.totals();
        let start = Instant::now();
        let outcomes = run_fleet_matrix(&cells, 1, &cache, |cell| {
            cli::strategy(&cell.strategy, true)
        });
        let fleet_ns = start.elapsed().as_nanos() as u64;
        let allocs = alloc::tally().allocs - allocs;
        let calls = STRATEGY_CALLS.totals().since(calls);

        let rows = self
            .first
            .get()
            .ok_or("no checked tournament operation to compare with")?;
        let block = config.strategies.len() * config.reps as usize;
        for (r, standing) in rows.iter().enumerate() {
            for row in standing {
                let mut sum = (0, 0, 0.0, 0);
                for o in outcomes[r * block..(r + 1) * block]
                    .iter()
                    .filter(|o| o.strategy == row.strategy)
                {
                    let agg = &o
                        .report()
                        .ok_or_else(|| format!("cell {} failed", o.label))?
                        .aggregate;
                    sum = (
                        sum.0 + agg.completed,
                        sum.1 + agg.workloads,
                        sum.2 + agg.cost.total.amount(),
                        sum.3 + agg.interruptions,
                    );
                }
                if sum != (row.completed, row.workloads, row.cost, row.interruptions) {
                    return Err(format!(
                        "re-run cells disagree with the leaderboard row for {}",
                        row.strategy
                    ));
                }
            }
        }

        let mut events = 0;
        let mut records = 0;
        let mut dropped = 0;
        let mut reports = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            let report = o
                .report()
                .ok_or_else(|| format!("cell {} failed", o.label))?;
            let trace = report
                .aggregate
                .trace
                .as_ref()
                .ok_or_else(|| format!("cell {} has no trace", o.label))?;
            events += report.events;
            records += trace.events.len();
            dropped += trace.dropped;
            reports.push(&report.aggregate);
        }
        if dropped > 0 {
            return Err(format!("tournament traces dropped {dropped} records"));
        }
        let start = Instant::now();
        let merged = merged_fleet_trace_jsonl(&outcomes);
        m.set_ns("trace.export_s", start.elapsed().as_nanos() as u64);
        m.set("trace.records", records as f64);
        m.set("trace.bytes", merged.len() as f64);
        m.set("trace.dropped", 0.0);
        m.set("fleet.events", events as f64);
        m.set_ns("fleet.self_s", fleet_ns - calls.nanos);
        m.set_ratio(
            "fleet.ns_per_event",
            (fleet_ns - calls.nanos) as f64,
            events as f64,
        );
        m.set_ratio("fleet.allocs_per_event", allocs as f64, events as f64);
        m.set_experiment_counters(reports);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// sweep_orchestrated
// ---------------------------------------------------------------------

const SWEEP_SEEDS: u64 = 400;
const SWEEP_ARGV: [&str; 11] = [
    "sweep",
    "--instances",
    "1",
    "--workload",
    "ngs",
    "--strategy",
    "all",
    "--seeds",
    "400",
    "--orchestrated",
    "true",
];

/// `sweep --instances 1 --workload ngs --strategy all --seeds 400
/// --orchestrated true`.
pub struct Sweep {
    seed: u64,
    cli_text: String,
    /// The same cells run in-process by `run_matrix`.
    reference: Vec<CellOutcome>,
}

pub struct SweepOut {
    report: OrchestratedSweepReport,
    text: String,
    markets: Vec<Arc<SpotMarket>>,
    /// Kept by traced operations only, for the in-process comparison run.
    traced: Option<(Vec<SweepCell>, MarketCache)>,
}

impl Sweep {
    /// The cells `spotverse sweep` builds: strategy-major, one per seed.
    fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(FLEET_STRATEGIES.len() * SWEEP_SEEDS as usize);
        for name in FLEET_STRATEGIES {
            for s in 0..SWEEP_SEEDS {
                let seed = self.seed + s;
                let rng = SimRng::seed_from_u64(seed);
                let mut config = ExperimentConfig::new(
                    seed,
                    INSTANCE_TYPE,
                    paper_fleet(WorkloadKind::NgsPreprocessing, 1, &rng),
                );
                config.start = SimTime::from_days(1);
                config.market = config.market.with_regime(MarketRegime::Baseline);
                cells.push(SweepCell::new(format!("{name}/s{seed}"), name, config));
            }
        }
        cells
    }
}

impl Workload for Sweep {
    type Output = SweepOut;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let cli_text = cli::run(&cli::argv(&SWEEP_ARGV, seed))?;
        let mut sweep = Sweep {
            seed,
            cli_text,
            reference: Vec::new(),
        };
        sweep.reference = run_matrix(&sweep.cells(), 1, &MarketCache::new(), |cell| {
            cli::strategy(&cell.strategy, false)
        });
        Ok(sweep)
    }

    fn op(&self, probe: &mut Probe) -> Result<SweepOut, String> {
        let cells = self.cells();
        let cache = MarketCache::new();
        let markets = prewarm(probe, &cache, || cells.iter().map(|c| c.config.market));
        let orchestrator = OrchestratorConfig {
            seed: self.seed,
            shard_size: 1,
            max_attempts: 4,
            chaos: None,
            ..OrchestratorConfig::default()
        };
        let timed = probe.is_on();
        let report = probe.span("orchestrate.self", |_| {
            run_matrix_orchestrated(&cells, &orchestrator, &cache, |cell| {
                cli::strategy(&cell.strategy, timed)
            })
        });
        let text = probe.span("cli.render", |_| cli::render_orchestrated_sweep(&report));
        let traced = timed.then_some((cells, cache));
        Ok(SweepOut {
            report,
            text,
            markets,
            traced,
        })
    }

    fn check(&self, out: &SweepOut) -> Result<(), String> {
        if !out.report.dead_letters.is_empty() {
            return Err(format!(
                "{} shards dead-lettered",
                out.report.dead_letters.len()
            ));
        }
        if out.report.outcomes != self.reference {
            return Err(
                "orchestrated outcomes differ from the in-process run_matrix reference".into(),
            );
        }
        expect_text(&out.text, &self.cli_text, "sweep")?;
        match &out.traced {
            Some((_, cache)) => check_prewarmed(&out.markets, cache),
            None => Ok(()),
        }
    }

    fn ended_workloads(&self) -> u64 {
        self.reference
            .iter()
            .filter_map(|o| o.report())
            .map(|r| r.workloads as u64)
            .sum()
    }

    fn layers(&self, out: &SweepOut, probe: &Probe, m: &mut Layers) -> Result<(), String> {
        let s = &out.report.stats;
        m.set("orchestrate.dispatches", s.dispatches as f64);
        m.set("orchestrate.redrives", s.redrives as f64);
        m.set("orchestrate.lease_expiries", s.lease_expiries as f64);
        m.set(
            "orchestrate.duplicate_executions",
            s.duplicate_executions as f64,
        );
        m.set("orchestrate.service_cost_usd", s.service_cost.amount());
        m.set_experiment_counters(out.report.outcomes.iter().filter_map(|o| o.report()));
        let (cells, cache) = out.traced.as_ref().ok_or("traced sweep kept no cells")?;
        market_layers(m, &out.markets, cache);

        // The same cells in-process, on the same warm cache: the
        // orchestrator's overhead is the difference.
        let start = Instant::now();
        let in_process = run_matrix(cells, 1, cache, |cell| cli::strategy(&cell.strategy, true));
        let in_process_ns = start.elapsed().as_nanos() as i128;
        if in_process != self.reference {
            return Err("in-process re-run differs from the reference".into());
        }
        let overhead_ns = probe.total_ns("orchestrate.self") as i128 - in_process_ns;
        m.set("orchestrate.overhead_s", overhead_ns as f64 * 1e-9);
        Ok(())
    }

    /// `ExperimentReport` carries no event count, so the traced run re-runs
    /// each cell as the equivalent fleet, whose report must equal the
    /// cell's, and counts the events.
    fn counter_pass(&self, m: &mut Layers) -> Result<(), String> {
        let cells = self.cells();
        let cache = MarketCache::new();
        let markets: Vec<Arc<SpotMarket>> = cells
            .iter()
            .map(|c| cache.get_or_build(c.config.market))
            .collect();
        let allocs = alloc::tally().allocs;
        let calls = STRATEGY_CALLS.totals();
        let start = Instant::now();
        let mut events = 0;
        for ((cell, market), reference) in cells.iter().zip(markets).zip(&self.reference) {
            let fleet = run_fleet_on(
                market,
                FleetConfig::from_experiment(&cell.config),
                cli::strategy(&cell.strategy, true),
            );
            if Some(&fleet.aggregate) != reference.report() {
                return Err(format!(
                    "cell {} run as a fleet differs from run_matrix",
                    cell.label
                ));
            }
            events += fleet.events;
        }
        let fleet_ns = start.elapsed().as_nanos() as u64;
        let allocs = alloc::tally().allocs - allocs;
        let calls = STRATEGY_CALLS.totals().since(calls);
        m.set("fleet.events", events as f64);
        m.set_ns("fleet.self_s", fleet_ns - calls.nanos);
        m.set_ratio(
            "fleet.ns_per_event",
            (fleet_ns - calls.nanos) as f64,
            events as f64,
        );
        m.set_ratio("fleet.allocs_per_event", allocs as f64, events as f64);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// analyse_trace
// ---------------------------------------------------------------------

const ANALYSE_WORKLOADS: usize = 5000;
const ANALYSE_RATE: f64 = 400.0;
const TRACE_ARGV: [&str; 13] = [
    "fleet",
    "--loadgen",
    "poisson",
    "--workloads",
    "5000",
    "--rate",
    "400",
    "--strategy",
    "all",
    "--output",
    "trace",
    "--jobs",
    "1",
];

/// `analyse` over the merged trace of `fleet --loadgen poisson --workloads
/// 5000 --rate 400 --strategy all --output trace --jobs 1`.
pub struct Analyse {
    path: PathBuf,
    /// The trace text, kept for the separate parse timing.
    text: String,
    cli_text: String,
    /// Per cell: label, completed workloads and billed instance dollars
    /// from the live fleet report.
    live: Vec<(String, usize, f64)>,
    ended: u64,
    records: usize,
    export_ns: u64,
}

pub struct AnalyseOut {
    state: ReplayState,
    rendered: String,
}

impl Workload for Analyse {
    type Output = AnalyseOut;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let mut config = loadgen_fleet(seed, ANALYSE_WORKLOADS, ANALYSE_RATE);
        config.trace = TraceConfig::enabled();
        let cells: Vec<FleetSweepCell> = FLEET_STRATEGIES
            .iter()
            .map(|n| FleetSweepCell::new(*n, *n, config.clone()))
            .collect();
        let jobs = resolve_jobs(Some(1), cells.len());
        let outcomes = run_fleet_matrix(&cells, jobs, &MarketCache::new(), |cell| {
            cli::strategy(&cell.strategy, false)
        });
        let mut live = Vec::with_capacity(outcomes.len());
        let (mut ended, mut records) = (0, 0);
        for o in &outcomes {
            let report = o
                .report()
                .ok_or_else(|| format!("cell {} failed", o.label))?;
            let trace = report
                .aggregate
                .trace
                .as_ref()
                .ok_or_else(|| format!("cell {} has no trace", o.label))?;
            if trace.dropped > 0 {
                return Err(format!(
                    "cell {} dropped {} trace records",
                    o.label, trace.dropped
                ));
            }
            records += trace.events.len();
            ended += (report.aggregate.completed + report.expired) as u64;
            let cost = &report.aggregate.cost;
            live.push((
                o.label.clone(),
                report.aggregate.completed,
                (cost.spot_instances + cost.on_demand_instances).amount(),
            ));
        }
        let start = Instant::now();
        let text = merged_fleet_trace_jsonl(&outcomes);
        let export_ns = start.elapsed().as_nanos() as u64;
        expect_text(
            &text,
            &cli::run(&cli::argv(&TRACE_ARGV, seed))?,
            &TRACE_ARGV.join(" "),
        )?;

        let path = dir.join(format!("trace-{seed}.jsonl"));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let cli_text = cli::run(&["analyse".to_owned(), path.display().to_string()])?;
        Ok(Analyse {
            path,
            text,
            cli_text,
            live,
            ended,
            records,
            export_ns,
        })
    }

    fn op(&self, probe: &mut Probe) -> Result<AnalyseOut, String> {
        let text = probe
            .span("io.read", |_| std::fs::read_to_string(&self.path))
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        let state = probe
            .span("replay.feed", |_| {
                let mut cursor = ReplayCursor::new(TimeWindow {
                    from: None,
                    until: None,
                });
                cursor.feed(&text)?;
                if !text.ends_with('\n') {
                    cursor.feed("\n")?;
                }
                cursor.finish()
            })
            .map_err(|e| e.to_string())?;
        let rendered = probe.span("replay.render", |_| render_analysis(&state));
        Ok(AnalyseOut { state, rendered })
    }

    fn check(&self, out: &AnalyseOut) -> Result<(), String> {
        expect_text(&out.rendered, &self.cli_text, "analyse")?;
        if out.state.cells.len() != self.live.len() {
            return Err(format!(
                "replay found {} cells, expected {}",
                out.state.cells.len(),
                self.live.len()
            ));
        }
        for (label, completed, billed) in &self.live {
            let cell = out
                .state
                .cell(label)
                .ok_or_else(|| format!("cell {label} missing from the replay"))?;
            if cell.dropped.is_some() {
                return Err(format!("cell {label} replayed as truncated"));
            }
            if cell.summary.completed != *completed {
                return Err(format!(
                    "cell {label}: replay completed {} != live {completed}",
                    cell.summary.completed
                ));
            }
            if (cell.ledger.billed_total() - billed).abs() > 1e-6 {
                return Err(format!(
                    "cell {label}: replay billed {} != live {billed}",
                    cell.ledger.billed_total()
                ));
            }
        }
        Ok(())
    }

    fn ended_workloads(&self) -> u64 {
        self.ended
    }

    fn layers(&self, _out: &AnalyseOut, probe: &Probe, m: &mut Layers) -> Result<(), String> {
        m.set("trace.records", self.records as f64);
        m.set("trace.bytes", self.text.len() as f64);
        m.set("trace.dropped", 0.0);
        m.set_ns("trace.export_s", self.export_ns);
        m.set_ratio(
            "replay.allocs_per_line",
            probe.allocs("replay.feed") as f64,
            self.records as f64,
        );
        let pipeline_ns = ["io.read", "replay.feed", "replay.render"]
            .iter()
            .map(|s| probe.total_ns(s))
            .sum::<u64>();
        m.set_ratio(
            "replay.mb_per_s",
            self.text.len() as f64 * 1e3,
            pipeline_ns as f64,
        );

        let start = Instant::now();
        let lines = parse_trace_jsonl(&self.text).map_err(|e| e.to_string())?;
        m.set_ns("replay.parse_s", start.elapsed().as_nanos() as u64);
        if lines.len() != self.records {
            return Err(format!(
                "parse_trace_jsonl read {} lines, expected {}",
                lines.len(),
                self.records
            ));
        }
        Ok(())
    }
}
