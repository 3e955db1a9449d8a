//! CLI subcommands: each builds its inputs from parsed flags, runs against
//! the simulator, and renders plain-text output (returned as a `String` so
//! commands are unit-testable without capturing stdout).

use std::fmt;

use bio_workloads::{paper_fleet, WorkloadKind, WorkloadSpec};
use chaos::ChaosScenario;
use cloud_market::history::{archive_to_csv, collect_archive};
use cloud_market::{InstanceType, MarketConfig, MarketRegime, Region, SpotMarket};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    merged_trace_jsonl, render_analysis, render_analysis_json, render_tournament, resolve_jobs,
    run_experiment, run_matrix, run_matrix_orchestrated, run_tournament, summary_line,
    trace_to_jsonl, BidPriceAwareStrategy, CellConfig, CellOutcome, CheckpointAdaptiveStrategy,
    ExperimentConfig, ExperimentReport, FleetConfig, FleetReport, LoadProfile, MarketCache,
    Monitor, NaiveMultiRegionStrategy, OnDemandStrategy, OrchestratorConfig, ReplayCursor,
    SingleRegionStrategy, SkyPilotStrategy, SpotVerseConfig, SpotVerseStrategy, Strategy,
    SweepCell, SweepOutcome, TimeWindow, TournamentChaos, TournamentConfig, TraceConfig,
    WorkloadPhase,
};

use crate::args::{ArgError, ParsedArgs};
use galaxy_flow::to_ga_json;

/// CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// A flag value outside its domain (e.g. unknown strategy name).
    BadInput(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::BadInput(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Top-level usage text.
pub fn usage() -> String {
    "\
spotverse — multi-region spot-instance experiment simulator

USAGE:
    spotverse <command> [flags]

COMMANDS:
    simulate    run one strategy over a workload fleet and print its report
    fleet       multiplex N staggered workloads over one shared control
                plane, with optional per-region concurrency caps
    compare     run every strategy on the same market and print a table
    sweep       run a strategies × seeds cell matrix, in-process or
                re-hosted on the distributed orchestrator
    chaos       fault-injection matrix: strategies × scenarios, with the
                degradation vs the fault-free run
    tournament  strategies × market regimes leaderboard: every strategy
                runs the same fleet under every regime (optionally with
                regime-matched chaos) and is ranked per regime on
                completions, then cost, then makespan
    advisor     show per-region scores (Algorithm 1's inputs) at an instant
    trace       run one strategy with the decision recorder on and print
                the canonical JSONL trace (optionally under a scenario)
    analyse     replay trace JSONL files (single runs, merged sweeps,
                fleet traces) into derived analytics views: cost ledgers,
                breaker timelines, occupancy, distributions, win matrices
    traces      export a SpotLake-style market archive as CSV
    workflow    export one of the paper's workflows as a Galaxy .ga document
    help        show this message

COMMON FLAGS:
    --seed <u64>             experiment seed            (default 2024)
    --instances <n>          fleet size                 (default 20)
    --instance-type <name>   e.g. m5.xlarge             (default m5.xlarge)
    --workload <kind>        genome | ngs | qiime       (default genome)
    --start-day <d>          day offset into the market (default 1)

SIMULATE / TRACE FLAGS:
    --strategy <name>        spotverse | single-region | on-demand |
                             skypilot | naive-multi | bid-price |
                             checkpoint-adaptive        (default spotverse)
    --threshold <t>          Algorithm 1 threshold      (default 6)
    --region <name>          region for single-region   (default ca-central-1)
    --regime <name>          market regime for the run: baseline |
                             capacity_crunch | correlated_shock |
                             regime_switching (default baseline; also
                             accepted by fleet, compare, chaos, sweep)
    --scenario <name>        (trace only) fault scenario overlaying the run;
                             omit for a fault-free trace

FLEET FLAGS:
    --loadgen <profile>      generate the fleet from an arrival-process
                             profile: poisson | diurnal | burst; replaces
                             --instances/--spacing-mins/--workload
    --workloads <n>          generated fleet size           (default 100)
    --rate <r>               mean arrivals per hour         (default 12)
    --spacing-mins <m>       arrival gap between workloads  (default 60)
    --capacity <k>           per-region cap on concurrently running
                             instances; omit for unbounded
    --deadline-days <d>      per-workload runtime budget    (default 30)
    --strategy <name>        as simulate, or `all` to sweep every
                             strategy over the same fleet   (default spotverse)
    --output <form>          table | trace (merged JSONL)   (default table)
    --jobs <n>               as compare; cells are strategies

COMPARE / CHAOS FLAGS:
    --jobs <n>               sweep worker threads; falls back to the
                             SPOTVERSE_JOBS env var, then
                             min(cells, CPU cores). Output is identical
                             for any value.

SWEEP FLAGS:
    --strategy <name>        as simulate, or `all`          (default spotverse)
    --seeds <n>              cells per strategy, at seeds
                             seed..seed+n                   (default 1)
    --orchestrated <bool>    true re-hosts the sweep on the distributed
                             shard orchestrator (leases, re-drives,
                             dead-letters)                  (default false)
    --scenario <name>        chaos scenario faulting the *orchestration*
                             services (requires --orchestrated true);
                             e.g. sweep_shard_chaos
    --shard-size <n>         cells per dispatched shard     (default 1)
    --max-attempts <n>       attempts before dead-letter    (default 4)
    --output <form>          table | trace (merged JSONL)   (default table)
    --jobs <n>               as compare (in-process mode only)

TOURNAMENT FLAGS:
    --regime <name>          baseline | capacity_crunch | correlated_shock |
                             regime_switching | all     (default all)
    --strategy <name>        as simulate, or `all` for the full field
                             including bid-price and checkpoint-adaptive
                                                        (default all)
    --seeds <n>              repetition seeds per (strategy, regime)
                             pairing, at seed..seed+n   (default 1)
    --chaos <mode>           off | regime (each non-baseline regime runs
                             its matched scenario) | a fixed scenario
                             name applied to every cell (default off)
    --spacing-mins <m>       arrival gap between workloads  (default 60)
    --deadline-days <d>      per-workload runtime budget    (default 30)
    --jobs <n>               as compare; cells are
                             strategies × regimes × seeds

CHAOS FLAGS:
    --scenario <name>        region_blackout | notice_loss | throttle_storm |
                             correlated_crunch | flaky_checkpoints |
                             telemetry_blackout | region_flap |
                             sweep_shard_chaos | all
                                                        (default all)
    --strategy <name>        as simulate, or `all`      (default all)

ANALYSE (positional args are trace JSONL files):
    --from <secs>            fold only records at sim-time >= secs
    --until <secs>           fold only records at sim-time <  secs
    --output <form>          table | json               (default table)

ADVISOR / TRACES FLAGS:
    --day <d>                advisor snapshot day       (default 1)
    --days <n>               trace length in days       (default 14)

WORKFLOW FLAGS:
    --workload <kind>        genome | ngs | qiime       (default genome)
    --duration-hours <h>     total workflow duration    (default 10)
"
    .to_owned()
}

fn parse_workload(name: &str) -> Result<WorkloadKind, CliError> {
    match name {
        "genome" => Ok(WorkloadKind::GenomeReconstruction),
        "ngs" => Ok(WorkloadKind::NgsPreprocessing),
        "qiime" => Ok(WorkloadKind::StandardGeneral),
        other => Err(CliError::BadInput(format!(
            "unknown workload `{other}` (expected genome | ngs | qiime)"
        ))),
    }
}

fn parse_instance_type(name: &str) -> Result<InstanceType, CliError> {
    name.parse()
        .map_err(|e| CliError::BadInput(format!("{e}")))
}

/// An optional flag that must be a positive integer when given, such as
/// `--jobs` (absent means "resolve from the environment") or
/// `--capacity` (absent means unbounded).
fn opt_positive<T>(args: &ParsedArgs, flag: &str) -> Result<Option<T>, CliError>
where
    T: std::str::FromStr + Default + PartialOrd,
{
    args.opt_str(flag)
        .map(|raw| {
            raw.parse::<T>()
                .ok()
                .filter(|n| *n > T::default())
                .ok_or_else(|| {
                    CliError::BadInput(format!("--{flag}: `{raw}` is not a positive integer"))
                })
        })
        .transpose()
}

/// `--regime` on a single-regime command: one named regime, default
/// `baseline` (`tournament` interprets the flag itself to allow `all`).
fn parse_regime(args: &ParsedArgs) -> Result<MarketRegime, CliError> {
    args.str_or("regime", "baseline")
        .parse()
        .map_err(CliError::BadInput)
}

/// A `u64` flag that must be positive.
fn positive(args: &ParsedArgs, flag: &str, default: u64) -> Result<u64, CliError> {
    match args.u64_or(flag, default)? {
        0 => Err(CliError::BadInput(format!("--{flag} must be positive"))),
        n => Ok(n),
    }
}

/// A chaos scenario by name; `or_all` adds the `all` a command also
/// accepts to the list the error names.
fn parse_scenario(name: &str, or_all: bool) -> Result<ChaosScenario, CliError> {
    chaos::by_name(name).ok_or_else(|| {
        CliError::BadInput(format!(
            "unknown scenario `{name}` (expected {}{})",
            chaos::SCENARIO_NAMES.join(" | "),
            if or_all { " | all" } else { "" },
        ))
    })
}

/// The paper's five strategies: what `compare` runs, and what `fleet` and
/// `sweep` run for `--strategy all`.
const PAPER_STRATEGIES: [&str; 5] = [
    "single-region",
    "naive-multi",
    "skypilot",
    "spotverse",
    "on-demand",
];

/// The flags every run command shares, parsed once: the fleet, where and
/// when it starts, and what the strategies are built with.
struct Run {
    seed: u64,
    instances: usize,
    instance_type: InstanceType,
    kind: WorkloadKind,
    start: SimTime,
    threshold: u8,
    region: Region,
}

impl Run {
    fn parse(args: &ParsedArgs) -> Result<Run, CliError> {
        let seed = args.u64_or("seed", 2024)?;
        let instances = positive(args, "instances", 20)? as usize;
        let instance_type = parse_instance_type(args.str_or("instance-type", "m5.xlarge"))?;
        let kind = parse_workload(args.str_or("workload", "genome"))?;
        let start_day = args.u64_or("start-day", 1)?;
        let horizon = MarketConfig::default().horizon_days;
        if start_day >= u64::from(horizon) {
            return Err(CliError::BadInput(format!(
                "--start-day: day {start_day} is not before the {horizon}-day market horizon"
            )));
        }
        let threshold = args.u8_or("threshold", 6)?;
        let region = args
            .str_or("region", "ca-central-1")
            .parse()
            .map_err(|e| CliError::BadInput(format!("{e}")))?;
        Ok(Run {
            seed,
            instances,
            instance_type,
            kind,
            start: SimTime::from_days(start_day),
            threshold,
            region,
        })
    }

    /// The paper fleet of `--instances` `--workload` workloads, drawn at
    /// `seed`.
    fn specs(&self, seed: u64) -> Vec<WorkloadSpec> {
        paper_fleet(self.kind, self.instances, &SimRng::seed_from_u64(seed))
    }

    /// An experiment over [`specs`](Self::specs) at `seed`, on a market in
    /// `regime`.
    fn experiment(&self, seed: u64, regime: MarketRegime) -> ExperimentConfig {
        let mut config = ExperimentConfig::new(seed, self.instance_type, self.specs(seed));
        config.start = self.start;
        config.market = config.market.with_regime(regime);
        config
    }

    /// The fleet arriving `spacing` apart, from `--start-day`.
    fn staggered(&self, spacing: SimDuration) -> FleetConfig {
        let mut fleet = FleetConfig::staggered(
            self.seed,
            self.instance_type,
            self.specs(self.seed),
            spacing,
        );
        fleet.start = self.start;
        fleet
    }

    fn strategy(&self, name: &str) -> Result<Box<dyn Strategy>, CliError> {
        match name {
            "spotverse" => Ok(Box::new(SpotVerseStrategy::new(
                SpotVerseConfig::builder(self.instance_type)
                    .threshold(self.threshold)
                    .build(),
            ))),
            "single-region" => Ok(Box::new(SingleRegionStrategy::new(self.region))),
            "on-demand" => Ok(Box::new(OnDemandStrategy::new())),
            "skypilot" => Ok(Box::new(SkyPilotStrategy::new())),
            "naive-multi" => Ok(Box::new(NaiveMultiRegionStrategy::paper_motivational())),
            "bid-price" => Ok(Box::new(BidPriceAwareStrategy::new())),
            "checkpoint-adaptive" => Ok(Box::new(CheckpointAdaptiveStrategy::new())),
            other => Err(CliError::BadInput(format!(
                "unknown strategy `{other}` (expected spotverse | single-region | on-demand | \
                 skypilot | naive-multi | bid-price | checkpoint-adaptive)"
            ))),
        }
    }

    /// A `--strategy` value: `all` gives `all`; one name is validated up
    /// front so [`strategy_for`](Self::strategy_for) can rely on it.
    fn strategies<'a>(&self, arg: &'a str, all: &[&'a str]) -> Result<Vec<&'a str>, CliError> {
        if arg == "all" {
            return Ok(all.to_vec());
        }
        self.strategy(arg)?;
        Ok(vec![arg])
    }

    /// The per-cell strategy factory, over names already validated.
    fn strategy_for(&self) -> impl Fn(&str) -> Box<dyn Strategy> + Sync + '_ {
        |name| {
            self.strategy(name)
                .expect("strategy names validated before the run")
        }
    }

    /// Runs `cells` in-process on `jobs` workers (resolved as
    /// [`resolve_jobs`] does) over one market cache.
    fn matrix<C: CellConfig>(
        &self,
        cells: &[SweepCell<C>],
        jobs: Option<usize>,
    ) -> Vec<SweepOutcome<C::Report>> {
        let strategy_for = self.strategy_for();
        let jobs = resolve_jobs(jobs, cells.len());
        run_matrix(cells, jobs, &MarketCache::new(), |cell| {
            strategy_for(&cell.strategy)
        })
    }
}

fn render_report(report: &ExperimentReport) -> String {
    let mut out = String::new();
    out.push_str(&summary_line(report));
    out.push('\n');
    out.push_str(&format!(
        "  cost breakdown: spot {}  on-demand {}  transfer {}  shared services {}\n",
        report.cost.spot_instances,
        report.cost.on_demand_instances,
        report.cost.data_transfer,
        report.cost.shared_services,
    ));
    out.push_str(&format!(
        "  instance-hours {:.1}   spot requests {}/{} fulfilled\n",
        report.instance_hours, report.spot_fulfillments, report.spot_attempts,
    ));
    if !report.interruptions_by_region.is_empty() {
        out.push_str("  interruptions by region:");
        for (region, n) in &report.interruptions_by_region {
            out.push_str(&format!(" {region}={n}"));
        }
        out.push('\n');
    }
    out
}

/// `spotverse simulate`.
pub fn simulate(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let config = run.experiment(run.seed, parse_regime(args)?);
    let strategy = run.strategy(args.str_or("strategy", "spotverse"))?;
    Ok(render_report(&run_experiment(config, strategy)))
}

fn phase_name(phase: WorkloadPhase) -> &'static str {
    match phase {
        WorkloadPhase::Pending => "pending",
        WorkloadPhase::Requesting => "requesting",
        WorkloadPhase::Running => "running",
        WorkloadPhase::Migrating => "migrating",
        WorkloadPhase::Completed => "completed",
        WorkloadPhase::Expired => "expired",
    }
}

fn render_fleet_report(report: &FleetReport) -> String {
    let mut out = String::new();
    out.push_str(&summary_line(&report.aggregate));
    out.push('\n');
    out.push_str(&format!(
        "  fleet: {} expired, {} capacity deferral(s)\n",
        report.expired, report.capacity_deferrals,
    ));
    out.push_str(&format!(
        "  {:<6} {:>13} {:<10} {:>11} {:>5} {:>8} {:>10} {:<14}\n",
        "id", "arrival", "phase", "completion", "intr", "launches", "billed", "region",
    ));
    for w in &report.workloads {
        let completion = match w.completion_time {
            Some(d) => format!("{:.1}h", d.as_hours_f64()),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "  {:<6} {:>13} {:<10} {:>11} {:>5} {:>8} {:>10} {:<14}\n",
            w.id,
            w.arrival.to_string(),
            phase_name(w.phase),
            completion,
            w.interruptions,
            w.launches,
            w.billed.to_string(),
            w.final_region,
        ));
    }
    out
}

/// `spotverse fleet`: N workloads with staggered arrivals multiplexed
/// over one shared control plane, optionally capacity-capped per region.
/// `--strategy all` sweeps every strategy over the same fleet shape on
/// one cached market via the sweep engine.
pub fn fleet(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let spacing = SimDuration::from_mins(args.u64_or("spacing-mins", 60)?);
    let deadline = SimDuration::from_days(positive(args, "deadline-days", 30)?);
    let capacity = opt_positive(args, "capacity")?;
    let output = args.str_or("output", "table");
    if !matches!(output, "table" | "trace") {
        return Err(CliError::BadInput(format!(
            "--output: `{output}` is not table | trace"
        )));
    }
    let strategies = run.strategies(args.str_or("strategy", "spotverse"), &PAPER_STRATEGIES)?;
    let jobs = opt_positive(args, "jobs")?;

    let mut config = match args.opt_str("loadgen") {
        Some(profile_name) => {
            let rate = match args.opt_str("rate") {
                None => 12.0,
                Some(raw) => raw
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| {
                        CliError::BadInput(format!("--rate: `{raw}` is not a positive number"))
                    })?,
            };
            let count = positive(args, "workloads", 100)? as usize;
            let profile = LoadProfile::named(profile_name, rate).ok_or_else(|| {
                CliError::BadInput(format!(
                    "unknown loadgen profile `{profile_name}` (expected poisson | diurnal | burst)"
                ))
            })?;
            let mut generated = profile.generate(run.seed, count, run.instance_type);
            generated.start = run.start;
            generated
        }
        None => run.staggered(spacing),
    };
    config.max_runtime = deadline;
    config.region_capacity = capacity;
    config.market = config.market.with_regime(parse_regime(args)?);
    if output == "trace" {
        config.trace = TraceConfig::enabled();
    }

    let cells: Vec<SweepCell<FleetConfig>> = strategies
        .iter()
        .map(|name| SweepCell::new(*name, *name, config.clone()))
        .collect();
    let outcomes = run.matrix(&cells, jobs);
    if output == "trace" {
        return Ok(merged_trace_jsonl(&outcomes));
    }
    let mut out = String::new();
    for outcome in &outcomes {
        match &outcome.result {
            Ok(report) => out.push_str(&render_fleet_report(report)),
            Err(e) => out.push_str(&format!("{:<20} FAILED: {e}\n", outcome.strategy)),
        }
    }
    Ok(out)
}

/// `spotverse compare`: every strategy on the same market, one sweep cell
/// per strategy, executed on the parallel sweep engine. All cells share a
/// single cached market construction.
pub fn compare(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let config = run.experiment(run.seed, parse_regime(args)?);
    let jobs = opt_positive(args, "jobs")?;
    let cells: Vec<SweepCell> = PAPER_STRATEGIES
        .iter()
        .map(|name| SweepCell::new(*name, *name, config.clone()))
        .collect();
    Ok(render_sweep_cells(&run.matrix(&cells, jobs)))
}

/// `spotverse sweep`: a strategies × seeds cell matrix. In-process it runs
/// on the parallel sweep engine; with `--orchestrated true` the same cells
/// are re-hosted on the distributed shard orchestrator (event-bus
/// dispatch, KV leases, re-drives, dead-letters), optionally with a chaos
/// scenario faulting the orchestration services. Fault-free, both modes
/// print byte-identical cell output (`--output trace` is byte-identical
/// end to end).
pub fn sweep(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let seeds = positive(args, "seeds", 1)?;
    let strategies = run.strategies(args.str_or("strategy", "spotverse"), &PAPER_STRATEGIES)?;
    let orchestrated = match args.str_or("orchestrated", "false") {
        "true" => true,
        "false" => false,
        other => {
            return Err(CliError::BadInput(format!(
                "--orchestrated: `{other}` is not true | false"
            )))
        }
    };
    let output = args.str_or("output", "table");
    if output != "table" && output != "trace" {
        return Err(CliError::BadInput(format!(
            "unknown output `{output}` (expected table | trace)"
        )));
    }
    let scenario = args
        .opt_str("scenario")
        .map(|name| parse_scenario(name, false))
        .transpose()?;
    if scenario.is_some() && !orchestrated {
        return Err(CliError::BadInput(
            "--scenario faults the orchestration services; it requires --orchestrated true".into(),
        ));
    }
    let regime = parse_regime(args)?;
    let jobs = opt_positive(args, "jobs")?;
    let mut cells: Vec<SweepCell> = Vec::with_capacity(strategies.len() * seeds as usize);
    for name in &strategies {
        for seed in run.seed..run.seed + seeds {
            let mut config = run.experiment(seed, regime);
            if output == "trace" {
                config.trace = TraceConfig::enabled();
            }
            cells.push(SweepCell::new(format!("{name}/s{seed}"), *name, config));
        }
    }
    if !orchestrated {
        let outcomes = run.matrix(&cells, jobs);
        return Ok(match output {
            "trace" => merged_trace_jsonl(&outcomes),
            _ => render_sweep_cells(&outcomes),
        });
    }
    let orch_config = OrchestratorConfig {
        seed: run.seed,
        shard_size: positive(args, "shard-size", 1)? as usize,
        max_attempts: positive(args, "max-attempts", 4)? as u32,
        chaos: scenario,
        ..OrchestratorConfig::default()
    };
    let strategy_for = run.strategy_for();
    let report = run_matrix_orchestrated(&cells, &orch_config, &MarketCache::new(), |cell| {
        strategy_for(&cell.strategy)
    });
    if output == "trace" {
        return Ok(merged_trace_jsonl(&report.outcomes));
    }
    let mut out = render_sweep_cells(&report.outcomes);
    let s = &report.stats;
    out.push_str(&format!(
        "orchestration: shards {}  dispatches {}  redrives {}  lease-expiries {}  \
         duplicate-executions {}  bus-lost {}  bus-duplicated {}  service-cost {}\n",
        s.shards,
        s.dispatches,
        s.redrives,
        s.lease_expiries,
        s.duplicate_executions,
        s.bus_lost,
        s.bus_duplicated,
        s.service_cost,
    ));
    let completed = report.outcomes.iter().filter(|o| o.result.is_ok()).count();
    let dead = report.outcomes.len() - completed;
    out.push_str(&format!(
        "cells: {} total = {completed} completed + {dead} dead-lettered\n",
        report.outcomes.len(),
    ));
    for dl in &report.dead_letters {
        out.push_str(&format!(
            "dead-letter shard {} [{}]{}:",
            dl.shard,
            dl.labels.join(", "),
            if dl.recorded { "" } else { " (record write lost)" },
        ));
        for a in &dl.attempts {
            out.push_str(&format!(
                "  attempt {} @{}s: {}",
                a.attempt,
                a.dispatched_at.as_secs(),
                a.failure,
            ));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Cell rows shared by `compare` and both sweep modes: a summary line per
/// successful cell, a FAILED line per failed (e.g. dead-lettered) cell.
fn render_sweep_cells(outcomes: &[CellOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        match &outcome.result {
            Ok(report) => {
                out.push_str(&summary_line(report));
                out.push('\n');
            }
            Err(e) => out.push_str(&format!("{:<20} FAILED: {e}\n", outcome.label)),
        }
    }
    out
}

/// One row of the chaos table. A failed cell renders as a FAILED line with
/// the captured panic/error message; deltas print as `-` when there is no
/// fault-free baseline to compare against.
fn chaos_row(label: &str, outcome: &CellOutcome, baseline: Option<&ExperimentReport>) -> String {
    match &outcome.result {
        Err(e) => format!("{:<14} {:<19} FAILED: {e}\n", outcome.strategy, label),
        Ok(r) => {
            let (added_makespan, added_cost) = match baseline {
                Some(b) => (
                    format!("{:>+11.1}h", r.makespan.as_hours_f64() - b.makespan.as_hours_f64()),
                    format!("{:>+11.2}", r.cost.total.amount() - b.cost.total.amount()),
                ),
                None => (format!("{:>12}", "-"), format!("{:>11}", "-")),
            };
            format!(
                "{:<14} {:<19} {:>6}/{:<2} {:>11} {added_makespan} {:>10} {added_cost} {:>6} {:>6} {:>6} {:>6} {:>7.1}\n",
                r.strategy,
                label,
                r.completed,
                r.workloads,
                r.makespan.to_string(),
                r.cost.total.to_string(),
                r.checkpoints.torn_writes,
                r.checkpoints.corrupt_reads,
                r.resilience.breaker_trips,
                r.resilience.freshness.stale_serves,
                r.resilience.freshness.degraded_time.as_hours_f64(),
            )
        }
    }
}

/// `spotverse chaos`: the strategy × scenario degradation matrix. Every
/// cell runs the same fleet on the same market with a fault scenario
/// compiled against the experiment seed, and is compared against that
/// strategy's fault-free run.
pub fn chaos_matrix(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let base = run.experiment(run.seed, parse_regime(args)?);
    let scenarios: Vec<ChaosScenario> = match args.str_or("scenario", "all") {
        "all" => chaos::library(),
        name => vec![parse_scenario(name, true)?],
    };
    let strategies = run.strategies(
        args.str_or("strategy", "all"),
        &["single-region", "skypilot", "spotverse"],
    )?;
    let jobs = opt_positive(args, "jobs")?;
    // Strategy-major cells: per strategy one fault-free baseline followed
    // by one cell per scenario. All cells share one cached market — chaos
    // faults overlay on the read path and never mutate the base market.
    let group = 1 + scenarios.len();
    let mut cells: Vec<SweepCell> = Vec::with_capacity(strategies.len() * group);
    for name in &strategies {
        cells.push(SweepCell::new(
            format!("{name}/fault-free"),
            *name,
            base.clone(),
        ));
        for scenario in &scenarios {
            let mut config = base.clone();
            config.chaos = Some(scenario.clone());
            cells.push(SweepCell::new(
                format!("{name}/{}", scenario.name()),
                *name,
                config,
            ));
        }
    }
    let outcomes = run.matrix(&cells, jobs);
    let mut out = format!(
        "chaos degradation matrix  (seed {}, fleet {})\n\
         {:<14} {:<19} {:>9} {:>11} {:>12} {:>10} {:>11} {:>6} {:>6} {:>6} {:>6} {:>7}\n",
        run.seed,
        run.instances,
        "strategy",
        "scenario",
        "completed",
        "makespan",
        "Δmakespan",
        "cost",
        "Δcost",
        "torn",
        "corrupt",
        "trips",
        "stale",
        "degr-h",
    );
    for chunk in outcomes.chunks(group) {
        let baseline = chunk[0].report();
        out.push_str(&chaos_row("(fault-free)", &chunk[0], None));
        for (scenario, outcome) in scenarios.iter().zip(&chunk[1..]) {
            out.push_str(&chaos_row(scenario.name(), outcome, baseline));
        }
    }
    let recovered = outcomes.iter().filter(|c| c.recovered()).count();
    if recovered > 0 {
        out.push_str(&format!("({recovered} cell(s) recovered after one retry)\n"));
    }
    Ok(out)
}

/// `spotverse tournament`: every strategy under every market regime,
/// ranked per regime on completions, then billed cost, then makespan.
/// Cells run on the sweep engine with tracing on; the per-regime win
/// matrices are replayed from the merged traces, so the leaderboard
/// agrees with `spotverse analyse` by construction.
pub fn tournament(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let spacing = SimDuration::from_mins(args.u64_or("spacing-mins", 60)?);
    let deadline = SimDuration::from_days(positive(args, "deadline-days", 30)?);
    let reps = positive(args, "seeds", 1)?;
    let field = [&PAPER_STRATEGIES[..], &["bid-price", "checkpoint-adaptive"]].concat();
    let strategies = run.strategies(args.str_or("strategy", "all"), &field)?;
    let regimes: Vec<MarketRegime> = match args.str_or("regime", "all") {
        "all" => MarketRegime::ALL.to_vec(),
        name => vec![name.parse().map_err(CliError::BadInput)?],
    };
    let chaos_mode = match args.str_or("chaos", "off") {
        "off" => TournamentChaos::Off,
        "regime" => TournamentChaos::RegimeMatched,
        name => TournamentChaos::Fixed(chaos::by_name(name).ok_or_else(|| {
            CliError::BadInput(format!(
                "--chaos: `{name}` is not off | regime | one of {}",
                chaos::SCENARIO_NAMES.join(" | ")
            ))
        })?),
    };
    let jobs = opt_positive(args, "jobs")?;

    let mut fleet = run.staggered(spacing);
    fleet.max_runtime = deadline;
    let mut config = TournamentConfig::new(
        strategies.iter().map(|s| (*s).to_owned()).collect(),
        regimes,
        reps,
        fleet,
    );
    config.chaos = chaos_mode;
    let jobs = resolve_jobs(jobs, config.cells());
    let report = run_tournament(&config, jobs, &MarketCache::new(), run.strategy_for());
    let mut out = format!(
        "tournament: {} strategies × {} regimes × {} seed(s)  ({} cells, fleet {})\n",
        config.strategies.len(),
        config.regimes.len(),
        reps,
        config.cells(),
        run.instances,
    );
    out.push_str(&render_tournament(&report));
    Ok(out)
}

/// `spotverse trace`: one experiment with the decision-trace recorder
/// enabled, printed as canonical JSONL — one record per line, stable key
/// order, byte-identical across runs at the same seed.
pub fn trace(args: &ParsedArgs) -> Result<String, CliError> {
    let run = Run::parse(args)?;
    let mut config = run.experiment(run.seed, parse_regime(args)?);
    let strategy = run.strategy(args.str_or("strategy", "spotverse"))?;
    if let Some(name) = args.opt_str("scenario") {
        config.chaos = Some(parse_scenario(name, false)?);
    }
    config.trace = TraceConfig::enabled();
    let report = run_experiment(config, strategy);
    let run_trace = report.trace.expect("tracing was enabled for this run");
    Ok(trace_to_jsonl(&run_trace))
}

/// `spotverse advisor`.
pub fn advisor(args: &ParsedArgs) -> Result<String, CliError> {
    let seed = args.u64_or("seed", 2024)?;
    let instance_type = parse_instance_type(args.str_or("instance-type", "m5.xlarge"))?;
    let day = args.u64_or("day", 1)?;
    let market = SpotMarket::new(cloud_market::MarketConfig::with_seed(seed));
    let monitor = Monitor::new(instance_type, Region::UsEast1);
    let assessments = monitor
        .fresh_assessments(&market, SimTime::from_days(day))
        .map_err(|e| CliError::BadInput(format!("{e}")))?;
    let mut out = format!(
        "{:<16} {:>10} {:>10} {:>9} {:>10} {:>9}\n",
        "region", "spot $/h", "od $/h", "placement", "stability", "combined"
    );
    for a in &assessments {
        out.push_str(&format!(
            "{:<16} {:>10.4} {:>10.4} {:>9} {:>10} {:>9}\n",
            a.region.name(),
            a.spot_price.rate(),
            a.on_demand_price.rate(),
            a.placement.value(),
            a.stability.value(),
            a.combined().value(),
        ));
    }
    Ok(out)
}

/// `spotverse traces`.
pub fn traces(args: &ParsedArgs) -> Result<String, CliError> {
    let seed = args.u64_or("seed", 2024)?;
    let instance_type = parse_instance_type(args.str_or("instance-type", "m5.xlarge"))?;
    let days = positive(args, "days", 14)?;
    let market = SpotMarket::new(
        cloud_market::MarketConfig::with_seed(seed).with_regime(parse_regime(args)?),
    );
    let rows = collect_archive(
        &market,
        instance_type,
        SimTime::ZERO,
        SimTime::from_days(days),
        SimDuration::from_hours(6),
    )
    .map_err(|e| CliError::BadInput(format!("{e}")))?;
    Ok(archive_to_csv(&rows))
}

fn parse_sim_time_flag(args: &ParsedArgs, flag: &str) -> Result<Option<SimTime>, CliError> {
    match args.opt_str(flag) {
        None => Ok(None),
        Some(raw) => raw.parse::<u64>().map(SimTime::from_secs).map(Some).map_err(|_| {
            CliError::BadInput(format!("--{flag}: `{raw}` is not a sim-time in seconds"))
        }),
    }
}

/// `spotverse analyse`: replay trace JSONL files into derived views.
pub fn analyse(args: &ParsedArgs) -> Result<String, CliError> {
    let files = args.positionals();
    if files.is_empty() {
        return Err(CliError::BadInput(
            "analyse requires at least one trace JSONL file (see `spotverse trace`)".into(),
        ));
    }
    let window = TimeWindow {
        from: parse_sim_time_flag(args, "from")?,
        until: parse_sim_time_flag(args, "until")?,
    };
    let output = args.str_or("output", "table");
    let mut cursor = ReplayCursor::new(window);
    let multi = files.len() > 1;
    for path in files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::BadInput(format!("{path}: {e}")))?;
        if multi {
            // Keep records from different files apart: unlabelled records
            // get the file stem as their cell key.
            let stem = std::path::Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
            cursor.set_default_cell(Some(stem));
        }
        cursor
            .feed(&text)
            .map_err(|e| CliError::BadInput(format!("{path}: {e}")))?;
        if !text.ends_with('\n') {
            cursor
                .feed("\n")
                .map_err(|e| CliError::BadInput(format!("{path}: {e}")))?;
        }
    }
    let state = cursor
        .finish()
        .map_err(|e| CliError::BadInput(format!("{e}")))?;
    match output {
        "table" => Ok(render_analysis(&state)),
        "json" => Ok(render_analysis_json(&state)),
        other => Err(CliError::BadInput(format!(
            "unknown output `{other}` (expected table | json)"
        ))),
    }
}

/// `spotverse workflow`: export a paper workflow as a `.ga` document.
pub fn workflow(args: &ParsedArgs) -> Result<String, CliError> {
    let kind = parse_workload(args.str_or("workload", "genome"))?;
    let hours = positive(args, "duration-hours", 10)?;
    let spec = bio_workloads::WorkloadSpec {
        id: "cli-export".into(),
        kind,
        duration: SimDuration::from_hours(hours),
        shards: None,
    };
    Ok(to_ga_json(&spec.build_workflow()))
}

/// The flags every run command takes (see `Run`, plus `--regime`), then
/// the command's own.
macro_rules! run_flags {
    ($($extra:literal),* $(,)?) => {
        &[
            "seed", "instances", "instance-type", "workload", "start-day", "threshold", "region",
            "regime", $($extra),*
        ]
    };
}

/// Flag schemas per command.
pub fn schema(command: &str) -> &'static [&'static str] {
    match command {
        "simulate" => run_flags!["strategy"],
        "fleet" => run_flags![
            "loadgen",
            "workloads",
            "rate",
            "spacing-mins",
            "capacity",
            "deadline-days",
            "strategy",
            "output",
            "jobs",
        ],
        "compare" => run_flags!["jobs"],
        "sweep" => run_flags![
            "strategy",
            "seeds",
            "orchestrated",
            "scenario",
            "shard-size",
            "max-attempts",
            "output",
            "jobs",
        ],
        "chaos" => run_flags!["strategy", "scenario", "jobs"],
        "tournament" => run_flags![
            "spacing-mins",
            "deadline-days",
            "strategy",
            "seeds",
            "chaos",
            "jobs",
        ],
        "trace" => run_flags!["strategy", "scenario"],
        "advisor" => &["seed", "instance-type", "day"],
        "analyse" => &["from", "until", "output"],
        "traces" => &["seed", "instance-type", "days", "regime"],
        "workflow" => &["workload", "duration-hours"],
        _ => &[],
    }
}

/// Dispatches a full command line (without the binary name).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad flags, or bad values.
pub fn run<I, S>(argv: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut iter = argv.into_iter().map(Into::into);
    let command = match iter.next() {
        Some(c) => c,
        None => return Ok(usage()),
    };
    let rest: Vec<String> = iter.collect();
    match command.as_str() {
        "simulate" => simulate(&ParsedArgs::parse(rest, schema("simulate"))?),
        "fleet" => fleet(&ParsedArgs::parse(rest, schema("fleet"))?),
        "compare" => compare(&ParsedArgs::parse(rest, schema("compare"))?),
        "sweep" => sweep(&ParsedArgs::parse(rest, schema("sweep"))?),
        "chaos" => chaos_matrix(&ParsedArgs::parse(rest, schema("chaos"))?),
        "tournament" => tournament(&ParsedArgs::parse(rest, schema("tournament"))?),
        "advisor" => advisor(&ParsedArgs::parse(rest, schema("advisor"))?),
        "trace" => trace(&ParsedArgs::parse(rest, schema("trace"))?),
        "analyse" | "analyze" => analyse(&ParsedArgs::parse(rest, schema("analyse"))?),
        "traces" => traces(&ParsedArgs::parse(rest, schema("traces"))?),
        "workflow" => workflow(&ParsedArgs::parse(rest, schema("workflow"))?),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::BadInput(format!(
            "unknown command `{other}` (try `spotverse help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_paths() {
        assert!(run(Vec::<String>::new()).unwrap().contains("USAGE"));
        assert!(run(["help"]).unwrap().contains("COMMANDS"));
        assert!(run(["--help"]).unwrap().contains("simulate"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(["simualte"]).unwrap_err();
        assert!(err.to_string().contains("simualte"));
    }

    #[test]
    fn advisor_lists_all_regions() {
        let out = run(["advisor", "--day", "3", "--seed", "5"]).unwrap();
        for region in Region::ALL {
            assert!(out.contains(region.name()), "missing {region}");
        }
        assert!(out.contains("combined"));
    }

    #[test]
    fn traces_emit_csv() {
        let out = run(["traces", "--days", "2", "--instance-type", "c5.2xlarge"]).unwrap();
        assert!(out.starts_with("timestamp_secs,"));
        assert!(out.contains("c5.2xlarge"));
        // 12 regions × 8 samples + header.
        assert_eq!(out.lines().count(), 1 + 12 * 8);
    }

    #[test]
    fn trace_emits_deterministic_jsonl() {
        let argv = ["trace", "--instances", "3", "--seed", "21", "--workload", "ngs"];
        let a = run(argv).unwrap();
        let b = run(argv).unwrap();
        assert_eq!(a, b, "same seed must give byte-identical traces");
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("{\"seq\":0,\"t\":"), "canonical first line: {first}");
        assert!(first.contains("\"event\":\"run_started\""));
        assert!(first.contains("\"strategy\":\"spotverse\""));
        assert!(a.lines().last().unwrap().contains("\"event\":\"run_ended\""));
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn trace_accepts_scenario_and_rejects_unknown() {
        let out = run([
            "trace",
            "--instances",
            "2",
            "--seed",
            "5",
            "--workload",
            "ngs",
            "--scenario",
            "notice_loss",
        ])
        .unwrap();
        assert!(out.contains("\"chaos\":\"notice_loss\""));
        let err = run(["trace", "--scenario", "meteor-strike"]).unwrap_err();
        assert!(err.to_string().contains("meteor-strike"));
    }

    #[test]
    fn simulate_runs_a_small_fleet() {
        let out = run([
            "simulate",
            "--instances",
            "3",
            "--strategy",
            "on-demand",
            "--seed",
            "9",
        ])
        .unwrap();
        assert!(out.contains("on-demand"));
        assert!(out.contains("3/3"));
        assert!(out.contains("cost breakdown"));
    }

    #[test]
    fn tournament_ranks_every_strategy_per_regime() {
        let argv = [
            "tournament",
            "--instances",
            "2",
            "--seed",
            "11",
            "--workload",
            "ngs",
            "--strategy",
            "all",
            "--regime",
            "all",
            "--jobs",
            "4",
        ];
        let out = run(argv).unwrap();
        assert!(out.starts_with("tournament: 7 strategies × 4 regimes × 1 seed(s)"));
        for regime in MarketRegime::ALL {
            assert!(out.contains(&format!("regime {}", regime.name())), "missing {regime}");
        }
        assert!(out.contains("#1 "));
        assert!(out.contains("#7 "));
        assert!(!out.contains("FAILED"));
        // Deterministic regardless of parallelism.
        let mut serial: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        let n = serial.len();
        serial[n - 1] = "1".into();
        assert_eq!(out, run(serial).unwrap());
    }

    #[test]
    fn tournament_regime_chaos_labels_the_standings() {
        let out = run([
            "tournament",
            "--instances",
            "2",
            "--seed",
            "11",
            "--workload",
            "ngs",
            "--strategy",
            "on-demand",
            "--regime",
            "capacity_crunch",
            "--chaos",
            "regime",
        ])
        .unwrap();
        assert!(out.contains("regime capacity_crunch  (chaos: crunch_squeeze)"));
    }

    #[test]
    fn single_run_commands_accept_the_regime_flag() {
        let base = ["simulate", "--instances", "2", "--workload", "ngs", "--strategy", "skypilot"];
        let baseline = run(base).unwrap();
        let explicit = run(base.iter().copied().chain(["--regime", "baseline"])).unwrap();
        assert_eq!(baseline, explicit, "explicit baseline must equal the default");
        let crunch = run(base.iter().copied().chain(["--regime", "capacity_crunch"])).unwrap();
        assert_ne!(baseline, crunch, "capacity_crunch must change the report");
        let err = run(["simulate", "--regime", "bull-market"]).unwrap_err();
        assert!(err.to_string().contains("bull-market"));
        // The archive exporter rides the same axis.
        let calm = run(["traces", "--days", "2"]).unwrap();
        let shocked = run(["traces", "--days", "2", "--regime", "correlated_shock"]).unwrap();
        assert_ne!(calm, shocked, "regime must perturb the exported archive");
    }

    #[test]
    fn tournament_rejects_bad_inputs() {
        let err = run(["tournament", "--regime", "bull-market"]).unwrap_err();
        assert!(err.to_string().contains("bull-market"));
        let err = run(["tournament", "--chaos", "meteor-strike"]).unwrap_err();
        assert!(err.to_string().contains("meteor-strike"));
        let err = run(["tournament", "--seeds", "0"]).unwrap_err();
        assert!(err.to_string().contains("--seeds"));
        let err = run(["tournament", "--strategy", "blimp"]).unwrap_err();
        assert!(err.to_string().contains("blimp"));
    }

    #[test]
    fn sweep_modes_agree_fault_free() {
        let base = [
            "sweep",
            "--instances",
            "2",
            "--seed",
            "7",
            "--workload",
            "ngs",
            "--strategy",
            "on-demand",
            "--seeds",
            "2",
            "--output",
            "trace",
        ];
        let inprocess = run(base).unwrap();
        let mut orch: Vec<String> = base.iter().map(|s| (*s).to_owned()).collect();
        orch.push("--orchestrated".into());
        orch.push("true".into());
        let orchestrated = run(orch).unwrap();
        assert_eq!(
            inprocess, orchestrated,
            "fault-free orchestration must be byte-identical to in-process"
        );
        assert!(inprocess.contains("\"cell\":\"on-demand/s7\""));
        assert!(inprocess.contains("\"cell\":\"on-demand/s8\""));
    }

    #[test]
    fn sweep_orchestrated_chaos_accounts_for_every_cell() {
        let out = run([
            "sweep",
            "--instances",
            "2",
            "--seed",
            "7",
            "--workload",
            "ngs",
            "--strategy",
            "on-demand",
            "--seeds",
            "2",
            "--orchestrated",
            "true",
            "--scenario",
            "sweep_shard_chaos",
        ])
        .unwrap();
        assert!(out.contains("orchestration: shards 2"), "footer missing: {out}");
        let accounting = out
            .lines()
            .find(|l| l.starts_with("cells: 2 total = "))
            .expect("accounting line present");
        assert!(accounting.contains("completed"));
        assert!(accounting.contains("dead-lettered"));
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        let err = run(["sweep", "--orchestrated", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("maybe"));
        let err = run(["sweep", "--scenario", "sweep_shard_chaos"]).unwrap_err();
        assert!(err.to_string().contains("--orchestrated true"));
        let err = run(["sweep", "--orchestrated", "true", "--scenario", "meteor"]).unwrap_err();
        assert!(err.to_string().contains("meteor"));
        let err = run(["sweep", "--seeds", "0"]).unwrap_err();
        assert!(err.to_string().contains("--seeds"));
    }

    #[test]
    fn simulate_rejects_bad_inputs() {
        assert!(run(["simulate", "--strategy", "warp-drive"]).is_err());
        assert!(run(["simulate", "--workload", "quake"]).is_err());
        assert!(run(["simulate", "--instance-type", "z9.mega"]).is_err());
        assert!(run(["simulate", "--region", "mars-north-1"]).is_err());
        assert!(run(["simulate", "--instances", "0"]).is_err());
        assert!(run(["simulate", "--bogus", "1"]).is_err());
    }

    #[test]
    fn every_run_command_rejects_a_start_day_at_the_horizon() {
        for command in ["simulate", "fleet", "compare", "sweep", "chaos", "tournament", "trace"] {
            let err = run([command, "--start-day", "210"]).unwrap_err();
            assert!(
                err.to_string().contains("210-day market horizon"),
                "{command}: {err}"
            );
        }
    }

    #[test]
    fn workflow_exports_valid_ga() {
        let out = run(["workflow", "--workload", "ngs", "--duration-hours", "8"]).unwrap();
        let imported = galaxy_flow::from_ga_json(&out).unwrap();
        assert!(imported.is_checkpointable());
        assert_eq!(imported.name(), "ngs-data-preprocessing");
        let genome = run(["workflow"]).unwrap();
        assert_eq!(galaxy_flow::from_ga_json(&genome).unwrap().len(), 23);
        assert!(run(["workflow", "--duration-hours", "0"]).is_err());
    }

    #[test]
    fn chaos_cell_is_deterministic() {
        let argv = [
            "chaos",
            "--scenario",
            "region_blackout",
            "--strategy",
            "spotverse",
            "--seed",
            "7",
            "--instances",
            "3",
            "--workload",
            "ngs",
        ];
        let a = run(argv).unwrap();
        let b = run(argv).unwrap();
        assert_eq!(a, b, "same seed must give byte-identical reports");
        assert!(a.contains("(fault-free)"));
        assert!(a.contains("region_blackout"));
        assert!(a.contains("spotverse"));
    }

    #[test]
    fn chaos_rejects_unknown_scenario() {
        let err = run(["chaos", "--scenario", "meteor-strike"]).unwrap_err();
        assert!(err.to_string().contains("meteor-strike"));
        assert!(err.to_string().contains("region_blackout"));
    }

    #[test]
    fn compare_lists_every_strategy() {
        let out = run(["compare", "--instances", "2", "--seed", "11", "--workload", "ngs"]).unwrap();
        for name in ["single-region", "naive-multi", "skypilot", "spotverse", "on-demand"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn jobs_count_does_not_change_output() {
        let base = [
            "chaos",
            "--scenario",
            "throttle_storm",
            "--seed",
            "13",
            "--instances",
            "3",
            "--workload",
            "ngs",
        ];
        let serial = run(base.iter().copied().chain(["--jobs", "1"])).unwrap();
        let parallel = run(base.iter().copied().chain(["--jobs", "4"])).unwrap();
        assert_eq!(serial, parallel, "jobs must not affect the report");

        let compare_base = ["compare", "--instances", "2", "--seed", "11", "--workload", "ngs"];
        let c1 = run(compare_base.iter().copied().chain(["--jobs", "1"])).unwrap();
        let c4 = run(compare_base.iter().copied().chain(["--jobs", "4"])).unwrap();
        assert_eq!(c1, c4);
    }

    #[test]
    fn fleet_runs_staggered_workloads() {
        let out = run([
            "fleet",
            "--instances",
            "3",
            "--seed",
            "9",
            "--workload",
            "ngs",
            "--spacing-mins",
            "120",
            "--capacity",
            "1",
        ])
        .unwrap();
        assert!(out.contains("3/3"), "all workloads should finish:\n{out}");
        assert!(out.contains("fleet:"));
        assert!(out.contains("completed"));
        // Three per-workload rows, one per spec id.
        for id in ["w-00", "w-01", "w-02"] {
            assert!(out.contains(id), "missing {id} in:\n{out}");
        }
    }

    #[test]
    fn fleet_strategy_all_sweeps_every_strategy() {
        let out = run([
            "fleet",
            "--instances",
            "2",
            "--seed",
            "11",
            "--workload",
            "ngs",
            "--strategy",
            "all",
        ])
        .unwrap();
        for name in ["single-region", "naive-multi", "skypilot", "spotverse", "on-demand"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn fleet_jobs_count_does_not_change_output() {
        let base = [
            "fleet",
            "--instances",
            "2",
            "--seed",
            "13",
            "--workload",
            "ngs",
            "--strategy",
            "all",
            "--spacing-mins",
            "45",
        ];
        let serial = run(base.iter().copied().chain(["--jobs", "1"])).unwrap();
        let parallel = run(base.iter().copied().chain(["--jobs", "4"])).unwrap();
        assert_eq!(serial, parallel, "jobs must not affect the fleet report");
    }

    #[test]
    fn fleet_trace_output_is_merged_jsonl() {
        let argv = [
            "fleet",
            "--instances",
            "2",
            "--seed",
            "5",
            "--workload",
            "ngs",
            "--spacing-mins",
            "90",
            "--output",
            "trace",
        ];
        let a = run(argv).unwrap();
        let b = run(argv).unwrap();
        assert_eq!(a, b, "same seed must give byte-identical fleet traces");
        assert!(a.lines().all(|l| l.starts_with("{\"cell\":\"spotverse\",")));
        assert!(a.contains("\"event\":\"workloads_arrived\""));
        assert!(a.lines().last().unwrap().contains("\"event\":\"run_ended\""));
    }

    #[test]
    fn fleet_rejects_bad_inputs() {
        assert!(run(["fleet", "--capacity", "0"]).is_err());
        assert!(run(["fleet", "--capacity", "lots"]).is_err());
        assert!(run(["fleet", "--deadline-days", "0"]).is_err());
        assert!(run(["fleet", "--output", "xml"]).is_err());
        assert!(run(["fleet", "--strategy", "warp-drive"]).is_err());
        assert!(run(["fleet", "--instances", "0"]).is_err());
        assert!(run(["fleet", "--loadgen", "sawtooth"]).is_err());
        assert!(run(["fleet", "--loadgen", "poisson", "--workloads", "0"]).is_err());
        assert!(run(["fleet", "--loadgen", "poisson", "--rate", "-3"]).is_err());
        assert!(run(["fleet", "--loadgen", "poisson", "--rate", "brisk"]).is_err());
    }

    #[test]
    fn fleet_loadgen_generates_and_completes() {
        let out = run([
            "fleet", "--loadgen", "poisson", "--workloads", "6", "--rate", "30", "--seed", "17",
        ])
        .unwrap();
        assert!(out.contains("6/6"), "generated fleet should finish:\n{out}");
        // Generated spec ids, not the staggered fleet's w-NN ids.
        assert!(out.contains("g-0000"), "missing generated ids in:\n{out}");
    }

    #[test]
    fn fleet_loadgen_trace_is_deterministic_and_multi_tenant() {
        let argv = [
            "fleet", "--loadgen", "burst", "--workloads", "8", "--rate", "40", "--seed", "3",
            "--output", "trace",
        ];
        let a = run(argv).unwrap();
        let b = run(argv).unwrap();
        assert_eq!(a, b, "same seed + profile must give byte-identical traces");
        assert!(a.contains("\"event\":\"workloads_arrived\""));
        // Generated fleets are multi-tenant: arrivals carry tenant and
        // priority annotations.
        assert!(a.contains("\"tenant\":["), "missing tenant field in:\n{a}");
        assert!(a.contains("\"priority\":["), "missing priority field in:\n{a}");
    }

    #[test]
    fn jobs_flag_rejects_bad_values() {
        for bad in ["0", "-2", "many", ""] {
            let err = run(["compare", "--instances", "2", "--jobs", bad]);
            assert!(err.is_err(), "--jobs {bad} should be rejected");
        }
        assert!(run(["chaos", "--scenario", "throttle_storm", "--instances", "2", "--jobs", "x"])
            .is_err());
    }
}
