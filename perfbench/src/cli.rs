//! The parts of the `spotverse` CLI that are not library functions: its
//! strategy factory and its text renderers. An operation uses these so it
//! produces exactly the text the command prints; every set-up compares
//! that text byte for byte with `spotverse_cli::run` on the same argv.

use cloud_market::{InstanceType, Region};
use spotverse::{
    summary_line, BidPriceAwareStrategy, CellOutcome, CheckpointAdaptiveStrategy, FleetCellOutcome,
    FleetReport, NaiveMultiRegionStrategy, OnDemandStrategy, OrchestratedSweepReport,
    SingleRegionStrategy, SkyPilotStrategy, SpotVerseConfig, SpotVerseStrategy, Strategy,
    WorkloadPhase,
};

use crate::timed::TimedStrategy;

/// `--instance-type` default.
pub const INSTANCE_TYPE: InstanceType = InstanceType::M5Xlarge;

/// The strategies `--strategy all` selects on `fleet` and `sweep`.
pub const FLEET_STRATEGIES: [&str; 5] = [
    "single-region",
    "naive-multi",
    "skypilot",
    "spotverse",
    "on-demand",
];

/// The strategies `--strategy all` selects on `tournament`.
pub const TOURNAMENT_STRATEGIES: [&str; 7] = [
    "single-region",
    "naive-multi",
    "skypilot",
    "spotverse",
    "on-demand",
    "bid-price",
    "checkpoint-adaptive",
];

/// The CLI's strategy factory at its default `--threshold 6` and
/// `--region ca-central-1`, wrapped in a [`TimedStrategy`] when `timed`.
///
/// # Panics
///
/// Panics on a name outside [`TOURNAMENT_STRATEGIES`]; callers pass only
/// names from those lists.
pub fn strategy(name: &str, timed: bool) -> Box<dyn Strategy> {
    let inner: Box<dyn Strategy> = match name {
        "spotverse" => Box::new(SpotVerseStrategy::new(
            SpotVerseConfig::builder(INSTANCE_TYPE).threshold(6).build(),
        )),
        "single-region" => Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        "on-demand" => Box::new(OnDemandStrategy::new()),
        "skypilot" => Box::new(SkyPilotStrategy::new()),
        "naive-multi" => Box::new(NaiveMultiRegionStrategy::paper_motivational()),
        "bid-price" => Box::new(BidPriceAwareStrategy::new()),
        "checkpoint-adaptive" => Box::new(CheckpointAdaptiveStrategy::new()),
        other => panic!("unknown strategy `{other}`"),
    };
    if timed {
        Box::new(TimedStrategy::new(inner))
    } else {
        inner
    }
}

/// Builds a CLI argv from string literals plus the seed.
pub fn argv(args: &[&str], seed: u64) -> Vec<String> {
    args.iter()
        .map(|s| (*s).to_owned())
        .chain(["--seed".to_owned(), seed.to_string()])
        .collect()
}

/// Runs the CLI in-process, as the `spotverse` binary would.
pub fn run(argv: &[String]) -> Result<String, String> {
    spotverse_cli::run(argv.iter().cloned())
        .map_err(|e| format!("spotverse {}: {e}", argv.join(" ")))
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

/// What `spotverse fleet --output table` prints for these outcomes.
pub fn render_fleet(outcomes: &[FleetCellOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        match &outcome.result {
            Ok(report) => out.push_str(&render_fleet_report(report)),
            Err(e) => out.push_str(&format!("{:<20} FAILED: {e}\n", outcome.strategy)),
        }
    }
    out
}

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

/// What `spotverse sweep --orchestrated true` prints for this report.
pub fn render_orchestrated_sweep(report: &OrchestratedSweepReport) -> String {
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
            if dl.recorded {
                ""
            } else {
                " (record write lost)"
            },
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
    out
}

/// The header line `spotverse tournament` prints above the leaderboard.
pub fn tournament_header(
    strategies: usize,
    regimes: usize,
    reps: u64,
    cells: usize,
    instances: usize,
) -> String {
    format!(
        "tournament: {strategies} strategies × {regimes} regimes × {reps} seed(s)  ({cells} cells, fleet {instances})\n"
    )
}
