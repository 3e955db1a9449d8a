//! # spotverse
//!
//! A reproduction of **SpotVerse** (Son, Gudukbay, Kandemir — MIDDLEWARE
//! 2024): a multi-region cloud resource manager that runs long
//! bioinformatics workloads on spot instances while navigating
//! interruption risk, by ranking regions on a *combined score* — the Spot
//! Placement Score (1–10) plus the Stability Score (1–3, the inverse of
//! the Spot Instance Advisor's Interruption Frequency band) — rather than
//! on spot price alone.
//!
//! The three architecture components of the paper map to:
//!
//! * **Monitor** ([`Monitor`]) — scheduled collector functions persist
//!   per-region prices and advisor metrics to the KV store,
//! * **Optimizer** ([`Optimizer`], Algorithm 1) — threshold-filtered,
//!   price-sorted top-R region selection with round-robin initial
//!   placement, random-among-top-R migration, and a cheapest-on-demand
//!   fallback,
//! * **Controller** (the experiment engine, [`run_experiment`]) — launches, 15-minute
//!   open-request sweeps, two-minute-notice checkpointing, and
//!   interruption-handler relaunches.
//!
//! Baselines from the paper's evaluation are provided as [`Strategy`]
//! implementations: single-region, on-demand, naive multi-region, and a
//! SkyPilot-like cheapest-price baseline. [`SpotVerseStrategy`] is the one
//! SpotVerse implementation: besides Algorithm 1 itself and its ablations,
//! its constructors give the paper's §7 extensions — metrics degraded to
//! what Azure or GCP expose ([`SpotVerseStrategy::on_provider`]), Holt
//! forecasts ([`SpotVerseStrategy::forecasting`]) and a deadline guard
//! ([`SpotVerseStrategy::with_deadline`]) — each on the same decision path,
//! quarantine and capacity exclusions included.
//!
//! # Examples
//!
//! ```
//! use bio_workloads::{paper_fleet, WorkloadKind};
//! use cloud_market::InstanceType;
//! use sim_kernel::SimRng;
//! use spotverse::{
//!     run_experiment, ExperimentConfig, SpotVerseConfig, SpotVerseStrategy,
//! };
//!
//! let rng = SimRng::seed_from_u64(42);
//! let fleet = paper_fleet(WorkloadKind::GenomeReconstruction, 4, &rng);
//! let config = ExperimentConfig::new(42, InstanceType::M5Xlarge, fleet);
//! let strategy = SpotVerseStrategy::new(SpotVerseConfig::paper_default(InstanceType::M5Xlarge));
//! let report = run_experiment(config, Box::new(strategy));
//! assert_eq!(report.completed, 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Gives a fieldless enum its trace label (`label`) and the inverse
/// (`FromStr`) from one variant → label list, so the two cannot drift.
macro_rules! labels {
    ($ty:ident, $what:literal, { $($variant:ident => $label:literal),+ $(,)? }) => {
        impl $ty {
            /// The label traces and the analysis JSON use for this value.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $($ty::$variant => $label,)+
                }
            }
        }

        impl std::str::FromStr for $ty {
            type Err = String;

            /// Inverts `label`.
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($label => Ok($ty::$variant),)+
                    other => Err(format!(concat!("unknown ", $what, " `{}`"), other)),
                }
            }
        }
    };
}

mod codec;
mod config;
pub mod controlplane;
mod deadline;
mod experiment;
pub mod fleet;
mod forecast;
pub mod health;
pub mod loadgen;
mod monitor;
mod optimizer;
pub mod orchestrate;
mod provider;
pub mod replay;
mod report;
mod repetitions;
pub mod resilience;
mod strategy;
pub mod sweep;
pub mod tournament;
pub mod trace;
pub mod workload;

pub use config::{InitialPlacement, SpotVerseConfig, SpotVerseConfigBuilder};
pub use controlplane::{ControlPlane, CHECKPOINT_TABLE};
pub use experiment::{
    run_experiment, run_experiment_on, CheckpointBackend, CheckpointTelemetry, CostBreakdown,
    ExperimentConfig, ExperimentReport, INTERRUPTION_HANDLER, LOG_BUCKET,
};
pub use fleet::{run_fleet, run_fleet_on, FleetConfig, FleetReport, FleetWorkload, Priority};
pub use loadgen::{ArrivalOverflow, ArrivalProcess, LoadProfile, TenantClass, WorkloadMix};
pub use workload::{WorkloadPhase, WorkloadReport};
pub use resilience::{retry_with_backoff, RetryOutcome};
pub use health::{
    BreakerState, BreakerTransition, RegionHealth, ResilienceTelemetry, TelemetryFreshness,
};
pub use monitor::{CollectOutcome, Monitor, MonitorError, COLLECTOR_FUNCTION, METRICS_TABLE};
pub use deadline::DeadlinePolicy;
pub use orchestrate::{
    run_matrix_orchestrated, AttemptRecord, DeadLetter, OrchestratedSweepReport,
    OrchestrationStats, OrchestratorConfig, DEADLETTER_TABLE, EXECUTOR_FUNCTION, LEASE_TABLE,
    RESULT_BUCKET,
};
pub use forecast::{HoltSmoother, MetricForecaster};
pub use replay::{
    parse_trace_jsonl, render_analysis, render_analysis_json, replay_lines, replay_str,
    trace_lines_to_jsonl, CellState, ReplayCursor, ReplayState, TimeWindow, TraceLine,
    TraceParseError,
};
pub use optimizer::{
    CandidateOutcome, CandidateVerdict, MigrationPolicy, Optimizer, Placement, RegionAssessment,
};
pub use provider::MetricAvailability;
pub use report::{compare, normalized_cost, resilience_summary, summary_line, Comparison};
pub use repetitions::{repetition_config, run_repetitions, AggregateReport};
pub use sweep::{
    merged_fleet_trace_jsonl, merged_trace_jsonl, merged_trace_state, resolve_jobs,
    run_fleet_matrix, run_matrix, CellConfig, CellOutcome, FleetCellOutcome, FleetSweepCell,
    MarketCache, SweepCell, SweepOutcome, JOBS_ENV,
};
pub use tournament::{
    render_tournament, run_tournament, RegimeStanding, TournamentChaos, TournamentConfig,
    TournamentReport, TournamentRow,
};
pub use trace::{
    append_record_json, append_trace_jsonl, trace_to_jsonl, ChaosFaultKind, DecisionKind, RunTrace,
    TraceConfig, TraceEvent, TraceRecord, Tracer,
};
pub use strategy::{
    BidPriceAwareStrategy, CheckpointAdaptiveStrategy, NaiveMultiRegionStrategy, OnDemandStrategy,
    SingleRegionStrategy, SkyPilotStrategy, SpotVerseStrategy, Strategy, StrategyContext,
};
