//! Event-sourced replay of trace JSONL streams.
//!
//! The trace log written by `spotverse::trace` is the system of record:
//! every consequential decision, launch, interruption, checkpoint, and
//! breaker transition lands there. This module promotes the log to
//! ground truth by rebuilding derived analytics — per-region cost
//! ledgers, breaker timelines, occupancy curves, checkpoint overhead,
//! shard accounting — purely from parsed records:
//!
//! - [`parse`] inverts the canonical JSONL writer byte-for-byte
//!   ([`parse_trace_jsonl`] / [`trace_lines_to_jsonl`]), rejecting
//!   corrupt lines with an error naming the line number.
//! - [`views`] holds the pure fold aggregates: `fold(state, record)`
//!   has no clocks and no I/O, so replay is deterministic and chunkable
//!   with identical results. Parsed lines enter through
//!   [`ReplayState::fold_line`], a run's in-memory records through
//!   [`ReplayState::fold_trace`]; both fold the same state.
//! - [`cursor`] feeds arbitrary text chunks through the folds,
//!   buffering partial lines.
//! - [`analytics`] derives distribution-level figures (percentiles,
//!   per-strategy cost/makespan summaries, pairwise win matrices) and
//!   renders the deterministic text the `spotverse analyse` CLI and the
//!   golden-analytics snapshots share.

pub mod analytics;
pub mod cursor;
pub mod parse;
pub mod views;

pub use analytics::{
    render_analysis, render_analysis_json, strategy_distributions, win_matrix, Percentiles,
    StrategyDistribution, WinMatrix,
};
pub use cursor::{replay_str, ReplayCursor};
pub use parse::{parse_trace_jsonl, parse_trace_line, trace_lines_to_jsonl, TraceLine, TraceParseError};
pub use views::{
    replay_lines, BreakerTransition, BreakerView, CellState, CheckpointView, CostLedgerView,
    OccupancyView, RegionLedger, ReplayState, ResilienceView, RunSummary, ShardView, TimeWindow,
};
