//! Golden analytics snapshots: `spotverse analyse` output for the
//! committed golden traces (and a deterministic `sweep_shard_chaos`
//! orchestrated run) is itself committed under `tests/golden/analytics/`
//! and must not drift. The snapshots share `render_analysis` with the
//! CLI, so `scripts/verify.sh` can diff live CLI output against these
//! files byte-for-byte.
//!
//! Bless intentional changes with `scripts/regen-golden.sh` (or
//! `UPDATE_GOLDEN=1 cargo test -p spotverse-integration --test
//! golden_analytics`).

use std::fs;

use bio_workloads::WorkloadKind;
use spotverse::{
    append_trace_jsonl, merged_trace_jsonl, render_analysis, replay_str, run_matrix_orchestrated,
    MarketCache, OrchestratorConfig, SweepCell, TimeWindow, TraceConfig,
};
use spotverse_integration::{assert_golden, golden_path, spotverse_strategy, traced_config};

fn analyse_golden_trace(trace_name: &str) -> String {
    let path = golden_path(trace_name);
    let doc = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden trace {} ({e}); run scripts/regen-golden.sh", path.display())
    });
    let state = replay_str(&doc, TimeWindow::ALL).expect("golden trace parses");
    render_analysis(&state)
}

#[test]
fn experiment_golden_analytics_match() {
    for trace in [
        "spotverse_ngs3_seed2024_t4.jsonl",
        "spotverse_ngs3_seed2024_t5.jsonl",
        "spotverse_ngs3_seed2024_t6.jsonl",
        "spotverse_genome10_seed2024_region_flap.jsonl",
    ] {
        let snapshot = format!("analytics/{}", trace.replace(".jsonl", ".txt"));
        assert_golden(&snapshot, &analyse_golden_trace(trace));
    }
}

#[test]
fn fleet_golden_analytics_match() {
    for trace in
        ["fleet_ngs3_seed2024_cap1.jsonl", "fleet_ngs4_seed2025_telemetry_blackout.jsonl"]
    {
        let snapshot = format!("analytics/{}", trace.replace(".jsonl", ".txt"));
        assert_golden(&snapshot, &analyse_golden_trace(trace));
    }
}

/// The `sweep_shard_chaos` orchestrated run: per-cell traces merged with
/// the orchestrator's own shard trace (under the `orchestrator` cell
/// key), replayed into one analysis covering the shard view alongside
/// the run views. Deterministic, so snapshot-stable.
#[test]
fn sweep_shard_chaos_analytics_match() {
    let cells: Vec<SweepCell> = (0..4)
        .map(|i| {
            let config = traced_config(WorkloadKind::NgsPreprocessing, 2, 90 + i as u64);
            SweepCell::new(format!("cell-{i}"), "spotverse", config)
        })
        .collect();
    let cache = MarketCache::new();
    let config = OrchestratorConfig {
        seed: 3,
        shard_size: 2,
        max_attempts: 2,
        chaos: Some(chaos::sweep_shard_chaos()),
        trace: TraceConfig::enabled(),
    };
    let report = run_matrix_orchestrated(&cells, &config, &cache, |_| spotverse_strategy());
    let mut doc = merged_trace_jsonl(&report.outcomes);
    append_trace_jsonl(
        &mut doc,
        Some("orchestrator"),
        report.trace.as_ref().expect("tracing enabled"),
    );
    let state = replay_str(&doc, TimeWindow::ALL).expect("orchestrated trace parses");
    assert_golden("analytics/sweep_shard_chaos.txt", &render_analysis(&state));
}
