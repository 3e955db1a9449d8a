//! Golden-trace regression suite: paper-shaped SpotVerse runs at a fixed
//! seed must replay to byte-identical canonical JSONL, committed under
//! `tests/golden/`. Any drift — a reordered event, a changed field, a
//! float formatted differently — fails the suite.
//!
//! To bless an intentional change, regenerate with
//! `scripts/regen-golden.sh` (or `UPDATE_GOLDEN=1 cargo test -p
//! spotverse-integration --test golden_traces`) and review the diff.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::InstanceType;
use sim_kernel::{SimDuration, SimRng};
use spotverse::{run_experiment, run_fleet, trace_to_jsonl, FleetConfig, TraceConfig};
use spotverse_integration::{assert_golden, spotverse_with_threshold, traced_config};

/// The canonical trace of the paper-shaped scenario: an NGS shard fleet
/// of 3 at seed 2024 under SpotVerse at one of the Table 3 threshold
/// tiers.
fn trace_at_threshold(threshold: u8) -> String {
    let config = traced_config(WorkloadKind::NgsPreprocessing, 3, 2024);
    let report = run_experiment(config, spotverse_with_threshold(threshold));
    trace_to_jsonl(report.trace.as_ref().expect("tracing was enabled"))
}

#[test]
fn spotverse_threshold_6_matches_golden() {
    assert_golden("spotverse_ngs3_seed2024_t6.jsonl", &trace_at_threshold(6));
}

#[test]
fn spotverse_threshold_5_matches_golden() {
    assert_golden("spotverse_ngs3_seed2024_t5.jsonl", &trace_at_threshold(5));
}

#[test]
fn spotverse_threshold_4_matches_golden() {
    assert_golden("spotverse_ngs3_seed2024_t4.jsonl", &trace_at_threshold(4));
}

/// A faulted golden: the `region_flap` scenario on a fleet big enough to
/// strike the breaker exercises the breaker and chaos-fault event
/// families the fault-free tiers never emit.
#[test]
fn spotverse_region_flap_matches_golden() {
    let mut config = traced_config(WorkloadKind::GenomeReconstruction, 10, 2024);
    config.chaos = Some(chaos::region_flap());
    let report = run_experiment(config, spotverse_with_threshold(6));
    let jsonl = trace_to_jsonl(report.trace.as_ref().expect("tracing was enabled"));
    assert!(jsonl.contains("\"event\":\"breaker\""), "flap golden must cover breaker events");
    assert!(jsonl.contains("\"event\":\"chaos_fault\""), "flap golden must cover chaos faults");
    assert_golden("spotverse_genome10_seed2024_region_flap.jsonl", &jsonl);
}

/// The fleet golden: three NGS workloads arriving two hours apart at seed
/// 2024 under a per-region concurrency cap of one. Covers the fleet-only
/// event families (`workloads_arrived`, and `capacity_deferred` whenever
/// the cap bites) plus workload-id-tagged decisions the classic goldens
/// never emit.
#[test]
fn fleet_staggered_capped_matches_golden() {
    let rng = SimRng::seed_from_u64(2024);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 3, &rng);
    let mut config = FleetConfig::staggered(
        2024,
        InstanceType::M5Xlarge,
        specs,
        SimDuration::from_hours(2),
    );
    config.region_capacity = Some(1);
    config.trace = TraceConfig::enabled();
    let report = run_fleet(config, spotverse_with_threshold(6));
    let jsonl = trace_to_jsonl(report.aggregate.trace.as_ref().expect("tracing was enabled"));
    assert!(
        jsonl.contains("\"event\":\"workloads_arrived\""),
        "fleet golden must cover staggered arrivals"
    );
    assert_golden("fleet_ngs3_seed2024_cap1.jsonl", &jsonl);
}

/// The replay property the goldens rest on: two independent runs of the
/// same configuration serialize to byte-identical JSONL.
#[test]
fn same_seed_replays_byte_identical() {
    assert_eq!(
        trace_at_threshold(6),
        trace_at_threshold(6),
        "same seed must replay to byte-identical canonical JSONL"
    );
}

/// The degraded golden: four NGS workloads arriving an hour apart at seed
/// 2025 under `telemetry_blackout`, which throttles every Monitor write
/// for eight hours. The snapshot ages past its TTL, so both an arrival
/// batch and a migration are placed on the degraded on-demand fallback;
/// the other goldens never reach that path.
#[test]
fn fleet_telemetry_blackout_degraded_decisions_match_golden() {
    let rng = SimRng::seed_from_u64(2025);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng);
    let mut config =
        FleetConfig::staggered(2025, InstanceType::M5Xlarge, specs, SimDuration::from_hours(1));
    config.chaos = Some(chaos::telemetry_blackout());
    config.trace = TraceConfig::enabled();
    let report = run_fleet(config, spotverse_with_threshold(6));
    let jsonl = trace_to_jsonl(report.aggregate.trace.as_ref().expect("tracing was enabled"));
    let degraded = |kind: &str| {
        jsonl.lines().any(|line| {
            line.contains("\"event\":\"decision\"")
                && line.contains(&format!("\"kind\":\"{kind}\""))
                && line.contains("\"degraded\":true")
        })
    };
    assert!(degraded("initial"), "degraded golden must cover a degraded initial decision");
    assert!(degraded("migration"), "degraded golden must cover a degraded migration decision");
    assert_golden("fleet_ngs4_seed2025_telemetry_blackout.jsonl", &jsonl);
}
