//! Load-generator determinism: a `(seed, profile)` pair is a complete
//! description of a generated fleet. The arrival schedule, the workload
//! mix, and the tenant draw must replay identically; running the fleet
//! through the sweep engine must be `--jobs`-invariant; and the
//! assessment-snapshot cache the generator's scale motivated must be
//! invisible in every report.

use proptest::prelude::*;

use cloud_market::InstanceType;
use spotverse::{
    merged_fleet_trace_jsonl, run_fleet, run_fleet_matrix, FleetConfig, FleetSweepCell,
    LoadProfile, MarketCache, TraceConfig,
};
use spotverse_integration::spotverse_strategy;

/// One profile per arrival process, keyed by index so proptest can draw it.
fn profile(idx: usize, rate: f64) -> LoadProfile {
    match idx % 3 {
        0 => LoadProfile::poisson(rate),
        1 => LoadProfile::diurnal(rate),
        _ => LoadProfile::burst(rate),
    }
}

/// Field-by-field equality for generated configs (`FleetConfig` carries
/// trait objects in `chaos`/`health`, so no derived `PartialEq`).
fn assert_same_fleet(a: &FleetConfig, b: &FleetConfig) {
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.workloads.len(), b.workloads.len());
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        assert_eq!(wa.spec, wb.spec);
        assert_eq!(wa.arrival, wb.arrival);
        assert_eq!(wa.tenant, wb.tenant);
        assert_eq!(wa.priority, wb.priority);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same `(seed, profile)` always draws the same arrival schedule,
    /// the schedule is sorted ascending, and regeneration reproduces every
    /// workload field — id, kind, duration, arrival, tenant, priority.
    #[test]
    fn seed_and_profile_determine_the_fleet(
        seed in 0u64..10_000,
        profile_idx in 0usize..3,
        rate in 1.0f64..120.0,
        count in 1usize..200,
    ) {
        let p = profile(profile_idx, rate);
        let schedule = p.arrival_schedule(seed, count);
        prop_assert_eq!(&schedule, &p.arrival_schedule(seed, count));
        prop_assert_eq!(schedule.len(), count);
        prop_assert!(
            schedule.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted ascending"
        );
        let a = p.generate(seed, count, InstanceType::M5Xlarge);
        let b = p.generate(seed, count, InstanceType::M5Xlarge);
        assert_same_fleet(&a, &b);
        for (w, at) in a.workloads.iter().zip(&schedule) {
            prop_assert_eq!(w.arrival, *at, "generate must use the published schedule");
        }
    }
}

proptest! {
    // Each case runs 2 × 3 small fleets; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A matrix of generated fleets produces a byte-identical merged trace
    /// whether cells run serially or across workers: worker scheduling is
    /// invisible in the output.
    #[test]
    fn generated_fleet_matrix_is_jobs_invariant(
        seed in 0u64..500,
        rate in 4.0f64..60.0,
        count in 4usize..24,
    ) {
        let cells: Vec<FleetSweepCell> = (0..3)
            .map(|i| {
                let mut config =
                    profile(i, rate).generate(seed, count, InstanceType::M5Xlarge);
                config.trace = TraceConfig::enabled();
                FleetSweepCell::new(
                    format!("gen-{i}"),
                    "spotverse",
                    config,
                )
            })
            .collect();
        let cache = MarketCache::new();
        let serial = run_fleet_matrix(&cells, 1, &cache, |_| spotverse_strategy());
        let parallel = run_fleet_matrix(&cells, 3, &cache, |_| spotverse_strategy());
        let serial_trace = merged_fleet_trace_jsonl(&serial);
        prop_assert!(!serial_trace.is_empty(), "traced cells must emit events");
        prop_assert_eq!(
            serial_trace,
            merged_fleet_trace_jsonl(&parallel),
            "merged traces must be byte-identical across --jobs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The snapshot-epoch assessment cache is purely an optimization: with
    /// it disabled, every field of the report — workload outcomes, cost
    /// ledger, trace — must match the cached run exactly. The chaos axis
    /// reaches failed and partially written collections, where the cache
    /// must be invalidated.
    #[test]
    fn snapshot_reuse_is_observationally_identical(
        seed in 0u64..500,
        profile_idx in 0usize..3,
        count in 2usize..40,
        scenario_idx in 0usize..=chaos::library().len(),
    ) {
        let run = |reuse: bool| {
            run_fleet(fleet(seed, profile_idx, count, scenario_idx, reuse), spotverse_strategy())
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// A traced loadgen fleet under chaos scenario `scenario_idx - 1` of the
/// library (0 = no chaos), with the snapshot cache on or off.
fn fleet(
    seed: u64,
    profile_idx: usize,
    count: usize,
    scenario_idx: usize,
    reuse: bool,
) -> FleetConfig {
    let mut config = profile(profile_idx, 24.0).generate(seed, count, InstanceType::M5Xlarge);
    config.trace = TraceConfig::enabled();
    config.reuse_decision_snapshot = reuse;
    config.chaos = scenario_idx.checked_sub(1).map(|i| chaos::library()[i].clone());
    config
}

/// The chaos axis above is not vacuous: a library scenario makes the
/// Monitor fail collections and serve stale snapshots, and the cached
/// run still equals the uncached one.
#[test]
fn snapshot_reuse_survives_failed_collections() {
    let idx = 1 + chaos::library()
        .iter()
        .position(|s| s.name() == "throttle_storm")
        .expect("throttle_storm is in the library");
    let cached = run_fleet(fleet(7, 0, 30, idx, true), spotverse_strategy());
    let freshness = cached.aggregate.resilience.freshness;
    assert!(freshness.collection_failures > 0, "{freshness:?}");
    assert!(freshness.stale_serves > 0, "{freshness:?}");
    assert_eq!(cached, run_fleet(fleet(7, 0, 30, idx, false), spotverse_strategy()));
}
