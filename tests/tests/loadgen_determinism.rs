//! Load-generator determinism: a `(seed, profile)` pair is a complete
//! description of a generated fleet. The arrival schedule, the workload
//! mix, and the tenant draw must replay identically, and running the fleet
//! through the sweep engine must be `--jobs`-invariant.

use proptest::prelude::*;

use cloud_market::InstanceType;
use spotverse::{
    merged_fleet_trace_jsonl, run_fleet_matrix, FleetConfig, FleetSweepCell,
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
        let schedule = p.arrival_schedule(seed, count).expect("arrivals fit");
        prop_assert_eq!(&schedule, &p.arrival_schedule(seed, count).expect("arrivals fit"));
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
