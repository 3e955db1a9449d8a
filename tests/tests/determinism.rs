//! Whole-stack determinism: the reproducibility guarantees the README
//! promises, checked bit-for-bit across independently constructed stacks.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::history::{archive_to_csv, collect_archive};
use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
use galaxy_flow::to_ga_json;
use sim_kernel::json::Scanner;
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{run_experiment, ResilienceTelemetry};
use spotverse_integration::{fleet_config, spotverse_strategy};

#[test]
fn full_experiment_reports_are_bit_identical() {
    let build = || {
        run_experiment(
            fleet_config(WorkloadKind::NgsPreprocessing, 8, 777),
            spotverse_strategy(),
        )
    };
    let a = build();
    let b = build();
    assert_eq!(a.interruptions, b.interruptions);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.mean_completion, b.mean_completion);
    assert_eq!(a.cost.total, b.cost.total);
    assert_eq!(a.cost.data_transfer, b.cost.data_transfer);
    assert_eq!(a.interruptions_by_region, b.interruptions_by_region);
    assert_eq!(a.launches_by_region, b.launches_by_region);
    assert_eq!(a.cumulative_interruptions, b.cumulative_interruptions);
    assert_eq!(a.completions_over_time, b.completions_over_time);
    assert_eq!(a.spot_attempts, b.spot_attempts);
    assert_eq!(a.instance_hours.to_bits(), b.instance_hours.to_bits());
    assert_eq!(a.resilience, b.resilience);
    // Without injected faults the region-health control plane must never
    // engage: no breaker trips, no stale serves, no degraded hours.
    assert_eq!(a.resilience, ResilienceTelemetry::default());
}

#[test]
fn market_archives_are_bit_identical_across_builds() {
    let csv = |seed: u64| {
        let market = SpotMarket::new(MarketConfig::with_seed(seed));
        let rows = collect_archive(
            &market,
            InstanceType::M5Xlarge,
            SimTime::from_days(1),
            SimTime::from_days(8),
            SimDuration::from_hours(3),
        )
        .unwrap();
        archive_to_csv(&rows)
    };
    assert_eq!(csv(5), csv(5));
    assert_ne!(csv(5), csv(6), "different seeds yield different markets");
}

#[test]
fn ga_export_is_stable_and_reimportable_for_paper_workloads() {
    let rng = SimRng::seed_from_u64(9);
    for kind in WorkloadKind::ALL {
        let wf = paper_fleet(kind, 1, &rng)[0].build_workflow();
        let ga1 = to_ga_json(&wf);
        let ga2 = to_ga_json(&wf);
        assert_eq!(ga1, ga2, "{kind}: export is deterministic");
        // Galaxy imports the document: it must be one JSON object, mark
        // itself a Galaxy workflow and list every step.
        let mut r = Scanner::new(&ga1);
        r.begin_object().unwrap();
        let (mut fields, mut steps) = (Vec::new(), 0);
        while let Some(key) = r.next_key().unwrap() {
            if key == "steps" {
                r.begin_object().unwrap();
                while r.next_key().unwrap().is_some() {
                    r.skip_value().unwrap();
                    steps += 1;
                }
            } else {
                fields.push((key, r.read_str().unwrap()));
            }
        }
        r.finish().unwrap();
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_ref());
        assert_eq!(field("a_galaxy_workflow"), Some("true"), "{kind}");
        assert_eq!(field("name"), Some(wf.name()), "{kind}");
        assert_eq!(steps, wf.len(), "{kind}: one step per workflow step");
    }
}

#[test]
fn interruption_draws_are_independent_of_market_query_order() {
    // Querying the market (prices, scores) between interruption draws must
    // not perturb the draws — queries are pure, draws consume only the
    // caller's stream.
    let market = SpotMarket::new(MarketConfig::with_seed(42));
    let draw = |interleave_queries: bool| {
        let mut rng = SimRng::seed_from_u64(1);
        let mut delays = Vec::new();
        for day in 1..10 {
            if interleave_queries {
                let _ = market.spot_price(Region::EuWest1, InstanceType::M5Xlarge, SimTime::from_days(day));
                let _ = market.placement_score(Region::UsEast1, InstanceType::M5Xlarge, SimTime::from_days(day));
            }
            delays.push(
                market
                    .sample_interruption_delay(
                        Region::CaCentral1,
                        InstanceType::M5Xlarge,
                        SimTime::from_days(day),
                        &mut rng,
                    )
                    .unwrap(),
            );
        }
        delays
    };
    assert_eq!(draw(false), draw(true));
}
