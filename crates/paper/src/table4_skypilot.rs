//! Table 4: SpotVerse vs the SkyPilot-like cheapest-price baseline — 40
//! standard general workloads, 10–11 hours each.

use std::sync::Arc;

use bio_workloads::WorkloadKind;
use cloud_market::{InstanceType, SpotMarket};
use spotverse::{compare, run_experiment_on, SkyPilotStrategy, SpotVerseConfig, SpotVerseStrategy};

use crate::{bench_config, bench_fleet, hours, Figure, BENCH_SEED};

/// Table 4.
pub fn table4_skypilot() -> Figure {
    let mut fig = Figure::new(
        "Table 4 — SpotVerse vs SkyPilot: interruptions, cost, completion time",
        "paper §5.2.5, Table 4",
    );
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(WorkloadKind::StandardGeneral, 40, BENCH_SEED),
        1,
    );
    let market = Arc::new(SpotMarket::new(config.market));

    let spotverse = run_experiment_on(
        Arc::clone(&market),
        config.clone(),
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
    );
    let skypilot = run_experiment_on(
        Arc::clone(&market),
        config,
        Box::new(SkyPilotStrategy::new()),
    );

    fig.section("table 4");
    fig.paper_vs_measured(
        "SpotVerse interruptions",
        "42",
        &spotverse.interruptions.to_string(),
    );
    fig.paper_vs_measured(
        "SkyPilot interruptions",
        "129",
        &skypilot.interruptions.to_string(),
    );
    fig.paper_vs_measured(
        "SpotVerse cost",
        "$36.73",
        &spotverse.cost.total.to_string(),
    );
    fig.paper_vs_measured("SkyPilot cost", "$74.76", &skypilot.cost.total.to_string());
    fig.paper_vs_measured(
        "SpotVerse completion time",
        "12.3 h",
        &hours(spotverse.makespan.as_hours_f64()),
    );
    fig.paper_vs_measured(
        "SkyPilot completion time",
        "30.9 h",
        &hours(skypilot.makespan.as_hours_f64()),
    );

    let delta = compare(&skypilot, &spotverse);
    fig.section("reductions (SpotVerse vs SkyPilot)");
    fig.paper_vs_measured(
        "cost reduction",
        "51%",
        &format!("{:.0}%", delta.cost_reduction_pct),
    );
    fig.paper_vs_measured(
        "completion-time reduction",
        "60%",
        &format!("{:.0}%", delta.time_reduction_pct),
    );
    fig.paper_vs_measured(
        "interruption reduction",
        "67%",
        &format!("{:.0}%", delta.interruption_reduction_pct),
    );

    fig.section("shape checks");
    let wins = spotverse.interruptions < skypilot.interruptions
        && spotverse.cost.total < skypilot.cost.total
        && spotverse.makespan < skypilot.makespan;
    fig.check("SpotVerse beats SkyPilot on all three metrics", wins);
    fig.line(format_args!(
        "  SkyPilot launch regions (price-chasing): {:?}",
        skypilot
            .launches_by_region
            .iter()
            .map(|(r, n)| format!("{}:{n}", r.name()))
            .collect::<Vec<_>>()
    ));
    fig.line(format_args!(
        "  SpotVerse launch regions (score-aware):  {:?}",
        spotverse
            .launches_by_region
            .iter()
            .map(|(r, n)| format!("{}:{n}", r.name()))
            .collect::<Vec<_>>()
    ));
    fig
}
