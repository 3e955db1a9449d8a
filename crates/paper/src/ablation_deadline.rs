//! Ablation: deadline-constrained execution (related work §6, "Can't Be
//! Late", NSDI '24).
//!
//! Sweep a completion deadline over a fleet of 10–11 h standard workloads
//! starting in interruption-prone ca-central-1, and compare:
//!  * plain SpotVerse (cost-first, deadline-oblivious),
//!  * deadline-aware SpotVerse (pins workloads to on-demand when slack
//!    runs out),
//!  * pure on-demand (always on time, full price).
//!
//! Metrics: fraction of the fleet finished by the deadline, and cost.

use std::sync::Arc;

use bio_workloads::WorkloadKind;
use cloud_market::{InstanceType, Region, SpotMarket};
use sim_kernel::{SimDuration, SimTime};
use spotverse::{
    run_experiment_on, DeadlinePolicy, ExperimentReport, InitialPlacement, OnDemandStrategy,
    SpotVerseConfig, SpotVerseStrategy, Strategy,
};

use crate::{bench_config, bench_fleet, Figure, BENCH_SEED};

const START_DAY: u64 = 1;

fn on_time_fraction(report: &ExperimentReport, deadline: SimDuration) -> f64 {
    report
        .completions_over_time
        .value_at(SimTime::from_days(START_DAY) + deadline)
        .unwrap_or(0.0)
        / report.workloads as f64
}

fn spotverse_config() -> SpotVerseConfig {
    SpotVerseConfig::builder(InstanceType::M5Xlarge)
        .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
        .build()
}

/// The deadline ablation.
pub fn ablation_deadline() -> Figure {
    let mut fig = Figure::new(
        "Ablation — deadline-aware placement",
        "related work §6 (Can't Be Late, NSDI '24) as a SpotVerse extension",
    );
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(WorkloadKind::GenomeReconstruction, 40, BENCH_SEED),
        START_DAY,
    );
    let market = Arc::new(SpotMarket::new(config.market));

    fig.line(format_args!(
        "\n  {:<10} {:<20} {:>9} {:>10} {:>8}",
        "deadline", "strategy", "on-time", "cost", "int."
    ));
    let mut rows: Vec<(u64, String, f64, f64)> = Vec::new();
    for deadline_hours in [14u64, 18, 24, 36] {
        let deadline = SimDuration::from_hours(deadline_hours);
        let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
            (
                "spotverse (plain)",
                Box::new(SpotVerseStrategy::new(spotverse_config())),
            ),
            (
                "spotverse-deadline",
                Box::new(SpotVerseStrategy::with_deadline(
                    spotverse_config(),
                    DeadlinePolicy {
                        deadline: SimTime::from_days(START_DAY) + deadline,
                        workload_duration: SimDuration::from_hours(11),
                        safety_factor: 1.1,
                    },
                )),
            ),
            ("on-demand", Box::new(OnDemandStrategy::new())),
        ];
        for (label, strategy) in strategies {
            let report = run_experiment_on(Arc::clone(&market), config.clone(), strategy);
            let on_time = on_time_fraction(&report, deadline);
            fig.line(format_args!(
                "  {:<10} {:<20} {:>8.0}% {:>10} {:>8}",
                format!("{deadline_hours} h"),
                label,
                on_time * 100.0,
                report.cost.total.to_string(),
                report.interruptions
            ));
            rows.push((
                deadline_hours,
                label.to_owned(),
                on_time,
                report.cost.total.amount(),
            ));
        }
    }

    fig.section("shape checks");
    let get = |d: u64, label: &str| {
        rows.iter()
            .find(|(dd, l, _, _)| *dd == d && l == label)
            .expect("row exists")
    };
    // Tight deadline: deadline-aware beats plain SpotVerse on punctuality.
    let tight_plain = get(14, "spotverse (plain)");
    let tight_aware = get(14, "spotverse-deadline");
    fig.check(
        format!(
            "tight 14 h deadline: deadline-aware on-time {:.0}% >= plain {:.0}%",
            tight_aware.2 * 100.0,
            tight_plain.2 * 100.0,
        ),
        tight_aware.2 >= tight_plain.2,
    );
    // Tight deadline: deadline-aware stays cheaper than pure on-demand.
    let tight_od = get(14, "on-demand");
    fig.check(
        format!(
            "tight deadline: aware cost {:.2}$ < on-demand {:.2}$",
            tight_aware.3, tight_od.3,
        ),
        tight_aware.3 < tight_od.3,
    );
    // Loose deadline: deadline-aware converges to plain SpotVerse's cost.
    let loose_plain = get(36, "spotverse (plain)");
    let loose_aware = get(36, "spotverse-deadline");
    fig.check(
        "loose 36 h deadline: aware cost within 20% of plain",
        (loose_aware.3 / loose_plain.3 - 1.0).abs() < 0.2,
    );
    // On-demand is always fully on time for deadlines past ~11 h.
    fig.check(
        "on-demand always on time",
        rows.iter()
            .filter(|(_, l, _, _)| l == "on-demand")
            .all(|(_, _, f, _)| *f >= 0.999),
    );
    fig
}
