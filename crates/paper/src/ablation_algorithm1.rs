//! Ablation: which parts of Algorithm 1 earn its gains?
//!
//! DESIGN.md calls out three design choices to ablate:
//!  * migration away from the interrupted region (vs relaunch in place),
//!  * the *random* pick among the top-R (vs always-cheapest, which
//!    dog-piles migrating workloads onto one region),
//!  * the combined-score threshold (vs accepting any region, ≈ price-only).
//!
//! 40 standard workloads on m5.xlarge, paper-default config otherwise,
//! mean of three repetitions.

use bio_workloads::WorkloadKind;
use cloud_market::InstanceType;
use spotverse::{
    run_repetitions, AggregateReport, MigrationPolicy, SpotVerseConfig, SpotVerseStrategy,
};

use crate::{bench_config, bench_fleet, Figure, BENCH_SEED};

const REPS: u32 = 3;

fn run_variant(
    label: &str,
    make: impl Fn() -> Box<dyn spotverse::Strategy> + Sync,
) -> (String, AggregateReport) {
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(WorkloadKind::StandardGeneral, 40, BENCH_SEED),
        1,
    );
    (label.to_owned(), run_repetitions(&config, make, REPS))
}

/// The Algorithm 1 ablation.
pub fn ablation_algorithm1() -> Figure {
    let mut fig = Figure::new(
        "Ablation — Algorithm 1 component knockouts",
        "DESIGN.md §4 (ablation index); supports paper §3.3's design choices",
    );

    let full = run_variant("full Algorithm 1", || {
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        )))
    });
    let no_migration = run_variant("no migration (relaunch in place)", || {
        Box::new(SpotVerseStrategy::ablated(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            MigrationPolicy::StayPut,
        ))
    });
    let no_random = run_variant("no random pick (always cheapest of top-R)", || {
        Box::new(SpotVerseStrategy::ablated(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            MigrationPolicy::CheapestQualifying,
        ))
    });
    let no_threshold = run_variant("no threshold (T=2: any region qualifies)", || {
        Box::new(SpotVerseStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(2)
                .build(),
        ))
    });

    fig.section("results (mean of three repetitions)");
    fig.line(format_args!(
        "  {:<44} {:>13} {:>12} {:>10}",
        "variant", "interruptions", "makespan", "cost"
    ));
    let rows = [&full, &no_migration, &no_random, &no_threshold];
    for (label, agg) in rows {
        fig.line(format_args!(
            "  {:<44} {:>13.0} {:>10.1} h {:>9.2}$",
            label,
            agg.interruptions.mean(),
            agg.makespan_hours.mean(),
            agg.cost.mean()
        ));
    }

    fig.section("component attributions");
    let (_, full_agg) = &full;
    for (label, agg) in [&no_migration, &no_random, &no_threshold] {
        let d_int = agg.interruptions.mean() - full_agg.interruptions.mean();
        let d_cost = agg.cost.mean() - full_agg.cost.mean();
        let d_time = agg.makespan_hours.mean() - full_agg.makespan_hours.mean();
        fig.line(format_args!(
            "  removing `{label}` costs {d_int:+.0} interruptions, {d_time:+.1} h, {d_cost:+.2}$"
        ));
    }

    fig.section("shape checks");
    fig.check(
        "full config is within noise of the best variant on interruptions",
        [&no_migration, &no_random, &no_threshold]
            .iter()
            .all(|(_, a)| full_agg.interruptions.mean() <= a.interruptions.mean() * 1.2),
    );
    fig.check(
        "dropping the threshold raises interruptions (cheap regions are unstable)",
        no_threshold.1.interruptions.mean() > full_agg.interruptions.mean(),
    );
    fig.check(
        "dropping migration raises interruptions (workloads stay in the bad market)",
        no_migration.1.interruptions.mean() > full_agg.interruptions.mean(),
    );
    fig
}
