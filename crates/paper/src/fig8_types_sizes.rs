//! Figure 8: performance impact of instance types and sizes — interruption
//! counts and completion times, single-region (Table 1 baseline region) vs
//! SpotVerse, for three 2xlarge types and three m5 sizes; standard general
//! workload, 40 instances, mean of three repetitions (as in the paper).

use bio_workloads::WorkloadKind;
use cloud_market::{cheapest_spot_region_at_start, InstanceType};
use spotverse::{
    run_repetitions, AggregateReport, InitialPlacement, OnDemandStrategy, SingleRegionStrategy,
    SpotVerseConfig, SpotVerseStrategy,
};

use crate::{bench_config, bench_fleet, hours, Figure, BENCH_SEED};

const REPS: u32 = 3;

struct Row {
    single: AggregateReport,
    spotverse: AggregateReport,
    on_demand: AggregateReport,
}

fn run_type(itype: InstanceType) -> Row {
    let fleet = bench_fleet(WorkloadKind::StandardGeneral, 40, BENCH_SEED);
    let config = bench_config(BENCH_SEED, itype, fleet, 1);
    let baseline = cheapest_spot_region_at_start(itype);
    let single = run_repetitions(
        &config,
        || Box::new(SingleRegionStrategy::new(baseline)),
        REPS,
    );
    let spotverse = run_repetitions(
        &config,
        || {
            Box::new(SpotVerseStrategy::new(
                SpotVerseConfig::builder(itype)
                    .initial_placement(InitialPlacement::SingleRegion(baseline))
                    .build(),
            ))
        },
        REPS,
    );
    let on_demand = run_repetitions(&config, || Box::new(OnDemandStrategy::new()), REPS);
    Row {
        single,
        spotverse,
        on_demand,
    }
}

fn print_row(fig: &mut Figure, itype: InstanceType, row: &Row) {
    fig.line(format_args!(
        "  {:<12} baseline {:<14} single: {:>5.0} int / {:>7} / ${:>7.2}   spotverse: {:>5.0} int / {:>7} / ${:>7.2}   od: ${:>7.2}",
        itype.name(),
        cheapest_spot_region_at_start(itype).name(),
        row.single.interruptions.mean(),
        hours(row.single.makespan_hours.mean()),
        row.single.cost.mean(),
        row.spotverse.interruptions.mean(),
        hours(row.spotverse.makespan_hours.mean()),
        row.spotverse.cost.mean(),
        row.on_demand.cost.mean(),
    ));
}

fn saving_pct(base: f64, treatment: f64) -> f64 {
    (1.0 - treatment / base) * 100.0
}

/// Figure 8.
pub fn fig8_types_sizes() -> Figure {
    let mut fig = Figure::new(
        "Figure 8 — instance types and sizes: interruptions and completion times",
        "paper §5.2.2, Figures 8a–8d (mean of three repetitions)",
    );

    fig.section("figures 8a/8b — instance types (2xlarge family comparison)");
    let mut rows = Vec::new();
    for itype in [
        InstanceType::M52xlarge,
        InstanceType::C52xlarge,
        InstanceType::R52xlarge,
    ] {
        let row = run_type(itype);
        print_row(&mut fig, itype, &row);
        rows.push((itype, row));
    }

    let r5 = &rows
        .iter()
        .find(|(t, _)| *t == InstanceType::R52xlarge)
        .expect("the row was run above")
        .1;
    fig.paper_vs_measured(
        "r5.2xlarge interruptions single->spotverse",
        "215 -> 92",
        &format!(
            "{:.0} -> {:.0}",
            r5.single.interruptions.mean(),
            r5.spotverse.interruptions.mean()
        ),
    );
    fig.paper_vs_measured(
        "r5.2xlarge cost saving vs single-region",
        "~52%",
        &format!(
            "{:.0}%",
            saving_pct(r5.single.cost.mean(), r5.spotverse.cost.mean())
        ),
    );
    fig.paper_vs_measured(
        "r5.2xlarge completion-time reduction",
        "~56%",
        &format!(
            "{:.0}%",
            saving_pct(
                r5.single.makespan_hours.mean(),
                r5.spotverse.makespan_hours.mean()
            )
        ),
    );
    let c5 = &rows
        .iter()
        .find(|(t, _)| *t == InstanceType::C52xlarge)
        .expect("the row was run above")
        .1;
    fig.paper_vs_measured(
        "c5.2xlarge cost saving vs on-demand",
        "~52%",
        &format!(
            "{:.0}%",
            saving_pct(c5.on_demand.cost.mean(), c5.spotverse.cost.mean())
        ),
    );

    fig.section("figures 8c/8d — instance sizes (m5 family)");
    let mut size_rows = Vec::new();
    for itype in [
        InstanceType::M5Large,
        InstanceType::M5Xlarge,
        InstanceType::M52xlarge,
    ] {
        let row = run_type(itype);
        print_row(&mut fig, itype, &row);
        size_rows.push((itype, row));
    }
    let m5l = &size_rows
        .iter()
        .find(|(t, _)| *t == InstanceType::M5Large)
        .expect("the row was run above")
        .1;
    fig.paper_vs_measured(
        "m5.large interruptions single->spotverse",
        "137 -> 40",
        &format!(
            "{:.0} -> {:.0}",
            m5l.single.interruptions.mean(),
            m5l.spotverse.interruptions.mean()
        ),
    );
    fig.paper_vs_measured(
        "m5.large cost single->spotverse",
        "$41.7 -> $29.1 (-27%)",
        &format!(
            "${:.2} -> ${:.2} ({:+.0}%)",
            m5l.single.cost.mean(),
            m5l.spotverse.cost.mean(),
            -saving_pct(m5l.single.cost.mean(), m5l.spotverse.cost.mean())
        ),
    );
    let m5x = &size_rows
        .iter()
        .find(|(t, _)| *t == InstanceType::M5Xlarge)
        .expect("the row was run above")
        .1;
    fig.paper_vs_measured(
        "m5.xlarge cost saving vs on-demand",
        "up to 47%",
        &format!(
            "{:.0}%",
            saving_pct(m5x.on_demand.cost.mean(), m5x.spotverse.cost.mean())
        ),
    );

    fig.section("shape checks");
    let all_types_improve = rows.iter().chain(size_rows.iter()).all(|(_, r)| {
        r.spotverse.interruptions.mean() <= r.single.interruptions.mean() * 1.05
            && r.spotverse.makespan_hours.mean() <= r.single.makespan_hours.mean() * 1.1
    });
    fig.check(
        "SpotVerse reduces interruptions and completion time for every type/size",
        all_types_improve,
    );
    let r5_biggest = rows.iter().all(|(t, r)| {
        *t == InstanceType::R52xlarge
            || r.single.interruptions.mean() <= r5.single.interruptions.mean()
    });
    fig.check(
        "r5.2xlarge baseline is the most interruption-prone market",
        r5_biggest,
    );
    fig
}
