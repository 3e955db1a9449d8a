//! Figure 9: impact of the initial regional distribution strategy —
//! starting everything in the single top-scoring region (ap-northeast-3)
//! vs distributing round-robin over the four top-scoring regions.

use bio_workloads::WorkloadKind;
use cloud_market::{InstanceType, Region};
use spotverse::{
    run_repetitions, AggregateReport, InitialPlacement, SpotVerseConfig, SpotVerseStrategy,
};

use crate::{bench_config, bench_fleet, hours, pct, Figure, BENCH_SEED};

const REPS: u32 = 3;

/// The initial-distribution experiment runs in the day-10 window where
/// even the top-scoring region (ap-northeast-3) wobbles — the regime the
/// paper's §5.2.3 numbers reflect.
const START_DAY: u64 = 10;

fn run(kind: WorkloadKind, placement: InitialPlacement) -> AggregateReport {
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(kind, 40, BENCH_SEED),
        START_DAY,
    );
    run_repetitions(
        &config,
        || {
            Box::new(SpotVerseStrategy::new(
                SpotVerseConfig::builder(InstanceType::M5Xlarge)
                    .initial_placement(placement.clone())
                    .build(),
            ))
        },
        REPS,
    )
}

/// Figure 9.
pub fn fig9_initial_distribution() -> Figure {
    let mut fig = Figure::new(
        "Figure 9 — impact of the initial regional distribution strategy",
        "paper §5.2.3, Figures 9a–9b (mean of three repetitions)",
    );

    for (kind, label, paper_int) in [
        (
            WorkloadKind::GenomeReconstruction,
            "standard workload",
            "69 -> 42 (-32%)",
        ),
        (
            WorkloadKind::NgsPreprocessing,
            "checkpoint workload",
            "reduced",
        ),
    ] {
        fig.section(label);
        // Baseline: all workloads start in the single best-scoring region
        // (ap-northeast-3) and migrate on interruption.
        let single_start = run(kind, InitialPlacement::SingleRegion(Region::ApNortheast3));
        // SpotVerse's full initial-distribution strategy over the top-4.
        let distributed = run(kind, InitialPlacement::Distributed);
        let int_delta =
            (distributed.interruptions.mean() / single_start.interruptions.mean() - 1.0) * 100.0;
        let time_delta =
            (distributed.makespan_hours.mean() / single_start.makespan_hours.mean() - 1.0) * 100.0;
        let cost_delta = (distributed.cost.mean() / single_start.cost.mean() - 1.0) * 100.0;
        fig.paper_vs_measured(
            "interruptions single-start -> distributed",
            paper_int,
            &format!(
                "{:.0} -> {:.0} ({int_delta:+.1}%)",
                single_start.interruptions.mean(),
                distributed.interruptions.mean(),
            ),
        );
        fig.paper_vs_measured("completion-time delta", "up to -12%", &pct(time_delta));
        fig.paper_vs_measured("cost delta", "up to -11%", &pct(cost_delta));
        fig.line(format_args!(
            "  single-start: {} / ${:.2}    distributed: {} / ${:.2}",
            hours(single_start.makespan_hours.mean()),
            single_start.cost.mean(),
            hours(distributed.makespan_hours.mean()),
            distributed.cost.mean(),
        ));
        fig.line(format_args!(
            "  distributed launch regions: {:?}",
            distributed.runs[0]
                .launches_by_region
                .keys()
                .map(|r| r.name())
                .collect::<Vec<_>>()
        ));
        let wins = distributed.interruptions.mean() <= single_start.interruptions.mean();
        fig.check("shape: distribution does not increase interruptions", wins);
    }
    fig
}
