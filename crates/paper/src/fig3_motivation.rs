//! Figure 3: the motivational experiment — single-region (ca-central-1) vs
//! a naive multi-region deployment over {ap-northeast-3, ca-central-1,
//! eu-north-1}, 42 m5.xlarge workloads, standard and checkpoint variants.

use std::sync::Arc;

use bio_workloads::WorkloadKind;
use cloud_market::{InstanceType, Region, SpotMarket};
use spotverse::{
    compare, run_experiment_on, ExperimentReport, NaiveMultiRegionStrategy, SingleRegionStrategy,
    Strategy,
};

use crate::{bench_config, bench_fleet, hours, pct, Figure, BENCH_SEED};

/// The standard-workload runs use a calm mid-horizon window (day 30); the
/// checkpoint runs use the capacity-crunch window (day 40) — the paper's
/// two experiments likewise ran at different times.
fn start_day(kind: WorkloadKind) -> u64 {
    match kind {
        WorkloadKind::NgsPreprocessing => 40,
        _ => 30,
    }
}

fn run(
    kind: WorkloadKind,
    strategy: Box<dyn Strategy>,
    market: &Arc<SpotMarket>,
) -> ExperimentReport {
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(kind, 42, BENCH_SEED),
        start_day(kind),
    );
    run_experiment_on(Arc::clone(market), config, strategy)
}

/// Figure 3.
pub fn fig3_motivation() -> Figure {
    let mut fig = Figure::new(
        "Figure 3 — workload completion time and cost: single vs multi-region",
        "paper §2.2, Figures 3a–3b",
    );
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(WorkloadKind::GenomeReconstruction, 1, BENCH_SEED),
        30,
    );
    let market = Arc::new(SpotMarket::new(config.market));

    for (kind, label, paper_cost, paper_time, paper_int) in [
        (
            WorkloadKind::GenomeReconstruction,
            "standard (Genome Reconstruction)",
            "-5.67%",
            "-30.49%",
            "190 -> 165 (-13.2%)",
        ),
        (
            WorkloadKind::NgsPreprocessing,
            "checkpoint (NGS Data Preprocessing)",
            "-9.43%",
            "-6.63%",
            "125 -> 73 (-41.6%)",
        ),
    ] {
        fig.section(label);
        let single = run(
            kind,
            Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
            &market,
        );
        let multi = run(
            kind,
            Box::new(NaiveMultiRegionStrategy::paper_motivational()),
            &market,
        );
        let delta = compare(&single, &multi);
        fig.paper_vs_measured(
            "multi-region cost delta",
            paper_cost,
            &pct(-delta.cost_reduction_pct),
        );
        fig.paper_vs_measured(
            "multi-region completion-time delta",
            paper_time,
            &pct(-delta.time_reduction_pct),
        );
        fig.paper_vs_measured(
            "interruptions single -> multi",
            paper_int,
            &format!(
                "{} -> {} ({:+.1}%)",
                single.interruptions, multi.interruptions, -delta.interruption_reduction_pct
            ),
        );
        fig.line(format_args!(
            "  single: {} / {} / {}    multi: {} / {} / {}",
            hours(single.makespan.as_hours_f64()),
            single.interruptions,
            single.cost.total,
            hours(multi.makespan.as_hours_f64()),
            multi.interruptions,
            multi.cost.total,
        ));
        let wins = multi.cost.total < single.cost.total
            && multi.makespan.as_hours_f64() <= single.makespan.as_hours_f64() * 1.05
            && multi.interruptions < single.interruptions;
        fig.check(
            "shape: multi-region cuts cost & interruptions without hurting time",
            wins,
        );
    }

    fig.line("\nnote: the paper also observes that blindly shifting to high-interruption");
    fig.line("regions can backfire (§2.2 / §5.2.4) — reproduced in fig10_thresholds.");
    fig
}
