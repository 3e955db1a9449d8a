//! Ablation: metric availability across cloud providers (paper §7).
//!
//! "Azure only provides Interruption Frequency data, while Google Cloud
//! Platform currently lacks comprehensive spot instance metrics." Run the
//! identical fleet under full (AWS-like), interruption-only (Azure-like)
//! and price-only (GCP-like) metric availability, plus the forecasting
//! variant (§7's prediction direction), and quantify what each metric is
//! worth.

use bio_workloads::WorkloadKind;
use cloud_market::InstanceType;
use spotverse::{
    run_repetitions, AggregateReport, ForecastingSpotVerseStrategy, MetricAvailability,
    ProviderAdaptedStrategy, SpotVerseConfig, Strategy,
};

use crate::{bench_config, bench_fleet, Figure, BENCH_SEED};

const REPS: u32 = 3;

fn run_variant(
    label: &str,
    make: impl Fn() -> Box<dyn Strategy> + Sync,
) -> (String, AggregateReport) {
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(WorkloadKind::StandardGeneral, 40, BENCH_SEED),
        1,
    );
    (label.to_owned(), run_repetitions(&config, make, REPS))
}

/// The metric-availability ablation.
pub fn ablation_metrics() -> Figure {
    let mut fig = Figure::new(
        "Ablation — advisor-metric availability across providers",
        "paper §7 (multi-provider future work) + §3.1 (metric value)",
    );

    // The degraded variants re-base the threshold so neutral priors keep
    // the same number of observable-signal levels: full keeps 6; Azure-like
    // (placement fixed at 5) needs stability ≥ 2 → threshold 7; GCP-like
    // collapses everything → threshold ≤ 7 admits all regions.
    let mut variants: Vec<(String, AggregateReport)> = Vec::new();
    variants.push(run_variant("full metrics (AWS-like)", || {
        Box::new(ProviderAdaptedStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(6)
                .build(),
            MetricAvailability::Full,
        ))
    }));
    variants.push(run_variant("interruption-only (Azure-like)", || {
        Box::new(ProviderAdaptedStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(7)
                .build(),
            MetricAvailability::InterruptionOnly,
        ))
    }));
    variants.push(run_variant("price-only (GCP-like)", || {
        Box::new(ProviderAdaptedStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(7)
                .build(),
            MetricAvailability::PriceOnly,
        ))
    }));
    variants.push(run_variant("full + Holt forecasting", || {
        Box::new(ForecastingSpotVerseStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(6)
                .build(),
        ))
    }));

    fig.section("results (mean of three repetitions)");
    fig.line(format_args!(
        "  {:<36} {:>13} {:>12} {:>10}",
        "metric availability", "interruptions", "makespan", "cost"
    ));
    for (label, agg) in &variants {
        fig.line(format_args!(
            "  {:<36} {:>13.0} {:>10.1} h {:>9.2}$",
            label,
            agg.interruptions.mean(),
            agg.makespan_hours.mean(),
            agg.cost.mean()
        ));
    }

    fig.section("shape checks");
    let full = &variants[0].1;
    let azure = &variants[1].1;
    let gcp = &variants[2].1;
    fig.check(
        "richer metrics -> fewer interruptions (full <= azure <= gcp)",
        full.interruptions.mean() <= azure.interruptions.mean() * 1.1
            && azure.interruptions.mean() <= gcp.interruptions.mean() * 1.1,
    );
    fig.check(
        "price-only degenerates toward SkyPilot-like interruption counts",
        gcp.interruptions.mean() > 2.0 * full.interruptions.mean(),
    );
    let forecast = &variants[3].1;
    fig.check(
        "forecasting stays within 15% of plain SpotVerse on cost",
        (forecast.cost.mean() / full.cost.mean() - 1.0).abs() < 0.15,
    );
    fig
}
