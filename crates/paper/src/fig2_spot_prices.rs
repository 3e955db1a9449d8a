//! Figure 2: spot-price diversity across a spectrum of instance types and
//! regions (per-AZ daily price traces over 90 days).

use cloud_market::traces::{price_traces, DailySeries};
use cloud_market::{InstanceType, MarketConfig, SpotMarket};

use crate::{Figure, BENCH_SEED};

fn spread(traces: &[DailySeries]) -> (f64, f64) {
    let means: Vec<f64> = traces.iter().map(DailySeries::mean).collect();
    let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

fn volatility(series: &DailySeries) -> f64 {
    let mean = series.mean();
    if mean == 0.0 {
        return 0.0;
    }
    let var = series
        .points
        .iter()
        .map(|&(_, v)| (v - mean).powi(2))
        .sum::<f64>()
        / series.points.len() as f64;
    var.sqrt() / mean
}

/// Figure 2.
pub fn fig2_spot_prices() -> Figure {
    let mut fig = Figure::new(
        "Figure 2 — spot price diversity across instance types and regions",
        "paper §2.1.2, Figures 2a–2d",
    );
    let market = SpotMarket::new(MarketConfig::with_seed(BENCH_SEED));
    let days = 90;
    for itype in [
        InstanceType::C52xlarge,
        InstanceType::M52xlarge,
        InstanceType::R52xlarge,
        InstanceType::P32xlarge,
    ] {
        fig.section(&format!("{itype} ({})", itype.family().description()));
        let traces = price_traces(&market, itype, days).expect("within horizon");
        let (lo, hi) = spread(&traces);
        fig.line(format_args!(
            "  {} region/AZ series over {days} days; mean prices ${lo:.4}/h - ${hi:.4}/h",
            traces.len()
        ));
        fig.paper_vs_measured(
            "cross-market price spread (max/min)",
            "large (visual)",
            &format!("{:.2}x", hi / lo),
        );
        let mean_vol = traces.iter().map(volatility).sum::<f64>() / traces.len() as f64;
        fig.paper_vs_measured(
            "within-market volatility (CV)",
            "visible fluctuation",
            &format!("{:.1}%", mean_vol * 100.0),
        );
        // Show a few representative traces, sampled every 15 days.
        for series in traces.iter().step_by((traces.len() / 4).max(1)) {
            let samples: Vec<String> = series
                .points
                .iter()
                .step_by(15)
                .map(|&(_, v)| format!("{v:.3}"))
                .collect();
            fig.line(format_args!(
                "    {:<18} {}",
                series.label,
                samples.join("  ")
            ));
        }
    }
    fig.line("\nresult: every instance type shows multi-x regional price spread and");
    fig.line("day-to-day fluctuation — the diversity motivating multi-region placement.");
    fig
}
