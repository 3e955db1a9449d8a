//! Figure 4: advisor-metric dynamics — the Interruption-Frequency heatmap
//! (m5.2xlarge across regions, 180 days) and six-month trajectories of the
//! average Stability Score and Spot Placement Score for c5/m5/p3.2xlarge.

use cloud_market::traces::{
    average_placement_series, average_stability_series, band_heatmap, DailySeries,
};
use cloud_market::{InstanceType, InterruptionBand, MarketConfig, MarketError, SpotMarket};

use crate::{Figure, BENCH_SEED};

const DAYS: u32 = 180;

/// Figure 4.
pub fn fig4_metrics() -> Figure {
    let mut fig = Figure::new(
        "Figure 4 — Interruption Frequency and Spot Placement Score dynamics",
        "paper §3.1, Figures 4a–4c",
    );
    let market = SpotMarket::new(MarketConfig::with_seed(BENCH_SEED));

    // --- 4a: heatmap -----------------------------------------------------
    fig.section("figure 4a — Interruption-Frequency heatmap (m5.2xlarge, 180 days)");
    let hm = band_heatmap(&market, InstanceType::M52xlarge, DAYS).expect("within horizon");
    for (region, row) in hm.regions.iter().zip(hm.cells.iter()) {
        // One character per 6 days: . = <5%, - = 5-20%, # = >20%.
        let glyphs: String = row
            .iter()
            .step_by(6)
            .map(|band| match band {
                InterruptionBand::Under5 => '.',
                InterruptionBand::Over20 => '#',
                _ => '-',
            })
            .collect();
        fig.line(format_args!("  {:<16} {}", region.name(), glyphs));
    }
    let shares = hm.band_shares();
    fig.paper_vs_measured(
        "share of <5% cells",
        "light regions exist",
        &format!("{:.0}%", shares[0] * 100.0),
    );
    fig.paper_vs_measured(
        "share of >20% cells",
        "dark regions exist",
        &format!("{:.0}%", shares[4] * 100.0),
    );
    fig.line("  (legend: . = <5%, - = 5-20%, # = >20%; regional variation is visible)");

    // --- 4b/4c: average score trajectories --------------------------------
    type SeriesFn = fn(&SpotMarket, InstanceType, u32) -> Result<DailySeries, MarketError>;
    for (title, series_fn, lo, hi) in [
        (
            "figure 4b — average Stability Score across regions",
            average_stability_series as SeriesFn,
            1.0,
            3.0,
        ),
        (
            "figure 4c — average Spot Placement Score across regions",
            average_placement_series as SeriesFn,
            1.0,
            10.0,
        ),
    ] {
        fig.section(title);
        for itype in [
            InstanceType::C52xlarge,
            InstanceType::M52xlarge,
            InstanceType::P32xlarge,
        ] {
            let series = series_fn(&market, itype, DAYS).expect("within horizon");
            let monthly: Vec<String> = series
                .points
                .iter()
                .step_by(30)
                .map(|&(_, v)| format!("{v:.2}"))
                .collect();
            fig.line(format_args!(
                "  {:<12} monthly samples: {}   (mean {:.2}, scale {lo}-{hi})",
                itype.name(),
                monthly.join("  "),
                series.mean()
            ));
        }
    }

    // Structural claim of Figure 4c: p3's placement score is consistent
    // across regions while c5/m5 fluctuate.
    fig.section("figure 4c structural check");
    let per_region_spread = |itype: InstanceType| {
        let regions = market.regions_offering(itype);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &r in regions {
            let mut sum = 0.0;
            for day in 0..DAYS {
                sum += f64::from(
                    market
                        .placement_score(r, itype, sim_kernel::SimTime::from_days(day.into()))
                        .expect("within horizon")
                        .value(),
                );
            }
            let mean = sum / f64::from(DAYS);
            lo = lo.min(mean);
            hi = hi.max(mean);
        }
        hi - lo
    };
    let p3 = per_region_spread(InstanceType::P32xlarge);
    let m5 = per_region_spread(InstanceType::M52xlarge);
    let c5 = per_region_spread(InstanceType::C52xlarge);
    fig.paper_vs_measured(
        "p3 cross-region placement spread",
        "consistent (small)",
        &format!("{p3:.2}"),
    );
    fig.paper_vs_measured(
        "m5 cross-region placement spread",
        "fluctuating",
        &format!("{m5:.2}"),
    );
    fig.paper_vs_measured(
        "c5 cross-region placement spread",
        "fluctuating",
        &format!("{c5:.2}"),
    );
    // The figure's one check reads as its result line, not as an indented
    // `check` row.
    let name = "p3 spread < m5/c5 spread";
    let ok = p3 < m5.min(c5);
    fig.line(format_args!("\nresult: {name}: {ok}"));
    fig.checks.push((name.to_owned(), ok));
    fig
}
