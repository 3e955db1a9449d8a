//! Spot market history: a SpotLake-style dataset archive.
//!
//! The SpotLake archive service (related work §6, \[85\]) joins spot
//! prices with Interruption-Frequency and Placement-Score snapshots;
//! `spotverse traces` exports the same join as CSV.

use sim_kernel::{SimDuration, SimTime};

use crate::advisor::{InterruptionBand, PlacementScore};
use crate::instance::InstanceType;
use crate::market::{MarketError, SpotMarket};
use crate::region::Region;

/// One SpotLake-style archive row: price joined with advisor metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveRow {
    /// Observation instant.
    pub at: SimTime,
    /// Region.
    pub region: Region,
    /// Instance type.
    pub instance_type: InstanceType,
    /// Spot price, USD/hour.
    pub spot_price: f64,
    /// On-demand price, USD/hour.
    pub on_demand_price: f64,
    /// Interruption-Frequency band.
    pub band: InterruptionBand,
    /// Spot Placement Score.
    pub placement: PlacementScore,
}

/// Collects a SpotLake-style archive for an instance type: one row per
/// (region, sample instant).
///
/// # Errors
///
/// Returns a [`MarketError`] for out-of-horizon windows.
pub fn collect_archive(
    market: &SpotMarket,
    instance_type: InstanceType,
    from: SimTime,
    to: SimTime,
    granularity: SimDuration,
) -> Result<Vec<ArchiveRow>, MarketError> {
    assert!(from < to, "empty archive window");
    assert!(!granularity.is_zero(), "zero granularity");
    let mut rows = Vec::new();
    for &region in market.regions_offering(instance_type) {
        let mut t = from;
        while t < to {
            rows.push(ArchiveRow {
                at: t,
                region,
                instance_type,
                spot_price: market.spot_price(region, instance_type, t)?.rate(),
                on_demand_price: market.on_demand_price(region, instance_type).rate(),
                band: market.interruption_band(region, instance_type, t)?,
                placement: market.placement_score(region, instance_type, t)?,
            });
            t += granularity;
        }
    }
    Ok(rows)
}

/// Serializes archive rows as CSV (the format SpotLake publishes).
pub fn archive_to_csv(rows: &[ArchiveRow]) -> String {
    let mut out = String::from(
        "timestamp_secs,region,instance_type,spot_price,on_demand_price,interruption_band,placement_score\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{},{}\n",
            row.at.as_secs(),
            row.region,
            row.instance_type,
            row.spot_price,
            row.on_demand_price,
            row.band.label(),
            row.placement.value(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketConfig;

    fn market() -> SpotMarket {
        SpotMarket::new(MarketConfig::with_seed(13))
    }

    #[test]
    fn archive_covers_all_offering_regions() {
        let m = market();
        let rows = collect_archive(
            &m,
            InstanceType::P32xlarge,
            SimTime::from_days(1),
            SimTime::from_days(2),
            SimDuration::from_hours(6),
        )
        .unwrap();
        // 9 offering regions × 4 samples.
        assert_eq!(rows.len(), 36);
        let regions: std::collections::BTreeSet<Region> = rows.iter().map(|r| r.region).collect();
        assert_eq!(regions.len(), 9);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let m = market();
        let rows = collect_archive(
            &m,
            InstanceType::M5Xlarge,
            SimTime::from_days(1),
            SimTime::from_days(1) + SimDuration::from_hours(2),
            SimDuration::from_hours(1),
        )
        .unwrap();
        let csv = archive_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("timestamp_secs,region"));
        assert_eq!(lines.len(), 1 + rows.len());
        assert!(lines[1].contains("m5.xlarge"));
    }

    #[test]
    #[should_panic(expected = "empty archive window")]
    fn inverted_window_panics() {
        let m = market();
        let _ = collect_archive(
            &m,
            InstanceType::M5Xlarge,
            SimTime::from_days(2),
            SimTime::from_days(1),
            SimDuration::from_hours(1),
        );
    }

    #[test]
    fn history_reflects_early_surge() {
        // ca-central's early surge must be visible in its price history.
        let m = market();
        let mean = |from_day: u64| {
            let from = SimTime::from_days(from_day);
            let rows = collect_archive(
                &m,
                InstanceType::M5Xlarge,
                from,
                from + SimDuration::from_days(2),
                SimDuration::from_hours(1),
            )
            .unwrap();
            let prices: Vec<f64> = rows
                .iter()
                .filter(|r| r.region == Region::CaCentral1)
                .map(|r| r.spot_price)
                .collect();
            prices.iter().sum::<f64>() / prices.len() as f64
        };
        let (early, late) = (mean(1), mean(60));
        assert!(early > late, "surge window {early} should exceed calm window {late}");
    }
}
