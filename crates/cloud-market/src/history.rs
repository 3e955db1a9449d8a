//! Spot market history: a `describe-spot-price-history`-style query API
//! and a SpotLake-style dataset archive.
//!
//! The paper's Monitor builds on exactly these data sources: AWS's price
//! history API (§5.1.2 uses it for the cost model) and the SpotLake
//! archive service (related work §6, \[85\]) that joins prices with
//! Interruption-Frequency and Placement-Score snapshots.

use sim_kernel::{SimDuration, SimTime};

use crate::advisor::{InterruptionBand, PlacementScore};
use crate::instance::InstanceType;
use crate::market::{MarketError, SpotMarket};
use crate::region::Region;

/// One price observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePoint {
    /// Observation instant.
    pub at: SimTime,
    /// Spot price in USD/hour.
    pub price: f64,
}

/// A `describe-spot-price-history` query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceHistoryQuery {
    /// The region to query.
    pub region: Region,
    /// The instance type to query.
    pub instance_type: InstanceType,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Sampling granularity.
    pub granularity: SimDuration,
}

impl PriceHistoryQuery {
    /// Executes the query against a market.
    ///
    /// # Errors
    ///
    /// Returns a [`MarketError`] for unknown markets or out-of-horizon
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to` or the granularity is zero.
    pub fn run(&self, market: &SpotMarket) -> Result<Vec<PricePoint>, MarketError> {
        assert!(self.from < self.to, "empty query window");
        assert!(!self.granularity.is_zero(), "zero granularity");
        let mut out = Vec::new();
        let mut t = self.from;
        while t < self.to {
            let price = market.spot_price(self.region, self.instance_type, t)?;
            out.push(PricePoint {
                at: t,
                price: price.rate(),
            });
            t += self.granularity;
        }
        Ok(out)
    }
}

/// Summary statistics over a price history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSummary {
    /// Lowest observed price.
    pub min: f64,
    /// Highest observed price.
    pub max: f64,
    /// Mean price.
    pub mean: f64,
    /// Coefficient of variation (stddev / mean).
    pub cv: f64,
}

/// Summarizes a price series.
///
/// Returns `None` for an empty series.
pub fn summarize(points: &[PricePoint]) -> Option<PriceSummary> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    let mean = points.iter().map(|p| p.price).sum::<f64>() / n;
    let var = points.iter().map(|p| (p.price - mean).powi(2)).sum::<f64>() / n;
    Some(PriceSummary {
        min: points.iter().map(|p| p.price).fold(f64::INFINITY, f64::min),
        max: points
            .iter()
            .map(|p| p.price)
            .fold(f64::NEG_INFINITY, f64::max),
        mean,
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    })
}

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
    fn history_query_samples_the_window() {
        let m = market();
        let q = PriceHistoryQuery {
            region: Region::UsEast1,
            instance_type: InstanceType::M5Xlarge,
            from: SimTime::from_days(5),
            to: SimTime::from_days(6),
            granularity: SimDuration::from_hours(1),
        };
        let points = q.run(&m).unwrap();
        assert_eq!(points.len(), 24);
        assert!(points.windows(2).all(|w| w[0].at < w[1].at));
        assert!(points.iter().all(|p| p.price > 0.0));
    }

    #[test]
    fn summary_statistics() {
        let points = vec![
            PricePoint { at: SimTime::ZERO, price: 1.0 },
            PricePoint { at: SimTime::from_secs(1), price: 3.0 },
        ];
        let s = summarize(&points).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert!((s.cv - 0.5).abs() < 1e-12);
        assert_eq!(summarize(&[]), None);
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
    #[should_panic(expected = "empty query window")]
    fn inverted_window_panics() {
        let m = market();
        let _ = PriceHistoryQuery {
            region: Region::UsEast1,
            instance_type: InstanceType::M5Xlarge,
            from: SimTime::from_days(2),
            to: SimTime::from_days(1),
            granularity: SimDuration::from_hours(1),
        }
        .run(&m);
    }

    #[test]
    fn history_reflects_early_surge() {
        // ca-central's early surge must be visible in its price history.
        let m = market();
        let early = PriceHistoryQuery {
            region: Region::CaCentral1,
            instance_type: InstanceType::M5Xlarge,
            from: SimTime::from_days(1),
            to: SimTime::from_days(3),
            granularity: SimDuration::from_hours(1),
        }
        .run(&m)
        .unwrap();
        let late = PriceHistoryQuery {
            region: Region::CaCentral1,
            instance_type: InstanceType::M5Xlarge,
            from: SimTime::from_days(60),
            to: SimTime::from_days(62),
            granularity: SimDuration::from_hours(1),
        }
        .run(&m)
        .unwrap();
        let mean = |ps: &[PricePoint]| summarize(ps).unwrap().mean;
        assert!(
            mean(&early) > mean(&late),
            "surge window {} should exceed calm window {}",
            mean(&early),
            mean(&late)
        );
    }
}
