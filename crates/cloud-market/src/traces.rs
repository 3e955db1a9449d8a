//! Trace extraction for the paper's dataset figures.
//!
//! Figure 2 plots spot-price diversity across instance types, regions and
//! AZs; Figure 4 plots the Interruption-Frequency heatmap and six-month
//! averages of the Stability and Placement scores. These helpers pull those
//! series straight out of a [`SpotMarket`].

use sim_kernel::SimTime;

use crate::advisor::InterruptionBand;
use crate::instance::InstanceType;
use crate::market::{MarketError, SpotMarket};
use crate::region::Region;

/// A labelled numeric series sampled by elapsed day.
#[derive(Debug, Clone, PartialEq)]
pub struct DailySeries {
    /// Display label, e.g. `"ca-central-1a"`.
    pub label: String,
    /// `(elapsed_day, value)` points.
    pub points: Vec<(u32, f64)>,
}

impl DailySeries {
    /// Mean of the series values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

/// Figure 2: per-AZ spot price traces for an instance type.
///
/// Produces one series per (region, AZ) combination over `days` days,
/// sampled daily at noon.
///
/// # Errors
///
/// Returns a [`MarketError`] if `days` exceeds the market horizon.
pub fn price_traces(
    market: &SpotMarket,
    instance_type: InstanceType,
    days: u32,
) -> Result<Vec<DailySeries>, MarketError> {
    let mut out = Vec::new();
    for &region in market.regions_offering(instance_type) {
        for az in region.zones() {
            let mut points = Vec::with_capacity(days as usize);
            for day in 0..days {
                let at = SimTime::from_days(u64::from(day)) + sim_kernel::SimDuration::from_hours(12);
                let price = market.spot_price_az(az, instance_type, at)?;
                points.push((day, price.rate()));
            }
            out.push(DailySeries {
                label: az.to_string(),
                points,
            });
        }
    }
    Ok(out)
}

/// Figure 4a: the Interruption-Frequency band per region per day.
#[derive(Debug, Clone, PartialEq)]
pub struct BandHeatmap {
    /// Row regions, in catalog order.
    pub regions: Vec<Region>,
    /// `cells[row][day]` is the band of `regions[row]` on that day.
    pub cells: Vec<Vec<InterruptionBand>>,
}

impl BandHeatmap {
    /// Fraction of cells in each band, most stable first (a summary of the
    /// heat distribution).
    pub fn band_shares(&self) -> [f64; 5] {
        let mut counts = [0usize; 5];
        let mut total = 0usize;
        for row in &self.cells {
            for band in row {
                let idx = InterruptionBand::ALL
                    .iter()
                    .position(|b| b == band)
                    .expect("band is in ALL");
                counts[idx] += 1;
                total += 1;
            }
        }
        let mut shares = [0.0; 5];
        if total > 0 {
            for i in 0..5 {
                shares[i] = counts[i] as f64 / total as f64;
            }
        }
        shares
    }
}

/// Figure 4a: builds the band heatmap for an instance type over `days` days.
///
/// # Errors
///
/// Returns a [`MarketError`] if `days` exceeds the market horizon.
pub fn band_heatmap(
    market: &SpotMarket,
    instance_type: InstanceType,
    days: u32,
) -> Result<BandHeatmap, MarketError> {
    let regions = market.regions_offering(instance_type).to_vec();
    let mut cells = Vec::with_capacity(regions.len());
    for &region in &regions {
        let mut row = Vec::with_capacity(days as usize);
        for day in 0..days {
            row.push(market.interruption_band(
                region,
                instance_type,
                SimTime::from_days(u64::from(day)),
            )?);
        }
        cells.push(row);
    }
    Ok(BandHeatmap { regions, cells })
}

/// Figure 4b: the cross-region average Stability Score per day.
///
/// # Errors
///
/// Returns a [`MarketError`] if `days` exceeds the market horizon.
pub fn average_stability_series(
    market: &SpotMarket,
    instance_type: InstanceType,
    days: u32,
) -> Result<DailySeries, MarketError> {
    let regions = market.regions_offering(instance_type);
    let mut points = Vec::with_capacity(days as usize);
    for day in 0..days {
        let at = SimTime::from_days(u64::from(day));
        let sum: u32 = regions
            .iter()
            .map(|&r| {
                market
                    .stability_score(r, instance_type, at)
                    .map(|s| u32::from(s.value()))
            })
            .sum::<Result<u32, _>>()?;
        points.push((day, f64::from(sum) / regions.len() as f64));
    }
    Ok(DailySeries {
        label: format!("{instance_type} avg stability"),
        points,
    })
}

/// Figure 4c: the cross-region average Spot Placement Score per day.
///
/// # Errors
///
/// Returns a [`MarketError`] if `days` exceeds the market horizon.
pub fn average_placement_series(
    market: &SpotMarket,
    instance_type: InstanceType,
    days: u32,
) -> Result<DailySeries, MarketError> {
    let regions = market.regions_offering(instance_type);
    let mut points = Vec::with_capacity(days as usize);
    for day in 0..days {
        let at = SimTime::from_days(u64::from(day));
        let sum: u32 = regions
            .iter()
            .map(|&r| {
                market
                    .placement_score(r, instance_type, at)
                    .map(|s| u32::from(s.value()))
            })
            .sum::<Result<u32, _>>()?;
        points.push((day, f64::from(sum) / regions.len() as f64));
    }
    Ok(DailySeries {
        label: format!("{instance_type} avg placement"),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketConfig;

    fn market() -> SpotMarket {
        SpotMarket::new(MarketConfig::with_seed(11))
    }

    #[test]
    fn price_traces_cover_all_azs() {
        let m = market();
        let traces = price_traces(&m, InstanceType::M5Xlarge, 30).unwrap();
        let expected: usize = Region::ALL.iter().map(|r| r.az_count() as usize).sum();
        assert_eq!(traces.len(), expected);
        for t in &traces {
            assert_eq!(t.points.len(), 30);
            assert!(t.points.iter().all(|&(_, p)| p > 0.0));
        }
    }

    #[test]
    fn price_traces_show_regional_diversity() {
        let m = market();
        let traces = price_traces(&m, InstanceType::M5Xlarge, 10).unwrap();
        let means: Vec<f64> = traces.iter().map(DailySeries::mean).collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi / lo > 1.5, "regional spread too small: {lo}..{hi}");
    }

    #[test]
    fn heatmap_dimensions_and_shares() {
        let m = market();
        let hm = band_heatmap(&m, InstanceType::M52xlarge, 180).unwrap();
        assert_eq!(hm.regions.len(), 12);
        assert_eq!(hm.cells.len(), 12);
        assert!(hm.cells.iter().all(|row| row.len() == 180));
        let shares = hm.band_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mixed market: both stable and unstable cells appear.
        assert!(shares[0] > 0.0, "some <5% cells expected");
        assert!(shares[4] > 0.0, "some >20% cells expected");
    }

    #[test]
    fn average_scores_within_scale_bounds() {
        let m = market();
        for itype in [
            InstanceType::C52xlarge,
            InstanceType::M52xlarge,
            InstanceType::P32xlarge,
        ] {
            let stability = average_stability_series(&m, itype, 180).unwrap();
            assert!(stability
                .points
                .iter()
                .all(|&(_, v)| (1.0..=3.0).contains(&v)));
            let placement = average_placement_series(&m, itype, 180).unwrap();
            assert!(placement
                .points
                .iter()
                .all(|&(_, v)| (1.0..=10.0).contains(&v)));
        }
    }

    #[test]
    fn p3_placement_flatter_than_m5() {
        // Figure 4c: p3.2xlarge placement is consistent across regions, so
        // its cross-region average should vary less than m5.2xlarge's.
        let m = market();
        let spread = |s: &DailySeries| {
            let lo = s.points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let hi = s
                .points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        let p3 = average_placement_series(&m, InstanceType::P32xlarge, 180).unwrap();
        let m5 = average_placement_series(&m, InstanceType::M52xlarge, 180).unwrap();
        assert!(
            p3.points.iter().map(|&(_, v)| v).sum::<f64>() / 180.0 <= 5.0,
            "p3 average should sit near its uniform mean"
        );
        // Both wobble, but the absolute levels differ (m5 mix of 3..7 means).
        assert!(spread(&p3) < 3.0 && spread(&m5) < 3.0);
    }
}
