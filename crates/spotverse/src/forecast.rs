//! Metric forecasting (paper §7 future work: "use machine learning to
//! optimize cloud resource allocation, predict efficient resource
//! configurations, and adapt to market conditions").
//!
//! A deliberately simple, fully deterministic online model: per-region
//! exponentially-weighted moving averages with a trend term
//! (Holt's linear smoothing) over the spot price and placement score.
//! [`SpotVerseStrategy::forecasting`](crate::SpotVerseStrategy::forecasting)
//! feeds Algorithm 1 the *predicted* next-period metrics instead of the
//! latest observation, damping transient episode spikes that would
//! otherwise reorder the selection.

use std::collections::BTreeMap;

use cloud_market::{PlacementScore, Region, UsdPerHour};

use crate::optimizer::RegionAssessment;

/// Holt's linear (level + trend) exponential smoothing for one signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltSmoother {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
}

impl HoltSmoother {
    /// Creates a smoother with level gain `alpha` and trend gain `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless both gains are in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && alpha > 0.0, "bad alpha {alpha}");
        assert!((0.0..=1.0).contains(&beta) && beta > 0.0, "bad beta {beta}");
        HoltSmoother {
            alpha,
            beta,
            level: None,
            trend: 0.0,
        }
    }

    /// Ingests an observation.
    pub fn observe(&mut self, value: f64) {
        match self.level {
            None => self.level = Some(value),
            Some(prev_level) => {
                let new_level =
                    self.alpha * value + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend =
                    self.beta * (new_level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(new_level);
            }
        }
    }

    /// Predicts `steps` periods ahead, or `None` before any observation.
    pub fn forecast(&self, steps: u32) -> Option<f64> {
        self.level.map(|l| l + self.trend * f64::from(steps))
    }
}

/// Per-region forecasters for the two signals Algorithm 1 consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricForecaster {
    price: BTreeMap<Region, HoltSmoother>,
    placement: BTreeMap<Region, HoltSmoother>,
}

impl MetricForecaster {
    /// Creates an empty forecaster.
    pub fn new() -> Self {
        MetricForecaster::default()
    }

    /// Ingests a snapshot of assessments.
    pub fn observe(&mut self, assessments: &[RegionAssessment]) {
        for a in assessments {
            self.price
                .entry(a.region)
                .or_insert_with(|| HoltSmoother::new(0.35, 0.1))
                .observe(a.spot_price.rate());
            self.placement
                .entry(a.region)
                .or_insert_with(|| HoltSmoother::new(0.25, 0.05))
                .observe(f64::from(a.placement.value()));
        }
    }

    /// Produces predicted assessments: prices and placement scores are
    /// one-step-ahead forecasts; stability (a slow banded signal) passes
    /// through unchanged. Falls back to the observation when a region has
    /// no forecast yet.
    pub fn predict(&self, assessments: &[RegionAssessment]) -> Vec<RegionAssessment> {
        assessments
            .iter()
            .map(|a| {
                let price = self
                    .price
                    .get(&a.region)
                    .and_then(|s| s.forecast(1))
                    .map(|p| p.max(0.0001))
                    .unwrap_or_else(|| a.spot_price.rate());
                let placement = self
                    .placement
                    .get(&a.region)
                    .and_then(|s| s.forecast(1))
                    .map(PlacementScore::from_f64_clamped)
                    .unwrap_or(a.placement);
                RegionAssessment {
                    region: a.region,
                    placement,
                    stability: a.stability,
                    spot_price: UsdPerHour::new(price),
                    on_demand_price: a.on_demand_price,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{InstanceType, StabilityScore};

    use crate::config::SpotVerseConfig;
    use crate::optimizer::Placement;
    use crate::strategy::{SpotVerseStrategy, Strategy, StrategyContext};

    fn assessment(region: Region, price: f64) -> RegionAssessment {
        RegionAssessment {
            region,
            placement: PlacementScore::new(5).unwrap(),
            stability: StabilityScore::new(2).unwrap(),
            spot_price: UsdPerHour::new(price),
            on_demand_price: UsdPerHour::new(price * 4.0),
        }
    }

    #[test]
    fn holt_tracks_level() {
        let mut s = HoltSmoother::new(0.5, 0.1);
        assert_eq!(s.forecast(1), None);
        for _ in 0..50 {
            s.observe(10.0);
        }
        assert!((s.forecast(1).unwrap() - 10.0).abs() < 0.1);
    }

    #[test]
    fn holt_extrapolates_trend() {
        let mut s = HoltSmoother::new(0.5, 0.3);
        for i in 0..100 {
            s.observe(i as f64);
        }
        let one = s.forecast(1).unwrap();
        let five = s.forecast(5).unwrap();
        assert!(five > one, "positive trend extrapolates upward");
        assert!((one - 100.0).abs() < 3.0, "one-step forecast near next value, got {one}");
    }

    #[test]
    #[should_panic(expected = "bad alpha")]
    fn bad_gains_rejected() {
        HoltSmoother::new(0.0, 0.5);
    }

    #[test]
    fn forecaster_damps_a_transient_spike() {
        let mut f = MetricForecaster::new();
        // A stable price, then one spike.
        for _ in 0..20 {
            f.observe(&[assessment(Region::UsEast1, 0.05)]);
        }
        f.observe(&[assessment(Region::UsEast1, 0.09)]); // spike
        let predicted = f.predict(&[assessment(Region::UsEast1, 0.09)]);
        let p = predicted[0].spot_price.rate();
        assert!(
            p < 0.08,
            "forecast {p} should sit below the raw spike 0.09"
        );
        assert!(p > 0.05, "but above the old level");
    }

    #[test]
    fn predict_falls_back_for_unseen_regions() {
        let f = MetricForecaster::new();
        let raw = assessment(Region::EuWest1, 0.07);
        let predicted = f.predict(&[raw]);
        assert_eq!(predicted[0].spot_price, raw.spot_price);
        assert_eq!(predicted[0].placement, raw.placement);
    }

    #[test]
    fn strategy_decides_on_the_forecast_not_the_latest_snapshot() {
        // Three qualifying regions, one slot (max_regions 1). Eu-north-1
        // has been cheapest all along and spikes once to 0.09; the latest
        // snapshot alone would pick us-west-2 (0.07), the forecast keeps
        // eu-north-1 below it.
        let config = SpotVerseConfig::builder(InstanceType::M5Xlarge)
            .threshold(6)
            .max_regions(1)
            .build();
        let mut strategy = SpotVerseStrategy::forecasting(config.clone());
        let calm = [
            assessment(Region::EuNorth1, 0.05),
            assessment(Region::UsWest2, 0.07),
            assessment(Region::UsEast1, 0.08),
        ];
        let mut spiked = calm;
        spiked[0].spot_price = UsdPerHour::new(0.09);
        let mut rng = sim_kernel::SimRng::seed_from_u64(1);
        let mut decide = |strategy: &mut SpotVerseStrategy, snapshot: &[RegionAssessment]| {
            let mut ctx = StrategyContext {
                instance_type: InstanceType::M5Xlarge,
                now: sim_kernel::SimTime::ZERO,
                assessments: snapshot,
                quarantined: &[],
                rng: &mut rng,
                audit: None,
            };
            strategy.initial_placements(&mut ctx, 1)[0]
        };
        for _ in 0..20 {
            assert_eq!(decide(&mut strategy, &calm), Placement::Spot(Region::EuNorth1));
        }
        assert_eq!(decide(&mut strategy, &spiked), Placement::Spot(Region::EuNorth1));
        let mut plain = SpotVerseStrategy::new(config);
        assert_eq!(decide(&mut plain, &spiked), Placement::Spot(Region::UsWest2));
        assert_eq!(strategy.name(), "spotverse-forecast");
    }
}
