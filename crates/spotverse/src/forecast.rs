//! Metric forecasting (paper §7 future work: "use machine learning to
//! optimize cloud resource allocation, predict efficient resource
//! configurations, and adapt to market conditions").
//!
//! A deliberately simple, fully deterministic online model: per-region
//! exponentially-weighted moving averages with a trend term
//! (Holt's linear smoothing) over the spot price and placement score. A
//! [`ForecastingSpotVerseStrategy`] feeds Algorithm 1 the *predicted*
//! next-period metrics instead of the latest observation, damping
//! transient episode spikes that would otherwise reorder the selection.

use std::collections::BTreeMap;

use cloud_market::{PlacementScore, Region, UsdPerHour};

use crate::config::SpotVerseConfig;
use crate::optimizer::{MigrationPolicy, Optimizer, Placement, RegionAssessment};
use crate::strategy::{Strategy, StrategyContext};

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

    /// Number-free check for whether the model has seen data.
    pub fn is_warm(&self) -> bool {
        self.level.is_some()
    }
}

/// Per-region forecasters for the two signals Algorithm 1 consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricForecaster {
    price: BTreeMap<Region, HoltSmoother>,
    placement: BTreeMap<Region, HoltSmoother>,
    observations: u64,
}

impl MetricForecaster {
    /// Creates an empty forecaster.
    pub fn new() -> Self {
        MetricForecaster::default()
    }

    /// Observations ingested so far (snapshots × regions).
    pub fn observations(&self) -> u64 {
        self.observations
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
            self.observations += 1;
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

/// SpotVerse with forecasted metrics: every decision first updates the
/// forecaster with the observed snapshot, then runs Algorithm 1 on the
/// predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastingSpotVerseStrategy {
    optimizer: Optimizer,
    forecaster: MetricForecaster,
}

impl ForecastingSpotVerseStrategy {
    /// Creates the strategy.
    pub fn new(config: SpotVerseConfig) -> Self {
        ForecastingSpotVerseStrategy {
            optimizer: Optimizer::new(config),
            forecaster: MetricForecaster::new(),
        }
    }

    /// The forecaster state (for inspection).
    pub fn forecaster(&self) -> &MetricForecaster {
        &self.forecaster
    }
}

impl Strategy for ForecastingSpotVerseStrategy {
    fn name(&self) -> &str {
        "spotverse-forecast"
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        self.forecaster.observe(ctx.assessments);
        let predicted = self.forecaster.predict(ctx.assessments);
        self.optimizer.initial_placements_into(&predicted, n, &[], out);
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous: Region) -> Placement {
        self.forecaster.observe(ctx.assessments);
        let predicted = self.forecaster.predict(ctx.assessments);
        self.optimizer
            .migration_target(&predicted, previous, MigrationPolicy::RandomTopR, &[], ctx.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{InstanceType, StabilityScore};

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
        assert!(!s.is_warm());
        assert_eq!(s.forecast(1), None);
        for _ in 0..50 {
            s.observe(10.0);
        }
        assert!((s.forecast(1).unwrap() - 10.0).abs() < 0.1);
        assert!(s.is_warm());
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
    fn strategy_accumulates_observations_across_decisions() {
        let mut strategy = ForecastingSpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ));
        let assessments: Vec<RegionAssessment> = Region::ALL
            .into_iter()
            .map(|r| assessment(r, 0.05))
            .collect();
        let mut rng = sim_kernel::SimRng::seed_from_u64(1);
        let mut ctx = StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: sim_kernel::SimTime::ZERO,
            assessments: &assessments,
            quarantined: &[],
            rng: &mut rng,
        };
        let placements = strategy.initial_placements(&mut ctx, 4);
        assert_eq!(placements.len(), 4);
        let _ = strategy.relocate(&mut ctx, Region::UsEast1);
        assert_eq!(strategy.forecaster().observations(), 24, "two snapshots x 12 regions");
        assert_eq!(strategy.name(), "spotverse-forecast");
    }
}
