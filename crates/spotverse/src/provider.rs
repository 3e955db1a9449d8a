//! Multi-provider metric availability (paper §7 future work).
//!
//! "Azure only provides Interruption Frequency data, while Google Cloud
//! Platform currently lacks comprehensive spot instance metrics." This
//! module models running Algorithm 1 under degraded metric availability:
//! unavailable metrics are replaced by neutral priors, which collapses the
//! combined score toward price-only selection — exactly the behaviour gap
//! the ablation bench quantifies.

use cloud_market::{PlacementScore, Region, StabilityScore};

use crate::config::SpotVerseConfig;
use crate::optimizer::{MigrationPolicy, Optimizer, Placement, RegionAssessment};
use crate::strategy::{Strategy, StrategyContext};

/// Which advisor metrics a cloud provider exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricAvailability {
    /// AWS-like: Interruption Frequency and Spot Placement Score.
    Full,
    /// Azure-like: Interruption Frequency only.
    InterruptionOnly,
    /// GCP-like: neither metric (prices only).
    PriceOnly,
}

impl MetricAvailability {
    /// Every availability level, richest first.
    pub const ALL: [MetricAvailability; 3] = [
        MetricAvailability::Full,
        MetricAvailability::InterruptionOnly,
        MetricAvailability::PriceOnly,
    ];

    /// A short provider-style label.
    pub fn label(self) -> &'static str {
        match self {
            MetricAvailability::Full => "full (AWS-like)",
            MetricAvailability::InterruptionOnly => "interruption-only (Azure-like)",
            MetricAvailability::PriceOnly => "price-only (GCP-like)",
        }
    }
}

impl std::fmt::Display for MetricAvailability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Neutral placement prior used when the provider hides the real score.
const NEUTRAL_PLACEMENT: u8 = 5;
/// Neutral stability prior used when the provider hides interruption data.
const NEUTRAL_STABILITY: u8 = 2;

/// Degrades assessments to what the provider actually exposes: hidden
/// metrics are replaced by neutral priors (identical across regions, so
/// they stop differentiating the selection).
pub fn degrade_assessments(
    assessments: &[RegionAssessment],
    availability: MetricAvailability,
) -> Vec<RegionAssessment> {
    assessments
        .iter()
        .map(|a| {
            let mut out = *a;
            match availability {
                MetricAvailability::Full => {}
                MetricAvailability::InterruptionOnly => {
                    out.placement =
                        PlacementScore::new(NEUTRAL_PLACEMENT).expect("neutral in range");
                }
                MetricAvailability::PriceOnly => {
                    out.placement =
                        PlacementScore::new(NEUTRAL_PLACEMENT).expect("neutral in range");
                    out.stability =
                        StabilityScore::new(NEUTRAL_STABILITY).expect("neutral in range");
                }
            }
            out
        })
        .collect()
}

/// SpotVerse as ported to a provider with the given metric availability.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderAdaptedStrategy {
    optimizer: Optimizer,
    availability: MetricAvailability,
    name: String,
}

impl ProviderAdaptedStrategy {
    /// Creates the adapted strategy.
    ///
    /// With degraded availability the configured threshold is re-based so
    /// neutral priors do not unintentionally filter everything out: the
    /// hidden metric's neutral value is added to the caller's intent of
    /// "how much observed signal must a region show".
    pub fn new(config: SpotVerseConfig, availability: MetricAvailability) -> Self {
        let name = match availability {
            MetricAvailability::Full => "spotverse-aws",
            MetricAvailability::InterruptionOnly => "spotverse-azure",
            MetricAvailability::PriceOnly => "spotverse-gcp",
        };
        ProviderAdaptedStrategy {
            optimizer: Optimizer::new(config),
            availability,
            name: name.to_owned(),
        }
    }

    /// The availability this strategy operates under.
    pub fn availability(&self) -> MetricAvailability {
        self.availability
    }
}

impl Strategy for ProviderAdaptedStrategy {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        let degraded = degrade_assessments(ctx.assessments, self.availability);
        self.optimizer.initial_placements_into(&degraded, n, &[], out);
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous: Region) -> Placement {
        let degraded = degrade_assessments(ctx.assessments, self.availability);
        self.optimizer
            .migration_target(&degraded, previous, MigrationPolicy::RandomTopR, &[], ctx.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{InstanceType, UsdPerHour};
    use sim_kernel::{SimRng, SimTime};

    fn assessment(region: Region, placement: u8, stability: u8, price: f64) -> RegionAssessment {
        RegionAssessment {
            region,
            placement: PlacementScore::new(placement).unwrap(),
            stability: StabilityScore::new(stability).unwrap(),
            spot_price: UsdPerHour::new(price),
            on_demand_price: UsdPerHour::new(price * 4.0),
        }
    }

    fn fixture() -> Vec<RegionAssessment> {
        vec![
            assessment(Region::ApNortheast3, 7, 3, 0.086),
            assessment(Region::EuNorth1, 5, 2, 0.079),
            assessment(Region::CaCentral1, 4, 1, 0.042),
            assessment(Region::UsEast1, 3, 1, 0.0455),
        ]
    }

    #[test]
    fn full_availability_is_identity() {
        let original = fixture();
        let degraded = degrade_assessments(&original, MetricAvailability::Full);
        assert_eq!(degraded, original);
    }

    #[test]
    fn interruption_only_neutralizes_placement() {
        let degraded = degrade_assessments(&fixture(), MetricAvailability::InterruptionOnly);
        assert!(degraded.iter().all(|a| a.placement.value() == 5));
        // Stability survives (Azure publishes eviction rates).
        assert_eq!(degraded[0].stability.value(), 3);
        assert_eq!(degraded[2].stability.value(), 1);
    }

    #[test]
    fn price_only_collapses_scores_entirely() {
        let degraded = degrade_assessments(&fixture(), MetricAvailability::PriceOnly);
        let combined: Vec<u8> = degraded.iter().map(|a| a.combined().value()).collect();
        assert!(
            combined.windows(2).all(|w| w[0] == w[1]),
            "all regions score identically: {combined:?}"
        );
    }

    #[test]
    fn gcp_mode_degenerates_to_cheapest_price() {
        // With collapsed scores, Algorithm 1's selection is pure price
        // ordering — the SkyPilot behaviour the paper contrasts against.
        let mut strategy = ProviderAdaptedStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(7)
                .build(),
            MetricAvailability::PriceOnly,
        );
        let assessments = fixture();
        let mut rng = SimRng::seed_from_u64(1);
        let mut ctx = StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::ZERO,
            assessments: &assessments,
            quarantined: &[],
            rng: &mut rng,
        };
        let placements = strategy.initial_placements(&mut ctx, 4);
        // Neutral combined = 7, threshold 7 → all pass; cheapest-first
        // round-robin starts at ca-central-1 (0.042).
        assert_eq!(placements[0].region(), Region::CaCentral1);
        assert_eq!(strategy.availability(), MetricAvailability::PriceOnly);
        assert_eq!(strategy.name(), "spotverse-gcp");
    }

    #[test]
    fn azure_mode_still_avoids_unstable_regions() {
        let mut strategy = ProviderAdaptedStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(7) // neutral placement 5 + stability ≥ 2
                .build(),
            MetricAvailability::InterruptionOnly,
        );
        let assessments = fixture();
        let mut rng = SimRng::seed_from_u64(2);
        let mut ctx = StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::ZERO,
            assessments: &assessments,
            quarantined: &[],
            rng: &mut rng,
        };
        for _ in 0..50 {
            let p = strategy.relocate(&mut ctx, Region::EuWest1);
            // Stability-1 regions score 5 + 1 = 6 < 7 and are filtered.
            assert!(
                !matches!(p.region(), Region::CaCentral1 | Region::UsEast1),
                "unstable region selected: {p:?}"
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = MetricAvailability::ALL.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
        assert_eq!(MetricAvailability::Full.to_string(), "full (AWS-like)");
    }
}
