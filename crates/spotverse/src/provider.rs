//! Multi-provider metric availability (paper §7 future work).
//!
//! "Azure only provides Interruption Frequency data, while Google Cloud
//! Platform currently lacks comprehensive spot instance metrics." This
//! module models running Algorithm 1 under degraded metric availability
//! ([`SpotVerseStrategy::on_provider`](crate::SpotVerseStrategy::on_provider)):
//! unavailable metrics are replaced by neutral priors, which collapses the
//! combined score toward price-only selection — exactly the behaviour gap
//! the ablation bench quantifies. The caller re-bases the threshold so the
//! neutral priors do not filter everything out.

use cloud_market::{PlacementScore, StabilityScore};

use crate::optimizer::RegionAssessment;

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

/// Neutral placement prior used when the provider hides the real score.
const NEUTRAL_PLACEMENT: u8 = 5;
/// Neutral stability prior used when the provider hides interruption data.
const NEUTRAL_STABILITY: u8 = 2;

/// Degrades assessments to what the provider actually exposes: hidden
/// metrics are replaced by neutral priors (identical across regions, so
/// they stop differentiating the selection).
pub(crate) fn degrade_assessments(
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

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{InstanceType, Region, UsdPerHour};
    use sim_kernel::{SimRng, SimTime};

    use crate::config::SpotVerseConfig;
    use crate::optimizer::Placement;
    use crate::strategy::{SpotVerseStrategy, Strategy, StrategyContext};

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
        let mut strategy = SpotVerseStrategy::on_provider(
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
            audit: None,
        };
        let placements = strategy.initial_placements(&mut ctx, 4);
        // Neutral combined = 7, threshold 7 → all pass; cheapest-first
        // round-robin starts at ca-central-1 (0.042).
        assert_eq!(placements[0], Placement::Spot(Region::CaCentral1));
        assert_eq!(strategy.name(), "spotverse-gcp");
    }

    #[test]
    fn azure_mode_still_avoids_unstable_regions() {
        let mut strategy = SpotVerseStrategy::on_provider(
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
            audit: None,
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
}
