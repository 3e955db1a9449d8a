//! Deadline-aware placement (related work §6: Wu et al., "Can't Be Late:
//! Optimizing Spot Instance Savings under Deadlines", NSDI '24).
//!
//! SpotVerse's threshold fallback switches to on-demand when *regions* look
//! risky; a deadline-aware policy switches when *time* runs out.
//! [`SpotVerseStrategy::with_deadline`](crate::SpotVerseStrategy::with_deadline)
//! stays on SpotVerse's spot selection while there is slack, and pins a
//! workload to on-demand once its remaining slack drops below a safety
//! factor times the remaining work — guaranteeing completion at on-demand
//! reliability while harvesting spot savings early.

use sim_kernel::{SimDuration, SimTime};

/// Deadline policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// The absolute completion deadline for every workload in the fleet.
    pub deadline: SimTime,
    /// Nominal uninterrupted duration of one workload (used to estimate
    /// remaining work after an interruption of a restart-from-scratch
    /// workload).
    pub workload_duration: SimDuration,
    /// Switch to on-demand when
    /// `remaining slack < safety_factor × remaining work`. A factor of 1.0
    /// switches exactly when one more uninterrupted attempt barely fits;
    /// larger factors switch earlier.
    pub safety_factor: f64,
}

impl DeadlinePolicy {
    /// Whether a workload deciding at `now` with `remaining_work` left must
    /// pin to on-demand to make the deadline.
    pub fn must_go_on_demand(&self, now: SimTime, remaining_work: SimDuration) -> bool {
        let slack = self.deadline.saturating_duration_since(now);
        (slack.as_secs() as f64) < self.safety_factor * remaining_work.as_secs() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{InstanceType, PlacementScore, Region, StabilityScore, UsdPerHour};
    use sim_kernel::SimRng;

    use crate::config::SpotVerseConfig;
    use crate::optimizer::{Placement, RegionAssessment};
    use crate::strategy::{SpotVerseStrategy, Strategy, StrategyContext};

    fn assessments() -> Vec<RegionAssessment> {
        vec![
            RegionAssessment {
                region: Region::ApNortheast3,
                placement: PlacementScore::new(7).unwrap(),
                stability: StabilityScore::new(3).unwrap(),
                spot_price: UsdPerHour::new(0.086),
                on_demand_price: UsdPerHour::new(0.238),
            },
            RegionAssessment {
                region: Region::UsEast1,
                placement: PlacementScore::new(3).unwrap(),
                stability: StabilityScore::new(1).unwrap(),
                spot_price: UsdPerHour::new(0.0455),
                on_demand_price: UsdPerHour::new(0.192),
            },
        ]
    }

    fn policy(deadline_hours: u64) -> DeadlinePolicy {
        DeadlinePolicy {
            deadline: SimTime::from_hours(deadline_hours),
            workload_duration: SimDuration::from_hours(10),
            safety_factor: 1.2,
        }
    }

    #[test]
    fn guard_math() {
        let p = policy(24);
        // At t=0 slack is 24 h, 1.2 × 10 h = 12 h fits.
        assert!(!p.must_go_on_demand(SimTime::ZERO, SimDuration::from_hours(10)));
        // At t=13 slack is 11 h < 12 h: must switch.
        assert!(p.must_go_on_demand(SimTime::from_hours(13), SimDuration::from_hours(10)));
        // Past the deadline, slack saturates at zero.
        assert!(p.must_go_on_demand(SimTime::from_hours(30), SimDuration::from_secs(1)));
    }

    fn strategy(deadline_hours: u64) -> SpotVerseStrategy {
        SpotVerseStrategy::with_deadline(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            policy(deadline_hours),
        )
    }

    fn ctx_at<'a>(
        now_hours: u64,
        a: &'a [RegionAssessment],
        rng: &'a mut SimRng,
    ) -> StrategyContext<'a> {
        StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::from_hours(now_hours),
            assessments: a,
            quarantined: &[],
            rng,
            audit: None,
        }
    }

    #[test]
    fn relocates_on_spot_while_slack_remains() {
        let a = assessments();
        let mut rng = SimRng::seed_from_u64(1);
        let mut ctx = ctx_at(2, &a, &mut rng);
        let p = strategy(48).relocate(&mut ctx, Region::UsEast1);
        assert_eq!(p, Placement::Spot(Region::ApNortheast3), "the one other qualifying region");
    }

    #[test]
    fn pins_to_on_demand_when_slack_runs_out() {
        let a = assessments();
        let mut rng = SimRng::seed_from_u64(2);
        // Slack 10 h < 12 h needed.
        let mut ctx = ctx_at(14, &a, &mut rng);
        let p = strategy(24).relocate(&mut ctx, Region::UsEast1);
        assert_eq!(p, Placement::OnDemand(Region::UsEast1), "cheapest on-demand in the fixture");
    }

    #[test]
    fn hopeless_deadline_goes_straight_to_on_demand() {
        let a = assessments();
        let mut rng = SimRng::seed_from_u64(3);
        let mut ctx = ctx_at(20, &a, &mut rng);
        let mut s = strategy(24);
        let placements = s.initial_placements(&mut ctx, 5);
        assert_eq!(placements, vec![Placement::OnDemand(Region::UsEast1); 5]);
        assert_eq!(s.name(), "spotverse-deadline");
    }

    #[test]
    #[should_panic(expected = "safety factor")]
    fn bad_safety_factor_rejected() {
        SpotVerseStrategy::with_deadline(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            DeadlinePolicy {
                deadline: SimTime::from_hours(1),
                workload_duration: SimDuration::from_hours(1),
                safety_factor: 0.0,
            },
        );
    }
}
