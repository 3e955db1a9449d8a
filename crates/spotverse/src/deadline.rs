//! Deadline-aware placement (related work §6: Wu et al., "Can't Be Late:
//! Optimizing Spot Instance Savings under Deadlines", NSDI '24).
//!
//! SpotVerse's threshold fallback switches to on-demand when *regions* look
//! risky; a deadline-aware policy switches when *time* runs out. The
//! strategy tracks each workload's deadline and remaining work, stays on
//! SpotVerse's spot selection while there is slack, and pins a workload to
//! on-demand once its remaining slack drops below a safety factor times the
//! remaining work — guaranteeing completion at on-demand reliability while
//! harvesting spot savings early.

use std::collections::BTreeMap;

use cloud_market::Region;
use sim_kernel::{SimDuration, SimTime};

use crate::config::SpotVerseConfig;
use crate::optimizer::{MigrationPolicy, Optimizer, Placement};
use crate::strategy::{Strategy, StrategyContext};

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

/// SpotVerse extended with a per-workload deadline guard.
///
/// Relocation decisions consult the policy: while slack remains, the normal
/// Algorithm-1 migration runs; once the guard trips for a region's
/// workload, it relaunches on-demand (and the experiment engine keeps it
/// there, since on-demand instances never interrupt).
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineAwareStrategy {
    optimizer: Optimizer,
    policy: DeadlinePolicy,
    /// Interruption counts per region (a cheap proxy for remaining work:
    /// every relocate call implies the caller lost a restart-from-scratch
    /// attempt).
    relocations: BTreeMap<Region, u32>,
    pinned_on_demand: u32,
}

impl DeadlineAwareStrategy {
    /// Creates the strategy.
    ///
    /// # Panics
    ///
    /// Panics if the safety factor is not positive and finite.
    pub fn new(config: SpotVerseConfig, policy: DeadlinePolicy) -> Self {
        assert!(
            policy.safety_factor.is_finite() && policy.safety_factor > 0.0,
            "safety factor must be positive"
        );
        DeadlineAwareStrategy {
            optimizer: Optimizer::new(config),
            policy,
            relocations: BTreeMap::new(),
            pinned_on_demand: 0,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> DeadlinePolicy {
        self.policy
    }

    /// How many relocations were pinned to on-demand by the deadline guard.
    pub fn pinned_on_demand(&self) -> u32 {
        self.pinned_on_demand
    }
}

impl Strategy for DeadlineAwareStrategy {
    fn name(&self) -> &str {
        "spotverse-deadline"
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        // At fleet start the full duration must fit; if it already does not,
        // everything goes straight to on-demand.
        if self.policy.must_go_on_demand(ctx.now, self.policy.workload_duration) {
            let od = self.optimizer.cheapest_on_demand(ctx.assessments);
            self.pinned_on_demand += n as u32;
            out.extend(std::iter::repeat_n(Placement::OnDemand(od), n));
            return;
        }
        self.optimizer.initial_placements_into(ctx.assessments, n, &[], out);
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous: Region) -> Placement {
        *self.relocations.entry(previous).or_insert(0) += 1;
        // A restart-from-scratch workload needs a full fresh attempt.
        if self
            .policy
            .must_go_on_demand(ctx.now, self.policy.workload_duration)
        {
            self.pinned_on_demand += 1;
            return Placement::OnDemand(self.optimizer.cheapest_on_demand(ctx.assessments));
        }
        self.optimizer
            .migration_target(ctx.assessments, previous, MigrationPolicy::RandomTopR, &[], ctx.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{InstanceType, PlacementScore, StabilityScore, UsdPerHour};
    use sim_kernel::SimRng;

    use crate::optimizer::RegionAssessment;

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

    #[test]
    fn relocates_on_spot_while_slack_remains() {
        let a = assessments();
        let mut rng = SimRng::seed_from_u64(1);
        let mut ctx = StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::from_hours(2),
            assessments: &a,
            quarantined: &[],
            rng: &mut rng,
        };
        let mut s = DeadlineAwareStrategy::new(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            policy(48),
        );
        let p = s.relocate(&mut ctx, Region::UsEast1);
        assert!(p.is_spot());
        assert_eq!(s.pinned_on_demand(), 0);
    }

    #[test]
    fn pins_to_on_demand_when_slack_runs_out() {
        let a = assessments();
        let mut rng = SimRng::seed_from_u64(2);
        let mut ctx = StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::from_hours(14), // slack 10 h < 12 h needed
            assessments: &a,
            quarantined: &[],
            rng: &mut rng,
        };
        let mut s = DeadlineAwareStrategy::new(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            policy(24),
        );
        let p = s.relocate(&mut ctx, Region::UsEast1);
        assert!(!p.is_spot());
        assert_eq!(p.region(), Region::UsEast1, "cheapest on-demand in the fixture");
        assert_eq!(s.pinned_on_demand(), 1);
    }

    #[test]
    fn hopeless_deadline_goes_straight_to_on_demand() {
        let a = assessments();
        let mut rng = SimRng::seed_from_u64(3);
        let mut ctx = StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::from_hours(20),
            assessments: &a,
            quarantined: &[],
            rng: &mut rng,
        };
        let mut s = DeadlineAwareStrategy::new(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            policy(24),
        );
        let placements = s.initial_placements(&mut ctx, 5);
        assert!(placements.iter().all(|p| !p.is_spot()));
        assert_eq!(s.pinned_on_demand(), 5);
        assert_eq!(s.name(), "spotverse-deadline");
        assert_eq!(s.policy().safety_factor, 1.2);
    }

    #[test]
    #[should_panic(expected = "safety factor")]
    fn bad_safety_factor_rejected() {
        DeadlineAwareStrategy::new(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            DeadlinePolicy {
                deadline: SimTime::from_hours(1),
                workload_duration: SimDuration::from_hours(1),
                safety_factor: 0.0,
            },
        );
    }
}
