//! The Optimizer: the paper's Algorithm 1 ("SpotVerse Workload
//! Management").
//!
//! Regions are assessed by a combined score — Spot Placement Score (1–10)
//! plus Stability Score (1–3) — filtered by a threshold `T`, sorted by spot
//! price ascending, and capped at `R` regions. Initial workloads are
//! assigned round-robin over the selection; an interrupted workload
//! migrates to a uniformly random member after excluding the region it was
//! interrupted in. When no region meets the threshold, the workload falls
//! back to the cheapest on-demand instance.

use std::cmp::Ordering;
use std::str::FromStr;

use cloud_market::{CombinedScore, PlacementScore, Region, StabilityScore, UsdPerHour};
use sim_kernel::SimRng;

use crate::config::{InitialPlacement, SpotVerseConfig};

/// One region's assessment at a decision instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionAssessment {
    /// The assessed region.
    pub region: Region,
    /// Spot Placement Score.
    pub placement: PlacementScore,
    /// Stability Score (inverse of Interruption Frequency).
    pub stability: StabilityScore,
    /// Current spot price.
    pub spot_price: UsdPerHour,
    /// Current on-demand price.
    pub on_demand_price: UsdPerHour,
}

impl RegionAssessment {
    /// The combined score Algorithm 1 ranks on.
    pub fn combined(&self) -> CombinedScore {
        CombinedScore::new(self.placement, self.stability)
    }

    /// The spot ranking every strategy uses: cheaper spot price first.
    pub(crate) fn cmp_spot(&self, other: &Self) -> Ordering {
        cmp_price(self, other, |a| a.spot_price)
    }
}

/// Orders two assessments by `price`, ties broken by region name, so a
/// ranking never depends on the order the regions were assessed in.
fn cmp_price(
    a: &RegionAssessment,
    b: &RegionAssessment,
    price: impl Fn(&RegionAssessment) -> UsdPerHour,
) -> Ordering {
    price(a)
        .rate()
        .total_cmp(&price(b).rate())
        .then_with(|| a.region.name().cmp(b.region.name()))
}

/// The region with the cheapest spot price among `candidates`, or `None`
/// when there are none.
pub fn cheapest_spot<'a>(
    candidates: impl IntoIterator<Item = &'a RegionAssessment>,
) -> Option<Region> {
    candidates.into_iter().min_by(|a, b| a.cmp_spot(b)).map(|a| a.region)
}

/// The on-demand fallback: the region with the cheapest on-demand price
/// among `candidates`. On-demand prices are static catalog data, so they
/// stay trustworthy even when every dynamic metric has expired.
///
/// # Panics
///
/// Panics if `candidates` is empty (the market always offers at least one
/// region per instance type).
pub fn cheapest_on_demand<'a>(
    candidates: impl IntoIterator<Item = &'a RegionAssessment>,
) -> Region {
    candidates
        .into_iter()
        .min_by(|a, b| cmp_price(a, b, |x| x.on_demand_price))
        .expect("cheapest_on_demand: no candidate regions")
        .region
}

/// Where Algorithm 1 decides to run something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// A spot instance in the region.
    Spot(Region),
    /// An on-demand instance in the region (threshold fallback).
    OnDemand(Region),
}

impl Placement {
    /// The target region.
    pub fn region(self) -> Region {
        match self {
            Placement::Spot(r) | Placement::OnDemand(r) => r,
        }
    }

    /// Whether this is a spot placement.
    pub fn is_spot(self) -> bool {
        matches!(self, Placement::Spot(_))
    }
}

/// Why a region did (or did not) make a selection — the per-candidate
/// audit record attached to traced decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Selected, with its 0-based rank in the price-sorted top-R.
    Selected {
        /// Position in the selection (0 = cheapest).
        rank: usize,
    },
    /// Dropped by the health exclusion list before scoring.
    Quarantined,
    /// Outside the configured preferred-regions set.
    NotPreferred,
    /// Combined score below the threshold `T`.
    BelowThreshold,
    /// Qualified but priced out of the top-R cap.
    OverCap,
    /// Excluded as the region the workload was just interrupted in.
    InterruptedHere,
}

impl FromStr for CandidateOutcome {
    type Err = String;

    /// Parses the canonical lowercase label a trace export writes:
    /// `selected:<rank>`, `quarantined`, `not-preferred`,
    /// `below-threshold`, `over-cap` or `interrupted-here`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rank) = s.strip_prefix("selected:") {
            let rank = rank
                .parse::<usize>()
                .map_err(|_| format!("selected rank `{rank}` is not an integer"))?;
            return Ok(CandidateOutcome::Selected { rank });
        }
        match s {
            "quarantined" => Ok(CandidateOutcome::Quarantined),
            "not-preferred" => Ok(CandidateOutcome::NotPreferred),
            "below-threshold" => Ok(CandidateOutcome::BelowThreshold),
            "over-cap" => Ok(CandidateOutcome::OverCap),
            "interrupted-here" => Ok(CandidateOutcome::InterruptedHere),
            other => Err(format!("unknown candidate outcome `{other}`")),
        }
    }
}

/// One assessed region's fate in a selection decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateVerdict {
    /// The assessed region.
    pub region: Region,
    /// Its combined score at the decision instant.
    pub combined: u8,
    /// Its spot price ($/h) at the decision instant.
    pub spot_price: f64,
    /// Why it was selected or rejected.
    pub outcome: CandidateOutcome,
}

/// How an interrupted workload picks its next region among the selected
/// top-R — Algorithm 1 uses [`MigrationPolicy::RandomTopR`]; the other
/// variants exist for the component-ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// The paper's policy: uniformly random among the top-R (spreads
    /// migrating workloads instead of dog-piling the cheapest survivor).
    RandomTopR,
    /// Always the cheapest qualifying region (ablation: no randomization).
    CheapestQualifying,
    /// Relaunch in the interrupted region (ablation: no migration at all).
    StayPut,
}

/// The Optimizer component.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimizer {
    config: SpotVerseConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: SpotVerseConfig) -> Self {
        Optimizer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SpotVerseConfig {
        &self.config
    }

    /// `SelectRegions`: admissible regions with combined score ≥ T, sorted
    /// by spot price ascending and capped at `R`.
    ///
    /// `excluded` regions (health quarantine, capacity-full) are dropped
    /// *before* the threshold/top-R selection, so the selection refills
    /// from the next qualifying region instead of silently shrinking.
    /// Pass `&[]` for an unconstrained selection.
    pub fn select_regions(
        &self,
        assessments: &[RegionAssessment],
        excluded: &[Region],
    ) -> Vec<RegionAssessment> {
        self.select(assessments, excluded, None)
    }

    /// [`select_regions`](Optimizer::select_regions) with the region a
    /// workload was just interrupted in (when migrating) dropped in the
    /// same filter pass, so a migration copies no assessments to drop it.
    fn select(
        &self,
        assessments: &[RegionAssessment],
        excluded: &[Region],
        interrupted: Option<Region>,
    ) -> Vec<RegionAssessment> {
        let mut selected: Vec<RegionAssessment> = assessments
            .iter()
            .filter(|a| Some(a.region) != interrupted && !excluded.contains(&a.region))
            .filter(|a| self.config.allows_region(a.region))
            .filter(|a| a.combined().meets(self.config.threshold()))
            .copied()
            .collect();
        selected.sort_by(RegionAssessment::cmp_spot);
        selected.truncate(self.config.max_regions());
        selected
    }

    /// The cheapest-on-demand fallback across admissible regions.
    ///
    /// # Panics
    ///
    /// Panics if no assessed region is admissible.
    pub fn cheapest_on_demand(&self, assessments: &[RegionAssessment]) -> Region {
        cheapest_on_demand(assessments.iter().filter(|a| self.config.allows_region(a.region)))
    }

    /// The cheapest-on-demand region among admissible regions outside
    /// `excluded`, or among every admissible region when all of them are
    /// excluded.
    ///
    /// # Panics
    ///
    /// Panics if no assessed region is admissible.
    pub fn cheapest_on_demand_outside(
        &self,
        assessments: &[RegionAssessment],
        excluded: &[Region],
    ) -> Region {
        let admissible = || assessments.iter().filter(|a| self.config.allows_region(a.region));
        if admissible().all(|a| excluded.contains(&a.region)) {
            return self.cheapest_on_demand(assessments);
        }
        cheapest_on_demand(admissible().filter(|a| !excluded.contains(&a.region)))
    }

    /// Initial placement for `n` workloads, appended to `out` (the fleet
    /// loop pools one vector across batches): all on spot in the
    /// configured region under [`InitialPlacement::SingleRegion`];
    /// otherwise round-robin over the selected regions, or all-on-demand
    /// when the threshold filters everything out.
    ///
    /// `excluded` regions are dropped before selection (see
    /// [`select_regions`](Optimizer::select_regions)). The on-demand
    /// fallback is deliberately *not* filtered: when every qualifying
    /// region is excluded, a guaranteed-capacity launch in a
    /// sick-for-spot region beats not launching at all.
    ///
    /// `audit`, when given, receives one verdict per assessed region from
    /// the selection the placements came from. A `SingleRegion` start
    /// selects nothing and leaves it empty.
    pub fn initial_placements_into(
        &self,
        assessments: &[RegionAssessment],
        n: usize,
        excluded: &[Region],
        out: &mut Vec<Placement>,
        audit: Option<&mut Vec<CandidateVerdict>>,
    ) {
        if let InitialPlacement::SingleRegion(region) = self.config.initial_placement() {
            out.extend(std::iter::repeat_n(Placement::Spot(*region), n));
            return;
        }
        let selected = self.select(assessments, excluded, None);
        if let Some(audit) = audit {
            self.audit(assessments, excluded, None, &selected, audit);
        }
        if selected.is_empty() {
            let od = self.cheapest_on_demand(assessments);
            out.extend(std::iter::repeat_n(Placement::OnDemand(od), n));
            return;
        }
        out.extend((0..n).map(|i| Placement::Spot(selected[i % selected.len()].region)));
    }

    /// Migration target for a workload interrupted in
    /// `interrupted_region`, under the given policy (Algorithm 1 is
    /// [`MigrationPolicy::RandomTopR`]; the others support the
    /// component-ablation benches): a member of the re-selected top-R
    /// after dropping the interrupted region and every `excluded` region,
    /// or cheapest on-demand when nothing qualifies.
    ///
    /// `StayPut` ignores the exclusion list by design — that ablation
    /// measures "no migration at all", quarantine included — and, as it
    /// selects nothing, leaves `audit` empty. With an empty list the
    /// selection consumes exactly the same RNG draws as an unconstrained
    /// one. `audit`, when given, is filled as by
    /// [`initial_placements_into`](Optimizer::initial_placements_into).
    pub fn migration_target(
        &self,
        assessments: &[RegionAssessment],
        interrupted_region: Region,
        policy: MigrationPolicy,
        excluded: &[Region],
        rng: &mut SimRng,
        audit: Option<&mut Vec<CandidateVerdict>>,
    ) -> Placement {
        if policy == MigrationPolicy::StayPut {
            return Placement::Spot(interrupted_region);
        }
        // Exclude first, then take the top R — so the selection never
        // silently shrinks below R because of the exclusion.
        let interrupted = Some(interrupted_region);
        let selected = self.select(assessments, excluded, interrupted);
        if let Some(audit) = audit {
            self.audit(assessments, excluded, interrupted, &selected, audit);
        }
        if selected.is_empty() {
            return Placement::OnDemand(self.cheapest_on_demand(assessments));
        }
        let pick = match policy {
            MigrationPolicy::RandomTopR => rng.pick_index(selected.len()),
            MigrationPolicy::CheapestQualifying => 0,
            MigrationPolicy::StayPut => unreachable!("handled above"),
        };
        Placement::Spot(selected[pick].region)
    }

    /// Appends to `out` one verdict per assessed region, in assessment
    /// order, for the `selected` regions that
    /// [`select`](Optimizer::select) returned from the same arguments:
    /// the audit of the selection a decision placed from.
    fn audit(
        &self,
        assessments: &[RegionAssessment],
        excluded: &[Region],
        interrupted: Option<Region>,
        selected: &[RegionAssessment],
        out: &mut Vec<CandidateVerdict>,
    ) {
        out.extend(assessments.iter().map(|a| {
            let outcome = if Some(a.region) == interrupted {
                CandidateOutcome::InterruptedHere
            } else if let Some(rank) = selected.iter().position(|s| s.region == a.region) {
                CandidateOutcome::Selected { rank }
            } else if excluded.contains(&a.region) {
                CandidateOutcome::Quarantined
            } else if !self.config.allows_region(a.region) {
                CandidateOutcome::NotPreferred
            } else if !a.combined().meets(self.config.threshold()) {
                CandidateOutcome::BelowThreshold
            } else {
                CandidateOutcome::OverCap
            };
            CandidateVerdict {
                region: a.region,
                combined: a.combined().value(),
                spot_price: a.spot_price.rate(),
                outcome,
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::InstanceType;

    fn assessment(region: Region, placement: u8, stability: u8, price: f64) -> RegionAssessment {
        RegionAssessment {
            region,
            placement: PlacementScore::new(placement).unwrap(),
            stability: StabilityScore::new(stability).unwrap(),
            spot_price: UsdPerHour::new(price),
            on_demand_price: UsdPerHour::new(price * 4.0),
        }
    }

    /// The paper's Table 3-like fixture: tiered regions with prices inverse
    /// to score.
    fn fixture() -> Vec<RegionAssessment> {
        vec![
            assessment(Region::ApNortheast3, 7, 3, 0.086), // combined 10
            assessment(Region::UsWest1, 6, 3, 0.088),      // 9
            assessment(Region::EuWest1, 6, 2, 0.092),      // 8
            assessment(Region::EuNorth1, 5, 2, 0.079),     // 7
            assessment(Region::CaCentral1, 4, 1, 0.056),   // 5
            assessment(Region::ApSoutheast1, 4, 1, 0.057), // 5
            assessment(Region::EuWest3, 3, 2, 0.058),      // 5
            assessment(Region::EuWest2, 3, 2, 0.059),      // 5
            assessment(Region::UsEast1, 3, 1, 0.0455),     // 4
            assessment(Region::UsEast2, 3, 1, 0.0450),     // 4
            assessment(Region::ApSoutheast2, 3, 1, 0.047), // 4
            assessment(Region::UsWest2, 3, 1, 0.0465),     // 4
        ]
    }

    fn optimizer(threshold: u8) -> Optimizer {
        Optimizer::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(threshold)
                .max_regions(4)
                .build(),
        )
    }

    #[test]
    fn the_on_demand_pin_skips_excluded_regions_unless_all_are() {
        let (opt, a) = (optimizer(6), fixture());
        assert_eq!(opt.cheapest_on_demand_outside(&a, &[]), Region::UsEast2);
        assert_eq!(opt.cheapest_on_demand_outside(&a, &[Region::UsEast2]), Region::UsEast1);
        let all: Vec<Region> = a.iter().map(|x| x.region).collect();
        assert_eq!(opt.cheapest_on_demand_outside(&a, &all), Region::UsEast2);
    }

    #[test]
    fn threshold_6_selects_paper_tier_a() {
        let sel = optimizer(6).select_regions(&fixture(), &[]);
        let regions: Vec<Region> = sel.iter().map(|a| a.region).collect();
        assert_eq!(
            regions,
            vec![
                Region::EuNorth1,
                Region::ApNortheast3,
                Region::UsWest1,
                Region::EuWest1
            ],
            "threshold-6 regions sorted by price ascending"
        );
    }

    #[test]
    fn threshold_5_selects_paper_tier_b() {
        let sel = optimizer(5).select_regions(&fixture(), &[]);
        let regions: Vec<Region> = sel.iter().map(|a| a.region).collect();
        assert_eq!(
            regions,
            vec![
                Region::CaCentral1,
                Region::ApSoutheast1,
                Region::EuWest3,
                Region::EuWest2
            ]
        );
    }

    #[test]
    fn threshold_4_selects_cheapest_overall() {
        let sel = optimizer(4).select_regions(&fixture(), &[]);
        let regions: Vec<Region> = sel.iter().map(|a| a.region).collect();
        assert_eq!(
            regions,
            vec![
                Region::UsEast2,
                Region::UsEast1,
                Region::UsWest2,
                Region::ApSoutheast2
            ]
        );
    }

    #[test]
    fn selection_invariants() {
        for threshold in 2..=13 {
            let opt = optimizer(threshold);
            let sel = opt.select_regions(&fixture(), &[]);
            assert!(sel.len() <= 4);
            assert!(sel.iter().all(|a| a.combined().meets(threshold)));
            assert!(sel
                .windows(2)
                .all(|w| w[0].spot_price.rate() <= w[1].spot_price.rate()));
        }
    }

    #[test]
    fn round_robin_initial_distribution() {
        let mut placements = Vec::new();
        optimizer(6).initial_placements_into(&fixture(), 10, &[], &mut placements, None);
        assert_eq!(placements.len(), 10);
        assert!(placements.iter().all(|p| p.is_spot()));
        // Round-robin: workloads 0 and 4 land in the same (cheapest) region.
        assert_eq!(placements[0], placements[4]);
        assert_eq!(placements[0].region(), Region::EuNorth1);
        assert_eq!(placements[1].region(), Region::ApNortheast3);
        // Even spread: each of the 4 regions gets 2 or 3 of 10 workloads.
        for region in [
            Region::EuNorth1,
            Region::ApNortheast3,
            Region::UsWest1,
            Region::EuWest1,
        ] {
            let count = placements.iter().filter(|p| p.region() == region).count();
            assert!((2..=3).contains(&count), "{region}: {count}");
        }
    }

    #[test]
    fn unreachable_threshold_falls_back_to_on_demand() {
        let mut placements = Vec::new();
        optimizer(14).initial_placements_into(&fixture(), 3, &[], &mut placements, None);
        assert_eq!(placements.len(), 3);
        for p in &placements {
            assert!(!p.is_spot());
            // The fixture's cheapest on-demand is 4 × 0.0450 (us-east-2).
            assert_eq!(p.region(), Region::UsEast2);
        }
    }

    #[test]
    fn migration_excludes_interrupted_region() {
        let opt = optimizer(6);
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = opt.migration_target(&fixture(), Region::ApNortheast3, MigrationPolicy::RandomTopR, &[], &mut rng, None);
            assert!(p.is_spot());
            assert_ne!(p.region(), Region::ApNortheast3);
        }
    }

    #[test]
    fn migration_visits_all_alternatives() {
        let opt = optimizer(6);
        let mut rng = SimRng::seed_from_u64(6);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(opt.migration_target(&fixture(), Region::EuNorth1, MigrationPolicy::RandomTopR, &[], &mut rng, None).region());
        }
        // The other three tier-A regions plus eu-west-1's replacement slot.
        assert!(seen.len() >= 3, "random pick should spread: {seen:?}");
        assert!(!seen.contains(&Region::EuNorth1));
    }

    #[test]
    fn migration_falls_back_to_on_demand() {
        let opt = optimizer(14);
        let mut rng = SimRng::seed_from_u64(7);
        let p = opt.migration_target(&fixture(), Region::UsEast1, MigrationPolicy::RandomTopR, &[], &mut rng, None);
        assert!(!p.is_spot());
    }

    #[test]
    fn preferred_regions_filter_applies() {
        let opt = Optimizer::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(5)
                .preferred_regions(vec![Region::CaCentral1, Region::EuWest3])
                .build(),
        );
        let sel = opt.select_regions(&fixture(), &[]);
        let regions: Vec<Region> = sel.iter().map(|a| a.region).collect();
        assert_eq!(regions, vec![Region::CaCentral1, Region::EuWest3]);
    }

    #[test]
    fn exclusion_happens_before_top_r_cap() {
        // With threshold 4 and R=4, excluding one of the four cheapest must
        // pull in the 5th-cheapest qualifying region rather than shrinking
        // the selection to 3.
        let opt = optimizer(4);
        let mut rng = SimRng::seed_from_u64(8);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            seen.insert(opt.migration_target(&fixture(), Region::UsEast2, MigrationPolicy::RandomTopR, &[], &mut rng, None).region());
        }
        assert!(seen.contains(&Region::CaCentral1), "5th-cheapest should appear: {seen:?}");
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn migration_policies_differ_as_designed() {
        let opt = optimizer(6);
        let mut rng = SimRng::seed_from_u64(9);
        // StayPut relaunches in place.
        assert_eq!(
            opt.migration_target(
                &fixture(),
                Region::CaCentral1,
                MigrationPolicy::StayPut,
                &[],
                &mut rng,
                None,
            ),
            Placement::Spot(Region::CaCentral1)
        );
        // CheapestQualifying is deterministic: eu-north-1 is the cheapest
        // threshold-6 region in the fixture.
        for _ in 0..10 {
            assert_eq!(
                opt.migration_target(
                    &fixture(),
                    Region::ApNortheast3,
                    MigrationPolicy::CheapestQualifying,
                    &[],
                    &mut rng,
                    None,
                ),
                Placement::Spot(Region::EuNorth1)
            );
        }
    }

    #[test]
    fn quarantine_exclusion_refills_the_selection() {
        let opt = optimizer(5);
        // Unexcluded tier-B selection is [ca-central-1, ap-southeast-1,
        // eu-west-3, eu-west-2]; quarantining the cheapest must pull in the
        // next-cheapest qualifying region (eu-north-1), not shrink to 3.
        let sel = opt.select_regions(&fixture(), &[Region::CaCentral1]);
        let regions: Vec<Region> = sel.iter().map(|a| a.region).collect();
        assert_eq!(
            regions,
            vec![Region::ApSoutheast1, Region::EuWest3, Region::EuWest2, Region::EuNorth1]
        );
        assert_eq!(opt.select_regions(&fixture(), &[]), opt.select_regions(&fixture(), &[]));
    }

    #[test]
    fn all_quarantined_falls_back_to_on_demand() {
        let opt = optimizer(6);
        let quarantined = vec![
            Region::EuNorth1,
            Region::ApNortheast3,
            Region::UsWest1,
            Region::EuWest1,
        ];
        let mut placements = Vec::new();
        opt.initial_placements_into(&fixture(), 3, &quarantined, &mut placements, None);
        assert_eq!(placements.len(), 3);
        for p in &placements {
            assert!(!p.is_spot());
            // The on-demand fallback is not health-filtered.
            assert_eq!(p.region(), Region::UsEast2);
        }
    }

    #[test]
    fn noop_exclusion_consumes_identical_rng() {
        // Excluding a region the threshold already rejects must not change
        // the selection or the number of RNG draws consumed.
        let opt = optimizer(6);
        let mut a = SimRng::seed_from_u64(11);
        let mut b = SimRng::seed_from_u64(11);
        for _ in 0..50 {
            let plain = opt.migration_target(
                &fixture(),
                Region::EuNorth1,
                MigrationPolicy::RandomTopR,
                &[],
                &mut a,
                None,
            );
            let excluded = opt.migration_target(
                &fixture(),
                Region::EuNorth1,
                MigrationPolicy::RandomTopR,
                &[Region::UsEast1],
                &mut b,
                None,
            );
            assert_eq!(plain, excluded);
        }
    }

    #[test]
    fn migration_avoids_quarantined_regions() {
        let opt = optimizer(6);
        let mut rng = SimRng::seed_from_u64(12);
        for _ in 0..100 {
            let p = opt.migration_target(
                &fixture(),
                Region::EuNorth1,
                MigrationPolicy::RandomTopR,
                &[Region::ApNortheast3],
                &mut rng,
                None,
            );
            assert!(p.is_spot());
            assert_ne!(p.region(), Region::EuNorth1);
            assert_ne!(p.region(), Region::ApNortheast3);
        }
    }

    /// A decision's audit and placement: an initial placement's or, with
    /// `interrupted`, a `CheapestQualifying` migration's.
    fn audited(
        opt: &Optimizer,
        excluded: &[Region],
        interrupted: Option<Region>,
    ) -> (Vec<CandidateVerdict>, Placement) {
        let mut audit = Vec::new();
        let placement = match interrupted {
            None => {
                let mut out = Vec::new();
                opt.initial_placements_into(&fixture(), 1, excluded, &mut out, Some(&mut audit));
                out[0]
            }
            Some(region) => opt.migration_target(
                &fixture(),
                region,
                MigrationPolicy::CheapestQualifying,
                excluded,
                &mut SimRng::seed_from_u64(0),
                Some(&mut audit),
            ),
        };
        (audit, placement)
    }

    #[test]
    fn explain_agrees_with_selection_for_every_threshold() {
        let interrupted_cases =
            std::iter::once(None).chain(fixture().into_iter().map(|a| Some(a.region)));
        for interrupted in interrupted_cases {
            // The reference selection drops the interrupted region by hand.
            let eligible: Vec<RegionAssessment> =
                fixture().into_iter().filter(|a| Some(a.region) != interrupted).collect();
            for threshold in 2..=13 {
                let opt = optimizer(threshold);
                for excluded in [vec![], vec![Region::CaCentral1, Region::UsEast2]] {
                    let case =
                        format!("T={threshold} excluded={excluded:?} interrupted={interrupted:?}");
                    let (verdicts, placement) = audited(&opt, &excluded, interrupted);
                    assert_eq!(verdicts.len(), fixture().len(), "one verdict per candidate");
                    for v in &verdicts {
                        let here = v.outcome == CandidateOutcome::InterruptedHere;
                        assert_eq!(here, Some(v.region) == interrupted, "{case}");
                    }
                    let mut selected: Vec<(usize, Region)> = verdicts
                        .iter()
                        .filter_map(|v| match v.outcome {
                            CandidateOutcome::Selected { rank } => Some((rank, v.region)),
                            _ => None,
                        })
                        .collect();
                    selected.sort_unstable_by_key(|(rank, _)| *rank);
                    let real: Vec<Region> =
                        opt.select_regions(&eligible, &excluded).iter().map(|a| a.region).collect();
                    let explained: Vec<Region> = selected.into_iter().map(|(_, r)| r).collect();
                    assert_eq!(explained, real, "{case}");
                    // The placement comes from the audited selection.
                    let expected = match explained.first() {
                        Some(&region) => Placement::Spot(region),
                        None => Placement::OnDemand(opt.cheapest_on_demand(&fixture())),
                    };
                    assert_eq!(placement, expected, "{case}");
                }
            }
        }
    }

    #[test]
    fn explain_classifies_rejections() {
        let opt = optimizer(6);
        let (verdicts, _) = audited(&opt, &[Region::EuNorth1], Some(Region::ApNortheast3));
        let outcome = |region: Region| {
            verdicts.iter().find(|v| v.region == region).unwrap().outcome
        };
        assert_eq!(outcome(Region::ApNortheast3), CandidateOutcome::InterruptedHere);
        assert_eq!(outcome(Region::EuNorth1), CandidateOutcome::Quarantined);
        assert_eq!(outcome(Region::UsEast1), CandidateOutcome::BelowThreshold);
        // With the interrupted and quarantined tier-A members gone, the
        // remaining threshold-6 regions all fit under R=4.
        assert_eq!(outcome(Region::UsWest1), CandidateOutcome::Selected { rank: 0 });
    }

    #[test]
    fn explain_marks_over_cap_and_not_preferred() {
        // Threshold 4 admits all 12 fixture regions; R=4 prices the
        // qualifying-but-expensive ones out.
        let (verdicts, _) = audited(&optimizer(4), &[], None);
        assert!(verdicts
            .iter()
            .any(|v| v.outcome == CandidateOutcome::OverCap));
        let opt = Optimizer::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(5)
                .preferred_regions(vec![Region::CaCentral1])
                .build(),
        );
        let (verdicts, _) = audited(&opt, &[], None);
        let eu = verdicts.iter().find(|v| v.region == Region::EuWest3).unwrap();
        assert_eq!(eu.outcome, CandidateOutcome::NotPreferred);
    }

    #[test]
    fn placements_the_selection_did_not_choose_record_no_audit() {
        let single = Optimizer::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
                .build(),
        );
        let (audit, placement) = audited(&single, &[], None);
        assert_eq!((audit.len(), placement), (0, Placement::Spot(Region::CaCentral1)));
        // A single-region start still migrates through the selection.
        assert_eq!(audited(&single, &[], Some(Region::CaCentral1)).0.len(), fixture().len());
        let mut audit = Vec::new();
        let stay = optimizer(6).migration_target(
            &fixture(),
            Region::UsEast1,
            MigrationPolicy::StayPut,
            &[],
            &mut SimRng::seed_from_u64(0),
            Some(&mut audit),
        );
        assert_eq!((audit.len(), stay), (0, Placement::Spot(Region::UsEast1)));
    }

    #[test]
    fn placement_accessors() {
        assert!(Placement::Spot(Region::UsEast1).is_spot());
        assert!(!Placement::OnDemand(Region::UsEast1).is_spot());
        assert_eq!(Placement::OnDemand(Region::EuWest1).region(), Region::EuWest1);
        let _ = InitialPlacement::Distributed; // referenced for docs
    }
}
