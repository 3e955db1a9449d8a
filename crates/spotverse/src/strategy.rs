//! Placement strategies: SpotVerse itself plus every baseline the paper
//! compares against.
//!
//! * [`SingleRegionStrategy`] — the traditional deployment: all spot
//!   instances in one (cheapest) region, relaunch there on interruption.
//! * [`OnDemandStrategy`] — guaranteed capacity in the cheapest on-demand
//!   region; never interrupted.
//! * [`NaiveMultiRegionStrategy`] — the motivational experiment (§2.2):
//!   a fixed region set, round-robin start, uniform random relaunch.
//! * [`SkyPilotStrategy`] — the state-of-the-art baseline (§5.2.5):
//!   always chase the cheapest spot price, automatically relaunching
//!   interrupted jobs, ignoring stability metrics.
//! * [`SpotVerseStrategy`] — Algorithm 1 via the [`Optimizer`], and its
//!   §7 variants: provider-degraded metrics, Holt forecasting and a
//!   deadline guard.

use std::borrow::Cow;
use std::fmt;

use cloud_market::{InstanceType, Region};
use sim_kernel::{SimDuration, SimRng, SimTime};

use crate::config::SpotVerseConfig;
use crate::deadline::DeadlinePolicy;
use crate::forecast::MetricForecaster;
use crate::optimizer::{
    cheapest_on_demand, cheapest_spot, CandidateVerdict, MigrationPolicy, Optimizer, Placement,
    RegionAssessment,
};
use crate::provider::{degrade_assessments, MetricAvailability};

/// Everything a strategy may look at when deciding a placement.
///
/// Assessments come from the Monitor's latest snapshot (or fresh market
/// reads for baselines); the RNG is the strategy's own deterministic
/// stream.
#[derive(Debug)]
pub struct StrategyContext<'a> {
    /// The managed instance type.
    pub instance_type: InstanceType,
    /// The decision instant.
    pub now: SimTime,
    /// Per-region metrics available to the decision.
    pub assessments: &'a [RegionAssessment],
    /// Regions a decision should avoid: those quarantined by the health
    /// control plane (breaker `Open`), then, on a fleet with a
    /// per-region concurrency cap, those at the cap. Health-aware
    /// strategies exclude them from selection; baselines ignore the list.
    /// Empty on fault-free runs without a cap.
    pub quarantined: &'a [Region],
    /// The strategy's random stream.
    pub rng: &'a mut SimRng,
    /// The decision's candidate audit: `Some` only when the run is traced.
    /// A strategy that places from a scored selection appends one verdict
    /// per assessed region from that same selection. One whose placement
    /// did not come from a selection (a baseline, a deadline pin, a
    /// single-region start, the `StayPut` ablation) leaves it empty, and
    /// the decision records no candidates.
    pub audit: Option<&'a mut Vec<CandidateVerdict>>,
}

/// A placement strategy under experiment.
pub trait Strategy: fmt::Debug {
    /// A short display name for reports.
    fn name(&self) -> &str;

    /// Initial placements for a fleet of `n` workloads, appended to `out`.
    ///
    /// The fleet event loop calls this with a pooled scratch vector so a
    /// run of many small arrival batches (a Poisson fleet is mostly
    /// batches of one) does not allocate a fresh `Vec` per decision.
    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    );

    /// Initial placements for a fleet of `n` workloads, as a fresh vector.
    fn initial_placements(&mut self, ctx: &mut StrategyContext<'_>, n: usize) -> Vec<Placement> {
        let mut out = Vec::with_capacity(n);
        self.initial_placements_into(ctx, n, &mut out);
        out
    }

    /// Where to relaunch a workload that was interrupted (or whose request
    /// keeps failing) in `previous_region`.
    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous_region: Region) -> Placement;

    /// Not called: a decision's candidates are what the strategy appends
    /// to [`StrategyContext::audit`] while it decides. This provided method
    /// stays only because perfbench's timing wrapper forwards it; it is
    /// deleted together with that forward once perfbench stops copying
    /// the strategy layer (ROADMAP item 16).
    fn explain_candidates(
        &self,
        _assessments: &[RegionAssessment],
        _quarantined: &[Region],
        _previous: Option<Region>,
    ) -> Option<Vec<CandidateVerdict>> {
        None
    }

    /// The proactive checkpoint cadence this strategy wants for
    /// checkpointable workloads, judged from the same decision context as
    /// the placement. `None` (the default) disables proactive ticks
    /// entirely — the classic notice-only checkpoint engine and every
    /// committed golden trace are untouched.
    fn checkpoint_interval(&self, _ctx: &StrategyContext<'_>) -> Option<SimDuration> {
        None
    }
}

/// All spot instances in one fixed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleRegionStrategy {
    region: Region,
}

impl SingleRegionStrategy {
    /// Creates the strategy pinned to `region`.
    pub fn new(region: Region) -> Self {
        SingleRegionStrategy { region }
    }
}

impl Strategy for SingleRegionStrategy {
    fn name(&self) -> &str {
        "single-region"
    }

    fn initial_placements_into(
        &mut self,
        _ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        out.extend(std::iter::repeat_n(Placement::Spot(self.region), n));
    }

    fn relocate(&mut self, _ctx: &mut StrategyContext<'_>, _previous: Region) -> Placement {
        Placement::Spot(self.region)
    }
}

/// Cheapest on-demand everywhere; never interrupted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OnDemandStrategy {
    pinned: Option<Region>,
}

impl OnDemandStrategy {
    /// Cheapest-on-demand placement.
    pub fn new() -> Self {
        OnDemandStrategy { pinned: None }
    }

    /// On-demand in a fixed region.
    pub fn pinned(region: Region) -> Self {
        OnDemandStrategy {
            pinned: Some(region),
        }
    }
}

impl Strategy for OnDemandStrategy {
    fn name(&self) -> &str {
        "on-demand"
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        let region = self.pinned.unwrap_or_else(|| cheapest_on_demand(ctx.assessments));
        out.extend(std::iter::repeat_n(Placement::OnDemand(region), n));
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, _previous: Region) -> Placement {
        Placement::OnDemand(self.pinned.unwrap_or_else(|| cheapest_on_demand(ctx.assessments)))
    }
}

/// The motivational experiment's naive multi-region strategy: a fixed
/// region list, round-robin start, uniform random relaunch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveMultiRegionStrategy {
    regions: Vec<Region>,
}

impl NaiveMultiRegionStrategy {
    /// Creates the strategy over a fixed region set.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty.
    pub fn new(regions: Vec<Region>) -> Self {
        assert!(!regions.is_empty(), "NaiveMultiRegionStrategy: no regions");
        NaiveMultiRegionStrategy { regions }
    }

    /// The motivational experiment's three regions (paper §2.2).
    pub fn paper_motivational() -> Self {
        NaiveMultiRegionStrategy::new(vec![
            Region::ApNortheast3,
            Region::CaCentral1,
            Region::EuNorth1,
        ])
    }
}

impl Strategy for NaiveMultiRegionStrategy {
    fn name(&self) -> &str {
        "naive-multi-region"
    }

    fn initial_placements_into(
        &mut self,
        _ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        out.extend((0..n).map(|i| Placement::Spot(self.regions[i % self.regions.len()])));
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, _previous: Region) -> Placement {
        let idx = ctx.rng.pick_index(self.regions.len());
        Placement::Spot(self.regions[idx])
    }
}

/// The SkyPilot-like baseline: cheapest spot price wins, stability ignored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkyPilotStrategy;

impl SkyPilotStrategy {
    /// Creates the baseline.
    pub fn new() -> Self {
        SkyPilotStrategy
    }

    fn pick(ctx: &StrategyContext<'_>) -> Placement {
        Placement::Spot(cheapest_spot(ctx.assessments).expect("skypilot: empty assessments"))
    }
}

impl Strategy for SkyPilotStrategy {
    fn name(&self) -> &str {
        "skypilot"
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        // SkyPilot provisions each job in the cheapest available market.
        out.extend(std::iter::repeat_n(Self::pick(ctx), n));
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, _previous: Region) -> Placement {
        // Automatic relaunch, still cheapest-first — possibly the very
        // region that just reclaimed the instance.
        Self::pick(ctx)
    }
}

/// Bid-price-aware provisioning: spot capacity is only worth holding
/// while the market clears below 60 % of the on-demand rate.
///
/// Each decision picks the cheapest non-quarantined region whose spot
/// price is at or under `BID_FRACTION × on_demand_price`; when no region
/// qualifies — a capacity crunch or a correlated price shock pushing the
/// whole market toward on-demand parity — the strategy takes guaranteed
/// capacity at the cheapest on-demand rate instead of overpaying for
/// interruptible instances. This makes it *regime-sensitive*: in a calm
/// baseline market it behaves like a slightly pickier SkyPilot, while
/// under price-spiking regimes it sidesteps the interruption storm
/// entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BidPriceAwareStrategy;

/// The bid as a fraction of the regional on-demand rate.
const BID_FRACTION: f64 = 0.6;

impl BidPriceAwareStrategy {
    /// Creates the strategy.
    pub fn new() -> Self {
        BidPriceAwareStrategy
    }

    fn pick(ctx: &StrategyContext<'_>) -> Placement {
        let qualifying = ctx.assessments.iter().filter(|a| {
            !ctx.quarantined.contains(&a.region)
                && a.spot_price.rate() <= BID_FRACTION * a.on_demand_price.rate()
        });
        match cheapest_spot(qualifying) {
            Some(region) => Placement::Spot(region),
            None => Placement::OnDemand(cheapest_on_demand(ctx.assessments)),
        }
    }
}

impl Strategy for BidPriceAwareStrategy {
    fn name(&self) -> &str {
        "bid-price"
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        out.extend(std::iter::repeat_n(Self::pick(ctx), n));
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, _previous: Region) -> Placement {
        Self::pick(ctx)
    }
}

/// A checkpoint-interval-adaptive policy: placement chases stability, and
/// the proactive checkpoint cadence widens or narrows with the observed
/// hazard level.
///
/// The mean Stability Score across the current assessments (1 = worst
/// band, 3 = calmest) is mapped linearly onto
/// `[MIN_CHECKPOINT_INTERVAL, MAX_CHECKPOINT_INTERVAL]` (1 h to 6 h): a
/// calm market earns a wide cadence (few checkpoint uploads wasted), a
/// hazardous one — a capacity-crunch week, a correlated shock — tightens
/// it so an interruption loses minutes of work instead of hours. The
/// cadence is re-judged at every placement decision, so the policy tracks
/// regime swings mid-run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointAdaptiveStrategy;

/// The checkpoint cadence under peak hazard (every region in stability
/// band 1).
const MIN_CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_hours(1);
/// The checkpoint cadence in a calm market (every region in band 3).
const MAX_CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_hours(6);

impl CheckpointAdaptiveStrategy {
    /// Creates the policy.
    pub fn new() -> Self {
        CheckpointAdaptiveStrategy
    }

    /// The most stable non-quarantined region; ties break on the cheaper
    /// spot price, then the region name.
    fn most_stable(ctx: &StrategyContext<'_>) -> Placement {
        let most_stable = ctx
            .assessments
            .iter()
            .filter(|a| !ctx.quarantined.contains(&a.region))
            .min_by(|a, b| b.stability.cmp(&a.stability).then_with(|| a.cmp_spot(b)));
        match most_stable {
            Some(a) => Placement::Spot(a.region),
            // Everything quarantined: guaranteed capacity is the only
            // sensible fallback.
            None => Placement::OnDemand(cheapest_on_demand(ctx.assessments)),
        }
    }
}

impl Strategy for CheckpointAdaptiveStrategy {
    fn name(&self) -> &str {
        "checkpoint-adaptive"
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        out.extend(std::iter::repeat_n(Self::most_stable(ctx), n));
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, _previous: Region) -> Placement {
        Self::most_stable(ctx)
    }

    fn checkpoint_interval(&self, ctx: &StrategyContext<'_>) -> Option<SimDuration> {
        if ctx.assessments.is_empty() {
            return Some(MAX_CHECKPOINT_INTERVAL);
        }
        let sum: u64 = ctx
            .assessments
            .iter()
            .map(|a| u64::from(a.stability.value()))
            .sum();
        let mean = sum as f64 / ctx.assessments.len() as f64;
        // Stability 1 (hazardous) → the minimum, 3 (calm) → the maximum.
        let t = ((mean - 1.0) / 2.0).clamp(0.0, 1.0);
        let span = (MAX_CHECKPOINT_INTERVAL - MIN_CHECKPOINT_INTERVAL).as_secs() as f64;
        let secs = MIN_CHECKPOINT_INTERVAL.as_secs() + (t * span).round() as u64;
        Some(SimDuration::from_secs(secs))
    }
}

/// SpotVerse: Algorithm 1, fed either the Monitor's snapshot as it is or
/// one of the paper's §7 views of it — or, for the component-ablation
/// bench, which attributes the paper's gains to individual design choices,
/// Algorithm 1 with its migration rule replaced.
///
/// Every variant runs the same decision path: the deadline guard (if
/// any), then the [`Optimizer`] on the variant's view with the context's
/// exclusion list, so breaker quarantine and capacity-full regions bind
/// every variant alike.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotVerseStrategy {
    optimizer: Optimizer,
    policy: MigrationPolicy,
    variant: Variant,
    name: &'static str,
}

/// What Algorithm 1 is fed.
#[derive(Debug, Clone, PartialEq)]
enum Variant {
    /// The Monitor's snapshot as it is.
    Plain,
    /// The snapshot degraded to what a provider exposes.
    Provider(MetricAvailability),
    /// One-step-ahead forecasts, updated with every snapshot.
    Forecast(MetricForecaster),
    /// The snapshot as it is, behind a deadline guard that pins decisions
    /// to on-demand once slack runs out.
    Deadline(DeadlinePolicy),
}

impl SpotVerseStrategy {
    fn with_variant(config: SpotVerseConfig, variant: Variant, name: &'static str) -> Self {
        SpotVerseStrategy {
            optimizer: Optimizer::new(config),
            policy: MigrationPolicy::RandomTopR,
            variant,
            name,
        }
    }

    /// Creates the strategy from a configuration.
    pub fn new(config: SpotVerseConfig) -> Self {
        SpotVerseStrategy::with_variant(config, Variant::Plain, "spotverse")
    }

    /// Creates an ablation variant with an explicit migration policy,
    /// named `spotverse-ablate-<component>`.
    pub fn ablated(config: SpotVerseConfig, policy: MigrationPolicy) -> Self {
        let name = match policy {
            MigrationPolicy::RandomTopR => "spotverse-ablate-none",
            MigrationPolicy::CheapestQualifying => "spotverse-ablate-random-pick",
            MigrationPolicy::StayPut => "spotverse-ablate-migration",
        };
        SpotVerseStrategy { policy, ..SpotVerseStrategy::with_variant(config, Variant::Plain, name) }
    }

    /// SpotVerse as ported to a provider with the given metric
    /// availability (`spotverse-aws`, `-azure` or `-gcp`): hidden metrics
    /// are replaced by neutral priors before selection.
    pub fn on_provider(config: SpotVerseConfig, availability: MetricAvailability) -> Self {
        let name = match availability {
            MetricAvailability::Full => "spotverse-aws",
            MetricAvailability::InterruptionOnly => "spotverse-azure",
            MetricAvailability::PriceOnly => "spotverse-gcp",
        };
        SpotVerseStrategy::with_variant(config, Variant::Provider(availability), name)
    }

    /// SpotVerse on forecast metrics (`spotverse-forecast`): every
    /// decision first feeds the observed snapshot to a
    /// [`MetricForecaster`], then runs Algorithm 1 on its predictions.
    pub fn forecasting(config: SpotVerseConfig) -> Self {
        let forecaster = Variant::Forecast(MetricForecaster::new());
        SpotVerseStrategy::with_variant(config, forecaster, "spotverse-forecast")
    }

    /// SpotVerse behind a deadline guard (`spotverse-deadline`): while
    /// slack remains, plain Algorithm 1; once one more uninterrupted
    /// attempt no longer fits, cheapest on-demand (which never
    /// interrupts).
    ///
    /// # Panics
    ///
    /// Panics if the safety factor is not positive and finite.
    pub fn with_deadline(config: SpotVerseConfig, policy: DeadlinePolicy) -> Self {
        assert!(
            policy.safety_factor.is_finite() && policy.safety_factor > 0.0,
            "safety factor must be positive"
        );
        SpotVerseStrategy::with_variant(config, Variant::Deadline(policy), "spotverse-deadline")
    }

    /// The underlying optimizer.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The migration policy in effect.
    pub fn policy(&self) -> MigrationPolicy {
        self.policy
    }

    /// Per-decision bookkeeping ahead of Algorithm 1: the forecaster
    /// ingests the snapshot, and the deadline guard returns its on-demand
    /// pin once slack runs out. Like the Optimizer's own on-demand
    /// fallback, the pin ignores the exclusion list.
    fn before_decision(&mut self, ctx: &StrategyContext<'_>) -> Option<Placement> {
        match &mut self.variant {
            Variant::Forecast(forecaster) => forecaster.observe(ctx.assessments),
            // A restart-from-scratch workload needs a full fresh attempt.
            Variant::Deadline(p) if p.must_go_on_demand(ctx.now, p.workload_duration) => {
                return Some(Placement::OnDemand(
                    self.optimizer.cheapest_on_demand(ctx.assessments),
                ));
            }
            Variant::Plain | Variant::Provider(_) | Variant::Deadline(_) => {}
        }
        None
    }

    /// The metrics Algorithm 1 sees: borrowed as they are for the plain
    /// and deadline variants, so their decisions allocate nothing extra.
    fn view<'a>(&self, assessments: &'a [RegionAssessment]) -> Cow<'a, [RegionAssessment]> {
        match &self.variant {
            Variant::Plain | Variant::Deadline(_) => Cow::Borrowed(assessments),
            Variant::Provider(availability) => {
                Cow::Owned(degrade_assessments(assessments, *availability))
            }
            Variant::Forecast(forecaster) => Cow::Owned(forecaster.predict(assessments)),
        }
    }
}

impl Strategy for SpotVerseStrategy {
    fn name(&self) -> &str {
        self.name
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        if let Some(pinned) = self.before_decision(ctx) {
            out.extend(std::iter::repeat_n(pinned, n));
            return;
        }
        let view = self.view(ctx.assessments);
        let audit = ctx.audit.as_deref_mut();
        self.optimizer.initial_placements_into(&view, n, ctx.quarantined, out, audit);
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous: Region) -> Placement {
        if let Some(pinned) = self.before_decision(ctx) {
            return pinned;
        }
        let view = self.view(ctx.assessments);
        let audit = ctx.audit.as_deref_mut();
        self.optimizer
            .migration_target(&view, previous, self.policy, ctx.quarantined, ctx.rng, audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::{MarketConfig, SpotMarket};

    use crate::config::InitialPlacement;
    use crate::monitor::Monitor;
    use crate::optimizer::CandidateOutcome;

    fn assessments(at: SimTime) -> Vec<RegionAssessment> {
        let market = SpotMarket::new(MarketConfig::with_seed(5));
        Monitor::new(InstanceType::M5Xlarge).fresh_assessments(&market, None, at).unwrap()
    }

    fn ctx_with<'a>(
        assessments: &'a [RegionAssessment],
        rng: &'a mut SimRng,
    ) -> StrategyContext<'a> {
        StrategyContext {
            instance_type: InstanceType::M5Xlarge,
            now: SimTime::ZERO,
            assessments,
            quarantined: &[],
            rng,
            audit: None,
        }
    }

    #[test]
    fn single_region_never_moves() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(1);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = SingleRegionStrategy::new(Region::CaCentral1);
        let placements = s.initial_placements(&mut ctx, 5);
        assert!(placements.iter().all(|p| *p == Placement::Spot(Region::CaCentral1)));
        assert_eq!(s.relocate(&mut ctx, Region::CaCentral1), Placement::Spot(Region::CaCentral1));
        assert_eq!(s.name(), "single-region");
    }

    #[test]
    fn on_demand_picks_cheapest_or_pin() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(2);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = OnDemandStrategy::new();
        let placements = s.initial_placements(&mut ctx, 2);
        assert!(!placements[0].is_spot());
        // us-east-1/2, us-west-2 share the cheapest multiplier; ties break
        // alphabetically.
        assert_eq!(placements[0].region(), Region::UsEast1);
        let mut pinned = OnDemandStrategy::pinned(Region::EuWest1);
        assert_eq!(
            pinned.initial_placements(&mut ctx, 1)[0],
            Placement::OnDemand(Region::EuWest1)
        );
        assert_eq!(pinned.relocate(&mut ctx, Region::EuWest1).region(), Region::EuWest1);
    }

    #[test]
    fn naive_multi_region_round_robins_and_randomizes() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(3);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = NaiveMultiRegionStrategy::paper_motivational();
        let placements = s.initial_placements(&mut ctx, 6);
        assert_eq!(placements[0].region(), Region::ApNortheast3);
        assert_eq!(placements[1].region(), Region::CaCentral1);
        assert_eq!(placements[2].region(), Region::EuNorth1);
        assert_eq!(placements[3].region(), Region::ApNortheast3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(s.relocate(&mut ctx, Region::CaCentral1).region());
        }
        assert_eq!(seen.len(), 3, "random relaunch over all three regions");
    }

    #[test]
    fn skypilot_chases_cheapest_spot() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(4);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = SkyPilotStrategy::new();
        let placements = s.initial_placements(&mut ctx, 3);
        let cheapest = cheapest_spot(&a).unwrap();
        assert!(placements.iter().all(|p| p.region() == cheapest && p.is_spot()));
        // SkyPilot may relaunch into the interrupted region.
        assert_eq!(s.relocate(&mut ctx, cheapest).region(), cheapest);
    }

    #[test]
    fn spotverse_single_region_start_still_migrates_away() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(5);
        let mut ctx = ctx_with(&a, &mut rng);
        let config = SpotVerseConfig::builder(InstanceType::M5Xlarge)
            .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
            .build();
        let mut s = SpotVerseStrategy::new(config);
        let placements = s.initial_placements(&mut ctx, 4);
        assert!(placements.iter().all(|p| p.region() == Region::CaCentral1));
        for _ in 0..50 {
            let target = s.relocate(&mut ctx, Region::CaCentral1);
            assert_ne!(target.region(), Region::CaCentral1);
            assert!(target.is_spot());
        }
        assert_eq!(s.name(), "spotverse");
        assert_eq!(s.optimizer().config().threshold(), 6);
    }

    #[test]
    fn spotverse_distributed_start_spreads_over_top_regions() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(6);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = SpotVerseStrategy::new(SpotVerseConfig::paper_default(InstanceType::M5Xlarge));
        let placements = s.initial_placements(&mut ctx, 8);
        let distinct: std::collections::BTreeSet<Region> =
            placements.iter().map(|p| p.region()).collect();
        assert!(distinct.len() >= 3, "distributed start uses several regions: {distinct:?}");
        assert!(placements.iter().all(|p| p.is_spot()));
    }

    #[test]
    fn spotverse_impossible_threshold_goes_on_demand() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(7);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = SpotVerseStrategy::new(
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(14)
                .build(),
        );
        assert!(s.initial_placements(&mut ctx, 3).iter().all(|p| !p.is_spot()));
        assert!(!s.relocate(&mut ctx, Region::UsEast1).is_spot());
    }

    /// The candidate audit `s` records for an initial placement of one
    /// workload.
    fn audit_of(
        s: &mut dyn Strategy,
        a: &[RegionAssessment],
        quarantined: &[Region],
    ) -> Vec<CandidateVerdict> {
        let mut rng = SimRng::seed_from_u64(10);
        let mut audit = Vec::new();
        let mut ctx = StrategyContext {
            quarantined,
            audit: Some(&mut audit),
            ..ctx_with(a, &mut rng)
        };
        s.initial_placements(&mut ctx, 1);
        audit
    }

    #[test]
    fn explain_candidates_only_for_scoring_strategies() {
        let a = assessments(SimTime::ZERO);
        assert!(audit_of(&mut SingleRegionStrategy::new(Region::UsEast1), &a, &[]).is_empty());
        assert!(audit_of(&mut SkyPilotStrategy::new(), &a, &[]).is_empty());
        let config = SpotVerseConfig::paper_default(InstanceType::M5Xlarge);
        let verdicts = audit_of(&mut SpotVerseStrategy::new(config.clone()), &a, &[]);
        assert_eq!(verdicts.len(), a.len(), "one verdict per assessed region");
        let mut ablated = SpotVerseStrategy::ablated(config, MigrationPolicy::CheapestQualifying);
        let mut rng = SimRng::seed_from_u64(10);
        let mut audit = Vec::new();
        let mut ctx = StrategyContext { audit: Some(&mut audit), ..ctx_with(&a, &mut rng) };
        ablated.relocate(&mut ctx, Region::UsEast1);
        assert_eq!(audit.len(), a.len(), "a migration audits its selection too");
    }

    /// Plain SpotVerse and each §7 variant, under the thresholds the
    /// metric ablation uses; the deadline leaves ample slack.
    fn spotverse_variants() -> Vec<SpotVerseStrategy> {
        let config = |threshold| {
            SpotVerseConfig::builder(InstanceType::M5Xlarge)
                .threshold(threshold)
                .build()
        };
        vec![
            SpotVerseStrategy::new(config(6)),
            SpotVerseStrategy::on_provider(config(6), MetricAvailability::Full),
            SpotVerseStrategy::on_provider(config(7), MetricAvailability::InterruptionOnly),
            SpotVerseStrategy::on_provider(config(7), MetricAvailability::PriceOnly),
            SpotVerseStrategy::forecasting(config(6)),
            SpotVerseStrategy::with_deadline(
                config(6),
                DeadlinePolicy {
                    deadline: SimTime::from_days(30),
                    workload_duration: SimDuration::from_hours(10),
                    safety_factor: 1.2,
                },
            ),
        ]
    }

    #[test]
    fn no_variant_places_spot_in_a_quarantined_region() {
        let a = assessments(SimTime::ZERO);
        for mut s in spotverse_variants() {
            // Quarantine the cheapest region of the variant's
            // unconstrained selection; the selection refills behind it.
            // A clone probes the selection, so the forecaster observes
            // only the decisions under test.
            let selected = |quarantined: &[Region]| -> Vec<Region> {
                let verdicts = audit_of(&mut s.clone(), &a, quarantined);
                let mut ranked: Vec<(usize, Region)> = verdicts
                    .into_iter()
                    .filter_map(|v| match v.outcome {
                        CandidateOutcome::Selected { rank } => Some((rank, v.region)),
                        _ => None,
                    })
                    .collect();
                ranked.sort_unstable();
                ranked.into_iter().map(|(_, region)| region).collect()
            };
            let quarantined = [selected(&[])[0]];
            let refill = selected(&quarantined);
            assert!(!refill.is_empty(), "{}: a non-quarantined region qualifies", s.name());
            let mut rng = SimRng::seed_from_u64(16);
            let mut ctx = StrategyContext { quarantined: &quarantined, ..ctx_with(&a, &mut rng) };
            let mut placements = s.initial_placements(&mut ctx, 6);
            placements.extend((0..20).map(|_| s.relocate(&mut ctx, refill[0])));
            for p in placements {
                assert!(p.is_spot(), "{}: {p:?}", s.name());
                assert!(!quarantined.contains(&p.region()), "{}: {p:?}", s.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no regions")]
    fn naive_strategy_rejects_empty_region_list() {
        NaiveMultiRegionStrategy::new(vec![]);
    }

    #[test]
    fn bid_price_takes_cheapest_qualifying_spot() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(11);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = BidPriceAwareStrategy::new();
        let placements = s.initial_placements(&mut ctx, 3);
        let chosen = placements[0];
        assert!(placements.iter().all(|p| *p == chosen));
        if chosen.is_spot() {
            let picked = a.iter().find(|x| x.region == chosen.region()).unwrap();
            assert!(picked.spot_price.rate() <= 0.6 * picked.on_demand_price.rate());
        }
        assert_eq!(s.name(), "bid-price");
    }

    #[test]
    fn bid_price_falls_back_to_on_demand_when_nothing_qualifies() {
        // A market where every spot price clears at 70 % of on-demand,
        // above the 60 % bid: every placement must be guaranteed capacity.
        let a: Vec<RegionAssessment> = assessments(SimTime::ZERO)
            .iter()
            .map(|x| RegionAssessment {
                spot_price: cloud_market::UsdPerHour::new(0.7 * x.on_demand_price.rate()),
                ..*x
            })
            .collect();
        let mut rng = SimRng::seed_from_u64(12);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = BidPriceAwareStrategy::new();
        let placements = s.initial_placements(&mut ctx, 2);
        assert!(placements.iter().all(|p| !p.is_spot()));
        assert!(!s.relocate(&mut ctx, Region::UsEast1).is_spot());
    }

    #[test]
    fn checkpoint_adaptive_chases_stability_and_adapts_cadence() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(13);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = CheckpointAdaptiveStrategy::new();
        let placements = s.initial_placements(&mut ctx, 2);
        let chosen = placements[0];
        assert!(chosen.is_spot());
        let best = a.iter().map(|x| x.stability).max().unwrap();
        let picked = a.iter().find(|x| x.region == chosen.region()).unwrap();
        assert_eq!(picked.stability, best, "placement chases the stability band");
        let interval = s.checkpoint_interval(&ctx).expect("adaptive cadence is always on");
        assert!(interval >= SimDuration::from_hours(1));
        assert!(interval <= SimDuration::from_hours(6));
        assert_eq!(s.name(), "checkpoint-adaptive");
    }

    #[test]
    fn checkpoint_cadence_tightens_with_hazard() {
        let a = assessments(SimTime::ZERO);
        let s = CheckpointAdaptiveStrategy::new();
        // Clamp every region to the worst stability band: the cadence
        // must collapse to the minimum interval.
        let hazardous: Vec<RegionAssessment> = a
            .iter()
            .map(|x| RegionAssessment { stability: cloud_market::StabilityScore::MIN, ..*x })
            .collect();
        let mut rng = SimRng::seed_from_u64(14);
        let calm_interval = {
            let ctx = ctx_with(&a, &mut rng);
            s.checkpoint_interval(&ctx).unwrap()
        };
        let mut rng2 = SimRng::seed_from_u64(14);
        let tight_interval = {
            let ctx = ctx_with(&hazardous, &mut rng2);
            s.checkpoint_interval(&ctx).unwrap()
        };
        assert_eq!(tight_interval, SimDuration::from_hours(1));
        assert!(tight_interval <= calm_interval);
    }

    #[test]
    fn default_strategies_want_no_proactive_cadence() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(15);
        let ctx = ctx_with(&a, &mut rng);
        assert!(SkyPilotStrategy::new().checkpoint_interval(&ctx).is_none());
        assert!(SingleRegionStrategy::new(Region::UsEast1)
            .checkpoint_interval(&ctx)
            .is_none());
        assert!(
            SpotVerseStrategy::new(SpotVerseConfig::paper_default(InstanceType::M5Xlarge))
                .checkpoint_interval(&ctx)
                .is_none()
        );
    }

    #[test]
    fn ablated_stay_put_never_migrates() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(8);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = SpotVerseStrategy::ablated(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            crate::optimizer::MigrationPolicy::StayPut,
        );
        assert_eq!(
            s.relocate(&mut ctx, Region::CaCentral1),
            Placement::Spot(Region::CaCentral1)
        );
        assert_eq!(s.name(), "spotverse-ablate-migration");
        assert_eq!(s.policy(), crate::optimizer::MigrationPolicy::StayPut);
    }

    #[test]
    fn ablated_cheapest_is_deterministic() {
        let a = assessments(SimTime::ZERO);
        let mut rng = SimRng::seed_from_u64(9);
        let mut ctx = ctx_with(&a, &mut rng);
        let mut s = SpotVerseStrategy::ablated(
            SpotVerseConfig::paper_default(InstanceType::M5Xlarge),
            crate::optimizer::MigrationPolicy::CheapestQualifying,
        );
        let first = s.relocate(&mut ctx, Region::CaCentral1);
        for _ in 0..20 {
            assert_eq!(s.relocate(&mut ctx, Region::CaCentral1), first);
        }
    }
}
