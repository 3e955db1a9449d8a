//! The EC2-like compute control plane: spot requests, on-demand launches,
//! interruption scheduling, and per-second billing against the market's
//! hourly price curve.
//!
//! The control plane is *synchronous with respect to sim time*: callers
//! (the SpotVerse Controller, or baseline strategies) invoke it at a given
//! instant and receive outcomes carrying future instants (boot-ready time,
//! interruption time) that they are responsible for scheduling as events.
//! This keeps the compute substrate reusable under any orchestration model.

use std::sync::Arc;

use sim_kernel::{SimDuration, SimRng, SimTime};

use cloud_market::{InstanceType, MarketError, Region, SpotMarket, Usd};

use crate::billing::{BillingLedger, ServiceKind};
use crate::instance::{InstanceId, InstanceRecord, PurchaseModel, TerminationReason};

/// The two-minute interruption notice AWS gives spot instances.
pub const INTERRUPTION_NOTICE: SimDuration = SimDuration::from_secs(120);

/// An injection seam over the spot request lifecycle and interruption
/// engine. A chaos layer implements this to force capacity outages,
/// correlated interruption bursts, and forced reclaims; with no injector
/// installed (or with the default no-op answers) behavior is byte-for-byte
/// identical to the fault-free control plane.
pub trait FaultInjector: std::fmt::Debug + Send {
    /// Whether spot capacity in `region` is forced unavailable at `at`
    /// (the request stays open, as if the market had no capacity).
    fn spot_blocked(&self, region: Region, at: SimTime) -> bool {
        let _ = (region, at);
        false
    }

    /// Extra multiplier applied to the interruption hazard of an instance
    /// launched in `region` at `at` (stacks with crowding). `1.0` is
    /// neutral.
    fn hazard_multiplier(&self, region: Region, at: SimTime) -> f64 {
        let _ = (region, at);
        1.0
    }

    /// If a capacity outage will reclaim every running spot instance in
    /// `region`, the `[from, until)` window of the first such outage
    /// ending after `at`. Instances launched before `until` are reclaimed
    /// inside the window.
    fn forced_reclaim_window(&self, region: Region, at: SimTime) -> Option<(SimTime, SimTime)> {
        let _ = (region, at);
        None
    }
}

/// Fixed boot delay from launch until the workload can start.
const BOOT_DELAY: SimDuration = SimDuration::from_secs(150);

/// Global crowding scale: concentrating this account's spot instances in
/// one (region, type) market raises the marginal reclaim hazard by
/// `1 + CROWDING_COEFFICIENT * region_depth * min(1, others / CROWDING_FLEET_SCALE)`,
/// where `region_depth` is [`Region::capacity_depth_coefficient`] — the
/// effect behind the paper's initial-distribution experiment (§5.2.3).
pub const CROWDING_COEFFICIENT: f64 = 1.0;

/// Fleet size at which crowding saturates.
pub const CROWDING_FLEET_SCALE: f64 = 40.0;

/// Errors from the compute control plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Ec2Error {
    /// The underlying market rejected the query.
    Market(MarketError),
    /// No instance with that id exists.
    UnknownInstance(InstanceId),
    /// The instance is already terminated.
    AlreadyTerminated(InstanceId),
}

impl std::fmt::Display for Ec2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ec2Error::Market(e) => write!(f, "market error: {e}"),
            Ec2Error::UnknownInstance(id) => write!(f, "unknown instance {id}"),
            Ec2Error::AlreadyTerminated(id) => write!(f, "instance {id} already terminated"),
        }
    }
}

impl std::error::Error for Ec2Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Ec2Error::Market(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MarketError> for Ec2Error {
    fn from(e: MarketError) -> Self {
        Ec2Error::Market(e)
    }
}

/// The outcome of one spot-request attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum SpotRequestOutcome {
    /// Capacity was granted.
    Fulfilled(LaunchedSpot),
    /// No capacity at this instant; the request stays open and should be
    /// retried (the paper's Controller sweeps open requests every 15 min).
    OpenNoCapacity,
}

/// Details of a fulfilled spot launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchedSpot {
    /// The instance created.
    pub instance: InstanceId,
    /// When boot completes and the workload can start.
    pub ready_at: SimTime,
    /// When the provider will reclaim the instance, if ever within the
    /// market horizon. The two-minute notice fires at
    /// `interruption_at - INTERRUPTION_NOTICE`.
    pub interruption_at: Option<SimTime>,
}

/// The EC2-like control plane.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cloud_compute::{Ec2, SpotRequestOutcome, TerminationReason};
/// use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
/// use sim_kernel::{SimRng, SimTime};
///
/// let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(3)));
/// let mut ec2 = Ec2::new(market, SimRng::seed_from_u64(3));
/// let outcome = ec2.request_spot(Region::ApNortheast3, InstanceType::M5Xlarge, SimTime::ZERO)?;
/// if let SpotRequestOutcome::Fulfilled(launch) = outcome {
///     ec2.terminate(launch.instance, SimTime::from_hours(1), TerminationReason::Completed)?;
/// }
/// # Ok::<(), cloud_compute::Ec2Error>(())
/// ```
#[derive(Debug)]
pub struct Ec2 {
    market: Arc<SpotMarket>,
    rng: SimRng,
    ledger: BillingLedger,
    /// Every instance ever created, in id order: ids are minted densely
    /// from 1, so the record of id `n` sits at index `n - 1`.
    instances: Vec<InstanceRecord>,
    /// Exact count of running spot instances per (region, type), kept in
    /// lockstep with `instances` so `crowding_multiplier` is O(1) instead
    /// of a scan over every record ever created (which made spot requests
    /// superlinear in fleet size).
    running_spot: [[u32; InstanceType::ALL.len()]; Region::ALL.len()],
    spot_attempts: u64,
    spot_fulfillments: u64,
    injector: Option<Box<dyn FaultInjector>>,
}

impl Ec2 {
    /// Creates a control plane over a market.
    pub fn new(market: Arc<SpotMarket>, rng: SimRng) -> Self {
        Ec2 {
            market,
            rng: rng.fork("ec2"),
            ledger: BillingLedger::new(),
            instances: Vec::new(),
            running_spot: [[0; InstanceType::ALL.len()]; Region::ALL.len()],
            spot_attempts: 0,
            spot_fulfillments: 0,
            injector: None,
        }
    }

    /// Installs a fault injector over the request lifecycle and
    /// interruption engine. Chaos-only: fault-free experiments never call
    /// this, so their RNG streams are untouched.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The market this control plane trades against.
    pub fn market(&self) -> &SpotMarket {
        &self.market
    }

    /// Attempts a spot request at `at`.
    ///
    /// A fulfilled request creates a running instance, samples its future
    /// interruption from the market hazard, and starts billing. An
    /// unfulfilled request stays open (the caller retries later).
    ///
    /// # Errors
    ///
    /// Returns [`Ec2Error::Market`] if the type is not offered in the region
    /// or `at` is beyond the market horizon.
    pub fn request_spot(
        &mut self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<SpotRequestOutcome, Ec2Error> {
        self.spot_attempts += 1;
        if self
            .injector
            .as_ref()
            .is_some_and(|i| i.spot_blocked(region, at))
        {
            return Ok(SpotRequestOutcome::OpenNoCapacity);
        }
        if !self.market.try_fulfill(region, instance_type, at, &mut self.rng)? {
            return Ok(SpotRequestOutcome::OpenNoCapacity);
        }
        self.spot_fulfillments += 1;
        let ready_at = at + BOOT_DELAY;
        let hazard = self
            .injector
            .as_ref()
            .map_or(1.0, |i| i.hazard_multiplier(region, at));
        let crowding = self.crowding_multiplier(region, instance_type) * hazard;
        let mut interruption_at = self
            .market
            .sample_interruption_delay_scaled(region, instance_type, at, crowding, &mut self.rng)?
            .map(|d| at + d);
        // A region-wide capacity outage reclaims this instance inside the
        // outage window, whatever the sampled hazard said.
        if let Some((from, until)) = self
            .injector
            .as_ref()
            .and_then(|i| i.forced_reclaim_window(region, at))
        {
            let window_start = from.max(at);
            let span = (until - window_start).as_secs().max(1);
            let jitter = SimDuration::from_secs(self.rng.uniform_u64(span.min(600)));
            let forced = window_start + jitter;
            interruption_at = Some(interruption_at.map_or(forced, |t| t.min(forced)));
        }
        // An interruption during boot is indistinguishable from a failed
        // request at the workload level; keep it anyway (realism), but
        // never earlier than the notice period after launch.
        let interruption_at = interruption_at.map(|t| t.max(at + INTERRUPTION_NOTICE));
        let id = self.create(region, instance_type, PurchaseModel::Spot, at, ready_at);
        self.running_spot[region as usize][instance_type as usize] += 1;
        Ok(SpotRequestOutcome::Fulfilled(LaunchedSpot {
            instance: id,
            ready_at,
            interruption_at,
        }))
    }

    /// Launches an on-demand instance (always succeeds).
    ///
    /// # Errors
    ///
    /// Returns [`Ec2Error::Market`] if the type is not offered in the region.
    pub fn launch_on_demand(
        &mut self,
        region: Region,
        instance_type: InstanceType,
        at: SimTime,
    ) -> Result<LaunchedSpot, Ec2Error> {
        if !self.market.is_available(region, instance_type) {
            return Err(Ec2Error::Market(MarketError::Unavailable {
                region,
                instance_type,
            }));
        }
        let ready_at = at + BOOT_DELAY;
        let id = self.create(region, instance_type, PurchaseModel::OnDemand, at, ready_at);
        Ok(LaunchedSpot {
            instance: id,
            ready_at,
            interruption_at: None,
        })
    }

    /// Terminates an instance, finalizing its bill (per-second usage at the
    /// market's hourly spot curve, or the flat on-demand rate).
    ///
    /// Returns the instance's total cost.
    ///
    /// # Errors
    ///
    /// Returns [`Ec2Error::UnknownInstance`] or
    /// [`Ec2Error::AlreadyTerminated`] on misuse, and
    /// [`Ec2Error::Market`] if billing needs prices beyond the horizon.
    pub fn terminate(
        &mut self,
        id: InstanceId,
        at: SimTime,
        reason: TerminationReason,
    ) -> Result<Usd, Ec2Error> {
        // Compute the bill before mutating the record so market errors leave
        // the instance untouched.
        let (region, itype, model, launched_at, running) = {
            let rec = self.instance(id).ok_or(Ec2Error::UnknownInstance(id))?;
            (
                rec.region(),
                rec.instance_type(),
                rec.model(),
                rec.launched_at(),
                rec.is_running(),
            )
        };
        if !running {
            return Err(Ec2Error::AlreadyTerminated(id));
        }
        let cost = self.usage_cost(region, itype, model, launched_at, at)?;
        let service = match model {
            PurchaseModel::Spot => ServiceKind::SpotInstance,
            PurchaseModel::OnDemand => ServiceKind::OnDemandInstance,
        };
        self.ledger.charge(service, cost);
        let slot = Self::slot(id).expect("checked above");
        self.instances[slot].terminate(at, reason, cost);
        if model == PurchaseModel::Spot {
            self.running_spot[region as usize][itype as usize] -= 1;
        }
        Ok(cost)
    }

    /// The cost of running `model` capacity from `from` to `to`, integrating
    /// the hourly spot curve for spot instances.
    ///
    /// # Errors
    ///
    /// Returns [`Ec2Error::Market`] for queries beyond the horizon.
    pub fn usage_cost(
        &self,
        region: Region,
        instance_type: InstanceType,
        model: PurchaseModel,
        from: SimTime,
        to: SimTime,
    ) -> Result<Usd, Ec2Error> {
        assert!(to >= from, "usage_cost: negative interval");
        match model {
            PurchaseModel::OnDemand => Ok(self
                .market
                .on_demand_price(region, instance_type)
                .for_duration(to - from)),
            PurchaseModel::Spot => {
                let mut total = Usd::ZERO;
                let mut cursor = from;
                while cursor < to {
                    let hour_end = SimTime::from_secs((cursor.as_secs() / 3600 + 1) * 3600);
                    let segment_end = hour_end.min(to);
                    let price = self.market.spot_price(region, instance_type, cursor)?;
                    total += price.for_duration(segment_end - cursor);
                    cursor = segment_end;
                }
                Ok(total)
            }
        }
    }

    /// Looks up an instance record.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceRecord> {
        self.instances.get(Self::slot(id)?)
    }

    /// The index of `id`'s record; `None` for id 0, which is never minted.
    fn slot(id: InstanceId) -> Option<usize> {
        usize::try_from(id.raw().checked_sub(1)?).ok()
    }

    /// Number of currently running instances.
    pub fn running_count(&self) -> usize {
        self.instances.iter().filter(|r| r.is_running()).count()
    }

    /// All instance records, in id order.
    pub fn instances(&self) -> &[InstanceRecord] {
        &self.instances
    }

    /// The billing ledger.
    pub fn ledger(&self) -> &BillingLedger {
        &self.ledger
    }

    /// Mutable access to the ledger, for charging non-compute services
    /// (data transfer, serverless) against the same books.
    pub fn ledger_mut(&mut self) -> &mut BillingLedger {
        &mut self.ledger
    }

    /// Total spot-request attempts made so far.
    pub fn spot_attempts(&self) -> u64 {
        self.spot_attempts
    }

    /// Total spot requests fulfilled so far.
    pub fn spot_fulfillments(&self) -> u64 {
        self.spot_fulfillments
    }

    /// The crowding hazard multiplier for a new instance in this market,
    /// based on how many of this account's spot instances already run there.
    pub fn crowding_multiplier(&self, region: Region, instance_type: InstanceType) -> f64 {
        let others = f64::from(self.running_spot[region as usize][instance_type as usize]);
        1.0 + CROWDING_COEFFICIENT
            * region.capacity_depth_coefficient()
            * (others / CROWDING_FLEET_SCALE).min(1.0)
    }

    /// Records a new running instance under the next id.
    fn create(
        &mut self,
        region: Region,
        instance_type: InstanceType,
        model: PurchaseModel,
        at: SimTime,
        ready_at: SimTime,
    ) -> InstanceId {
        let id = InstanceId::new(self.instances.len() as u64 + 1);
        self.instances
            .push(InstanceRecord::new(id, region, instance_type, model, at, ready_at));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_market::MarketConfig;

    fn ec2(seed: u64) -> Ec2 {
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
        Ec2::new(market, SimRng::seed_from_u64(seed))
    }

    fn fulfill(ec2: &mut Ec2, region: Region, at: SimTime) -> LaunchedSpot {
        let mut t = at;
        loop {
            match ec2.request_spot(region, InstanceType::M5Xlarge, t).unwrap() {
                SpotRequestOutcome::Fulfilled(launch) => return launch,
                SpotRequestOutcome::OpenNoCapacity => t += SimDuration::from_mins(15),
            }
        }
    }

    #[test]
    fn spot_launch_boots_and_bills() {
        let mut e = ec2(1);
        let launch = fulfill(&mut e, Region::ApNortheast3, SimTime::ZERO);
        assert_eq!(e.running_count(), 1);
        let rec = e.instance(launch.instance).unwrap();
        assert_eq!(rec.ready_at() - rec.launched_at(), BOOT_DELAY);
        let end = rec.launched_at() + SimDuration::from_hours(10);
        let cost = e
            .terminate(launch.instance, end, TerminationReason::Completed)
            .unwrap();
        assert!(cost > Usd::ZERO);
        assert_eq!(e.ledger().total_for_service(ServiceKind::SpotInstance), cost);
        assert_eq!(e.running_count(), 0);
    }

    #[test]
    fn spot_cost_is_below_on_demand_cost() {
        let mut e = ec2(2);
        let launch = fulfill(&mut e, Region::CaCentral1, SimTime::ZERO);
        let start = e.instance(launch.instance).unwrap().launched_at();
        let end = start + SimDuration::from_hours(10);
        let spot_cost = e
            .usage_cost(
                Region::CaCentral1,
                InstanceType::M5Xlarge,
                PurchaseModel::Spot,
                start,
                end,
            )
            .unwrap();
        let od_cost = e
            .usage_cost(
                Region::CaCentral1,
                InstanceType::M5Xlarge,
                PurchaseModel::OnDemand,
                start,
                end,
            )
            .unwrap();
        assert!(spot_cost < od_cost, "spot {spot_cost} vs od {od_cost}");
    }

    #[test]
    fn on_demand_never_interrupts() {
        let mut e = ec2(3);
        let launch = e
            .launch_on_demand(Region::UsEast1, InstanceType::M5Xlarge, SimTime::ZERO)
            .unwrap();
        assert_eq!(launch.interruption_at, None);
        let cost = e
            .terminate(
                launch.instance,
                SimTime::from_hours(10) + BOOT_DELAY,
                TerminationReason::Completed,
            )
            .unwrap();
        // 10h + boot (150 s) at $0.192/h.
        let expected = 0.192 * (10.0 + 150.0 / 3600.0);
        assert!((cost.amount() - expected).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn interruption_respects_notice_floor() {
        let mut e = ec2(4);
        for day in 0..5 {
            let launch = fulfill(&mut e, Region::CaCentral1, SimTime::from_days(day));
            if let Some(at) = launch.interruption_at {
                let rec = e.instance(launch.instance).unwrap();
                assert!(at >= rec.launched_at() + INTERRUPTION_NOTICE);
            }
        }
    }

    #[test]
    fn unstable_regions_interrupt_sooner() {
        let mut e = ec2(5);
        let ten_hours = SimDuration::from_hours(10);
        let mut count = |region: Region| {
            let mut interrupted = 0;
            for i in 0..120 {
                let launch = fulfill(&mut e, region, SimTime::from_hours(i));
                let start = e.instance(launch.instance).unwrap().launched_at();
                if launch
                    .interruption_at
                    .is_some_and(|at| at <= start + ten_hours)
                {
                    interrupted += 1;
                }
                let _ = e.terminate(launch.instance, start + SimDuration::from_secs(300), TerminationReason::Manual);
            }
            interrupted
        };
        let unstable = count(Region::CaCentral1);
        let stable = count(Region::ApNortheast3);
        assert!(
            unstable > 2 * stable.max(1),
            "unstable {unstable} vs stable {stable}"
        );
    }

    #[test]
    fn double_terminate_errors() {
        let mut e = ec2(6);
        let launch = e
            .launch_on_demand(Region::UsEast1, InstanceType::M5Xlarge, SimTime::ZERO)
            .unwrap();
        e.terminate(launch.instance, SimTime::from_hours(1), TerminationReason::Completed)
            .unwrap();
        let err = e
            .terminate(launch.instance, SimTime::from_hours(2), TerminationReason::Completed)
            .unwrap_err();
        assert!(matches!(err, Ec2Error::AlreadyTerminated(_)));
        let err = e
            .terminate(InstanceId::new(999), SimTime::from_hours(2), TerminationReason::Completed)
            .unwrap_err();
        assert!(matches!(err, Ec2Error::UnknownInstance(_)));
    }

    #[test]
    fn unavailable_market_rejected() {
        let mut e = ec2(7);
        let err = e
            .launch_on_demand(Region::ApNortheast3, InstanceType::P32xlarge, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Ec2Error::Market(MarketError::Unavailable { .. })));
        assert!(err.to_string().contains("not offered"));
    }

    #[test]
    fn placement_affects_fulfillment_rate() {
        let mut e = ec2(8);
        let mut open = 0;
        for i in 0..200 {
            if matches!(
                e.request_spot(Region::UsEast1, InstanceType::M5Xlarge, SimTime::from_hours(i))
                    .unwrap(),
                SpotRequestOutcome::OpenNoCapacity
            ) {
                open += 1;
            }
        }
        // Placement mean 3 → fulfill ≈ 0.475, so roughly half stay open.
        assert!(open > 60 && open < 150, "open {open}");
        assert_eq!(e.spot_attempts(), 200);
        assert!(e.spot_fulfillments() > 50);
    }

    #[test]
    fn crowding_counter_matches_record_scan() {
        // The O(1) running-spot counters must agree with the full record
        // scan they replaced, through launches, interruptions, and
        // completed terminations across regions.
        let mut e = ec2(11);
        let mut live = Vec::new();
        for i in 0..40u64 {
            let region = Region::ALL[(i % 4) as usize];
            let launch = fulfill(&mut e, region, SimTime::from_hours(i));
            live.push(launch.instance);
            if i % 3 == 0 {
                let victim = live.remove(0);
                let rec = e.instance(victim).unwrap();
                let (at, reason) = if i % 2 == 0 {
                    (rec.ready_at() + SimDuration::from_hours(1), TerminationReason::Completed)
                } else {
                    (rec.ready_at() + SimDuration::from_mins(7), TerminationReason::Interrupted)
                };
                e.terminate(victim, at, reason).unwrap();
            }
            for region in Region::ALL {
                for itype in InstanceType::ALL {
                    let scan = e
                        .instances
                        .iter()
                        .filter(|r| {
                            r.is_running()
                                && r.region() == region
                                && r.instance_type() == itype
                                && r.model() == PurchaseModel::Spot
                        })
                        .count() as u32;
                    assert_eq!(
                        e.running_spot[region as usize][itype as usize],
                        scan,
                        "{region:?}/{itype:?} after step {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn ids_never_minted_are_unknown() {
        let mut e = ec2(12);
        let first = e
            .launch_on_demand(Region::UsEast1, InstanceType::M5Xlarge, SimTime::ZERO)
            .unwrap();
        let second = fulfill(&mut e, Region::EuWest1, SimTime::ZERO);
        assert_eq!((first.instance.raw(), second.instance.raw()), (1, 2));
        let next = InstanceId::from_raw(3);
        for id in [InstanceId::from_raw(0), next, InstanceId::from_raw(u64::MAX)] {
            assert!(e.instance(id).is_none(), "{id} was never minted");
            let err = e
                .terminate(id, SimTime::from_hours(1), TerminationReason::Manual)
                .unwrap_err();
            assert_eq!(err, Ec2Error::UnknownInstance(id));
        }
        assert_eq!(e.instance(first.instance).unwrap().id(), first.instance);
        assert_eq!(e.instance(second.instance).unwrap().id(), second.instance);
    }

    #[test]
    fn instances_are_listed_in_id_order() {
        let mut e = ec2(13);
        for i in 0..12u64 {
            let at = SimTime::from_hours(i);
            let id = if i % 3 == 0 {
                e.launch_on_demand(Region::UsWest2, InstanceType::M5Xlarge, at)
                    .unwrap()
                    .instance
            } else {
                fulfill(&mut e, Region::ALL[i as usize], at).instance
            };
            if i % 2 == 0 {
                let end = e.instance(id).unwrap().launched_at() + SimDuration::from_mins(30);
                e.terminate(id, end, TerminationReason::Completed).unwrap();
            }
        }
        let ids: Vec<u64> = e.instances().iter().map(|r| r.id().raw()).collect();
        assert_eq!(ids, (1..=12).collect::<Vec<_>>());
        assert_eq!(e.running_count(), 6);
    }

    #[test]
    fn usage_cost_integrates_hour_boundaries() {
        let e = ec2(9);
        // Split a 2-hour run at an odd offset; summing the parts must equal
        // the whole (billing additivity).
        let start = SimTime::from_secs(1800);
        let mid = SimTime::from_secs(5400);
        let end = SimTime::from_secs(start.as_secs() + 7200);
        let whole = e
            .usage_cost(Region::EuWest1, InstanceType::M5Xlarge, PurchaseModel::Spot, start, end)
            .unwrap();
        let a = e
            .usage_cost(Region::EuWest1, InstanceType::M5Xlarge, PurchaseModel::Spot, start, mid)
            .unwrap();
        let b = e
            .usage_cost(Region::EuWest1, InstanceType::M5Xlarge, PurchaseModel::Spot, mid, end)
            .unwrap();
        assert!(((a + b).amount() - whole.amount()).abs() < 1e-9);
    }
}
