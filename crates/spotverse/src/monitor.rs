//! The Monitor component (paper §3.2, §4).
//!
//! A metrics-collector function, triggered every monitor period (the
//! paper's CloudWatch rule), gathers on-demand/spot prices, Interruption
//! Frequency (as the Stability Score) and Spot Placement Scores for every
//! region offering the managed instance type, and persists them to the KV
//! store — SpotVerse's centralized data plane. The Optimizer consumes the
//! latest persisted snapshot, so decisions are made on *observed*
//! (possibly minutes-stale) metrics, exactly as in the real system.
//!
//! A collection does at its tick only what can fail or cost: the billed
//! collector invocation and one fault-checked, billed KV write plus one
//! metric datapoint per row. Each landed write records its row's
//! `collected_at` stamp, and nothing else: the row's metrics are read
//! from the market at that stamp when a decision first asks for the
//! snapshot. The market read is a pure function of the market, the
//! chaos overlay (built once per run and never changed), the row and the
//! stamp, so the rebuilt row is exactly what the write would have stored.

use std::sync::Arc;

use aws_stack::{FunctionConfig, FunctionRuntime, KvError, KvStore, MetricsService, RetryPolicy};
use cloud_compute::BillingLedger;
use cloud_market::{InstanceType, MarketError, MarketOverlay, Region, SpotMarket};
use sim_kernel::{SimDuration, SimTime};

use crate::optimizer::RegionAssessment;

/// The KV table the Monitor writes to.
pub const METRICS_TABLE: &str = "spotverse-metrics";
/// The function name of the collector.
pub const COLLECTOR_FUNCTION: &str = "spotverse-metrics-collector";

/// The market epoch: prices step hourly (bands and placement scores
/// daily), so the market's metrics cannot change inside one.
pub(crate) const MARKET_EPOCH: SimDuration = SimDuration::from_hours(1);

/// Monitor errors.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorError {
    /// The market rejected a query.
    Market(MarketError),
    /// The KV store rejected an operation.
    Kv(KvError),
}

impl MonitorError {
    /// Whether retrying the same operation later can plausibly succeed
    /// without any other intervention. Only transient throttling
    /// qualifies: a market rejection needs a different response
    /// (degrade), not a blind retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, MonitorError::Kv(KvError::Throttled { .. }))
    }
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Market(e) => write!(f, "market: {e}"),
            MonitorError::Kv(e) => write!(f, "kv store: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MonitorError::Market(e) => Some(e),
            MonitorError::Kv(e) => Some(e),
        }
    }
}

impl From<MarketError> for MonitorError {
    fn from(e: MarketError) -> Self {
        MonitorError::Market(e)
    }
}

impl From<KvError> for MonitorError {
    fn from(e: KvError) -> Self {
        MonitorError::Kv(e)
    }
}

/// What a collection cycle did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectOutcome {
    /// The market was re-read and `n` regions persisted.
    Fresh(usize),
    /// The persisted snapshot was still epoch-fresh; nothing was touched.
    Reused,
}

/// Fingerprints the overlay's *active* override set as observed by
/// `regions` at `at`. Two instants with identical active windows per
/// region produce identical monitor rows, so they may share an epoch. An
/// absent or empty overlay fingerprints to zero.
fn overlay_fingerprint(overlay: Option<&MarketOverlay>, at: SimTime, regions: &[Region]) -> u64 {
    let Some(overlay) = overlay else { return 0 };
    if overlay.windows().is_empty() {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (wi, window) in overlay.windows().iter().enumerate() {
        for (ri, &region) in regions.iter().enumerate() {
            if window.applies(region, at) {
                h ^= ((wi as u64) << 8) | ri as u64 | 1 << 63;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// The Monitor component: the metrics collector, the stamps of its
/// persisted rows and its per-epoch snapshot.
///
/// `epoch` is the key — (market hour, active-overlay fingerprint) — of
/// the last successful collection. A 15-minute tick with the same key
/// would persist identical rows, so it touches nothing. The key changes on
/// every hour boundary and whenever the chaos overlay's active window set
/// changes, so faulted rows are never reused across a fault edge.
///
/// `rows` is the snapshot built from the stamps: assessments in catalog
/// order plus the oldest stamp. The first read after a collection attempt
/// builds it, and every attempt that is not [`CollectOutcome::Reused`]
/// drops it, since a failed one may have landed some writes before the
/// fault. Shared by `Arc`, so serving a decision is a refcount bump.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor {
    instance_type: InstanceType,
    epoch: Option<(u64, u64)>,
    /// The `collected_at` of each row's last landed write, in
    /// `regions_offering` order. Every collection writes its rows in that
    /// order and stops at a fault, so the rows ever written are a prefix.
    stamps: Vec<SimTime>,
    rows: Option<(Arc<[RegionAssessment]>, SimTime)>,
}

impl Monitor {
    /// Creates a monitor for an instance type.
    pub fn new(instance_type: InstanceType) -> Self {
        Monitor {
            instance_type,
            epoch: None,
            stamps: Vec::new(),
            rows: None,
        }
    }

    /// The managed instance type.
    pub fn instance_type(&self) -> InstanceType {
        self.instance_type
    }

    /// Provisions the collector function and metrics table. Idempotent.
    pub fn provision(&self, functions: &mut FunctionRuntime, kv: &mut KvStore) {
        if !functions.is_registered(COLLECTOR_FUNCTION) {
            functions.register(COLLECTOR_FUNCTION, FunctionConfig::default());
        }
        // Ignore "already exists": provisioning is idempotent.
        let _ = kv.create_table(METRICS_TABLE);
    }

    /// Runs one collection cycle: the billed collector invocation, then
    /// per region one billed, fault-checked KV write and one metric
    /// datapoint. Each landed write stamps its row with `at`; a fault
    /// stops the cycle and leaves the later rows with their older stamps.
    /// The rows' metrics, observed through `overlay` (blacked-out or
    /// degraded regions report their pinned, capped scores), are read when
    /// a decision asks for them. A cycle inside the epoch of the last
    /// successful collection is skipped and returns
    /// [`CollectOutcome::Reused`]: it would persist identical rows. The
    /// epoch only advances on success, so a throttled cycle retries in
    /// full.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::Market`] past the market horizon, before
    /// anything is billed, or [`MonitorError::Kv`] when a write fails.
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        &mut self,
        market: &SpotMarket,
        overlay: Option<&MarketOverlay>,
        at: SimTime,
        functions: &mut FunctionRuntime,
        kv: &mut KvStore,
        metrics: &MetricsService,
        ledger: &mut BillingLedger,
    ) -> Result<CollectOutcome, MonitorError> {
        let regions = market.regions_offering(self.instance_type);
        let key = (at.as_secs() / MARKET_EPOCH.as_secs(), overlay_fingerprint(overlay, at, regions));
        if self.epoch == Some(key) {
            return Ok(CollectOutcome::Reused);
        }
        self.rows = None;
        // The rows are read when a decision asks, but a collection past the
        // horizon must still fail typed here, before anything is billed.
        let horizon = market.horizon();
        if at >= horizon {
            return Err(MarketError::BeyondHorizon { at, horizon }.into());
        }
        // The invocation is billed either way; its failure does not gate
        // the rows.
        let _ = functions.invoke(COLLECTOR_FUNCTION, at, RetryPolicy::default(), ledger, |_| Ok(()));
        if self.stamps.is_empty() {
            self.stamps.reserve_exact(regions.len());
        }
        for row in 0..regions.len() {
            kv.bill_write(METRICS_TABLE, at, ledger)?;
            metrics.put_metric(ledger);
            match self.stamps.get_mut(row) {
                Some(stamp) => *stamp = at,
                None => self.stamps.push(at),
            }
        }
        self.epoch = Some(key);
        Ok(CollectOutcome::Fresh(regions.len()))
    }

    /// The persisted snapshot as optimizer inputs plus its oldest
    /// `collected_at` stamp, or `None` before the first landed write: each
    /// written row read from `market` through `overlay` at its own stamp,
    /// in catalog order. Built once per collection attempt, so `market`
    /// and `overlay` must be the ones the collections observed.
    pub(crate) fn snapshot(
        &mut self,
        market: &SpotMarket,
        overlay: Option<&MarketOverlay>,
    ) -> Option<(Arc<[RegionAssessment]>, SimTime)> {
        if self.rows.is_none() {
            let oldest = self.stamps.iter().min().copied()?;
            let regions = market.regions_offering(self.instance_type);
            let rows = regions
                .iter()
                .zip(&self.stamps)
                .map(|(&region, &at)| {
                    assess(market, overlay, region, self.instance_type, at)
                        .expect("a collection stamps only instants inside the horizon")
                })
                .collect();
            self.rows = Some((rows, oldest));
        }
        self.rows.clone()
    }

    /// Builds fresh assessments straight from the market (bypassing the
    /// persistence pipeline), observed through a fault overlay when one is
    /// given — used before the first collection, by the advisor and by
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::Market`] for market failures.
    pub fn fresh_assessments(
        &self,
        market: &SpotMarket,
        overlay: Option<&MarketOverlay>,
        at: SimTime,
    ) -> Result<Vec<RegionAssessment>, MonitorError> {
        market
            .regions_offering(self.instance_type)
            .iter()
            .map(|&region| {
                assess(market, overlay, region, self.instance_type, at)
                    .map_err(MonitorError::Market)
            })
            .collect()
    }
}

/// One region's metrics at `at`, read from the market and observed
/// through `overlay` when one is given: blacked-out or degraded regions
/// report their pinned, capped scores. The one market read behind both
/// [`Monitor::snapshot`] and [`Monitor::fresh_assessments`].
fn assess(
    market: &SpotMarket,
    overlay: Option<&MarketOverlay>,
    region: Region,
    instance_type: InstanceType,
    at: SimTime,
) -> Result<RegionAssessment, MarketError> {
    let mut placement = market.placement_score(region, instance_type, at)?;
    let mut stability = market.stability_score(region, instance_type, at)?;
    if let Some(overlay) = overlay {
        placement = overlay.placement_score(region, at, placement);
        stability = overlay.stability_score(region, at, stability);
    }
    Ok(RegionAssessment {
        region,
        placement,
        stability,
        spot_price: market.spot_price(region, instance_type, at)?,
        on_demand_price: market.on_demand_price(region, instance_type),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aws_stack::{ServiceFault, ServiceFaultInjector, ServiceOp};
    use cloud_market::MarketConfig;

    /// Ledger charges of one fresh collection over the 12 regions: the
    /// collector invocation, then a KV write and a metric datapoint each.
    const FRESH_CHARGES: usize = 1 + 12 + 12;

    struct Fixture {
        market: SpotMarket,
        monitor: Monitor,
        functions: FunctionRuntime,
        kv: KvStore,
        metrics: MetricsService,
        ledger: BillingLedger,
    }

    fn fixture() -> Fixture {
        let market = SpotMarket::new(MarketConfig::with_seed(3));
        let monitor = Monitor::new(InstanceType::M5Xlarge);
        let mut functions = FunctionRuntime::new();
        let mut kv = KvStore::new();
        monitor.provision(&mut functions, &mut kv);
        Fixture {
            market,
            monitor,
            functions,
            kv,
            metrics: MetricsService::new(),
            ledger: BillingLedger::new(),
        }
    }

    fn try_collect(
        f: &mut Fixture,
        overlay: Option<&MarketOverlay>,
        at: SimTime,
    ) -> Result<CollectOutcome, MonitorError> {
        let (kv, ledger) = (&mut f.kv, &mut f.ledger);
        f.monitor.collect(&f.market, overlay, at, &mut f.functions, kv, &f.metrics, ledger)
    }

    fn collect(f: &mut Fixture, overlay: Option<&MarketOverlay>, at: SimTime) -> CollectOutcome {
        try_collect(f, overlay, at).unwrap()
    }

    fn persisted(
        f: &mut Fixture,
        overlay: Option<&MarketOverlay>,
    ) -> (Vec<RegionAssessment>, SimTime) {
        let (rows, oldest) = f.monitor.snapshot(&f.market, overlay).expect("a landed write");
        (rows.to_vec(), oldest)
    }

    /// Throttles every KV write from the `from`-th (counting from 0) on.
    #[derive(Debug)]
    struct ThrottleWritesFrom {
        from: usize,
        seen: usize,
    }

    impl ServiceFaultInjector for ThrottleWritesFrom {
        fn intercept(&mut self, op: ServiceOp, _at: SimTime) -> Option<ServiceFault> {
            assert_eq!(op, ServiceOp::KvWrite, "a collection only writes");
            self.seen += 1;
            (self.seen > self.from).then_some(ServiceFault::Throttled)
        }
    }

    #[test]
    fn collect_persists_all_regions() {
        let mut f = fixture();
        assert_eq!(collect(&mut f, None, SimTime::from_hours(1)), CollectOutcome::Fresh(12));
        assert_eq!(f.ledger.len(), FRESH_CHARGES);
        assert!(f.ledger.total().amount() > 0.0);
        assert_eq!(persisted(&mut f, None).0.len(), 12);
    }

    #[test]
    fn snapshot_matches_market_at_collection_instant() {
        let mut f = fixture();
        let at = SimTime::from_days(2);
        collect(&mut f, None, at);
        let (persisted, collected_at) = persisted(&mut f, None);
        assert_eq!(collected_at, at);
        assert_eq!(persisted, f.monitor.fresh_assessments(&f.market, None, at).unwrap());
    }

    /// A collection throttled at its fifth write leaves four rows with the
    /// new stamp and the rest with the previous collection's: each row
    /// holds exactly the values the market gave at its own stamp, and the
    /// snapshot's age is the oldest stamp.
    #[test]
    fn rows_hold_exactly_the_collected_attributes() {
        let mut f = fixture();
        let first = SimTime::from_days(2);
        let second = first + MARKET_EPOCH;
        assert_eq!(collect(&mut f, None, first), CollectOutcome::Fresh(12));
        f.kv.set_fault_injector(Box::new(ThrottleWritesFrom { from: 4, seen: 0 }));
        let err = try_collect(&mut f, None, second).unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        // One invocation and four landed writes with their datapoints.
        assert_eq!(f.ledger.len(), FRESH_CHARGES + 1 + 4 + 4);
        let old = f.monitor.fresh_assessments(&f.market, None, first).unwrap();
        let new = f.monitor.fresh_assessments(&f.market, None, second).unwrap();
        let want: Vec<RegionAssessment> = new[..4].iter().chain(&old[4..]).copied().collect();
        assert_ne!(new, old, "prices move across the hour");
        assert_eq!(persisted(&mut f, None), (want, first));
    }

    #[test]
    fn snapshot_is_stale_until_next_collection() {
        let mut f = fixture();
        collect(&mut f, None, SimTime::from_days(1));
        let (snapshot, _) = persisted(&mut f, None);
        let later_fresh = f
            .monitor
            .fresh_assessments(&f.market, None, SimTime::from_days(40))
            .unwrap();
        // Prices move over 39 days; the persisted snapshot must not.
        let moved = snapshot
            .iter()
            .zip(later_fresh.iter())
            .any(|(a, b)| (a.spot_price.rate() - b.spot_price.rate()).abs() > 1e-9);
        assert!(moved, "prices should drift over 39 days");
    }

    #[test]
    fn only_throttling_is_retryable() {
        assert!(MonitorError::Kv(KvError::Throttled { table: "t".into() }).is_retryable());
        assert!(!MonitorError::Kv(KvError::NoSuchTable("t".into())).is_retryable());
        let horizon = SimTime::from_days(210);
        let market = MarketError::BeyondHorizon { at: horizon, horizon };
        assert!(!MonitorError::Market(market).is_retryable());
    }

    #[test]
    fn no_snapshot_error_before_first_collection() {
        let mut f = fixture();
        assert_eq!(f.monitor.snapshot(&f.market, None), None);
        // A collection past the horizon fails typed before it bills or
        // stamps anything.
        let horizon = f.market.horizon();
        let err = try_collect(&mut f, None, horizon).unwrap_err();
        assert_eq!(err, MonitorError::Market(MarketError::BeyondHorizon { at: horizon, horizon }));
        assert_eq!(f.ledger.len(), 0);
        assert_eq!(f.monitor.snapshot(&f.market, None), None);
    }

    #[test]
    fn provision_is_idempotent() {
        let mut f = fixture();
        f.monitor.provision(&mut f.functions, &mut f.kv);
        f.monitor.provision(&mut f.functions, &mut f.kv);
        assert!(f.functions.is_registered(COLLECTOR_FUNCTION));
    }

    #[test]
    fn memoized_collection_skips_within_an_epoch() {
        let mut f = fixture();
        // Four 15-minute ticks inside hour 24: one fresh read, three hits.
        let base = SimTime::from_days(1);
        assert_eq!(collect(&mut f, None, base), CollectOutcome::Fresh(12));
        assert_eq!(f.ledger.len(), FRESH_CHARGES);
        for tick in 1..4 {
            let at = base + SimDuration::from_mins(15 * tick);
            assert_eq!(collect(&mut f, None, at), CollectOutcome::Reused);
        }
        assert_eq!(f.ledger.len(), FRESH_CHARGES, "reused ticks must bill nothing");
        // Crossing the hour boundary refreshes.
        let next_hour = base + MARKET_EPOCH;
        assert_eq!(collect(&mut f, None, next_hour), CollectOutcome::Fresh(12));
        assert_eq!(f.ledger.len(), 2 * FRESH_CHARGES);
        // Reused ticks leave the persisted snapshot untouched and valid.
        let fresh = f.monitor.fresh_assessments(&f.market, None, next_hour).unwrap();
        assert_eq!(persisted(&mut f, None), (fresh, next_hour));
    }

    #[test]
    fn overlay_edges_invalidate_the_memo_epoch() {
        use cloud_market::OverlayWindow;
        let mut f = fixture();
        let mut overlay = MarketOverlay::new();
        // A window opening mid-hour: same market hour, different active set.
        let open = SimTime::from_hours(24) + SimDuration::from_mins(30);
        let mut w = OverlayWindow::new(Some(vec![Region::UsEast1]), open, SimTime::from_days(2));
        w.placement_cap = Some(cloud_market::PlacementScore::MIN);
        overlay.push(w);
        let before = SimTime::from_hours(24);
        assert_eq!(collect(&mut f, Some(&overlay), before), CollectOutcome::Fresh(12));
        // 15 minutes later, still pre-window: reused.
        let still_before = before + SimDuration::from_mins(15);
        assert_eq!(collect(&mut f, Some(&overlay), still_before), CollectOutcome::Reused);
        // The window opens inside the same hour: must re-collect so the
        // snapshot observes the fault.
        assert_eq!(collect(&mut f, Some(&overlay), open), CollectOutcome::Fresh(12));
        let pinned = persisted(&mut f, Some(&overlay))
            .0
            .into_iter()
            .find(|a| a.region == Region::UsEast1)
            .unwrap();
        assert_eq!(pinned.placement, cloud_market::PlacementScore::MIN);
    }

    /// A day of hourly collections reads no market data, so it fills no
    /// market segment; the first snapshot afterwards fills exactly the
    /// segments up to the one covering the latest stamp (day 2): for each
    /// of the 12 regions, the placement segments from days 0, 1 and 2 and
    /// the price segments over the same hours.
    #[test]
    fn collections_fill_no_market_segment_until_a_decision_reads_them() {
        let mut f = fixture();
        let (_, total) = f.market.materialized_segments();
        let start = SimTime::from_days(1);
        for hour in 0..=24 {
            let at = start + SimDuration::from_hours(hour);
            assert_eq!(collect(&mut f, None, at), CollectOutcome::Fresh(12));
        }
        assert_eq!(f.market.materialized_segments(), (0, total));
        let latest = start + SimDuration::from_hours(24);
        assert_eq!(persisted(&mut f, None).1, latest);
        assert_eq!(f.market.materialized_segments(), (72, total));
        // The same segments one read at the latest stamp fills.
        let oracle = SpotMarket::new(MarketConfig::with_seed(3));
        f.monitor.fresh_assessments(&oracle, None, latest).unwrap();
        assert_eq!(oracle.materialized_segments(), f.market.materialized_segments());
    }

    #[test]
    fn p3_snapshot_covers_only_offering_regions() {
        let market = SpotMarket::new(MarketConfig::with_seed(3));
        let mut monitor = Monitor::new(InstanceType::P32xlarge);
        let mut functions = FunctionRuntime::new();
        let mut kv = KvStore::new();
        monitor.provision(&mut functions, &mut kv);
        let metrics = MetricsService::new();
        let mut ledger = BillingLedger::new();
        let n = monitor
            .collect(&market, None, SimTime::ZERO, &mut functions, &mut kv, &metrics, &mut ledger)
            .unwrap();
        assert_eq!(n, CollectOutcome::Fresh(9), "p3 is offered in 9 of 12 regions");
        assert_eq!(monitor.snapshot(&market, None).expect("collected").0.len(), 9);
    }
}
