//! The Monitor component (paper §3.2, §4).
//!
//! A metrics-collector function, triggered every monitor period (the
//! paper's CloudWatch rule), gathers on-demand/spot prices, Interruption Frequency (as the Stability
//! Score) and Spot Placement Scores for every region offering the managed
//! instance type, and persists them to the KV store — SpotVerse's
//! centralized data plane. The Optimizer consumes the latest persisted
//! snapshot, so decisions are made on *observed* (possibly minutes-stale)
//! metrics, exactly as in the real system.

use std::sync::Arc;

use aws_stack::{AttrValue, FunctionConfig, FunctionRuntime, KvError, KvStore, MetricsService, RetryPolicy};
use cloud_compute::BillingLedger;
use cloud_market::{
    InstanceType, MarketError, MarketOverlay, PlacementScore, Region, SpotMarket, StabilityScore,
    UsdPerHour,
};
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
    /// No snapshot has been collected yet.
    NoSnapshot,
}

impl MonitorError {
    /// Whether retrying the same operation later can plausibly succeed
    /// without any other intervention. Only transient throttling
    /// qualifies: market rejections and missing snapshots need a
    /// different response (degrade, wait for a collection), not a blind
    /// retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, MonitorError::Kv(KvError::Throttled { .. }))
    }
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Market(e) => write!(f, "market: {e}"),
            MonitorError::Kv(e) => write!(f, "kv store: {e}"),
            MonitorError::NoSnapshot => write!(f, "no metrics snapshot collected yet"),
        }
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MonitorError::Market(e) => Some(e),
            MonitorError::Kv(e) => Some(e),
            MonitorError::NoSnapshot => None,
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

/// The Monitor's per-epoch snapshot.
///
/// A 15-minute tick that lands in the same epoch as the last successful
/// collection would persist an identical snapshot. `key` is that
/// collection's epoch — (market hour, active-overlay fingerprint) — and a
/// tick with a matching key skips the market reads, the collector
/// invocation and the KV writes. The key changes on every hour boundary
/// and whenever the chaos overlay's active window set mutates, so faulted
/// snapshots are never reused across a fault edge.
///
/// `rows` is the snapshot parsed back from the KV rows: assessments in
/// catalog order plus the oldest `collected_at` stamp. It is filled by the
/// first read after a collection attempt and dropped by every attempt that
/// is not [`CollectOutcome::Reused`] — a failed one may have rewritten
/// some rows before the fault. Shared by `Arc`, so serving a decision is a
/// refcount bump.
#[derive(Debug, Clone, Default, PartialEq)]
struct EpochSnapshot {
    key: Option<(u64, u64)>,
    rows: Option<(Arc<[RegionAssessment]>, SimTime)>,
}

/// The Monitor's KV rows: one per region offering its instance type,
/// keyed `"{instance_type}/{region}"`, plus the `"{instance_type}/"` scan
/// prefix they share. Built on the first collection; every later one
/// gathers into `rows` and writes each row in place, so a steady-state
/// collection allocates nothing per row.
#[derive(Debug, Clone, PartialEq)]
struct PersistedRows {
    prefix: String,
    /// Each row's key and the values the latest collection gathered for
    /// it, in `regions_offering` order.
    rows: Vec<(String, RegionAssessment)>,
}

impl PersistedRows {
    fn new(instance_type: InstanceType, regions: &[Region]) -> Self {
        let prefix = format!("{instance_type}/");
        let rows = regions
            .iter()
            .map(|&region| {
                let assessment = RegionAssessment {
                    region,
                    placement: PlacementScore::MIN,
                    stability: StabilityScore::MIN,
                    spot_price: UsdPerHour::new(0.0),
                    on_demand_price: UsdPerHour::new(0.0),
                };
                (format!("{prefix}{region}"), assessment)
            })
            .collect();
        PersistedRows { prefix, rows }
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

/// The Monitor component: the metrics collector and its per-epoch
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor {
    instance_type: InstanceType,
    snapshot: EpochSnapshot,
    persisted: Option<PersistedRows>,
}

impl Monitor {
    /// Creates a monitor for an instance type.
    pub fn new(instance_type: InstanceType) -> Self {
        Monitor {
            instance_type,
            snapshot: EpochSnapshot::default(),
            persisted: None,
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

    /// Runs one collection cycle: the collector function reads every
    /// region's metrics from the market, observed through a fault overlay
    /// (blacked-out or degraded regions report their pinned, capped
    /// scores), and persists them. A cycle inside the epoch of the last
    /// successful collection is skipped and returns
    /// [`CollectOutcome::Reused`]: it would persist byte-identical rows.
    /// The epoch only advances on success, so a throttled cycle retries in
    /// full.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::Market`] or [`MonitorError::Kv`] on substrate
    /// failures.
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
        if self.snapshot.key == Some(key) {
            return Ok(CollectOutcome::Reused);
        }
        self.snapshot.rows = None;
        let instance_type = self.instance_type;
        let persisted =
            self.persisted.get_or_insert_with(|| PersistedRows::new(instance_type, regions));
        debug_assert!(
            persisted.rows.iter().map(|(_, a)| a.region).eq(regions.iter().copied()),
            "a monitor serves one market"
        );
        // Gather before invoking so market errors surface typed.
        for (_, row) in &mut persisted.rows {
            *row = assess(market, overlay, row.region, instance_type, at)?;
        }
        // The invocation is billed either way; its failure does not gate
        // the rows.
        let _ = functions.invoke(COLLECTOR_FUNCTION, at, RetryPolicy::default(), ledger, |_| Ok(()));
        let count = persisted.rows.len();
        // Every write sets all five attributes, so the row in place ends up
        // exactly what a full replace would store.
        for (row_key, row) in &persisted.rows {
            kv.update_item(METRICS_TABLE, row_key, at, ledger, |item| {
                item.insert("spot_price", AttrValue::N(row.spot_price.rate()));
                item.insert("on_demand_price", AttrValue::N(row.on_demand_price.rate()));
                item.insert("placement_score", AttrValue::N(f64::from(row.placement.value())));
                item.insert("stability_score", AttrValue::N(f64::from(row.stability.value())));
                item.insert("collected_at", AttrValue::N(at.as_secs() as f64));
            })?;
            metrics.put_metric(ledger);
        }
        self.snapshot.key = Some(key);
        Ok(CollectOutcome::Fresh(count))
    }

    /// The persisted snapshot as optimizer inputs plus its oldest
    /// `collected_at` stamp, or `None` before the first collection. The KV
    /// rows are scanned and parsed once per collection epoch; the scan is
    /// unbilled and side-effect-free, so this serves exactly what
    /// [`read_snapshot`](Monitor::read_snapshot) would.
    pub(crate) fn snapshot(&mut self, kv: &KvStore) -> Option<(Arc<[RegionAssessment]>, SimTime)> {
        if self.snapshot.rows.is_none() {
            self.snapshot.rows = self.read_snapshot(kv).ok().map(|(rows, at)| (rows.into(), at));
        }
        self.snapshot.rows.clone()
    }

    /// Scans and parses the persisted snapshot: assessments in catalog
    /// order plus the oldest `collected_at` stamp across the rows.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::NoSnapshot`] before the first collection and
    /// [`MonitorError::Kv`] on store failures.
    pub(crate) fn read_snapshot(
        &self,
        kv: &KvStore,
    ) -> Result<(Vec<RegionAssessment>, SimTime), MonitorError> {
        // A monitor that never collected has written no rows.
        let Some(PersistedRows { prefix, .. }) = &self.persisted else {
            return Err(MonitorError::NoSnapshot);
        };
        let rows = kv.scan_prefix(METRICS_TABLE, prefix)?;
        if rows.is_empty() {
            return Err(MonitorError::NoSnapshot);
        }
        let mut collected_at = SimTime::ZERO;
        let mut first = true;
        let mut out = Vec::with_capacity(rows.len());
        for (key, item) in rows {
            let region: Region = key[prefix.len()..]
                .parse()
                .expect("monitor wrote a valid region name");
            let get = |name: &str| {
                item.get(name)
                    .and_then(AttrValue::as_number)
                    .expect("monitor wrote numeric attributes")
            };
            let row_at = SimTime::from_secs(get("collected_at") as u64);
            if first || row_at < collected_at {
                collected_at = row_at;
                first = false;
            }
            out.push(RegionAssessment {
                region,
                placement: PlacementScore::new(get("placement_score") as u8)
                    .expect("persisted placement score is in range"),
                stability: StabilityScore::new(get("stability_score") as u8)
                    .expect("persisted stability score is in range"),
                spot_price: UsdPerHour::new(get("spot_price")),
                on_demand_price: UsdPerHour::new(get("on_demand_price")),
            });
        }
        // Present in catalog order, matching fresh_assessments.
        out.sort_by_key(|a| Region::ALL.iter().position(|r| *r == a.region));
        Ok((out, collected_at))
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
/// report their pinned, capped scores. The one market read behind both a
/// collection and [`Monitor::fresh_assessments`].
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
    use cloud_market::MarketConfig;

    /// Ledger charges of one fresh collection over the 12 regions: the
    /// collector invocation, then a KV row and a metric datapoint each.
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

    fn collect(f: &mut Fixture, overlay: Option<&MarketOverlay>, at: SimTime) -> CollectOutcome {
        f.monitor
            .collect(&f.market, overlay, at, &mut f.functions, &mut f.kv, &f.metrics, &mut f.ledger)
            .unwrap()
    }

    fn persisted(f: &Fixture) -> Vec<RegionAssessment> {
        f.monitor.read_snapshot(&f.kv).unwrap().0
    }

    #[test]
    fn collect_persists_all_regions() {
        let mut f = fixture();
        assert_eq!(collect(&mut f, None, SimTime::from_hours(1)), CollectOutcome::Fresh(12));
        assert_eq!(f.ledger.len(), FRESH_CHARGES);
        assert!(f.ledger.total().amount() > 0.0);
        assert_eq!(persisted(&f).len(), 12);
    }

    #[test]
    fn snapshot_matches_market_at_collection_instant() {
        let mut f = fixture();
        let at = SimTime::from_days(2);
        collect(&mut f, None, at);
        let (persisted, collected_at) = f.monitor.read_snapshot(&f.kv).unwrap();
        assert_eq!(collected_at, at);
        let fresh = f.monitor.fresh_assessments(&f.market, None, at).unwrap();
        for (p, fr) in persisted.iter().zip(fresh.iter()) {
            assert_eq!(p.region, fr.region);
            assert_eq!(p.placement, fr.placement);
            assert_eq!(p.stability, fr.stability);
            assert!((p.spot_price.rate() - fr.spot_price.rate()).abs() < 1e-12);
        }
    }

    #[test]
    fn rows_hold_exactly_the_collected_attributes() {
        let mut f = fixture();
        // The second collection rewrites the first one's rows in place.
        for at in [SimTime::from_days(2), SimTime::from_days(2) + MARKET_EPOCH] {
            assert_eq!(collect(&mut f, None, at), CollectOutcome::Fresh(12));
            let fresh = f.monitor.fresh_assessments(&f.market, None, at).unwrap();
            let prefix = format!("{}/", InstanceType::M5Xlarge);
            let rows = f.kv.scan_prefix(METRICS_TABLE, &prefix).unwrap();
            assert_eq!(rows.len(), fresh.len());
            for a in &fresh {
                let key = format!("{prefix}{}", a.region);
                let (_, row) = rows.iter().find(|(k, _)| *k == key).expect("a row per region");
                let want = aws_stack::Item::from([
                    ("spot_price", AttrValue::N(a.spot_price.rate())),
                    ("on_demand_price", AttrValue::N(a.on_demand_price.rate())),
                    ("placement_score", AttrValue::N(f64::from(a.placement.value()))),
                    ("stability_score", AttrValue::N(f64::from(a.stability.value()))),
                    ("collected_at", AttrValue::N(at.as_secs() as f64)),
                ]);
                assert_eq!(*row, &want, "row {key} at {at:?}");
            }
        }
    }

    #[test]
    fn snapshot_is_stale_until_next_collection() {
        let mut f = fixture();
        collect(&mut f, None, SimTime::from_days(1));
        let snapshot = persisted(&f);
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
        assert!(!MonitorError::NoSnapshot.is_retryable());
    }

    #[test]
    fn no_snapshot_error_before_first_collection() {
        let mut f = fixture();
        assert!(matches!(f.monitor.read_snapshot(&f.kv), Err(MonitorError::NoSnapshot)));
        assert_eq!(f.monitor.snapshot(&f.kv), None);
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
        let snapshot = persisted(&f);
        let fresh = f.monitor.fresh_assessments(&f.market, None, next_hour).unwrap();
        for (p, fr) in snapshot.iter().zip(fresh.iter()) {
            assert_eq!(p.placement, fr.placement);
            assert!((p.spot_price.rate() - fr.spot_price.rate()).abs() < 1e-12);
        }
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
        let pinned = persisted(&f)
            .into_iter()
            .find(|a| a.region == Region::UsEast1)
            .unwrap();
        assert_eq!(pinned.placement, cloud_market::PlacementScore::MIN);
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
    }
}
