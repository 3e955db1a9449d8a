//! The workload-agnostic control plane.
//!
//! Everything the Controller shares across workloads lives here: the
//! simulated cloud services (EC2, object store, shared filesystem, KV,
//! functions, metrics), the [`Monitor`] collection pipeline with its
//! per-epoch snapshot, the [`RegionHealth`] circuit breakers and telemetry
//! freshness tracking, the chaos overlay wiring, the checkpoint store
//! provisioning, and the run's [`Tracer`].
//!
//! The control plane knows nothing about individual workloads — per-
//! workload state (instance, progress, checkpoint log, deadline) belongs
//! to [`WorkloadRuntime`](crate::workload), and the event loop that
//! multiplexes workloads over this shared plane is
//! [`run_fleet`](crate::fleet::run_fleet).

use std::sync::Arc;

use aws_stack::{
    FileSystemId, FunctionConfig, FunctionRuntime, KvStore, MetricsService, ObjectStore,
    SharedFileSystem,
};
use chaos::ChaosEngine;
use cloud_compute::Ec2;
use cloud_market::{InstanceType, Region, SpotMarket};
use sim_kernel::{SimDuration, SimRng, SimTime};

use crate::experiment::{CheckpointBackend, CheckpointTelemetry, INTERRUPTION_HANDLER, LOG_BUCKET};
use crate::fleet::MONITOR_PERIOD;
use crate::health::{BreakerTransition, RegionHealth, ResilienceTelemetry, TelemetryFreshness};
use crate::monitor::{CollectOutcome, Monitor, MonitorError, MARKET_EPOCH};
use crate::optimizer::RegionAssessment;
use crate::trace::{TraceConfig, TraceEvent, Tracer};

/// The KV table the Controller writes shard progress to (the paper's
/// DynamoDB checkpoint table). Nothing reads it back, so its writes are
/// billed and fault-checked through `KvStore::bill_write` and not stored.
pub const CHECKPOINT_TABLE: &str = "spotverse-checkpoints";

/// Snapshot age past which decisions degrade to cheapest-on-demand
/// placement instead of trusting expired metrics.
pub(crate) const TELEMETRY_TTL: SimDuration = SimDuration::from_hours(2);

// A healthy pipeline never degrades: the worst-case age of a good
// snapshot is one market epoch plus one monitor period (~1¼ h).
const _: () = assert!(TELEMETRY_TTL.as_secs() > MARKET_EPOCH.as_secs() + MONITOR_PERIOD.as_secs());

/// The shared control plane: simulated cloud services, the Monitor
/// collection pipeline, region-health breakers, chaos wiring, and the
/// decision tracer. One instance serves every workload in a run.
pub struct ControlPlane {
    pub(crate) market: Arc<SpotMarket>,
    pub(crate) ec2: Ec2,
    pub(crate) s3: ObjectStore,
    pub(crate) efs: SharedFileSystem,
    pub(crate) efs_id: Option<FileSystemId>,
    pub(crate) kv: KvStore,
    pub(crate) functions: FunctionRuntime,
    pub(crate) metrics: MetricsService,
    pub(crate) monitor: Monitor,
    pub(crate) checkpoint_backend: CheckpointBackend,
    pub(crate) chaos: Option<ChaosEngine>,
    pub(crate) telemetry: CheckpointTelemetry,
    pub(crate) backoff_rng: SimRng,
    pub(crate) monitor_backoff: u32,
    pub(crate) health: RegionHealth,
    pub(crate) freshness: TelemetryFreshness,
    pub(crate) quarantined_decisions: u64,
    pub(crate) collect_failing: bool,
    pub(crate) degraded_since: Option<SimTime>,
    pub(crate) tracer: Tracer,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("checkpoint_backend", &self.checkpoint_backend)
            .field("chaos", &self.chaos.is_some())
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    /// Builds the control plane and provisions the serverless stack:
    /// the Monitor's function and snapshot table, the interruption
    /// handler, the log bucket, the checkpoint KV table, and (for the
    /// shared-filesystem backend) an EFS mounted in every region. Each
    /// managed service gets its own seeded fault stream when a chaos
    /// engine is active.
    pub(crate) fn new(
        market: Arc<SpotMarket>,
        instance_type: InstanceType,
        seed: u64,
        checkpoint_backend: CheckpointBackend,
        trace: &TraceConfig,
        chaos: Option<ChaosEngine>,
        root_rng: &SimRng,
    ) -> Self {
        let mut ec2 = Ec2::new(Arc::clone(&market), root_rng.fork("ec2"));
        if let Some(engine) = &chaos {
            ec2.set_fault_injector(engine.compute_injector());
        }
        let mut cp = ControlPlane {
            market,
            ec2,
            s3: ObjectStore::new(),
            efs: SharedFileSystem::new(),
            efs_id: None,
            kv: KvStore::new(),
            functions: FunctionRuntime::new(),
            metrics: MetricsService::new(),
            monitor: Monitor::new(instance_type),
            checkpoint_backend,
            chaos,
            telemetry: CheckpointTelemetry::default(),
            backoff_rng: root_rng.fork("backoff"),
            monitor_backoff: 0,
            health: RegionHealth::new(seed),
            freshness: TelemetryFreshness::default(),
            quarantined_decisions: 0,
            collect_failing: false,
            degraded_since: None,
            tracer: Tracer::new(trace),
        };

        // Hand each managed service its own seeded fault stream.
        if let Some(engine) = &cp.chaos {
            cp.kv.set_fault_injector(engine.service_injector("kv"));
            cp.s3.set_fault_injector(engine.service_injector("s3"));
            cp.functions.set_fault_injector(engine.service_injector("fn"));
        }

        // Provision the serverless stack.
        cp.monitor.provision(&mut cp.functions, &mut cp.kv);
        cp.functions.register(INTERRUPTION_HANDLER, FunctionConfig::default());
        cp.s3
            .create_bucket(LOG_BUCKET, Region::UsEast1)
            .expect("fresh object store");
        cp.kv.create_table(CHECKPOINT_TABLE).expect("fresh kv store");
        if cp.checkpoint_backend == CheckpointBackend::SharedFileSystem {
            let fs = cp.efs.create(Region::UsEast1);
            for region in Region::ALL {
                cp.efs.mount(fs, region).expect("fresh filesystem");
            }
            cp.efs_id = Some(fs);
        }
        cp
    }

    /// Current optimizer inputs plus whether the decision must *degrade*.
    ///
    /// The Monitor's latest persisted snapshot, read from the market
    /// through the chaos overlay at its rows' stamps, is served as long as
    /// it is within [`TELEMETRY_TTL`]; while collection is failing, each such
    /// serve is a counted *stale serve* of last-good data. Past the TTL
    /// the snapshot is still returned but flagged degraded: the caller
    /// places cheapest-on-demand instead of trusting expired metrics.
    /// Before the first snapshot, decisions read the market directly,
    /// observed *through* any active fault overlay.
    pub(crate) fn decision_inputs(&mut self, now: SimTime) -> (Arc<[RegionAssessment]>, bool) {
        let overlay = self.chaos.as_ref().map(|c| c.overlay());
        let Some((snapshot, collected_at)) = self.monitor.snapshot(&self.market, overlay) else {
            let fresh = self
                .monitor
                .fresh_assessments(&self.market, overlay, now)
                .expect("market assessments within horizon");
            return (fresh.into(), false);
        };
        let age = now.saturating_duration_since(collected_at);
        if age <= TELEMETRY_TTL {
            if self.collect_failing {
                self.freshness.stale_serves += 1;
                self.freshness.max_staleness = self.freshness.max_staleness.max(age);
                self.tracer.record(now, TraceEvent::StaleServe { age });
            }
            return (snapshot, false);
        }
        self.freshness.degraded_decisions += 1;
        self.freshness.max_staleness = self.freshness.max_staleness.max(age);
        if self.degraded_since.is_none() {
            self.degraded_since = Some(now);
        }
        self.tracer.record(now, TraceEvent::DegradedDecision { age });
        (snapshot, true)
    }

    /// Marks the collection pipeline healthy again and settles any open
    /// degraded-placement interval.
    pub(crate) fn note_collection_success(&mut self, now: SimTime) {
        self.collect_failing = false;
        if let Some(since) = self.degraded_since.take() {
            let duration = now.saturating_duration_since(since);
            self.freshness.degraded_time += duration;
            self.tracer.record(now, TraceEvent::DegradedInterval { duration });
        }
    }

    /// Marks the collection pipeline failing: subsequent decisions served
    /// from the persisted snapshot count as stale serves.
    pub(crate) fn note_collection_failure(&mut self) {
        self.collect_failing = true;
        self.freshness.collection_failures += 1;
    }

    /// Logs a breaker state change reported by a `record_*` observation.
    pub(crate) fn trace_breaker(&mut self, now: SimTime, transition: Option<BreakerTransition>) {
        if let Some(t) = transition {
            self.tracer
                .record(now, TraceEvent::Breaker { region: t.region, from: t.from, to: t.to });
        }
    }

    /// One monitor collection cycle: the billed, fault-checked collector
    /// invocation and KV writes, whose rows are read through the fault
    /// overlay when a decision asks for them. Memoized per market epoch: a
    /// tick inside the epoch of the last successful collection (with an
    /// unchanged overlay window set) skips the redundant writes.
    pub(crate) fn run_monitor_collection(
        &mut self,
        now: SimTime,
    ) -> Result<CollectOutcome, MonitorError> {
        let overlay = self.chaos.as_ref().map(|c| c.overlay());
        self.monitor.collect(
            &self.market,
            overlay,
            now,
            &mut self.functions,
            &mut self.kv,
            &self.metrics,
            self.ec2.ledger_mut(),
        )
    }

    /// The run's resilience telemetry, assembled from the breakers and
    /// freshness counters at the end of a run.
    pub(crate) fn resilience(&self) -> ResilienceTelemetry {
        ResilienceTelemetry {
            breaker_trips: self.health.trips(),
            half_open_probes: self.health.probes(),
            probe_failures: self.health.probe_failures(),
            quarantined_decisions: self.quarantined_decisions,
            freshness: self.freshness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aws_stack::{ServiceFault, ServiceFaultInjector, ServiceOp};
    use cloud_market::{MarketConfig, MarketOverlay};
    use proptest::prelude::*;

    /// One step of a driven run.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// A monitor tick, followed up as `fleet.rs` does.
        Collect,
        /// An Optimizer decision.
        Decide,
    }

    /// The freshness bookkeeping the plane should have done, recomputed
    /// from scratch by the model.
    #[derive(Debug, Default)]
    struct Model {
        freshness: TelemetryFreshness,
        failing: bool,
        degraded_since: Option<SimTime>,
    }

    /// Which freshness paths a checked run reached.
    #[derive(Debug, Default)]
    struct Reached {
        /// A failed collection left rows with different `collected_at`
        /// stamps behind.
        partial_write: bool,
        stale_serve: bool,
        degraded: bool,
    }

    /// The eager Monitor: every collection assesses every region at its
    /// tick and keeps, per row, the assessment and stamp of its last
    /// landed write. Its KV writes draw from their own copy of the plane's
    /// KV fault stream, and its epoch compares the active overlay windows
    /// themselves rather than a fingerprint of them.
    struct EagerOracle {
        kv_faults: Option<Box<dyn ServiceFaultInjector>>,
        epoch: Option<(u64, Vec<(usize, Region)>)>,
        rows: Vec<Option<(RegionAssessment, SimTime)>>,
    }

    impl EagerOracle {
        /// A collection at `at`; `false` when a write failed.
        fn collect(&mut self, cp: &ControlPlane, at: SimTime) -> bool {
            let overlay = cp.chaos.as_ref().map(|c| c.overlay());
            let regions = cp.market.regions_offering(InstanceType::M5Xlarge);
            let mut active = Vec::new();
            for (wi, w) in overlay.map_or(&[][..], MarketOverlay::windows).iter().enumerate() {
                active.extend(regions.iter().filter(|&&r| w.applies(r, at)).map(|&r| (wi, r)));
            }
            let key = (at.as_secs() / MARKET_EPOCH.as_secs(), active);
            if self.epoch.as_ref() == Some(&key) {
                return true;
            }
            let fresh = cp
                .monitor
                .fresh_assessments(&cp.market, overlay, at)
                .expect("within the market horizon");
            self.rows.resize(fresh.len(), None);
            for (row, assessment) in self.rows.iter_mut().zip(fresh) {
                let fault = self.kv_faults.as_mut().and_then(|f| f.intercept(ServiceOp::KvWrite, at));
                if matches!(fault, Some(ServiceFault::Throttled | ServiceFault::Lost)) {
                    return false;
                }
                *row = Some((assessment, at));
            }
            self.epoch = Some(key);
            true
        }

        /// The written rows in catalog order and their oldest stamp.
        fn snapshot(&self) -> Option<(Vec<RegionAssessment>, SimTime)> {
            let written = self.rows.iter().flatten();
            let oldest = written.clone().map(|&(_, at)| at).min()?;
            Some((written.map(|&(a, _)| a).collect(), oldest))
        }

        /// How many distinct stamps the written rows carry.
        fn distinct_stamps(&self) -> usize {
            let mut stamps: Vec<SimTime> = self.rows.iter().flatten().map(|&(_, at)| at).collect();
            stamps.sort_unstable();
            stamps.dedup();
            stamps.len()
        }
    }

    /// The records traced since the last call.
    fn drain(cp: &mut ControlPlane) -> Vec<(SimTime, TraceEvent)> {
        let tracer = std::mem::replace(&mut cp.tracer, Tracer::new(&TraceConfig::enabled()));
        let trace = tracer.finish().expect("tracing is enabled");
        trace.events.into_iter().map(|r| (r.at, r.event)).collect()
    }

    /// Drives one control plane through `steps` (each `gap` seconds after
    /// the last) under chaos scenario `scenario_idx - 1` of the library (0 =
    /// none). Every collection's outcome and every decision is checked
    /// against the eager oracle, the TTL rule and the overlay fallback. The
    /// freshness counters and the trace are checked after every step.
    fn check_run(
        market: &Arc<SpotMarket>,
        seed: u64,
        scenario_idx: usize,
        steps: &[(Step, u64)],
    ) -> Result<Reached, TestCaseError> {
        let start = SimTime::from_days(1);
        let engine = |i: usize| ChaosEngine::new(&chaos::library()[i], seed, start);
        let scenario = scenario_idx.checked_sub(1);
        let mut cp = ControlPlane::new(
            Arc::clone(market),
            InstanceType::M5Xlarge,
            seed,
            CheckpointBackend::ObjectStore,
            &TraceConfig::enabled(),
            scenario.map(engine),
            &SimRng::seed_from_u64(seed),
        );
        let mut oracle = EagerOracle {
            kv_faults: scenario.map(|i| engine(i).service_injector("kv")),
            epoch: None,
            rows: Vec::new(),
        };
        let mut model = Model::default();
        let mut reached = Reached::default();
        let mut now = start;
        for &(step, gap) in steps {
            now += SimDuration::from_secs(gap);
            let mut expected = Vec::new();
            match step {
                Step::Collect => {
                    let got = cp.run_monitor_collection(now);
                    let want = oracle.collect(&cp, now);
                    prop_assert_eq!(got.is_ok(), want, "collection at {:?}: {:?}", now, got);
                    if want {
                        cp.note_collection_success(now);
                        model.failing = false;
                        if let Some(since) = model.degraded_since.take() {
                            let duration = now.saturating_duration_since(since);
                            model.freshness.degraded_time += duration;
                            expected.push((now, TraceEvent::DegradedInterval { duration }));
                        }
                    } else {
                        cp.note_collection_failure();
                        model.failing = true;
                        model.freshness.collection_failures += 1;
                        reached.partial_write |= oracle.distinct_stamps() > 1;
                    }
                }
                Step::Decide => {
                    let (got, degraded) = cp.decision_inputs(now);
                    let (want, want_degraded) = match oracle.snapshot() {
                        Some((rows, collected_at)) => {
                            let age = now.saturating_duration_since(collected_at);
                            let f = &mut model.freshness;
                            if age <= TELEMETRY_TTL {
                                if model.failing {
                                    f.stale_serves += 1;
                                    f.max_staleness = f.max_staleness.max(age);
                                    expected.push((now, TraceEvent::StaleServe { age }));
                                    reached.stale_serve = true;
                                }
                                (rows, false)
                            } else {
                                f.degraded_decisions += 1;
                                f.max_staleness = f.max_staleness.max(age);
                                model.degraded_since.get_or_insert(now);
                                expected.push((now, TraceEvent::DegradedDecision { age }));
                                reached.degraded = true;
                                (rows, true)
                            }
                        }
                        None => {
                            let overlay = cp.chaos.as_ref().map(|c| c.overlay());
                            let fresh = cp
                                .monitor
                                .fresh_assessments(&cp.market, overlay, now)
                                .expect("within the market horizon");
                            (fresh, false)
                        }
                    };
                    prop_assert_eq!(&got[..], &want[..], "assessments at {:?}", now);
                    prop_assert_eq!(degraded, want_degraded, "degraded flag at {:?}", now);
                }
            }
            prop_assert_eq!(cp.freshness, model.freshness, "after {:?} at {:?}", step, now);
            prop_assert_eq!(cp.collect_failing, model.failing);
            prop_assert_eq!(cp.degraded_since, model.degraded_since);
            prop_assert_eq!(drain(&mut cp), expected, "trace after {:?} at {:?}", step, now);
        }
        Ok(reached)
    }

    /// A gap between steps: inside a quarter hour, inside the hour, across
    /// an hour boundary, or past the TTL.
    fn gap() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..900).prop_map(|(band, secs)| match band {
            0 => secs,
            1 => 900 + 3 * secs,
            2 => 3600 + 4 * secs,
            _ => 7200 + 8 * secs,
        })
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..2).prop_map(|i| if i == 0 { Step::Collect } else { Step::Decide })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stamped rows serve exactly what the eager Monitor would have
        /// stored, with the same collection outcomes, freshness counters
        /// and trace, across failed and partially written collections
        /// under every chaos scenario.
        #[test]
        fn decisions_match_an_eager_oracle(
            seed in 0u64..500,
            steps in prop::collection::vec((step(), gap()), 1..40),
        ) {
            let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(seed)));
            for scenario_idx in 0..=chaos::library().len() {
                check_run(&market, seed, scenario_idx, &steps)?;
            }
        }
    }

    /// The proptest above is not vacuous: one fixed run under
    /// `throttle_storm` reaches a partially written failed collection, a
    /// stale serve and a degraded decision past the TTL, and still matches
    /// the oracle at every step.
    #[test]
    fn throttle_storm_reaches_every_freshness_path() {
        let idx = 1 + chaos::library()
            .iter()
            .position(|s| s.name() == "throttle_storm")
            .expect("throttle_storm is in the library");
        let mut steps = vec![(Step::Collect, 0), (Step::Decide, 300)];
        for _ in 0..12 {
            steps.extend([(Step::Collect, 3600), (Step::Decide, 300)]);
        }
        steps.push((Step::Decide, 3 * 3600));
        let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(7)));
        let reached = check_run(&market, 7, idx, &steps).expect("matches the oracle");
        assert!(reached.partial_write, "{reached:?}");
        assert!(reached.stale_serve, "{reached:?}");
        assert!(reached.degraded, "{reached:?}");
    }
}
