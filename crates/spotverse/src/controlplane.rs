//! The workload-agnostic control plane.
//!
//! Everything the Controller shares across workloads lives here: the
//! simulated cloud services (EC2, object store, shared filesystem, KV,
//! functions, metrics), the Monitor collection pipeline with its
//! [`SnapshotMemo`], the [`RegionHealth`] circuit breakers and telemetry
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
use cloud_compute::{Ec2, Ec2Config};
use cloud_market::{InstanceType, Region, SpotMarket};
use sim_kernel::{SimDuration, SimRng, SimTime};

use crate::experiment::{CheckpointBackend, CheckpointTelemetry, INTERRUPTION_HANDLER, LOG_BUCKET};
use crate::health::{
    BreakerTransition, HealthConfig, RegionHealth, ResilienceTelemetry, TelemetryFreshness,
};
use crate::monitor::{CollectOutcome, Monitor, MonitorError, SnapshotMemo};
use crate::optimizer::RegionAssessment;
use crate::trace::{TraceConfig, TraceEvent, Tracer};

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
    pub(crate) monitor_memo: SnapshotMemo,
    pub(crate) monitor_pipeline: bool,
    pub(crate) telemetry_ttl: SimDuration,
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
    /// Serve decisions from one parsed snapshot per collection epoch
    /// instead of re-scanning and re-parsing the KV rows per decision.
    /// The underlying scan is unbilled and side-effect-free, so the two
    /// modes are observationally identical; `false` is the reference
    /// path of `loadgen_determinism::snapshot_reuse_is_observationally_identical`,
    /// its only reason to exist.
    pub(crate) snapshot_reuse: bool,
    /// The parsed snapshot for the current collection epoch: assessments
    /// in catalog order plus the oldest `collected_at` stamp. Cleared by
    /// every collection attempt that could have touched the rows. Shared
    /// by `Arc` so serving a decision is a refcount bump, not a per-
    /// decision `Vec` clone.
    pub(crate) snapshot_cache: Option<(Arc<[RegionAssessment]>, SimTime)>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("monitor_pipeline", &self.monitor_pipeline)
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        market: Arc<SpotMarket>,
        instance_type: InstanceType,
        seed: u64,
        monitor_pipeline: bool,
        checkpoint_backend: CheckpointBackend,
        health: &HealthConfig,
        trace: &TraceConfig,
        chaos: Option<ChaosEngine>,
        root_rng: &SimRng,
    ) -> Self {
        let mut ec2 = Ec2::new(Arc::clone(&market), Ec2Config::default(), root_rng.fork("ec2"));
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
            metrics: MetricsService::new(Region::UsEast1),
            monitor: Monitor::new(instance_type, Region::UsEast1),
            monitor_memo: SnapshotMemo::new(),
            monitor_pipeline,
            telemetry_ttl: health.telemetry_ttl,
            checkpoint_backend,
            chaos,
            telemetry: CheckpointTelemetry::default(),
            backoff_rng: root_rng.fork("backoff"),
            monitor_backoff: 0,
            health: RegionHealth::new(health.breaker.clone(), seed),
            freshness: TelemetryFreshness::default(),
            quarantined_decisions: 0,
            collect_failing: false,
            degraded_since: None,
            tracer: Tracer::new(trace),
            snapshot_reuse: true,
            snapshot_cache: None,
        };

        // Hand each managed service its own seeded fault stream.
        if let Some(engine) = &cp.chaos {
            cp.kv.set_fault_injector(engine.service_injector("kv"));
            cp.s3.set_fault_injector(engine.service_injector("s3"));
            cp.functions.set_fault_injector(engine.service_injector("fn"));
        }

        // Provision the serverless stack.
        cp.monitor.provision(&mut cp.functions, &mut cp.kv);
        cp.functions
            .register(INTERRUPTION_HANDLER, Region::UsEast1, FunctionConfig::default());
        cp.s3
            .create_bucket(LOG_BUCKET, Region::UsEast1)
            .expect("fresh object store");
        cp.kv
            .create_table("spotverse-checkpoints", Region::UsEast1)
            .expect("fresh kv store");
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
    /// With the pipeline enabled, the Monitor's latest persisted snapshot
    /// is served as long as it is within the telemetry TTL; while
    /// collection is failing, each such serve is a counted *stale serve*
    /// of last-good data. Past the TTL the snapshot is still returned but
    /// flagged degraded: the caller places cheapest-on-demand instead of
    /// trusting expired metrics. Without the pipeline (or before the
    /// first snapshot) decisions read the market directly — either way
    /// they observe it *through* any active fault overlay.
    pub(crate) fn decision_inputs(&mut self, now: SimTime) -> (Arc<[RegionAssessment]>, bool) {
        if self.monitor_pipeline {
            let ttl = self.telemetry_ttl;
            if self.snapshot_reuse {
                // Batched assessment: every decision sharing a snapshot
                // epoch reuses one parsed read. The rows only change when
                // a collection runs, which clears the cache, so this
                // serves the exact values the per-decision scan would.
                if self.snapshot_cache.is_none() {
                    self.snapshot_cache = self
                        .monitor
                        .read_snapshot(&self.kv)
                        .ok()
                        .map(|(rows, at)| (rows.into(), at));
                }
                if let Some((rows, collected_at)) = &self.snapshot_cache {
                    let snapshot = Arc::clone(rows);
                    let age = now.saturating_duration_since(*collected_at);
                    if age <= ttl {
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
                    return (snapshot, true);
                }
                // No snapshot yet: fall through to the fresh market read,
                // exactly like the uncached NoSnapshot path.
            } else {
                match self.monitor.assessments_no_older_than(&self.kv, now, ttl) {
                    Ok((snapshot, age)) => {
                        if self.collect_failing {
                            self.freshness.stale_serves += 1;
                            self.freshness.max_staleness = self.freshness.max_staleness.max(age);
                            self.tracer.record(now, TraceEvent::StaleServe { age });
                        }
                        return (snapshot.into(), false);
                    }
                    Err(MonitorError::Stale { .. }) => {
                        if let Ok((snapshot, age)) =
                            self.monitor.latest_assessments_with_age(&self.kv, now)
                        {
                            self.freshness.degraded_decisions += 1;
                            self.freshness.max_staleness = self.freshness.max_staleness.max(age);
                            if self.degraded_since.is_none() {
                                self.degraded_since = Some(now);
                            }
                            self.tracer.record(now, TraceEvent::DegradedDecision { age });
                            return (snapshot.into(), true);
                        }
                    }
                    Err(_) => {}
                }
            }
        }
        let overlay = self.chaos.as_ref().map(|c| c.overlay());
        let snapshot = self
            .monitor
            .fresh_assessments_with_overlay(&self.market, overlay, now)
            .expect("market assessments within horizon");
        (snapshot.into(), false)
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

    /// One monitor collection cycle, observed through the fault overlay.
    /// Memoized per market epoch: a tick inside the hour of the last
    /// successful collection (with an unchanged overlay window set) skips
    /// the redundant market reads and KV writes.
    pub(crate) fn run_monitor_collection(
        &mut self,
        now: SimTime,
    ) -> Result<CollectOutcome, MonitorError> {
        let overlay = self.chaos.as_ref().map(|c| c.overlay());
        let result = self.monitor.collect_memoized(
            &self.market,
            overlay,
            now,
            &mut self.monitor_memo,
            &mut self.functions,
            &mut self.kv,
            &mut self.metrics,
            self.ec2.ledger_mut(),
        );
        // Any attempt that was not an epoch-memo hit may have rewritten
        // snapshot rows — including a *failed* cycle that persisted some
        // rows before the fault — so the parsed-snapshot cache must be
        // rebuilt on the next decision.
        if !matches!(result, Ok(CollectOutcome::Reused)) {
            self.snapshot_cache = None;
        }
        result
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

/// The degraded-mode placement: the cheapest on-demand region by price,
/// ties broken by region name. On-demand prices are static catalog data,
/// so they stay trustworthy even when every dynamic metric has expired.
pub(crate) fn cheapest_on_demand(assessments: &[RegionAssessment]) -> Region {
    assessments
        .iter()
        .min_by(|a, b| {
            a.on_demand_price
                .rate()
                .total_cmp(&b.on_demand_price.rate())
                .then_with(|| a.region.name().cmp(b.region.name()))
        })
        .expect("assessments cover at least one region")
        .region
}
