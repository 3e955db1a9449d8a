//! The fleet event loop: N concurrent workloads multiplexed over one
//! shared control plane.
//!
//! This is the engine behind both entry points:
//!
//! * [`run_experiment`](crate::experiment::run_experiment) runs the
//!   degenerate fleet — every workload arrives at the start, no capacity
//!   caps — and is **provably pure** against the pre-decomposition
//!   controller: a fleet of N=1 (or N arriving together) reproduces the
//!   single-workload `ExperimentReport` and golden traces byte-for-byte.
//! * [`run_fleet`] exposes the general form: staggered arrival times,
//!   per-workload deadlines, and per-region concurrent-instance capacity
//!   caps enforced through the Optimizer's exclusion-slice paths (a full
//!   region refills from the next-ranked candidate exactly like a
//!   quarantined one).
//!
//! Capacity semantics: a cap of `k` bounds the *running* instances per
//! region (spot and on-demand alike; open spot requests reserve nothing).
//! At decision time, full regions join the health-quarantine exclusion
//! slice, so placements refill from the next-ranked region. At launch
//! time a placement aimed at a region that filled since the decision is
//! deferred to the retry sweep, which re-asks the strategy.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use aws_stack::{ObjectBody, RetryPolicy};
use bio_workloads::WorkloadSpec;
use chaos::ChaosEngine;
use cloud_compute::{InstanceId, LaunchedSpot, ServiceKind, SpotRequestOutcome, TerminationReason};
use cloud_market::{Region, SpotMarket, Usd};
use sim_kernel::{CumulativeCounter, EventQueue, SimDuration, SimRng, SimTime};

use crate::controlplane::{ControlPlane, CHECKPOINT_TABLE};
use crate::experiment::{
    CostBreakdown, ExperimentConfig, ExperimentReport, INTERRUPTION_HANDLER, LOG_BUCKET,
};
use crate::optimizer::{cheapest_on_demand, Placement};
use crate::strategy::{Strategy, StrategyContext};
use crate::trace::{ChaosFaultKind, DecisionKind, TraceEvent, Tracer};
use crate::workload::{RunningInstance, WorkloadPhase, WorkloadReport, WorkloadRuntime};

/// The Monitor's collection period: the metrics collector runs on a
/// 15-minute schedule.
pub(crate) const MONITOR_PERIOD: SimDuration = SimDuration::from_mins(15);
/// Re-collection after a throttled Monitor tick: 30 s doubling to an
/// 8 min cap, retried until a collection succeeds.
pub(crate) const MONITOR_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: u32::MAX,
    initial_backoff: SimDuration::from_secs(30),
    max_delay: SimDuration::from_mins(8),
    jitter: SimDuration::ZERO,
};
// A retried collection lands before the next scheduled one would.
const _: () = assert!(MONITOR_RETRY.max_delay.as_secs() <= MONITOR_PERIOD.as_secs());
/// The open-request retry sweep: the paper's Controller re-tries open
/// spot requests every 15 minutes.
const RETRY_INTERVAL: SimDuration = SimDuration::from_mins(15);

/// A tenant's scheduling tier within an arrival batch.
///
/// Priorities order placement *within* a batch of workloads arriving
/// together: higher tiers are handed to the strategy first, so under
/// round-robin initial placement they claim the top-ranked regions, and
/// under capacity pressure they launch before lower tiers contend for
/// slots. Fleets that never set a priority (every committed golden trace)
/// are all [`Priority::Standard`], for which the ordering is a stable
/// no-op.
// `repr(u64)` gives the enum the alignment of a parsed JSON value, so
// replay decodes a trace's `priority` array into the parsed array's own
// buffer instead of allocating a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u64)]
pub enum Priority {
    /// Best-effort batch analysis: placed last within its batch.
    Batch,
    /// The default tier.
    #[default]
    Standard,
    /// Latency-sensitive interactive work: placed first within its batch.
    Interactive,
}

labels!(Priority, "priority", {
    Batch => "batch",
    Standard => "standard",
    Interactive => "interactive",
});

/// One workload's slot in a fleet: the spec plus its arrival offset.
#[derive(Debug, Clone)]
pub struct FleetWorkload {
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// Arrival offset from the fleet start (ZERO = present at start).
    pub arrival: SimDuration,
    /// Tenant label for multi-tenant generated fleets (`None` = the
    /// single-tenant default; emits nothing in traces).
    pub tenant: Option<String>,
    /// Scheduling tier within this workload's arrival batch.
    pub priority: Priority,
}

impl FleetWorkload {
    /// A single-tenant, default-priority slot — the shape every
    /// non-generated fleet uses.
    pub fn new(spec: WorkloadSpec, arrival: SimDuration) -> Self {
        FleetWorkload { spec, arrival, tenant: None, priority: Priority::Standard }
    }
}

/// Fleet run configuration: the experiment knobs plus staggered arrivals
/// and an optional per-region concurrency cap.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed (market + all decision streams fork from it).
    pub seed: u64,
    /// Market build parameters.
    pub market: cloud_market::MarketConfig,
    /// The instance type every workload runs on.
    pub instance_type: cloud_market::InstanceType,
    /// The fleet, each workload with its arrival offset.
    pub workloads: Vec<FleetWorkload>,
    /// When the fleet starts (offset into the market horizon).
    pub start: SimTime,
    /// Per-workload runtime budget: workload `w`'s deadline is
    /// `start + arrival(w) + max_runtime`.
    pub max_runtime: SimDuration,
    /// Where checkpoint working sets are persisted.
    pub checkpoint_backend: crate::experiment::CheckpointBackend,
    /// Optional fault-injection scenario.
    pub chaos: Option<chaos::ChaosScenario>,
    /// Decision-trace recording.
    pub trace: crate::trace::TraceConfig,
    /// Per-region cap on *concurrently running* instances (`None` =
    /// unbounded, the classic experiment behavior).
    pub region_capacity: Option<u32>,
}

impl FleetConfig {
    /// A standard fleet configuration with the same defaults as
    /// [`ExperimentConfig::new`].
    pub fn new(
        seed: u64,
        instance_type: cloud_market::InstanceType,
        workloads: Vec<FleetWorkload>,
    ) -> Self {
        FleetConfig {
            seed,
            market: cloud_market::MarketConfig::with_seed(seed),
            instance_type,
            workloads,
            start: SimTime::from_days(1),
            max_runtime: SimDuration::from_days(30),
            checkpoint_backend: crate::experiment::CheckpointBackend::ObjectStore,
            chaos: None,
            trace: crate::trace::TraceConfig::default(),
            region_capacity: None,
        }
    }

    /// The degenerate fleet equivalent of a classic experiment: every
    /// workload arrives at the start, no capacity cap. Running this
    /// through [`run_fleet_on`] reproduces
    /// [`run_experiment_on`](crate::experiment::run_experiment_on)
    /// byte-for-byte.
    pub fn from_experiment(config: &ExperimentConfig) -> Self {
        FleetConfig {
            seed: config.seed,
            market: config.market,
            instance_type: config.instance_type,
            workloads: config
                .workloads
                .iter()
                .map(|spec| FleetWorkload::new(spec.clone(), SimDuration::ZERO))
                .collect(),
            start: config.start,
            max_runtime: config.max_runtime,
            checkpoint_backend: config.checkpoint_backend,
            chaos: config.chaos.clone(),
            trace: config.trace,
            region_capacity: None,
        }
    }

    /// Evenly staggered arrivals: workload `i` arrives at `i * spacing`.
    pub fn staggered(
        seed: u64,
        instance_type: cloud_market::InstanceType,
        specs: Vec<WorkloadSpec>,
        spacing: SimDuration,
    ) -> Self {
        let workloads = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| FleetWorkload::new(spec, spacing * i as u64))
            .collect();
        FleetConfig::new(seed, instance_type, workloads)
    }
}

/// The result of a fleet run: the aggregate experiment report plus the
/// per-workload breakdown and fleet-only counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Aggregate metrics over the whole fleet, in the exact shape of a
    /// classic single-run report.
    pub aggregate: ExperimentReport,
    /// One report per workload, in fleet order.
    pub workloads: Vec<WorkloadReport>,
    /// Launches deferred because the placement's region was at its
    /// concurrency cap.
    pub capacity_deferrals: u64,
    /// Workloads that hit their per-workload deadline unfinished.
    pub expired: usize,
    /// Simulator events delivered over the run — the denominator for the
    /// throughput harness's events/sec metric.
    pub events: u64,
}

#[derive(Debug)]
pub(crate) enum Event {
    Start,
    Arrive(usize),
    Launch(usize),
    Retry(usize),
    Notice(usize, InstanceId),
    Reclaim(usize, InstanceId),
    Complete(usize, InstanceId),
    Expire(usize),
    MonitorTick,
    /// Proactive checkpoint cadence for strategies that opt into one via
    /// [`Strategy::checkpoint_interval`]; never scheduled otherwise.
    CheckpointTick(usize, InstanceId),
}

struct FleetModel {
    config: FleetConfig,
    cp: ControlPlane,
    queue: EventQueue<Event>,
    strategy: Box<dyn Strategy>,
    strategy_rng: SimRng,
    workloads: Vec<WorkloadRuntime>,
    /// Workload indices in arrival order: ascending arrival time, and
    /// within one instant higher priority tiers first, then index order.
    arrival_order: Vec<usize>,
    /// Arrival batches, ascending: (absolute time, the batch's range in
    /// `arrival_order`).
    batches: Vec<(SimTime, Range<usize>)>,
    completed: usize,
    expired: usize,
    interruptions: CumulativeCounter,
    /// Interruptions per region, indexed like `running_by_region`; the
    /// report's sparse `BTreeMap` is assembled once at the end of the run.
    interruptions_by_region: [u64; Region::ALL.len()],
    completions: CumulativeCounter,
    /// Launches per region, indexed like `running_by_region`.
    launches_by_region: [u64; Region::ALL.len()],
    /// Concurrently running instances per region, indexed by the region's
    /// position in [`Region::ALL`]. A flat array keeps the per-decision
    /// capacity checks allocation- and tree-walk-free at fleet scale.
    running_by_region: [u32; Region::ALL.len()],
    /// Pooled batch-placement buffer, reused across arrival batches so a
    /// Poisson fleet (mostly batches of one) places without allocating.
    placements_scratch: Vec<Placement>,
    /// The strategy's requested proactive checkpoint cadence, re-judged
    /// at every placement decision. `None` for every classic strategy —
    /// no tick is ever scheduled and existing streams are untouched.
    checkpoint_cadence: Option<SimDuration>,
    capacity_deferrals: u64,
    /// Global abort horizon: the latest per-workload deadline, capped at
    /// the market horizon.
    horizon: SimTime,
    /// Whether the market horizon comes before the last deadline, so the
    /// run stops where the price history ends and every workload still
    /// unsettled there expires.
    expire_at_horizon: bool,
    aborted: bool,
}

impl std::fmt::Debug for FleetModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetModel")
            .field("strategy", &self.strategy.name())
            .field("completed", &self.completed)
            .field("interruptions", &self.interruptions.count())
            .finish_non_exhaustive()
    }
}

impl FleetModel {
    fn done(&self) -> bool {
        self.completed + self.expired == self.workloads.len() || self.aborted
    }

    /// Whether `region` is at its concurrent-instance cap.
    fn at_capacity(&self, region: Region) -> bool {
        match self.config.region_capacity {
            Some(cap) => self.running_by_region[region as usize] >= cap,
            None => false,
        }
    }

    /// Re-places workload `w` away from `previous`, after an interruption
    /// or a retry whose target went bad: one Controller decision for one
    /// placement, through the pooled placement buffer.
    fn relocate(&mut self, w: usize, now: SimTime, previous: Region) -> Placement {
        let mut placements = std::mem::take(&mut self.placements_scratch);
        self.decide(now, 1, Some((w, previous)), &mut placements);
        let placement = placements[0];
        self.placements_scratch = placements;
        placement
    }

    /// The Controller's one placement decision, for an arrival batch of
    /// `n` or, when `migrating` is `Some((w, previous))`, for workload `w`
    /// moving out of `previous` (`n` is 1). Leaves the placements in
    /// `out`. Expired telemetry degrades it to the cheapest on-demand
    /// region without asking the strategy (or drawing from its RNG); only
    /// chaos gets there, so fault-free streams are untouched. On a traced
    /// run the strategy fills the decision's candidate audit from the very
    /// selection it places from.
    fn decide(
        &mut self,
        now: SimTime,
        n: usize,
        migrating: Option<(usize, Region)>,
        out: &mut Vec<Placement>,
    ) {
        out.clear();
        let previous = migrating.map(|(_, region)| region);
        let (assessments, degraded) = self.cp.decision_inputs(now);
        let mut quarantined = Vec::new();
        let mut audit = Vec::new();
        if degraded {
            out.extend(std::iter::repeat_n(
                Placement::OnDemand(cheapest_on_demand(assessments.iter())),
                n,
            ));
        } else {
            quarantined = self.cp.health.quarantined(now);
            if !quarantined.is_empty() {
                self.cp.quarantined_decisions += 1;
            }
            // Full regions join the list in `Region::ALL` order. Without a
            // cap none is full, so classic streams are untouched.
            for region in Region::ALL {
                if self.at_capacity(region) && !quarantined.contains(&region) {
                    quarantined.push(region);
                }
            }
            let mut ctx = StrategyContext {
                instance_type: self.config.instance_type,
                now,
                assessments: &assessments,
                quarantined: &quarantined,
                rng: &mut self.strategy_rng,
                audit: self.cp.tracer.enabled().then_some(&mut audit),
            };
            match previous {
                Some(previous) => out.push(self.strategy.relocate(&mut ctx, previous)),
                None => self.strategy.initial_placements_into(&mut ctx, n, out),
            }
            self.checkpoint_cadence = self.strategy.checkpoint_interval(&ctx);
        }
        debug_assert_eq!(out.len(), n);
        if self.cp.tracer.enabled() {
            // A placement that did not come from a scored selection (a
            // baseline, a pin, the degraded fallback) left the audit empty.
            let candidates = (!audit.is_empty()).then_some(audit);
            self.cp.tracer.record(
                now,
                TraceEvent::Decision {
                    kind: match migrating {
                        Some(_) => DecisionKind::Migration,
                        None => DecisionKind::Initial,
                    },
                    workload: migrating.map(|(w, _)| w),
                    previous,
                    degraded,
                    quarantined,
                    candidates,
                    placements: out.clone(),
                },
            );
        }
    }

    fn handle_start(&mut self, now: SimTime) {
        // Prime the Monitor so the first decision has a snapshot. Under a
        // throttle storm the collection may fail; decisions then fall back
        // to fresh market reads until a tick succeeds.
        match self.cp.run_monitor_collection(now) {
            Ok(_) => self.cp.note_collection_success(now),
            Err(e) => {
                self.cp.telemetry.throttled_retries += 1;
                self.cp.note_collection_failure();
                self.cp
                    .tracer
                    .record(now, TraceEvent::CollectionFailed { retryable: e.is_retryable() });
            }
        }
        self.queue.schedule_in(now, MONITOR_PERIOD, Event::MonitorTick);

        // Place the batch present at the start (all of it, for a classic
        // experiment), then schedule the later arrival batches and any
        // heterogeneous per-workload deadlines. A degenerate fleet has a
        // single batch and every deadline equal to the horizon, so neither
        // loop schedules anything.
        let mut first_arrival = 0;
        if self.batches.first().is_some_and(|(at, _)| *at == now) {
            first_arrival = 1;
            self.place_arrivals(0, now);
        }
        for b in first_arrival..self.batches.len() {
            self.queue.schedule(self.batches[b].0, Event::Arrive(b));
        }
        for w in 0..self.workloads.len() {
            if self.workloads[w].deadline < self.horizon {
                self.queue.schedule(self.workloads[w].deadline, Event::Expire(w));
            }
        }
    }

    fn handle_arrive(&mut self, b: usize, now: SimTime) {
        // Only materialize the trace payload when the recorder is on.
        if self.cp.tracer.enabled() {
            let ids = &self.arrival_order[self.batches[b].1.clone()];
            let workloads = &self.config.workloads;
            let tenants = if ids.iter().any(|&w| workloads[w].tenant.is_some()) {
                ids.iter()
                    .map(|&w| workloads[w].tenant.clone().unwrap_or_default())
                    .collect()
            } else {
                Vec::new()
            };
            let priorities = if ids.iter().any(|&w| workloads[w].priority != Priority::Standard)
            {
                ids.iter().map(|&w| workloads[w].priority).collect()
            } else {
                Vec::new()
            };
            self.cp.tracer.record(
                now,
                TraceEvent::WorkloadsArrived { batch: ids.to_vec(), tenants, priorities },
            );
        }
        self.place_arrivals(b, now);
    }

    /// Places arrival batch `b`: one strategy decision covering every
    /// workload in the batch, then a launch event per workload. The order
    /// vector and the pooled placement buffer are lent out for the call,
    /// so placing a batch copies no indices and, under Poisson arrivals
    /// (mostly batches of one), allocates no placements.
    fn place_arrivals(&mut self, b: usize, now: SimTime) {
        let order = std::mem::take(&mut self.arrival_order);
        let ids = &order[self.batches[b].1.clone()];
        let mut placements = std::mem::take(&mut self.placements_scratch);
        self.decide(now, ids.len(), None, &mut placements);
        for (&w, &placement) in ids.iter().zip(&placements) {
            self.workloads[w].placement = placement;
            self.workloads[w].phase = WorkloadPhase::Requesting;
            self.queue.schedule_in(now, SimDuration::ZERO, Event::Launch(w));
        }
        self.placements_scratch = placements;
        self.arrival_order = order;
    }

    fn handle_launch(&mut self, w: usize, now: SimTime) {
        if self.workloads[w].settled() || self.workloads[w].running.is_some() {
            return;
        }
        let itype = self.config.instance_type;
        let placement = self.workloads[w].placement;
        // A region that filled up between the decision and this launch
        // defers to the retry sweep, which re-asks the strategy with the
        // full region excluded. Unreachable without a capacity cap.
        if self.at_capacity(placement.region()) {
            self.capacity_deferrals += 1;
            self.cp.tracer.record(
                now,
                TraceEvent::CapacityDeferred { workload: w, region: placement.region() },
            );
            self.queue.schedule_in(now, RETRY_INTERVAL, Event::Retry(w));
            return;
        }
        match placement {
            Placement::Spot(region) => match self.cp.ec2.request_spot(region, itype, now) {
                Ok(SpotRequestOutcome::Fulfilled(launch)) => {
                    // Heals breaker strikes / closes a half-open probe; a
                    // structural no-op when the region has no breaker
                    // entry, i.e. on every fault-free run.
                    let transition = self.cp.health.record_fulfillment(region, now);
                    self.cp.trace_breaker(now, transition);
                    self.start_instance(w, placement, launch, now);
                }
                Ok(SpotRequestOutcome::OpenNoCapacity) => {
                    // Natural no-capacity and blackout-blocked requests are
                    // indistinguishable at the API; only chaos-attributed
                    // rejections strike the breaker, so fault-free runs
                    // never grow a ledger entry.
                    let blackout = self
                        .cp
                        .chaos
                        .as_ref()
                        .is_some_and(|c| c.is_blackout(region, now));
                    if blackout {
                        self.cp.tracer.record(
                            now,
                            TraceEvent::ChaosFault {
                                kind: ChaosFaultKind::SpotBlackout,
                                region: Some(region),
                            },
                        );
                        let transition = self.cp.health.record_rejection(region, now);
                        self.cp.trace_breaker(now, transition);
                    }
                    self.cp
                        .tracer
                        .record(now, TraceEvent::RequestOpen { workload: w, region, blackout });
                    // The Controller's periodic sweep picks it back up.
                    self.queue.schedule_in(now, RETRY_INTERVAL, Event::Retry(w));
                }
                // A failed request (e.g. a region knocked out from under
                // an in-flight placement) also lands on the retry sweep
                // instead of killing the run.
                Err(_) => {
                    if self.cp.chaos.is_some() {
                        let transition = self.cp.health.record_rejection(region, now);
                        self.cp.trace_breaker(now, transition);
                    }
                    self.cp
                        .tracer
                        .record(now, TraceEvent::RequestFailed { workload: w, region });
                    self.queue.schedule_in(now, RETRY_INTERVAL, Event::Retry(w));
                }
            },
            Placement::OnDemand(region) => {
                let launch = self
                    .cp
                    .ec2
                    .launch_on_demand(region, itype, now)
                    .expect("on-demand launch always succeeds in offered regions");
                self.start_instance(w, placement, launch, now);
            }
        }
    }

    /// Starts workload `w` on the instance just launched for `placement`:
    /// counts and records the launch, begins execution, arms the first
    /// proactive checkpoint tick and occupies the region's capacity slot.
    fn start_instance(
        &mut self,
        w: usize,
        placement: Placement,
        launch: LaunchedSpot,
        now: SimTime,
    ) {
        let region = placement.region();
        self.launches_by_region[region as usize] += 1;
        self.cp.tracer.record(
            now,
            TraceEvent::Launched {
                workload: w,
                region,
                spot: placement.is_spot(),
                instance: launch.instance,
            },
        );
        let FleetModel { workloads, cp, queue, .. } = self;
        workloads[w].begin_execution(
            w,
            region,
            launch.instance,
            launch.ready_at,
            launch.interruption_at,
            now,
            queue,
            cp,
        );
        // Only when the strategy asked for a cadence (never, for the
        // classic strategies), and only on spot: on-demand instances are
        // never reclaimed, so a proactive checkpoint buys them nothing.
        if let Some(interval) = self.checkpoint_cadence.filter(|_| placement.is_spot()) {
            if self.workloads[w].spec.kind.is_checkpointable() {
                self.queue.schedule(now + interval, Event::CheckpointTick(w, launch.instance));
            }
        }
        self.running_by_region[region as usize] += 1;
    }

    /// Terminates workload `w`'s instance `running` for `reason`, adds the
    /// bill to the workload and frees the region's capacity slot. Returns
    /// the bill.
    fn stop_instance(
        &mut self,
        w: usize,
        running: &RunningInstance,
        reason: TerminationReason,
        now: SimTime,
    ) -> Usd {
        let billed = self
            .cp
            .ec2
            .terminate(running.instance, now, reason)
            .expect("a workload's running instance is running");
        self.workloads[w].billed += billed;
        let count = &mut self.running_by_region[running.region as usize];
        *count = count.saturating_sub(1);
        billed
    }

    /// A proactive checkpoint tick fired: save if the instance is still
    /// the one the tick was armed for, then re-arm the cadence.
    fn handle_checkpoint_tick(&mut self, w: usize, instance: InstanceId, now: SimTime) {
        let Some(interval) = self.checkpoint_cadence else {
            return;
        };
        let Some(running) = &self.workloads[w].running else {
            return;
        };
        if running.instance != instance || !self.workloads[w].spec.kind.is_checkpointable() {
            return;
        }
        let FleetModel { workloads, cp, .. } = self;
        workloads[w].proactive_checkpoint(w, now, cp);
        self.queue.schedule(now + interval, Event::CheckpointTick(w, instance));
    }

    /// The retry sweep. If the pending placement's region has since been
    /// blacked out, quarantined by its breaker, or filled to its
    /// concurrency cap, re-ask the strategy for a target before
    /// requesting again — otherwise a migration aimed at a now-dead
    /// region would spin on it until the fault lifts.
    fn handle_retry(&mut self, w: usize, now: SimTime) {
        if self.workloads[w].settled() || self.workloads[w].running.is_some() {
            return;
        }
        let needs_replacement = match self.workloads[w].placement {
            Placement::Spot(region) => {
                let blacked_out = self
                    .cp
                    .chaos
                    .as_ref()
                    .is_some_and(|c| c.is_blackout(region, now));
                blacked_out
                    || self.cp.health.is_quarantined(region, now)
                    || self.at_capacity(region)
            }
            // Only the concurrency cap can block an on-demand launch.
            Placement::OnDemand(region) => self.at_capacity(region),
        };
        if needs_replacement {
            let region = self.workloads[w].placement.region();
            let placement = self.relocate(w, now, region);
            self.workloads[w].placement = placement;
        }
        self.handle_launch(w, now);
    }

    fn handle_reclaim(&mut self, w: usize, instance: InstanceId, now: SimTime) {
        let Some(running) = self.workloads[w].running.take_if(|r| r.instance == instance) else {
            return;
        };
        let region = running.region;
        self.workloads[w].phase = WorkloadPhase::Migrating;

        // Account the interruption.
        self.interruptions.increment(now);
        self.interruptions_by_region[region as usize] += 1;
        self.workloads[w].interruptions += 1;
        // Interruptions strike the breaker only while the region is under
        // active chaos stress (blackout or hazard inflation) — natural
        // market interruptions are the paper's normal operating regime,
        // not a health signal, and must not perturb fault-free runs.
        if self.cp.chaos.as_ref().is_some_and(|c| {
            c.is_blackout(region, now) || c.overlay().hazard_multiplier(region, now) != 1.0
        }) {
            self.cp.tracer.record(
                now,
                TraceEvent::ChaosFault {
                    kind: ChaosFaultKind::ChaosInterruption,
                    region: Some(region),
                },
            );
            let transition = self.cp.health.record_interruption(region, now);
            self.cp.trace_breaker(now, transition);
        }

        // Bill the terminated instance. (Billing first lets the trace
        // stamp the interruption with its cost before the checkpoint
        // settlement events; the ledger only sums, so the same-instant
        // order is observationally irrelevant otherwise.)
        let billed = self.stop_instance(w, &running, TerminationReason::Interrupted, now);
        self.cp.tracer.record(
            now,
            TraceEvent::Interrupted { workload: w, region, instance, billed: billed.amount() },
        );

        // Progress bookkeeping: checkpoint workloads resume from the last
        // *durable, valid* generation; standard workloads lose everything.
        if self.workloads[w].spec.kind.is_checkpointable() {
            let FleetModel { workloads, cp, .. } = self;
            workloads[w].settle_checkpoints(w, now, cp);
        } else {
            let elapsed = now.saturating_duration_since(running.ready_at);
            let _ = self.workloads[w].invocation.record_execution(elapsed);
        }
        self.workloads[w].invocation.handle_interruption();

        // Log the interruption. Nothing reads activity logs back, so the
        // line is billed by its length and not stored. Activity logging is
        // best-effort: a throttled put loses the log line, never the run.
        let mut log_len = ByteCount(0);
        let _ = write!(log_len, "{instance} reclaimed in {region} at {now}");
        let log_gib = ObjectBody::bytes_to_gib(log_len.0);
        let ControlPlane { s3, ec2, telemetry, .. } = &mut self.cp;
        if s3.bill_put(LOG_BUCKET, log_gib, region, now, ec2.ledger_mut()).is_err() {
            telemetry.throttled_retries += 1;
        }

        // The interruption handler (EventBridge → Step Functions → Lambda)
        // picks the migration target and issues the new request.
        let handler_done = {
            let ControlPlane { functions, ec2, .. } = &mut self.cp;
            functions
                .invoke(INTERRUPTION_HANDLER, now, RetryPolicy::default(), ec2.ledger_mut(), |_| {
                    Ok(())
                })
                .map(|o| o.finished_at)
                .unwrap_or(now)
        };
        let placement = self.relocate(w, now, region);
        self.workloads[w].placement = placement;
        self.workloads[w].phase = WorkloadPhase::Requesting;
        self.queue.schedule(handler_done.max(now), Event::Launch(w));
    }

    fn handle_complete(&mut self, w: usize, instance: InstanceId, now: SimTime) {
        let Some(running) = self.workloads[w].running.take_if(|r| r.instance == instance) else {
            return;
        };
        let elapsed = now.saturating_duration_since(running.ready_at);
        let progress = self.workloads[w]
            .invocation
            .record_execution(elapsed)
            .expect("completion on a running invocation");
        debug_assert!(progress.finished, "completion event fired early");
        let billed = self.stop_instance(w, &running, TerminationReason::Completed, now);
        self.cp.tracer.record(
            now,
            TraceEvent::Completed {
                workload: w,
                region: running.region,
                instance,
                billed: billed.amount(),
            },
        );
        self.workloads[w].completed_at = Some(now);
        self.workloads[w].phase = WorkloadPhase::Completed;
        self.completed += 1;
        self.completions.increment(now);
        // Mark the checkpoint record completed: billed like the notice
        // window's progress record, and like it never read back.
        if self.workloads[w].spec.kind.is_checkpointable() {
            let ControlPlane { kv, ec2, .. } = &mut self.cp;
            let _ = kv.bill_write(CHECKPOINT_TABLE, now, ec2.ledger_mut());
        }
    }

    /// A workload hit its per-workload deadline, or the market horizon,
    /// unfinished: terminate its instance (if any) and retire it from the
    /// fleet. Only scheduled for workloads whose deadline precedes the
    /// global horizon, and run for every unsettled workload when the run
    /// stops at the market horizon, so classic experiments never see it.
    fn handle_expire(&mut self, w: usize, now: SimTime) {
        if self.workloads[w].settled() {
            return;
        }
        self.workloads[w].expired = true;
        self.workloads[w].phase = WorkloadPhase::Expired;
        self.expired += 1;
        let (region, billed) = self.workloads[w]
            .running
            .take()
            .map(|running| {
                let billed = self.stop_instance(w, &running, TerminationReason::Manual, now);
                (running.region, billed.amount())
            })
            .unzip();
        self.cp.tracer.record(now, TraceEvent::WorkloadExpired { workload: w, region, billed });
    }

    fn handle_monitor_tick(&mut self, now: SimTime) {
        if self.done() {
            return;
        }
        match self.cp.run_monitor_collection(now) {
            Ok(_) => {
                self.cp.note_collection_success(now);
                self.cp.monitor_backoff = 0;
                self.queue.schedule_in(now, MONITOR_PERIOD, Event::MonitorTick);
            }
            Err(e) if e.is_retryable() => {
                // Back off with jitter, bounded by the normal period, and
                // try the collection again — decisions meanwhile run on
                // the last good snapshot.
                self.cp.note_collection_failure();
                self.cp.tracer.record(now, TraceEvent::CollectionFailed { retryable: true });
                self.cp.telemetry.throttled_retries += 1;
                let delay = MONITOR_RETRY
                    .backoff_equal_jitter(self.cp.monitor_backoff + 1, &mut self.cp.backoff_rng);
                self.cp.monitor_backoff = (self.cp.monitor_backoff + 1).min(8);
                self.queue.schedule_in(now, delay, Event::MonitorTick);
            }
            // Non-retryable failures (the market refusing a read) don't
            // kill the run either: decisions keep serving the last good
            // snapshot — degrading past the TTL — and the next scheduled
            // tick tries again.
            Err(_) => {
                self.cp.note_collection_failure();
                self.cp.tracer.record(now, TraceEvent::CollectionFailed { retryable: false });
                self.queue.schedule_in(now, MONITOR_PERIOD, Event::MonitorTick);
            }
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Start => self.handle_start(now),
            Event::Arrive(b) => self.handle_arrive(b, now),
            Event::Launch(w) => self.handle_launch(w, now),
            Event::Retry(w) => self.handle_retry(w, now),
            Event::Notice(w, instance) => {
                let FleetModel { workloads, cp, .. } = self;
                workloads[w].handle_notice(w, instance, now, cp);
            }
            Event::Reclaim(w, instance) => self.handle_reclaim(w, instance, now),
            Event::Complete(w, instance) => self.handle_complete(w, instance, now),
            Event::Expire(w) => self.handle_expire(w, now),
            Event::MonitorTick => self.handle_monitor_tick(now),
            Event::CheckpointTick(w, instance) => self.handle_checkpoint_tick(w, instance, now),
        }
    }
}

/// Counts the bytes formatted into it without keeping them: the length of
/// an activity log line, with no buffer.
struct ByteCount(usize);

impl std::fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Converts a flat per-region counter (indexed by [`Region::ALL`]
/// position) back into the sparse map the report serializes: only
/// regions that were actually touched appear, matching the old
/// `BTreeMap`-with-`entry()` accounting exactly.
fn region_count_map(counts: &[u64; Region::ALL.len()]) -> BTreeMap<Region, u64> {
    Region::ALL
        .iter()
        .zip(counts)
        .filter(|&(_, &n)| n != 0)
        .map(|(&region, &n)| (region, n))
        .collect()
}

/// Orders workload indices by arrival and groups them into batches, one
/// per distinct arrival time, ascending.
///
/// Priority semantics: within one arrival batch, higher tiers are handed
/// to the strategy (and launched) first. The sort is stable, so an
/// all-default fleet keeps exact index order — committed golden traces
/// are untouched. Batches are ranges into the one order vector, so a
/// fleet's batches cost two allocations, not one per arrival instant.
fn arrival_batches(
    workloads: &[WorkloadRuntime],
    fleet: &[FleetWorkload],
) -> (Vec<usize>, Vec<(SimTime, Range<usize>)>) {
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by_key(|&w| (workloads[w].arrival, std::cmp::Reverse(fleet[w].priority)));
    let mut batches: Vec<(SimTime, Range<usize>)> = Vec::new();
    for (i, &w) in order.iter().enumerate() {
        let at = workloads[w].arrival;
        match batches.last_mut() {
            Some((t, ids)) if *t == at => ids.end = i + 1,
            _ => batches.push((at, i..i + 1)),
        }
    }
    (order, batches)
}

/// Runs a fleet, building a fresh market from the config.
pub fn run_fleet(config: FleetConfig, strategy: Box<dyn Strategy>) -> FleetReport {
    let market = Arc::new(SpotMarket::new(config.market));
    run_fleet_on(market, config, strategy)
}

/// Runs a fleet against a shared market, so several strategies (or
/// several fleet shapes) can be compared on the identical market
/// trajectory.
///
/// # Panics
///
/// Panics if the market was built from a different market config than
/// the fleet's, if the fleet is empty, or if `region_capacity` is
/// `Some(0)`.
pub fn run_fleet_on(
    market: Arc<SpotMarket>,
    config: FleetConfig,
    strategy: Box<dyn Strategy>,
) -> FleetReport {
    assert_eq!(
        market.config(),
        config.market,
        "shared market must match the experiment's market config"
    );
    assert!(!config.workloads.is_empty(), "empty workload fleet");
    assert!(
        config.region_capacity != Some(0),
        "region_capacity of 0 can never place anything"
    );

    let root_rng = SimRng::seed_from_u64(config.seed);
    let chaos_engine = config
        .chaos
        .as_ref()
        .map(|scenario| ChaosEngine::new(scenario, config.seed, config.start));
    let cp = ControlPlane::new(
        Arc::clone(&market),
        config.instance_type,
        config.seed,
        config.checkpoint_backend,
        &config.trace,
        chaos_engine,
        &root_rng,
    );

    let start = config.start;
    let workloads: Vec<WorkloadRuntime> = config
        .workloads
        .iter()
        .map(|fw| {
            let arrival = start + fw.arrival;
            WorkloadRuntime::new(&fw.spec, arrival, arrival + config.max_runtime)
        })
        .collect();
    let (arrival_order, batches) = arrival_batches(&workloads, &config.workloads);
    // The run stops at the last deadline, or where the market's price
    // history ends if that comes first.
    let last_deadline = workloads
        .iter()
        .map(|w| w.deadline)
        .max()
        .expect("non-empty fleet");
    let horizon = last_deadline.min(market.horizon());

    let mut model = FleetModel {
        cp,
        queue: EventQueue::new(),
        strategy,
        strategy_rng: root_rng.fork("strategy"),
        workloads,
        arrival_order,
        batches,
        completed: 0,
        expired: 0,
        interruptions: CumulativeCounter::new("interruptions"),
        interruptions_by_region: [0; Region::ALL.len()],
        completions: CumulativeCounter::new("completions"),
        launches_by_region: [0; Region::ALL.len()],
        running_by_region: [0; Region::ALL.len()],
        placements_scratch: Vec::new(),
        checkpoint_cadence: None,
        capacity_deferrals: 0,
        horizon,
        expire_at_horizon: horizon < last_deadline,
        aborted: false,
        config,
    };

    if model.cp.tracer.enabled() {
        let event = TraceEvent::RunStarted {
            strategy: model.strategy.name().to_owned(),
            seed: model.config.seed,
            workloads: model.workloads.len(),
            chaos: model.config.chaos.as_ref().map(|s| s.name().to_owned()),
            regime: (!model.config.market.regime.is_baseline())
                .then(|| model.config.market.regime.name().to_owned()),
        };
        model.cp.tracer.record(start, event);
    }
    // The event that reaches the horizon is counted and stamps the end of
    // the run, but is not handled.
    model.queue.schedule(start, Event::Start);
    let mut final_time = start;
    let mut events = 0;
    while let Some((now, event)) = model.queue.pop() {
        events += 1;
        debug_assert!(now >= final_time, "event queue went backwards");
        final_time = now;
        if now >= model.horizon {
            if model.expire_at_horizon {
                // Expiring at the horizon itself bills each instance up to
                // it, which reads only prices before it.
                for w in 0..model.workloads.len() {
                    model.handle_expire(w, model.horizon);
                }
            }
            model.aborted = true;
            break;
        }
        model.handle(now, event);
        if model.done() {
            break;
        }
    }

    // A run that ends while still degraded closes its interval here.
    if let Some(since) = model.cp.degraded_since.take() {
        let duration = final_time.saturating_duration_since(since);
        model.cp.freshness.degraded_time += duration;
        model.cp.tracer.record(final_time, TraceEvent::DegradedInterval { duration });
    }
    model.cp.tracer.record(
        final_time,
        TraceEvent::RunEnded { completed: model.completed, aborted: model.aborted },
    );
    let trace = std::mem::replace(&mut model.cp.tracer, Tracer::disabled()).finish();
    let resilience = model.cp.resilience();

    // Assemble the aggregate report.
    let completed_times: Vec<SimDuration> = model
        .workloads
        .iter()
        .filter_map(|w| w.completed_at)
        .map(|at| at - start)
        .collect();
    let makespan = completed_times
        .iter()
        .copied()
        .max()
        .unwrap_or(SimDuration::ZERO);
    let mean_completion = if completed_times.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration::from_secs(
            completed_times.iter().map(|d| d.as_secs()).sum::<u64>()
                / completed_times.len() as u64,
        )
    };
    let ledger = model.cp.ec2.ledger();
    let shared = ledger.total_for_service(ServiceKind::FunctionRuntime)
        + ledger.total_for_service(ServiceKind::KvStore)
        + ledger.total_for_service(ServiceKind::Metrics)
        + ledger.total_for_service(ServiceKind::ObjectStorage);
    let cost = CostBreakdown {
        total: ledger.total(),
        spot_instances: ledger.total_for_service(ServiceKind::SpotInstance),
        on_demand_instances: ledger.total_for_service(ServiceKind::OnDemandInstance),
        data_transfer: ledger.total_for_service(ServiceKind::DataTransfer),
        shared_services: shared,
    };
    let instance_hours: f64 = model
        .cp
        .ec2
        .instances()
        .iter()
        .map(|r| match r.state() {
            cloud_compute::InstanceState::Terminated { at, .. } => {
                (at - r.launched_at()).as_hours_f64()
            }
            cloud_compute::InstanceState::Running => {
                final_time.saturating_duration_since(r.launched_at()).as_hours_f64()
            }
        })
        .sum();

    let aggregate = ExperimentReport {
        strategy: model.strategy.name().to_owned(),
        workloads: model.workloads.len(),
        completed: model.completed,
        makespan,
        mean_completion,
        interruptions: model.interruptions.count(),
        interruptions_by_region: region_count_map(&model.interruptions_by_region),
        cumulative_interruptions: model.interruptions.series().clone(),
        completions_over_time: model.completions.series().clone(),
        launches_by_region: region_count_map(&model.launches_by_region),
        cost,
        instance_hours,
        spot_attempts: model.cp.ec2.spot_attempts(),
        spot_fulfillments: model.cp.ec2.spot_fulfillments(),
        checkpoints: model.cp.telemetry,
        resilience,
        trace,
    };
    let workloads = model
        .workloads
        .iter()
        .enumerate()
        .map(|(w, runtime)| runtime.report(w))
        .collect();
    FleetReport {
        aggregate,
        workloads,
        capacity_deferrals: model.capacity_deferrals,
        expired: model.expired,
        events,
    }
}
