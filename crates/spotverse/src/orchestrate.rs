//! Distributed sweep orchestration on the simulated serverless substrate.
//!
//! [`run_matrix_orchestrated`] re-hosts [`crate::sweep::run_matrix`] as a
//! parent/child shard fan-out over `aws-stack` (ROADMAP item 3, paper §4:
//! the real SpotVerse control plane deploys on Lambda). The parent shards
//! the cell matrix and dispatches each shard as a function invocation over
//! the event bus; shard workers claim a **lease** in the KV store with a
//! conditional write, renew it by heartbeat, execute their cells, and
//! persist the result to the object store under a shard-id key.
//!
//! Robustness semantics (DESIGN.md §14):
//!
//! * **Leases** — a worker owns a shard only while its lease record is
//!   unexpired; claims and renewals are conditional writes, so exactly one
//!   worker wins a key and a fenced straggler can never clobber a
//!   successor's lease.
//! * **Idempotent completion** — results are keyed by shard id and the
//!   cell computation is deterministic, so a duplicate delivery or a
//!   straggler finishing late observes the existing result object and
//!   becomes a byte-identical no-op.
//! * **Re-drive** — a lease that expires (lost worker, straggler) or a
//!   dispatch that is never claimed is re-dispatched with capped
//!   exponential backoff plus deterministic hash jitter
//!   ([`RetryPolicy::backoff_jittered`]).
//! * **Dead-letter** — after [`OrchestratorConfig::max_attempts`] failed
//!   attempts the shard moves to a dead-letter record carrying its full
//!   attempt history; its cells degrade to structured errors instead of
//!   hanging the sweep.
//!
//! All of it runs single-threaded over a [`sim_kernel::EventQueue`], so a
//! given matrix + config is bit-reproducible, chaos included. Fault-free
//! runs produce outcomes byte-identical to `run_matrix` because shard
//! workers execute cells through the exact same code path.

use aws_stack::{
    AttrValue, BusEvent, EventBus, FunctionConfig, FunctionRuntime, Item, KvError, KvStore,
    ObjectBody, ObjectStore, RetryPolicy, Rule,
};
use chaos::{ChaosEngine, ChaosScenario};
use cloud_compute::BillingLedger;
use cloud_market::{Region, Usd};
use sim_kernel::json::push_json_str;
use sim_kernel::{EventQueue, SimDuration, SimTime};

use crate::strategy::Strategy;
use crate::sweep::{merged_trace_jsonl, run_cell, CellOutcome, MarketCache, SweepCell};
use crate::trace::{RunTrace, TraceConfig, TraceEvent, Tracer};

/// KV table holding one lease record per shard.
pub const LEASE_TABLE: &str = "sweep-leases";
/// KV table holding dead-letter records.
pub const DEADLETTER_TABLE: &str = "sweep-dead-letters";
/// Object-store bucket holding per-shard result payloads.
pub const RESULT_BUCKET: &str = "sweep-results";
/// The registered shard-executor function.
pub const EXECUTOR_FUNCTION: &str = "sweep-shard-executor";
/// Event source for shard dispatches.
const DISPATCH_SOURCE: &str = "spotverse.sweep";
/// Detail type for shard dispatches.
const DISPATCH_DETAIL_TYPE: &str = "Sweep Shard Dispatch";

/// Tuning for the sweep orchestrator.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Seed for backoff jitter and the chaos engine.
    pub seed: u64,
    /// Cells per shard (≥ 1).
    pub shard_size: usize,
    /// How long a claimed lease lives without renewal.
    pub lease_duration: SimDuration,
    /// Interval between a worker's lease renewals.
    pub heartbeat_interval: SimDuration,
    /// How long the parent waits for a dispatched shard to claim its
    /// lease before declaring the dispatch lost.
    pub claim_timeout: SimDuration,
    /// Parent supervision cadence (lease scans).
    pub supervise_interval: SimDuration,
    /// Event-bus delivery latency from dispatch to worker start.
    pub dispatch_latency: SimDuration,
    /// Modelled sim-time duration of one shard execution.
    pub shard_exec_duration: SimDuration,
    /// Attempts before a shard is dead-lettered (≥ 1).
    pub max_attempts: u32,
    /// Backoff between re-drives; `jitter` spreads simultaneous re-drives.
    pub redrive_backoff: RetryPolicy,
    /// Home region for the orchestration services.
    pub region: Region,
    /// Chaos injected into the *orchestration* services (not the cells).
    pub chaos: Option<ChaosScenario>,
    /// Orchestration-event trace collection.
    pub trace: TraceConfig,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            seed: 2024,
            shard_size: 1,
            lease_duration: SimDuration::from_mins(10),
            heartbeat_interval: SimDuration::from_mins(3),
            claim_timeout: SimDuration::from_mins(3),
            supervise_interval: SimDuration::from_secs(45),
            dispatch_latency: SimDuration::from_secs(5),
            shard_exec_duration: SimDuration::from_mins(8),
            max_attempts: 4,
            redrive_backoff: RetryPolicy {
                max_attempts: 1,
                initial_backoff: SimDuration::from_secs(60),
                backoff_rate: 2.0,
                max_delay: SimDuration::from_mins(15),
                jitter: SimDuration::from_secs(45),
            },
            region: Region::UsEast1,
            chaos: None,
            trace: TraceConfig::default(),
        }
    }
}

/// One failed attempt in a shard's history.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// When the attempt was dispatched.
    pub dispatched_at: SimTime,
    /// Why it was declared failed.
    pub failure: String,
}

/// A shard that exhausted its attempts, with its full attempt history.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The shard index.
    pub shard: usize,
    /// Labels of the cells the shard carried.
    pub labels: Vec<String>,
    /// Every failed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Whether the dead-letter KV record was durably written (the write
    /// itself can be throttled; the in-memory record is authoritative).
    pub recorded: bool,
}

/// Resilience telemetry for one orchestrated sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestrationStats {
    /// Shards the matrix was split into.
    pub shards: usize,
    /// Dispatches published to the event bus (first tries + re-drives).
    pub dispatches: u64,
    /// Re-drives scheduled after failed attempts.
    pub redrives: u64,
    /// Lease expiries observed by the parent.
    pub lease_expiries: u64,
    /// Worker executions that exited as idempotent duplicates.
    pub duplicate_executions: u64,
    /// Shards that completed (persisted a result).
    pub completed_shards: usize,
    /// Shards that were dead-lettered.
    pub dead_lettered_shards: usize,
    /// Event-bus deliveries dropped by chaos.
    pub bus_lost: u64,
    /// Event-bus deliveries duplicated by chaos.
    pub bus_duplicated: u64,
    /// Sim time at which the last shard reached a terminal state.
    pub finished_at: SimTime,
    /// Total billed cost of the orchestration services.
    pub service_cost: Usd,
}

/// The result of an orchestrated sweep: per-cell outcomes in matrix
/// order (dead-lettered cells carry structured errors), the dead-letter
/// records, telemetry, and the orchestration-event trace.
#[derive(Debug, Clone)]
pub struct OrchestratedSweepReport {
    /// One outcome per input cell, in input order.
    pub outcomes: Vec<CellOutcome>,
    /// Shards that exhausted their attempts.
    pub dead_letters: Vec<DeadLetter>,
    /// Orchestration telemetry.
    pub stats: OrchestrationStats,
    /// Orchestration events (shard dispatch/lease/redrive/dead-letter),
    /// when tracing is enabled. Separate from the per-cell run traces,
    /// which live inside each [`CellOutcome`]'s report.
    pub trace: Option<RunTrace>,
}

/// Parent-loop events, delivered in time order (FIFO within a tick).
#[derive(Debug)]
enum OrchEvent {
    /// Publish shard `shard`'s dispatch (attempt `attempt`) on the bus.
    Dispatch { shard: usize, attempt: u32 },
    /// A delivered dispatch starts a worker execution.
    WorkerStart { shard: usize, attempt: u32 },
    /// A worker renews its lease.
    Heartbeat { exec: u64 },
    /// A worker finishes executing and persists its result.
    WorkerFinish { exec: u64 },
    /// The parent scans leases for stragglers and lost dispatches.
    Supervise,
}

/// Where a shard is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
enum ShardPhase {
    /// A re-drive is scheduled; nothing in flight.
    Waiting,
    /// Dispatched and not yet resolved.
    InFlight { attempt: u32, dispatched_at: SimTime },
    /// Result persisted and promoted.
    Completed,
    /// Attempts exhausted.
    DeadLettered,
}

struct Shard {
    cells: std::ops::Range<usize>,
    phase: ShardPhase,
    history: Vec<AttemptRecord>,
    outcomes: Option<Vec<CellOutcome>>,
    recorded: bool,
}

/// One live worker execution (a claimed lease being worked).
struct Execution {
    shard: usize,
    attempt: u32,
    owner: String,
    finish_at: SimTime,
    /// Set when a lease renewal is rejected: the lease was taken over, so
    /// this execution must not persist a result.
    fenced: bool,
}

/// Runs `cells` through the distributed orchestrator. Fault-free (no
/// `chaos` in the config) the returned outcomes are byte-identical to
/// [`crate::sweep::run_matrix`] over the same cells and cache.
pub fn run_matrix_orchestrated<F>(
    cells: &[SweepCell],
    config: &OrchestratorConfig,
    cache: &MarketCache,
    strategy_for: F,
) -> OrchestratedSweepReport
where
    F: Fn(&SweepCell) -> Box<dyn Strategy> + Sync,
{
    Orchestrator::new(cells, config).run(cache, &strategy_for)
}

struct Orchestrator<'a> {
    cells: &'a [SweepCell],
    config: &'a OrchestratorConfig,
    kv: KvStore,
    store: ObjectStore,
    bus: EventBus,
    functions: FunctionRuntime,
    ledger: BillingLedger,
    queue: EventQueue<OrchEvent>,
    tracer: Tracer,
    shards: Vec<Shard>,
    executions: std::collections::BTreeMap<u64, Execution>,
    next_exec: u64,
    dispatches: u64,
    redrives: u64,
    lease_expiries: u64,
    duplicate_executions: u64,
    finished_at: SimTime,
}

impl<'a> Orchestrator<'a> {
    fn new(cells: &'a [SweepCell], config: &'a OrchestratorConfig) -> Self {
        let mut kv = KvStore::new();
        let mut store = ObjectStore::new();
        let mut bus = EventBus::new();
        let mut functions = FunctionRuntime::new();
        kv.create_table(LEASE_TABLE, config.region).expect("fresh lease table");
        kv.create_table(DEADLETTER_TABLE, config.region).expect("fresh dead-letter table");
        store.create_bucket(RESULT_BUCKET, config.region).expect("fresh result bucket");
        functions.register(
            EXECUTOR_FUNCTION,
            config.region,
            FunctionConfig {
                exec_duration: config.shard_exec_duration,
                timeout: config.shard_exec_duration.max(SimDuration::from_mins(15)),
                ..FunctionConfig::default()
            },
        );
        bus.put_rule(Rule::new(
            "on-shard-dispatch",
            DISPATCH_SOURCE,
            Some(DISPATCH_DETAIL_TYPE.into()),
            EXECUTOR_FUNCTION,
        ))
        .expect("fresh bus");
        if let Some(scenario) = &config.chaos {
            let engine = ChaosEngine::new(scenario, config.seed, SimTime::ZERO);
            kv.set_fault_injector(engine.service_injector("orch-kv"));
            store.set_fault_injector(engine.service_injector("orch-s3"));
            functions.set_fault_injector(engine.service_injector("orch-fn"));
            bus.set_fault_injector(engine.service_injector("orch-bus"));
        }
        let shard_size = config.shard_size.max(1);
        let shards: Vec<Shard> = (0..cells.len())
            .step_by(shard_size)
            .map(|start| Shard {
                cells: start..(start + shard_size).min(cells.len()),
                phase: ShardPhase::Waiting,
                history: Vec::new(),
                outcomes: None,
                recorded: false,
            })
            .collect();
        Orchestrator {
            cells,
            config,
            kv,
            store,
            bus,
            functions,
            ledger: BillingLedger::new(),
            queue: EventQueue::new(),
            tracer: Tracer::new(&config.trace),
            shards,
            executions: std::collections::BTreeMap::new(),
            next_exec: 0,
            dispatches: 0,
            redrives: 0,
            lease_expiries: 0,
            duplicate_executions: 0,
            finished_at: SimTime::ZERO,
        }
    }

    fn run<F>(mut self, cache: &MarketCache, strategy_for: &F) -> OrchestratedSweepReport
    where
        F: Fn(&SweepCell) -> Box<dyn Strategy> + Sync,
    {
        for shard in 0..self.shards.len() {
            self.queue.schedule(SimTime::ZERO, OrchEvent::Dispatch { shard, attempt: 1 });
        }
        self.queue
            .schedule(SimTime::ZERO + self.config.supervise_interval, OrchEvent::Supervise);
        while let Some((now, event)) = self.queue.pop() {
            match event {
                OrchEvent::Dispatch { shard, attempt } => self.dispatch(shard, attempt, now),
                OrchEvent::WorkerStart { shard, attempt } => self.worker_start(shard, attempt, now),
                OrchEvent::Heartbeat { exec } => self.heartbeat(exec, now),
                OrchEvent::WorkerFinish { exec } => self.worker_finish(exec, now, cache, strategy_for),
                OrchEvent::Supervise => self.supervise(now),
            }
            if self.all_terminal() {
                self.finished_at = now;
                break;
            }
        }
        self.assemble()
    }

    fn all_terminal(&self) -> bool {
        self.shards
            .iter()
            .all(|s| matches!(s.phase, ShardPhase::Completed | ShardPhase::DeadLettered))
    }

    fn terminal(&self, shard: usize) -> bool {
        matches!(
            self.shards[shard].phase,
            ShardPhase::Completed | ShardPhase::DeadLettered
        )
    }

    fn lease_key(shard: usize) -> String {
        format!("shard-{shard}")
    }

    /// Publishes a shard dispatch on the bus; each delivered copy starts a
    /// worker after the delivery latency. A lost delivery starts nothing —
    /// supervision catches it via the claim timeout.
    fn dispatch(&mut self, shard: usize, attempt: u32, now: SimTime) {
        if self.terminal(shard) {
            return; // a straggler completed the shard during backoff
        }
        self.dispatches += 1;
        self.shards[shard].phase = ShardPhase::InFlight { attempt, dispatched_at: now };
        let cells = self.shards[shard].cells.len();
        self.tracer
            .record(now, TraceEvent::ShardDispatched { shard, attempt, cells });
        let targets = self.bus.publish(BusEvent::new(
            DISPATCH_SOURCE,
            DISPATCH_DETAIL_TYPE,
            format!("{shard}/a{attempt}"),
            now,
        ));
        for _ in targets {
            self.queue.schedule(
                now + self.config.dispatch_latency,
                OrchEvent::WorkerStart { shard, attempt },
            );
        }
    }

    /// A delivered dispatch: bill the invocation, pre-check idempotency,
    /// claim the lease, and schedule heartbeats + the finish.
    fn worker_start(&mut self, shard: usize, attempt: u32, now: SimTime) {
        // The invocation itself can be throttled or lost by chaos; the
        // attempt dies unclaimed and supervision re-drives it.
        let invoked = self.functions.invoke(
            EXECUTOR_FUNCTION,
            now,
            RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            &mut self.ledger,
            |_| Ok(()),
        );
        if invoked.is_err() {
            return;
        }
        // Idempotency pre-check: a result for this shard already exists —
        // this execution is a duplicate delivery or a late re-drive.
        if self.store.get_metadata(RESULT_BUCKET, &Self::lease_key(shard)).is_ok() {
            self.duplicate_executions += 1;
            self.tracer
                .record(now, TraceEvent::ShardCompleted { shard, attempt, duplicate: true });
            return;
        }
        let exec = self.next_exec;
        let owner = format!("exec-{exec}/s{shard}a{attempt}");
        let expires = now + self.config.lease_duration;
        let claim = self.kv.conditional_put(
            LEASE_TABLE,
            &Self::lease_key(shard),
            lease_item(&owner, attempt, expires, "held"),
            now,
            &mut self.ledger,
            |cur| match cur {
                None => true,
                Some(item) => {
                    lease_state(item) != "done" && lease_expires(item) <= now
                }
            },
        );
        match claim {
            Ok(()) => {}
            // Another execution holds an unexpired lease, or the write
            // was throttled/lost: this worker exits without the shard.
            Err(_) => return,
        }
        self.next_exec += 1;
        let finish_at = now + self.config.shard_exec_duration;
        self.executions.insert(
            exec,
            Execution { shard, attempt, owner, finish_at, fenced: false },
        );
        let first_heartbeat = now + self.config.heartbeat_interval;
        if first_heartbeat < finish_at {
            self.queue.schedule(first_heartbeat, OrchEvent::Heartbeat { exec });
        }
        self.queue.schedule(finish_at, OrchEvent::WorkerFinish { exec });
    }

    /// Conditional lease renewal. Rejection means the lease was taken
    /// over (the parent re-drove the shard) — the execution is fenced and
    /// must not persist a result. A throttled renewal is retried at the
    /// next heartbeat; the lease may expire in the meantime, which is the
    /// straggler path.
    fn heartbeat(&mut self, exec: u64, now: SimTime) {
        let Some(e) = self.executions.get(&exec) else { return };
        if e.fenced {
            return;
        }
        let (shard, attempt, owner, finish_at) = (e.shard, e.attempt, e.owner.clone(), e.finish_at);
        let renewed = self.kv.conditional_put(
            LEASE_TABLE,
            &Self::lease_key(shard),
            lease_item(&owner, attempt, now + self.config.lease_duration, "held"),
            now,
            &mut self.ledger,
            |cur| cur.is_some_and(|item| lease_owner(item) == owner),
        );
        if let Err(KvError::ConditionFailed { .. }) = renewed {
            if let Some(e) = self.executions.get_mut(&exec) {
                e.fenced = true;
            }
            return;
        }
        let next = now + self.config.heartbeat_interval;
        if next < finish_at {
            self.queue.schedule(next, OrchEvent::Heartbeat { exec });
        }
    }

    /// The worker finishes: re-check idempotency, execute the cells
    /// through the same path as `run_matrix`, persist the payload, and
    /// promote the outcomes. A failed persist leaves the lease to expire
    /// so supervision re-drives the shard.
    fn worker_finish<F>(&mut self, exec: u64, now: SimTime, cache: &MarketCache, strategy_for: &F)
    where
        F: Fn(&SweepCell) -> Box<dyn Strategy> + Sync,
    {
        let Some(e) = self.executions.remove(&exec) else { return };
        if e.fenced {
            return;
        }
        let (shard, attempt, owner) = (e.shard, e.attempt, e.owner);
        if self.store.get_metadata(RESULT_BUCKET, &Self::lease_key(shard)).is_ok() {
            // A successor already persisted this shard while we ran: the
            // deterministic payload would be byte-identical, so this is
            // the idempotent no-op the result keying buys us.
            self.duplicate_executions += 1;
            self.tracer
                .record(now, TraceEvent::ShardCompleted { shard, attempt, duplicate: true });
            return;
        }
        let outcomes: Vec<CellOutcome> = self.shards[shard]
            .cells
            .clone()
            .map(|i| run_cell(&self.cells[i], cache, strategy_for))
            .collect();
        let payload = shard_payload(&outcomes);
        let persisted = self.store.put_object(
            RESULT_BUCKET,
            Self::lease_key(shard),
            ObjectBody::from_text(payload),
            self.config.region,
            now,
            &mut self.ledger,
        );
        if persisted.is_err() {
            return; // lease expires → supervision re-drives
        }
        // Best-effort lease release; failure just lets it expire idle.
        let _ = self.kv.conditional_put(
            LEASE_TABLE,
            &Self::lease_key(shard),
            lease_item(&owner, attempt, now + self.config.lease_duration, "done"),
            now,
            &mut self.ledger,
            |cur| cur.is_some_and(|item| lease_owner(item) == owner),
        );
        self.tracer
            .record(now, TraceEvent::ShardCompleted { shard, attempt, duplicate: false });
        if !self.terminal(shard) {
            self.shards[shard].outcomes = Some(outcomes);
            self.shards[shard].phase = ShardPhase::Completed;
        }
        // If the shard was already dead-lettered, the parent's verdict
        // stands: the persisted result is ignored by the report.
    }

    /// The parent's lease scan: detects expired leases (stragglers, lost
    /// workers) and dispatches that never claimed, then re-drives or
    /// dead-letters the shard.
    fn supervise(&mut self, now: SimTime) {
        for shard in 0..self.shards.len() {
            let ShardPhase::InFlight { attempt, dispatched_at } = self.shards[shard].phase else {
                continue;
            };
            let lease = match self.kv.get_item(
                LEASE_TABLE,
                &Self::lease_key(shard),
                now,
                &mut self.ledger,
            ) {
                Ok(lease) => lease,
                Err(_) => continue, // scan throttled; try next tick
            };
            match lease {
                Some(item) if lease_state(&item) == "done" => {}
                Some(item) => {
                    let holder_attempt = lease_attempt(&item);
                    if lease_expires(&item) <= now
                        && (holder_attempt == attempt
                            || now >= dispatched_at + self.config.claim_timeout)
                    {
                        self.lease_expiries += 1;
                        self.tracer.record(
                            now,
                            TraceEvent::LeaseExpired { shard, attempt: holder_attempt },
                        );
                        self.fail_attempt(shard, attempt, dispatched_at, now, "lease expired");
                    }
                    // An unexpired lease (current attempt or a live
                    // straggler) is healthy: it will complete or expire.
                }
                None => {
                    if now >= dispatched_at + self.config.claim_timeout {
                        self.fail_attempt(
                            shard,
                            attempt,
                            dispatched_at,
                            now,
                            "dispatch lost: no lease claimed within the claim timeout",
                        );
                    }
                }
            }
        }
        if !self.all_terminal() {
            self.queue
                .schedule(now + self.config.supervise_interval, OrchEvent::Supervise);
        }
    }

    /// Records a failed attempt, then re-drives with capped + jittered
    /// backoff or dead-letters the shard once attempts are exhausted.
    fn fail_attempt(
        &mut self,
        shard: usize,
        attempt: u32,
        dispatched_at: SimTime,
        now: SimTime,
        reason: &str,
    ) {
        self.shards[shard].history.push(AttemptRecord {
            attempt,
            dispatched_at,
            failure: reason.to_owned(),
        });
        if attempt < self.config.max_attempts {
            let backoff = self.config.redrive_backoff.backoff_jittered(
                attempt,
                self.config.seed,
                &Self::lease_key(shard),
            );
            self.redrives += 1;
            self.tracer.record(
                now,
                TraceEvent::ShardRedriven {
                    shard,
                    attempt: attempt + 1,
                    backoff_s: backoff.as_secs(),
                },
            );
            self.shards[shard].phase = ShardPhase::Waiting;
            self.queue
                .schedule(now + backoff, OrchEvent::Dispatch { shard, attempt: attempt + 1 });
        } else {
            self.shards[shard].phase = ShardPhase::DeadLettered;
            self.tracer
                .record(now, TraceEvent::ShardDeadLettered { shard, attempts: attempt });
            let item = dead_letter_item(shard, &self.shards[shard].history);
            self.shards[shard].recorded = self
                .kv
                .put_item(DEADLETTER_TABLE, Self::lease_key(shard), item, now, &mut self.ledger)
                .is_ok();
        }
    }

    fn assemble(mut self) -> OrchestratedSweepReport {
        let mut outcomes = Vec::with_capacity(self.cells.len());
        let mut dead_letters = Vec::new();
        let mut completed_shards = 0;
        for (index, shard) in self.shards.iter_mut().enumerate() {
            match shard.phase {
                ShardPhase::Completed => {
                    completed_shards += 1;
                    outcomes.extend(shard.outcomes.take().expect("completed shard has outcomes"));
                }
                ShardPhase::DeadLettered => {
                    let last = shard
                        .history
                        .last()
                        .map_or("unknown", |a| a.failure.as_str());
                    let reason = format!(
                        "shard {index} dead-lettered after {} attempts: {last}",
                        shard.history.len()
                    );
                    for i in shard.cells.clone() {
                        outcomes.push(self.cells[i].outcome(0, Err(reason.clone())));
                    }
                    dead_letters.push(DeadLetter {
                        shard: index,
                        labels: shard.cells.clone().map(|i| self.cells[i].label.clone()).collect(),
                        attempts: std::mem::take(&mut shard.history),
                        recorded: shard.recorded,
                    });
                }
                ShardPhase::Waiting | ShardPhase::InFlight { .. } => {
                    unreachable!("orchestrator loop exited with shard {index} unresolved")
                }
            }
        }
        let stats = OrchestrationStats {
            shards: self.shards.len(),
            dispatches: self.dispatches,
            redrives: self.redrives,
            lease_expiries: self.lease_expiries,
            duplicate_executions: self.duplicate_executions,
            completed_shards,
            dead_lettered_shards: dead_letters.len(),
            bus_lost: self.bus.lost_count(),
            bus_duplicated: self.bus.duplicated_count(),
            finished_at: self.finished_at,
            service_cost: self.ledger.total(),
        };
        OrchestratedSweepReport {
            outcomes,
            dead_letters,
            stats,
            trace: self.tracer.finish(),
        }
    }
}

fn lease_item(owner: &str, attempt: u32, expires: SimTime, state: &str) -> Item {
    let mut item = Item::new();
    item.insert("owner".into(), AttrValue::S(owner.to_owned()));
    item.insert("attempt".into(), AttrValue::N(f64::from(attempt)));
    item.insert("expires".into(), AttrValue::N(expires.as_secs() as f64));
    item.insert("state".into(), AttrValue::S(state.to_owned()));
    item
}

fn lease_owner(item: &Item) -> &str {
    item.get("owner").and_then(AttrValue::as_str).unwrap_or("")
}

fn lease_state(item: &Item) -> &str {
    item.get("state").and_then(AttrValue::as_str).unwrap_or("")
}

fn lease_attempt(item: &Item) -> u32 {
    item.get("attempt").and_then(AttrValue::as_number).unwrap_or(0.0) as u32
}

fn lease_expires(item: &Item) -> SimTime {
    SimTime::from_secs(item.get("expires").and_then(AttrValue::as_number).unwrap_or(0.0) as u64)
}

fn dead_letter_item(shard: usize, history: &[AttemptRecord]) -> Item {
    let mut item = Item::new();
    item.insert("shard".into(), AttrValue::N(shard as f64));
    item.insert("attempts".into(), AttrValue::N(history.len() as f64));
    item.insert(
        "history".into(),
        AttrValue::L(
            history
                .iter()
                .map(|a| {
                    AttrValue::S(format!(
                        "a{}@{}s: {}",
                        a.attempt,
                        a.dispatched_at.as_secs(),
                        a.failure
                    ))
                })
                .collect(),
        ),
    );
    item
}

/// The durable result payload for one shard: a canonical JSON summary
/// line per cell, then each cell's trace as JSONL. Pure function of the
/// cell outcomes, so any two executions of the same shard produce
/// byte-identical payloads.
fn shard_payload(outcomes: &[CellOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str("{\"label\":");
        push_json_str(&mut out, &o.label);
        out.push_str(",\"strategy\":");
        push_json_str(&mut out, &o.strategy);
        use std::fmt::Write;
        let _ = write!(out, ",\"retries\":{}", o.retries);
        match &o.result {
            Ok(report) => {
                let _ = write!(
                    out,
                    ",\"ok\":true,\"completed\":{},\"workloads\":{},\"makespan_s\":{},\
                     \"interruptions\":{},\"cost\":{:.6}",
                    report.completed,
                    report.workloads,
                    report.makespan.as_secs(),
                    report.interruptions,
                    report.cost.total.amount(),
                );
            }
            Err(e) => {
                out.push_str(",\"ok\":false,\"error\":");
                push_json_str(&mut out, e);
            }
        }
        out.push_str("}\n");
    }
    out.push_str(&merged_trace_jsonl(outcomes));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_matrix;
    use crate::{ExperimentConfig, SpotVerseConfig, SpotVerseStrategy};
    use bio_workloads::{paper_fleet, WorkloadKind};
    use cloud_market::InstanceType;
    use sim_kernel::SimRng;

    fn small_cells(n: usize) -> Vec<SweepCell> {
        (0..n)
            .map(|i| {
                let seed = 2024 + i as u64;
                let rng = SimRng::seed_from_u64(seed);
                let fleet = paper_fleet(WorkloadKind::GenomeReconstruction, 2, &rng);
                let config = ExperimentConfig::new(seed, InstanceType::M5Xlarge, fleet);
                SweepCell::new(format!("cell-{i}"), "spotverse", config)
            })
            .collect()
    }

    fn strategy_for(_cell: &SweepCell) -> Box<dyn Strategy> {
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        )))
    }

    #[test]
    fn fault_free_orchestration_matches_run_matrix() {
        let cells = small_cells(3);
        let cache = MarketCache::new();
        let inprocess = run_matrix(&cells, 1, &cache, strategy_for);
        let config = OrchestratorConfig::default();
        let report = run_matrix_orchestrated(&cells, &config, &cache, strategy_for);
        assert_eq!(report.outcomes, inprocess);
        assert!(report.dead_letters.is_empty());
        assert_eq!(report.stats.completed_shards, 3);
        assert_eq!(report.stats.dispatches, 3);
        assert_eq!(report.stats.redrives, 0);
        assert_eq!(report.stats.duplicate_executions, 0);
        assert!(report.stats.service_cost > Usd::ZERO);
    }

    #[test]
    fn shard_size_groups_cells_without_changing_outcomes() {
        let cells = small_cells(3);
        let cache = MarketCache::new();
        let config = OrchestratorConfig { shard_size: 2, ..OrchestratorConfig::default() };
        let report = run_matrix_orchestrated(&cells, &config, &cache, strategy_for);
        assert_eq!(report.stats.shards, 2);
        assert_eq!(report.outcomes, run_matrix(&cells, 1, &cache, strategy_for));
    }

    #[test]
    fn shard_payload_is_deterministic_and_jsonl() {
        let cells = small_cells(1);
        let cache = MarketCache::new();
        let outcomes = run_matrix(&cells, 1, &cache, strategy_for);
        let a = shard_payload(&outcomes);
        let b = shard_payload(&run_matrix(&cells, 1, &cache, strategy_for));
        assert_eq!(a, b, "same cells, byte-identical payload");
        assert!(a.lines().next().unwrap().starts_with("{\"label\":\"cell-0\""));
    }

    #[test]
    fn orchestration_trace_records_dispatches() {
        let cells = small_cells(2);
        let cache = MarketCache::new();
        let config = OrchestratorConfig {
            trace: TraceConfig { enabled: true, capacity: 256 },
            ..OrchestratorConfig::default()
        };
        let report = run_matrix_orchestrated(&cells, &config, &cache, strategy_for);
        let trace = report.trace.expect("tracing enabled");
        let dispatched = trace
            .events
            .iter()
            .filter(|r| r.event.label() == "shard_dispatched")
            .count();
        assert_eq!(dispatched, 2);
        assert!(trace.events.iter().any(|r| r.event.label() == "shard_completed"));
    }
}
