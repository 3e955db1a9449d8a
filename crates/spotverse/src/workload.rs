//! The per-workload runtime: one workload's state machine over the shared
//! control plane.
//!
//! A `WorkloadRuntime` owns exactly the state that belongs to a single
//! workload — its running instance, workflow invocation progress,
//! checkpoint ledger, arrival time, deadline, and billed-cost ledger —
//! and steps through launch → run → interrupted → migrate → done (the
//! [`WorkloadPhase`] lifecycle). Everything shared across workloads
//! (market telemetry, breakers, chaos, the tracer) stays in the
//! [`ControlPlane`]; the fleet event loop in [`crate::fleet`] multiplexes
//! many runtimes over one event queue.

use aws_stack::{KvError, ObjectBody, ObjectStoreError};
use bio_workloads::WorkloadSpec;
use cloud_compute::{InstanceId, INTERRUPTION_NOTICE};
use cloud_market::{Region, Usd};
use galaxy_flow::WorkflowInvocation;
use sim_kernel::{EventQueue, SimDuration, SimTime};

use crate::controlplane::{ControlPlane, CHECKPOINT_TABLE};
use crate::experiment::{CheckpointBackend, LOG_BUCKET};
use crate::fleet::Event;
use crate::optimizer::Placement;
use crate::resilience::{retry_with_backoff, CHECKPOINT_WRITE_RETRY};
use crate::trace::{ChaosFaultKind, TraceEvent};

/// Where a workload is in its lifecycle. Purely observational: phases are
/// derived from the same transitions the event loop already performs, so
/// tracking them changes no simulation behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPhase {
    /// Not yet arrived (fleet mode) or not yet placed.
    Pending,
    /// A placement was chosen; the instance request is in flight or open.
    Requesting,
    /// An instance is up and executing the workflow.
    Running,
    /// Interrupted and awaiting its relaunch in the migration target.
    Migrating,
    /// Finished before its deadline.
    Completed,
    /// Hit its deadline unfinished (fleet mode only).
    Expired,
}

#[derive(Debug)]
pub(crate) struct RunningInstance {
    pub(crate) instance: InstanceId,
    pub(crate) region: Region,
    pub(crate) ready_at: SimTime,
}

/// A checkpoint generation that finished uploading before its instance
/// was reclaimed.
#[derive(Debug, Clone, Copy)]
struct DurableCheckpoint {
    generation: u64,
    units: usize,
    written_at: SimTime,
}

/// A checkpoint upload still being judged: durable only if it completed
/// before the reclaim and its KV record landed.
#[derive(Debug, Clone, Copy)]
struct PendingCheckpoint {
    generation: u64,
    units: usize,
    completes_at: SimTime,
    recorded: bool,
}

/// Per-workload checkpoint ledger: the durable generations (newest last)
/// and the write currently in flight.
#[derive(Debug, Default)]
pub(crate) struct CheckpointLog {
    durable: Vec<DurableCheckpoint>,
    pending: Option<PendingCheckpoint>,
    next_generation: u64,
}

/// One workload's runtime state.
#[derive(Debug)]
pub(crate) struct WorkloadRuntime {
    pub(crate) spec: WorkloadSpec,
    pub(crate) invocation: WorkflowInvocation,
    pub(crate) placement: Placement,
    pub(crate) running: Option<RunningInstance>,
    pub(crate) completed_at: Option<SimTime>,
    pub(crate) launches: u32,
    pub(crate) checkpoints: CheckpointLog,
    /// Absolute arrival time (== fleet start for a classic experiment).
    pub(crate) arrival: SimTime,
    /// Absolute per-workload deadline (arrival + max runtime).
    pub(crate) deadline: SimTime,
    pub(crate) interruptions: u64,
    /// Instance spend billed to this workload at its terminations.
    pub(crate) billed: Usd,
    pub(crate) expired: bool,
    pub(crate) phase: WorkloadPhase,
    /// The object-store/EFS key this workload's working set lives under,
    /// interned at construction: the hot paths (notice uploads, resume
    /// downloads, proactive ticks) borrow or clone it instead of
    /// re-formatting the same string on every event. Empty (and never
    /// read) for kinds that do not checkpoint.
    checkpoint_key: String,
}

impl WorkloadRuntime {
    /// Builds the runtime from the spec's step table; no
    /// [`galaxy_flow::Workflow`] is materialized, so a workload costs a
    /// few allocations however many steps and shards it has.
    pub(crate) fn new(spec: &WorkloadSpec, arrival: SimTime, deadline: SimTime) -> Self {
        WorkloadRuntime {
            checkpoint_key: if spec.kind.is_checkpointable() {
                format!("checkpoints/{}/dataset", spec.id)
            } else {
                String::new()
            },
            spec: spec.clone(),
            invocation: spec.invocation(),
            placement: Placement::Spot(Region::UsEast1), // overwritten at arrival
            running: None,
            completed_at: None,
            launches: 0,
            checkpoints: CheckpointLog::default(),
            arrival,
            deadline,
            interruptions: 0,
            billed: Usd::ZERO,
            expired: false,
            phase: WorkloadPhase::Pending,
        }
    }

    /// Whether the event loop still owes this workload events.
    pub(crate) fn settled(&self) -> bool {
        self.completed_at.is_some() || self.expired
    }

    /// An instance came up for this workload: resume from the checkpoint
    /// store if mid-flight, then schedule either the completion or the
    /// notice + reclaim pair.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_execution(
        &mut self,
        w: usize,
        region: Region,
        instance: InstanceId,
        ready_at: SimTime,
        interruption_at: Option<SimTime>,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        cp: &mut ControlPlane,
    ) {
        self.launches += 1;
        self.phase = WorkloadPhase::Running;
        // Checkpoint workloads resuming mid-flight first re-download the
        // working set from the log bucket.
        let mut exec_start = ready_at;
        if self.spec.kind.is_checkpointable() && self.invocation.units_done() > 0 {
            let key = &self.checkpoint_key;
            match cp.checkpoint_backend {
                CheckpointBackend::ObjectStore => {
                    if let Ok((_, outcome)) =
                        cp.s3.get_object(LOG_BUCKET, key, region, now, cp.ec2.ledger_mut())
                    {
                        exec_start = exec_start.max(outcome.completes_at);
                    }
                }
                CheckpointBackend::SharedFileSystem => {
                    let fs = cp.efs_id.expect("efs provisioned for this backend");
                    if let Ok(outcome) = cp.efs.read(fs, key, region, now, cp.ec2.ledger_mut()) {
                        exec_start = exec_start.max(outcome.completes_at);
                    }
                }
            }
        }
        let remaining = self.invocation.remaining_duration();
        let completion_at = exec_start + remaining;
        self.running = Some(RunningInstance {
            instance,
            region,
            ready_at: exec_start,
        });
        match interruption_at {
            Some(at) if at < completion_at => {
                // Chaos may shorten or lose the two-minute warning; a
                // zero-length notice still fires at the reclaim instant,
                // before the Reclaim event (FIFO), so the upload starts —
                // but can never finish in time and is judged torn.
                let warning = match cp.chaos.as_mut() {
                    Some(c) => c.notice_duration(region, at),
                    None => INTERRUPTION_NOTICE,
                };
                if warning < INTERRUPTION_NOTICE {
                    cp.tracer.record(
                        now,
                        TraceEvent::ChaosFault {
                            kind: ChaosFaultKind::NoticeShortened,
                            region: Some(region),
                        },
                    );
                }
                let notice_at = (at - warning).max(now);
                queue.schedule(notice_at, Event::Notice(w, instance));
                queue.schedule(at, Event::Reclaim(w, instance));
            }
            _ => {
                queue.schedule(completion_at, Event::Complete(w, instance));
            }
        }
    }

    /// The interruption-notice handler: persist a progress record and
    /// upload the working set inside the notice window. Neither write is
    /// trusted yet — durability is judged at the reclaim.
    pub(crate) fn handle_notice(
        &mut self,
        w: usize,
        instance: InstanceId,
        now: SimTime,
        cp: &mut ControlPlane,
    ) {
        let Some(running) = &self.running else {
            return;
        };
        if running.instance != instance || !self.spec.kind.is_checkpointable() {
            return;
        }
        self.save_checkpoint(w, now, cp);
    }

    /// A proactive checkpoint tick: persist progress mid-run without
    /// waiting for a two-minute notice. Skipped while a previous upload
    /// is still in flight — piling a second upload onto an unfinished one
    /// would tear the older generation for nothing.
    pub(crate) fn proactive_checkpoint(&mut self, w: usize, now: SimTime, cp: &mut ControlPlane) {
        self.promote_settled_pending(w, now, cp);
        if self.checkpoints.pending.is_some() {
            return;
        }
        self.save_checkpoint(w, now, cp);
    }

    /// Promotes a finished in-flight checkpoint to the durable log.
    /// Durability needs both the completed upload and the KV record;
    /// anything else is torn. In the classic notice-only engine the
    /// pending slot is always consumed at the reclaim before another save
    /// can start, so this is a structural no-op on existing runs.
    fn promote_settled_pending(&mut self, w: usize, now: SimTime, cp: &mut ControlPlane) {
        if let Some(p) = self.checkpoints.pending.take_if(|p| p.completes_at <= now) {
            self.judge_pending(p, w, now, cp);
        }
    }

    /// Logs a write taken out of the pending slot at `now` as durable if
    /// its upload finished by then and its KV record landed, else as torn.
    fn judge_pending(&mut self, p: PendingCheckpoint, w: usize, now: SimTime, cp: &mut ControlPlane) {
        if p.recorded && p.completes_at <= now {
            self.checkpoints.durable.push(DurableCheckpoint {
                generation: p.generation,
                units: p.units,
                written_at: p.completes_at,
            });
        } else {
            cp.telemetry.torn_writes += 1;
            cp.tracer
                .record(now, TraceEvent::CheckpointTorn { workload: w, generation: p.generation });
        }
    }

    /// Starts a checkpoint save at `now`: a KV progress record followed
    /// by the working-set upload. Shared between the notice handler and
    /// the proactive cadence path.
    fn save_checkpoint(&mut self, w: usize, now: SimTime, cp: &mut ControlPlane) {
        let Some(running) = &self.running else {
            return;
        };
        let region = running.region;
        let ready_at = running.ready_at;
        // Judge whatever save was still in flight: a finished upload is
        // promoted, an unfinished one is superseded (torn) by this save.
        // Both branches are unreachable on notice-only runs.
        self.promote_settled_pending(w, now, cp);
        if let Some(p) = self.checkpoints.pending.take() {
            cp.telemetry.torn_writes += 1;
            cp.tracer
                .record(now, TraceEvent::CheckpointTorn { workload: w, generation: p.generation });
        }
        // Units completed through the notice instant are what survives.
        let elapsed = now.saturating_duration_since(ready_at);
        let units_done = self.invocation.units_done()
            + self
                .invocation
                .plan()
                .units_completed_within(self.invocation.units_done(), elapsed);
        let generation = self.checkpoints.next_generation;
        self.checkpoints.next_generation += 1;
        cp.telemetry.writes += 1;

        // KV progress record, retried with jittered backoff when throttled.
        // A restore reads the workload's own checkpoint ledger, never this
        // record, so the write is billed and fault-checked but not stored.
        let (kv, ec2, rng) = (&mut cp.kv, &mut cp.ec2, &mut cp.backoff_rng);
        let record = retry_with_backoff(
            &CHECKPOINT_WRITE_RETRY,
            rng,
            now,
            |e| matches!(e, KvError::Throttled { .. }),
            |at| kv.bill_write(CHECKPOINT_TABLE, at, ec2.ledger_mut()),
        );
        cp.telemetry.throttled_retries += u64::from(record.retries);
        let recorded = record.result.is_ok();

        // The working-set upload starts once the record attempt settled.
        let key = &self.checkpoint_key;
        let completes_at = match cp.checkpoint_backend {
            CheckpointBackend::ObjectStore => {
                let (s3, ec2, rng) = (&mut cp.s3, &mut cp.ec2, &mut cp.backoff_rng);
                let put = retry_with_backoff(
                    &CHECKPOINT_WRITE_RETRY,
                    rng,
                    record.finished_at,
                    |e| matches!(e, ObjectStoreError::Throttled { .. }),
                    |at| {
                        s3.put_object(
                            LOG_BUCKET,
                            key.clone(),
                            ObjectBody::Synthetic {
                                size_gib: bio_workloads::ngs_preprocessing::DATASET_GIB,
                            },
                            region,
                            at,
                            ec2.ledger_mut(),
                        )
                    },
                );
                cp.telemetry.throttled_retries += u64::from(put.retries);
                put.result.ok().map(|outcome| outcome.completes_at)
            }
            CheckpointBackend::SharedFileSystem => {
                let fs = cp.efs_id.expect("efs provisioned for this backend");
                cp.efs
                    .write(
                        fs,
                        key.clone(),
                        bio_workloads::ngs_preprocessing::DATASET_GIB,
                        region,
                        record.finished_at,
                        cp.ec2.ledger_mut(),
                    )
                    .ok()
                    .map(|outcome| outcome.completes_at)
            }
        };
        cp.tracer.record(
            now,
            TraceEvent::CheckpointSave { workload: w, generation, units: units_done, recorded },
        );
        match completes_at {
            Some(completes_at) => {
                self.checkpoints.pending = Some(PendingCheckpoint {
                    generation,
                    units: units_done,
                    completes_at,
                    recorded,
                });
            }
            // Throttled out before the upload even started: nothing to
            // judge at reclaim, the generation is simply lost.
            None => {
                cp.telemetry.torn_writes += 1;
                cp.tracer.record(now, TraceEvent::CheckpointTorn { workload: w, generation });
            }
        }
    }

    /// Judges the in-flight checkpoint at a reclaim and pins the
    /// invocation to the newest durable, uncorrupted generation.
    ///
    /// A pending upload only becomes durable if it finished before the
    /// reclaim *and* its KV record landed — a 0-second notice starts the
    /// upload at the reclaim instant, so it is always torn. Durable
    /// generations that read back corrupt are discarded in favour of
    /// older ones; with none left the workload restarts from scratch.
    pub(crate) fn settle_checkpoints(&mut self, w: usize, now: SimTime, cp: &mut ControlPlane) {
        if let Some(p) = self.checkpoints.pending.take() {
            self.judge_pending(p, w, now, cp);
        }
        let prior = self.invocation.units_done();
        let mut dropped = 0u64;
        let resume_units = loop {
            let Some(top) = self.checkpoints.durable.last().copied() else {
                break 0;
            };
            let corrupt = cp.chaos.as_ref().is_some_and(|c| {
                c.checkpoint_corrupted(&self.spec.id, top.generation, top.written_at)
            });
            if corrupt {
                dropped += 1;
                self.checkpoints.durable.pop();
                cp.tracer.record(
                    now,
                    TraceEvent::ChaosFault {
                        kind: ChaosFaultKind::CheckpointCorruption,
                        region: None,
                    },
                );
            } else {
                break top.units;
            }
        };
        cp.telemetry.corrupt_reads += dropped;
        if dropped > 0 && resume_units > 0 {
            cp.telemetry.generation_fallbacks += 1;
        }
        let scratch = resume_units == 0 && prior > 0;
        if scratch {
            cp.telemetry.scratch_restarts += 1;
        }
        cp.tracer.record(
            now,
            TraceEvent::CheckpointRestore {
                workload: w,
                units: resume_units,
                corrupt_dropped: dropped,
                scratch,
            },
        );
        self.invocation
            .resume_from(resume_units)
            .expect("checkpoint within plan");
    }

    /// The per-workload slice of a fleet report.
    pub(crate) fn report(&self, id: usize) -> WorkloadReport {
        WorkloadReport {
            workload: id,
            id: self.spec.id.clone(),
            arrival: self.arrival,
            phase: self.phase,
            completed: self.completed_at.is_some(),
            expired: self.expired,
            completion_time: self
                .completed_at
                .map(|at| at.saturating_duration_since(self.arrival)),
            interruptions: self.interruptions,
            launches: self.launches,
            billed: self.billed,
            final_region: self.placement.region(),
        }
    }
}

/// One workload's outcome inside a [`FleetReport`](crate::fleet::FleetReport).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// The workload's index in the fleet.
    pub workload: usize,
    /// The workload spec id (e.g. `"w-07"`).
    pub id: String,
    /// Absolute arrival time.
    pub arrival: SimTime,
    /// Final lifecycle phase.
    pub phase: WorkloadPhase,
    /// Whether it finished before its deadline.
    pub completed: bool,
    /// Whether it hit its deadline unfinished.
    pub expired: bool,
    /// Arrival → completion, when completed.
    pub completion_time: Option<SimDuration>,
    /// Spot interruptions this workload absorbed.
    pub interruptions: u64,
    /// Instance launches (initial + relaunches).
    pub launches: u32,
    /// Instance spend billed at this workload's terminations.
    pub billed: Usd,
    /// The last region it was placed in.
    pub final_region: Region,
}
