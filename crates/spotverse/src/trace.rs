//! Deterministic decision-trace observability.
//!
//! Aggregate reports hide *why* a run chose what it chose; this module
//! records every consequential controller event — optimizer decisions with
//! per-candidate verdicts, interruptions, migrations, checkpoint
//! save/restore, circuit-breaker transitions, chaos fault activations — as
//! typed, sim-time-stamped [`TraceRecord`]s.
//!
//! Determinism contract:
//!
//! * Tracing is **purely observational**: the tracer consumes no RNG and
//!   touches no counters, so enabling it leaves every other report field
//!   bit-identical to an untraced run.
//! * Records are collected per experiment (one sweep cell = one run) in a
//!   single-threaded [`RingBuffer`] that keeps the *first* N events, so
//!   the retained prefix never depends on run length. Sweeps merge
//!   per-cell traces in cell order, which keeps the merged JSONL
//!   byte-identical for any `--jobs` value.
//! * The JSONL export is canonical — fixed key order, lowercase labels,
//!   shortest-round-trip float formatting — so golden traces can be
//!   compared byte-for-byte.

use std::fmt::Write as _;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::{RingBuffer, SimDuration, SimTime};

use crate::health::BreakerState;
use crate::optimizer::{CandidateVerdict, Placement};

/// Default cap on retained records per run; overflow is counted, not kept.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Per-run tracing configuration, carried on `ExperimentConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether to record a trace (off by default: benches and ordinary
    /// sweeps pay nothing).
    pub enabled: bool,
    /// Maximum records retained; later events only bump the dropped count.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, capacity: DEFAULT_TRACE_CAPACITY }
    }
}

impl TraceConfig {
    /// An enabled configuration with the default capacity.
    #[must_use]
    pub fn enabled() -> Self {
        TraceConfig { enabled: true, ..TraceConfig::default() }
    }
}

/// Whether a decision places fresh workloads or migrates an interrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// The start-of-run placement of the whole fleet.
    Initial,
    /// A relaunch decision after an interruption or failed request.
    Migration,
}

/// One consequential controller event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The run began: identifies the strategy, seed, and chaos scenario.
    RunStarted {
        /// Strategy name (e.g. `"spotverse"`).
        strategy: String,
        /// The experiment seed.
        seed: u64,
        /// Fleet size.
        workloads: usize,
        /// Active chaos scenario name, if any.
        chaos: Option<String>,
        /// Market regime name, `None` under the default baseline regime —
        /// omitted from the JSONL so pre-regime goldens stay byte-identical.
        regime: Option<String>,
    },
    /// A telemetry collection attempt failed.
    CollectionFailed {
        /// Whether the monitor classified the failure as retryable.
        retryable: bool,
    },
    /// A decision was served from a stale-but-within-TTL snapshot.
    StaleServe {
        /// Snapshot age at serve time.
        age: SimDuration,
    },
    /// Telemetry aged past the TTL; the decision degraded to on-demand.
    DegradedDecision {
        /// Snapshot age at decision time.
        age: SimDuration,
    },
    /// A degraded interval closed (telemetry recovered or the run ended).
    DegradedInterval {
        /// Length of the interval.
        duration: SimDuration,
    },
    /// A placement decision, with the optimizer's candidate audit.
    Decision {
        /// Initial fleet placement or per-workload migration.
        kind: DecisionKind,
        /// The migrating workload (`None` for the initial fleet decision).
        workload: Option<usize>,
        /// Region the workload ran in before this decision, if migrating.
        previous: Option<Region>,
        /// Whether stale telemetry forced the on-demand degraded path.
        degraded: bool,
        /// Regions quarantined by the health control plane at decision time.
        quarantined: Vec<Region>,
        /// Per-candidate verdicts (`None` for strategies with no optimizer).
        candidates: Option<Vec<CandidateVerdict>>,
        /// The chosen placements (fleet-sized for initial, one for migration).
        placements: Vec<Placement>,
    },
    /// An instance was launched and began executing.
    Launched {
        /// The workload index.
        workload: usize,
        /// Launch region.
        region: Region,
        /// `true` for spot, `false` for on-demand.
        spot: bool,
        /// The launched instance.
        instance: InstanceId,
    },
    /// A spot request was declined for lack of capacity.
    RequestOpen {
        /// The workload index.
        workload: usize,
        /// The declining region.
        region: Region,
        /// Whether a chaos blackout window caused the decline.
        blackout: bool,
    },
    /// A spot request failed outright (market error).
    RequestFailed {
        /// The workload index.
        workload: usize,
        /// The failing region.
        region: Region,
    },
    /// A running spot instance was reclaimed.
    Interrupted {
        /// The workload index.
        workload: usize,
        /// Region of the reclaimed instance.
        region: Region,
        /// The reclaimed instance.
        instance: InstanceId,
        /// Usage billed for the instance at termination ($).
        billed: f64,
    },
    /// A checkpoint write was attempted during the interruption notice.
    CheckpointSave {
        /// The workload index.
        workload: usize,
        /// Checkpoint generation number.
        generation: u64,
        /// Work units covered by the checkpoint.
        units: usize,
        /// Whether the generation record survived KV throttling.
        recorded: bool,
    },
    /// A checkpoint write was judged torn (never durable).
    CheckpointTorn {
        /// The workload index.
        workload: usize,
        /// The torn generation.
        generation: u64,
    },
    /// Progress was restored after an interruption.
    CheckpointRestore {
        /// The workload index.
        workload: usize,
        /// Work units resumed from.
        units: usize,
        /// Durable-looking generations dropped as corrupt.
        corrupt_dropped: u64,
        /// Whether recovery fell all the way back to a scratch restart.
        scratch: bool,
    },
    /// A workload completed and its instance terminated.
    Completed {
        /// The workload index.
        workload: usize,
        /// Region it completed in.
        region: Region,
        /// The terminated instance.
        instance: InstanceId,
        /// Usage billed for the instance at termination ($).
        billed: f64,
    },
    /// A region's circuit breaker changed state.
    Breaker {
        /// The affected region.
        region: Region,
        /// State before.
        from: BreakerState,
        /// State after.
        to: BreakerState,
    },
    /// A chaos fault actively perturbed the run.
    ChaosFault {
        /// Canonical fault label (e.g. `"spot_blackout"`).
        kind: &'static str,
        /// Affected region, when the fault is region-scoped.
        region: Option<Region>,
    },
    /// A batch of fleet workloads arrived after the run start.
    ///
    /// Never emitted for the batch present at the start, so classic
    /// single-batch experiments produce no such record.
    WorkloadsArrived {
        /// Workload indices arriving together.
        batch: Vec<usize>,
        /// Tenant label per batch entry. Empty for single-tenant fleets
        /// (the default), in which case no `tenant` field is emitted —
        /// committed golden traces stay byte-identical.
        tenants: Vec<String>,
        /// Priority label per batch entry. Empty when every entry is the
        /// default tier, in which case no `priority` field is emitted.
        priorities: Vec<&'static str>,
    },
    /// A launch was deferred because the target region was at its
    /// concurrent-instance capacity cap.
    CapacityDeferred {
        /// The workload index.
        workload: usize,
        /// The full region.
        region: Region,
    },
    /// A fleet workload hit its per-workload deadline unfinished.
    WorkloadExpired {
        /// The workload index.
        workload: usize,
        /// Region of the terminated instance, if one was running.
        region: Option<Region>,
        /// Usage billed at forced termination ($), if an instance ran.
        billed: Option<f64>,
    },
    /// An orchestrated sweep shard was dispatched over the event bus.
    ShardDispatched {
        /// The shard index.
        shard: usize,
        /// 1-based dispatch attempt.
        attempt: u32,
        /// Cells carried by the shard.
        cells: usize,
    },
    /// A shard worker's lease passed its expiry without renewal.
    LeaseExpired {
        /// The shard index.
        shard: usize,
        /// The attempt whose lease lapsed.
        attempt: u32,
    },
    /// A failed shard attempt was re-dispatched with backoff.
    ShardRedriven {
        /// The shard index.
        shard: usize,
        /// The new (1-based) attempt about to be dispatched.
        attempt: u32,
        /// Backoff before the re-dispatch (seconds, jitter included).
        backoff_s: u64,
    },
    /// A shard exhausted its attempts and moved to the dead-letter record.
    ShardDeadLettered {
        /// The shard index.
        shard: usize,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// A shard worker persisted (or idempotently re-confirmed) its result.
    ShardCompleted {
        /// The shard index.
        shard: usize,
        /// The attempt that finished.
        attempt: u32,
        /// Whether the result object already existed (duplicate execution).
        duplicate: bool,
    },
    /// The run ended.
    RunEnded {
        /// Workloads that completed.
        completed: usize,
        /// Whether the run hit the max-runtime deadline.
        aborted: bool,
    },
}

impl TraceEvent {
    /// Canonical snake_case label used as the JSONL `event` field.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run_started",
            TraceEvent::CollectionFailed { .. } => "collection_failed",
            TraceEvent::StaleServe { .. } => "stale_serve",
            TraceEvent::DegradedDecision { .. } => "degraded_decision",
            TraceEvent::DegradedInterval { .. } => "degraded_interval",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::Launched { .. } => "launched",
            TraceEvent::RequestOpen { .. } => "request_open",
            TraceEvent::RequestFailed { .. } => "request_failed",
            TraceEvent::Interrupted { .. } => "interrupted",
            TraceEvent::CheckpointSave { .. } => "checkpoint_save",
            TraceEvent::CheckpointTorn { .. } => "checkpoint_torn",
            TraceEvent::CheckpointRestore { .. } => "checkpoint_restore",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::Breaker { .. } => "breaker",
            TraceEvent::ChaosFault { .. } => "chaos_fault",
            TraceEvent::WorkloadsArrived { .. } => "workloads_arrived",
            TraceEvent::CapacityDeferred { .. } => "capacity_deferred",
            TraceEvent::WorkloadExpired { .. } => "workload_expired",
            TraceEvent::ShardDispatched { .. } => "shard_dispatched",
            TraceEvent::LeaseExpired { .. } => "lease_expired",
            TraceEvent::ShardRedriven { .. } => "shard_redriven",
            TraceEvent::ShardDeadLettered { .. } => "shard_dead_lettered",
            TraceEvent::ShardCompleted { .. } => "shard_completed",
            TraceEvent::RunEnded { .. } => "run_ended",
        }
    }
}

/// One recorded event: a sequence number, a sim-time stamp, and the event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// 0-based emission order within the run.
    pub seq: u64,
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event itself.
    pub event: TraceEvent,
}

/// The per-run event collector, owned by the experiment model.
///
/// Disabled tracers are a near-free no-op: `record` checks one `Option`
/// and discards the event.
#[derive(Debug)]
pub struct Tracer {
    inner: Option<TracerInner>,
}

#[derive(Debug)]
struct TracerInner {
    ring: RingBuffer<TraceRecord>,
    seq: u64,
}

impl Tracer {
    /// A tracer honoring `config` (disabled configs record nothing).
    #[must_use]
    pub fn new(config: &TraceConfig) -> Self {
        let inner = config.enabled.then(|| TracerInner {
            ring: RingBuffer::new(config.capacity.max(1)),
            seq: 0,
        });
        Tracer { inner }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether events are being recorded. Callers that must *build* an
    /// expensive event (candidate explanations, vectors) should gate on
    /// this; cheap events can just call [`record`](Tracer::record).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event` at sim-time `at`. No-op when disabled.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(inner) = &mut self.inner {
            let seq = inner.seq;
            inner.seq += 1;
            inner.ring.push(TraceRecord { seq, at, event });
        }
    }

    /// Consumes the tracer into a [`RunTrace`] (or `None` when disabled).
    #[must_use]
    pub fn finish(self) -> Option<RunTrace> {
        let inner = self.inner?;
        let (events, dropped) = inner.ring.into_parts();
        Some(RunTrace { events, dropped })
    }
}

/// A completed run's trace: the retained records and the overflow count.
/// Aggregates over a trace come from the replay fold
/// ([`CellState::fold`](crate::replay::CellState::fold)).
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Retained records, in emission order.
    pub events: Vec<TraceRecord>,
    /// Records dropped once the capacity was reached.
    pub dropped: u64,
}

impl RunTrace {
    /// Records matching a predicate — convenience for tests and tooling.
    pub fn count_matching(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> u64 {
        self.events.iter().filter(|r| pred(&r.event)).count() as u64
    }
}

// --- canonical JSONL ------------------------------------------------------
//
// The workspace has no serialization dependency, so the canonical form is
// hand-rolled: fixed key order (seq, t, event, then variant fields in
// declaration order), `None` fields omitted, floats via Rust's
// shortest-round-trip `Display`, and lowercase labels throughout. Golden tests compare this
// byte-for-byte.

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_placement(out: &mut String, p: Placement) {
    let label = match p {
        Placement::Spot(r) => format!("spot:{}", r.name()),
        Placement::OnDemand(r) => format!("od:{}", r.name()),
    };
    push_json_str(out, &label);
}

fn push_region_list(out: &mut String, regions: &[Region]) {
    out.push('[');
    for (i, r) in regions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, r.name());
    }
    out.push(']');
}

fn push_candidates(out: &mut String, candidates: &[CandidateVerdict]) {
    out.push('[');
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"region\":");
        push_json_str(out, c.region.name());
        let _ = write!(out, ",\"combined\":{},\"price\":{}", c.combined, c.spot_price);
        out.push_str(",\"outcome\":");
        push_json_str(out, &c.outcome.label());
        out.push('}');
    }
    out.push(']');
}

/// Appends one record as a canonical JSON line (no trailing newline).
/// `cell` prefixes the object with a `"cell"` key for merged sweep traces.
pub fn append_record_json(out: &mut String, cell: Option<&str>, record: &TraceRecord) {
    out.push('{');
    if let Some(cell) = cell {
        out.push_str("\"cell\":");
        push_json_str(out, cell);
        out.push(',');
    }
    let _ = write!(out, "\"seq\":{},\"t\":{},\"event\":", record.seq, record.at.as_secs());
    push_json_str(out, record.event.label());
    match &record.event {
        TraceEvent::RunStarted { strategy, seed, workloads, chaos, regime } => {
            out.push_str(",\"strategy\":");
            push_json_str(out, strategy);
            let _ = write!(out, ",\"seed\":{seed},\"workloads\":{workloads}");
            if let Some(chaos) = chaos {
                out.push_str(",\"chaos\":");
                push_json_str(out, chaos);
            }
            if let Some(regime) = regime {
                out.push_str(",\"regime\":");
                push_json_str(out, regime);
            }
        }
        TraceEvent::CollectionFailed { retryable } => {
            let _ = write!(out, ",\"retryable\":{retryable}");
        }
        TraceEvent::StaleServe { age } | TraceEvent::DegradedDecision { age } => {
            let _ = write!(out, ",\"age_s\":{}", age.as_secs());
        }
        TraceEvent::DegradedInterval { duration } => {
            let _ = write!(out, ",\"duration_s\":{}", duration.as_secs());
        }
        TraceEvent::Decision {
            kind,
            workload,
            previous,
            degraded,
            quarantined,
            candidates,
            placements,
        } => {
            let kind = match kind {
                DecisionKind::Initial => "initial",
                DecisionKind::Migration => "migration",
            };
            let _ = write!(out, ",\"kind\":\"{kind}\"");
            if let Some(w) = workload {
                let _ = write!(out, ",\"workload\":{w}");
            }
            if let Some(prev) = previous {
                out.push_str(",\"previous\":");
                push_json_str(out, prev.name());
            }
            let _ = write!(out, ",\"degraded\":{degraded},\"quarantined\":");
            push_region_list(out, quarantined);
            if let Some(candidates) = candidates {
                out.push_str(",\"candidates\":");
                push_candidates(out, candidates);
            }
            out.push_str(",\"placements\":[");
            for (i, p) in placements.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_placement(out, *p);
            }
            out.push(']');
        }
        TraceEvent::Launched { workload, region, spot, instance } => {
            let _ = write!(out, ",\"workload\":{workload},\"region\":");
            push_json_str(out, region.name());
            let _ = write!(out, ",\"spot\":{spot},\"instance\":\"{instance}\"");
        }
        TraceEvent::RequestOpen { workload, region, blackout } => {
            let _ = write!(out, ",\"workload\":{workload},\"region\":");
            push_json_str(out, region.name());
            let _ = write!(out, ",\"blackout\":{blackout}");
        }
        TraceEvent::RequestFailed { workload, region } => {
            let _ = write!(out, ",\"workload\":{workload},\"region\":");
            push_json_str(out, region.name());
        }
        TraceEvent::Interrupted { workload, region, instance, billed }
        | TraceEvent::Completed { workload, region, instance, billed } => {
            let _ = write!(out, ",\"workload\":{workload},\"region\":");
            push_json_str(out, region.name());
            let _ = write!(out, ",\"instance\":\"{instance}\",\"billed\":{billed}");
        }
        TraceEvent::CheckpointSave { workload, generation, units, recorded } => {
            let _ = write!(
                out,
                ",\"workload\":{workload},\"generation\":{generation},\"units\":{units},\"recorded\":{recorded}"
            );
        }
        TraceEvent::CheckpointTorn { workload, generation } => {
            let _ = write!(out, ",\"workload\":{workload},\"generation\":{generation}");
        }
        TraceEvent::CheckpointRestore { workload, units, corrupt_dropped, scratch } => {
            let _ = write!(
                out,
                ",\"workload\":{workload},\"units\":{units},\"corrupt_dropped\":{corrupt_dropped},\"scratch\":{scratch}"
            );
        }
        TraceEvent::Breaker { region, from, to } => {
            out.push_str(",\"region\":");
            push_json_str(out, region.name());
            let _ = write!(
                out,
                ",\"from\":\"{}\",\"to\":\"{}\"",
                from.label(),
                to.label()
            );
        }
        TraceEvent::ChaosFault { kind, region } => {
            out.push_str(",\"kind\":");
            push_json_str(out, kind);
            if let Some(region) = region {
                out.push_str(",\"region\":");
                push_json_str(out, region.name());
            }
        }
        TraceEvent::WorkloadsArrived { batch, tenants, priorities } => {
            out.push_str(",\"batch\":[");
            for (i, w) in batch.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{w}");
            }
            out.push(']');
            if !tenants.is_empty() {
                out.push_str(",\"tenant\":[");
                for (i, t) in tenants.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, t);
                }
                out.push(']');
            }
            if !priorities.is_empty() {
                out.push_str(",\"priority\":[");
                for (i, p) in priorities.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, p);
                }
                out.push(']');
            }
        }
        TraceEvent::CapacityDeferred { workload, region } => {
            let _ = write!(out, ",\"workload\":{workload},\"region\":");
            push_json_str(out, region.name());
        }
        TraceEvent::WorkloadExpired { workload, region, billed } => {
            let _ = write!(out, ",\"workload\":{workload}");
            if let Some(region) = region {
                out.push_str(",\"region\":");
                push_json_str(out, region.name());
            }
            if let Some(billed) = billed {
                let _ = write!(out, ",\"billed\":{billed}");
            }
        }
        TraceEvent::ShardDispatched { shard, attempt, cells } => {
            let _ = write!(out, ",\"shard\":{shard},\"attempt\":{attempt},\"cells\":{cells}");
        }
        TraceEvent::LeaseExpired { shard, attempt } => {
            let _ = write!(out, ",\"shard\":{shard},\"attempt\":{attempt}");
        }
        TraceEvent::ShardRedriven { shard, attempt, backoff_s } => {
            let _ = write!(
                out,
                ",\"shard\":{shard},\"attempt\":{attempt},\"backoff_s\":{backoff_s}"
            );
        }
        TraceEvent::ShardDeadLettered { shard, attempts } => {
            let _ = write!(out, ",\"shard\":{shard},\"attempts\":{attempts}");
        }
        TraceEvent::ShardCompleted { shard, attempt, duplicate } => {
            let _ = write!(
                out,
                ",\"shard\":{shard},\"attempt\":{attempt},\"duplicate\":{duplicate}"
            );
        }
        TraceEvent::RunEnded { completed, aborted } => {
            let _ = write!(out, ",\"completed\":{completed},\"aborted\":{aborted}");
        }
    }
    out.push('}');
}

/// Appends a whole trace as canonical JSONL (one record per line, each
/// newline-terminated). A truncated trace ends with an explicit marker
/// line so drops are never silent.
pub fn append_trace_jsonl(out: &mut String, cell: Option<&str>, trace: &RunTrace) {
    for record in &trace.events {
        append_record_json(out, cell, record);
        out.push('\n');
    }
    if trace.dropped > 0 {
        append_truncation_json(out, cell, trace.dropped);
        out.push('\n');
    }
}

/// Appends the canonical truncation marker line (no trailing newline) a
/// capacity-capped trace ends with. The read side
/// ([`crate::replay`]) parses this back into
/// [`TraceLine::Truncated`](crate::replay::TraceLine).
pub fn append_truncation_json(out: &mut String, cell: Option<&str>, dropped: u64) {
    out.push('{');
    if let Some(cell) = cell {
        out.push_str("\"cell\":");
        push_json_str(out, cell);
        out.push(',');
    }
    let _ = write!(out, "\"truncated\":true,\"dropped\":{dropped}}}");
}

/// The canonical JSONL form of a single run's trace.
#[must_use]
pub fn trace_to_jsonl(trace: &RunTrace) -> String {
    let mut out = String::new();
    append_trace_jsonl(&mut out, None, trace);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::optimizer::CandidateOutcome;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                at: SimTime::from_secs(0),
                event: TraceEvent::RunStarted {
                    strategy: "spotverse".to_owned(),
                    seed: 7,
                    workloads: 2,
                    chaos: None,
                    regime: None,
                },
            },
            TraceRecord {
                seq: 1,
                at: SimTime::from_hours(1),
                event: TraceEvent::Decision {
                    kind: DecisionKind::Initial,
                    workload: None,
                    previous: None,
                    degraded: false,
                    quarantined: vec![Region::EuWest1],
                    candidates: Some(vec![CandidateVerdict {
                        region: Region::UsEast1,
                        combined: 9,
                        spot_price: 0.0455,
                        outcome: CandidateOutcome::Selected { rank: 0 },
                    }]),
                    placements: vec![
                        Placement::Spot(Region::UsEast1),
                        Placement::OnDemand(Region::UsEast2),
                    ],
                },
            },
            TraceRecord {
                seq: 2,
                at: SimTime::from_hours(2),
                event: TraceEvent::Breaker {
                    region: Region::EuWest1,
                    from: BreakerState::Closed,
                    to: BreakerState::Open,
                },
            },
        ]
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(&TraceConfig::default());
        assert!(!tracer.enabled());
        tracer.record(SimTime::ZERO, TraceEvent::RunEnded { completed: 0, aborted: false });
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn enabled_tracer_sequences_and_caps() {
        let mut tracer = Tracer::new(&TraceConfig { enabled: true, capacity: 2 });
        assert!(tracer.enabled());
        for i in 0..4u64 {
            tracer.record(
                SimTime::from_secs(i),
                TraceEvent::CollectionFailed { retryable: true },
            );
        }
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.events[0].seq, 0);
        assert_eq!(trace.events[1].seq, 1);
    }

    #[test]
    fn jsonl_is_canonical_and_stable() {
        let trace = RunTrace {
            events: sample_records(),
            dropped: 0,
        };
        let a = trace_to_jsonl(&trace);
        let b = trace_to_jsonl(&trace);
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t\":0,\"event\":\"run_started\",\"strategy\":\"spotverse\",\"seed\":7,\"workloads\":2}"
        );
        assert!(lines[1].contains("\"quarantined\":[\"eu-west-1\"]"));
        assert!(lines[1].contains("\"outcome\":\"selected:0\""));
        assert!(lines[1].contains("\"placements\":[\"spot:us-east-1\",\"od:us-east-2\"]"));
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"t\":7200,\"event\":\"breaker\",\"region\":\"eu-west-1\",\"from\":\"closed\",\"to\":\"open\"}"
        );
    }

    #[test]
    fn truncation_is_marked_and_cell_prefix_applies() {
        let trace = RunTrace {
            events: sample_records(),
            dropped: 5,
        };
        let mut out = String::new();
        append_trace_jsonl(&mut out, Some("spotverse/flap"), &trace);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"cell\":\"spotverse/flap\",\"seq\":0,"));
        assert_eq!(lines[3], "{\"cell\":\"spotverse/flap\",\"truncated\":true,\"dropped\":5}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
