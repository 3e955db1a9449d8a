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
//! * Records are collected per experiment (one sweep cell = one run) by a
//!   single-threaded [`Tracer`] that keeps the *first* [`TRACE_CAPACITY`]
//!   events and counts the rest, so the retained prefix never depends on
//!   run length. Sweeps merge per-cell traces in cell order, which keeps
//!   the merged JSONL byte-identical for any `--jobs` value.
//! * The JSONL export is canonical — fixed key order, lowercase labels,
//!   shortest-round-trip float formatting — so golden traces can be
//!   compared byte-for-byte.

use std::borrow::Cow;
use std::fmt::Write as _;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::json::{push_json_str, Scanner};
use sim_kernel::{SimDuration, SimTime};

use crate::codec::{field_key, push_uint, put_field, read_field, take_field};
use crate::fleet::Priority;
use crate::health::BreakerState;
use crate::optimizer::{CandidateVerdict, Placement};

/// Records retained per run; later ones are counted, not kept.
pub const TRACE_CAPACITY: usize = 65_536;

/// Per-run tracing configuration, carried on `ExperimentConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Whether to record a trace (off by default: benches and ordinary
    /// sweeps pay nothing).
    pub enabled: bool,
}

impl TraceConfig {
    /// A configuration that records a trace.
    #[must_use]
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
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

labels!(DecisionKind, "decision kind", {
    Initial => "initial",
    Migration => "migration",
});

/// A chaos fault that actively perturbed a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFaultKind {
    /// A spot request was declined inside a blackout window.
    SpotBlackout,
    /// A spot reclaim happened under active chaos stress.
    ChaosInterruption,
    /// An interruption notice arrived shorter than the standard warning.
    NoticeShortened,
    /// A durable-looking checkpoint generation was corrupt.
    CheckpointCorruption,
}

labels!(ChaosFaultKind, "chaos fault kind", {
    SpotBlackout => "spot_blackout",
    ChaosInterruption => "chaos_interruption",
    NoticeShortened => "notice_shortened",
    CheckpointCorruption => "checkpoint_corruption",
});

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
        /// Which fault.
        kind: ChaosFaultKind,
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
        /// Priority per batch entry. Empty when every entry is the
        /// default tier, in which case no `priority` field is emitted.
        priorities: Vec<Priority>,
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
    /// The first [`TRACE_CAPACITY`] records, in emission order.
    records: Vec<TraceRecord>,
    /// Records emitted past the cap.
    dropped: u64,
    seq: u64,
}

impl Tracer {
    /// A tracer honoring `config` (disabled configs record nothing).
    #[must_use]
    pub fn new(config: &TraceConfig) -> Self {
        let inner = config.enabled.then(|| TracerInner {
            // Traces are usually far smaller than the cap; grow on demand.
            records: Vec::new(),
            dropped: 0,
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
            if inner.records.len() < TRACE_CAPACITY {
                inner.records.push(TraceRecord { seq, at, event });
            } else {
                inner.dropped += 1;
            }
        }
    }

    /// Consumes the tracer into a [`RunTrace`] (or `None` when disabled).
    #[must_use]
    pub fn finish(self) -> Option<RunTrace> {
        let TracerInner { records, dropped, .. } = self.inner?;
        Some(RunTrace { events: records, dropped })
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
// A record is one JSON object: `seq`, `t` and `event` (the variant's
// label), then the variant's fields in the order `trace_schema!` lists
// them. The table below is the one place the format is spelled out: the
// macro generates `TraceEvent::label`, the writer arms of
// `append_record_json` and the reader `decode_event` that the replay line
// decoder (`replay/parse.rs`) streams each record's fields into. The
// generated patterns and struct literals name every field without `..`,
// so a field missing from the table fails to compile. The per-type work
// is in the `Codec` and `Decode` impls of `crate::codec`. Golden tests
// compare the output byte-for-byte.

/// The trace schema. Each line is `Variant "label" { fields }`; a field
/// is written under its own name unless renamed (`field: "key"`), and
/// `[omit_empty]` leaves an empty collection out of the line.
macro_rules! trace_schema {
    ($(
        $variant:ident $label:literal {
            $($field:ident $(: $key:literal)? $([$mode:ident])?),+ $(,)?
        }
    )+) => {
        impl TraceEvent {
            /// Canonical snake_case label used as the JSONL `event` field.
            pub fn label(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $label,)+
                }
            }
        }

        /// Appends the event's fields, each as `,"key":value`.
        fn append_event_fields(out: &mut String, event: &TraceEvent) {
            match event {
                $(TraceEvent::$variant { $($field),+ } => {
                    $(put_field!(out, $field, field_key!($field $($key)?) $(, $mode)?);)+
                })+
            }
        }

        /// The most fields any event has.
        pub(crate) const MAX_EVENT_FIELDS: usize = {
            let mut max = 0;
            $(
                let n = [$(stringify!($field)),+].len();
                if n > max {
                    max = n;
                }
            )+
            max
        };

        /// Decodes the fields of the event labelled `label`: those that
        /// follow from `r` in table order, those met ahead of the label,
        /// each kept as its key and raw value text in `before`, then the
        /// rest of the object from `r`, through its closing `}`. A key that
        /// is not the event's goes to `envelope`, which reads its value
        /// and returns `true`, or returns `false` and the key is rejected
        /// as unexpected.
        pub(crate) fn decode_event<'a>(
            label: &str,
            before: &[(Cow<'a, str>, &'a str)],
            r: &mut Scanner<'a>,
            mut envelope: impl FnMut(&str, &mut Scanner<'a>) -> Result<bool, String>,
        ) -> Result<TraceEvent, String> {
            match label {
                $($label => {
                    $(let mut $field = None;)+
                    // A canonical line spells the fields exactly, in
                    // table order; any other key is read below.
                    $(if r.next_key_is(field_key!($field $($key)?)) {
                        read_field(&mut $field, field_key!($field $($key)?), r)?;
                    })+
                    let mut field = |key: &str, r: &mut Scanner<'a>| -> Result<bool, String> {
                        match key {
                            $(k if k == field_key!($field $($key)?) => {
                                read_field(&mut $field, k, r)?;
                            })+
                            _ => return Ok(false),
                        }
                        Ok(true)
                    };
                    for (key, text) in before {
                        if !field(key, &mut Scanner::new(text))? {
                            return Err(format!("unexpected field `{key}`"));
                        }
                    }
                    while let Some(key) = r.next_key()? {
                        if !field(&key, r)? && !envelope(&key, r)? {
                            return Err(format!("unexpected field `{key}`"));
                        }
                    }
                    Ok(TraceEvent::$variant {
                        $($field: take_field!($field, field_key!($field $($key)?) $(, $mode)?),)+
                    })
                })+
                other => Err(format!("unknown event `{other}`")),
            }
        }
    };
}

trace_schema! {
    RunStarted "run_started" { strategy, seed, workloads, chaos, regime }
    CollectionFailed "collection_failed" { retryable }
    StaleServe "stale_serve" { age: "age_s" }
    DegradedDecision "degraded_decision" { age: "age_s" }
    DegradedInterval "degraded_interval" { duration: "duration_s" }
    Decision "decision" {
        kind, workload, previous, degraded, quarantined, candidates, placements,
    }
    Launched "launched" { workload, region, spot, instance }
    RequestOpen "request_open" { workload, region, blackout }
    RequestFailed "request_failed" { workload, region }
    Interrupted "interrupted" { workload, region, instance, billed }
    CheckpointSave "checkpoint_save" { workload, generation, units, recorded }
    CheckpointTorn "checkpoint_torn" { workload, generation }
    CheckpointRestore "checkpoint_restore" { workload, units, corrupt_dropped, scratch }
    Completed "completed" { workload, region, instance, billed }
    Breaker "breaker" { region, from, to }
    ChaosFault "chaos_fault" { kind, region }
    WorkloadsArrived "workloads_arrived" {
        batch, tenants: "tenant" [omit_empty], priorities: "priority" [omit_empty],
    }
    CapacityDeferred "capacity_deferred" { workload, region }
    WorkloadExpired "workload_expired" { workload, region, billed }
    ShardDispatched "shard_dispatched" { shard, attempt, cells }
    LeaseExpired "lease_expired" { shard, attempt }
    ShardRedriven "shard_redriven" { shard, attempt, backoff_s }
    ShardDeadLettered "shard_dead_lettered" { shard, attempts }
    ShardCompleted "shard_completed" { shard, attempt, duplicate }
    RunEnded "run_ended" { completed, aborted }
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
    out.push_str("\"seq\":");
    push_uint(out, record.seq);
    out.push_str(",\"t\":");
    push_uint(out, record.at.as_secs());
    out.push_str(",\"event\":");
    push_json_str(out, record.event.label());
    append_event_fields(out, &record.event);
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
/// [`TraceLine::Truncated`](crate::replay::TraceLine::Truncated).
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
        let mut tracer = Tracer::new(&TraceConfig::enabled());
        assert!(tracer.enabled());
        for i in 0..TRACE_CAPACITY as u64 + 2 {
            tracer.record(
                SimTime::from_secs(i),
                TraceEvent::CollectionFailed { retryable: true },
            );
        }
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.events.len(), TRACE_CAPACITY);
        assert_eq!(trace.dropped, 2);
        for (i, record) in trace.events.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
            assert_eq!(record.at, SimTime::from_secs(i as u64));
        }
    }

    #[test]
    fn retains_first_n_and_counts_overflow() {
        let mut tracer = Tracer::new(&TraceConfig::enabled());
        for i in 0..TRACE_CAPACITY as u64 + 3 {
            tracer.record(SimTime::from_secs(i), TraceEvent::RunEnded { completed: 0, aborted: false });
        }
        let trace = tracer.finish().unwrap();
        // The retained prefix is the first records, not the latest ones.
        assert_eq!(trace.events.first().map(|r| r.seq), Some(0));
        assert_eq!(trace.events.last().map(|r| r.seq), Some(TRACE_CAPACITY as u64 - 1));
        assert_eq!(trace.dropped, 3);
        let jsonl = trace_to_jsonl(&trace);
        assert_eq!(jsonl.lines().count(), TRACE_CAPACITY + 1);
        assert_eq!(jsonl.lines().last(), Some("{\"truncated\":true,\"dropped\":3}"));
    }

    #[test]
    fn iter_preserves_push_order() {
        let mut tracer = Tracer::new(&TraceConfig::enabled());
        // Emission order wins over timestamps: nothing is re-sorted.
        let pushed: Vec<(SimTime, TraceEvent)> = sample_records()
            .into_iter()
            .rev()
            .map(|r| (r.at, r.event))
            .collect();
        for (at, event) in pushed.clone() {
            tracer.record(at, event);
        }
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.dropped, 0);
        let seqs: Vec<u64> = trace.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let kept: Vec<(SimTime, TraceEvent)> =
            trace.events.into_iter().map(|r| (r.at, r.event)).collect();
        assert_eq!(kept, pushed);
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
        let record = TraceRecord {
            seq: 0,
            at: SimTime::ZERO,
            event: TraceEvent::RunStarted {
                strategy: "a\"b\\c\nd\u{1}".to_owned(),
                seed: 1,
                workloads: 1,
                chaos: None,
                regime: None,
            },
        };
        let mut out = String::new();
        append_record_json(&mut out, None, &record);
        assert!(out.contains(",\"strategy\":\"a\\\"b\\\\c\\nd\\u0001\","), "{out}");
        let parsed = crate::replay::parse_trace_line(&out).unwrap();
        assert_eq!(parsed, crate::replay::TraceLine::Record { cell: None, record });
    }
}
