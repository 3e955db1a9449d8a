//! Read-side parsing of the canonical trace JSONL.
//!
//! [`parse_trace_line`] inverts `trace::append_record_json` exactly: every
//! event variant, every optional field, the merged-sweep `cell` prefix,
//! and the truncation marker line all decode back into typed values, so
//! `parse → re-serialize` is byte-identical for canonical input. Corrupt
//! input — truncated lines, bad JSON, unknown events or labels, wrong
//! field types, unexpected fields — fails with a structured error naming
//! the 1-based line number instead of panicking.

use std::fmt;
use std::str::FromStr;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::{SimDuration, SimTime};

use crate::optimizer::{CandidateOutcome, CandidateVerdict, Placement};
use crate::trace::{
    append_record_json, append_truncation_json, DecisionKind, TraceEvent, TraceRecord,
};

use super::json::{self, Fields, JsonVal};

/// A structured parse failure: which line, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the JSONL document.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// One parsed JSONL line: a trace record or the truncation marker, each
/// with the optional merged-sweep cell label.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// A regular record.
    Record {
        /// The `"cell"` prefix of merged sweep traces, if present.
        cell: Option<String>,
        /// The typed record.
        record: TraceRecord,
    },
    /// The `{"truncated":true,...}` marker a capacity-capped trace ends
    /// with.
    Truncated {
        /// The `"cell"` prefix, if present.
        cell: Option<String>,
        /// Records dropped once the ring buffer filled.
        dropped: u64,
    },
}

impl TraceLine {
    /// The cell label, if any.
    pub fn cell(&self) -> Option<&str> {
        match self {
            TraceLine::Record { cell, .. } | TraceLine::Truncated { cell, .. } => cell.as_deref(),
        }
    }
}

/// Parses one canonical JSONL line. The error is a bare message; callers
/// that know the line number wrap it in [`TraceParseError`].
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    let obj = json::parse(line)?.into_obj()?;
    let mut fields = Fields::new(obj);
    let cell = fields.take("cell").map(JsonVal::into_string).transpose()?;
    if let Some(truncated) = fields.take("truncated") {
        if !truncated.as_bool()? {
            return Err("`truncated` must be true".to_owned());
        }
        let dropped = fields.require("dropped")?.as_u64()?;
        fields.finish()?;
        return Ok(TraceLine::Truncated { cell, dropped });
    }
    let seq = fields.require("seq")?.as_u64()?;
    let at = SimTime::from_secs(fields.require("t")?.as_u64()?);
    let label = fields.require("event")?;
    let event = decode_event(label.as_str()?, &mut fields)?;
    fields.finish()?;
    Ok(TraceLine::Record { cell, record: TraceRecord { seq, at, event } })
}

/// Parses a whole canonical JSONL document.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first offending line.
pub fn parse_trace_jsonl(input: &str) -> Result<Vec<TraceLine>, TraceParseError> {
    input
        .lines()
        .enumerate()
        .map(|(i, line)| {
            parse_trace_line(line).map_err(|message| TraceParseError { line: i + 1, message })
        })
        .collect()
}

/// Re-serializes parsed lines to canonical JSONL (each line
/// newline-terminated). `trace_lines_to_jsonl(parse_trace_jsonl(doc))`
/// is byte-identical to `doc` for canonical input.
#[must_use]
pub fn trace_lines_to_jsonl(lines: &[TraceLine]) -> String {
    let mut out = String::new();
    for line in lines {
        match line {
            TraceLine::Record { cell, record } => {
                append_record_json(&mut out, cell.as_deref(), record);
            }
            TraceLine::Truncated { cell, dropped } => {
                append_truncation_json(&mut out, cell.as_deref(), *dropped);
            }
        }
        out.push('\n');
    }
    out
}

fn region_named(name: &str) -> Result<Region, String> {
    Region::from_str(name).map_err(|_| format!("unknown region `{name}`"))
}

fn decode_region(v: JsonVal<'_>) -> Result<Region, String> {
    region_named(v.as_str()?)
}

fn decode_opt_region(fields: &mut Fields<'_>, key: &str) -> Result<Option<Region>, String> {
    fields.take(key).map(decode_region).transpose()
}

fn decode_workload(fields: &mut Fields<'_>) -> Result<usize, String> {
    fields.require("workload")?.as_usize()
}

fn decode_instance(v: JsonVal<'_>) -> Result<InstanceId, String> {
    let s = v.as_str()?;
    let hex = s
        .strip_prefix("i-")
        .ok_or_else(|| format!("instance id `{s}` does not start with `i-`"))?;
    u64::from_str_radix(hex, 16)
        .map(InstanceId::from_raw)
        .map_err(|_| format!("instance id `{s}` is not hex"))
}

fn decode_placement(v: JsonVal<'_>) -> Result<Placement, String> {
    let s = v.as_str()?;
    if let Some(region) = s.strip_prefix("spot:") {
        return region_named(region).map(Placement::Spot);
    }
    if let Some(region) = s.strip_prefix("od:") {
        return region_named(region).map(Placement::OnDemand);
    }
    Err(format!("placement `{s}` is neither `spot:<region>` nor `od:<region>`"))
}

fn decode_candidate_outcome(v: JsonVal<'_>) -> Result<CandidateOutcome, String> {
    let s = v.as_str()?;
    if let Some(rank) = s.strip_prefix("selected:") {
        let rank = rank
            .parse::<usize>()
            .map_err(|_| format!("selected rank `{rank}` is not an integer"))?;
        return Ok(CandidateOutcome::Selected { rank });
    }
    match s {
        "quarantined" => Ok(CandidateOutcome::Quarantined),
        "not-preferred" => Ok(CandidateOutcome::NotPreferred),
        "below-threshold" => Ok(CandidateOutcome::BelowThreshold),
        "over-cap" => Ok(CandidateOutcome::OverCap),
        "interrupted-here" => Ok(CandidateOutcome::InterruptedHere),
        other => Err(format!("unknown candidate outcome `{other}`")),
    }
}

fn decode_candidates(v: JsonVal<'_>) -> Result<Vec<CandidateVerdict>, String> {
    v.into_arr()?
        .into_iter()
        .map(|item| {
            let mut fields = Fields::new(item.into_obj()?);
            let region = decode_region(fields.require("region")?)?;
            let combined = fields.require("combined")?.as_u64()?;
            let combined = u8::try_from(combined)
                .map_err(|_| format!("combined score {combined} exceeds u8"))?;
            let spot_price = fields.require("price")?.as_f64()?;
            let outcome = decode_candidate_outcome(fields.require("outcome")?)?;
            fields.finish()?;
            Ok(CandidateVerdict { region, combined, spot_price, outcome })
        })
        .collect()
}

/// The four fault labels the controller emits today. Parsing maps back to
/// the `&'static str` the event carries; an unknown label is a corrupt
/// (or newer-schema) trace.
const CHAOS_FAULT_KINDS: [&str; 4] =
    ["spot_blackout", "chaos_interruption", "notice_shortened", "checkpoint_corruption"];

fn decode_chaos_kind(v: JsonVal<'_>) -> Result<&'static str, String> {
    let s = v.as_str()?;
    CHAOS_FAULT_KINDS
        .iter()
        .find(|k| **k == s)
        .copied()
        .ok_or_else(|| format!("unknown chaos fault kind `{s}`"))
}

fn decode_priority_label(v: JsonVal<'_>) -> Result<&'static str, String> {
    let s = v.as_str()?;
    ["batch", "standard", "interactive"]
        .iter()
        .find(|p| **p == s)
        .copied()
        .ok_or_else(|| format!("unknown priority `{s}`"))
}

fn decode_duration_secs(fields: &mut Fields<'_>, key: &str) -> Result<SimDuration, String> {
    Ok(SimDuration::from_secs(fields.require(key)?.as_u64()?))
}

fn decode_event(label: &str, fields: &mut Fields<'_>) -> Result<TraceEvent, String> {
    match label {
        "run_started" => Ok(TraceEvent::RunStarted {
            strategy: fields.require("strategy")?.into_string()?,
            seed: fields.require("seed")?.as_u64()?,
            workloads: fields.require("workloads")?.as_usize()?,
            chaos: fields.take("chaos").map(JsonVal::into_string).transpose()?,
            regime: fields.take("regime").map(JsonVal::into_string).transpose()?,
        }),
        "collection_failed" => Ok(TraceEvent::CollectionFailed {
            retryable: fields.require("retryable")?.as_bool()?,
        }),
        "stale_serve" => Ok(TraceEvent::StaleServe { age: decode_duration_secs(fields, "age_s")? }),
        "degraded_decision" => {
            Ok(TraceEvent::DegradedDecision { age: decode_duration_secs(fields, "age_s")? })
        }
        "degraded_interval" => Ok(TraceEvent::DegradedInterval {
            duration: decode_duration_secs(fields, "duration_s")?,
        }),
        "decision" => {
            let kind = match fields.require("kind")?.as_str()? {
                "initial" => DecisionKind::Initial,
                "migration" => DecisionKind::Migration,
                other => return Err(format!("unknown decision kind `{other}`")),
            };
            let workload = fields.take("workload").map(|v| v.as_usize()).transpose()?;
            let previous = decode_opt_region(fields, "previous")?;
            let degraded = fields.require("degraded")?.as_bool()?;
            let quarantined = fields
                .require("quarantined")?
                .into_arr()?
                .into_iter()
                .map(decode_region)
                .collect::<Result<Vec<_>, _>>()?;
            let candidates = fields.take("candidates").map(decode_candidates).transpose()?;
            let placements = fields
                .require("placements")?
                .into_arr()?
                .into_iter()
                .map(decode_placement)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TraceEvent::Decision {
                kind,
                workload,
                previous,
                degraded,
                quarantined,
                candidates,
                placements,
            })
        }
        "launched" => Ok(TraceEvent::Launched {
            workload: decode_workload(fields)?,
            region: decode_region(fields.require("region")?)?,
            spot: fields.require("spot")?.as_bool()?,
            instance: decode_instance(fields.require("instance")?)?,
        }),
        "request_open" => Ok(TraceEvent::RequestOpen {
            workload: decode_workload(fields)?,
            region: decode_region(fields.require("region")?)?,
            blackout: fields.require("blackout")?.as_bool()?,
        }),
        "request_failed" => Ok(TraceEvent::RequestFailed {
            workload: decode_workload(fields)?,
            region: decode_region(fields.require("region")?)?,
        }),
        "interrupted" => Ok(TraceEvent::Interrupted {
            workload: decode_workload(fields)?,
            region: decode_region(fields.require("region")?)?,
            instance: decode_instance(fields.require("instance")?)?,
            billed: fields.require("billed")?.as_f64()?,
        }),
        "completed" => Ok(TraceEvent::Completed {
            workload: decode_workload(fields)?,
            region: decode_region(fields.require("region")?)?,
            instance: decode_instance(fields.require("instance")?)?,
            billed: fields.require("billed")?.as_f64()?,
        }),
        "checkpoint_save" => Ok(TraceEvent::CheckpointSave {
            workload: decode_workload(fields)?,
            generation: fields.require("generation")?.as_u64()?,
            units: fields.require("units")?.as_usize()?,
            recorded: fields.require("recorded")?.as_bool()?,
        }),
        "checkpoint_torn" => Ok(TraceEvent::CheckpointTorn {
            workload: decode_workload(fields)?,
            generation: fields.require("generation")?.as_u64()?,
        }),
        "checkpoint_restore" => Ok(TraceEvent::CheckpointRestore {
            workload: decode_workload(fields)?,
            units: fields.require("units")?.as_usize()?,
            corrupt_dropped: fields.require("corrupt_dropped")?.as_u64()?,
            scratch: fields.require("scratch")?.as_bool()?,
        }),
        "breaker" => Ok(TraceEvent::Breaker {
            region: decode_region(fields.require("region")?)?,
            from: fields.require("from")?.as_str()?.parse()?,
            to: fields.require("to")?.as_str()?.parse()?,
        }),
        "chaos_fault" => Ok(TraceEvent::ChaosFault {
            kind: decode_chaos_kind(fields.require("kind")?)?,
            region: decode_opt_region(fields, "region")?,
        }),
        "workloads_arrived" => Ok(TraceEvent::WorkloadsArrived {
            batch: fields
                .require("batch")?
                .into_arr()?
                .into_iter()
                .map(|v| v.as_usize())
                .collect::<Result<Vec<_>, _>>()?,
            tenants: match fields.take("tenant") {
                None => Vec::new(),
                Some(v) => v
                    .into_arr()?
                    .into_iter()
                    .map(JsonVal::into_string)
                    .collect::<Result<Vec<_>, _>>()?,
            },
            priorities: match fields.take("priority") {
                None => Vec::new(),
                Some(v) => v
                    .into_arr()?
                    .into_iter()
                    .map(decode_priority_label)
                    .collect::<Result<Vec<_>, _>>()?,
            },
        }),
        "capacity_deferred" => Ok(TraceEvent::CapacityDeferred {
            workload: decode_workload(fields)?,
            region: decode_region(fields.require("region")?)?,
        }),
        "workload_expired" => Ok(TraceEvent::WorkloadExpired {
            workload: decode_workload(fields)?,
            region: decode_opt_region(fields, "region")?,
            billed: fields.take("billed").map(|v| v.as_f64()).transpose()?,
        }),
        "shard_dispatched" => Ok(TraceEvent::ShardDispatched {
            shard: fields.require("shard")?.as_usize()?,
            attempt: fields.require("attempt")?.as_u64()? as u32,
            cells: fields.require("cells")?.as_usize()?,
        }),
        "lease_expired" => Ok(TraceEvent::LeaseExpired {
            shard: fields.require("shard")?.as_usize()?,
            attempt: fields.require("attempt")?.as_u64()? as u32,
        }),
        "shard_redriven" => Ok(TraceEvent::ShardRedriven {
            shard: fields.require("shard")?.as_usize()?,
            attempt: fields.require("attempt")?.as_u64()? as u32,
            backoff_s: fields.require("backoff_s")?.as_u64()?,
        }),
        "shard_dead_lettered" => Ok(TraceEvent::ShardDeadLettered {
            shard: fields.require("shard")?.as_usize()?,
            attempts: fields.require("attempts")?.as_u64()? as u32,
        }),
        "shard_completed" => Ok(TraceEvent::ShardCompleted {
            shard: fields.require("shard")?.as_usize()?,
            attempt: fields.require("attempt")?.as_u64()? as u32,
            duplicate: fields.require("duplicate")?.as_bool()?,
        }),
        "run_ended" => Ok(TraceEvent::RunEnded {
            completed: fields.require("completed")?.as_usize()?,
            aborted: fields.require("aborted")?.as_bool()?,
        }),
        other => Err(format!("unknown event `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_round_trips() {
        let line = "{\"cell\":\"spotverse/s7\",\"seq\":3,\"t\":86400,\"event\":\"launched\",\
                    \"workload\":0,\"region\":\"ap-northeast-3\",\"spot\":true,\
                    \"instance\":\"i-00000001\"}";
        let parsed = parse_trace_line(line).unwrap();
        assert_eq!(parsed.cell(), Some("spotverse/s7"));
        assert_eq!(trace_lines_to_jsonl(&[parsed]), format!("{line}\n"));
    }

    #[test]
    fn truncation_marker_round_trips() {
        let line = "{\"truncated\":true,\"dropped\":12}";
        let parsed = parse_trace_line(line).unwrap();
        assert_eq!(parsed, TraceLine::Truncated { cell: None, dropped: 12 });
        assert_eq!(trace_lines_to_jsonl(std::slice::from_ref(&parsed)), format!("{line}\n"));
    }

    #[test]
    fn corrupt_lines_name_the_line_number() {
        let doc = "{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1,\"aborted\":false}\n\
                   {\"seq\":1,\"t\":5,\"event\":\"laun";
        let err = parse_trace_jsonl(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("trace line 2:"), "{err}");
    }

    #[test]
    fn unexpected_fields_and_labels_are_rejected() {
        assert!(parse_trace_line(
            "{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1,\"aborted\":false,\"x\":1}"
        )
        .unwrap_err()
        .contains("unexpected field `x`"));
        assert!(parse_trace_line("{\"seq\":0,\"t\":0,\"event\":\"warp\"}")
            .unwrap_err()
            .contains("unknown event"));
        assert!(parse_trace_line(
            "{\"seq\":0,\"t\":0,\"event\":\"breaker\",\"region\":\"mars-1\",\"from\":\"closed\",\"to\":\"open\"}"
        )
        .unwrap_err()
        .contains("unknown region"));
        assert!(parse_trace_line("{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1}")
            .unwrap_err()
            .contains("missing field `aborted`"));
    }
}
