//! Read-side parsing of the canonical trace JSONL.
//!
//! [`parse_trace_line`] inverts `trace::append_record_json` exactly: every
//! event variant, every optional field, the merged-sweep `cell` prefix,
//! and the truncation marker line all decode back into typed values, so
//! `parse → re-serialize` is byte-identical for canonical input. This
//! module reads the record envelope; the per-variant decoder is generated
//! from the writer's own table (`trace_schema!` in `trace.rs`). Corrupt
//! input — truncated lines, bad JSON, unknown events or labels, wrong
//! field types, unexpected fields — fails with a structured error naming
//! the 1-based line number instead of panicking.

use std::fmt;

use sim_kernel::json::{self, Fields, JsonVal};
use sim_kernel::SimTime;

use crate::trace::{append_record_json, append_truncation_json, decode_event, TraceRecord};

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
        /// Records dropped once the trace reached its cap.
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
        assert!(parse_trace_line(
            "{\"seq\":0,\"t\":0,\"event\":\"lease_expired\",\"shard\":0,\"attempt\":4294967297}"
        )
        .unwrap_err()
        .contains("`attempt`: `4294967297` exceeds u32"));
    }
}
