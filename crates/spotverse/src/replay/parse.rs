//! Read-side parsing of the canonical trace JSONL.
//!
//! [`parse_trace_line`] inverts `trace::append_record_json` exactly: every
//! event variant, every optional field, the merged-sweep `cell` prefix,
//! and the truncation marker line all decode back into typed values, so
//! `parse → re-serialize` is byte-identical for canonical input. Corrupt
//! input — truncated lines, bad JSON, unknown events or labels, wrong
//! field types, unexpected fields — fails with a structured error naming
//! the 1-based line number instead of panicking.
//!
//! A line is decoded in one pass over its tokens, straight into a
//! [`TraceRecord`]: this module reads the record envelope (`cell`, `seq`,
//! `t`, `event`), then streams the rest of the object into the
//! per-variant decoder generated from the writer's own table
//! (`trace_schema!` in `trace.rs`). Keys are accepted in any order, so a
//! variant field written ahead of `event` is kept as raw text until the
//! label says how to read it. A document is split into lines at `\n` and
//! empty lines are skipped, by [`parse_trace_jsonl`] and the replay cursor
//! alike.

use std::borrow::Cow;
use std::fmt;

use sim_kernel::json::Scanner;
use sim_kernel::SimTime;

use crate::codec::{finish_field, read_field};
use crate::trace::{
    append_record_json, append_truncation_json, decode_event, TraceRecord, MAX_EVENT_FIELDS,
};

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
/// with the optional merged-sweep cell label. The label borrows from the
/// input unless it has escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine<'a> {
    /// A regular record.
    Record {
        /// The `"cell"` prefix of merged sweep traces, if present.
        cell: Option<Cow<'a, str>>,
        /// The typed record.
        record: TraceRecord,
    },
    /// The `{"truncated":true,...}` marker a capacity-capped trace ends
    /// with.
    Truncated {
        /// The `"cell"` prefix, if present.
        cell: Option<Cow<'a, str>>,
        /// Records dropped once the trace reached its cap.
        dropped: u64,
    },
}

impl TraceLine<'_> {
    /// The cell label, if any.
    pub fn cell(&self) -> Option<&str> {
        match self {
            TraceLine::Record { cell, .. } | TraceLine::Truncated { cell, .. } => cell.as_deref(),
        }
    }
}

/// Parses a whole canonical JSONL document, skipping empty lines.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first offending line.
pub fn parse_trace_jsonl(input: &str) -> Result<Vec<TraceLine<'_>>, TraceParseError> {
    input
        .split('\n')
        .enumerate()
        .filter_map(|(i, line)| decode_numbered(line, i + 1).transpose())
        .collect()
}

/// Decodes line `number` (1-based) of a document: the one rule both
/// [`parse_trace_jsonl`] and the replay cursor split by. An empty line
/// holds nothing.
pub(crate) fn decode_numbered(
    line: &str,
    number: usize,
) -> Result<Option<TraceLine<'_>>, TraceParseError> {
    if line.is_empty() {
        return Ok(None);
    }
    parse_trace_line(line).map(Some).map_err(|message| TraceParseError { line: number, message })
}

/// The keys every line may carry besides its event's fields.
#[derive(Default)]
struct Envelope<'a> {
    cell: Option<Cow<'a, str>>,
    seq: Option<u64>,
    t: Option<u64>,
    truncated: Option<bool>,
}

impl<'a> Envelope<'a> {
    /// Reads the value of `key` if it is an envelope key other than
    /// `event`; returns whether it was.
    fn read(&mut self, key: &str, r: &mut Scanner<'a>) -> Result<bool, String> {
        match key {
            "cell" => {
                if self.cell.is_some() {
                    return Err("duplicate key `cell`".to_owned());
                }
                self.cell = Some(r.read_str().map_err(|e| format!("`cell`: {e}"))?);
            }
            "seq" => read_field(&mut self.seq, key, r)?,
            "t" => read_field(&mut self.t, key, r)?,
            "truncated" => {
                read_field(&mut self.truncated, key, r)?;
                if self.truncated == Some(false) {
                    return Err("`truncated` must be true".to_owned());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Rejects `key` when `present`: an envelope key that a line of the other
/// kind carries.
fn reject(present: bool, key: &str) -> Result<(), String> {
    if present {
        Err(format!("unexpected field `{key}`"))
    } else {
        Ok(())
    }
}

/// Parses one canonical JSONL line. The error is a bare message; callers
/// that know the line number wrap it in [`TraceParseError`].
///
/// The line is decoded in one pass. The envelope keys are read as they
/// come; the event's fields stream into its decoder once `event` names
/// it. Fields ahead of `event` (never in canonical lines, which reach it
/// within their first four keys) wait as raw text in a stack buffer: an
/// accepted line has no more of them than the largest event has fields.
pub fn parse_trace_line(line: &str) -> Result<TraceLine<'_>, String> {
    let mut r = Scanner::new(line);
    let mut envelope = Envelope::default();
    let mut before = [const { (Cow::Borrowed(""), "") }; MAX_EVENT_FIELDS];
    let mut waiting = 0;
    r.begin_object()?;
    // A canonical line spells these keys exactly, in this order.
    for key in ["cell", "seq", "t"] {
        if r.next_key_is(key) {
            envelope.read(key, &mut r)?;
        }
    }
    if !r.next_key_is("event") {
        loop {
            let Some(key) = r.next_key()? else {
                r.finish()?;
                return truncation(envelope, &before[..waiting]);
            };
            if envelope.read(&key, &mut r)? {
                continue;
            }
            if key == "event" {
                break;
            }
            if waiting == before.len() {
                return Err(format!("unexpected field `{key}`"));
            }
            before[waiting] = (key, r.skip_value()?);
            waiting += 1;
        }
    }
    reject(envelope.truncated.is_some(), "event")?;
    let label = r.read_str().map_err(|e| format!("`event`: {e}"))?;
    let event = decode_event(&label, &before[..waiting], &mut r, |key, r| {
        if key == "event" {
            return Err("duplicate key `event`".to_owned());
        }
        envelope.read(key, r)
    })?;
    r.finish()?;
    reject(envelope.truncated.is_some(), "truncated")?;
    let seq = finish_field(envelope.seq, "seq")?;
    let at = SimTime::from_secs(finish_field(envelope.t, "t")?);
    let record = TraceRecord { seq, at, event };
    Ok(TraceLine::Record { cell: envelope.cell, record })
}

/// The rest of a line read to its end without an `event`: the
/// truncation marker, or a record without its label. `before` holds the
/// line's keys that are not envelope keys.
fn truncation<'a>(
    envelope: Envelope<'a>,
    before: &[(Cow<'a, str>, &'a str)],
) -> Result<TraceLine<'a>, String> {
    if envelope.truncated.is_none() {
        finish_field(envelope.seq, "seq")?;
        finish_field(envelope.t, "t")?;
        return Err("missing field `event`".to_owned());
    }
    reject(envelope.seq.is_some(), "seq")?;
    reject(envelope.t.is_some(), "t")?;
    let mut dropped = None;
    for (key, text) in before {
        reject(key != "dropped", key)?;
        read_field(&mut dropped, key, &mut Scanner::new(text))?;
    }
    let dropped = finish_field(dropped, "dropped")?;
    Ok(TraceLine::Truncated { cell: envelope.cell, dropped })
}

/// Re-serializes parsed lines to canonical JSONL (each line
/// newline-terminated). `trace_lines_to_jsonl(parse_trace_jsonl(doc))`
/// is byte-identical to `doc` for canonical input.
#[must_use]
pub fn trace_lines_to_jsonl(lines: &[TraceLine<'_>]) -> String {
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
