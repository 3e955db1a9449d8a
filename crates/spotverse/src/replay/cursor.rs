//! Incremental replay cursor.
//!
//! [`ReplayCursor`] consumes JSONL text in arbitrary chunks — lines may
//! be split anywhere, including mid-escape — buffers the trailing
//! partial line, and folds each completed line into a [`ReplayState`].
//! Because every view is a pure fold, the final state is identical for
//! any chunking of the same document. Lines are split and numbered by the
//! same rule as `parse_trace_jsonl`, and each is folded under its cell
//! label borrowed from the line, so a line costs only its record's own
//! owned fields.

use super::parse::{decode_numbered, TraceParseError};
use super::views::{ReplayState, TimeWindow};

/// An incremental trace replayer; the default folds every record.
#[derive(Debug, Default)]
pub struct ReplayCursor {
    window: TimeWindow,
    /// Cell key assigned to records with no `"cell"` prefix (used by the
    /// CLI to keep multi-file inputs apart), `""` unless set.
    default_cell: String,
    /// Trailing bytes of an incomplete line from the previous chunk.
    partial: String,
    /// Lines fully consumed so far (1-based numbering of the *next* line
    /// is `consumed + 1`).
    consumed: u64,
    state: ReplayState,
}

impl ReplayCursor {
    /// A fresh cursor folding records inside `window`.
    #[must_use]
    pub fn new(window: TimeWindow) -> Self {
        ReplayCursor { window, ..ReplayCursor::default() }
    }

    /// Sets the cell key used for records with no `"cell"` prefix
    /// (`None` restores `""`).
    pub fn set_default_cell(&mut self, cell: Option<String>) {
        self.default_cell = cell.unwrap_or_default();
    }

    fn consume_line(&mut self, line: &str) -> Result<(), TraceParseError> {
        self.consumed += 1;
        let number = usize::try_from(self.consumed).unwrap_or(usize::MAX);
        if let Some(line) = decode_numbered(line, number)? {
            self.state.fold_line(&line, &self.default_cell, self.window);
        }
        Ok(())
    }

    /// Feeds one chunk of JSONL text. Complete lines are folded
    /// immediately; a trailing unterminated line is buffered for the
    /// next chunk (or [`ReplayCursor::finish`]).
    ///
    /// # Errors
    ///
    /// Returns the first malformed line, numbered across all chunks fed
    /// so far. The cursor is left positioned after the bad line.
    pub fn feed(&mut self, chunk: &str) -> Result<(), TraceParseError> {
        let mut rest = chunk;
        while let Some(nl) = rest.find('\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.partial.is_empty() {
                self.consume_line(head)?;
            } else {
                let mut line = std::mem::take(&mut self.partial);
                line.push_str(head);
                self.consume_line(&line)?;
            }
        }
        self.partial.push_str(rest);
        Ok(())
    }

    /// Flushes a buffered final line without a trailing newline and
    /// returns the finished state.
    ///
    /// # Errors
    ///
    /// Returns the parse failure of the flushed line, if any.
    pub fn finish(mut self) -> Result<ReplayState, TraceParseError> {
        if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            self.consume_line(&line)?;
        }
        Ok(self.state)
    }
}

/// Replays a whole document through a fresh cursor in one pass.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn replay_str(input: &str, window: TimeWindow) -> Result<ReplayState, TraceParseError> {
    let mut cursor = ReplayCursor::new(window);
    cursor.feed(input)?;
    cursor.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = concat!(
        "{\"seq\":0,\"t\":86400,\"event\":\"run_started\",\"strategy\":\"spotverse\",\"seed\":2024,\"workloads\":3}\n",
        "{\"seq\":1,\"t\":86400,\"event\":\"launched\",\"workload\":0,\"region\":\"us-east-1\",\"spot\":true,\"instance\":\"i-00000001\"}\n",
        "{\"seq\":2,\"t\":90000,\"event\":\"completed\",\"workload\":0,\"region\":\"us-east-1\",\"instance\":\"i-00000001\",\"billed\":2.25}\n",
        "{\"seq\":3,\"t\":90060,\"event\":\"run_ended\",\"completed\":3,\"aborted\":false}\n",
    );

    #[test]
    fn chunked_equals_single_pass() {
        let whole = replay_str(DOC, TimeWindow::ALL).unwrap();
        for split in [1usize, 17, 80, 81, 82, DOC.len() - 1] {
            let mut cursor = ReplayCursor::default();
            cursor.feed(&DOC[..split]).unwrap();
            cursor.feed(&DOC[split..]).unwrap();
            assert_eq!(cursor.finish().unwrap(), whole, "split at {split}");
        }
    }

    #[test]
    fn errors_carry_global_line_numbers() {
        let mut cursor = ReplayCursor::default();
        cursor.feed(DOC).unwrap();
        let err = cursor.feed("garbage\n").unwrap_err();
        assert_eq!(err.line, 5);
    }

    #[test]
    fn default_cell_labels_unprefixed_records() {
        let mut cursor = ReplayCursor::default();
        cursor.set_default_cell(Some("fileA".to_owned()));
        cursor.feed(DOC).unwrap();
        let state = cursor.finish().unwrap();
        assert_eq!(state.cells.len(), 1);
        assert_eq!(state.cells[0].0, "fileA");
    }
}
