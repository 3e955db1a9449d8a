//! Checkpoint persistence.
//!
//! Galaxy has no native checkpointing (the paper works around this, §4);
//! SpotVerse persists per-workload shard progress to a durable store so any
//! replacement instance — in any region — resumes from the last completed
//! unit. [`CheckpointStore`] is the abstraction; an in-memory implementation
//! lives here, and the SpotVerse crate provides a KV-store-backed one.

use std::collections::BTreeMap;
use std::fmt;

use sim_kernel::SimTime;

/// A persisted progress record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Completed units.
    pub units_done: usize,
    /// When the record was written.
    pub updated_at: SimTime,
}

/// Checkpoint-store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The backing store rejected the operation.
    Backend(String),
    /// A record would move progress backwards (stale writer).
    StaleWrite {
        /// Workload key.
        workload: String,
        /// Units in the incoming record.
        incoming: usize,
        /// Units already persisted.
        persisted: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Backend(msg) => write!(f, "checkpoint backend error: {msg}"),
            CheckpointError::StaleWrite {
                workload,
                incoming,
                persisted,
            } => write!(
                f,
                "stale checkpoint for `{workload}`: incoming {incoming} < persisted {persisted}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Durable storage for workload progress.
///
/// Implementations must be monotone: a save that would lower `units_done`
/// for a workload is rejected with [`CheckpointError::StaleWrite`] — a
/// replacement instance must never resume behind the true frontier.
pub trait CheckpointStore {
    /// Persists (or advances) a workload's progress.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::StaleWrite`] for non-monotone saves and
    /// [`CheckpointError::Backend`] for store failures.
    fn save(&mut self, workload: &str, record: CheckpointRecord) -> Result<(), CheckpointError>;

    /// Loads a workload's latest progress, if any.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Backend`] for store failures.
    fn load(&self, workload: &str) -> Result<Option<CheckpointRecord>, CheckpointError>;

    /// Removes a workload's record (e.g. after completion).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Backend`] for store failures.
    fn clear(&mut self, workload: &str) -> Result<(), CheckpointError>;
}

/// A process-local checkpoint store (testing, single-instance runs).
///
/// # Examples
///
/// ```
/// use galaxy_flow::{CheckpointRecord, CheckpointStore, InMemoryCheckpointStore};
/// use sim_kernel::SimTime;
///
/// let mut store = InMemoryCheckpointStore::new();
/// store.save("w-1", CheckpointRecord { units_done: 3, updated_at: SimTime::ZERO })?;
/// assert_eq!(store.load("w-1")?.unwrap().units_done, 3);
/// # Ok::<(), galaxy_flow::CheckpointError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InMemoryCheckpointStore {
    records: BTreeMap<String, CheckpointRecord>,
}

impl InMemoryCheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        InMemoryCheckpointStore::default()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl CheckpointStore for InMemoryCheckpointStore {
    fn save(&mut self, workload: &str, record: CheckpointRecord) -> Result<(), CheckpointError> {
        if let Some(existing) = self.records.get(workload) {
            if record.units_done < existing.units_done {
                return Err(CheckpointError::StaleWrite {
                    workload: workload.to_owned(),
                    incoming: record.units_done,
                    persisted: existing.units_done,
                });
            }
        }
        self.records.insert(workload.to_owned(), record);
        Ok(())
    }

    fn load(&self, workload: &str) -> Result<Option<CheckpointRecord>, CheckpointError> {
        Ok(self.records.get(workload).copied())
    }

    fn clear(&mut self, workload: &str) -> Result<(), CheckpointError> {
        self.records.remove(workload);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(units: usize, at: u64) -> CheckpointRecord {
        CheckpointRecord {
            units_done: units,
            updated_at: SimTime::from_secs(at),
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let mut s = InMemoryCheckpointStore::new();
        assert_eq!(s.load("w").unwrap(), None);
        s.save("w", rec(2, 10)).unwrap();
        assert_eq!(s.load("w").unwrap().unwrap().units_done, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn monotonicity_enforced() {
        let mut s = InMemoryCheckpointStore::new();
        s.save("w", rec(5, 10)).unwrap();
        let err = s.save("w", rec(3, 20)).unwrap_err();
        assert!(matches!(err, CheckpointError::StaleWrite { persisted: 5, .. }));
        // Equal progress is fine (fresh timestamp).
        s.save("w", rec(5, 30)).unwrap();
        assert_eq!(s.load("w").unwrap().unwrap().updated_at, SimTime::from_secs(30));
    }

    #[test]
    fn clear_removes_record() {
        let mut s = InMemoryCheckpointStore::new();
        s.save("w", rec(1, 0)).unwrap();
        s.clear("w").unwrap();
        assert_eq!(s.load("w").unwrap(), None);
        assert!(s.is_empty());
        // Clearing a missing record is a no-op.
        s.clear("ghost").unwrap();
    }

    #[test]
    fn records_are_per_workload() {
        let mut s = InMemoryCheckpointStore::new();
        s.save("a", rec(1, 0)).unwrap();
        s.save("b", rec(9, 0)).unwrap();
        assert_eq!(s.load("a").unwrap().unwrap().units_done, 1);
        assert_eq!(s.load("b").unwrap().unwrap().units_done, 9);
    }
}
