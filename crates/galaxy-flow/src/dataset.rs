//! Datasets and histories — Galaxy's data model.
//!
//! A *history* is Galaxy's per-analysis workspace: every workflow step
//! appends its output datasets to the invoking history.

use std::fmt;

use sim_kernel::SimTime;

/// Identifier of a dataset within a Galaxy instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatasetId(u64);

impl DatasetId {
    pub(crate) fn new(raw: u64) -> Self {
        DatasetId(raw)
    }

    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dataset/{}", self.0)
    }
}

/// Data formats appearing in the paper's workflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DataFormat {
    Fastq,
    FastqGz,
    Vcf,
    Fasta,
    Qza,
    Tabular,
    Html,
    Json,
    Sra,
}

impl DataFormat {
    /// The conventional file extension.
    pub fn extension(self) -> &'static str {
        match self {
            DataFormat::Fastq => "fastq",
            DataFormat::FastqGz => "fastq.gz",
            DataFormat::Vcf => "vcf",
            DataFormat::Fasta => "fasta",
            DataFormat::Qza => "qza",
            DataFormat::Tabular => "tabular",
            DataFormat::Html => "html",
            DataFormat::Json => "json",
            DataFormat::Sra => "sra",
        }
    }
}

/// A dataset: named, formatted, sized.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    id: DatasetId,
    name: String,
    format: DataFormat,
    size_gib: f64,
}

impl Dataset {
    pub(crate) fn new(id: DatasetId, name: String, format: DataFormat, size_gib: f64) -> Self {
        assert!(size_gib >= 0.0, "Dataset: negative size");
        Dataset {
            id,
            name,
            format,
            size_gib,
        }
    }

    /// The dataset id.
    pub fn id(&self) -> DatasetId {
        self.id
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Format.
    pub fn format(&self) -> DataFormat {
        self.format
    }

    /// Size in GiB.
    pub fn size_gib(&self) -> f64 {
        self.size_gib
    }
}

/// One entry in a history: a dataset plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryItem {
    /// The dataset.
    pub dataset: Dataset,
    /// When it was created.
    pub created_at: SimTime,
    /// The workflow step (label) that produced it, if any.
    pub produced_by: Option<String>,
}

/// A Galaxy history: an ordered log of datasets.
///
/// # Examples
///
/// ```
/// use galaxy_flow::{DataFormat, History};
/// use sim_kernel::SimTime;
///
/// let mut history = History::new("NGS run 1");
/// let id = history.add_dataset("reads", DataFormat::FastqGz, 1.0, SimTime::ZERO, None);
/// assert_eq!(history.get(id).unwrap().name(), "reads");
/// assert_eq!(history.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    name: String,
    items: Vec<HistoryItem>,
    next_dataset: u64,
}

impl History {
    /// Creates an empty history.
    pub fn new(name: impl Into<String>) -> Self {
        History {
            name: name.into(),
            items: Vec::new(),
            next_dataset: 1,
        }
    }

    /// The history name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a dataset, returning its id.
    pub fn add_dataset(
        &mut self,
        name: impl Into<String>,
        format: DataFormat,
        size_gib: f64,
        at: SimTime,
        produced_by: Option<String>,
    ) -> DatasetId {
        let id = DatasetId::new(self.next_dataset);
        self.next_dataset += 1;
        self.items.push(HistoryItem {
            dataset: Dataset::new(id, name.into(), format, size_gib),
            created_at: at,
            produced_by,
        });
        id
    }

    /// Looks up a dataset by id.
    pub fn get(&self, id: DatasetId) -> Option<&Dataset> {
        self.items
            .iter()
            .find(|item| item.dataset.id() == id)
            .map(|item| &item.dataset)
    }

    /// Iterates over items in creation order.
    pub fn iter(&self) -> std::slice::Iter<'_, HistoryItem> {
        self.items.iter()
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the history holds no datasets.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total stored size in GiB.
    pub fn total_size_gib(&self) -> f64 {
        self.items.iter().map(|i| i.dataset.size_gib()).sum()
    }
}

impl<'a> IntoIterator for &'a History {
    type Item = &'a HistoryItem;
    type IntoIter = std::slice::Iter<'a, HistoryItem>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_dataset() {
        let mut h = History::new("h");
        let id = h.add_dataset("x", DataFormat::Vcf, 0.25, SimTime::from_secs(10), Some("step-1".into()));
        let d = h.get(id).unwrap();
        assert_eq!(d.format(), DataFormat::Vcf);
        assert_eq!(d.size_gib(), 0.25);
        assert_eq!(h.iter().next().unwrap().produced_by.as_deref(), Some("step-1"));
        assert_eq!(h.name(), "h");
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut h = History::new("h");
        let a = h.add_dataset("a", DataFormat::Fasta, 0.1, SimTime::ZERO, None);
        let b = h.add_dataset("b", DataFormat::Fasta, 0.1, SimTime::ZERO, None);
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(h.get(DatasetId::new(99)), None);
    }

    #[test]
    fn total_size_accumulates() {
        let mut h = History::new("h");
        h.add_dataset("a", DataFormat::FastqGz, 1.0, SimTime::ZERO, None);
        h.add_dataset("b", DataFormat::Html, 0.5, SimTime::ZERO, None);
        assert!((h.total_size_gib() - 1.5).abs() < 1e-12);
        assert_eq!((&h).into_iter().count(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    fn format_extensions() {
        assert_eq!(DataFormat::FastqGz.extension(), "fastq.gz");
        assert_eq!(DataFormat::Qza.extension(), "qza");
    }

    #[test]
    fn display_formats() {
        assert_eq!(DatasetId::new(3).to_string(), "dataset/3");
    }
}
