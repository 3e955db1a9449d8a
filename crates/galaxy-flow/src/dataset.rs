//! Data formats — the output type of a workflow step.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_extensions() {
        assert_eq!(DataFormat::FastqGz.extension(), "fastq.gz");
        assert_eq!(DataFormat::Qza.extension(), "qza");
    }
}
