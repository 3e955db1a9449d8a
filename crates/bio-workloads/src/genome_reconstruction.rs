//! The Galaxy-specific standard workload: SARS-CoV-2 Genome Reconstruction
//! (paper §5.1.1).
//!
//! A 23-step workflow that processes VCF-formatted variant datasets from
//! sequenced viral isolates against the reference SARS-CoV-2 genome,
//! reconstructs consensus genomes in FASTA format, and classifies lineages
//! with Pangolin. Any interruption forces recomputation from the beginning.

use galaxy_flow::{DataFormat, RecoveryMode, Workflow};
use sim_kernel::SimDuration;

/// The 23 steps: (label, tool, weight, output format). Weights are relative
/// durations; [`step_table`] normalizes them to the requested total.
const STEPS: [(&str, &str, u32, DataFormat); 23] = [
    ("fetch-vcf-collection", "sra-toolkit", 3, DataFormat::Vcf),
    ("fetch-reference-genome", "sra-toolkit", 1, DataFormat::Fasta),
    ("validate-vcf", "vcf-tools", 2, DataFormat::Vcf),
    ("normalize-variants", "bcftools-norm", 3, DataFormat::Vcf),
    ("filter-low-quality", "bcftools-filter", 3, DataFormat::Vcf),
    ("decompose-multiallelic", "vt-decompose", 2, DataFormat::Vcf),
    ("annotate-variants", "snpeff", 5, DataFormat::Vcf),
    ("intersect-samples", "bcftools-isec", 3, DataFormat::Vcf),
    ("merge-vcfs", "bcftools-merge", 4, DataFormat::Vcf),
    ("index-merged", "tabix", 1, DataFormat::Vcf),
    ("compute-allele-freq", "vcf-tools", 3, DataFormat::Tabular),
    ("mask-problematic-sites", "bcftools-filter", 2, DataFormat::Vcf),
    ("build-consensus-1", "bcftools-consensus", 6, DataFormat::Fasta),
    ("build-consensus-2", "bcftools-consensus", 6, DataFormat::Fasta),
    ("merge-consensus", "seqkit-concat", 2, DataFormat::Fasta),
    ("qc-consensus", "seqkit-stats", 2, DataFormat::Tabular),
    ("align-to-reference", "mafft", 8, DataFormat::Fasta),
    ("trim-alignment", "trimal", 3, DataFormat::Fasta),
    ("call-lineages-pangolin", "pangolin", 7, DataFormat::Tabular),
    ("scorpio-classify", "scorpio", 4, DataFormat::Tabular),
    ("summarize-lineages", "datamash", 2, DataFormat::Tabular),
    ("render-report", "multiqc", 3, DataFormat::Html),
    ("export-results", "galaxy-export", 1, DataFormat::Tabular),
];

/// The workflow's name.
pub const NAME: &str = "sars-cov-2-genome-reconstruction";

/// An interruption forces recomputation from the beginning.
pub const RECOVERY: RecoveryMode = RecoveryMode::RestartFromScratch;

/// The step table for a run of `total`: each step's `(duration, shards)`,
/// in workflow order. Every step is monolithic and gets its weight's
/// share of `total`; the last one takes the rounding remainder, so the
/// durations sum exactly to `total`.
///
/// # Panics
///
/// Panics if `total` is shorter than 23 seconds (every step needs a
/// positive duration).
pub fn step_table(total: SimDuration) -> [(SimDuration, u32); 23] {
    assert!(
        total.as_secs() >= 23,
        "genome reconstruction needs ≥23 s, got {total}"
    );
    let weight_sum: u32 = STEPS.iter().map(|&(_, _, w, _)| w).sum();
    let secs = total.as_secs() as f64;
    crate::split_with_remainder(total, |i| {
        secs * f64::from(STEPS[i].2) / f64::from(weight_sum)
    })
    .map(|d| (d, 1))
}

/// Builds the 23-step Genome Reconstruction workload with the given total
/// duration.
///
/// # Panics
///
/// As [`step_table`].
///
/// # Examples
///
/// ```
/// use bio_workloads::genome_reconstruction::genome_reconstruction_workload;
/// use sim_kernel::SimDuration;
///
/// let wf = genome_reconstruction_workload(SimDuration::from_hours(10));
/// assert_eq!(wf.len(), 23);
/// ```
pub fn genome_reconstruction_workload(total: SimDuration) -> Workflow {
    let steps = STEPS
        .iter()
        .zip(step_table(total))
        .map(|(&(label, tool, _, format), step)| (label, tool, step, format, 0.05));
    crate::build_chain(NAME, RECOVERY, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_exactly_23_steps() {
        let wf = genome_reconstruction_workload(SimDuration::from_hours(10));
        assert_eq!(wf.len(), 23, "paper: a 23-step workflow");
    }

    #[test]
    fn durations_sum_exactly_to_total() {
        for hours in [5, 10, 11, 20] {
            let total = SimDuration::from_hours(hours);
            let wf = genome_reconstruction_workload(total);
            assert_eq!(wf.total_duration(), total);
        }
    }

    #[test]
    fn restart_from_scratch_semantics() {
        let wf = genome_reconstruction_workload(SimDuration::from_hours(10));
        assert_eq!(wf.recovery(), RecoveryMode::RestartFromScratch);
        assert!(wf.steps().iter().all(|s| s.shards() == 1));
    }

    #[test]
    fn pipeline_starts_with_vcf_and_produces_fasta_then_lineages() {
        let wf = genome_reconstruction_workload(SimDuration::from_hours(10));
        assert_eq!(wf.steps()[0].output_format(), DataFormat::Vcf);
        assert!(wf
            .steps()
            .iter()
            .any(|s| s.output_format() == DataFormat::Fasta));
        assert!(wf.steps().iter().any(|s| s.tool().as_str() == "pangolin"));
    }

    #[test]
    fn alignment_is_the_heaviest_step() {
        let wf = genome_reconstruction_workload(SimDuration::from_hours(10));
        let longest = wf.steps().iter().max_by_key(|s| s.duration()).unwrap();
        assert_eq!(longest.label(), "align-to-reference");
    }
}
