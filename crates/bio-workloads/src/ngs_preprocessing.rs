//! The checkpoint workload: NGS Data Preprocessing (paper §5.1.1).
//!
//! FastQC quality assessment, Cutadapt-equivalent trimming and MultiQC
//! aggregation over a 1 GB SRA FastQC dataset that is *segmented into
//! shards*, each file's processing status tracked individually — the
//! paper's checkpointing mechanism. On an interruption notice the progress
//! record (and the ≤1 GB working set, sized to fit the two-minute notice)
//! is uploaded, and a replacement instance in any region resumes from the
//! last completed shard.

use galaxy_flow::{DataFormat, RecoveryMode, Workflow};
use sim_kernel::SimDuration;

/// Default shard count (the segmented FastQC dataset).
pub const DEFAULT_SHARDS: u32 = 20;

/// Size of the checkpointed dataset in GiB (paper: a 1 GB SRA dataset,
/// chosen to upload within the two-minute notice).
pub const DATASET_GIB: f64 = 1.0;

/// The workflow's name.
pub const NAME: &str = "ngs-data-preprocessing";

/// An interruption resumes from the last completed shard.
pub const RECOVERY: RecoveryMode = RecoveryMode::ResumeFromCheckpoint;

/// The four steps: (label, tool, output format, output size in GiB).
const STEPS: [(&str, &str, DataFormat, f64); 4] = [
    ("fetch-sra-dataset", "sra-toolkit", DataFormat::Sra, DATASET_GIB),
    ("fastqc-per-shard", "fastqc", DataFormat::Html, 0.02),
    ("cutadapt-per-shard", "cutadapt", DataFormat::FastqGz, 0.5),
    ("multiqc-aggregate", "multiqc", DataFormat::Html, 0.01),
];

/// The step table for a run of `total` over `shards` shards: each step's
/// `(duration, shards)`, in workflow order. A small fixed prologue
/// (fetch, 3 %) and epilogue (report, 2 %) wrap the sharded body, which
/// per-shard QC (55 %) and per-shard trimming share.
///
/// # Panics
///
/// Panics if `shards == 0` or `total` is shorter than one second per shard.
pub fn step_table(total: SimDuration, shards: u32) -> [(SimDuration, u32); 4] {
    assert!(shards > 0, "NGS preprocessing needs at least one shard");
    assert!(
        total.as_secs() >= u64::from(shards) + 3,
        "total {total} too short for {shards} shards"
    );
    let fetch = SimDuration::from_secs((total.as_secs() as f64 * 0.03).round() as u64)
        .max(SimDuration::from_secs(1));
    let report = SimDuration::from_secs((total.as_secs() as f64 * 0.02).round() as u64)
        .max(SimDuration::from_secs(1));
    let body = total - fetch - report;
    let qc = SimDuration::from_secs(body.as_secs() * 55 / 100);
    let trim = body - qc;
    [(fetch, 1), (qc, shards), (trim, shards), (report, 1)]
}

/// Builds the NGS preprocessing checkpoint workload.
///
/// `total` is the uninterrupted duration; `shards` controls checkpoint
/// granularity (progress is lost only back to the last completed shard).
///
/// # Panics
///
/// As [`step_table`].
///
/// # Examples
///
/// ```
/// use bio_workloads::ngs_preprocessing::ngs_preprocessing_workload;
/// use sim_kernel::SimDuration;
///
/// let wf = ngs_preprocessing_workload(SimDuration::from_hours(10), 20);
/// assert!(wf.is_checkpointable());
/// ```
pub fn ngs_preprocessing_workload(total: SimDuration, shards: u32) -> Workflow {
    let steps = STEPS
        .iter()
        .zip(step_table(total, shards))
        .map(|(&(label, tool, format, size_gib), step)| (label, tool, step, format, size_gib));
    crate::build_chain(NAME, RECOVERY, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use galaxy_flow::WorkflowInvocation;

    #[test]
    fn checkpoint_semantics_and_shard_counts() {
        let wf = ngs_preprocessing_workload(SimDuration::from_hours(10), 20);
        assert_eq!(wf.recovery(), RecoveryMode::ResumeFromCheckpoint);
        let shard_units: u32 = wf.steps().iter().map(|s| s.shards()).sum();
        assert_eq!(shard_units, 1 + 20 + 20 + 1);
    }

    #[test]
    fn duration_is_close_to_requested() {
        for hours in [5, 10, 20] {
            let total = SimDuration::from_hours(hours);
            let wf = ngs_preprocessing_workload(total, DEFAULT_SHARDS);
            let diff = wf
                .total_duration()
                .max(total)
                .saturating_sub(wf.total_duration().min(total));
            // Per-shard rounding may shift the total by at most one second
            // per unit.
            assert!(diff.as_secs() <= 60, "{hours}h: diff {diff}");
        }
    }

    #[test]
    fn interruption_only_loses_current_shard() {
        let wf = ngs_preprocessing_workload(SimDuration::from_hours(10), 20);
        let mut inv = WorkflowInvocation::new(&wf);
        inv.record_execution(SimDuration::from_hours(5)).unwrap();
        let before = inv.units_done();
        assert!(before > 0);
        inv.handle_interruption();
        assert_eq!(inv.units_done(), before, "checkpoint keeps completed shards");
        // Lost work is bounded by one shard of the larger sharded step.
        let max_unit = inv
            .plan()
            .units()
            .iter()
            .map(|u| u.duration)
            .max()
            .unwrap();
        assert!(max_unit < SimDuration::from_hours(1), "shards are fine-grained");
    }

    #[test]
    fn dataset_fits_interruption_notice() {
        // The constraint the paper engineered the 1 GB dataset around.
        use cloud_compute::transfer::fits_in_interruption_notice;
        use cloud_market::Region;
        assert!(fits_in_interruption_notice(
            Region::CaCentral1,
            Region::ApNortheast3,
            DATASET_GIB
        ));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ngs_preprocessing_workload(SimDuration::from_hours(10), 0);
    }
}
