//! The Standard General Workload: QIIME 2 microbiome analysis (paper
//! §5.1.1).
//!
//! Sequence demultiplexing → DADA2 quality control → phylogenetic tree
//! construction → diversity analysis. Interruptions force a complete
//! restart. The paper pads processing with sleep intervals so every run
//! lasts 10–11 hours regardless of instance specs; here the requested total
//! duration is distributed over the steps in fixed proportions.

use galaxy_flow::{DataFormat, RecoveryMode, Workflow};
use sim_kernel::SimDuration;

/// Step proportions (label, tool, share of total duration, output format).
const STEPS: [(&str, &str, f64, DataFormat); 5] = [
    ("import-sequences", "qiime2-tools-import", 0.05, DataFormat::Qza),
    ("demultiplex", "qiime2-demux", 0.15, DataFormat::Qza),
    ("dada2-denoise", "dada2", 0.35, DataFormat::Qza),
    ("phylogenetic-tree", "qiime2-phylogeny", 0.20, DataFormat::Qza),
    ("diversity-analysis", "qiime2-diversity", 0.25, DataFormat::Qza),
];

/// The workflow's name.
pub const NAME: &str = "qiime2-standard-general";

/// An interruption restarts the analysis from the beginning.
pub const RECOVERY: RecoveryMode = RecoveryMode::RestartFromScratch;

/// The step table for a run of `total`: each step's `(duration, shards)`,
/// in workflow order. Every step is monolithic; the last one takes the
/// rounding remainder, so the durations sum exactly to `total`.
///
/// # Panics
///
/// Panics if `total` is shorter than one minute (each step must get a
/// positive duration).
pub fn step_table(total: SimDuration) -> [(SimDuration, u32); 5] {
    assert!(
        total >= SimDuration::from_mins(1),
        "QIIME 2 workload needs at least one minute, got {total}"
    );
    let secs = total.as_secs() as f64;
    crate::split_with_remainder(total, |i| secs * STEPS[i].2).map(|d| (d, 1))
}

/// Builds the QIIME 2 standard general workload with the given total
/// duration.
///
/// # Panics
///
/// As [`step_table`].
///
/// # Examples
///
/// ```
/// use bio_workloads::qiime::standard_general_workload;
/// use sim_kernel::SimDuration;
///
/// let wf = standard_general_workload(SimDuration::from_hours(10));
/// assert_eq!(wf.len(), 5);
/// assert!(!wf.is_checkpointable());
/// ```
pub fn standard_general_workload(total: SimDuration) -> Workflow {
    let steps = STEPS
        .iter()
        .zip(step_table(total))
        .map(|(&(label, tool, _, format), step)| (label, tool, step, format, 0.2));
    crate::build_chain(NAME, RECOVERY, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_sum_exactly_to_total() {
        for hours in [5, 10, 20] {
            let total = SimDuration::from_hours(hours);
            let wf = standard_general_workload(total);
            assert_eq!(wf.total_duration(), total, "{hours}h");
        }
    }

    #[test]
    fn is_linear_chain() {
        let wf = standard_general_workload(SimDuration::from_hours(10));
        for (i, step) in wf.steps().iter().enumerate() {
            if i == 0 {
                assert!(step.inputs().is_empty());
            } else {
                assert_eq!(step.inputs().len(), 1);
                assert_eq!(step.inputs()[0].index(), i - 1);
            }
            assert_eq!(step.shards(), 1, "standard workload is monolithic");
        }
    }

    #[test]
    fn restart_semantics() {
        let wf = standard_general_workload(SimDuration::from_hours(10));
        assert_eq!(wf.recovery(), RecoveryMode::RestartFromScratch);
    }

    #[test]
    fn dada2_is_the_longest_step() {
        let wf = standard_general_workload(SimDuration::from_hours(10));
        let longest = wf
            .steps()
            .iter()
            .max_by_key(|s| s.duration())
            .unwrap();
        assert_eq!(longest.label(), "dada2-denoise");
    }

    #[test]
    #[should_panic(expected = "at least one minute")]
    fn rejects_degenerate_duration() {
        standard_general_workload(SimDuration::from_secs(10));
    }
}
