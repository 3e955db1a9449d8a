//! Workload specifications and fleet generation.
//!
//! Experiments run fleets of 40–42 parallel workloads, each "designed to run
//! consistently for 10 to 11 hours" (paper §5.1.1). [`WorkloadSpec`] names a
//! workload kind and duration; [`workload_fleet`] draws a deterministic
//! fleet with per-workload durations jittered inside the paper's window.

use galaxy_flow::{ExecutionPlan, Workflow, WorkflowInvocation};
use sim_kernel::{SimDuration, SimRng};

use crate::genome_reconstruction;
use crate::ngs_preprocessing;
use crate::qiime;

/// The paper's three workload kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// QIIME 2 microbiome analysis — standard general workload.
    StandardGeneral,
    /// SARS-CoV-2 genome reconstruction — Galaxy-specific standard workload.
    GenomeReconstruction,
    /// NGS data preprocessing — Galaxy-specific checkpoint workload.
    NgsPreprocessing,
}

impl WorkloadKind {
    /// Every kind, in a stable order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::StandardGeneral,
        WorkloadKind::GenomeReconstruction,
        WorkloadKind::NgsPreprocessing,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::StandardGeneral => "standard general (QIIME 2)",
            WorkloadKind::GenomeReconstruction => "genome reconstruction",
            WorkloadKind::NgsPreprocessing => "NGS data preprocessing",
        }
    }

    /// Whether the kind resumes from checkpoints.
    pub fn is_checkpointable(self) -> bool {
        matches!(self, WorkloadKind::NgsPreprocessing)
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete workload to run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Stable identifier within an experiment, e.g. `"w-07"`.
    pub id: String,
    /// The workload kind.
    pub kind: WorkloadKind,
    /// The uninterrupted duration.
    pub duration: SimDuration,
    /// Checkpoint shard count override for sharded workloads
    /// (`None` = the kind's default granularity).
    pub shards: Option<u32>,
}

impl WorkloadSpec {
    /// Materializes the workflow for this spec.
    pub fn build_workflow(&self) -> Workflow {
        match self.kind {
            WorkloadKind::StandardGeneral => qiime::standard_general_workload(self.duration),
            WorkloadKind::GenomeReconstruction => {
                genome_reconstruction::genome_reconstruction_workload(self.duration)
            }
            WorkloadKind::NgsPreprocessing => {
                ngs_preprocessing::ngs_preprocessing_workload(self.duration, self.shard_count())
            }
        }
    }

    /// A fresh invocation of this spec's workflow, built from the kind's
    /// step table without materializing the [`Workflow`] — equal to
    /// `WorkflowInvocation::new(&self.build_workflow())`, at one
    /// allocation instead of one per step and unit.
    ///
    /// # Panics
    ///
    /// As [`WorkloadSpec::build_workflow`]: when the duration is too short
    /// for the kind, or a sharded kind's shard override is zero.
    pub fn invocation(&self) -> WorkflowInvocation {
        let total = self.duration;
        let (name, recovery, plan) = match self.kind {
            WorkloadKind::StandardGeneral => {
                (qiime::NAME, qiime::RECOVERY, ExecutionPlan::from_steps(qiime::step_table(total)))
            }
            WorkloadKind::GenomeReconstruction => (
                genome_reconstruction::NAME,
                genome_reconstruction::RECOVERY,
                ExecutionPlan::from_steps(genome_reconstruction::step_table(total)),
            ),
            WorkloadKind::NgsPreprocessing => (
                ngs_preprocessing::NAME,
                ngs_preprocessing::RECOVERY,
                ExecutionPlan::from_steps(ngs_preprocessing::step_table(total, self.shard_count())),
            ),
        };
        WorkflowInvocation::from_plan(name, recovery, plan)
    }

    /// The shard count of a sharded kind: the override, else the default.
    fn shard_count(&self) -> u32 {
        self.shards.unwrap_or(ngs_preprocessing::DEFAULT_SHARDS)
    }
}

/// Draws a fleet of `count` workloads of one kind with durations uniform in
/// `[base, base + jitter]` — the paper's "10 to 11 hours" window is
/// `workload_fleet(kind, 40, 10 h, 1 h, rng)`.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn workload_fleet(
    kind: WorkloadKind,
    count: usize,
    base: SimDuration,
    jitter: SimDuration,
    rng: &SimRng,
) -> Vec<WorkloadSpec> {
    assert!(count > 0, "workload_fleet: empty fleet");
    (0..count)
        .map(|i| {
            let mut stream = rng.fork_indexed("workload-duration", i as u64);
            let extra = if jitter.is_zero() {
                0
            } else {
                stream.uniform_u64(jitter.as_secs() + 1)
            };
            WorkloadSpec {
                id: format!("w-{i:02}"),
                kind,
                duration: base + SimDuration::from_secs(extra),
                shards: None,
            }
        })
        .collect()
}

/// The paper's canonical fleet: `count` workloads lasting 10–11 hours.
pub fn paper_fleet(kind: WorkloadKind, count: usize, rng: &SimRng) -> Vec<WorkloadSpec> {
    workload_fleet(
        kind,
        count,
        SimDuration::from_hours(10),
        SimDuration::from_hours(1),
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fleet_durations_inside_window() {
        let rng = SimRng::seed_from_u64(1);
        let fleet = paper_fleet(WorkloadKind::GenomeReconstruction, 40, &rng);
        assert_eq!(fleet.len(), 40);
        for spec in &fleet {
            assert!(spec.duration >= SimDuration::from_hours(10));
            assert!(spec.duration <= SimDuration::from_hours(11));
        }
        // Not all identical.
        assert!(fleet.windows(2).any(|w| w[0].duration != w[1].duration));
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = paper_fleet(WorkloadKind::StandardGeneral, 10, &SimRng::seed_from_u64(7));
        let b = paper_fleet(WorkloadKind::StandardGeneral, 10, &SimRng::seed_from_u64(7));
        let c = paper_fleet(WorkloadKind::StandardGeneral, 10, &SimRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn specs_build_their_workflows() {
        let rng = SimRng::seed_from_u64(2);
        for kind in WorkloadKind::ALL {
            let fleet = paper_fleet(kind, 2, &rng);
            for spec in fleet {
                let wf = spec.build_workflow();
                assert!(wf.validate().is_ok());
                assert_eq!(wf.is_checkpointable(), kind.is_checkpointable());
            }
        }
    }

    #[test]
    fn ids_are_unique() {
        let rng = SimRng::seed_from_u64(3);
        let fleet = paper_fleet(WorkloadKind::NgsPreprocessing, 42, &rng);
        let mut ids: Vec<&str> = fleet.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 42);
    }

    #[test]
    fn shard_override_changes_granularity() {
        let rng = SimRng::seed_from_u64(9);
        let mut spec = paper_fleet(WorkloadKind::NgsPreprocessing, 1, &rng)[0].clone();
        let default_units =
            galaxy_flow::ExecutionPlan::new(&spec.build_workflow()).unit_count();
        spec.shards = Some(80);
        let fine_units = galaxy_flow::ExecutionPlan::new(&spec.build_workflow()).unit_count();
        assert!(fine_units > default_units);
        assert_eq!(fine_units, 1 + 80 + 80 + 1);
    }

    #[test]
    fn zero_jitter_gives_fixed_durations() {
        let rng = SimRng::seed_from_u64(4);
        let fleet = workload_fleet(
            WorkloadKind::StandardGeneral,
            5,
            SimDuration::from_hours(5),
            SimDuration::ZERO,
            &rng,
        );
        assert!(fleet.iter().all(|s| s.duration == SimDuration::from_hours(5)));
    }

    #[test]
    fn kind_names_and_display() {
        assert_eq!(WorkloadKind::NgsPreprocessing.to_string(), "NGS data preprocessing");
        assert!(WorkloadKind::NgsPreprocessing.is_checkpointable());
        assert!(!WorkloadKind::GenomeReconstruction.is_checkpointable());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-built invocation equals the one flattened from the
        /// built workflow — same name, recovery mode and units — and where
        /// the builder rejects an input, so does the table.
        #[test]
        fn invocation_matches_the_built_workflow(
            kind in (0..WorkloadKind::ALL.len()).prop_map(|i| WorkloadKind::ALL[i]),
            secs in (any::<bool>(), 0u64..2_000, 0u64..200_000)
                .prop_map(|(short, a, b)| if short { a } else { b }),
            shards in (any::<bool>(), 0u32..200).prop_map(|(set, n)| set.then_some(n)),
        ) {
            let spec = WorkloadSpec {
                id: "w-00".into(),
                kind,
                duration: SimDuration::from_secs(secs),
                shards,
            };
            let built = catch_unwind(AssertUnwindSafe(|| {
                WorkflowInvocation::new(&spec.build_workflow())
            }));
            let direct = catch_unwind(AssertUnwindSafe(|| spec.invocation()));
            match (built, direct) {
                (Ok(built), Ok(direct)) => {
                    prop_assert_eq!(built.workflow_name(), direct.workflow_name());
                    prop_assert_eq!(built.plan().units(), direct.plan().units());
                    prop_assert_eq!(built, direct);
                }
                (Err(_), Err(_)) => {}
                (built, direct) => prop_assert!(
                    false,
                    "{spec:?}: builder ok = {}, table ok = {}",
                    built.is_ok(),
                    direct.is_ok()
                ),
            }
        }
    }
}
