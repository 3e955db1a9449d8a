//! # bio-workloads
//!
//! The paper's bioinformatics workloads (§5.1.1) as
//! [`galaxy_flow::Workflow`] definitions:
//!
//! * [`qiime::standard_general_workload`] — QIIME 2 microbiome analysis,
//!   the *standard general* workload (restart-from-scratch),
//! * [`genome_reconstruction::genome_reconstruction_workload`] — the
//!   23-step SARS-CoV-2 Genome Reconstruction workflow, the Galaxy-specific
//!   *standard* workload,
//! * [`ngs_preprocessing::ngs_preprocessing_workload`] — NGS Data
//!   Preprocessing over a sharded 1 GB dataset, the *checkpoint* workload.
//!
//! The paper pads real tool runtimes with sleep intervals so each workload
//! "runs consistently for 10 to 11 hours" regardless of the instance; these
//! builders take the total duration directly and distribute it over steps,
//! which reproduces the same timing semantics. [`spec::paper_fleet`] draws
//! the 40-workload fleets the evaluation uses.
//!
//! # Examples
//!
//! ```
//! use bio_workloads::{paper_fleet, WorkloadKind};
//! use sim_kernel::SimRng;
//!
//! let rng = SimRng::seed_from_u64(42);
//! let fleet = paper_fleet(WorkloadKind::GenomeReconstruction, 40, &rng);
//! assert_eq!(fleet.len(), 40);
//! let workflow = fleet[0].build_workflow();
//! assert_eq!(workflow.len(), 23);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod genome_reconstruction;
pub mod ngs_preprocessing;
pub mod qiime;
pub mod spec;

pub use spec::{paper_fleet, workload_fleet, WorkloadKind, WorkloadSpec};

use galaxy_flow::{DataFormat, RecoveryMode, Workflow};
use sim_kernel::SimDuration;

/// One step of a built-in workflow: label, tool, `(duration, shards)` from
/// the kind's step table, output format and output size in GiB.
type ChainStep = (&'static str, &'static str, (SimDuration, u32), DataFormat, f64);

/// Builds a linear workflow in which each step consumes the previous
/// step's output — the shape of all three paper workloads.
fn build_chain(
    name: &'static str,
    recovery: RecoveryMode,
    steps: impl IntoIterator<Item = ChainStep>,
) -> Workflow {
    let mut b = Workflow::builder(name, recovery);
    let mut prev = None;
    for (label, tool, (duration, shards), format, size_gib) in steps {
        let inputs: Vec<_> = prev.into_iter().collect();
        prev = Some(b.add_step_full(label, tool, duration, &inputs, shards, format, size_gib));
    }
    b.build()
        .unwrap_or_else(|e| panic!("built-in workflow `{name}` is invalid: {e}"))
}

/// Splits `total` over `N` steps: step `i` gets `secs(i)` rounded to the
/// nearest second (at least one second), and the last step takes the
/// remainder, so the durations sum exactly to `total`.
///
/// # Panics
///
/// Panics if the first `N - 1` steps leave nothing for the last one.
fn split_with_remainder<const N: usize>(
    total: SimDuration,
    secs: impl Fn(usize) -> f64,
) -> [SimDuration; N] {
    let mut allocated = SimDuration::ZERO;
    // `from_fn` fills the array in ascending index order.
    std::array::from_fn(|i| {
        if i == N - 1 {
            assert!(
                allocated < total,
                "{total} is too short to give each of {N} steps a positive duration"
            );
            total - allocated
        } else {
            let d = SimDuration::from_secs(secs(i).round() as u64).max(SimDuration::from_secs(1));
            allocated += d;
            d
        }
    })
}
