//! The SpotVerse paper's evaluation, one function per table or figure.
//!
//! Each function regenerates one table or figure from the paper's §5
//! evaluation (or one of four ablations) and returns a [`Figure`]: its
//! rendered text, with the paper's reported values next to our measured
//! ones, and the figure's named shape checks. Absolute numbers come from a
//! simulator rather than the authors' AWS testbed, so the *shape* — who
//! wins, by roughly what factor — is the reproduction target (see
//! EXPERIMENTS.md). The `golden_paper` integration suite asserts every
//! check and pins every text against `tests/golden/paper/<name>.txt`.

use std::fmt::Display;

use bio_workloads::{paper_fleet, WorkloadKind, WorkloadSpec};
use cloud_market::InstanceType;
use sim_kernel::{SimRng, SimTime};
use spotverse::ExperimentConfig;

mod ablation_algorithm1;
mod ablation_checkpointing;
mod ablation_deadline;
mod ablation_metrics;
mod fig10_thresholds;
mod fig2_spot_prices;
mod fig3_motivation;
mod fig4_metrics;
mod fig7_standard_checkpoint;
mod fig8_types_sizes;
mod fig9_initial_distribution;
mod table1_baseline_regions;
mod table4_skypilot;

pub use ablation_algorithm1::ablation_algorithm1;
pub use ablation_checkpointing::ablation_checkpointing;
pub use ablation_deadline::ablation_deadline;
pub use ablation_metrics::ablation_metrics;
pub use fig10_thresholds::fig10_thresholds;
pub use fig2_spot_prices::fig2_spot_prices;
pub use fig3_motivation::fig3_motivation;
pub use fig4_metrics::fig4_metrics;
pub use fig7_standard_checkpoint::fig7_standard_checkpoint;
pub use fig8_types_sizes::fig8_types_sizes;
pub use fig9_initial_distribution::fig9_initial_distribution;
pub use table1_baseline_regions::table1_baseline_regions;
pub use table4_skypilot::table4_skypilot;

/// The seed all paper experiments derive from (fixed for reproducible
/// tables).
pub(crate) const BENCH_SEED: u64 = 20_241_206; // the paper's presentation week

/// One regenerated table or figure.
#[derive(Debug, Default)]
pub struct Figure {
    /// The rendered report, one `\n`-terminated line at a time.
    pub text: String,
    /// Every shape check, by name, in the order the text shows it.
    pub checks: Vec<(String, bool)>,
}

impl Figure {
    /// A figure whose text opens with a banner naming the title and the
    /// part of the paper it reproduces.
    pub(crate) fn new(title: &str, paper_ref: &str) -> Self {
        let rule = "=".repeat(78);
        let mut fig = Self::default();
        fig.line("");
        fig.line(&rule);
        fig.line(title);
        fig.line(format_args!("reproduces: {paper_ref}"));
        fig.line(&rule);
        fig
    }

    /// Appends one line to the text.
    pub(crate) fn line(&mut self, line: impl Display) {
        use std::fmt::Write as _;
        writeln!(self.text, "{line}").expect("writing to a String cannot fail");
    }

    /// Appends a section divider.
    pub(crate) fn section(&mut self, name: &str) {
        self.line(format_args!("\n-- {name} --"));
    }

    /// Appends a `paper vs measured` row.
    pub(crate) fn paper_vs_measured(&mut self, metric: &str, paper: &str, measured: &str) {
        self.line(format_args!(
            "  {metric:<44} paper: {paper:>12}   measured: {measured:>12}"
        ));
    }

    /// Records a shape check and appends it as `  {name}: {ok}`.
    pub(crate) fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        self.line(format_args!("  {name}: {ok}"));
        self.checks.push((name, ok));
    }
}

/// The standard paper fleet: `n` workloads of `kind`, 10–11 hours each.
pub(crate) fn bench_fleet(kind: WorkloadKind, n: usize, seed: u64) -> Vec<WorkloadSpec> {
    paper_fleet(kind, n, &SimRng::seed_from_u64(seed))
}

/// An experiment config starting at `start_day` into the horizon.
pub(crate) fn bench_config(
    seed: u64,
    instance_type: InstanceType,
    workloads: Vec<WorkloadSpec>,
    start_day: u64,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::new(seed, instance_type, workloads);
    config.start = SimTime::from_days(start_day);
    config
}

/// Formats hours with one decimal.
pub(crate) fn hours(h: f64) -> String {
    format!("{h:.1} h")
}

/// Formats a percentage delta.
pub(crate) fn pct(p: f64) -> String {
    format!("{p:+.1}%")
}
