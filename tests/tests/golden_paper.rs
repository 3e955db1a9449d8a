//! Golden paper figures: every table, figure and ablation of the paper's
//! evaluation (`spotverse-paper`) must pass each of its shape checks and
//! render byte-for-byte as committed under `tests/golden/paper/`. One
//! test per figure, so a failure names the figure and the harness runs
//! them in parallel.
//!
//! Bless intentional changes with `scripts/regen-golden.sh` (or
//! `UPDATE_GOLDEN=1 cargo test -p spotverse-integration --test
//! golden_paper`); the shape checks are asserted either way.

use spotverse_integration::assert_golden;
use spotverse_paper::Figure;

/// Asserts every shape check of `fig` by name, that it has `checks` of
/// them, and that its text matches `tests/golden/paper/<name>.txt`.
fn assert_figure(name: &str, fig: Figure, checks: usize) {
    let failed: Vec<&str> = fig
        .checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(check, _)| check.as_str())
        .collect();
    assert!(
        failed.is_empty(),
        "{name}: shape checks failed: {failed:?}\n{}",
        fig.text
    );
    assert_eq!(
        fig.checks.len(),
        checks,
        "{name}: the number of shape checks changed"
    );
    assert_golden(&format!("paper/{name}.txt"), &fig.text);
}

/// One test per figure, each with its number of shape checks.
macro_rules! golden_figures {
    ($($name:ident: $checks:expr,)*) => {
        $(
            #[test]
            fn $name() {
                assert_figure(stringify!($name), spotverse_paper::$name(), $checks);
            }
        )*

        /// Every shape check the figures print, across the evaluation.
        const TOTAL_CHECKS: usize = 0 $(+ $checks)*;
    };
}

golden_figures! {
    table1_baseline_regions: 0,
    fig2_spot_prices: 0,
    fig3_motivation: 2,
    fig4_metrics: 1,
    fig7_standard_checkpoint: 2,
    fig8_types_sizes: 2,
    fig9_initial_distribution: 2,
    fig10_thresholds: 3,
    table4_skypilot: 1,
    ablation_algorithm1: 3,
    ablation_checkpointing: 5,
    ablation_deadline: 4,
    ablation_metrics: 3,
}

const _: () = assert!(
    TOTAL_CHECKS == 28,
    "the paper's evaluation has 28 shape checks"
);
