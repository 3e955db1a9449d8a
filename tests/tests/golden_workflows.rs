//! Golden `.ga` workflows: the committed documents under
//! `tests/golden/workflows/` pin `spotverse workflow --workload <w>`
//! output byte-for-byte for each paper workflow.
//!
//! Bless intentional changes with `scripts/regen-golden.sh` (or
//! `UPDATE_GOLDEN=1 cargo test -p spotverse-integration --test
//! golden_workflows`).

use spotverse_integration::assert_golden;

/// The CLI's name for every paper workflow.
const WORKFLOWS: [&str; 3] = ["genome", "ngs", "qiime"];

#[test]
fn workflow_exports_match_goldens() {
    for name in WORKFLOWS {
        let actual = spotverse_cli::run(["workflow", "--workload", name]).expect("export runs");
        assert_golden(&format!("workflows/{name}.ga"), &actual);
    }
}
