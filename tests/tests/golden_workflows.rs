//! Golden `.ga` workflows: the committed documents under
//! `tests/golden/workflows/` pin `spotverse workflow --workload <w>`
//! output byte-for-byte for each paper workflow.
//!
//! Bless intentional changes with `scripts/regen-golden.sh` (or
//! `UPDATE_GOLDEN=1 cargo test -p spotverse-integration --test
//! golden_workflows`).

use std::fs;
use std::path::PathBuf;

/// The CLI's name for every paper workflow.
const WORKFLOWS: [&str; 3] = ["genome", "ngs", "qiime"];

#[test]
fn workflow_exports_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for name in WORKFLOWS {
        let actual = spotverse_cli::run(["workflow", "--workload", name]).expect("export runs");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join("workflows")
            .join(format!("{name}.ga"));
        if update {
            fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/workflows");
            fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            continue;
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); generate it with scripts/regen-golden.sh", path.display())
        });
        if let Some(line) = actual.lines().zip(expected.lines()).position(|(a, b)| a != b) {
            panic!(
                "{name}.ga drift at line {};\n  actual: {}\n  golden: {}\n\
                 if the change is intentional, re-bless with scripts/regen-golden.sh",
                line + 1,
                actual.lines().nth(line).unwrap_or_default(),
                expected.lines().nth(line).unwrap_or_default(),
            );
        }
        assert_eq!(actual, expected, "{name}.ga differs from its golden past the last line");
    }
}
