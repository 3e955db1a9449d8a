//! Golden tournament leaderboard: the committed snapshot under
//! `tests/golden/tournament/` pins `spotverse tournament` output
//! byte-for-byte. The snapshot is produced through the CLI's own entry
//! point, so `scripts/verify.sh` can diff live CLI output against the
//! same file — the leaderboard, per-regime win matrices, and chaos
//! labels are all golden-gated together.
//!
//! Bless intentional changes with `scripts/regen-golden.sh` (or
//! `UPDATE_GOLDEN=1 cargo test -p spotverse-integration --test
//! golden_tournament`).

use spotverse_integration::assert_golden;

/// The exact argv `scripts/verify.sh` replays against the snapshot.
const GOLDEN_ARGS: [&str; 9] = [
    "tournament",
    "--instances",
    "2",
    "--workload",
    "ngs",
    "--seeds",
    "1",
    "--chaos",
    "regime",
];

#[test]
fn tournament_leaderboard_matches_snapshot() {
    let actual = spotverse_cli::run(GOLDEN_ARGS).expect("golden tournament runs");
    assert_golden("tournament/leaderboard.txt", &actual);
}

/// The snapshot itself must describe a tournament that did real work:
/// every regime present, at least one completion per regime block, and
/// no failed cells.
#[test]
fn golden_tournament_completes_work_in_every_regime() {
    let out = spotverse_cli::run(GOLDEN_ARGS).expect("golden tournament runs");
    assert!(!out.contains("failed cells"), "golden tournament has failed cells:\n{out}");
    for regime in cloud_market::MarketRegime::ALL {
        let block_start = out
            .find(&format!("regime {}", regime.name()))
            .unwrap_or_else(|| panic!("regime {regime} missing from leaderboard:\n{out}"));
        let block = &out[block_start..];
        let block = &block[..block[7..].find("regime ").map_or(block.len(), |i| i + 7)];
        assert!(
            block.lines().any(|l| l.contains("completed") && !l.contains("completed 0/")),
            "regime {regime} completed nothing:\n{block}"
        );
    }
}
