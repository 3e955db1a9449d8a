//! Incremental-cursor equivalence: replaying a trace in one pass or in
//! arbitrary chunk splits must yield identical final views — the fold purity contract that makes
//! `analyse` deterministic regardless of how the bytes arrive.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use sim_kernel::SimTime;
use spotverse::{
    parse_trace_jsonl, replay_lines, replay_str, ReplayCursor, TimeWindow, TraceLine,
};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run scripts/regen-golden.sh", path.display()))
}

/// Feeds `doc` through a cursor in the chunks delimited by `splits`
/// (byte offsets, ascending, deduped by the caller).
fn replay_chunked(doc: &str, splits: &[usize], window: TimeWindow) -> spotverse::ReplayState {
    let mut cursor = ReplayCursor::new(window);
    let mut prev = 0usize;
    for &split in splits {
        cursor.feed(&doc[prev..split]).expect("chunk feeds cleanly");
        prev = split;
    }
    cursor.feed(&doc[prev..]).expect("tail feeds cleanly");
    cursor.finish().expect("trailing line parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-pass == arbitrary chunk splits, including splits that land
    /// mid-line and mid-string-escape. The region-flap golden covers the
    /// widest event vocabulary (breakers, chaos faults, migrations).
    #[test]
    fn chunked_replay_equals_single_pass(
        raw_splits in proptest::collection::vec(0usize..100_000, 0..8),
    ) {
        let doc = golden("spotverse_genome10_seed2024_region_flap.jsonl");
        let whole = replay_str(&doc, TimeWindow::ALL).expect("golden parses");
        // Clamp each draw into range so any u64 vector is a valid split set.
        let mut splits: Vec<usize> = raw_splits
            .iter()
            .map(|s| {
                // Round down to the nearest char boundary (ASCII here, but
                // stay robust).
                let mut i = s % (doc.len() + 1);
                while !doc.is_char_boundary(i) {
                    i -= 1;
                }
                i
            })
            .collect();
        splits.sort_unstable();
        splits.dedup();
        let chunked = replay_chunked(&doc, &splits, TimeWindow::ALL);
        prop_assert_eq!(chunked, whole, "splits {:?}", splits);
    }
}

/// The time-windowed replay equals pre-filtering the parsed records by
/// hand: `--from/--until` are pure record filters, nothing stateful.
#[test]
fn windowed_replay_equals_prefiltered_records() {
    let doc = golden("spotverse_genome10_seed2024_region_flap.jsonl");
    let lines = parse_trace_jsonl(&doc).expect("golden parses");
    let times: Vec<u64> = lines
        .iter()
        .filter_map(|l| match l {
            TraceLine::Record { record, .. } => Some(record.at.as_secs()),
            TraceLine::Truncated { .. } => None,
        })
        .collect();
    let mid = times[times.len() / 2];
    let window = TimeWindow {
        from: Some(SimTime::from_secs(times[1])),
        until: Some(SimTime::from_secs(mid)),
    };
    let windowed = replay_str(&doc, window).expect("windowed replay parses");
    let filtered: Vec<TraceLine> = lines
        .into_iter()
        .filter(|l| match l {
            TraceLine::Record { record, .. } => window.contains(record.at),
            TraceLine::Truncated { .. } => true,
        })
        .collect();
    assert_eq!(windowed, replay_lines(&filtered, TimeWindow::ALL));
}

/// Cursor equivalence holds for merged multi-cell documents too: cell
/// routing is part of the fold, not of the chunking.
#[test]
fn chunked_replay_routes_cells_identically() {
    // Build a merged two-cell document from two goldens.
    let a = golden("spotverse_ngs3_seed2024_t4.jsonl");
    let b = golden("spotverse_ngs3_seed2024_t5.jsonl");
    let mut merged = String::new();
    for (cell, doc) in [("t4", &a), ("t5", &b)] {
        for line in doc.lines() {
            merged.push_str(&format!("{{\"cell\":\"{cell}\",{}", &line[1..]));
            merged.push('\n');
        }
    }
    let whole = replay_str(&merged, TimeWindow::ALL).expect("merged parses");
    assert_eq!(whole.cells.len(), 2);
    for splits in [vec![1usize], vec![merged.len() / 3, merged.len() / 2]] {
        assert_eq!(replay_chunked(&merged, &splits, TimeWindow::ALL), whole);
    }
}
