//! Read-side parser round-trip: the committed golden traces must parse
//! into typed records and re-serialize byte-identically, corrupt input
//! must fail with a structured error naming the line (never a panic),
//! and the replay fold (`CellState`) over parsed merged multi-cell JSONL
//! must equal the fold over the records the writer held — including the
//! billed dollars of deadline-expired workloads. The tournament folds its
//! records in-process ([`merged_trace_state`]); that fold must equal the
//! replay of the same records' merged JSONL, truncation included.

use std::fs;
use std::path::PathBuf;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, MarketRegime, Region};
use sim_kernel::{SimDuration, SimRng};
use spotverse::replay::win_matrix;
use spotverse::{
    append_trace_jsonl, merged_trace_jsonl, merged_trace_state, parse_trace_jsonl, replay_lines,
    replay_str, run_fleet, run_fleet_matrix, run_matrix, run_tournament, trace_lines_to_jsonl,
    trace_to_jsonl, CellState, FleetConfig, MarketCache, OnDemandStrategy, ReplayState, RunTrace,
    SingleRegionStrategy, Strategy, SweepCell, TimeWindow, TournamentChaos, TournamentConfig,
    TraceConfig, TraceEvent, TraceLine, TraceRecord,
};
use spotverse_integration::{spotverse_strategy, traced_config};

const GOLDENS: [&str; 6] = [
    "spotverse_ngs3_seed2024_t4.jsonl",
    "spotverse_ngs3_seed2024_t5.jsonl",
    "spotverse_ngs3_seed2024_t6.jsonl",
    "spotverse_genome10_seed2024_region_flap.jsonl",
    "fleet_ngs3_seed2024_cap1.jsonl",
    "fleet_ngs4_seed2025_telemetry_blackout.jsonl",
];

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run scripts/regen-golden.sh", path.display()))
}

/// Every committed golden parses and re-serializes byte-identically.
#[test]
fn goldens_round_trip_byte_identical() {
    for name in GOLDENS {
        let doc = golden(name);
        let lines = parse_trace_jsonl(&doc)
            .unwrap_or_else(|e| panic!("{name}: golden must parse, got {e}"));
        assert!(!lines.is_empty(), "{name}: golden is non-empty");
        assert_eq!(trace_lines_to_jsonl(&lines), doc, "{name}: round trip must be byte-identical");
    }
}

/// A freshly generated trace (not just the committed bytes) round-trips,
/// and the parsed records equal the in-memory ones the writer saw.
#[test]
fn fresh_trace_round_trips_to_typed_records()  {
    let config = traced_config(WorkloadKind::NgsPreprocessing, 3, 99);
    let report = spotverse::run_experiment(config, spotverse_strategy());
    let trace = report.trace.expect("tracing enabled");
    let doc = trace_to_jsonl(&trace);
    let lines = parse_trace_jsonl(&doc).expect("fresh trace parses");
    let records: Vec<TraceRecord> = lines
        .iter()
        .map(|l| match l {
            TraceLine::Record { cell, record } => {
                assert!(cell.is_none(), "single-run trace has no cell prefix");
                record.clone()
            }
            TraceLine::Truncated { .. } => panic!("untruncated at this size"),
        })
        .collect();
    assert_eq!(records, trace.events, "parse must invert the writer exactly");
    assert_eq!(trace_lines_to_jsonl(&lines), doc);
}

/// Corrupted input fails with the 1-based line number, never a panic.
#[test]
fn corruption_is_rejected_with_line_numbers() {
    let doc = golden("spotverse_ngs3_seed2024_t6.jsonl");
    let n_lines = doc.lines().count();

    // Truncate the final line mid-token.
    let truncated: String = doc[..doc.len() - 20].to_owned();
    let err = parse_trace_jsonl(&truncated).unwrap_err();
    assert_eq!(err.line, n_lines, "truncation detected on the last line");

    // Corrupt one line in the middle: flip a field name.
    let corrupted: String = doc
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 2 { l.replace("\"event\"", "\"evnt\"") } else { l.to_owned() })
        .collect::<Vec<_>>()
        .join("\n");
    let err = parse_trace_jsonl(&corrupted).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.to_string().starts_with("trace line 3:"), "{err}");

    // Assorted garbage: none of these may panic.
    for bad in [
        "null",
        "[1,2]",
        "{\"seq\":0}",
        "{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1,\"aborted\":false,\"aborted\":false}",
        "{\"seq\":-1,\"t\":0,\"event\":\"run_ended\",\"completed\":1,\"aborted\":false}",
        "{\"seq\":0,\"t\":0,\"event\":\"launched\",\"workload\":0,\"region\":\"us-east-1\",\"spot\":true,\"instance\":\"j-zz\"}",
        "{\"truncated\":false,\"dropped\":1}",
    ] {
        assert!(
            parse_trace_jsonl(bad).is_err(),
            "`{bad}` must be rejected with an error"
        );
    }
}

/// A blank line holds nothing: the whole-document parser skips it as the
/// replay cursor does, and both count it when they number lines.
#[test]
fn blank_lines_are_skipped_by_the_parser_and_the_cursor() {
    let doc = golden("spotverse_ngs3_seed2024_t6.jsonl");
    let mut lines: Vec<&str> = doc.lines().collect();
    lines.insert(2, "");
    lines.insert(0, "");
    let spaced = lines.join("\n") + "\n\n";
    let parsed = parse_trace_jsonl(&spaced).expect("blank lines are skipped");
    assert_eq!(parsed, parse_trace_jsonl(&doc).expect("golden parses"));
    let replayed = replay_str(&spaced, TimeWindow::ALL).expect("blank lines are skipped");
    assert_eq!(replayed, replay_lines(&parsed, TimeWindow::ALL));

    let bad = format!("{spaced}garbage\n");
    let number = spaced.split('\n').count();
    assert_eq!(parse_trace_jsonl(&bad).unwrap_err().line, number);
    assert_eq!(replay_str(&bad, TimeWindow::ALL).unwrap_err().line, number);
}

fn split_by_cell(lines: &[TraceLine<'_>]) -> Vec<(String, Vec<TraceRecord>)> {
    let mut cells: Vec<(String, Vec<TraceRecord>)> = Vec::new();
    for line in lines {
        let TraceLine::Record { cell, record } = line else { continue };
        let key = cell.as_deref().unwrap_or_default().to_owned();
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, records)) => records.push(record.clone()),
            None => cells.push((key, vec![record.clone()])),
        }
    }
    cells
}

fn fold(records: &[TraceRecord]) -> CellState {
    let mut state = CellState::default();
    for record in records {
        state.fold(record);
    }
    state
}

/// Asserts that the record fold and the text replay hold the same cells,
/// in the same order, each with the same views.
fn assert_same_cells(folded: &ReplayState, replayed: &ReplayState, what: &str) {
    let labels = |s: &ReplayState| s.cells.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    assert_eq!(labels(folded), labels(replayed), "{what}: the same cells in the same order");
    for ((key, a), (_, b)) in folded.cells.iter().zip(&replayed.cells) {
        assert_eq!(a, b, "{what}: cell {key}: record fold equals text replay");
    }
}

fn tournament_strategy(name: &str) -> Box<dyn Strategy> {
    match name {
        "spotverse" => spotverse_strategy(),
        "on-demand" => Box::new(OnDemandStrategy::new()),
        "single-region" => Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        other => panic!("unknown strategy {other}"),
    }
}

/// The replay fold over parsed merged multi-cell JSONL agrees with the
/// fold over each constituent run's in-memory records — the read side
/// must split by cell — and the in-process record fold agrees with both.
/// On tournament-shaped cells (every regime, its matched chaos, three
/// strategies over two shared seeds) the tournament's win matrix equals
/// the one `spotverse analyse` derives from the regime's merged JSONL.
#[test]
fn trace_stats_reconcile_across_merged_cells() {
    let cells: Vec<SweepCell> = (0..3)
        .map(|i| {
            let mut config = traced_config(WorkloadKind::NgsPreprocessing, 3, 300 + i);
            if i == 1 {
                config.chaos = Some(chaos::region_flap());
            }
            SweepCell::new(format!("cell-{i}"), "spotverse", config)
        })
        .collect();
    let cache = MarketCache::new();
    let outcomes = run_matrix(&cells, 2, &cache, |_| spotverse_strategy());
    let merged = merged_trace_jsonl(&outcomes);
    let lines = parse_trace_jsonl(&merged).expect("merged trace parses");
    let by_cell = split_by_cell(&lines);
    assert_eq!(by_cell.len(), cells.len(), "every cell present in the merged document");
    let replayed = replay_str(&merged, TimeWindow::ALL).expect("merged trace replays");
    for ((key, records), (cell, outcome)) in by_cell.iter().zip(cells.iter().zip(&outcomes)) {
        assert_eq!(key, &cell.label);
        let report = outcome.report().expect("cell succeeded");
        let trace = report.trace.as_ref().expect("tracing enabled");
        assert_eq!(records, &trace.events, "{key}: parsed records equal the originals");
        let live = fold(&trace.events);
        assert_eq!(fold(records), live, "{key}: read-side fold equals write-side fold");
        assert_eq!(replayed.cell(key), Some(&live), "{key}: cursor replay equals write-side fold");
    }
    assert_same_cells(&merged_trace_state(&outcomes), &replayed, "sweep cells");

    // A capped trace: the truncation count folds the same both ways.
    let flap = outcomes[1].report().and_then(|r| r.trace.as_ref()).expect("tracing enabled");
    let capped = RunTrace { events: flap.events[..8].to_vec(), dropped: 5 };
    let mut text = String::new();
    append_trace_jsonl(&mut text, Some("capped"), &capped);
    let mut folded = ReplayState::default();
    folded.fold_trace("capped", &capped);
    let replayed = replay_str(&text, TimeWindow::ALL).expect("capped trace replays");
    assert_same_cells(&folded, &replayed, "capped trace");
    let cell = folded.cell("capped").expect("the marker creates the cell");
    assert_eq!((cell.events, cell.dropped), (8, Some(5)));

    let strategies = ["spotverse", "on-demand", "single-region"];
    let reps = 2;
    let rng = SimRng::seed_from_u64(610);
    let fleet = FleetConfig::staggered(
        610,
        InstanceType::M5Xlarge,
        paper_fleet(WorkloadKind::NgsPreprocessing, 2, &rng),
        SimDuration::from_mins(45),
    );
    let mut config = TournamentConfig::new(
        strategies.iter().map(|s| (*s).to_owned()).collect(),
        MarketRegime::ALL.to_vec(),
        reps,
        fleet,
    );
    config.chaos = TournamentChaos::RegimeMatched;
    let report = run_tournament(&config, 2, &cache, tournament_strategy);
    assert!(report.failed.is_empty(), "failed cells: {:?}", report.failed);
    assert_eq!(report.standings.len(), MarketRegime::ALL.len());
    // The tournament's own cells, run again and merged as `spotverse
    // analyse` reads them: one contiguous block per regime.
    let outcomes =
        run_fleet_matrix(&config.build_cells(), 2, &cache, |c| tournament_strategy(&c.strategy));
    let blocks = outcomes.chunks(strategies.len() * reps as usize);
    for ((standing, regime), block) in report.standings.iter().zip(MarketRegime::ALL).zip(blocks) {
        let name = regime.name();
        assert_eq!(standing.regime, regime);
        assert!(block.iter().all(|o| o.label.contains(&format!("@{name}/"))), "{name}: block");
        let replayed =
            replay_str(&merged_trace_jsonl(block), TimeWindow::ALL).expect("regime trace replays");
        assert_eq!(replayed.cells.len(), block.len(), "{name}: every cell traced");
        assert_same_cells(&merged_trace_state(block), &replayed, name);
        assert_eq!(standing.wins, win_matrix(&replayed), "{name}: win matrix");
        assert_eq!(standing.wins.contested_seeds, reps as usize, "{name}");
    }
}

/// The fold's `billed_total` includes the dollars billed when a
/// deadline-expired workload's instance is forced down, so a fleet that
/// completes nothing still reconciles its spend.
#[test]
fn expired_workload_billing_lands_in_the_ledger() {
    let rng = SimRng::seed_from_u64(77);
    let specs = paper_fleet(WorkloadKind::GenomeReconstruction, 3, &rng);
    let mut config =
        FleetConfig::staggered(77, InstanceType::M5Xlarge, specs, SimDuration::from_hours(1));
    config.max_runtime = SimDuration::from_hours(2); // genome runs need far longer
    config.trace = TraceConfig::enabled();
    let report = run_fleet(config, spotverse_strategy());
    assert!(report.expired > 0, "deadline must bite for this test to mean anything");
    let trace = report.aggregate.trace.as_ref().expect("tracing enabled");

    let mut expired_billed = 0.0f64;
    let mut event_billed = 0.0f64;
    for record in &trace.events {
        match &record.event {
            TraceEvent::Interrupted { billed, .. } | TraceEvent::Completed { billed, .. } => {
                event_billed += billed;
            }
            TraceEvent::WorkloadExpired { billed: Some(billed), .. } => {
                expired_billed += billed;
                event_billed += billed;
            }
            _ => {}
        }
    }
    assert!(expired_billed > 0.0, "an expired workload had a running instance billed");

    let billed_total = fold(&trace.events).ledger.billed_total();
    assert!(
        (billed_total - event_billed).abs() < 1e-9,
        "billed_total ({billed_total}) must include expired-workload billing ({event_billed})",
    );

    // And the read side agrees after a JSONL round trip.
    let replayed = replay_str(&trace_to_jsonl(trace), TimeWindow::ALL).expect("fleet trace replays");
    let cell = replayed.cell("").expect("single-run trace has the unnamed cell");
    assert_eq!(cell.ledger.billed_total(), billed_total);
}
