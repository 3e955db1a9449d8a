//! Allocation gate for trace replay. The decoder reads each line straight
//! into its typed record and the cursor folds it under a cell label
//! borrowed from the line, so replaying a canonical line allocates only
//! the record's own owned fields: its strings and arrays. This test
//! counts the allocations exactly while replaying each committed golden
//! trace, the cell-prefixed sweep and fleet traces included, and fails
//! when a change makes replay copy more (or less, so an improvement is
//! re-pinned), long before a timer would notice.
//!
//! The count is kept per thread, so the test harness's other threads do
//! not disturb it; the file holds one test so nothing else shares the
//! counting allocator's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;

use spotverse::{ReplayCursor, TimeWindow};

/// Forwards to [`System`] and counts the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counter never allocates and never
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (so
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout` and that `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations replaying each golden with one cursor, pinned
/// exactly: 0.15 to 1.6 per line. Only records with strings or arrays
/// (decisions, arrivals, run starts) allocate, each array once at its
/// exact length, plus the growth of the folded views, so the per-line
/// figure differs by trace. The tree
/// decoder this replaced made 63, 32, 54, 268, 100, 166 and 195 on the
/// other seven, the last two paying one `String` per line for the cell
/// label.
const PINNED: [(&str, u64); 8] = [
    ("spotverse_ngs3_seed2024_t4.jsonl", 9),
    ("spotverse_ngs3_seed2024_t5.jsonl", 7),
    ("spotverse_ngs3_seed2024_t6.jsonl", 9),
    ("spotverse_genome10_seed2024_region_flap.jsonl", 36),
    ("fleet_ngs3_seed2024_cap1.jsonl", 18),
    ("fleet_ngs4_seed2025_telemetry_blackout.jsonl", 19),
    ("cli/sweep_trace.jsonl", 20),
    ("cli/fleet_loadgen_burst_trace.jsonl", 41),
];

#[test]
fn replay_allocations_per_line_stay_pinned() {
    let mut report = String::new();
    let mut moved = Vec::new();
    for (name, pinned) in PINNED {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
        let doc = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
        let lines = doc.lines().count() as f64;

        let before = ALLOCS.with(Cell::get);
        let mut cursor = ReplayCursor::new(TimeWindow::ALL);
        cursor.feed(&doc).expect("golden replays");
        cursor.finish().expect("golden replays");
        let allocs = ALLOCS.with(Cell::get) - before;

        let per_line = allocs as f64 / lines;
        report.push_str(&format!("{name}: {allocs} allocations, {per_line:.3} per line\n"));
        if allocs != pinned {
            moved.push(format!("{name}: {allocs} != {pinned}"));
        }
    }
    assert!(moved.is_empty(), "replay allocations moved from the pins: {moved:?}\n{report}");
}
