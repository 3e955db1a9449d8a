//! A counting global allocator: allocator calls, live heap bytes and peak
//! live heap bytes of the calling thread.
//!
//! The tallies are thread-local, so counting costs no atomic operation on
//! the allocation hot path. Every benchmark operation runs its worker pool
//! with `jobs = 1`, on the benchmark's own thread, so that thread's tally
//! covers all of the operation's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and tallies every call.
pub struct Counting;

/// One thread's allocation tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Allocator calls that returned memory (`alloc`, `alloc_zeroed`,
    /// `realloc`).
    pub allocs: u64,
    /// Bytes currently allocated.
    pub live: usize,
    /// The most bytes allocated at once since the last [`reset_peak`].
    pub peak: usize,
}

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never fails, even while a thread is being torn down.
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, live: 0, peak: 0 }) };
}

fn note_alloc(size: usize) {
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        v.allocs += 1;
        v.live += size;
        v.peak = v.peak.max(v.live);
        t.set(v);
    });
}

fn note_free(size: usize) {
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        // Memory allocated on another thread and freed here must not
        // underflow the tally.
        v.live = v.live.saturating_sub(size);
        t.set(v);
    });
}

/// The calling thread's tally.
pub fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// Restarts peak tracking from the current live bytes.
pub fn reset_peak() {
    TALLY.with(|t| {
        let mut v = t.get();
        v.peak = v.live;
        t.set(v);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the tally bookkeeping around the calls
// never allocates and never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is all `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (so
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout` and that `new_size` is valid for `layout.align()`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        new
    }
}
