//! Allocation counting and live-heap tracking for the benchmark binary.
//!
//! One allocator covers both figures the benchmark reports: the
//! allocation count of `perf_hotpath`'s `CountingAlloc` (every `alloc`
//! and `realloc`) and the live-bytes high-water mark of `perf_sharded`'s
//! `PeakAlloc`. Only the benchmark binary installs it as the global
//! allocator; linked into tests, the counters simply stay at zero.
//!
//! All counters are relaxed atomics: they publish no other data. Across
//! threads (the 2-shard streaming run) interleaving can smear the peak by
//! a few allocations, which is noise against the megabytes it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting, peak-tracking wrapper around the system allocator.
pub struct CountingPeakAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn note_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping around
// the calls only touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingPeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_dealloc(layout.size());
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Live heap bytes right now.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live size.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;
