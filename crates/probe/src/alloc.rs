//! Per-thread allocation accounting behind the memory high-water gauge.
//!
//! [`TrackingAllocator`] wraps the system allocator and keeps
//! *thread-local* current/peak byte counters. Under minimpi's
//! thread-backed worlds one thread drives one rank, so the thread-local
//! peak is the per-rank allocation high-water mark the paper's memory
//! tables report.
//!
//! The accounting is an approximation at the edges: a buffer allocated
//! on one rank and freed on another (ownership moving through a
//! channel) debits the freeing thread, and the one thread a rank
//! launches (GLEAN's drain thread) carries its own counters.
//! Rank-thread allocations — mesh
//! construction, analysis buffers, payload clones — dominate, which is
//! what the gauge is for.
//!
//! Enable the `track-alloc` feature (binaries and test harnesses, not
//! libraries) to install the allocator; without it [`peak_bytes`]
//! reports 0 and the gauge degrades gracefully.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Live heap bytes attributed to this thread.
pub fn current_bytes() -> usize {
    CURRENT.try_with(Cell::get).unwrap_or(0)
}

/// High-water heap bytes attributed to this thread since it started
/// (or since the last [`reset_peak`]).
pub fn peak_bytes() -> usize {
    PEAK.try_with(Cell::get).unwrap_or(0)
}

/// Restart the high-water mark from the current level.
pub fn reset_peak() {
    let now = current_bytes();
    let _ = PEAK.try_with(|p| p.set(now));
}

fn credit(n: usize) {
    // `try_with` guards thread teardown (TLS already destroyed).
    let _ = CURRENT.try_with(|c| {
        let v = c.get().saturating_add(n);
        c.set(v);
        let _ = PEAK.try_with(|p| {
            if v > p.get() {
                p.set(v);
            }
        });
    });
}

fn debit(n: usize) {
    let _ = CURRENT.try_with(|c| c.set(c.get().saturating_sub(n)));
}

/// A [`GlobalAlloc`] delegating to [`System`] while keeping the
/// thread-local counters above.
pub struct TrackingAllocator;

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's layout, forwarded unchanged;
        // our caller upholds `GlobalAlloc::alloc`'s contract (non-zero
        // size) and we add nothing that could invalidate it.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            credit(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same delegation as `alloc` — the caller's layout
        // contract passes straight through to the system allocator.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            credit(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc`/`alloc_zeroed`/`realloc`
        // above, which all delegate to `System`, so `ptr` came from
        // `System` with this same `layout` (caller's contract).
        unsafe { System.dealloc(ptr, layout) };
        debit(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` obey the caller's `realloc` contract
        // and every block we hand out originates from `System`, so the
        // delegation preserves the allocator pairing.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            debit(layout.size());
            credit(new_size);
        }
        p
    }
}

#[cfg(feature = "track-alloc")]
#[global_allocator]
static TRACKING: TrackingAllocator = TrackingAllocator;

#[cfg(all(test, feature = "track-alloc"))]
mod tests {
    use super::*;

    #[test]
    fn vec_growth_raises_the_peak() {
        std::thread::spawn(|| {
            reset_peak();
            let before = peak_bytes();
            let v = vec![0u8; 1 << 20];
            assert!(peak_bytes() >= before + (1 << 20), "peak saw the alloc");
            drop(v);
            let after_drop = current_bytes();
            assert!(peak_bytes() >= after_drop + (1 << 20), "peak is sticky");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn threads_account_separately() {
        let big = std::thread::spawn(|| {
            reset_peak();
            let _v = vec![0u8; 1 << 20];
            peak_bytes()
        })
        .join()
        .unwrap();
        let small = std::thread::spawn(|| {
            reset_peak();
            peak_bytes()
        })
        .join()
        .unwrap();
        assert!(big >= 1 << 20);
        assert!(small < 1 << 20, "fresh thread does not see the other's MiB");
    }
}
