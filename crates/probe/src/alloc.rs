//! Per-thread allocation accounting behind the memory high-water gauge.
//!
//! [`TrackingAllocator`] wraps the system allocator and keeps
//! *thread-local* current/peak byte counters and a count of the blocks
//! it handed out. Under minimpi's
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
//! what the gauge is for. The byte counters are signed: a thread that
//! frees more of other threads' blocks than it allocates reads below
//! zero, so the difference between any two readings on one thread is
//! exactly what it allocated minus what it freed in between.
//!
//! Enable the `track-alloc` feature (binaries and test harnesses, not
//! libraries) to install the allocator; without it [`peak_bytes`] and
//! [`allocations`] report 0 and the gauge degrades gracefully.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CURRENT: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Blocks handed out to this thread since it started — by `alloc`,
/// `alloc_zeroed` and `realloc` alike, since a `realloc` may move its
/// block. Differences between two readings count a section's heap
/// calls.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Heap bytes this thread allocated minus those it freed: its live
/// bytes, less any blocks of other threads it freed (possibly negative).
pub fn current_bytes() -> isize {
    CURRENT.try_with(Cell::get).unwrap_or(0)
}

fn peak() -> isize {
    PEAK.try_with(Cell::get).unwrap_or(0)
}

/// High-water [`current_bytes`] since the thread started (or since the
/// last [`reset_peak`]); a mark below zero reads as 0.
pub fn peak_bytes() -> usize {
    peak().max(0) as usize
}

/// How far the high-water mark rose above `floor`, a [`current_bytes`]
/// reading taken after the last [`reset_peak`]; exact on a thread whose
/// count is below zero.
///
/// # Panics
/// Panics if the mark is below `floor`, which only a `floor` read
/// before the last [`reset_peak`] can give.
pub fn rise_since(floor: isize) -> usize {
    let mark = peak();
    assert!(
        mark >= floor,
        "rise_since: floor {floor} B above the mark {mark} B (read before the last reset_peak)"
    );
    (mark - floor) as usize
}

/// Restart the high-water mark from the current level.
pub fn reset_peak() {
    let now = current_bytes();
    let _ = PEAK.try_with(|p| p.set(now));
}

// A block's size fits an `isize` (`Layout`'s own bound), so the casts
// below are exact.
fn credit(n: usize) {
    // `try_with` guards thread teardown (TLS already destroyed).
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
    let _ = CURRENT.try_with(|c| {
        let v = c.get() + n as isize;
        c.set(v);
        let _ = PEAK.try_with(|p| {
            if v > p.get() {
                p.set(v);
            }
        });
    });
}

fn debit(n: usize) {
    let _ = CURRENT.try_with(|c| c.set(c.get() - n as isize));
}

/// A [`GlobalAlloc`] delegating to [`System`] while keeping the
/// thread-local counters above.
pub struct TrackingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counters beside it touch
// only thread-local cells and never allocate.
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
            let floor = current_bytes();
            let v = vec![0u8; 1 << 20];
            assert!(rise_since(floor) >= 1 << 20, "peak saw the alloc");
            drop(v);
            assert!(rise_since(current_bytes()) >= 1 << 20, "peak is sticky");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn freeing_another_threads_block_counts_below_zero() {
        // F bytes allocated on another thread, more than this thread
        // holds live, freed here; then N bytes allocated here.
        const F: usize = 3 << 20;
        const N: usize = 1 << 16;
        let foreign = std::thread::spawn(|| vec![0u8; F]).join().unwrap();
        std::thread::spawn(move || {
            reset_peak();
            let before = current_bytes();
            assert!(before < F as isize, "F exceeds this thread's live bytes");
            drop(foreign);
            let mine = vec![0u8; N];
            assert_eq!(current_bytes() - before, N as isize - F as isize);
            assert_eq!(rise_since(before), 0, "the mark is the floor");
            assert_eq!(peak_bytes(), before.max(0) as usize);
            drop(mine);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn every_block_handed_out_is_counted() {
        std::thread::spawn(|| {
            let before = allocations();
            let mut v: Vec<u8> = Vec::with_capacity(8);
            assert_eq!(allocations(), before + 1, "alloc");
            v.reserve_exact(1 << 20);
            assert_eq!(allocations(), before + 2, "realloc");
            drop(v);
            let zeroed = vec![0u8; 16];
            assert_eq!(
                allocations(),
                before + 3,
                "alloc_zeroed; a free is not counted"
            );
            assert_eq!(zeroed.capacity(), 16);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn threads_account_separately() {
        // A fresh thread may start below zero (it frees blocks its
        // spawner allocated for it), so the MiB is read from its floor.
        let big = std::thread::spawn(|| {
            reset_peak();
            let floor = current_bytes();
            let _v = vec![0u8; 1 << 20];
            rise_since(floor)
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
