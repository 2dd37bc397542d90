//! The process allocator: the system allocator, or — once [`track`] has
//! been called — the repository's tracking allocator
//! (`probe::alloc::TrackingAllocator`), which keeps the per-rank
//! allocation high-water mark behind `probe.alloc_peak_mb`.
//!
//! One binary serves both runs, so the choice is made at run time:
//! traced children switch tracking on before their first round;
//! untraced children pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use probe::alloc::TrackingAllocator;

// Publishes no other data: every allocator path is valid whichever
// value a thread reads.
static TRACKING: AtomicBool = AtomicBool::new(false);

/// Count allocations from now on.
pub fn track() {
    TRACKING.store(true, Ordering::Relaxed);
}

struct Switchable;

// SAFETY: every method forwards its arguments unchanged to `System` or
// to `TrackingAllocator`, which itself forwards to `System`; a block
// allocated on one path may therefore be resized or freed on the other.
// The tracking path only adds thread-local byte counters (saturating,
// so blocks allocated before `track()` cannot underflow them).
unsafe impl GlobalAlloc for Switchable {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes straight through.
        unsafe {
            if TRACKING.load(Ordering::Relaxed) {
                TrackingAllocator.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        unsafe {
            if TRACKING.load(Ordering::Relaxed) {
                TrackingAllocator.alloc_zeroed(layout)
            } else {
                System.alloc_zeroed(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from one of the paths above, both of which
        // return `System` blocks of this `layout`.
        unsafe {
            if TRACKING.load(Ordering::Relaxed) {
                TrackingAllocator.dealloc(ptr, layout)
            } else {
                System.dealloc(ptr, layout)
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`; `new_size` is the caller's to guarantee.
        unsafe {
            if TRACKING.load(Ordering::Relaxed) {
                TrackingAllocator.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}

#[global_allocator]
static ALLOCATOR: Switchable = Switchable;
