//! Pluggable time source: real monotonic clock or a deterministic
//! per-thread virtual clock.
//!
//! Every duration that can end up in a [`crate::RunReport`] — probe
//! spans, the sensei timing database, `Comm::wtime`, the staging
//! writers' advance/write decomposition — reads the clock through
//! [`now_seconds`]. By default that is a process-wide monotonic clock.
//! Under the deterministic scheduler (`minimpi::sched`), each rank
//! thread installs a *virtual* clock instead: every [`now_seconds`]
//! call advances a thread-local counter by a fixed tick and returns it.
//! Durations then count clock *reads*, not wall time, so a seeded run
//! records byte-identical timings on every execution.
//!
//! The source is thread-local on purpose: rank threads of a
//! deterministic world run virtual while the harness thread (and
//! GLEAN's drain thread) keep real time.

// The one module that reads `std::time::Instant` (clippy.toml's
// disallowed types): every other clock read goes through it.
#![allow(clippy::disallowed_types)]

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Seconds a virtual clock advances per [`now_seconds`] call: 100 ns.
/// Small enough that virtual spans stay far below any real-time
/// threshold a test might assert on, large enough to stay exact in f64.
pub(crate) const VIRTUAL_TICK_SECONDS: f64 = 1e-7;

thread_local! {
    /// `Some(ticks)` when this thread runs on virtual time.
    static VIRTUAL_TICKS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Process-wide origin for the real clock, fixed at first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since an arbitrary origin, on this thread's active source.
///
/// Real source: monotonic seconds since the process epoch. Virtual
/// source: the thread's tick counter advances by
/// [`VIRTUAL_TICK_SECONDS`] on every call and the new value is
/// returned, so two reads always differ by a deterministic amount.
pub fn now_seconds() -> f64 {
    VIRTUAL_TICKS.with(|v| match v.get() {
        Some(ticks) => {
            let next = ticks + 1;
            v.set(Some(next));
            next as f64 * VIRTUAL_TICK_SECONDS
        }
        None => epoch().elapsed().as_secs_f64(),
    })
}

/// Is this thread currently on the virtual source?
pub fn is_virtual() -> bool {
    VIRTUAL_TICKS.with(|v| v.get().is_some())
}

/// Switch this thread to the virtual source (counter reset to zero).
/// Restores the previous source when the returned guard drops.
pub fn install_virtual() -> VirtualTimeGuard {
    let prev = VIRTUAL_TICKS.with(|v| v.replace(Some(0)));
    VirtualTimeGuard { prev }
}

/// A wall-clock instant for *control flow*: receive deadlines, drain
/// deadlines, exploration budgets — places that must track real
/// elapsed time even on a thread whose measurement clock is virtual.
///
/// This is the workspace's only sanctioned wrapper around
/// [`std::time::Instant`]; clippy (`disallowed-types` in clippy.toml)
/// rejects direct `Instant`/`SystemTime` use outside this module, so
/// that every *measured* duration flows through [`now_seconds`] (and stays
/// deterministic under the virtual source), while timeout logic
/// explicitly opts into real time by naming `Wall`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Wall(Instant);

impl Wall {
    /// The current wall-clock instant (always real time, never virtual).
    pub fn now() -> Self {
        Wall(Instant::now())
    }

    /// Real time elapsed since this instant.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Restores the thread's previous time source on drop; see
/// [`install_virtual`].
pub struct VirtualTimeGuard {
    prev: Option<u64>,
}

impl Drop for VirtualTimeGuard {
    fn drop(&mut self) {
        VIRTUAL_TICKS.with(|v| v.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_advances() {
        assert!(!is_virtual());
        let a = now_seconds();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = now_seconds();
        assert!(b > a);
    }

    #[test]
    fn virtual_time_ticks_deterministically() {
        let _g = install_virtual();
        assert!(is_virtual());
        let a = now_seconds();
        let b = now_seconds();
        let c = now_seconds();
        assert_eq!(a, VIRTUAL_TICK_SECONDS);
        assert_eq!(b - a, VIRTUAL_TICK_SECONDS);
        assert_eq!(c - b, VIRTUAL_TICK_SECONDS);
    }

    #[test]
    fn guard_restores_previous_source() {
        {
            let _g = install_virtual();
            assert!(is_virtual());
            {
                let _inner = install_virtual();
                assert!(is_virtual());
            }
            // Still virtual: the inner guard restored the outer source.
            assert!(is_virtual());
        }
        assert!(!is_virtual());
    }

    #[test]
    fn wall_clock_is_real_even_under_virtual_time() {
        let _g = install_virtual();
        let t0 = Wall::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn virtual_source_is_per_thread() {
        let _g = install_virtual();
        let other = std::thread::spawn(is_virtual).join().unwrap();
        assert!(!other, "fresh threads start on real time");
    }
}
