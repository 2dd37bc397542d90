//! Happens-before sanitizer for the zero-copy data path.
//!
//! The paper's bridge is zero-copy: simulation and endpoint alias the
//! same arrays, and because this workspace's ranks are threads (not
//! MPI processes), a bad interleaving genuinely corrupts shared
//! memory instead of a private copy. This crate detects those
//! hazards:
//!
//! * **use-after-publish** — a rank mutates an array while a
//!   zero-copy view of it is staged to an endpoint, with no message
//!   chain ordering the release before the write;
//! * **ghost writes** — a rank writes a tuple its decomposition marks
//!   as a ghost copy (`vtkGhostType` non-zero);
//! * **message leaks** — sends never received by world teardown;
//! * **view leaks** — publish windows still open at
//!   `Bridge::finalize`;
//! * **obligation leaks** — protocol acquire/release pairs left open
//!   (a GLEAN drain never closed)
//!   at `Bridge::finalize` or world teardown.
//!
//! Mechanically: each rank thread installs a [`ctx`] holding a
//! [`VectorClock`]; minimpi ticks it per send, piggybacks a [`Stamp`]
//! on every envelope, and merges on delivery (collectives are built
//! on those sends, so their barriers join participants for free).
//! Shared `DataArray`s carry an `Arc<`[`Shadow`]`>` ledger of publish
//! windows and last writer/reader epochs; array mutations check the
//! happens-before rule against every window.
//!
//! **Off by default, zero cost when off**: every hook early-returns
//! on an empty thread-local; no clocks, shadows, or stamps are
//! allocated. Enable per-world with `WorldBuilder::sanitizer`, or
//! process-wide with `SENSEI_SANITIZER=1` (checked per world run, not
//! cached). Under `SchedPolicy::Seeded`/`Replay` every finding
//! carries the seed that deterministically reproduces it;
//! `minimpi::Checker::sanitize()` arms a session on every explored
//! schedule and turns its findings into minimized, replayed failures.
//!
//! The crate deliberately never reads `probe::time` — a sanitized run
//! must stay bitwise-identical in its virtual-clock tick counts.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod clock;
mod ctx;
mod report;
mod session;
mod shadow;

pub use clock::{Stamp, VectorClock};
pub use ctx::{
    active, cancel_send, check_obligations, check_view_leaks, close_obligation, install, on_recv,
    on_send, open_obligation, report_wrong_space, session, slot, CtxGuard,
};
pub use report::{Finding, FindingKind};
pub use session::{Mode, Session};
pub use shadow::Shadow;

/// Environment variable that force-enables the sanitizer for every
/// world (`1`/`true`/`on`, case-insensitive).
pub(crate) const ENV_VAR: &str = "SENSEI_SANITIZER";

/// Should worlds auto-install a sanitizer? Reads [`ENV_VAR`] on every
/// call (no caching) so a process can toggle it between runs — the
/// overhead benchmark measures on vs off in one binary.
pub fn env_enabled() -> bool {
    match std::env::var(ENV_VAR) {
        Ok(v) => matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on"),
        Err(_) => false,
    }
}
