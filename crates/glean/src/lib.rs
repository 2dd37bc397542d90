//! # glean — GLEAN-like topology-aware data staging and I/O acceleration
//!
//! GLEAN (§2.2.3) "takes application, analysis, and system
//! characteristics into account to facilitate simulation-time data
//! analysis and I/O acceleration" with "zero or minimal modifications"
//! to the application. The mechanisms reproduced here:
//!
//! * **topology-aware aggregation** ([`Topology`]) — compute ranks
//!   forward their blocks to a node-level aggregator (one per
//!   `ranks_per_node`), collapsing a file-per-rank storm into a
//!   file-per-aggregator trickle;
//! * **asynchronous draining** — each aggregator hands its aggregated
//!   steps through a bounded queue to a background drain thread, which
//!   appends them to the aggregator's `.bp` file, overlapping storage
//!   I/O with the next simulation step (the "fastest path for their
//!   data"); a drain that stays behind is cut off and reported instead
//!   of holding the simulation;
//! * a SENSEI [`sensei::AnalysisAdaptor`] wrapper ([`GleanWriter`]) so
//!   the simulation enables GLEAN exactly like any other analysis.
//!
//! A rank's block is a BP-lite step ([`adios::BpStep`]): the array,
//! the producer's ghost flags and the geometry, marshalled by
//! [`adios::staging::marshal`] — the one copy, out of the simulation's
//! buffer. `minimpi` messages move ownership, so that step then
//! reaches the aggregator and the drain without another.
//! The files hold BP-lite steps too, and read back through
//! [`adios::BpFile::read_all`] and [`adios::staging::round_adaptor`]
//! as post hoc and in transit data do.

mod aggregate;

pub use aggregate::{GleanWriter, Topology};
