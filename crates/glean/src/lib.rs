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
//! * **asynchronous draining** — each aggregator publishes aggregated
//!   steps to its staging-broker topic (`("glean/<array>", agg)` on an
//!   [`adios::broker::Broker`]); a background writer thread subscribes
//!   and persists them, overlapping storage I/O with the next
//!   simulation step (the "fastest path for their data"), and any
//!   number of extra subscribers can watch the same topic
//!   ([`GleanWriter::with_broker`]);
//! * a SENSEI [`sensei::AnalysisAdaptor`] wrapper ([`GleanWriter`]) so
//!   the simulation enables GLEAN exactly like any other analysis.
//!
//! Because `minimpi` messages move ownership, intra-node "aggregation"
//! is genuinely copy-free: a rank's field buffer travels to the
//! aggregator without a memcpy.

mod aggregate;
mod blobs;

pub use aggregate::{GleanWriter, NodeStep, Topology};
pub use blobs::{read_blob_file, BlockRecord};
