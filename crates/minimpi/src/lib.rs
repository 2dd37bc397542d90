//! # minimpi — a thread-backed message-passing substrate
//!
//! The SC16 SENSEI paper runs everything on MPI. Rust has no mature MPI
//! ecosystem, so this crate provides the same SPMD programming model with
//! ranks backed by OS threads and messages moved through one mailbox
//! per rank and communicator, held in the world's rank table:
//!
//! * a [`World`] launches `P` ranks, each receiving a [`Comm`];
//! * tagged, typed point-to-point [`Comm::send`] / [`Comm::recv`] with
//!   per-`(source, tag)` FIFO matching, like MPI's matching rules;
//! * the collectives the workspace uses — [`Comm::barrier`],
//!   [`Comm::bcast`], [`Comm::reduce`], [`Comm::allreduce`],
//!   [`Comm::gather`], [`Comm::allgather`], [`Comm::scan`] — implemented
//!   *on top of* point-to-point with the classic algorithms (binomial
//!   trees, dissemination, ring), so their communication structure
//!   mirrors a real MPI implementation;
//! * communicator splitting ([`Comm::split`]) for subgroups, used by the
//!   staging infrastructures to carve simulation and endpoint partitions
//!   out of the world;
//! * loans ([`Comm::lend`], [`Comm::give_back`], [`Comm::reclaim`]) of
//!   buffers that come back, kept between loans in the rank's pool.
//!
//! A world keeps one table of its ranks (runnable, blocked in a
//! receive, finished) under every [`SchedPolicy`], and aborts as soon as
//! no live rank can run: every blocked rank panics with each rank's
//! wait state instead of hanging.
//!
//! Messages transfer ownership (a `Vec<f64>` moves without copying its
//! heap buffer), which is the moral equivalent of zero-copy shared-memory
//! MPI transports and keeps the substrate honest for the paper's overhead
//! measurements.
//!
//! ```
//! use minimpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     comm.allreduce_scalar(mine, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod comm;
mod envelope;
mod fault;
mod loan;
mod wire;
mod world;

pub mod collectives;
pub mod dpor;
pub mod sched;

pub use comm::Comm;
pub use dpor::Checker;
pub use envelope::ANY_SOURCE;
pub use fault::FaultHandle;
pub use loan::Verdict;
pub use sched::{Guide, LivenessSpec, SchedPolicy, Trace, TraceCell};
pub use wire::Wire;
pub use world::{World, WorldBuilder};

/// Crate-level result alias (operations that can fail on malformed use).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by communicator operations.
///
/// Misuse (type mismatches, rank out of range) panics — programs here
/// are deterministic SPMD codes where such conditions are bugs — and
/// so does a deadlock. The one recoverable condition is a receive that
/// gives up at its deadline.
#[derive(Debug)]
pub enum Error {
    /// A [`Comm::recv_deadline`] or [`Comm::recv_any_of_deadline`] gave
    /// up waiting. Carries a rendering of the rank's unmatched mail for
    /// diagnosis.
    DeadlineExceeded {
        /// Awaited source rank ([`ANY_SOURCE`] = any).
        src: usize,
        /// Awaited tag, human-readable.
        tag: String,
        /// How long the receive waited before giving up.
        waited: std::time::Duration,
        /// Rendered snapshot of unmatched `(src, tag)` pairs.
        pending: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DeadlineExceeded {
                src,
                tag,
                waited,
                pending,
            } => {
                if *src == ANY_SOURCE {
                    write!(
                        f,
                        "recv deadline exceeded after {waited:?} waiting for tag {tag} \
                         from any source; pending: {pending}"
                    )
                } else {
                    write!(
                        f,
                        "recv deadline exceeded after {waited:?} waiting for tag {tag} \
                         from rank {src}; pending: {pending}"
                    )
                }
            }
        }
    }
}

impl std::error::Error for Error {}
