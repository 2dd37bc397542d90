//! # iosim — post hoc I/O paths and storage-model glue
//!
//! The paper's post hoc comparison (Table 1, Figs. 10–12) exercises two
//! write paths and a read-side workflow:
//!
//! * [`vtkio`] — **file-per-rank VTK-style I/O**: every rank writes its
//!   block, a BP-lite step, to its own file plus a root-written manifest
//!   (the paper's "multi-file VTK I/O", the faster path at these
//!   scales);
//! * [`collective`] — **MPI-IO-style collective shared-file writes**:
//!   two-phase aggregation onto slab-owning writer ranks that each issue
//!   one positioned write into a single global row-major file (the
//!   `MPI_Type_create_subarray` + `MPI_File_write_all` pattern);
//! * [`posthoc`] — the read-side: a *smaller* reader group (the paper
//!   uses 10% of the write concurrency) reads the pieces back and runs
//!   SENSEI analyses on them, through the adaptor a staging endpoint
//!   builds from the steps it receives.
//!
//! All three run for real at thread scale; the `perfmodel::storage`
//! models (calibrated to Table 1) regenerate the paper-scale costs.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod collective;
pub mod posthoc;
pub mod vtkio;

pub use collective::collective_write;
pub use posthoc::posthoc_analysis;
pub use vtkio::{piece_path, write_manifest};
