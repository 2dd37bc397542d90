//! # datamodel — a VTK-like scientific data model
//!
//! The SENSEI interface (SC16) standardizes on the VTK data model as the
//! lingua franca between simulations and in situ infrastructures. This
//! crate is a from-scratch Rust equivalent of the subset the paper uses:
//!
//! * [`DataArray`] — named, typed, multi-component arrays supporting both
//!   *array-of-structures* and *structure-of-arrays* layouts, exactly the
//!   enhancement the paper contributed to VTK so simulation arrays map
//!   **zero-copy**. Zero-copy is expressed with shared buffers
//!   ([`Buffer::Shared`]): constructing a view of a simulation field is
//!   O(1) and does not touch the field's bytes.
//! * [`ImageData`] / [`RectilinearGrid`] / [`UnstructuredGrid`] — the mesh
//!   types exercised by the oscillator miniapp (uniform), Nyx
//!   (rectilinear boxes) and PHASTA (unstructured), plus [`MultiBlock`]
//!   for per-rank block collections.
//! * ghost-cell marking via the `vtkGhostType` attribute convention
//!   ([`attributes::GHOST_ARRAY_NAME`]), used by the Nyx and AVF-LESLIE
//!   adaptors to blank ghost zones.
//! * [`Extent`] index-space algebra and a block [`decomp`]osition helper
//!   mirroring `MPI_Dims_create` + regular decomposition.
//!
//! Every structure reports its heap footprint ([`MemoryFootprint`]) so the
//! paper's memory-overhead studies (Figs. 4, 7) can attribute bytes to
//! simulation vs. analysis ownership.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod array;
pub mod attributes;
pub mod dataset;
pub mod decomp;
pub mod extent;
pub mod grids;
pub mod multiblock;
pub mod sanitize;
pub mod space;
pub mod unstructured;

pub use array::{Buffer, DataArray, Layout, Scalar, ScalarType};
pub use attributes::{Attributes, GHOST_ARRAY_NAME};
pub use dataset::{DataSet, Structured};
pub use decomp::{dims_create, duplicate_point_ghosts, partition_extent};
pub use extent::Extent;
pub use grids::{ImageData, RectilinearGrid};
pub use multiblock::MultiBlock;
pub use sanitize::publish_dataset;
pub use space::{current_space, enter_space, AccessError, MemorySpace};
pub use unstructured::{CellType, UnstructuredGrid};

/// Anything that can report how many heap bytes it owns.
///
/// `count_shared` controls whether bytes behind shared (zero-copy) buffers
/// are attributed to this structure. The paper's memory studies need both
/// views: the analysis' *own* footprint excludes shared simulation data,
/// while a total high-water mark includes it once.
pub trait MemoryFootprint {
    /// Heap bytes reachable from this value.
    fn heap_bytes(&self, count_shared: bool) -> usize;
}
