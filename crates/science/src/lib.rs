//! # science — proxies for the paper's three application codes (§4.2)
//!
//! The paper demonstrates SENSEI inside three production codes. Those
//! codes (Fortran CFD solvers, a BoxLib cosmology code) are substituted
//! with physics proxies that exercise the **same in situ machinery**
//! with the same data-shape characteristics:
//!
//! * [`phasta`] — an unstructured tetrahedral flow proxy (vertical tail
//!   with a tunable synthetic jet): nodal coordinates and fields map
//!   **zero-copy**, connectivity is a **full copy**, made once on first
//!   use — exactly the adaptor copy semantics §4.2.1 describes — and
//!   its cut through the mesh is a `render::scene` plot;
//! * [`leslie`] — a Cartesian temporally-evolving mixing layer
//!   (AVF-LESLIE's TML problem): the adaptor derives vorticity
//!   magnitude and blanks ghost planes; Libsim renders 3 isosurfaces +
//!   3 slices every 5th step (§4.2.2);
//! * [`nyx`] — a particle-mesh cosmology proxy on rectilinear boxes
//!   with CIC deposition, particle migration, and ghost-cell blanking
//!   via the `vtkGhostType` convention; histogram and Catalyst-slice
//!   analyses attach with sub-second per-step cost (§4.2.3).
//!
//! Each proxy is an SPMD `minimpi` program with real halo exchange /
//! particle migration, a SENSEI data adaptor, and deterministic seeded
//! initial conditions.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod leslie;
pub mod nyx;
pub mod phasta;

pub use leslie::{Leslie, LeslieAdaptor, LeslieConfig};
pub use nyx::{Nyx, NyxAdaptor, NyxConfig};
pub use phasta::{Phasta, PhastaAdaptor, PhastaConfig};
