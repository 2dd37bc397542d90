//! # science — proxies for the paper's three application codes (§4.2)
//!
//! The paper demonstrates SENSEI inside three production codes. Those
//! codes (Fortran CFD solvers, a BoxLib cosmology code) are substituted
//! with physics proxies that exercise the **same in situ machinery**
//! with the same data-shape characteristics:
//!
//! * [`phasta`] — an unstructured tetrahedral flow proxy (vertical tail
//!   with a tunable synthetic jet): nodal coordinates and fields map
//!   **zero-copy**, connectivity is a **full copy** — exactly the
//!   adaptor copy semantics §4.2.1 describes — and Catalyst renders
//!   slice cuts through the mesh;
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

/// Classify a failed point-array attachment for the proxies' adaptors:
/// an unadvertised name is [`UnknownArray`](sensei::AdaptorError::UnknownArray),
/// a known name requested under the wrong association is
/// [`WrongAssociation`](sensei::AdaptorError::WrongAssociation), and a
/// known point request that still failed means the target mesh had the
/// wrong layout.
pub(crate) fn point_array_error(
    names: &[&str],
    assoc: sensei::Association,
    name: &str,
    layout: &str,
) -> sensei::AdaptorError {
    use sensei::AdaptorError;
    if !names.contains(&name) {
        AdaptorError::UnknownArray {
            name: name.to_string(),
            assoc,
        }
    } else if assoc != sensei::Association::Point {
        AdaptorError::WrongAssociation {
            name: name.to_string(),
            requested: assoc,
            available: sensei::Association::Point,
        }
    } else {
        AdaptorError::LayoutUnsupported {
            name: name.to_string(),
            detail: layout.to_string(),
        }
    }
}
