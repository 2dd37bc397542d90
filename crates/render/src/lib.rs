//! # render — the software visualization stack
//!
//! The paper's in situ visualization workloads (Catalyst-slice,
//! Libsim-slice, AVF-LESLIE's isosurfaces) run ParaView/VisIt rendering
//! through OSMesa — i.e. *software* rendering. This crate provides the
//! equivalent pieces from scratch:
//!
//! * [`color`] — colormaps (cool–warm diverging, viridis-like)
//!   for pseudocoloring;
//! * [`framebuffer`] — RGB colour + depth buffers, a pixel covered where
//!   its depth is finite, and the one buffer per rank that every in situ
//!   frame is drawn into;
//! * [`camera`] — orthographic and simple perspective projection;
//! * [`raster`] — z-buffered triangle rasterization;
//! * [`slice`] — axis-aligned slice extraction from structured grids;
//! * [`isosurface`] — marching-tetrahedra isosurfacing of structured
//!   fields;
//! * `cut` — the plane cut of a tetrahedral mesh (PHASTA's slice
//!   through the wing), a plot of a [`scene`];
//! * [`composite`] — parallel image compositing over `minimpi`, with the
//!   two algorithm families the infrastructures use (**binary swap** and
//!   **direct-send tree**);
//! * [`png`] + [`deflate`] — a real PNG encoder over a from-scratch
//!   DEFLATE (stored and fixed-Huffman + LZ77) with CRC-32/Adler-32,
//!   plus a matching inflater for round-trip verification. The serial
//!   zlib cost on rank 0 is the effect behind the paper's Table 2
//!   finding, so it has to be real, measurable code; the adaptors
//!   spend it on every rank instead ([`png::PngEncoder`]: the same
//!   file, deflated in bands where the composited rows already are);
//! * [`scene`] — one in situ frame from those pieces, which both
//!   infrastructure crates configure instead of assembling their own,
//!   and the one way to an image: the science proxies' renders (PHASTA's
//!   cut among them) are scenes too.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod camera;
pub mod color;
pub mod composite;
mod cut;
pub mod deflate;
pub mod framebuffer;
pub mod isosurface;
pub mod pipeline;
pub mod png;
pub mod raster;
pub mod scene;
pub mod slice;

pub use camera::Camera;
pub use color::{Color, Colormap};
pub use framebuffer::Framebuffer;
