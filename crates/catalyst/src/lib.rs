//! # catalyst — a ParaView Catalyst-like in situ infrastructure
//!
//! Catalyst exposes ParaView's pipeline machinery in situ. This crate
//! reproduces the pieces the paper exercises:
//!
//! * the **slice pipeline** ([`SlicePipeline`]) — extract a 2D slice
//!   from the 3D volume, pseudocolor it, **binary-swap** composite a
//!   1920×1080 image, and PNG-encode it — zlib, the Table 2 cost
//!   center, which the paper runs serially on rank 0 and this adaptor
//!   runs on every rank over the rows binary swap left it, for the same
//!   file on rank 0. All of it is `render::scene::Scene` in Catalyst's
//!   configuration, the one Libsim configures differently; the
//!   footprint of a Catalyst Edition (153 MB static, 87 MB dynamic) is
//!   `perfmodel::memory`'s. An unstructured field is reported once
//!   and drawn as a blank frame: the slice is a point index in a
//!   structured extent. PHASTA's slice through the wing is
//!   `render::scene::Plot::Cut`, drawn by the same `Scene::frame`;
//! * a SENSEI [`sensei::AnalysisAdaptor`] wrapper
//!   ([`CatalystSliceAnalysis`]) so simulations drive Catalyst through
//!   the generic interface without Catalyst-specific code.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod pipeline;

pub use pipeline::{CatalystSliceAnalysis, SlicePipeline};

/// Catalyst's default output resolution in the paper's miniapp study.
pub const DEFAULT_IMAGE: (usize, usize) = (1920, 1080);
