//! # libsim — a VisIt Libsim-like in situ infrastructure
//!
//! Libsim exposes VisIt's plotting machinery to running simulations,
//! configured by **session files** saved from the VisIt GUI. This crate
//! reproduces the workload the paper exercises:
//!
//! * a [`session`] file format (a stand-in for VisIt's XML sessions)
//!   describing plots — pseudocolor slices and isosurface levels — plus
//!   image size and render frequency (AVF-LESLIE rendered every 5th
//!   step);
//! * a render engine that is `render::scene::Scene` in Libsim's
//!   configuration: 1600×1600 images and **direct-send tree**
//!   compositing (a different algorithm family than Catalyst, per the
//!   Fig. 6 observation) — the same scene Catalyst configures, so the
//!   two differ by configuration and startup cost, not by machinery;
//! * the per-rank configuration-file check at startup whose
//!   metadata-server serialization produced the ~3.5 s init cost at 45K
//!   ranks called out in Fig. 5 — performed here as a real filesystem
//!   `stat` per rank;
//! * a SENSEI [`sensei::AnalysisAdaptor`] wrapper ([`LibsimAnalysis`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod engine;
pub mod session;

pub use engine::LibsimAnalysis;
pub use session::{Plot, Session};

/// Libsim's output resolution in the paper's miniapp study.
pub const DEFAULT_IMAGE: (usize, usize) = (1600, 1600);
