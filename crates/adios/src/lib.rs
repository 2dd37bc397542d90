//! # adios — an ADIOS-like adaptive I/O service with FlexPath staging
//!
//! ADIOS lets applications switch between I/O service providers — files,
//! in situ, in transit — by changing parameters, not code. Unlike
//! Catalyst/Libsim it carries no analytics of its own: it marshals
//! self-describing data to wherever the analysis runs. This crate
//! reproduces the pieces §4.1.4 exercises:
//!
//! * [`bp`] — **BP-lite**, a self-describing binary format: named,
//!   block-decomposed variables with global/local dimensions and
//!   offsets, each payload in its own scalar type, serializable to bytes
//!   (staging) or appended to `.bp` files (post hoc);
//! * [`flexpath`] — a publish/subscribe staging transport pairing a
//!   writer group (the simulation) with an endpoint group (the analysis
//!   reader), with the `advance` metadata handshake, bounded queue
//!   back-pressure (writers block when the reader lags — the
//!   `adios::analysis` time of Fig. 8), and dynamic disconnect;
//! * [`staging`] — the two-executable pattern: a SENSEI
//!   [`sensei::AnalysisAdaptor`] for the writer side
//!   ([`staging::AdiosWriterAnalysis`]) that ships each step's data,
//!   and an endpoint loop ([`staging::run_endpoint_with_broker`]) that
//!   reconstructs datasets and drives any SENSEI analyses — so a
//!   Catalyst slice or a histogram runs *in transit* without the
//!   simulation knowing.
//!
//! The transport deliberately keeps one marshaling copy, on the writer:
//! FlexPath "does not yet use zero-copy" in the paper, and that copy is
//! part of the measured overhead. The endpoint adopts the buffers the
//! writer marshalled into, so it adds no second one.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod bp;
pub mod broker;
pub mod flexpath;
pub mod staging;

pub use bp::{BpError, BpFile, BpStep, BpVar, Payload};
pub use broker::{BrokerConfig, StagingBroker};
pub use flexpath::{pair, Role};
