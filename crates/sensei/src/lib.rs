//! # sensei — the generic in situ data interface (the paper's §3.2)
//!
//! SENSEI decouples *what a simulation produces* from *which in situ
//! infrastructure consumes it* with three small pieces:
//!
//! * the **data adaptor** ([`DataAdaptor`]) maps simulation data
//!   structures into the shared data model (`datamodel`), lazily — when
//!   no analysis is enabled nothing is mapped, so instrumentation
//!   overhead is almost nonexistent;
//! * the **analysis adaptor** ([`AnalysisAdaptor`]) wraps any analysis —
//!   a histogram, an autocorrelation, or an entire infrastructure such as
//!   Catalyst, Libsim, ADIOS, or GLEAN — behind one `execute` call;
//! * the **bridge** ([`Bridge`]) is the thin mechanism a simulation calls
//!   once per timestep to pass data and control to the enabled analyses,
//!   and which records one-time (`initialize/…`, `finalize/…`) and
//!   `per-step/…` costs as [`probe`] spans — the measurements behind
//!   Figs. 3–9, read back from the [`RunReport`] of [`Bridge::finalize`].
//!
//! *Write once, use everywhere*: a simulation instrumented with a
//! [`DataAdaptor`] can drive any analysis; an analysis written against
//! the data model runs under any infrastructure crate in this workspace.
//!
//! ```
//! use minimpi::World;
//! use sensei::{Bridge, InMemoryAdaptor};
//! use sensei::analysis::histogram::HistogramAnalysis;
//! use datamodel::{DataArray, DataSet, Extent, ImageData};
//!
//! World::run(4, |comm| {
//!     // Each rank owns 8 cells of a 32-cell global field.
//!     let e = Extent::whole([9, 2, 2]);
//!     let local = datamodel::partition_extent(&e, [4, 1, 1], comm.rank());
//!     let mut grid = ImageData::new(local, e);
//!     let vals: Vec<f64> = (0..grid.num_points())
//!         .map(|i| (comm.rank() * 100 + i) as f64)
//!         .collect();
//!     grid.add_point_array(DataArray::owned("data", 1, vals));
//!
//!     let hist = HistogramAnalysis::new("data", 8);
//!     let results = hist.results_handle();
//!     let mut bridge = Bridge::new();
//!     bridge.register(Box::new(hist));
//!
//!     let adaptor = InMemoryAdaptor::new(DataSet::Image(grid), 0.0, 0);
//!     assert!(bridge.execute(&adaptor, comm).should_continue());
//!     let report = bridge.finalize(comm);
//!     assert_eq!(report.steps, 1);
//!
//!     if comm.rank() == 0 {
//!         let h = results.lock().clone().expect("histogram on root");
//!         // 4 blocks × (3×2×2 points, incl. shared planes) = 48 values.
//!         assert_eq!(h.counts.iter().sum::<u64>(), 48);
//!         // The run report carries the per-phase breakdown.
//!         assert!(report.phase("per-step/histogram").is_some());
//!     }
//! });
//! ```

pub mod adaptor;
pub mod analysis;
pub mod bridge;
pub mod config;
pub mod failure;

pub use adaptor::{AdaptorError, Association, DataAdaptor, InMemoryAdaptor};
pub use analysis::{AnalysisAdaptor, Steering};
pub use bridge::{Bridge, Registration, StopInfo};
pub use failure::FailureReport;

// Re-exported so downstream crates can consume run reports without
// depending on `probe` directly.
pub use probe::{Probe, RunReport, Snapshot};
