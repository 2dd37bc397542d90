//! # perfmodel — machine and cost models for extreme-scale regeneration
//!
//! The paper's studies run at 812–45,440 cores on Cori, 262,144–1,048,576
//! MPI ranks on Mira, and 8,192–131,072 cores on Titan. Those
//! concurrencies cannot be executed as threads on one box, so this crate
//! provides the *modeled* execution mode described in DESIGN.md:
//!
//! * [`MachineSpec`] — per-platform constants (core speed, network α/β,
//!   metadata-server throughput, aggregate bandwidths, compositing
//!   effective rates) for `cori_haswell()`, `mira_bgq()`, `titan()`;
//! * [`network`] — α–β cost models for the collectives the analyses use;
//! * [`storage`] — Lustre/GPFS-shaped file-per-rank, collective, and read
//!   models with Lofstead-style lognormal interference;
//! * [`compositing`] — binary-swap and direct-send image compositing;
//! * [`workloads`] — per-application per-timestep cost models (oscillator
//!   miniapp, PHASTA, AVF-LESLIE, Nyx) calibrated to the paper's reported
//!   anchors;
//! * [`memory`] — executable and heap footprint models for the memory
//!   studies (Figs. 4, 7 and the PHASTA/Nyx executable-size notes);
//! * [`noise`] — deterministic seeded noise so regenerated charts carry
//!   realistic run-to-run variability yet reproduce bit-for-bit.
//!
//! Constants are *calibrations*, not first-principles predictions: each is
//! anchored either to a number printed in the paper (e.g. Table 1's write
//! times, Table 2's PHASTA in situ costs) or to a real measurement from
//! the threaded execution mode. EXPERIMENTS.md records the resulting
//! paper-vs-model comparison for every figure.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod compositing;
pub mod machine;
pub mod memory;
pub mod network;
pub mod noise;
pub mod storage;
pub mod workloads;

pub use machine::MachineSpec;
pub use noise::SeededNoise;

/// Gigabyte in bytes, used throughout the models.
pub const GB: f64 = 1e9;
/// Megabyte in bytes.
pub const MB: f64 = 1e6;

/// log2 of a rank count, as the (integer, ceiling) number of tree stages.
pub(crate) fn stages(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        ((p as f64).log2()).ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_edge_cases() {
        assert_eq!(stages(1), 0.0);
        assert_eq!(stages(2), 1.0);
        assert_eq!(stages(3), 2.0);
        assert_eq!(stages(1024), 10.0);
        assert_eq!(stages(1 << 20), 20.0);
    }
}
