//! Machine specifications for the three platforms the paper uses.
//!
//! Every field is a *calibration constant*. Where the paper prints a
//! number (Table 1 write times, Libsim's ~3.5 s init at 45K, PHASTA's
//! Table 2), the field is solved from it in code by the rule its comment
//! states; elsewhere it is typed, from published machine characteristics.

use crate::compositing::rgb_bytes;
use crate::workloads::{self, miniapp_scales, miniapp_step_bytes};

/// Interpolation table: piecewise log-linear `y(x)` through calibration
/// points, clamped at the ends. Storage systems (metadata servers
/// especially) have empirically non-monotone throughput curves, so a
/// table beats any smooth closed form.
#[derive(Clone, Debug)]
pub(crate) struct CalibTable {
    /// `(x, y)` anchor points with strictly increasing `x`.
    pub points: Vec<(f64, f64)>,
}

impl CalibTable {
    /// Build from anchors; panics on unordered or empty input.
    pub(crate) fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "calibration table needs points");
        assert!(
            points.windows(2).all(|w| w[1].0 > w[0].0),
            "calibration x values must be strictly increasing"
        );
        CalibTable { points }
    }

    /// Evaluate at `x` with log-x linear interpolation, clamped outside
    /// the anchor range.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x <= x1 {
                let t = (x.ln() - x0.ln()) / (x1.ln() - x0.ln());
                return y0 + t * (y1 - y0);
            }
        }
        unreachable!("x within range must hit a segment")
    }
}

/// Calibrated description of one HPC platform.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Human-readable name ("cori-haswell", …).
    pub name: &'static str,
    /// Effective per-core cell-update throughput scale relative to a Cori
    /// Haswell core (BG/Q cores are much slower per core).
    pub core_speed: f64,
    /// Point-to-point latency, seconds (network α).
    pub net_alpha: f64,
    /// Per-link bandwidth, bytes/second (network 1/β).
    pub net_bw: f64,
    /// Per-stage synchronization-skew cost for image compositing at
    /// scale, seconds; captures OS jitter and stage barriers.
    pub composite_stage_alpha: f64,
    /// Effective per-rank compositing bandwidth, bytes/second — the rate
    /// the pixel traffic of a compositing stage actually achieves with
    /// many ranks per node sharing links.
    pub composite_bw: f64,
    /// Metadata-server file-create throughput (files/s) as a function of
    /// simultaneous file count.
    pub(crate) mds_create_rate: CalibTable,
    /// Metadata-server stat/open throughput (files/s), what Libsim's
    /// per-rank config check costs.
    pub mds_stat_rate: f64,
    /// Aggregate streaming write bandwidth of the parallel FS, bytes/s.
    pub fs_agg_bw: f64,
    /// Effective collective (MPI-IO, shared-file) write bandwidth,
    /// bytes/s.
    pub fs_collective_bw: f64,
    /// Per-reader effective read bandwidth, bytes/s (post hoc reads).
    pub fs_read_bw_per_reader: f64,
    /// Cap on aggregate read bandwidth under shared-system contention.
    pub fs_read_agg_cap: f64,
    /// Lognormal sigma of storage interference (Lofstead variability).
    pub io_noise_sigma: f64,
    /// Per-connection staging-endpoint setup cost, seconds (Fig. 9's
    /// Cori reader-init; "an order of magnitude lower" on Titan). Typed:
    /// the paper charts it and prints no number.
    pub staging_connect_cost: f64,
    /// Serial zlib DEFLATE throughput on one core, bytes/s — the PNG
    /// compression of Table 2's discussion (rank-0 serial).
    pub zlib_bw: f64,
}

impl MachineSpec {
    /// Cori Phase I (Cray XC40, Haswell, Aries dragonfly, Lustre):
    /// platform of the miniapplication and Nyx studies.
    pub fn cori_haswell() -> Self {
        let fs_agg_bw = 650e9;
        // Table 1, one step of each miniapp run: a VTK I/O time (0.12 /
        // 0.67 / 9.05 s) net of its stream at fs_agg_bw is the run's file
        // creates, and MPI-IO's bandwidth is its largest step's, 22.87 s.
        let table1 = miniapp_scales().map(|(p, cells)| (p as f64, miniapp_step_bytes(p, cells)));
        let vtk = table1.iter().zip([0.12, 0.67, 9.05]);
        let creates = vtk.map(|(&(files, bytes), t)| (files, files / (t - bytes / fs_agg_bw)));
        MachineSpec {
            name: "cori-haswell",
            core_speed: 1.0,
            net_alpha: 1.5e-6,
            net_bw: 8e9,
            composite_stage_alpha: 8e-3,
            composite_bw: 120e6,
            mds_create_rate: CalibTable::new(creates.collect()),
            // Libsim's ≈3.5 s init at 45 440 ranks (Fig. 5), net of parsing.
            mds_stat_rate: 45_440.0 / (3.5 - workloads::SESSION_PARSE),
            fs_agg_bw,
            fs_collective_bw: table1[2].1 / 22.87,
            fs_read_bw_per_reader: 50e6,
            fs_read_agg_cap: 60e9,
            io_noise_sigma: 0.35,
            staging_connect_cost: 2.2e-4,
            zlib_bw: 30.0e6,
        }
    }

    /// Mira (IBM Blue Gene/Q, GPFS): platform of the PHASTA runs. Slow
    /// cores, many ranks per node, 5D torus.
    pub fn mira_bgq() -> Self {
        let mut m = MachineSpec {
            name: "mira-bgq",
            core_speed: 0.25,
            net_alpha: 2.5e-6,
            net_bw: 2e9,
            // Free until solved below from Table 2 (phasta_composite_fit).
            composite_stage_alpha: 0.0,
            composite_bw: f64::INFINITY,
            mds_create_rate: CalibTable::new(vec![(1000.0, 4000.0), (1e6, 2000.0)]),
            mds_stat_rate: 8000.0,
            fs_agg_bw: 240e9,
            fs_collective_bw: 3.0e9,
            fs_read_bw_per_reader: 40e6,
            fs_read_agg_cap: 30e9,
            io_noise_sigma: 0.25,
            staging_connect_cost: 2.0e-5,
            // Table 2's discussion: skipping PNG compression took a step of
            // a 2900×725 image from 4.03 s to 0.518 s, its RGB's deflate.
            zlib_bw: rgb_bytes(2900, 725) / (4.03 - 0.518),
        };
        (m.composite_stage_alpha, m.composite_bw) = workloads::phasta_composite_fit(&m);
        m
    }

    /// Titan (Cray XK7, Gemini, Lustre/Spider): platform of the
    /// AVF-LESLIE runs and the fast-staging-init observation.
    pub fn titan() -> Self {
        MachineSpec {
            name: "titan",
            core_speed: 0.6,
            net_alpha: 1.8e-6,
            net_bw: 5e9,
            composite_stage_alpha: 2.2e-2,
            composite_bw: 60e6,
            mds_create_rate: CalibTable::new(vec![(1000.0, 5000.0), (131072.0, 3500.0)]),
            mds_stat_rate: 10000.0,
            fs_agg_bw: 500e9,
            fs_collective_bw: 4.0e9,
            fs_read_bw_per_reader: 45e6,
            fs_read_agg_cap: 50e9,
            io_noise_sigma: 0.3,
            staging_connect_cost: 2.0e-5,
            zlib_bw: 3.0e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calib_table_interpolates_and_clamps() {
        let t = CalibTable::new(vec![(10.0, 1.0), (1000.0, 3.0)]);
        assert_eq!(t.eval(1.0), 1.0); // clamp low
        assert_eq!(t.eval(1e6), 3.0); // clamp high
        let mid = t.eval(100.0); // halfway in log space
        assert!((mid - 2.0).abs() < 1e-9, "got {mid}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_anchors_panic() {
        let _ = CalibTable::new(vec![(5.0, 1.0), (2.0, 2.0)]);
    }
}
