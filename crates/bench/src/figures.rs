//! Modeled regeneration of every table and figure in the paper's
//! evaluation, at the paper's concurrencies, on the paper's machines.
//! See EXPERIMENTS.md for the paper-vs-regenerated comparison.

use perfmodel::compositing::Algorithm::{BinarySwap, DirectSendTree};
use perfmodel::memory::{self, Executable};
use perfmodel::storage;
use perfmodel::workloads::{self as w, PhastaRun};
use perfmodel::{MachineSpec, SeededNoise};

use crate::table::{bytes, secs, Table};

/// Oscillator count of the miniapp configuration.
pub(crate) const OSCILLATORS: usize = 3;
/// Autocorrelation window (§3.3 time delay t).
pub const WINDOW: usize = 10;
/// Top-k of the autocorrelation finalize.
pub(crate) const TOP_K: usize = 16;
/// Histogram bins.
pub const BINS: usize = 64;
/// Steps per miniapp run.
pub const STEPS: usize = 100;

fn cori() -> MachineSpec {
    MachineSpec::cori_haswell()
}

/// Per-step analysis cost of each miniapp in situ configuration.
fn analysis_step(m: &MachineSpec, config: &str, p: usize, cells: usize) -> f64 {
    match config {
        "Baseline" => w::sensei_adaptor_overhead(),
        "Histogram" => w::histogram_step(m, p, cells, BINS),
        "Autocorrelation" => w::autocorrelation_step(m, cells, WINDOW),
        "Catalyst-slice" => w::catalyst_slice_step(m, p, cells),
        "Libsim-slice" => w::libsim_slice_step(m, p, cells),
        other => panic!("unknown config {other}"),
    }
}

/// One-time analysis initialization cost of a configuration.
fn analysis_init(m: &MachineSpec, config: &str, p: usize, cells: usize) -> f64 {
    match config {
        "Baseline" | "Histogram" => 1e-4,
        // Allocate the two window buffers.
        "Autocorrelation" => (cells * WINDOW * 16) as f64 / 8e9,
        "Catalyst-slice" => w::catalyst_init(m, p),
        "Libsim-slice" => w::libsim_init(m, p),
        other => panic!("unknown config {other}"),
    }
}

/// One-time finalize cost of a configuration.
fn analysis_finalize(m: &MachineSpec, config: &str, p: usize, cells: usize) -> f64 {
    match config {
        "Autocorrelation" => w::autocorrelation_finalize(m, p, cells, WINDOW, TOP_K),
        _ => 1e-4,
    }
}

const CONFIGS: [&str; 5] = [
    "Baseline",
    "Histogram",
    "Autocorrelation",
    "Catalyst-slice",
    "Libsim-slice",
];

/// Fig. 3 — time to solution, Original (subroutine-called
/// autocorrelation) vs Autocorrelation (SENSEI-coupled), weak scaling.
pub(crate) fn fig3() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 3 — time to solution (s), Original vs SENSEI Autocorrelation, 100 steps",
        &["cores", "cells/core", "original", "sensei", "overhead %"],
    );
    for (p, cells) in w::miniapp_scales() {
        let sim = w::oscillator_step(&m, cells, OSCILLATORS);
        let ac = w::autocorrelation_step(&m, cells, WINDOW);
        let fin = w::autocorrelation_finalize(&m, p, cells, WINDOW, TOP_K);
        let original = STEPS as f64 * (sim + ac) + fin;
        let sensei = STEPS as f64 * (sim + ac + w::sensei_adaptor_overhead()) + fin;
        t.row(vec![
            p.to_string(),
            cells.to_string(),
            secs(original),
            secs(sensei),
            format!("{:.4}", 100.0 * (sensei - original) / original),
        ]);
    }
    t
}

/// Fig. 4 — memory footprint (summed high-water marks), Original vs
/// Autocorrelation.
pub(crate) fn fig4() -> Table {
    let mut t = Table::new(
        "Fig. 4 — total memory high-water mark, Original vs SENSEI Autocorrelation",
        &["cores", "original", "sensei", "overhead %"],
    );
    for (p, cells) in w::miniapp_scales() {
        let heap =
            memory::miniapp_heap(cells, OSCILLATORS) + memory::autocorrelation_heap(cells, WINDOW);
        let original = memory::total_high_water(p, Executable::Original, heap);
        let sensei = memory::total_high_water(p, Executable::DirectAnalysis, heap);
        t.row(vec![
            p.to_string(),
            bytes(original),
            bytes(sensei),
            format!("{:.2}", 100.0 * (sensei - original) / original),
        ]);
    }
    t
}

/// Fig. 5 — one-time costs per configuration: simulation initialize,
/// analysis initialize, finalize.
pub(crate) fn fig5() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 5 — one-time costs (s)",
        &["config", "cores", "sim init", "analysis init", "finalize"],
    );
    for config in CONFIGS {
        for (p, cells) in w::miniapp_scales() {
            t.row(vec![
                config.to_string(),
                p.to_string(),
                secs(w::sim_init(&m, p, cells)),
                secs(analysis_init(&m, config, p, cells)),
                secs(analysis_finalize(&m, config, p, cells)),
            ]);
        }
    }
    t
}

/// Fig. 6 — per-timestep costs: simulation and analysis.
pub(crate) fn fig6() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 6 — per-timestep costs (s)",
        &["config", "cores", "simulation", "analysis"],
    );
    for config in CONFIGS {
        for (p, cells) in w::miniapp_scales() {
            t.row(vec![
                config.to_string(),
                p.to_string(),
                secs(w::oscillator_step(&m, cells, OSCILLATORS)),
                secs(analysis_step(&m, config, p, cells)),
            ]);
        }
    }
    t
}

/// Fig. 7 — memory overhead: startup executable footprint vs run
/// high-water mark (both summed over ranks).
pub(crate) fn fig7() -> Table {
    let mut t = Table::new(
        "Fig. 7 — memory: startup executable footprint and high-water mark",
        &["config", "cores", "startup", "high water"],
    );
    for config in CONFIGS {
        for (p, cells) in w::miniapp_scales() {
            let exe = match config {
                "Baseline" => Executable::Baseline,
                "Histogram" | "Autocorrelation" => Executable::DirectAnalysis,
                "Catalyst-slice" => Executable::CatalystStatic,
                "Libsim-slice" => Executable::Libsim,
                _ => unreachable!(),
            };
            let libsim_tree = DirectSendTree { fanout: 8 };
            let heap = memory::miniapp_heap(cells, OSCILLATORS)
                + match config {
                    "Histogram" => memory::histogram_heap(BINS),
                    "Autocorrelation" => memory::autocorrelation_heap(cells, WINDOW),
                    "Catalyst-slice" => memory::slice_render_heap(1920, 1080, BinarySwap, p),
                    "Libsim-slice" => memory::slice_render_heap(1600, 1600, libsim_tree, p),
                    _ => 0.0,
                };
            let startup = p as f64 * exe.bytes();
            t.row(vec![
                config.to_string(),
                p.to_string(),
                bytes(startup),
                bytes(memory::total_high_water(p, exe, heap)),
            ]);
        }
    }
    t
}

/// Fig. 8 — ADIOS/FlexPath writer-side costs (histogram endpoint):
/// one-time open and per-step advance / analysis-transmission.
pub(crate) fn fig8() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 8 — ADIOS FlexPath writer costs (s), histogram endpoint",
        &["cores", "open (one-time)", "advance/step", "analysis/step"],
    );
    for (p, cells) in w::miniapp_scales() {
        let bytes_per_rank = (cells * 8) as f64;
        let endpoint_analysis = w::histogram_step(&m, p, cells, BINS);
        let open = 0.2 + w::flexpath_reader_init(&m, p) * 0.1; // writer side sees a fraction
        let advance = w::adios_advance(&m, p);
        let analysis =
            w::adios_transmit(&m, bytes_per_rank) + w::ADIOS_COSCHEDULE_FACTOR * endpoint_analysis;
        t.row(vec![
            p.to_string(),
            secs(open),
            secs(advance),
            secs(analysis),
        ]);
    }
    t
}

/// Fig. 9 — ADIOS FlexPath endpoint timings: reader init (Cori vs
/// Titan) and per-step analysis times at the endpoint.
pub(crate) fn fig9() -> Table {
    let cori = cori();
    let titan = MachineSpec::titan();
    let mut t = Table::new(
        "Fig. 9 — ADIOS FlexPath endpoint timings (s)",
        &[
            "cores",
            "init (cori)",
            "init (titan)",
            "histogram/step",
            "autocorr/step",
            "catalyst-slice/step",
        ],
    );
    for (p, cells) in w::miniapp_scales() {
        t.row(vec![
            p.to_string(),
            secs(w::flexpath_reader_init(&cori, p)),
            secs(w::flexpath_reader_init(&titan, p)),
            secs(w::histogram_step(&cori, p, cells, BINS)),
            secs(w::autocorrelation_step(&cori, cells, WINDOW)),
            secs(w::catalyst_slice_step(&cori, p, cells)),
        ]);
    }
    t
}

/// Fig. 10 — Baseline vs Baseline+write: per-step and one-time costs of
/// adding file-per-rank output every step.
pub(crate) fn fig10() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 10 — baseline vs baseline+I/O (file-per-rank writes, 100 steps)",
        &[
            "cores",
            "initialize",
            "sim/step",
            "write/step",
            "finalize",
            "write/sim ratio",
        ],
    );
    for (p, cells) in w::miniapp_scales() {
        let sim = w::oscillator_step(&m, cells, OSCILLATORS);
        let write = storage::file_per_rank_write(&m, p, w::miniapp_step_bytes(p, cells));
        t.row(vec![
            p.to_string(),
            secs(w::sim_init(&m, p, cells)),
            secs(sim),
            secs(write),
            secs(1e-4),
            format!("{:.1}", write / sim),
        ]);
    }
    t
}

/// Table 1 — one-timestep write costs: multi-file VTK I/O vs MPI-IO.
pub(crate) fn table1() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Table 1 — one-step write cost: multi-file VTK I/O vs MPI-IO",
        &["writers", "size", "VTK I/O (s)", "MPI-IO (s)"],
    );
    for (p, cells) in w::miniapp_scales() {
        let total = w::miniapp_step_bytes(p, cells);
        t.row(vec![
            p.to_string(),
            bytes(total),
            secs(storage::file_per_rank_write(&m, p, total)),
            secs(storage::collective_write(&m, total)),
        ]);
    }
    t
}

/// Fig. 11 — post hoc read/process/write at 10% of the write
/// concurrency (82 / 650 / 4545 readers), per analysis.
pub(crate) fn fig11() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 11 — post hoc analysis (100 steps): read/process/write (s)",
        &["analysis", "readers", "read", "process", "write", "total"],
    );
    let mut noise = SeededNoise::new(0x5C16);
    for (analysis, factor) in [("histogram", 1.0), ("autocorrelation", 1.3), ("slice", 1.6)] {
        for (p, cells) in w::miniapp_scales() {
            let readers = p / 10;
            let dataset = STEPS as f64 * w::miniapp_step_bytes(p, cells);
            let read = storage::posthoc_read(&m, readers, dataset, &mut noise);
            // Processing: the writers' per-step analysis work concentrated
            // on 10% of the cores.
            let per_step = match analysis {
                "histogram" => w::histogram_step(&m, readers, cells * 10, BINS),
                "autocorrelation" => w::autocorrelation_step(&m, cells * 10, WINDOW),
                _ => w::catalyst_slice_step(&m, readers, cells * 10),
            };
            let process = STEPS as f64 * per_step * factor;
            let write = 0.2; // small results artifact
            t.row(vec![
                analysis.to_string(),
                readers.to_string(),
                secs(read),
                secs(process),
                secs(write),
                secs(read + process + write),
            ]);
        }
    }
    t
}

/// Fig. 12 — weak-scaling time-to-solution of the in situ
/// configurations (and the post hoc write total for contrast).
pub(crate) fn fig12() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 12 — time to solution (100 steps), in situ configurations (s)",
        &["config", "cores", "simulation", "analysis", "total"],
    );
    for config in CONFIGS {
        for (p, cells) in w::miniapp_scales() {
            let sim = STEPS as f64 * w::oscillator_step(&m, cells, OSCILLATORS);
            let analysis = STEPS as f64 * analysis_step(&m, config, p, cells)
                + analysis_init(&m, config, p, cells)
                + analysis_finalize(&m, config, p, cells);
            t.row(vec![
                config.to_string(),
                p.to_string(),
                secs(sim),
                secs(analysis),
                secs(sim + analysis),
            ]);
        }
    }
    // Post hoc contrast: writes alone.
    for (p, cells) in w::miniapp_scales() {
        let sim = STEPS as f64 * w::oscillator_step(&m, cells, OSCILLATORS);
        let write =
            STEPS as f64 * storage::file_per_rank_write(&m, p, w::miniapp_step_bytes(p, cells));
        t.row(vec![
            "PostHoc-writes".to_string(),
            p.to_string(),
            secs(sim),
            secs(write),
            secs(sim + write),
        ]);
    }
    t
}

/// Table 2 — PHASTA execution times on Mira.
pub(crate) fn table2() -> Table {
    let m = MachineSpec::mira_bgq();
    let mut t = Table::new(
        "Table 2 — PHASTA execution times (s), Mira BG/Q",
        &[
            "run",
            "ranks",
            "image",
            "in situ one-time",
            "in situ per step",
            "total",
            "% in situ",
        ],
    );
    for (name, run) in [
        ("IS1", PhastaRun::Is1),
        ("IS2", PhastaRun::Is2),
        ("IS3", PhastaRun::Is3),
    ] {
        let (onetime, per_step, total, pct) = w::phasta_table2_row(&m, run);
        let (iw, ih) = run.image();
        t.row(vec![
            name.to_string(),
            run.ranks().to_string(),
            format!("{iw}x{ih}"),
            secs(onetime),
            secs(per_step),
            secs(total),
            format!("{pct:.1}"),
        ]);
    }
    t
}

/// Fig. 15 — AVF-LESLIE strong scaling on Titan with SENSEI/Libsim.
pub(crate) fn fig15() -> Table {
    let m = MachineSpec::titan();
    let mut t = Table::new(
        "Fig. 15 — AVF-LESLIE 1025^3 strong scaling with SENSEI/Libsim (s/step)",
        &[
            "cores",
            "avf_timestep",
            "adaptor/step",
            "render (every 5th)",
            "insitu amortized/step",
            "speedup vs 8K",
        ],
    );
    let base = w::leslie_solver_step(&m, 8192);
    for p in [8192usize, 16384, 32768, 65536, 131072] {
        let solver = w::leslie_solver_step(&m, p);
        let adaptor = w::leslie_adaptor_step(&m, p);
        let render = w::leslie_render_invocation(&m, p);
        let amortized = adaptor + render / 5.0;
        t.row(vec![
            p.to_string(),
            secs(solver),
            secs(adaptor),
            secs(render),
            secs(amortized),
            format!("{:.2}", base / solver),
        ]);
    }
    t
}

/// Fig. 16 — per-iteration SENSEI cost at 65K cores (Libsim every 5
/// steps): the spiky series of adaptor-only vs render steps.
pub(crate) fn fig16() -> Table {
    let m = MachineSpec::titan();
    let p = 65536;
    let mut t = Table::new(
        "Fig. 16 — per-iteration SENSEI cost at 65K cores (s), and the volume write a render replaces",
        &["step", "sensei cost", "kind"],
    );
    let adaptor = w::leslie_adaptor_step(&m, p);
    let render = w::leslie_render_invocation(&m, p);
    let mut noise = SeededNoise::new(16);
    for step in 1..=25u64 {
        let renders = step % 5 == 0;
        let cost = if renders {
            adaptor + render * noise.lognormal_factor(0.03)
        } else {
            adaptor * noise.lognormal_factor(0.05)
        };
        t.row(vec![
            step.to_string(),
            secs(cost),
            if renders {
                "adaptor+libsim"
            } else {
                "adaptor only"
            }
            .to_string(),
        ]);
    }
    // The temporal-resolution advantage: one collective write of the 11
    // f64 variables of the 1025³ volume for post hoc rendering, against
    // one render step.
    let write = storage::collective_write(&m, 11.0 * 1025f64.powi(3) * 8.0);
    t.row(vec![
        "write".into(),
        secs(write),
        "11-variable volume write".into(),
    ]);
    t.row(vec![
        "ratio".into(),
        format!("{:.2}", write / (adaptor + render)),
        "write / render step".into(),
    ]);
    t
}

/// Fig. 17 — Nyx with SENSEI: per-step solver vs in situ analysis cost,
/// plus the plot-file write each analysis avoids.
pub(crate) fn fig17() -> Table {
    let m = cori();
    let mut t = Table::new(
        "Fig. 17 — Nyx in situ overhead (s/step) and plot-file contrast",
        &[
            "grid",
            "cores",
            "solver/step",
            "histogram/step",
            "slice/step",
            "plotfile write",
        ],
    );
    for (grid, cores) in [(1024usize, 512usize), (2048, 4096), (4096, 32768)] {
        let hist = if grid == 4096 {
            // The paper omitted the 4096³ histogram for compute budget.
            "-".to_string()
        } else {
            secs(w::nyx_histogram_step(&m, cores))
        };
        t.row(vec![
            format!("{grid}^3"),
            cores.to_string(),
            secs(w::nyx_solver_step(cores)),
            hist,
            secs(w::nyx_slice_step(&m, cores)),
            secs(w::nyx_plotfile_write(grid, cores)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_produce_tables() {
        for id in crate::ALL_EXPERIMENTS {
            let t = crate::run_experiment(id).unwrap_or_else(|| panic!("missing {id}"));
            assert!(!t.rows.is_empty(), "{id} has rows");
            assert!(!t.headers.is_empty());
        }
        assert!(crate::run_experiment("fig99").is_none());
    }

    #[test]
    fn fig3_overhead_negligible() {
        let t = fig3();
        for r in 0..t.rows.len() {
            let pct = t.value(r, "overhead %").unwrap();
            assert!(pct < 0.1, "SENSEI overhead {pct}% must be negligible");
        }
    }

    #[test]
    fn fig4_memory_overhead_small() {
        let t = fig4();
        for r in 0..t.rows.len() {
            let pct = t.value(r, "overhead %").unwrap();
            assert!(pct < 2.0, "memory overhead {pct}%");
        }
    }

    #[test]
    fn fig5_libsim_init_dominates_at_scale() {
        let t = fig5();
        // Find the Libsim-slice row at 45440.
        let row = t
            .rows
            .iter()
            .position(|r| r[0] == "Libsim-slice" && r[1] == "45440")
            .unwrap();
        let init = t.value(row, "analysis init").unwrap();
        assert!((init - 3.5).abs() < 0.3, "Libsim init ≈3.5 s, got {init}");
    }

    #[test]
    fn table1_matches_paper_numbers() {
        let t = table1();
        let expect = [(0.12, 0.40), (0.67, 3.17), (9.05, 22.87)];
        for (r, (vtk, mpiio)) in expect.iter().enumerate() {
            let got_vtk = t.value(r, "VTK I/O (s)").unwrap();
            let got_mpiio = t.value(r, "MPI-IO (s)").unwrap();
            assert!(
                (got_vtk - vtk).abs() / vtk < 0.15,
                "row {r}: {got_vtk} vs {vtk}"
            );
            assert!(
                (got_mpiio - mpiio).abs() / mpiio < 0.15,
                "row {r}: {got_mpiio} vs {mpiio}"
            );
        }
    }

    #[test]
    fn fig10_write_ratio_crossover() {
        // Little impact at 1K; ~20× at 45K — the paper's prose anchors.
        let t = fig10();
        let r1k = t.value(0, "write/sim ratio").unwrap();
        let r45k = t.value(2, "write/sim ratio").unwrap();
        assert!(r1k < 1.0, "1K ratio {r1k}");
        assert!((15.0..26.0).contains(&r45k), "45K ratio {r45k}");
    }

    #[test]
    fn fig11_posthoc_exceeds_insitu() {
        let posthoc = fig11();
        let insitu = fig12();
        // Histogram post hoc total at 45K vs in situ histogram total.
        let ph_row = posthoc
            .rows
            .iter()
            .position(|r| r[0] == "histogram" && r[1] == "4544")
            .unwrap();
        let is_row = insitu
            .rows
            .iter()
            .position(|r| r[0] == "Histogram" && r[1] == "45440")
            .unwrap();
        let ph = posthoc.value(ph_row, "total").unwrap();
        let is = insitu.value(is_row, "total").unwrap();
        assert!(
            ph > 3.0 * is,
            "post hoc ({ph}) must far exceed in situ ({is})"
        );
    }

    #[test]
    fn fig12_in_situ_beats_posthoc_writes() {
        let t = fig12();
        // At 45K: every in situ config total < the write-only total.
        let write_row = t
            .rows
            .iter()
            .position(|r| r[0] == "PostHoc-writes" && r[1] == "45440")
            .unwrap();
        let write_total = t.value(write_row, "total").unwrap();
        for config in CONFIGS {
            let row = t
                .rows
                .iter()
                .position(|r| r[0] == config && r[1] == "45440")
                .unwrap();
            let total = t.value(row, "total").unwrap();
            assert!(
                total < write_total,
                "{config} in situ ({total}) < post hoc writes ({write_total})"
            );
        }
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        let expect = [
            (1.40, 1051.0, 8.2),
            (5.24, 962.0, 33.0),
            (5.62, 653.0, 13.0),
        ];
        for (r, (per_step, total, pct)) in expect.iter().enumerate() {
            let got_ps = t.value(r, "in situ per step").unwrap();
            let got_total = t.value(r, "total").unwrap();
            let got_pct = t.value(r, "% in situ").unwrap();
            assert!(
                (got_ps - per_step).abs() / per_step < 0.25,
                "row {r} per-step {got_ps}"
            );
            assert!(
                (got_total - total).abs() / total < 0.10,
                "row {r} total {got_total}"
            );
            assert!((got_pct - pct).abs() / pct < 0.30, "row {r} pct {got_pct}");
        }
    }

    #[test]
    fn fig15_efficiency_shape() {
        let t = fig15();
        let s16 = t.value(1, "speedup vs 8K").unwrap();
        let s128 = t.value(4, "speedup vs 8K").unwrap();
        assert!(s16 > 1.75, "near-ideal to 16K: {s16}");
        assert!(s128 < 16.0 * 0.75, "efficiency degraded at 131K: {s128}");
    }

    #[test]
    fn fig16_spiky_series() {
        let t = fig16();
        assert_eq!(t.rows.len(), 27);
        let renders: Vec<f64> = (0..25)
            .filter(|r| t.rows[*r][2] == "adaptor+libsim")
            .map(|r| t.value(r, "sensei cost").unwrap())
            .collect();
        let quiets: Vec<f64> = (0..25)
            .filter(|r| t.rows[*r][2] == "adaptor only")
            .map(|r| t.value(r, "sensei cost").unwrap())
            .collect();
        assert_eq!(renders.len(), 5);
        // Render steps land in the 7–8 s band, quiet steps < 0.5 s.
        for v in renders {
            assert!((6.0..9.5).contains(&v), "render step {v}");
        }
        for v in quiets {
            assert!(v < 0.5, "quiet step {v}");
        }
        // The last two rows price the volume write and its ratio to a
        // noiseless render step, in closed form.
        let m = MachineSpec::titan();
        let write = 11.0 * 1025f64.powi(3) * 8.0 / m.fs_collective_bw;
        assert_eq!(t.rows[25][2], "11-variable volume write");
        assert_eq!(t.rows[25][1], secs(write));
        let render = w::leslie_adaptor_step(&m, 65536) + w::leslie_render_invocation(&m, 65536);
        assert_eq!(t.rows[26][2], "write / render step");
        assert_eq!(t.rows[26][1], format!("{:.2}", write / render));
    }

    #[test]
    fn fig17_analysis_under_a_second() {
        let t = fig17();
        for r in 0..t.rows.len() {
            if let Some(h) = t.value(r, "histogram/step") {
                assert!(h < 1.0, "histogram {h}");
            }
            let s = t.value(r, "slice/step").unwrap();
            assert!(s < 1.0, "slice {s}");
            let solver = t.value(r, "solver/step").unwrap();
            assert!(solver > 50.0, "solver dominates: {solver}");
        }
    }

    #[test]
    fn fig9_titan_init_order_of_magnitude_faster() {
        let t = fig9();
        let r = t.rows.len() - 1; // 45K row
        let cori = t.value(r, "init (cori)").unwrap();
        let titan = t.value(r, "init (titan)").unwrap();
        assert!(cori / titan >= 10.0, "{cori} vs {titan}");
    }
}
