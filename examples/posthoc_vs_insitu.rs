//! The in situ vs. post hoc comparison (§4.1.5) at workstation scale:
//! run the miniapp once with an in situ histogram, then run it again
//! writing every step to disk and analyzing post hoc with 10% of the
//! cores — and compare both the timings and the (identical) results.
//!
//! ```text
//! cargo run --release --example posthoc_vs_insitu
//! ```

use adios::staging::try_adaptor_to_step;
use adios::BpFile;
use datamodel::{dims_create, partition_extent, Extent};
use iosim::{piece_path, posthoc_analysis, write_manifest};
use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::analysis::AnalysisAdaptor as _;

const RANKS: usize = 10;
const GRID: usize = 31;
const STEPS: usize = 8;
const BINS: usize = 32;

fn main() {
    let dir = std::env::temp_dir().join(format!("posthoc_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let deck = format_deck(&demo_oscillators());

    // --- In situ run -------------------------------------------------
    let d1 = deck.clone();
    let t0 = probe::time::Wall::now();
    let insitu_hist = World::run(RANKS, move |comm| {
        let cfg = SimConfig {
            grid: [GRID, GRID, GRID],
            steps: STEPS,
            ..SimConfig::default()
        };
        let root = if comm.rank() == 0 {
            Some(d1.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root);
        let mut hist = HistogramAnalysis::new("data", BINS);
        let handle = hist.results_handle();
        for _ in 0..STEPS {
            sim.step(comm);
            hist.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        let out = handle.lock().clone();
        out
    })
    .into_iter()
    .next()
    .unwrap()
    .expect("in situ histogram");
    let insitu_time = t0.elapsed().as_secs_f64();

    // --- Post hoc: write everything, then read with 10% of the cores --
    let d2 = deck.clone();
    let dir_w = dir.clone();
    let t1 = probe::time::Wall::now();
    World::run(RANKS, move |comm| {
        let cfg = SimConfig {
            grid: [GRID, GRID, GRID],
            steps: STEPS,
            ..SimConfig::default()
        };
        let root = if comm.rank() == 0 {
            Some(d2.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root);
        let global = Extent::whole([GRID, GRID, GRID]);
        let dims = dims_create(comm.size());
        for step in 0..STEPS as u64 {
            sim.step(comm);
            // The piece is what in transit ships: the field, its ghost
            // flags and the geometry, as one BP-lite step.
            let piece = try_adaptor_to_step(&OscillatorAdaptor::new(&sim)).expect("host field");
            BpFile::append(&piece_path(&dir_w, step, comm.rank()), &piece).expect("write piece");
            if comm.rank() == 0 {
                let extents: Vec<Extent> = (0..comm.size())
                    .map(|r| partition_extent(&global, dims, r))
                    .collect();
                write_manifest(&dir_w, step, &extents).expect("manifest");
            }
        }
        comm.barrier();
    });
    let write_time = t1.elapsed().as_secs_f64();

    let dir_r = dir.clone();
    let t2 = probe::time::Wall::now();
    let (posthoc_hist, report) = World::run(1, move |comm| {
        let hist = HistogramAnalysis::new("data", BINS);
        let handle = hist.results_handle();
        let (_, _, report) = posthoc_analysis(
            comm,
            &dir_r,
            STEPS as u64,
            RANKS,
            vec![Box::new(hist)],
            None,
        );
        let out = handle.lock().clone();
        (out.expect("post hoc histogram"), report)
    })
    .into_iter()
    .next()
    .unwrap();
    let posthoc_time = t2.elapsed().as_secs_f64();

    // --- Compare -------------------------------------------------------
    assert_eq!(
        insitu_hist.counts, posthoc_hist.counts,
        "both paths compute the identical histogram"
    );
    println!(
        "histograms identical: {} samples over [{:.3}, {:.3}]",
        insitu_hist.counts.iter().sum::<u64>(),
        insitu_hist.min,
        insitu_hist.max
    );
    println!("\n                    wall time");
    println!("in situ (sim+hist):   {insitu_time:8.3} s");
    println!("post hoc write:       {write_time:8.3} s");
    println!(
        "post hoc read+hist:   {posthoc_time:8.3} s  ({:.1} MB read by 1 of {RANKS} cores)",
        report.bytes_read as f64 / 1e6
    );
    println!(
        "\npost hoc total is {:.1}× the in situ run (the paper's Fig. 12 contrast)",
        (write_time + posthoc_time) / insitu_time.max(1e-9)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
