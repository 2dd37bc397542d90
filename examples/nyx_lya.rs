//! Nyx LyA-style run with SENSEI (§4.2.3): a particle-mesh cosmology
//! proxy producing density histograms every step and Catalyst slices
//! every 4th step, with the ghost-cell blanking the paper describes —
//! in situ gives per-step temporal resolution where post hoc plot files
//! would only capture every 100th state (Fig. 18's point).
//!
//! ```text
//! cargo run --release --example nyx_lya
//! ```

use minimpi::World;
use science::{Nyx, NyxAdaptor, NyxConfig};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::Bridge;

const STEPS: usize = 12;

fn main() {
    std::fs::create_dir_all("results").expect("results dir");
    World::run(4, |comm| {
        let mut sim = Nyx::new(
            comm,
            NyxConfig {
                grid: [24, 24, 24],
                sigma_v: 0.25,
                ..NyxConfig::default()
            },
        );
        let hist = HistogramAnalysis::new("density", 24);
        let hist_results = hist.results_handle();
        let mut pipe = catalyst::SlicePipeline::new("density", 2, 12);
        pipe.width = 480;
        pipe.height = 480;
        pipe.frequency = 4;
        pipe.output = Some(std::path::PathBuf::from("results"));
        let mut bridge = Bridge::new();
        bridge.register(Box::new(hist));
        bridge.register(Box::new(catalyst::CatalystSliceAnalysis::new(pipe)));

        let n0 = sim.total_particles(comm);
        if comm.rank() == 0 {
            println!(
                "Nyx proxy: {n0} particles on {} ranks, {STEPS} steps",
                comm.size()
            );
        }
        for step in 0..STEPS {
            sim.step(comm);
            bridge.execute(&NyxAdaptor::new(&sim), comm);
            if comm.rank() == 0 {
                let r = hist_results.lock().clone().expect("histogram");
                // Overdensity fraction: cells past the midpoint of the
                // density range — structure formation in a number.
                let total: u64 = r.counts.iter().sum();
                let over: u64 = r.counts[r.counts.len() / 2..].iter().sum();
                println!(
                    "  step {step:3}: density ∈ [{:.2}, {:.2}], {:.2}% of cells overdense",
                    r.min,
                    r.max,
                    100.0 * over as f64 / total as f64
                );
            }
        }
        let n1 = sim.total_particles(comm);
        bridge.finalize(comm);
        if comm.rank() == 0 {
            assert_eq!(n0, n1, "particles conserved through migration");
            println!("slices under results/slice_*.png (every 4th step)");
        }
    });
}
