//! Quickstart: instrument a simulation with SENSEI in ~30 lines.
//!
//! Runs the oscillator miniapplication on 4 thread-backed ranks with two
//! in situ analyses — a histogram and a Catalyst slice render — and
//! prints the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::Bridge;

fn main() {
    let deck = format_deck(&demo_oscillators());
    World::run(4, move |comm| {
        // 1. Set up the simulation (rank 0 reads the oscillator deck and
        //    broadcasts it, §3.3).
        let config = SimConfig {
            grid: [33, 33, 33],
            steps: 20,
            ..SimConfig::default()
        };
        let root_deck = if comm.rank() == 0 {
            Some(deck.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, config, root_deck);

        // 2. Build the in situ bridge and enable analyses.
        let histogram = HistogramAnalysis::new("data", 16);
        let hist_results = histogram.results_handle();
        let mut slice = catalyst::SlicePipeline::new("data", 2, 16);
        slice.width = 640;
        slice.height = 480;
        slice.output = Some(std::path::PathBuf::from("results"));
        slice.frequency = 10;
        let catalyst_analysis = catalyst::CatalystSliceAnalysis::new(slice);

        let mut bridge = Bridge::new();
        bridge.register(Box::new(histogram));
        bridge.register(Box::new(catalyst_analysis));

        if comm.rank() == 0 {
            std::fs::create_dir_all("results").expect("create results dir");
        }
        comm.barrier();

        // 3. The simulation loop: step, then hand the zero-copy adaptor
        //    to the bridge.
        for _ in 0..sim.total_steps() {
            sim.step(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        let report = bridge.finalize(comm);

        // 4. Rank 0 reports.
        if comm.rank() == 0 {
            let hist = hist_results.lock().clone().expect("histogram result");
            println!(
                "histogram at step {} over [{:.3}, {:.3}]:",
                hist.step, hist.min, hist.max
            );
            let peak = *hist.counts.iter().max().unwrap() as f64;
            for (b, &count) in hist.counts.iter().enumerate() {
                let bar = "#".repeat((count as f64 / peak * 50.0) as usize);
                let (lo, hi) = hist.bin_range(b);
                println!("  [{lo:+.2}, {hi:+.2})  {count:6}  {bar}");
            }
            let h = report.phase("per-step/histogram").expect("phase recorded");
            let c = report
                .phase("per-step/catalyst-slice")
                .expect("phase recorded");
            println!(
                "\nper-step cost: histogram {:.2} ms/rank (×{}), catalyst-slice {:.2} ms/rank (×{})",
                h.mean_s / report.steps as f64 * 1e3,
                h.samples,
                c.mean_s / report.steps as f64 * 1e3,
                c.samples
            );
            println!("slice images written under results/ (slice_*.png)");
        }
    });
}
