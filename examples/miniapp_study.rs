//! The §4.1 miniapplication study in miniature: run the oscillator
//! miniapp under every in situ configuration of the paper — Baseline,
//! Histogram, Autocorrelation, Catalyst-slice, Libsim-slice — on
//! thread-backed ranks and report one-time and per-step costs (the real
//! analogue of Figs. 5/6).
//!
//! ```text
//! cargo run --release --example miniapp_study [ranks] [grid]
//! ```
//!
//! Every configuration runs with the observability probe enabled; rank 0
//! writes the cross-rank `RunReport` (per-phase min/mean/max/stddev,
//! per-collective message/byte counters, per-rank memory high-water) to
//! `results/run_report_<config>.json`.

use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::{AnalysisAdaptor, Bridge};

const STEPS: usize = 10;

fn build_analysis(config: &str) -> Option<Box<dyn AnalysisAdaptor>> {
    match config {
        "Baseline" => None,
        "Histogram" => Some(Box::new(HistogramAnalysis::new("data", 64))),
        "Autocorrelation" => Some(Box::new(Autocorrelation::new("data", 10, 16))),
        "Catalyst-slice" => {
            let mut pipe = catalyst::SlicePipeline::new("data", 2, 12);
            pipe.width = 480;
            pipe.height = 270;
            Some(Box::new(catalyst::CatalystSliceAnalysis::new(pipe)))
        }
        "Libsim-slice" => {
            let session =
                libsim::Session::parse("image 400 400\nplot pseudocolor data axis=z index=12\n")
                    .expect("session");
            Some(Box::new(libsim::LibsimAnalysis::new(
                session,
                std::path::Path::new("/nonexistent/.visitrc"),
            )))
        }
        other => panic!("unknown config {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ranks: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let grid: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(33);

    println!("miniapp study: {ranks} ranks, {grid}^3 grid, {STEPS} steps\n");
    println!(
        "{:<16} {:>12} {:>12} {:>14} {:>12}",
        "config", "init (s)", "sim/step", "analysis/step", "finalize"
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let mut reports = Vec::new();

    for config in [
        "Baseline",
        "Histogram",
        "Autocorrelation",
        "Catalyst-slice",
        "Libsim-slice",
    ] {
        let deck = format_deck(&demo_oscillators());
        let rows = World::run(ranks, move |comm| {
            let t_init = probe::time::Wall::now();
            let cfg = SimConfig {
                grid: [grid, grid, grid],
                steps: STEPS,
                ..SimConfig::default()
            };
            let root_deck = if comm.rank() == 0 {
                Some(deck.as_str())
            } else {
                None
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            let mut bridge = Bridge::with_probe(probe::enabled());
            // Attach the probe before the first step so the simulation
            // kernel's own spans are captured from step 0.
            comm.attach_probe(bridge.probe().clone());
            if let Some(a) = build_analysis(config) {
                bridge.register(a);
            }
            let init = t_init.elapsed().as_secs_f64();

            let mut sim_s = 0.0;
            let mut ana_s = 0.0;
            for _ in 0..STEPS {
                let t = probe::time::Wall::now();
                sim.step(comm);
                sim_s += t.elapsed().as_secs_f64();
                let t = probe::time::Wall::now();
                bridge.execute(&OscillatorAdaptor::new(&sim), comm);
                ana_s += t.elapsed().as_secs_f64();
            }
            let t = probe::time::Wall::now();
            let report = bridge.finalize(comm);
            let fin = t.elapsed().as_secs_f64();
            let json = (comm.rank() == 0).then(|| report.to_json());
            (init, sim_s / STEPS as f64, ana_s / STEPS as f64, fin, json)
        });
        // Report the max across ranks (the paper's convention: the
        // simulation advances at the slowest rank's pace).
        let agg = rows.iter().fold((0.0f64, 0.0f64, 0.0f64, 0.0f64), |m, r| {
            (m.0.max(r.0), m.1.max(r.1), m.2.max(r.2), m.3.max(r.3))
        });
        println!(
            "{:<16} {:>12.4} {:>12.4} {:>14.4} {:>12.4}",
            config, agg.0, agg.1, agg.2, agg.3
        );
        // Rank 0's cross-rank run report, as machine-readable JSON.
        if let Some(json) = rows.into_iter().find_map(|r| r.4) {
            let path = format!("results/run_report_{}.json", config.to_lowercase());
            std::fs::write(&path, json).expect("write run report");
            reports.push(path);
        }
    }
    println!("\nrun reports: {}", reports.join(", "));
    println!("\n(compare the shape with Figs. 5–6: analyses cost little next to the");
    println!(" simulation; rendering configurations pay extraction + compositing + PNG)");
}
