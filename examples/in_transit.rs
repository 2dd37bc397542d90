//! In transit analysis with ADIOS/FlexPath (§4.1.4): the simulation
//! group ships data through the staging transport to an endpoint group
//! that runs the analyses — here a histogram *and* a Catalyst slice,
//! demonstrating the Fig. 2 composability (Catalyst running on top of
//! ADIOS under SENSEI, with zero simulation-side changes).
//!
//! ```text
//! cargo run --release --example in_transit [writers]
//! ```

use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, BrokerConfig, Role, StagingBroker};
use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::analysis::AnalysisAdaptor as _;

const STEPS: usize = 12;

fn main() {
    let writers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let world_size = writers * 2; // co-scheduled endpoints, one per writer

    println!("in transit: {writers} writers + {writers} FlexPath endpoints, {STEPS} steps");
    let deck = format_deck(&demo_oscillators());
    World::run(world_size, move |world| {
        match pair(world, writers) {
            Role::Writer { sub, writer } => {
                let cfg = SimConfig {
                    grid: [25, 25, 25],
                    steps: STEPS,
                    ..SimConfig::default()
                };
                let root_deck = if sub.rank() == 0 {
                    Some(deck.as_str())
                } else {
                    None
                };
                let mut sim = Simulation::new(&sub, cfg, root_deck);
                let mut ship = AdiosWriterAnalysis::new(writer);
                for _ in 0..STEPS {
                    sim.step(&sub);
                    // The only instrumentation the simulation carries:
                    // hand the adaptor to the ADIOS analysis adaptor.
                    ship.execute(&OscillatorAdaptor::new(&sim), world);
                }
                ship.finalize(world);
                if sub.rank() == 0 {
                    println!(
                        "writer 0: shipped {:.2} MB; advance(+blocking) {:.3}s, marshal+send {:.3}s",
                        ship.bytes_shipped as f64 / 1e6,
                        ship.advance_seconds,
                        ship.write_seconds
                    );
                }
            }
            Role::Endpoint { sub, mut reader } => {
                let hist = HistogramAnalysis::new("data", 32);
                let results = hist.results_handle();
                let mut pipe = catalyst::SlicePipeline::new("data", 2, 12);
                pipe.width = 480;
                pipe.height = 360;
                pipe.output = Some(std::path::PathBuf::from("results"));
                pipe.frequency = 6;
                if sub.rank() == 0 {
                    std::fs::create_dir_all("results").expect("results dir");
                }
                sub.barrier();
                let catalyst_slice = catalyst::CatalystSliceAnalysis::new(pipe);
                // The broker tee is the staging spine: subscribers can
                // attach to the stream at any time; with none, it's free.
                let broker = StagingBroker::new(BrokerConfig::default());
                let (bridge, _report) = run_endpoint_with_broker(
                    world,
                    &sub,
                    &mut reader,
                    vec![Box::new(hist), Box::new(catalyst_slice)],
                    &broker,
                );
                if sub.rank() == 0 {
                    let r = results.lock().clone().expect("endpoint histogram");
                    println!(
                        "endpoint 0: processed {} steps; final histogram over [{:.3}, {:.3}], {} samples",
                        bridge.steps(),
                        r.min,
                        r.max,
                        r.counts.iter().sum::<u64>()
                    );
                    println!("endpoint slice images under results/ (slice_*.png)");
                }
            }
        }
    });
}
