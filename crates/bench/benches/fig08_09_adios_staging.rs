//! Figs. 8–9 (real mode): ADIOS/FlexPath staging — the marshaling copy
//! (BP encode/decode), the advance/write protocol, and an end-to-end
//! in transit histogram.

use criterion::{criterion_group, criterion_main, Criterion};
use minimpi::World;

use adios::bp::{BpStep, BpVar};
use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, BrokerConfig, Role, StagingBroker};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::analysis::AnalysisAdaptor as _;

fn sample_step(cells: usize) -> BpStep {
    let n = (cells as f64).cbrt() as u64;
    let mut s = BpStep::new(0, 0.0);
    s.vars.push(BpVar::new(
        "data",
        [n, n, n],
        [0, 0, 0],
        [n, n, n],
        (0..n * n * n).map(|i| i as f64).collect(),
    ));
    s
}

fn bp_marshaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08_bp");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    let step = sample_step(32 * 32 * 32);
    let mut bytes = Vec::new();
    step.encode_into(&mut bytes);
    group.bench_function("encode_32cubed", |b| {
        b.iter(|| {
            step.encode_into(&mut bytes);
            std::hint::black_box(bytes.len())
        })
    });
    group.bench_function("decode_32cubed", |b| {
        b.iter(|| std::hint::black_box(BpStep::decode(&bytes).unwrap().payload_bytes()))
    });
    group.finish();
}

fn in_transit_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_staging");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    let deck = format_deck(&demo_oscillators());
    group.bench_function("flexpath_histogram_2w_2e_3steps", |b| {
        b.iter(|| {
            let d = deck.clone();
            World::run(4, move |world| match pair(world, 2) {
                Role::Writer { sub, writer } => {
                    let cfg = SimConfig {
                        grid: [17, 17, 17],
                        ..SimConfig::default()
                    };
                    let root = if sub.rank() == 0 {
                        Some(d.as_str())
                    } else {
                        None
                    };
                    let mut sim = Simulation::new(&sub, cfg, root);
                    let mut ship = AdiosWriterAnalysis::new(writer);
                    for _ in 0..3 {
                        sim.step(&sub);
                        ship.execute(&OscillatorAdaptor::new(&sim), world);
                    }
                    ship.finalize(world);
                    0u64
                }
                Role::Endpoint { sub, mut reader } => {
                    let hist = HistogramAnalysis::new("data", 32);
                    let broker = StagingBroker::new(BrokerConfig::default());
                    let (bridge, _report) = run_endpoint_with_broker(
                        world,
                        &sub,
                        &mut reader,
                        vec![Box::new(hist)],
                        &broker,
                    );
                    bridge.steps()
                }
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bp_marshaling, in_transit_histogram);
criterion_main!(benches);
