//! Direct layer calls (traced runs only): each layer's public function
//! timed alone, on the same field the workloads step, for the layers a
//! decorator cannot see into (`render`, `adios`, `minimpi`) and for the
//! one-rank and no-analysis references of the same grid.
//!
//! Each probe has one home: the workload whose end-to-end metrics it
//! should move. It is measured in that workload's traced run only and
//! reads 0 in the others, like any layer that is idle there, so there
//! is one answer per layer. The parent makes the calls after its
//! children have exited, so nothing else competes for the cores. Every
//! value is the median of a few repetitions, the slowest rank's where
//! the call is collective.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use adios::staging::try_adaptor_to_step;
use adios::{pair, BpStep, BrokerConfig, StagingBroker};
use minimpi::{Comm, World};
use oscillator::{OscillatorAdaptor, SimConfig, Simulation};
use render::color::{Color, Colormap};
use render::composite::{composite, Compositor};
use render::deflate::Mode;
use render::framebuffer::Framebuffer;
use render::pipeline::{pseudocolor_slice, SliceRender};
use render::png::encode_framebuffer;
use render::slice::{extract_plane, render_plane};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::Bridge;

use crate::stats::{max, median, undisturbed};
use crate::workloads::{Workload, BINS, CATALYST_IMAGE, DT, LIBSIM_IMAGE, SIM_RANKS, SLICE_AXIS};

/// Steps of the no-analysis and one-rank references.
const REFERENCE_STEPS: usize = 12;
const TAG_FIELD: u32 = 0xBE_0001;
const TAG_ACK: u32 = 0xBE_0002;

/// A probe's rows, by declared name.
type Rows = Vec<(&'static str, f64)>;

/// What the direct calls of one workload's traced run measured.
pub struct Direct {
    pub layers: Rows,
    /// Undisturbed step + execute with an empty bridge on the workloads'
    /// rank count: the per-step base of `run.insitu_overhead_pct`.
    pub baseline_step_ms: f64,
}

/// Milliseconds one call of `f` takes.
fn once_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds of `f`, median over `reps` calls.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(&(0..reps).map(|_| once_ms(&mut f)).collect::<Vec<_>>())
}

fn simulation(comm: &Comm, deck: &str, grid: usize) -> Simulation {
    let config = SimConfig {
        grid: [grid; 3],
        dt: DT,
        steps: REFERENCE_STEPS,
        ..SimConfig::default()
    };
    Simulation::new(comm, config, (comm.rank() == 0).then_some(deck))
}

/// Undisturbed step + execute(empty bridge) over the reference steps.
fn reference_steps(comm: &Comm, sim: &mut Simulation) -> f64 {
    let mut bridge = Bridge::new();
    let samples: Vec<f64> = (0..REFERENCE_STEPS)
        .map(|_| {
            once_ms(|| {
                sim.step(comm);
                bridge.execute(&OscillatorAdaptor::new(sim), comm)
            })
        })
        .collect();
    bridge.finalize(comm);
    undisturbed(&samples)
}

/// `stats-insitu`: the histogram's bin reduction and one registration.
fn stats_probes(comm: &Comm) -> Rows {
    let allreduce_us = 1e3 * time_ms(200, || comm.allreduce_vec(vec![1u64; BINS], |a, b| a + b));
    let register: Vec<f64> = (0..100)
        .map(|_| {
            let mut bridge = Bridge::new();
            let analysis = Box::new(HistogramAnalysis::new("data", BINS));
            once_ms(|| {
                bridge.register(analysis);
            })
        })
        .collect();
    vec![
        ("minimpi.allreduce_us", allreduce_us),
        ("sensei.register_us", 1e3 * median(&register)),
    ]
}

/// `render-insitu`: both pipelines' configurations; a step pays for both.
fn render_probes(comm: &Comm, sim: &Simulation, grid: usize) -> Rows {
    let (local, global) = (sim.local_extent(), sim.global_extent());
    let values = sim.field().to_vec();
    let plane = (grid / 2) as i64;
    let pipelines = [
        (
            CATALYST_IMAGE,
            Compositor::BinarySwap,
            Colormap::cool_warm(),
            Color::WHITE,
        ),
        (
            LIBSIM_IMAGE,
            libsim::engine::COMPOSITOR,
            Colormap::viridis(),
            Color::BLACK,
        ),
    ];
    let (mut slice_ms, mut composite_ms, mut png_ms, mut png_bytes) = (0.0, 0.0, 0.0, 0.0);
    for ((width, height), compositor, cmap, background) in pipelines {
        let cfg = SliceRender {
            axis: SLICE_AXIS,
            global_index: plane,
            width,
            height,
            compositor,
            cmap: cmap.clone(),
        };
        let mut image = None;
        slice_ms += time_ms(3, || {
            image = pseudocolor_slice(comm, &local, &global, &values, &cfg);
        });
        let local_range = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let range = comm.allreduce_scalar(local_range, |a, b| (a.0.min(b.0), a.1.max(b.1)));
        let composites: Vec<f64> = (0..3)
            .map(|_| {
                // Rasterising the local piece is not the compositor's time.
                let mut fb = Framebuffer::new(width, height);
                if let Some(piece) = extract_plane(&local, &global, &values, SLICE_AXIS, plane) {
                    render_plane(&mut fb, &piece, &cmap, range);
                }
                once_ms(|| composite(comm, fb, compositor))
            })
            .collect();
        composite_ms += median(&composites);
        if let Some(fb) = &image {
            let mut png = Vec::new();
            png_ms += time_ms(3, || png = encode_framebuffer(fb, background, Mode::Fixed));
            png_bytes += png.len() as f64;
        }
    }
    vec![
        ("render.slice_ms", slice_ms),
        ("render.composite_ms", composite_ms),
        ("render.png_ms", png_ms),
        ("render.png_bytes", png_bytes),
    ]
}

/// `intransit-staging`: one rank's field moved to the other (the copy is
/// the transfer: a send moves ownership), and marshal, encode, decode
/// and the broker tee of one writer's step.
fn staging_probes(comm: &Comm, sim: &Simulation) -> Rows {
    let field = sim.field();
    let p2p_ms = time_ms(7, || {
        if comm.rank() == 0 {
            comm.send(1, TAG_FIELD, field.to_vec());
            comm.recv::<u8>(1, TAG_ACK);
        } else {
            black_box(comm.recv::<Vec<f64>>(0, TAG_FIELD));
            comm.send(0, TAG_ACK, 0u8);
        }
    });
    // The sender's round trip covers the whole transfer; the receiver
    // reports no rate of its own.
    let p2p_mb_per_s = if comm.rank() == 0 {
        (field.len() * 8) as f64 / 1e6 / (p2p_ms / 1e3)
    } else {
        0.0
    };
    let adaptor = OscillatorAdaptor::new(sim);
    let mut step = BpStep::new(0, 0.0);
    let marshal_ms = time_ms(3, || {
        step = try_adaptor_to_step(&adaptor).expect("host-resident field marshals");
    });
    let mut wire = Vec::new();
    let encode_ms = time_ms(3, || step.encode_into(&mut wire));
    let decode_ms = time_ms(3, || BpStep::decode(&wire).expect("own encoding decodes"));
    let broker = StagingBroker::new(BrokerConfig::default());
    let publish_us = 1e3 * time_ms(3, || broker.publish_step(&step));
    vec![
        ("minimpi.p2p_mb_per_s", p2p_mb_per_s),
        ("adios.marshal_ms", marshal_ms),
        ("adios.encode_ms", encode_ms),
        ("adios.decode_ms", decode_ms),
        ("adios.broker_publish_us", publish_us),
    ]
}

/// Make the direct calls `workload` is the home of, for `deck` on a
/// `grid`³ field.
pub fn measure(workload: Workload, deck: &Arc<String>, grid: usize) -> Direct {
    let d = Arc::clone(deck);
    let per_rank: Vec<(f64, Rows)> = World::run(SIM_RANKS, move |comm| {
        let mut sim = simulation(comm, &d, grid);
        let baseline_step_ms = reference_steps(comm, &mut sim);
        let rows = match workload {
            Workload::SimBaseline => Rows::new(),
            Workload::StatsInsitu => stats_probes(comm),
            Workload::RenderInsitu => render_probes(comm, &sim, grid),
            Workload::IntransitStaging => staging_probes(comm, &sim),
        };
        (baseline_step_ms, rows)
    });
    // The slowest rank sets a collective's time.
    let slowest =
        |pick: &dyn Fn(&(f64, Rows)) -> f64| max(&per_rank.iter().map(pick).collect::<Vec<_>>());
    let mut layers: Rows = per_rank[0]
        .1
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, slowest(&|r| r.1[i].1)))
        .collect();
    match workload {
        Workload::SimBaseline => {
            let d = Arc::clone(deck);
            let step_ms_1rank = World::run(1, move |comm| {
                let mut sim = simulation(comm, &d, grid);
                reference_steps(comm, &mut sim)
            })[0];
            layers.push(("oscillator.step_ms_1rank", step_ms_1rank));
            layers.push((
                "minimpi.world_spawn_ms",
                time_ms(15, || World::run(SIM_RANKS, |_| ())),
            ));
        }
        Workload::IntransitStaging => {
            let pair_ms: Vec<f64> = (0..7)
                .map(|_| {
                    max(&World::run(SIM_RANKS + 1, |world| {
                        once_ms(|| pair(world, SIM_RANKS))
                    }))
                })
                .collect();
            layers.push(("adios.pair_ms", median(&pair_ms)));
        }
        Workload::StatsInsitu | Workload::RenderInsitu => {}
    }
    Direct {
        layers,
        baseline_step_ms: slowest(&|r| r.0),
    }
}
