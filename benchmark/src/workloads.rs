//! The four configurations and one *round* of each: world spawn →
//! set-up → steps → finalize → world teardown, on thread-backed ranks.
//!
//! A round runs the program exactly as its examples do. Untraced, the
//! only additions are two clock reads per step; traced, the decorators
//! of [`crate::trace`], an enabled probe and a harness barrier between
//! step and execute (so that what follows the barrier is transfer, not
//! skew) are added, and end-to-end numbers are not taken from it.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use adios::staging::{run_endpoint_with_broker, try_adaptor_to_step, AdiosWriterAnalysis};
use adios::{pair, BrokerConfig, Role, StagingBroker};
use catalyst::{CatalystSliceAnalysis, SlicePipeline};
use datamodel::Extent;
use libsim::{LibsimAnalysis, Plot, Session};
use minimpi::{Comm, World};
use oscillator::{OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::{AnalysisAdaptor, Bridge};

use crate::env;
use crate::trace::{self, Span, Timed, TimedAdaptor};

/// Simulation timestep (the miniapp's default).
pub const DT: f64 = 0.01;
/// Ranks that run the simulation in every workload.
pub const SIM_RANKS: usize = 2;
/// Histogram bins, in situ and at the in transit endpoint.
pub const BINS: usize = 64;
/// Autocorrelation window and peaks kept per delay. The window sets the
/// analysis's memory (cells × window × 16 B): 4 keeps it near 134 MB.
pub const AUTOCORRELATION: (usize, usize) = (4, 8);
/// Catalyst's image (its paper default) and Libsim's.
pub const CATALYST_IMAGE: (usize, usize) = catalyst::DEFAULT_IMAGE;
pub const LIBSIM_IMAGE: (usize, usize) = (1024, 1024);
/// Both renderers slice the z mid-plane, which crosses both ranks'
/// blocks (the two-rank split is along x).
pub const SLICE_AXIS: usize = 2;
/// The file Libsim stats at start-up, standing in for VisIt's runtime
/// configuration; inside the benchmark's own directory.
const LIBSIM_CONFIG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SimBaseline,
    StatsInsitu,
    RenderInsitu,
    IntransitStaging,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimBaseline,
        Workload::StatsInsitu,
        Workload::RenderInsitu,
        Workload::IntransitStaging,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBaseline => "sim-baseline",
            Workload::StatsInsitu => "stats-insitu",
            Workload::RenderInsitu => "render-insitu",
            Workload::IntransitStaging => "intransit-staging",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line, also in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimBaseline => {
                "miniapp + empty Bridge: ~100% oscillator; the no-change control for every analysis or endpoint optimisation (Fig. 3's interface-costs-nothing row)"
            }
            Workload::StatsInsitu => {
                "histogram(64) + autocorrelation(4,8): sensei analyses and minimpi collectives over zero-copy datamodel views dominate the step; render and adios idle"
            }
            Workload::RenderInsitu => {
                "Catalyst 1920x1080 binary swap + Libsim 1024x1024 direct send, in-memory PNG: render is most of the step and rank 0 serialises it"
            }
            Workload::IntransitStaging => {
                "2 writers + 1 endpoint over adios: marshal/encode/wire/decode dominate; same histogram over copied blocks, BP encode beside decode in one run"
            }
        }
    }

    /// Threads a round spawns: the simulation ranks plus, in transit,
    /// the endpoint (which works while the writers wait for its ack).
    pub fn world_ranks(self) -> usize {
        match self {
            Workload::IntransitStaging => SIM_RANKS + 1,
            _ => SIM_RANKS,
        }
    }

    /// Steps this commit completes per second of a round on the
    /// reference machine. Step counts are `rate × seconds`, fixed per
    /// workload so that `time_to_solution_s` is the time of a fixed
    /// amount of work on every commit.
    pub fn nominal_steps_per_second(self) -> f64 {
        match self {
            Workload::SimBaseline => 45.0,
            Workload::StatsInsitu => 16.0,
            Workload::RenderInsitu => 5.8,
            Workload::IntransitStaging => 9.3,
        }
    }

    /// Seconds one set-up cycle of this commit takes on the reference
    /// machine: the part of a child's measuring time its cycles use.
    pub fn nominal_setup_s(self) -> f64 {
        match self {
            Workload::SimBaseline => 0.03,
            Workload::StatsInsitu => 0.14,
            Workload::RenderInsitu => 0.16,
            Workload::IntransitStaging => 0.14,
        }
    }
}

/// Size of one round.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Grid points per axis.
    pub grid: usize,
    pub steps: usize,
    pub traced: bool,
}

/// What the writer side of the staging transport reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriterStats {
    pub bytes_shipped: usize,
    /// Encoded size of one of this writer's steps, computed by the
    /// harness from the marshalled step after the round.
    pub step_bytes: usize,
    pub advance_s: f64,
    pub write_s: f64,
}

/// Everything one rank hands back when the world has torn down.
#[derive(Default)]
pub struct RankOut {
    /// Closure entry to the first step.
    pub setup_s: f64,
    /// Wall time of each step + execute; empty on the endpoint.
    pub step_walls: Vec<f64>,
    /// The final field (simulation ranks), still zero-copy.
    pub block: Option<(Extent, Arc<Vec<f64>>)>,
    /// Last histogram (root of the group that ran it).
    pub histogram: Option<HistogramResult>,
    /// Delays the autocorrelation reported at finalize (root).
    pub autocorrelation_delays: Option<usize>,
    pub catalyst_png: Option<Vec<u8>>,
    pub libsim_png: Option<Vec<u8>>,
    /// Failure reports, stringified; must stay empty.
    pub failures: Vec<String>,
    /// Steps the rank's bridge executed (0 on staging writers).
    pub bridge_steps: u64,
    pub writer: Option<WriterStats>,
    /// CPU seconds of the endpoint thread inside its loop.
    pub endpoint_cpu_s: f64,
    pub spans: Vec<Span>,
    /// `(name, messages, bytes)` of the rank's probe (traced only).
    pub counters: Vec<(String, u64, u64)>,
    /// `(name, high-water)` of the rank's probe (traced only).
    pub gauges: Vec<(String, u64)>,
    pub alloc_peak_bytes: usize,
}

pub struct Round {
    /// World spawn to world teardown.
    pub wall_s: f64,
    pub ranks: Vec<RankOut>,
}

/// Run one round of `workload` on the deck text.
pub fn run_round(workload: Workload, deck: &Arc<String>, shape: Shape) -> Round {
    let deck = Arc::clone(deck);
    let t0 = Instant::now();
    let ranks = World::run(workload.world_ranks(), move |comm| {
        if shape.traced {
            trace::install(comm.rank());
            probe::alloc::reset_peak();
            comm.attach_probe(probe::enabled());
        }
        let mut out = match workload {
            Workload::IntransitStaging => intransit_rank(comm, &deck, shape),
            _ => insitu_rank(workload, comm, &deck, shape),
        };
        if shape.traced {
            let snapshot = comm.probe().snapshot();
            out.counters = snapshot
                .counters
                .into_iter()
                .map(|c| (c.name, c.messages, c.bytes))
                .collect();
            out.gauges = snapshot
                .gauges
                .into_iter()
                .map(|g| (g.name, g.max))
                .collect();
            out.alloc_peak_bytes = probe::alloc::peak_bytes();
            out.spans = trace::take();
        }
        out
    });
    Round {
        wall_s: t0.elapsed().as_secs_f64(),
        ranks,
    }
}

fn new_simulation(comm: &Comm, deck: &str, shape: Shape) -> Simulation {
    let _span = trace::span("oscillator.new");
    let config = SimConfig {
        grid: [shape.grid; 3],
        dt: DT,
        steps: shape.steps,
        ..SimConfig::default()
    };
    Simulation::new(comm, config, (comm.rank() == 0).then_some(deck))
}

/// Box an analysis, decorated when the round is traced.
fn boxed<A: AnalysisAdaptor + 'static>(
    traced: bool,
    span: &'static str,
    analysis: A,
) -> Box<dyn AnalysisAdaptor> {
    if traced {
        Box::new(Timed::new(span, analysis))
    } else {
        Box::new(analysis)
    }
}

/// Drive `steps` steps of the closed loop (the simulation blocks on
/// each `execute`), timing each step from outside.
fn step_loop(
    sim: &mut Simulation,
    sim_comm: &Comm,
    shape: Shape,
    mut execute: impl FnMut(&Simulation),
) -> Vec<f64> {
    let mut walls = Vec::with_capacity(shape.steps);
    for step in 0..shape.steps {
        trace::set_step(step as i64);
        let t = Instant::now();
        {
            let _step = trace::span("step");
            {
                let _span = trace::span("oscillator.step");
                sim.step(sim_comm);
            }
            if shape.traced {
                let _span = trace::span("minimpi.skew_wait");
                sim_comm.barrier();
            }
            execute(sim);
        }
        walls.push(t.elapsed().as_secs_f64());
    }
    trace::set_step(trace::NO_STEP);
    walls
}

/// `sim-baseline`, `stats-insitu`, `render-insitu`: miniapp + Bridge.
fn insitu_rank(workload: Workload, comm: &Comm, deck: &str, shape: Shape) -> RankOut {
    let t0 = Instant::now();
    let traced = shape.traced;
    let mut sim = new_simulation(comm, deck, shape);
    let mut bridge = if traced {
        Bridge::with_probe(comm.probe())
    } else {
        Bridge::new()
    };
    let mut histogram = None;
    let mut autocorrelation = None;
    let mut catalyst_png = None;
    let mut libsim_png = None;
    {
        let _span = trace::span("sensei.register");
        match workload {
            Workload::StatsInsitu => {
                let h = HistogramAnalysis::new("data", BINS);
                histogram = Some(h.results_handle());
                bridge.register(boxed(traced, "sensei.histogram", h));
                let a = Autocorrelation::new("data", AUTOCORRELATION.0, AUTOCORRELATION.1);
                autocorrelation = Some(a.results_handle());
                bridge.register(boxed(traced, "sensei.autocorrelation", a));
            }
            Workload::RenderInsitu => {
                let plane = (shape.grid / 2) as i64;
                let c = CatalystSliceAnalysis::new(SlicePipeline::new("data", SLICE_AXIS, plane));
                catalyst_png = Some(c.png_handle());
                bridge.register(boxed(traced, "catalyst.execute", c));
                let session = Session {
                    image: LIBSIM_IMAGE,
                    frequency: 1,
                    plots: vec![Plot::Pseudocolor {
                        array: "data".to_string(),
                        axis: SLICE_AXIS,
                        index: plane,
                    }],
                };
                // Libsim stats its runtime configuration once per rank;
                // no output directory, so no workload writes a file.
                let l = LibsimAnalysis::new(session, Path::new(LIBSIM_CONFIG));
                libsim_png = Some(l.png_handle());
                bridge.register(boxed(traced, "libsim.execute", l));
            }
            Workload::SimBaseline | Workload::IntransitStaging => {}
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let step_walls = step_loop(&mut sim, comm, shape, |sim| {
        let _span = trace::span("sensei.execute");
        if traced {
            bridge.execute(&TimedAdaptor(OscillatorAdaptor::new(sim)), comm);
        } else {
            bridge.execute(&OscillatorAdaptor::new(sim), comm);
        }
    });
    {
        let _span = trace::span("sensei.finalize");
        bridge.finalize(comm);
    }
    let failures = bridge
        .failure_reports()
        .iter()
        .map(ToString::to_string)
        .collect();
    RankOut {
        setup_s,
        step_walls,
        block: Some((sim.local_extent(), sim.field())),
        histogram: histogram.and_then(|h| h.lock().clone()),
        autocorrelation_delays: autocorrelation.and_then(|a| a.lock().as_ref().map(Vec::len)),
        catalyst_png: catalyst_png.and_then(|p| p.lock().clone()),
        libsim_png: libsim_png.and_then(|p| p.lock().clone()),
        failures,
        bridge_steps: bridge.steps(),
        ..RankOut::default()
    }
}

/// `intransit-staging`: two writers ship every step to one endpoint,
/// which runs the histogram over the reconstructed blocks. The writers
/// drive the ADIOS adaptor directly, as the program's in transit
/// example does (a bridge finalize over the world communicator would
/// wait for the endpoint).
fn intransit_rank(world: &Comm, deck: &str, shape: Shape) -> RankOut {
    let t0 = Instant::now();
    let role = {
        let _span = trace::span("adios.pair");
        pair(world, SIM_RANKS)
    };
    match role {
        Role::Writer { sub, writer } => {
            let mut sim = new_simulation(&sub, deck, shape);
            let mut ship = Timed::new("adios.execute", AdiosWriterAnalysis::new(writer));
            let setup_s = t0.elapsed().as_secs_f64();
            let traced = shape.traced;
            let step_walls = step_loop(&mut sim, &sub, shape, |sim| {
                if traced {
                    ship.execute(&TimedAdaptor(OscillatorAdaptor::new(sim)), world);
                } else {
                    ship.inner.execute(&OscillatorAdaptor::new(sim), world);
                }
            });
            ship.inner.finalize(world);
            let step_bytes = try_adaptor_to_step(&OscillatorAdaptor::new(&sim))
                .map_or(0, |step| step.encoded_len());
            RankOut {
                setup_s,
                step_walls,
                block: Some((sim.local_extent(), sim.field())),
                failures: ship.inner.take_failures(),
                writer: Some(WriterStats {
                    bytes_shipped: ship.inner.bytes_shipped,
                    step_bytes,
                    advance_s: ship.inner.advance_seconds,
                    write_s: ship.inner.write_seconds,
                }),
                ..RankOut::default()
            }
        }
        Role::Endpoint { sub, mut reader } => {
            let h = HistogramAnalysis::new("data", BINS);
            let histogram = h.results_handle();
            // No subscribers: the broker tee is the staging spine and
            // must cost nothing when nobody listens.
            let broker = StagingBroker::new(BrokerConfig::default());
            let setup_s = t0.elapsed().as_secs_f64();
            let cpu0 = env::thread_cpu();
            let (bridge, _report) = run_endpoint_with_broker(
                world,
                &sub,
                &mut reader,
                vec![boxed(shape.traced, "sensei.histogram_endpoint", h)],
                &broker,
            );
            let endpoint_cpu_s = env::thread_cpu() - cpu0;
            let result = histogram.lock().clone();
            RankOut {
                setup_s,
                histogram: result,
                failures: bridge
                    .failure_reports()
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
                bridge_steps: bridge.steps(),
                endpoint_cpu_s,
                ..RankOut::default()
            }
        }
    }
}
