//! One table of exact counts. Every heap, message and work count a
//! tier-1 test pins is measured here by one harness, written as a row of
//! `tests/golden/counts.tsv`, and compared with that file byte for byte,
//! so a change that moves any of them fails naming the rows it moved.
//! `tests/counts.rs` checks the table whole; each test of
//! `tests/end_to_end.rs` whose numbers are rows checks its scenarios'.
//!
//! A row is tab-separated: scenario, phase, rank, name, value. The phase
//! is `setup` (a rank up to its first step), `step N`, `warm` (every
//! step from the scenario's warm-up on: the harness checks that they
//! agree before it writes the one row, so a warm row repeats to the
//! byte) or `finalize`. The rank is a world rank, `all` for a sum over
//! them, or `-` off any world. A heap row is a thread's own: the tracking
//! allocator (`probe`'s `track-alloc`, which this package enables)
//! counts the bytes and calls of the thread that makes them and debits
//! the thread that frees, so a buffer sent and freed by the peer stays
//! on the sender's count and a receiver's can go below zero. A rise is
//! a window's high-water mark above the bytes live when it opened.
//!
//! Beside the rows, each closed form that derives one stays an equality
//! over the measured values, with the sites it sums in its scenario's
//! doc. When a change moves a row on purpose, regenerate the table with
//! `scripts/regen_goldens.sh` (equivalently `GOLDEN_REGEN=1 cargo test
//! --test counts`) and commit its diff with the change.

use std::fmt::{Debug, Display, Write as _};
use std::sync::Arc;

use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, BrokerConfig, Role, StagingBroker};
use datamodel::Extent;
use minimpi::{Comm, SchedPolicy, World, WorldBuilder};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use parking_lot::Mutex;
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::{AnalysisAdaptor, Association, Bridge, DataAdaptor as _, Steering};

/// What measures one scenario's rows.
type Scenario = fn(&mut Rows);

/// The table's scenarios in its order, each with what measures its rows.
const SCENARIOS: [(&str, Scenario); 14] = [
    ("render-1rank-64", first_frames),
    ("png-16x16", one_shot_encode),
    ("render-64", render_64),
    ("render-128", render_128),
    ("render-16", render_16),
    ("libsim-16", later_plot),
    ("autocorrelation-64", autocorrelation),
    ("minimpi", receives),
    ("oscillator-128", oscillator),
    ("bp-64", marshalled),
    ("staging-64", staging_64),
    ("staging-16", staged_bytes),
    ("stats-32", stats),
    ("producers", producers),
];

/// Measures `scenarios` and compares their rows with the table's rows of
/// them, byte for byte. `None` measures every scenario and compares the
/// table whole, or under `GOLDEN_REGEN=1` writes it.
pub(crate) fn check(scenarios: Option<&[&str]>) {
    let mut t = Rows::default();
    let picked = |name: &str| scenarios.is_none_or(|s| s.contains(&name));
    let known = |n: &&str| SCENARIOS.iter().any(|s| s.0 == *n);
    let all_known = scenarios.unwrap_or_default().iter().all(known);
    assert!(all_known, "not all scenarios of the table: {scenarios:?}");
    if scenarios.is_none() {
        t.scenario("scenario")
            .on("phase", "rank")
            .put("name", "value");
    }
    for (name, rows) in SCENARIOS {
        if picked(name) {
            rows(&mut t);
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counts.tsv");
    if scenarios.is_none() && std::env::var("GOLDEN_REGEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &t.text).unwrap();
        return eprintln!("regenerated {}", path.display());
    }
    let regen = "run scripts/regen_goldens.sh";
    let table = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}; {regen}"));
    let ours = |l: &&str| picked(l.split('\t').next().unwrap_or_default());
    let want = match scenarios {
        None => table,
        Some(_) => table.lines().filter(ours).flat_map(|l| [l, "\n"]).collect(),
    };
    let only = |a: &str, b: &str, sign: char| -> String {
        let rows = a.lines().filter(|l| !b.lines().any(|m| m == *l));
        rows.map(|l| format!("{sign} {l}\n")).collect()
    };
    let (gone, new, missed) = (
        only(&want, &t.text, '-'),
        only(&t.text, &want, '+'),
        &t.missed,
    );
    let moved = "the exact counts moved (- the table, + this build)";
    assert!(
        t.text == want,
        "{moved}; if on purpose, {regen}\n{gone}{new}{missed}"
    );
    assert!(missed.is_empty(), "closed forms missed:\n{missed}");
}

/// The table as it is built: `scenario` names the scenario of the rows
/// that follow, `on` their phase and rank, and `put` writes one.
#[derive(Default)]
struct Rows {
    scenario: &'static str,
    on: String,
    text: String,
    missed: String,
}

impl Rows {
    fn scenario(&mut self, name: &'static str) -> &mut Self {
        self.scenario = name;
        self
    }

    fn on(&mut self, phase: impl Display, rank: impl Display) -> &mut Self {
        self.on = format!("{phase}\t{rank}");
        self
    }

    fn put(&mut self, name: &str, value: impl Display) -> &mut Self {
        let (scenario, on) = (self.scenario, &self.on);
        writeln!(self.text, "{scenario}\t{on}\t{name}\t{value}").unwrap();
        self
    }

    /// A closed form over measured values. A miss is reported, with the
    /// line that states the form, after the table's diff, so the rows
    /// that moved name themselves first.
    #[track_caller]
    fn eq<T: PartialEq + Debug>(&mut self, got: T, want: T) -> &mut Self {
        if got != want {
            let (scenario, at) = (self.scenario, std::panic::Location::caller());
            writeln!(self.missed, "{scenario} ({at}): {got:?}, not {want:?}").unwrap();
        }
        self
    }
}

/// The one value every warm step reads.
fn warm<T: Copy + PartialEq + Debug>(what: &str, steps: &[T]) -> T {
    let agree = !steps.is_empty() && steps.iter().all(|s| *s == steps[0]);
    assert!(agree, "{what}: the warm steps differ: {steps:?}");
    steps[0]
}

/// The one heap rise and heap call count every warm step reads.
fn warm_heap(what: &str, steps: &[Cost]) -> (usize, u64) {
    warm(
        what,
        &steps.iter().map(|c| (c.rise, c.calls)).collect::<Vec<_>>(),
    )
}

/// The probe counters a window reads: every `minimpi/*` counter but the
/// harness's barrier, summed (what the benchmark's
/// `minimpi.msgs_per_step` counts), then four by name. Each is read as
/// calls, messages and bytes.
const COUNTERS: [&str; 5] = [
    "minimpi/",
    "minimpi/p2p",
    "render/draw",
    "render/junction",
    "sim/terms",
];
const MSGS: usize = 0;
const P2P: usize = 1;
const DRAW: usize = 2;
const JUNCTION: usize = 3;
const TERMS: usize = 4;

type Counts = [[u64; 3]; COUNTERS.len()];

fn counters(comm: Option<&Comm>) -> Counts {
    let mut out = [[0; 3]; COUNTERS.len()];
    let Some(probe) = comm.map(Comm::probe).filter(probe::Probe::is_enabled) else {
        return out;
    };
    for c in probe.snapshot().counters {
        for (k, name) in COUNTERS.iter().enumerate() {
            let minimpi = k == MSGS && c.name.starts_with(name) && c.name != "minimpi/barrier";
            if minimpi || c.name == *name {
                let add = [c.calls, c.messages, c.bytes];
                out[k] = std::array::from_fn(|i| out[k][i] + add[i]);
            }
        }
    }
    out
}

/// A counter's messages and bytes.
fn sent(counts: &Counts, counter: usize) -> (u64, u64) {
    (counts[counter][1], counts[counter][2])
}

/// What one stretch of a thread cost: its heap high-water rise, heap
/// calls and the bytes it left live (`held`, negative when it freed
/// more), and what it added to each of [`COUNTERS`] on its comm's
/// probe (all 0 unprobed).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cost {
    rise: usize,
    calls: u64,
    held: isize,
    counts: Counts,
}

/// An open window: the counters, the live bytes and the heap calls when
/// it opened. The counters are read outside the heap window, since a
/// snapshot allocates.
struct Window(Counts, isize, u64);

impl Window {
    fn open(comm: Option<&Comm>) -> Self {
        let counts = counters(comm);
        probe::alloc::reset_peak();
        Window(
            counts,
            probe::alloc::current_bytes(),
            probe::alloc::allocations(),
        )
    }

    fn close(self, comm: Option<&Comm>) -> Cost {
        let Window(before, floor, calls) = self;
        let rise = probe::alloc::rise_since(floor);
        let calls = probe::alloc::allocations() - calls;
        let held = probe::alloc::current_bytes() - floor;
        let now = counters(comm);
        let counts = std::array::from_fn(|k| std::array::from_fn(|i| now[k][i] - before[k][i]));
        Cost {
            rise,
            calls,
            held,
            counts,
        }
    }
}

fn cost<T>(comm: Option<&Comm>, f: impl FnOnce() -> T) -> (T, Cost) {
    let window = Window::open(comm);
    let out = f();
    (out, window.close(comm))
}

type Costs = Arc<Mutex<Vec<Cost>>>;

/// An analysis with a window around each `execute`, the costs kept in
/// order.
struct Meter(Box<dyn AnalysisAdaptor>, Costs);

fn meter(inner: impl AnalysisAdaptor + 'static) -> (Box<dyn AnalysisAdaptor>, Costs) {
    let costs = Costs::default();
    (Box::new(Meter(Box::new(inner), Arc::clone(&costs))), costs)
}

impl AnalysisAdaptor for Meter {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn execute(&mut self, data: &dyn sensei::DataAdaptor, comm: &Comm) -> Steering {
        let (verdict, cost) = cost(Some(comm), || self.0.execute(data, comm));
        self.1.lock().push(cost);
        verdict
    }
    fn finalize(&mut self, comm: &Comm) {
        self.0.finalize(comm);
    }
    fn take_failures(&mut self) -> Vec<String> {
        self.0.take_failures()
    }
}

fn deck() -> String {
    format_deck(&demo_oscillators())
}

/// This rank's block of a `grid`³ oscillator field, `deck` read on rank 0.
fn simulation(comm: &Comm, grid: usize, deck: &str) -> Simulation {
    let cfg = SimConfig {
        grid: [grid; 3],
        ..SimConfig::default()
    };
    Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck))
}

/// The benchmark's images: Catalyst's 1920×1080 binary swap and Libsim's
/// 1024×1024 direct send, one pseudocolor slice each.
const BENCH: ([usize; 2], &str) = ([1920, 1080], "image 1024 1024\n{slice}");
const SLICE: &str = "plot pseudocolor data axis=z index={z}\n";
const ANALYSES: [&str; 2] = ["catalyst", "libsim"];

/// This rank of a world stepping a `grid`³ oscillator field on the demo
/// deck, with Catalyst drawing a `catalyst`-pixel slice through the
/// mid-plane z = `grid / 2`, and Libsim running `session`, in which
/// `{slice}` reads as Libsim's slice through the same plane and `{z}` as
/// `grid / 2`.
fn render_pair(
    comm: &Comm,
    grid: usize,
    (catalyst, session): ([usize; 2], &str),
) -> (
    Simulation,
    catalyst::CatalystSliceAnalysis,
    libsim::LibsimAnalysis,
) {
    let sim = simulation(comm, grid, &deck());
    let plane = grid / 2;
    let mut pipeline = catalyst::SlicePipeline::new("data", 2, plane as i64);
    [pipeline.width, pipeline.height] = catalyst;
    let session = session.replace("{slice}", SLICE);
    let session = libsim::Session::parse(&session.replace("{z}", &plane.to_string())).unwrap();
    let libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
    (sim, catalyst::CatalystSliceAnalysis::new(pipeline), libsim)
}

/// Both renderers read the simulation's field in place: after `execute`
/// no reference to the simulation buffer lingers (2 MB at 64³ on one
/// rank), and each renderer's first `execute` rises exactly, site by
/// site. Both first derive the step's field alone, 1 184 B: neither asks
/// for the ghost flags, and at one rank the block has none anyway.
/// Catalyst then peaks once its file is written:
/// - its frame, 48 × 32 px at 7 B;
/// - the rank's PNG encoder, kept in the rank's pool for the next
///   frame: its chains (2 × 131 072), sliding buffer (98 565) and a
///   scanline (1 + 3 × 48);
/// - the file, grown to its last power of two;
/// - the slice's prepared plane, kept in the rank's pool for the next
///   frame: a colour for each of its 63 × 63 cells (3 B) and a pixel
///   range for each of its 63 cell columns and 63 cell rows (16 B);
/// - the first keeps in the rank's pool: the pool's list of four
///   entries, and per kept type (the plane, 120 B, the encoder, 128 B,
///   and the frame) a boxed list of four.
///
/// Its slice is coloured from the field in place, and its colormap is
/// freed once the plane is prepared. Libsim prepares its slice in
/// Catalyst's tables and draws it into Catalyst's parked frame, and
/// peaks while the isosurface collects its triangles: its second frame,
/// 32 × 32 px at 7 B, the isosurface's level and colormap (3 stops), and
/// the triangle list at its last doubling, 72 B a triangle: the one term
/// the field's values set, 2^13 triangles for this deck's 64³ field at
/// level 0.9.
fn first_frames(t: &mut Rows) {
    let (rises, png) = World::run(1, |comm| {
        let session = "image 32 32\n{slice}plot isosurface data levels=0.9\n";
        let (mut sim, catalyst, libsim) = render_pair(comm, 64, ([48, 32], session));
        sim.step(comm);
        let field = sim.field();
        let holders = Arc::strong_count(&field);
        let file = catalyst.png_handle();
        let analyses: [Box<dyn AnalysisAdaptor>; 2] = [Box::new(catalyst), Box::new(libsim)];
        let rises = analyses.map(|mut analysis| {
            let data = OscillatorAdaptor::new(&sim);
            let before = Arc::strong_count(&field);
            let (_, cost) = cost(None, || analysis.execute(&data, comm));
            assert!(analysis.take_failures().is_empty());
            assert_eq!(Arc::strong_count(&field), before);
            cost.rise
        });
        assert_eq!(Arc::strong_count(&field), holders);
        let png = file.lock().as_ref().map_or(0, Vec::len);
        (rises, png)
    })
    .remove(0);
    let derived = 1_184;
    let encoder = 2 * 131_072 + 98_565 + (1 + 3 * 48);
    let kept = |t: usize| size_of::<Vec<u8>>() + 4 * t;
    let plane = 63 * 63 * 3 + 2 * 63 * size_of::<std::ops::Range<usize>>();
    let pool = 4 * size_of::<Box<dyn std::any::Any + Send>>()
        + kept(120)
        + kept(128)
        + kept(size_of::<render::Framebuffer>());
    let catalyst = derived + 48 * 32 * 7 + encoder + png.next_power_of_two() + plane + pool;
    t.scenario("render-1rank-64").eq(rises[0], catalyst);
    let level = size_of::<f64>() + 3 * size_of::<(f64, render::Color)>();
    let triangle = size_of::<[render::raster::Vertex; 3]>();
    assert_eq!(triangle, 72);
    let libsim = derived + 32 * 32 * 7 + level + (1 << 13) * triangle;
    t.eq(rises[1], libsim);
    t.on("step 0", 0);
    t.put("catalyst.rise", rises[0]).put("catalyst.png", png);
    t.put("libsim.rise", rises[1]);
}

/// A one-shot encode holds its chain tables, its raw stream and a
/// sliding buffer no larger than that stream, beside the file: at 16×16
/// the stream is 784 B. The file grows from its 8 B signature to 64 B as
/// the header goes in, and doubles as the parse writes into it; the peak
/// is at the parse's end, before the Adler-32, the IDAT CRC and the IEND
/// chunk go in. Two encodes give the same bytes and the same costs.
fn one_shot_encode(t: &mut Rows) {
    let rgb: Vec<u8> = (0..16 * 16)
        .flat_map(|p| [(p % 16 * 16) as u8, (p / 16 * 16) as u8, 60])
        .collect();
    let encode = || render::png::encode_rgb(16, 16, &rgb, render::deflate::Mode::Fixed);
    let (png, first) = cost(None, encode);
    let decoded = render::png::decode_rgb(&png).unwrap();
    assert_eq!(decoded, (16, 16, rgb.clone()));
    let raw = 16 * (1 + 3 * 16);
    let tables = 2 * 131_072;
    // The file's capacity when the parse ends.
    let during = (png.len() - 4 - 4 - 12).next_power_of_two().max(64);
    assert_eq!(raw, 784);
    t.scenario("png-16x16")
        .eq(first.rise, during + raw + tables + raw);
    let (again, second) = cost(None, encode);
    assert_eq!(again, png, "the same bytes");
    let (rise, calls) = warm_heap("a one-shot encode", &[first, second]);
    t.on("warm", "-").put("encode.rise", rise);
    t.put("encode.calls", calls).put("png", png.len());
}

/// Steps before a scenario's warm steps.
const WARM_UP: usize = 2;

/// Each warm step's bridge `execute` on a rank, with the capacity of
/// rank 0's two files after it (Catalyst's, Libsim's: each grown to its
/// last power of two).
type Warm = Vec<(Cost, [usize; 2])>;

/// Per rank of an unprobed render pair (`grid`³, `images`): its warm
/// steps, and what `after` reads once the steps are done.
fn render_steps<T: Send + 'static>(
    grid: usize,
    images: ([usize; 2], &'static str),
    steps: usize,
    after: fn(&Comm, &Simulation) -> T,
) -> Vec<(Warm, T)> {
    World::run(2, move |comm| {
        let (mut sim, catalyst, libsim) = render_pair(comm, grid, images);
        let files = [catalyst.png_handle(), libsim.png_handle()];
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        let mut warm = Vec::new();
        for step in 0..steps {
            sim.step(comm);
            let data = OscillatorAdaptor::new(&sim);
            let (_, cost) = cost(None, || bridge.execute(&data, comm));
            let len = files
                .each_ref()
                .map(|f| f.lock().as_ref().map_or(0, Vec::len));
            if step >= WARM_UP {
                warm.push((cost, len.map(usize::next_power_of_two)));
            }
        }
        assert!(bridge.failure_reports().is_empty());
        (warm, after(comm, &sim))
    })
}

/// Per rank of a probed render pair at the benchmark's images: its
/// setup, then each step (the oscillator's and the bridge's `execute`)
/// with the windows of its two analyses (Catalyst, Libsim) inside it,
/// and the bridge's `finalize`.
struct Probed {
    setup: Cost,
    steps: Vec<(Cost, [Cost; 2])>,
    finalize: Cost,
}

fn probed_render(grid: usize, steps: usize) -> Vec<Probed> {
    World::run(2, move |comm| {
        comm.attach_probe(probe::enabled());
        let setup = Window::open(Some(comm));
        let (mut sim, catalyst, libsim) = render_pair(comm, grid, BENCH);
        let (catalyst, catalyst_costs) = meter(catalyst);
        let (libsim, libsim_costs) = meter(libsim);
        let mut bridge = Bridge::new();
        bridge.register(catalyst);
        bridge.register(libsim);
        let setup = setup.close(Some(comm));
        let mut step = || {
            sim.step(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm)
        };
        let steps: Vec<Cost> = (0..steps).map(|_| cost(Some(comm), &mut step).1).collect();
        let finalize = cost(Some(comm), || bridge.finalize(comm)).1;
        assert!(bridge.failure_reports().is_empty());
        let (catalyst, libsim) = (catalyst_costs.lock(), libsim_costs.lock());
        let analyses = catalyst.iter().zip(libsim.iter()).map(|(&c, &l)| [c, l]);
        let steps = steps.into_iter().zip(analyses).collect();
        Probed {
            setup,
            steps,
            finalize,
        }
    })
}

/// Each slice plot's `render/draw` a frame on `rank` of a render pair at
/// the benchmark's images over a `grid`³ field: its draws (calls), the
/// cells its preparation coloured (messages) and the pixel rows its
/// draws copied (bytes), for Catalyst and Libsim. The field splits along
/// x at its middle point, so rank 0's piece is 32 × 63 cells at 64³
/// (64 × 127 at 128³) and rank 1's 31 × 63 (63 × 127); each is coloured
/// once in Catalyst's frame and once in Libsim's. Catalyst's binary
/// swap draws a rank's kept half as one frame and the half it gives
/// away as ⌈540 / 17⌉ = 32 strips; Libsim's root draws its whole frame
/// once and its leaf lends ⌈1024 / 32⌉ = 32 strips. Every other pixel
/// row a draw holds of a row of cells is a copy.
///
/// The per-cell draw this replaced coloured every cell of a row of cells
/// again in each draw that met it, as an instrumented copy of it read
/// and the rule restates: at 64³, rank 0 coloured 3 040 cells a
/// Catalyst frame (32 cells × 95 rows of cells met over its 33 draws)
/// and 2 016 a Libsim frame, rank 1 2 852 (31 × 92) and 2 914 (31 × 94);
/// at 128³, rank 0 10 176 (64 × 159) and 8 128, rank 1 8 064 (63 × 128)
/// and 9 828 (63 × 156).
fn coloured_once(t: &mut Rows, grid: usize, rank: usize, frames: [Counts; 2]) {
    let at_128 = usize::from(grid == 128);
    let cells = [[32 * 63, 31 * 63], [64 * 127, 63 * 127]][at_128];
    let per_cell_draw = [
        [[3_040, 2_016], [2_852, 2_914]],
        [[10_176, 8_128], [8_064, 9_828]],
    ];
    assert_eq!(cells[0] + cells[1], (grid - 1) * (grid - 1));
    let strips = |rows: std::ops::Range<usize>, step: usize| {
        let end = rows.end;
        rows.step_by(step).map(move |y| y..(y + step).min(end))
    };
    let (kept, given) = if rank == 0 {
        (0..540, 540..1080)
    } else {
        (540..1080, 0..540)
    };
    let catalyst: Vec<_> = std::iter::once(kept).chain(strips(given, 17)).collect();
    // The tree's root draws its frame whole, its leaf in strips.
    let libsim: Vec<_> = strips(0..1024, if rank == 0 { 1024 } else { 32 }).collect();
    let (cells, draws) = (cells[rank] as u64, libsim.len() as u64);
    let want = [
        [33, cells, rows_copied(1080, grid - 1, &catalyst)],
        [draws, cells, rows_copied(1024, grid - 1, &libsim)],
    ];
    let drawn = frames.map(|f| f[DRAW]);
    t.eq(drawn, want);
    // Each row a draw holds was filled or copied, so the rows of cells
    // the draws met are the rows less the copies.
    let row_cells = cells / (grid as u64 - 1);
    let met = [(1080, want[0][2]), (1024, want[1][2])].map(|(h, copied)| h - copied);
    t.eq(met.map(|m| m * row_cells), per_cell_draw[at_128][rank]);
    t.on("warm", rank);
    for (analysis, [draws, cells, copied]) in ANALYSES.into_iter().zip(drawn) {
        t.put(&format!("{analysis}.draws"), draws);
        t.put(&format!("{analysis}.cells"), cells);
        t.put(&format!("{analysis}.rows-copied"), copied);
    }
}

/// The pixel rows draws of the image rows `draws` copy, in an image
/// `h` rows high of a plane of `cells` rows of cells, v up: a draw fills
/// the first row it holds of each row of cells it meets and copies it
/// into the others (a pixel row belongs to the row of cells its centre
/// lies in, `Placement::rows`' edges restated).
fn rows_copied(h: usize, cells: usize, draws: &[std::ops::Range<usize>]) -> u64 {
    let sy = h as f64 / cells as f64;
    let cell_of = |y: usize| {
        let c = y as f64 + 0.5;
        (0..cells).find(|&v| c >= h as f64 - (v as f64 + 1.0) * sy && c < h as f64 - v as f64 * sy)
    };
    let met = |rows: &std::ops::Range<usize>| {
        let mut met: Vec<_> = rows.clone().filter_map(cell_of).collect();
        met.dedup();
        met.len()
    };
    let copied = draws.iter().map(|rows| rows.len() - met(rows));
    copied.sum::<usize>() as u64
}

/// A render step at `render-insitu`'s images over a 64³ field on two
/// ranks. Catalyst and Libsim draw into the rank's one spare framebuffer,
/// both encoders keep their tables and sliding buffers, and compositing
/// strips circulate: once the first steps have faulted them in, nothing
/// image-sized is allocated beside the frame, and the frame holds only
/// the rows the rank keeps.
///
/// The frame each rank parks after a warm step is `width × kept rows ×
/// 7` B (RGB and depth), what `perfmodel::memory::slice_render_heap`
/// charges: rank 0 keeps Libsim's whole 1024² image as the tree's root,
/// 7 340 032 B, and Catalyst's 540 rows of 1920 are drawn into that
/// memory; rank 1 keeps Catalyst's 540 rows, 7 257 600 B, and as
/// Libsim's leaf no rows at all.
///
/// Each rank's high-water mark over a warm step is exact, site by site.
/// Both ranks first derive the step's field (1 184 B left allocated)
/// and take the colour range, whose envelopes (16 B each way) cancel.
/// Rank 1 peaks in Catalyst's encode, when the bits of the band it
/// deflates grow to their last power of two, `B`: 1 184 + the
/// look-ahead row it sends rank 0 (5 761) + the list of the 6 rows rank
/// 0 sent it (160) − rank 0's landing it frees (8) + the envelope of its
/// bits (40) + `B`. Rank 0 peaks in Libsim's encode, when its file grows
/// to its last power of two, `L`:
/// - 1 184, the step's field;
/// - Catalyst: its 6 halo rows for rank 1's band (34 566, freed there),
///   less the look-ahead row it frees (5 761), its landing out and rank
///   1's band envelope in (8 − 40), and rank 1's band bits (`B`); the
///   envelopes of the two rows sent cancel, and so do the files;
/// - Libsim: its 32 strips come in 128 B envelopes and go back in 136 B
///   ones with their verdict (32 × 8), then 523 rows for rank 1's band
///   (1 607 179) in a 24 B envelope, its landing and rank 1's band
///   envelope (8 − 40), and `L`.
///
/// After the warm steps no rank has built its ghost flags: neither
/// renderer asks for them. The first to ask builds them then: listing
/// the point arrays rises by the name list (a `String` each) and its
/// names, and on rank 1, whose block duplicates a plane, by the flags,
/// 1 B a point, in their `Arc` (two counts and the `Vec`).
///
/// A probed pass counts a warm step's messages over both ranks: 137,
/// DESIGN §11's 12 + 62 + 63 (the frames' collectives and scanlines,
/// Catalyst's swap strips beyond the one patch each way, Libsim's strips
/// and their returns beyond its one patch). The step's one colour range
/// is one pair reduction, a reduce and a broadcast: Libsim's frame
/// reuses the range Catalyst's took. 96 are strips, whose bytes are the
/// closed form below. Beside them the run sends its one-time messages:
/// the deck's broadcast at setup and one at `finalize`, which is why the
/// benchmark's `minimpi.msgs_per_step`, a run's messages over its steps,
/// reads a little above 137.
///
/// Counts, not clocks, of what each analysis puts on the wire, each
/// message at its payload's wire bytes (`minimpi::Wire`). Compositing
/// patches travel by ownership, cut into strips of `32 Ki / width`
/// whole rows (`render::composite`'s pixel budget): `minimpi/p2p`
/// counts each strip as a `Strip`'s `Framebuffer` (the `strip.header`
/// row) and its pixels at 7 B. The scanlines of the collective encode
/// are byte vectors and count in full, and so does a band's bits, beside
/// its length and checksum. Catalyst: each swap partner sends its 540
/// rows as ⌈540 / 17⌉ = 32 strips and receives as many, which come back
/// as the buffers of its own, so the swap needs no credit; then nothing
/// image-sized — 6 rows of halo one way, the look-ahead row the other, a
/// landing position, a band's bits. Libsim: rank 1 lends its 1 024 rows
/// up the tree as ⌈1024 / 32⌉ = 32 strips, the root gives each strip's
/// buffer back with its verdict (32 returns, root to child, each a
/// header and a word: its pixels stay), then exactly one band of
/// scanlines plus its halo rows from the root, a landing, the bits back.
/// A band's bits are as long as its deflated stream, which the field's
/// values set, so rank 1's byte rows are each step's; Catalyst's bits
/// grow to the capacity `B` its warm rise reads, every step.
fn render_64(t: &mut Rows) {
    let ranks = render_steps(64, BENCH, 4, |comm, sim| {
        // The frame parked in the rank's pool: its colour and depth,
        // which dropping it frees. Rank 1 frees rank 0's Libsim
        // scanlines every step, so by now its count is below its frame
        // and the drop takes it below zero: still by exactly the frame.
        let frame = comm.spare::<render::Framebuffer>();
        let bytes = frame
            .as_ref()
            .map_or(0, |fb| size_of_val(fb.color()) + size_of_val(fb.depth()));
        assert_eq!(cost(None, || drop(frame)).1.held, -(bytes as isize));
        assert!(comm.rank() == 0 || probe::alloc::current_bytes() < 0);
        let data = OscillatorAdaptor::new(sim);
        let (names, listed) = cost(None, || data.array_names(Association::Point));
        let points = sim.local_extent().num_points();
        (bytes, listed.rise, names.len(), points)
    });
    let frames = [ranks[0].1 .0, ranks[1].1 .0];
    t.scenario("render-64")
        .eq(frames, [1024 * 1024 * 7, 1920 * 540 * 7]);
    // The model charges each configuration its frames and, on each of
    // its two band ranks, one encoder: chains, sliding buffer and a
    // scanline. Catalyst and Libsim share the rank's one encoder
    // (`render::scene`'s tests hold its bytes, which this crate cannot
    // name).
    let charged = |w, h, alg| 2.0 * perfmodel::memory::slice_render_heap(w, h, alg, 2);
    let tree = perfmodel::compositing::Algorithm::DirectSendTree { fanout: 8 };
    let swap = perfmodel::compositing::Algorithm::BinarySwap;
    let encoder = |w: usize| (131_072 + 131_072 + 98_565 + 1 + 3 * w) as f64;
    assert_eq!(encoder(1920), 366_470.0);
    let [root, leaf] = frames.map(|b| b as f64);
    t.eq(charged(1024, 1024, tree), root + 2.0 * encoder(1024));
    t.eq(charged(1920, 1080, swap), 2.0 * (leaf + encoder(1920)));

    let (field, halo, row): (i64, i64, i64) = (1_184, 6 * (1 + 3 * 1920), 1 + 3 * 1920);
    let (landing, band) = (8, size_of::<(Vec<u8>, u64, u32)>() as i64);
    let libsim_rows = (512 + 11) * (1 + 3 * 1024);
    assert_eq!((halo, libsim_rows, band), (34_566, 1_607_179, 40));
    let warm0 = warm("rank 0's render step", &ranks[0].0);
    let warm1 = warm("rank 1's render step", &ranks[1].0);
    let (rise0, [_, file]) = (warm0.0.rise as i64, warm0.1);
    let grown = warm1.0.rise as i64 - (field + row + 160 - landing + band);
    t.eq(grown.count_ones(), 1);
    let catalyst = halo - row + landing - band - grown;
    let libsim = 32 * 8 + libsim_rows + 24 + landing - band + file as i64;
    t.eq(rise0, field + catalyst + libsim);

    let list = |names: usize| names * size_of::<String>() + "data".len();
    let arc = 2 * size_of::<usize>() + size_of::<Vec<u8>>();
    let (_, listed0, names0, _) = ranks[0].1;
    let (_, listed1, names1, points) = ranks[1].1;
    t.eq((listed0, names0), (list(1), 1));
    let flags = points + arc + datamodel::GHOST_ARRAY_NAME.len();
    t.eq((listed1, names1), (list(2) + flags, 2));
    for (rank, (step, after)) in [(warm0, ranks[0].1), (warm1, ranks[1].1)]
        .iter()
        .enumerate()
    {
        t.on("warm", rank)
            .put("rise", step.0.rise)
            .put("frame", after.0);
        t.put("arrays-listed.rise", after.1);
    }
    t.on("warm", 0).put("libsim.png.capacity", file);

    let probed = probed_render(64, 3);
    let vec = size_of::<Vec<u8>>() as u64;
    let band = size_of::<(Vec<u8>, u64, u32)>() as u64;
    let landing = size_of::<usize>() as u64;
    let strips = |width: u64, rows: u64| rows.div_ceil(32 * 1024 / width);
    let (swap, tree) = (strips(1920, 540), strips(1024, 1024));
    assert_eq!((swap, tree), (32, 32));
    let header = size_of::<render::Framebuffer>() as u64;
    let given_back = (header + size_of::<minimpi::Verdict>() as u64).next_multiple_of(8);
    // The 64³ field splits along x at point 32 of 63 cells, and the
    // slice fills every row. Catalyst, 1920×1080: rank 0 draws the pixel
    // columns whose centre lies left of 32·1920/63 = 975.2 (975 of
    // them), rank 1 the other 945; each sends the half of the rows it
    // gives away, then (stride 5761, cut at row 540) rank 0 its 6 halo
    // rows and a landing, rank 1 its look-ahead row and its band's bits.
    // Libsim, 1024×1024: rank 1 draws from 32·1024/63 = 520.1, 504
    // columns, and sends all its rows and its band's bits; the root gives
    // its strips back (stride 3073, cut at row 512) with 523 rows and a
    // landing. The strips hold whole patches, 7 B a pixel (RGB and
    // depth). A band's bits are left out here: their length follows the
    // field's values, so they are measured step by step below.
    let (cat, lib) = (1 + 3 * 1920, 1 + 3 * 1024);
    assert_eq!(6, 540 - (540 * cat - 32 * 1024) / cat);
    assert_eq!(11, 512 - (512 * lib - 32 * 1024) / lib);
    let swapped = |pixels: u64, tail: u64| (swap + 2, swap * header + 7 * pixels + vec + tail);
    let root = (tree + 2, tree * given_back + vec + 523 * lib + landing);
    let leaf = (tree + 1, tree * header + 7 * 504 * 1024 + band);
    let wire = [
        [swapped(975 * 540, 6 * cat + landing), root],
        [swapped(945 * 540, cat + band), leaf],
    ];
    let mut msgs = 0;
    for (rank, p) in probed.iter().enumerate() {
        // A junction re-parses a stream the field's values set, and a
        // band's bits are as long as its stream: both move step to step
        // (`render_128` pins the junctions). `bits` holds each step's
        // band bits on rank 1, Catalyst's then Libsim's: what the
        // analysis sends beyond its closed form.
        let bits = |a: &[Cost; 2]| match rank {
            0 => [0; 2],
            _ => [0, 1].map(|k| sent(&a[k].counts, P2P).1.saturating_sub(wire[rank][k].1)),
        };
        let steady = |mut c: Counts, bits: u64| {
            c[JUNCTION] = [0; 3];
            c[MSGS][2] -= bits;
            c[P2P][2] -= bits;
            c
        };
        let steps = p.steps.iter().map(|(t, a)| {
            let [c, l] = bits(a);
            let analyses = [steady(a[0].counts, c), steady(a[1].counts, l)];
            (steady(t.counts, c + l), analyses)
        });
        let (total, analyses) = warm("a probed render step", &steps.collect::<Vec<_>>());
        let wired = analyses.map(|a| sent(&a, P2P));
        t.eq(wired, wire[rank]);
        msgs += sent(&total, MSGS).0;
        t.on("setup", rank)
            .put("msgs", sent(&p.setup.counts, MSGS).0);
        t.on("warm", rank).put("msgs", sent(&total, MSGS).0);
        t.on("finalize", rank)
            .put("msgs", sent(&p.finalize.counts, MSGS).0);
        t.on("warm", rank);
        for (analysis, (p2p, bytes)) in ANALYSES.into_iter().zip(wired) {
            t.put(&format!("{analysis}.p2p"), p2p);
            if rank == 0 {
                t.put(&format!("{analysis}.p2p.bytes"), bytes);
            }
        }
        coloured_once(t, 64, rank, analyses);
        if rank == 1 {
            // Catalyst's bits grow to the capacity rank 1's warm rise
            // reads, every step.
            for (step, (_, a)) in p.steps.iter().enumerate() {
                let [c, l] = bits(a);
                t.eq(c.next_power_of_two(), grown as u64);
                t.on(format!("step {step}"), rank);
                t.put("catalyst.p2p.bytes", wired[0].1 + c);
                t.put("libsim.p2p.bytes", wired[1].1 + l);
            }
        }
    }
    t.eq(msgs, 12 + 62 + 63);
    t.on("warm", "all").put("strip.header", header);
}

/// The render pair at `render-insitu`'s own shape (2 ranks, 128³, z =
/// 64): counts, not clocks, of the collective encoder's junctions and
/// of each slice's draws (`coloured_once`). At 2 ranks each file is two
/// bands, so rank 1 settles one junction a file: Catalyst's at row 540
/// of 1920, Libsim's at row 512 of 1024. `render/junction` counts them
/// (calls), the tokens re-parsed (messages) and the stream bytes those
/// cover (bytes). Over the first two steps each re-parse meets within
/// 11–48 tokens and 2 264–12 225 B, inside `JOIN_SPAN` (64 KiB, the
/// stretch past the cut whose token starts the speculative parse logs):
/// a junction that had not met inside it would re-parse the rest of its
/// band, 3.1 or 1.6 MB.
fn render_128(t: &mut Rows) {
    const JOIN_SPAN: u64 = 64 * 1024;
    t.scenario("render-128");
    for (rank, p) in probed_render(128, 2).iter().enumerate() {
        for (step, (_, analyses)) in p.steps.iter().enumerate() {
            for (analysis, a) in ANALYSES.into_iter().zip(analyses) {
                let [files, tokens, bytes] = a.counts[JUNCTION];
                t.eq(bytes < JOIN_SPAN, true);
                t.eq(files, rank as u64);
                t.eq(rank == 1 || a.counts[JUNCTION] == [0; 3], true);
                if rank == 1 {
                    t.on(format!("step {step}"), rank);
                    t.put(&format!("{analysis}.junction.tokens"), tokens);
                    t.put(&format!("{analysis}.junction.bytes"), bytes);
                }
            }
        }
        let draws = p.steps.iter().map(|s| s.1.map(|a| a.counts[DRAW]));
        warm("a slice's draws", &draws.collect::<Vec<_>>());
        coloured_once(t, 128, rank, p.steps[0].1.map(|a| a.counts));
    }
}

/// Catalyst and Libsim draw into each rank's one spare framebuffer, a
/// compositing child sends strips of its drawn pixels as it draws them,
/// and the strips circulate: a warm render step allocates no
/// framebuffer and no patch on either rank (a framebuffer would be 2
/// heap calls, colour and depth, and 0.5–1 MB here). Catalyst at
/// 480×270 and Libsim at 256×256 over a 16³ field on two free-running
/// ranks: under the seeded scheduler, its own decision records land on
/// the rank threads in counts that follow the interleaving.
///
/// The bytes are exact (one band a file: each stream is under
/// `2 · MIN_BAND`, so rank 0 deflates the whole of both). Both ranks
/// first derive the step's field (1 184 B left allocated), and the
/// range's envelopes cancel. Rank 0 peaks when Catalyst's file grows to
/// its last power of two: 1 184 − the envelope of the rows rank 1 sent
/// it (24) + the list of them (160) + the file. Rank 1 writes no file;
/// it peaks once Libsim's leaf has lent both strips: 1 184 + the 135
/// Catalyst rows it sends rank 0 (135 × 1 441) in a 24 B envelope + the
/// two strips' 128 B envelopes (a strip is a framebuffer of the pixels
/// it holds: image size, columns, rows, colour, depth and drawn
/// rectangle). Libsim's slice is coloured from the field in place, into
/// the tables the rank's pool keeps, and its colormap's clone is freed
/// before the strips go out.
///
/// The heap calls are exact, and listed by site. Before their first
/// pixel, the two analyses make 9 on each rank:
/// - the step's field, 6, derived for Catalyst and shared with Libsim:
///   the field's `DataArray::shared` and its name (2), the point-data
///   slot (1), the field's name as the step's key (1), `leaf_views`'
///   leaf and view lists (2). Neither renderer reads the ghost flags, so
///   they are neither attached nor built;
/// - `global_range`, 1, once: the envelope of its pair (rank 1's
///   reduce, rank 0's broadcast); Libsim reuses the range;
/// - `Scene::frame`, 1 a frame: the slice's colormap, cloned into its
///   config. The slice is coloured from the field in place, into the
///   tables the rank's pool keeps.
///
/// A strip is ⌊32 Ki / 480⌋ = 68 Catalyst rows or 128 Libsim rows, so
/// each swap half (135 rows) and the tree child's image (256 rows)
/// travel as 2 strips, in buffers that circulate: each message is its
/// envelope alone. Beyond the 9, rank 1 makes 6 more, to 15:
/// - Catalyst's swap strips, 2;
/// - Catalyst's scanlines for rank 0's band, 2: the lines, envelope;
/// - Libsim's strips up the tree, 2.
///
/// Rank 0 makes 13 more, to 22, plus each file's growth:
/// - Catalyst's swap strips, 2;
/// - Libsim's strips given back to rank 1, 2;
/// - Catalyst's list of the rows rank 1 sent, 1;
/// - per file, its header `Vec`, 4: 8 B, then 16, 32 and 64 as the
///   signature and `IHDR` go in;
/// - the file `Vec`'s doublings from 64 B to the power of two holding
///   it: 7 for Catalyst's ≈ 5.2 KB, 6 for Libsim's ≈ 3 KB.
fn render_16(t: &mut Rows) {
    let ranks = render_steps(16, ([480, 270], "image 256 256\n{slice}"), 5, |_, _| ());
    let [cat, lib] = warm("rank 0's render step", &ranks[0].0).1;
    let (field, lines) = (1_184, 135 * (1 + 3 * 480));
    let growth = |capacity: usize| u64::from((capacity / 64).ilog2());
    let want = [
        (field - 24 + 160 + cat, 22 + growth(cat) + growth(lib)),
        (field + lines + 24 + 2 * 128, 15),
    ];
    t.scenario("render-16");
    for (rank, (steps, ())) in ranks.iter().enumerate() {
        let steps: Vec<Cost> = steps.iter().map(|s| s.0).collect();
        let (rise, calls) = warm_heap("a render step", &steps);
        t.eq((rise, calls), want[rank]);
        t.on("warm", rank).put("rise", rise).put("calls", calls);
    }
    t.on("warm", 0).put("catalyst.png.capacity", cat);
    t.put("libsim.png.capacity", lib);
}

/// Heap calls of a warm Libsim step on each of two free-running ranks
/// (16³, a 256² image, a direct-send tree) for a session of `plots`,
/// less the growth of rank 0's file.
fn warm_libsim_calls(plots: &'static str) -> Vec<u64> {
    World::run(2, move |comm| {
        let session = format!("image 256 256\n{plots}");
        let (mut sim, _, mut libsim) = render_pair(comm, 16, ([480, 270], &session));
        let file = libsim.png_handle();
        let mut calls = Vec::new();
        for step in 0..4 {
            sim.step(comm);
            let data = OscillatorAdaptor::new(&sim);
            let (_, cost) = cost(None, || libsim.execute(&data, comm));
            let len = file.lock().as_ref().map_or(0, Vec::len);
            let growth = (len.next_power_of_two() / 64).checked_ilog2().unwrap_or(0);
            if step >= WARM_UP {
                calls.push(cost.calls - u64::from(growth));
            }
        }
        warm("a Libsim step's heap calls", &calls)
    })
}

/// A scene's later plot is merged into the frame where it lies, not
/// through a copied patch: a warm Libsim step with a second slice makes
/// exactly the second plot's own heap calls more, on each rank:
/// - on rank 0, the tree's root, its framebuffer, 2 (colour, depth):
///   the frame holds the rank's spare while the plot is drawn; rank 1,
///   a leaf, keeps no rows and takes none, and draws the plot's strips
///   into the strip buffer its first plot left in its pool;
/// - its colormap, cloned into its config, 1; its cells are coloured
///   straight from the field into the tables the first plot left in the
///   rank's pool;
/// - its strips up the tree, 2 envelopes on rank 1, and their returns,
///   2 on rank 0.
fn later_plot(t: &mut Rows) {
    let one = warm_libsim_calls("{slice}");
    let two = warm_libsim_calls("{slice}plot pseudocolor data axis=x index={z}\n");
    t.scenario("libsim-16");
    t.eq([two[0] - one[0], two[1] - one[1]], [5, 3]);
    for rank in 0..2 {
        t.on("warm", rank).put("1-plot.calls-less-file", one[rank]);
        t.put("2-plot.calls-less-file", two[rank]);
    }
}

/// The autocorrelation's memory is the paper's two `O(t·N³)` buffers and
/// nothing that grows with the field beside them: no id per cell while
/// it runs, no copy of a `corr` row while it selects the peaks. Both the
/// bytes it holds after its first step and finalize's rise are sums of
/// what each site keeps, the same on free-running ranks and under the
/// seeded scheduler.
fn autocorrelation(t: &mut Rows) {
    let run = |policy| WorldBuilder::new(2).sched(policy).run(autocorrelation_heap);
    let ranks = run(SchedPolicy::Os);
    t.scenario("autocorrelation-64");
    t.eq(&ranks, &run(SchedPolicy::Seeded(2016)));
    for (rank, (held, rise, want)) in ranks.into_iter().enumerate() {
        t.eq([held, rise], want);
        t.on("step 0", rank).put("held", held);
        t.on("finalize", rank).put("rise", rise);
    }
}

/// A rank's bytes held after the first step and finalize's rise, and
/// their closed forms.
fn autocorrelation_heap(comm: &Comm) -> (usize, usize, [usize; 2]) {
    use sensei::analysis::autocorrelation::{AutocorrelationResult, Peak};
    // The capacity std first gives a collected `Vec` or a `VecDeque`, as
    // read on the pinned toolchain (a std update may move it, with no
    // change here).
    const FIRST_CAP: usize = 4;
    let mut sim = simulation(comm, 64, &deck());
    sim.step(comm);
    // A throwaway first reader: the simulation builds its ghost flags on
    // first demand and keeps them.
    Autocorrelation::new("data", 1, 1).execute(&OscillatorAdaptor::new(&sim), comm);
    let flags = datamodel::duplicate_point_ghosts(&sim.local_extent(), &sim.global_extent());
    let kept = |flags: &Vec<u8>| flags.iter().filter(|&&flag| flag == 0).count();
    let cells = flags.as_ref().map_or(sim.local_extent().num_points(), kept);
    let (window, k) = (4, 8);
    let buffers = 2 * cells * window * 8;
    drop(flags);

    let (mut ac, first) = cost(None, || {
        let mut ac = Autocorrelation::new("data", window, k);
        ac.execute(&OscillatorAdaptor::new(&sim), comm);
        ac
    });
    let (peaks, held) = (ac.results_handle(), first.held as usize);
    assert_eq!(ac.buffer_bytes(), buffers);
    // Beside the buffers, what `new` and the first step keep: the
    // array's name, the results handle (an `Arc`: two counts and a mutex
    // over the result), the run table (here one entry of five words, in
    // a collected `Vec`) and the leaf's extent pair.
    let word = size_of::<usize>();
    let kept = "data".len()
        + 2 * word
        + size_of::<parking_lot::Mutex<Option<AutocorrelationResult>>>()
        + FIRST_CAP * 5 * word
        + size_of::<Option<(Extent, Extent)>>();

    for _ in 1..3 {
        sim.step(comm);
        ac.execute(&OscillatorAdaptor::new(&sim), comm);
    }
    assert!(ac.take_failures().is_empty());

    let rise = cost(None, || ac.finalize(comm)).1.rise;
    // Finalize holds each rank's `window` rows of `k` peaks. While it
    // selects them it also holds the `k` best `(value, tuple)`
    // candidates of the row it builds. Once they are selected:
    // - rank 1 holds what it sends rank 0 and rank 0 frees: the rows,
    //   their boxed payload, and rank 0's world mailbox, which grows to
    //   its first `FIRST_CAP` envelopes at this first send into it (the
    //   deck's broadcast went the other way);
    // - rank 0 grows a row to `2k` peaks as rank 1's is merged into it
    //   (rank 1's row, freed next, pays for the next growth), less the
    //   received payload box it frees.
    let rows = window * (size_of::<Vec<Peak>>() + k * size_of::<Peak>());
    let select = rows + k * size_of::<(f64, usize)>();
    let payload = size_of::<Vec<Vec<Peak>>>();
    // An envelope: source, tag, boxed payload (pointer and vtable) and
    // sanitizer stamp.
    let envelope = word + size_of::<u64>() + 2 * word + size_of::<Option<sanitizer::Stamp>>();
    let reduce = if comm.rank() == 1 {
        rows + payload + FIRST_CAP * envelope
    } else {
        rows - payload + k * size_of::<Peak>()
    };

    if comm.rank() == 0 {
        let peaks = peaks.lock().clone().expect("root holds the peaks");
        assert_eq!(peaks.len(), window);
        assert!(peaks.iter().all(|lag| lag.len() == k));
    }
    (held, rise, [buffers + kept, select.max(reduce)])
}

/// A receive allocates nothing on the receiving rank, whether its
/// message is already queued or it waits: rank 1's heap window around
/// its first receive that blocks (rank 0 sleeps before it sends), around
/// one whose message is already in its mailbox (sent before the one rank
/// 1 took last), and around its first receive that blocks on a fresh
/// `split` communicator reads 0 B in 0 calls each time.
///
/// A match decision allocates nothing either: under a deterministic
/// policy an `ANY_SOURCE` receive chooses among its candidate senders in
/// a buffer the world keeps, so a rank's heap calls do not follow the
/// interleaving. Rank 0 of 4 takes a round of three `recv_any` to warm
/// up, then a second round reads 0 heap calls, seeded and free-running.
fn receives(t: &mut Rows) {
    const LATE: std::time::Duration = std::time::Duration::from_millis(60);
    let windows = World::run(2, move |comm| {
        if comm.rank() == 0 {
            std::thread::sleep(LATE);
            comm.send(1, 1, 1u64);
            comm.send(1, 2, 2u64);
            comm.send(1, 9, ());
            let sub = comm.split(0, 0);
            std::thread::sleep(LATE);
            sub.send(1, 3, 3u64);
            Vec::new()
        } else {
            let blocked = cost(None, || comm.recv::<u64>(0, 1));
            comm.recv::<()>(0, 9);
            let queued = cost(None, || comm.recv::<u64>(0, 2));
            let sub = comm.split(0, 1);
            let fresh = cost(None, || sub.recv::<u64>(0, 3));
            let windows = [blocked, queued, fresh];
            windows.map(|(got, c)| (got, c.rise, c.calls)).to_vec()
        }
    });
    t.scenario("minimpi").on("warm", 1);
    t.eq(&windows[1][..], &[(1, 0, 0), (2, 0, 0), (3, 0, 0)]);
    for (name, (_, rise, calls)) in ["blocked", "queued", "fresh-split"].iter().zip(&windows[1]) {
        t.put(&format!("recv.{name}.rise"), rise);
        t.put(&format!("recv.{name}.calls"), calls);
    }
    let recv_any = |policy: SchedPolicy| {
        WorldBuilder::new(4).sched(policy).run(|comm| {
            let round = |round: u64| {
                let receive = || match comm.rank() {
                    0 => {
                        (1..comm.size()).for_each(|_| assert_eq!(comm.recv_any::<u64>(5).1, round))
                    }
                    _ => comm.send(0, 5, round),
                };
                let calls = cost(None, receive).1.calls;
                comm.barrier();
                calls
            };
            round(0);
            round(1)
        })[0]
    };
    let calls = recv_any(SchedPolicy::Seeded(3));
    t.eq(calls, recv_any(SchedPolicy::Os));
    t.eq(calls, 0);
    t.on("warm", 0).put("recv_any.calls", calls);
}

/// The benchmark's input at seed 2016, the text its generator hands the
/// program: two wide oscillators, whose support covers the domain, then
/// seven narrow ones, each followed by its point reflection through the
/// centre.
const BENCHMARK_DECK: &str = "\
periodic 0.8325143297288906 0.6211325487297594 0.8694725323458412 0.1839637366709278 16.32470862207139 0
damped 0.5355568972320942 0.48496737824102354 0.6177540897287472 0.22508325582769062 10.246504822745525 0.14019468150035908
decaying 0.6628942796797004 0.3606993217191029 0.3017903551109607 0.0053 17.28730184614527 0
periodic 0.3371057203202996 0.6393006782808971 0.6982096448890394 0.0053 17.28730184614527 0
damped 0.3163215369784949 0.6476921010956707 0.523918188862202 0.0046 7.554560336768578 0.08890061992812194
decaying 0.6836784630215051 0.35230789890432934 0.476081811137798 0.0046 7.554560336768578 0
periodic 0.3475462501035176 0.6852860195873 0.6774752349609836 0.006 9.813582579614836 0
damped 0.6524537498964824 0.31471398041270005 0.3225247650390164 0.006 9.813582579614836 0.18428215343175092
decaying 0.42312278292730193 0.6100668675100481 0.6643563397987986 0.004 17.950307707327468 0
periodic 0.5768772170726981 0.3899331324899519 0.3356436602012014 0.004 17.950307707327468 0
damped 0.6436607785846132 0.63291270356908 0.4511358784079207 0.0043 12.173282418706837 0.16579016980079092
decaying 0.35633922141538676 0.36708729643092 0.5488641215920793 0.0043 12.173282418706837 0
periodic 0.6613890109073347 0.4898300115131077 0.3487985324498155 0.005 7.969278996719729 0
damped 0.3386109890926653 0.5101699884868923 0.6512014675501845 0.005 7.969278996719729 0.05159193925177444
decaying 0.5924587486823805 0.4569359057000472 0.6553667756412811 0.0056 13.625178421122019 0
periodic 0.40754125131761954 0.5430640942999527 0.3446332243587189 0.0056 13.625178421122019 0
";

/// The step kernel on the benchmark's own shape (the seed-2016 deck,
/// 128³, 2 ranks), probed. `sim/terms` (evaluated, skipped) of each of
/// the first three steps, rank by rank: rank 0's block is 65 × 128 ×
/// 128 = 1 064 960 points and rank 1's 1 048 576, so a step's pair sums
/// to 16 times that; the two wide oscillators take every one of their
/// terms (2 129 920 and 2 097 152), the fourteen narrow ones ≈ 11 500.
///
/// A warm step allocates nothing: the kernel's row tables live in the
/// `Simulation` from `new` on, so each rank's warm `Simulation::step`
/// reads 0 B in 0 heap calls.
fn oscillator(t: &mut Rows) {
    let ranks = World::run(2, |comm| {
        comm.attach_probe(probe::enabled());
        let mut sim = simulation(comm, 128, BENCHMARK_DECK);
        let steps: Vec<Cost> = (0..3)
            .map(|_| cost(Some(comm), || sim.step(comm)).1)
            .collect();
        (steps, sim.local_extent().num_points() as u64)
    });
    t.scenario("oscillator-128");
    for (rank, (steps, points)) in ranks.iter().enumerate() {
        for (step, cost) in steps.iter().enumerate() {
            let (evaluated, skipped) = sent(&cost.counts, TERMS);
            t.eq(evaluated + skipped, 16 * points);
            t.on(format!("step {step}"), rank)
                .put("terms.evaluated", evaluated);
            t.put("terms.skipped", skipped);
        }
        let (rise, calls) = warm_heap("a warm oscillator step", &steps[1..]);
        t.eq((rise, calls), (0, 0));
        t.on("warm", rank).put("rise", rise).put("calls", calls);
    }
}

/// One step of a 64³ run on two ranks, marshalled by each: the ghosted
/// two-block deck the in transit scenarios ship.
fn two_marshalled_blocks() -> Vec<adios::BpStep> {
    World::run(2, move |comm| {
        let mut sim = simulation(comm, 64, &deck());
        sim.step(comm);
        adios::staging::try_adaptor_to_step(&OscillatorAdaptor::new(&sim)).expect("marshals")
    })
}

/// The wire carries each array at its own width: 8 B of `f64` field a
/// point, and on the block that duplicates a plane 1 B of `u8` ghost
/// flag a point, nine in all, under a header of closed form. The block
/// with no ghost (writer 0's, split along x) ships no ghost variable:
/// 8 B a point and a 280 B header.
///
/// The endpoint stores a decoded payload once, so handing a step to an
/// analysis allocates headers, not fields. Its bytes are exact, site by
/// site. The round's blocks and the mesh an analysis reads each hold a
/// block list (four slots as the blocks are pushed, two when the bare
/// mesh is built with its slot count), per block a point-data slot of
/// four arrays, and per array its name and its one-buffer list: `data`
/// on both blocks, the ghost flags on the second alone, whose writer's
/// block duplicates a plane. Both lists are held at the end, so the
/// high-water mark is their sum.
fn marshalled(t: &mut Rows) {
    use datamodel::{Buffer, DataArray, DataSet, GHOST_ARRAY_NAME};
    let blocks = two_marshalled_blocks();
    t.scenario("bp-64");
    for (rank, step) in blocks.iter().enumerate() {
        let points: u64 = step.vars[0].local_dims.iter().product();
        let names = &["data", GHOST_ARRAY_NAME][..=rank];
        assert_eq!(step.vars.iter().map(|v| &v.name).collect::<Vec<_>>(), names);
        // Magic, step, time, attribute count; six geometry attributes
        // (length, name, value); variable count; per variable a length,
        // the name, type code, leaf, nine dims and the element count.
        let attrs = 3 * (4 + "leaf0_spacing_0".len() + 8) + 3 * (4 + "leaf0_origin_0".len() + 8);
        let vars: usize = names.iter().map(|n| 4 + n.len() + 1 + 4 + 9 * 8 + 8).sum();
        let header = (4 + 8 + 8 + 4) + attrs + 4 + vars;
        t.eq(header, [280, 381][rank]);
        t.eq(step.encoded_len(), (8 + rank) * points as usize + header);
        let mut frame = Vec::new();
        step.encode_into(&mut frame);
        assert_eq!(frame.len(), step.encoded_len());
        t.on("step 0", rank).put("encoded", step.encoded_len());
    }
    let decode = |step: &adios::BpStep| {
        let mut frame = Vec::new();
        step.encode_into(&mut frame);
        adios::BpStep::decode(&frame).expect("own encoding decodes")
    };
    let steps: Vec<(usize, adios::BpStep)> = blocks.iter().map(decode).enumerate().collect();
    let (_, round) = cost(None, || {
        let endpoint = adios::staging::round_adaptor(&steps);
        let mut mesh = endpoint.mesh();
        for name in ["data", GHOST_ARRAY_NAME] {
            let added = endpoint.add_array(&mut mesh, Association::Point, name);
            added.expect("shipped array");
        }
        (endpoint, mesh)
    });
    let array = |name: &str| name.len() + size_of::<Buffer<f64>>();
    let arrays = 2 * (4 * size_of::<DataArray>() + array("data")) + array(GHOST_ARRAY_NAME);
    t.eq(
        round.rise,
        (4 + 2) * size_of::<Option<DataSet>>() + 2 * arrays,
    );
    t.on("step 0", "-").put("endpoint.adopt.rise", round.rise);
}

/// Per rank of a staging run, writers then the endpoint: its setup (for
/// the endpoint, up to its first round's analyses), each step from
/// `first` on (for a writer its `execute`, from step 0; for the endpoint
/// a round, from one `execute` of its recorder to the next: the steps
/// given back, the next steps' adoption, the histogram, from step 1),
/// and its finalize (a writer's close; the endpoint's last give-back,
/// the stream's end and the bridge's `finalize`). A writer's bytes
/// shipped and block (points, ghosted) come with it.
struct Staged {
    setup: Cost,
    first: usize,
    steps: Vec<Cost>,
    finalize: Cost,
    shipped: (usize, (usize, bool)),
}

/// A staging pair: `writers` writers of a `grid`³ oscillator field, the
/// demo deck on writer 0, and one endpoint running the histogram (64
/// bins) over `steps` steps.
fn staging(writers: usize, grid: usize, steps: usize, probed: bool) -> Vec<Staged> {
    World::run(writers + 1, move |world| {
        if probed {
            world.attach_probe(probe::enabled());
        }
        let setup = Window::open(Some(world));
        match pair(world, writers) {
            Role::Writer { sub, writer } => {
                let mut sim = simulation(&sub, grid, &deck());
                let mut ship = AdiosWriterAnalysis::new(writer);
                let setup = setup.close(Some(world));
                let mut step = || {
                    sim.step(&sub);
                    let data = OscillatorAdaptor::new(&sim);
                    cost(Some(world), || ship.execute(&data, world)).1
                };
                let steps = (0..steps).map(|_| step()).collect();
                let finalize = cost(Some(world), || ship.finalize(world)).1;
                assert!(ship.take_failures().is_empty());
                let (local, global) = (sim.local_extent(), sim.global_extent());
                let ghosted = (0..3).any(|a| local.lo[a] > global.lo[a]);
                let shipped = (ship.bytes_shipped, (local.num_points(), ghosted));
                let first = 0;
                Staged {
                    setup,
                    first,
                    steps,
                    finalize,
                    shipped,
                }
            }
            Role::Endpoint { sub, mut reader } => {
                let rounds = Arc::new(Mutex::new((Some(setup), Vec::new())));
                let recorder = Box::new(Rounds(Arc::clone(&rounds)));
                let histogram = Box::new(HistogramAnalysis::new("data", 64));
                let analyses: Vec<Box<dyn AnalysisAdaptor>> = vec![histogram, recorder];
                let broker = StagingBroker::new(BrokerConfig::default());
                let run = run_endpoint_with_broker(world, &sub, &mut reader, analyses, &broker);
                assert_eq!(run.0.steps(), steps as u64);
                assert!(run.0.failure_reports().is_empty());
                let (open, mut steps) = std::mem::take(&mut *rounds.lock());
                let finalize = open.expect("a round is open").close(Some(world));
                let (setup, first, shipped) = (steps.remove(0), 1, (0, (0, false)));
                Staged {
                    setup,
                    first,
                    steps,
                    finalize,
                    shipped,
                }
            }
        }
    })
}

/// An endpoint analysis that closes the window open since its last
/// `execute` (or the one it was given) and opens the next.
struct Rounds(Arc<Mutex<(Option<Window>, Vec<Cost>)>>);

impl AnalysisAdaptor for Rounds {
    fn name(&self) -> &str {
        "rounds"
    }
    fn execute(&mut self, _data: &dyn sensei::DataAdaptor, comm: &Comm) -> Steering {
        let mut rounds = self.0.lock();
        if let Some(open) = rounds.0.take() {
            let cost = open.close(Some(comm));
            rounds.1.push(cost);
        }
        rounds.0 = Some(Window::open(Some(comm)));
        Steering::Continue
    }
}

/// The in transit buffers circulate: after two warm-up steps, neither a
/// writer's `execute` (marshal into the blocks the last step came back
/// in, lend) nor an endpoint round (give back, adopt the next blocks,
/// histogram) allocates anything payload-sized. At 64³ over two writers
/// a step is 1.2 MB; a warm step's high-water rise repeats to the byte,
/// so a fresh block, a copied payload or a copied ghost array, or any
/// other new buffer, moves it.
///
/// The heap calls are exact, and all of them are metadata. Writer 0's
/// block duplicates no plane, so it lists, attaches and ships no ghost
/// flags. A warm writer `execute` makes 17 on writer 0 and 21 on
/// writer 1:
/// - `DataAdaptor::full_mesh` over the oscillator, 5 / 8: the
///   array-name list and its names (2 / 3), the field's and, on writer
///   1, the ghost array's `DataArray::shared` (2 each), the point-data
///   slot (1);
/// - `mesh_to_step`, 11 / 12: the leaf walk (1), six geometry attribute
///   names (6) and the attribute list growing to hold them (2), the
///   variable list (1), a variable name each (1 / 2);
/// - `FlexpathWriter::write`, 1: the channel envelope of the step.
///
/// A warm endpoint round makes 80:
/// - `FlexpathReader::begin_step`, 21: the round's step list and the
///   list of writers awaited (2), and per writer the metadata
///   `BpStep::adopt` parses into owned values — the attribute and
///   variable lists (2), six attribute names (6) and a variable name
///   each (1 / 2): 9 and 10;
/// - `StagingBroker::publish_step`, 0: it has no subscriber to deliver to;
/// - the round's blocks, 37: the multiblock's block list (1), and per
///   writer (17 / 19) the leaf ids and leaf variable list (2), six
///   geometry keys built by `format!` (2 each, 12), a `DataArray::shared`
///   array each (2 each, 2 / 4) and the point-data slot (1);
/// - the step's field, 8: the bare multiblock (1), per block the field's
///   array clone (name and buffer list, 2 each: 4) and the point-data
///   slot (2), the field's name as the step's key (1);
/// - the mesh the histogram's kept tuples are read from, 9: the bare
///   multiblock (1), writer 1's ghost flags, asked for first (their name
///   and buffer list, 2, and the point-data slot, 1), then per block the
///   field's array clone (name and buffer list, 2 each: 4) and writer
///   0's point-data slot (1);
/// - `leaf_views`' leaf and view lists over it, 2;
/// - `HistogramAnalysis::execute`, 1: the count vector — its scatter
///   lanes are kept between steps;
/// - `FlexpathReader::end_step`, 2: the channel envelope of each step
///   given back. The payloads go back in the list they came in, which
///   `BpStep::adopt` drained.
///
/// A probed pass counts the messages: a warm step sends 4, each writer
/// lending its step and the endpoint giving both back (the endpoint's
/// rounds run a step behind, so its `finalize` row holds the last
/// step's two). The one-time messages beside them, each rank's setup
/// and each writer's close, are why the benchmark's
/// `minimpi.msgs_per_step` reads above 4.
///
/// It counts their bytes too, at their wire sizes. A writer's step is
/// its frame, `(closing, metadata, payloads)`: the frame's `size_of`,
/// the framing without its values and the values, which are
/// `perfmodel::memory::staged_step_bytes` of its block, and for each
/// variable a payload, whose `Arc` shares a `Vec` header. The endpoint
/// gives each step back at its `size_of` and a verdict's: the buffers
/// return, but not what they hold.
fn staging_64(t: &mut Rows) {
    const CALLS: [u64; 3] = [17, 21, 80];
    t.scenario("staging-64");
    for (rank, run) in staging(2, 64, 6, false).iter().enumerate() {
        let (rise, calls) = warm_heap("a staging step", &run.steps[WARM_UP - run.first..]);
        t.eq(calls, CALLS[rank]);
        t.on("warm", rank).put("rise", rise).put("calls", calls);
    }
    for (rank, run) in staging(2, 64, 6, true).iter().enumerate() {
        let msgs: Vec<u64> = run.steps.iter().map(|c| sent(&c.counts, MSGS).0).collect();
        let (cold, warm_steps) = msgs.split_at(WARM_UP - run.first);
        let steady = warm("a staging step's messages", warm_steps);
        t.eq(steady, [1, 1, 2][rank]);
        t.on("setup", rank)
            .put("msgs", sent(&run.setup.counts, MSGS).0);
        for (i, msgs) in cold.iter().enumerate() {
            t.on(format!("step {}", run.first + i), rank)
                .put("msgs", msgs);
        }
        t.on("warm", rank).put("msgs", steady);
        t.on("finalize", rank)
            .put("msgs", sent(&run.finalize.counts, MSGS).0);
        let bytes: Vec<u64> = run.steps.iter().map(|c| sent(&c.counts, P2P).1).collect();
        let bytes = warm("a staging step's bytes", &bytes[WARM_UP - run.first..]) as usize;
        type Frame = (bool, Vec<u8>, Vec<adios::Payload>);
        let block @ (_, ghosted) = run.shipped.1;
        let variables = 1 + usize::from(ghosted);
        let payload = size_of::<adios::Payload>() + size_of::<Vec<u8>>();
        let step = perfmodel::memory::staged_step_bytes(&[block]) as usize;
        let want = match rank {
            2 => 2 * size_of::<(Frame, minimpi::Verdict)>(),
            _ => size_of::<Frame>() + step + variables * payload,
        };
        t.eq(bytes, want);
        t.on("warm", rank).put("p2p.bytes", bytes);
    }
}

/// The staged step is its closed form: what the writers ship a step,
/// summed, is `perfmodel::memory::staged_step_bytes` of their blocks —
/// the field, the flags of the blocks that have a ghost, and the
/// headers — at 1, 2 and 4 writers of a 16³ field.
fn staged_bytes(t: &mut Rows) {
    const STEPS: usize = 3;
    t.scenario("staging-16").on("warm", "all");
    for writers in [1, 2, 4] {
        let runs = staging(writers, 16, STEPS, false);
        let (bytes, blocks): (Vec<usize>, Vec<_>) = runs.iter().map(|r| r.shipped).unzip();
        let blocks = &blocks[..writers];
        let per_step = bytes.iter().sum::<usize>() as f64 / STEPS as f64;
        t.eq(blocks.iter().filter(|b| !b.1).count(), 1);
        t.eq(per_step, perfmodel::memory::staged_step_bytes(blocks));
        t.put(&format!("{writers}-writer.shipped"), per_step);
    }
}

/// A warm `stats-insitu` step (histogram of 64 bins, autocorrelation of
/// window 4, top 8) at 32³ on two ranks under the seeded scheduler
/// allocates nothing field-sized, and its heap calls are exact, listed
/// by site.
///
/// Called directly, each analysis derives the step's field, and asks
/// for its kept tuples: 7 calls on rank 0, 11 on rank 1.
/// - the mesh with the field, 3: the field's `DataArray::shared` and its
///   name (2), the point-data slot (1);
/// - the field's name, kept with it (1);
/// - the mesh the kept tuples are read from, on a fresh structure the
///   flags are asked for first: on rank 0, whose block has no ghost, the
///   adaptor's refusal, a name (1), and nothing else; on rank 1 the
///   flags' `DataArray::shared` and its name (2), the point-data slot
///   (1), and the field's `DataArray::shared` and its name (2);
/// - `leaf_views`' leaf and view lists (2).
///
/// The histogram makes 3 more on rank 1, to 14, and 5 on rank 0, to 12:
/// - the count vector (1);
/// - the `(min, max)` pair reduction's envelope (1: rank 1's reduce,
///   rank 0's broadcast);
/// - the bin reduction: rank 1's reduce envelope (1), or rank 0's
///   reduced vector, the copy it broadcasts and its envelope (3).
///
/// The autocorrelation makes none beyond the field's 7 / 11: it walks
/// the step's kept runs against the captured table entry by entry, and
/// finds each delay's past slot as it goes.
///
/// Through a bridge the two share the step's one field, kept by the
/// step: the histogram, first to read it, makes the same 12 / 14 calls
/// and rises as much as called directly, and the autocorrelation makes
/// no call and rises 0 B.
fn stats(t: &mut Rows) {
    const CALLS: [[u64; 4]; 2] = [[12, 7, 12, 0], [14, 11, 14, 0]];
    let ranks = WorldBuilder::new(2)
        .sched(SchedPolicy::Seeded(2016))
        .run(|comm| {
            let mut sim = simulation(comm, 32, &deck());
            let histogram = || meter(HistogramAnalysis::new("data", 64));
            let autocorrelation = || meter(Autocorrelation::new("data", 4, 8));
            let mut direct = [histogram(), autocorrelation()];
            let [(h, h_costs), (a, a_costs)] = [histogram(), autocorrelation()];
            let mut bridge = Bridge::new();
            bridge.register(h);
            bridge.register(a);
            for _ in 0..6 {
                sim.step(comm);
                let data = OscillatorAdaptor::new(&sim);
                for (analysis, _) in &mut direct {
                    assert!(analysis.execute(&data, comm).should_continue());
                    assert!(analysis.take_failures().is_empty());
                }
                assert!(bridge.execute(&data, comm).should_continue());
            }
            assert!(bridge.failure_reports().is_empty());
            let [(_, dh), (_, da)] = direct;
            [dh, da, h_costs, a_costs].map(|c| warm_heap("a stats step", &c.lock()[WARM_UP..]))
        });
    t.scenario("stats-32");
    for (rank, costs) in ranks.iter().enumerate() {
        t.eq(costs.map(|c| c.1), CALLS[rank]);
        t.eq(costs[0], costs[2]);
        t.eq(costs[3], (0, 0));
        let names = ["direct.histogram", "direct.autocorrelation"];
        let names = names
            .into_iter()
            .chain(["bridge.histogram", "bridge.autocorrelation"]);
        t.on("warm", rank);
        for (name, (rise, calls)) in names.zip(costs) {
            t.put(&format!("{name}.rise"), rise);
            t.put(&format!("{name}.calls"), calls);
        }
    }
}

/// Each step's window of a one-rank bridge running the histogram (64
/// bins) over `array`, the step's adaptor from `next`.
fn bridged<A>(comm: &Comm, array: &str, mut next: impl FnMut() -> A) -> Vec<Cost>
where
    A: sensei::DataAdaptor,
{
    let (histogram, costs) = meter(HistogramAnalysis::new(array, 64));
    let mut bridge = Bridge::new();
    bridge.register(histogram);
    for _ in 0..WARM_UP + 2 {
        assert!(bridge.execute(&next(), comm).should_continue());
    }
    assert!(bridge.failure_reports().is_empty());
    let costs = costs.lock().clone();
    costs
}

/// A science proxy's bridged histogram step (each proxy at its default
/// size, one rank: PHASTA's `velmag`, LESLIE's `vorticity`, Nyx's
/// `density`) copies nothing the simulation holds and builds nothing
/// that never changes: what is built once (PHASTA's VTK cells, LESLIE's
/// and Nyx's ghost flags) is built by the first step's request, kept by
/// the simulation and shared by every later step, and `step 0` less
/// `warm` is exactly it. A warm step makes, site by site:
/// - the mesh: PHASTA's points, their buffer list and name (2 calls);
///   Nyx's three coordinate lists, 8 B a point of each axis (3);
///   LESLIE's image nothing;
/// - the field's view, its name and buffer list (2), and the point-data
///   slot it opens, four arrays (1); PHASTA's `velmag` is derived here,
///   8 B a point (1), the one term that grows with the field;
/// - the field's name, kept with it (1);
/// - the mesh the kept tuples are read from, the flags asked for first:
///   for LESLIE and Nyx a fresh mesh with the flags' view (2), its slot
///   (1) and the field's view again (2); PHASTA lists no flags, so its
///   fresh mesh (2) and the refusal's name (1) are freed before the
///   peak;
/// - `leaf_views`' leaf iterator, freed before the peak, and its list of
///   four views (2);
/// - the histogram's count vector (1).
///
/// The first step also makes PHASTA's cells, the run's one copy of the
/// solver's connectivity (8 B a node of each tet), their offsets (8 B a
/// tet and one more) and cell types (1 B a tet), each behind an `Arc`,
/// beside the first mesh's points that the simulation keeps with them
/// (8 calls); and LESLIE's and Nyx's flags, 1 B a point, behind an `Arc`
/// (2).
fn producers(t: &mut Rows) {
    use datamodel::{Buffer, DataArray, GHOST_ARRAY_NAME};
    use science::{LeslieConfig, NyxConfig, PhastaConfig};
    let [phasta, leslie, nyx] = World::run(1, |comm| {
        let mut phasta = science::Phasta::new(comm, PhastaConfig::default());
        let mut leslie = science::Leslie::new(comm, LeslieConfig::default());
        let mut nyx = science::Nyx::new(comm, NyxConfig::default());
        [
            bridged(comm, "velmag", || {
                phasta.step(comm);
                science::PhastaAdaptor::new(&phasta)
            }),
            bridged(comm, "vorticity", || {
                leslie.step(comm);
                science::LeslieAdaptor::new(&leslie)
            }),
            bridged(comm, "density", || {
                nyx.step(comm);
                science::NyxAdaptor::new(&nyx)
            }),
        ]
    })
    .remove(0);
    let [lx, ly, lz] = PhastaConfig::default().lattice;
    let (nodes, tets) = (lx * ly * lz, (lx - 1) * (ly - 1) * (lz - 1) * 6);
    let [nx, ny, nz] = LeslieConfig::default().grid;
    let planes = nx * ny * (nz + 2);
    let cells = NyxConfig::default().grid;
    let view = |name: &str| name.len() + size_of::<Buffer<f64>>();
    let slot = 4 * size_of::<DataArray>();
    let flags = view(GHOST_ARRAY_NAME) + slot;
    let tail = 4 * size_of::<sensei::analysis::LeafView>() + 64 * size_of::<u64>();
    let arc = 2 * size_of::<usize>() + size_of::<Vec<u8>>();
    let points = 3 * size_of::<Buffer<f64>>() + "points".len();
    let coords = 8 * cells.iter().sum::<usize>();
    let field = |name: &str| view(name) + slot + name.len();
    let warm = [
        points + 8 * nodes + field("velmag") + tail,
        field("vorticity") + flags + view("vorticity") + tail,
        coords + field("density") + coords + flags + view("density") + tail,
    ];
    let once = [
        points + 8 * 4 * tets + 8 * (tets + 1) + tets + 3 * arc,
        planes + arc,
        cells.iter().product::<usize>() + arc,
    ];
    t.scenario("producers");
    let runs = [("phasta", phasta), ("leslie", leslie), ("nyx", nyx)];
    for (k, (name, costs)) in runs.into_iter().enumerate() {
        let (rise, calls) = warm_heap(name, &costs[WARM_UP..]);
        t.eq((rise, calls), (warm[k], [13, 12, 18][k]));
        let first = (costs[0].rise - rise, costs[0].calls - calls);
        t.eq(first, (once[k], [8, 2, 2][k]));
        t.on("step 0", 0)
            .put(&format!("{name}.rise"), costs[0].rise);
        t.put(&format!("{name}.calls"), costs[0].calls);
        t.on("warm", 0).put(&format!("{name}.rise"), rise);
        t.put(&format!("{name}.calls"), calls);
    }
}
