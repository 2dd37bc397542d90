//! Cross-crate integration tests: full instrumented runs spanning the
//! miniapp, SENSEI, the infrastructures, the I/O paths, and the science
//! proxies — the paper's workflows end to end at thread scale.

use datamodel::{partition_extent, Extent};
use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::descriptive::DescriptiveStats;
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::{AnalysisAdaptor as _, Bridge};

fn deck() -> String {
    format_deck(&demo_oscillators())
}

/// The messages this rank has sent, as the benchmark counts them (every
/// `minimpi/*` counter but the harness's barrier), and the
/// `render/composite` strips among them with their bytes; all 0 on an
/// unprobed comm.
fn sent(comm: &minimpi::Comm) -> [u64; 3] {
    let snapshot = comm.probe().snapshot();
    let minimpi = snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("minimpi/") && c.name != "minimpi/barrier")
        .map(|c| c.messages)
        .sum();
    let strips = snapshot
        .counters
        .iter()
        .find(|c| c.name == "render/composite");
    [
        minimpi,
        strips.map_or(0, |c| c.messages),
        strips.map_or(0, |c| c.bytes),
    ]
}

/// The full §4.1 coupling: miniapp + every non-rendering analysis at
/// once through one bridge, over several steps, with timing capture.
#[test]
fn miniapp_with_all_direct_analyses() {
    let d = deck();
    World::run(8, move |comm| {
        let cfg = SimConfig {
            grid: [17, 17, 17],
            steps: 6,
            ..SimConfig::default()
        };
        let root = if comm.rank() == 0 {
            Some(d.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root);

        let hist = HistogramAnalysis::new("data", 32);
        let hist_res = hist.results_handle();
        let ac = Autocorrelation::new("data", 5, 8);
        let ac_res = ac.results_handle();
        let stats = DescriptiveStats::new("data");
        let stats_res = stats.results_handle();

        let mut bridge = Bridge::new();
        bridge.register(Box::new(hist));
        bridge.register(Box::new(ac));
        bridge.register(Box::new(stats));

        for _ in 0..6 {
            sim.step(comm);
            assert!(bridge
                .execute(&OscillatorAdaptor::new(&sim), comm)
                .should_continue());
        }
        let report = bridge.finalize(comm);
        assert_eq!(report.steps, 6);
        // Rank 0 aggregates every rank's samples; other ranks see only
        // their own.
        let expect = if comm.rank() == 0 {
            6 * comm.size() as u64
        } else {
            6
        };
        assert_eq!(report.phase("per-step/histogram").unwrap().samples, expect);
        assert_eq!(
            report.phase("per-step/autocorrelation").unwrap().samples,
            expect
        );

        // Statistics agree between analyses: histogram range equals
        // descriptive-stats extrema.
        let s = (*stats_res.lock()).unwrap();
        if comm.rank() == 0 {
            let h = hist_res.lock().clone().unwrap();
            assert_eq!(h.min, s.min);
            assert_eq!(h.max, s.max);
            assert_eq!(h.counts.iter().sum::<u64>(), s.count);
            let peaks = ac_res.lock().clone().unwrap();
            assert_eq!(peaks.len(), 5, "one peak list per delay");
            assert!(!peaks[0].is_empty());
        }
    });
}

/// Catalyst and Libsim render the same field; both produce valid PNGs
/// on rank 0 through the common SENSEI path.
#[test]
fn both_infrastructures_render_same_run() {
    let d = deck();
    World::run(4, move |comm| {
        let cfg = SimConfig {
            grid: [17, 17, 17],
            steps: 2,
            ..SimConfig::default()
        };
        let root = if comm.rank() == 0 {
            Some(d.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root);
        sim.step(comm);

        let mut pipe = catalyst::SlicePipeline::new("data", 2, 8);
        pipe.width = 64;
        pipe.height = 48;
        let catalyst_analysis = catalyst::CatalystSliceAnalysis::new(pipe);
        let catalyst_png = catalyst_analysis.png_handle();

        let session =
            libsim::Session::parse("image 64 64\nplot pseudocolor data axis=z index=8\n").unwrap();
        let libsim_analysis =
            libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
        let libsim_png = libsim_analysis.png_handle();

        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst_analysis));
        bridge.register(Box::new(libsim_analysis));
        bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        bridge.finalize(comm);

        if comm.rank() == 0 {
            let c = catalyst_png.lock().clone().expect("catalyst png");
            let l = libsim_png.lock().clone().expect("libsim png");
            assert!(render::png::decode_rgb(&c).is_ok());
            assert!(render::png::decode_rgb(&l).is_ok());
        }
    });
}

/// Both renderers read the simulation's field in place: after `execute`
/// no reference to the simulation buffer lingers, and nothing the size
/// of the field was ever allocated (the tracking allocator is installed
/// for this test binary; the images are tiny beside the 64³ field).
#[test]
fn renderers_read_the_simulation_field_in_place() {
    let d = deck();
    World::run(1, move |comm| {
        let cfg = SimConfig {
            grid: [64, 64, 64],
            steps: 1,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, Some(d.as_str()));
        sim.step(comm);
        let field = sim.field();
        let payload = field.len() * 8;
        let holders = std::sync::Arc::strong_count(&field);

        let mut pipe = catalyst::SlicePipeline::new("data", 2, 32);
        (pipe.width, pipe.height) = (48, 32);
        let session = libsim::Session::parse(
            "image 32 32\nplot pseudocolor data axis=z index=32\nplot isosurface data levels=0.9\n",
        )
        .unwrap();
        let analyses: [Box<dyn sensei::AnalysisAdaptor>; 2] = [
            Box::new(catalyst::CatalystSliceAnalysis::new(pipe)),
            Box::new(libsim::LibsimAnalysis::new(
                session,
                std::path::Path::new("/nonexistent"),
            )),
        ];
        for mut analysis in analyses {
            let data = OscillatorAdaptor::new(&sim);
            let before = std::sync::Arc::strong_count(&field);
            probe::alloc::reset_peak();
            let floor = probe::alloc::current_bytes();
            analysis.execute(&data, comm);
            let rise = probe::alloc::peak_bytes() - floor;
            assert!(analysis.take_failures().is_empty());
            assert_eq!(std::sync::Arc::strong_count(&field), before);
            assert!(
                rise < payload / 2,
                "{}: allocated {rise} B against a {payload} B field",
                analysis.name()
            );
        }
        assert_eq!(std::sync::Arc::strong_count(&field), holders);
    });
}

/// A 2-rank world stepping a 64³ oscillator field, with Catalyst and
/// Libsim at the benchmark's image sizes (1920×1080 binary swap,
/// 1024×1024 direct send), one pseudocolor slice each.
fn render_pair(
    comm: &minimpi::Comm,
    deck: &str,
) -> (
    Simulation,
    catalyst::CatalystSliceAnalysis,
    libsim::LibsimAnalysis,
) {
    let cfg = SimConfig {
        grid: [64, 64, 64],
        steps: 4,
        ..SimConfig::default()
    };
    let sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck));
    let catalyst =
        catalyst::CatalystSliceAnalysis::new(catalyst::SlicePipeline::new("data", 2, 32));
    let session =
        libsim::Session::parse("image 1024 1024\nplot pseudocolor data axis=z index=32\n").unwrap();
    let libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
    (sim, catalyst, libsim)
}

/// Catalyst and Libsim draw into the rank's one spare framebuffer, both
/// encoders keep their tables and sliding buffers, and compositing
/// strips circulate: once the first steps have faulted them in, nothing
/// image-sized is allocated beside the frame. Rank 0's high-water mark
/// over a warm step is bounded by what could still be transient there
/// (the bytes of `render::composite`'s and `render::deflate`'s
/// constants, restated):
/// - the strips in flight, two of rank 0's 975 columns × ⌊32 Ki /
///   1920⌋ = 17 rows at 7 B/px (RGB and depth): 232 050 B (they
///   circulate, so a warm step allocates none);
/// - the sliding buffer of the encode, `WINDOW + CHUNK + MAX_MATCH + 3`
///   = 98 565 B (kept by the encoder);
/// - the scanlines rank 0 flattens for the band rank 1 deflates:
///   Catalyst's 6 halo rows of 5 761 B and Libsim's 512 + 11 rows of
///   3 073 B, 1 641 745 B in all (sent, and freed on rank 1).
///
/// That is 1 972 360 B, under 2 MiB; rank 0 rises 1 637 142 B, the
/// scanlines. Until the strips, it rose 4 213 360 B, the 975 × 540
/// pixels of its swap patch at 8 B/px; a fresh 1024² Libsim frame a
/// step (7 340 032 B of pixels) or a fresh 1920×1080 one (14 515 200 B)
/// does not fit either.
#[test]
fn steady_state_render_step_allocates_no_catalyst_frame() {
    let strips = 2 * 7 * 975 * (32 * 1024 / 1920);
    let sliding = 32 * 1024 + 64 * 1024 + 258 + 3;
    let scanlines = 6 * (1 + 3 * 1920) + (512 + 11) * (1 + 3 * 1024);
    let bound = strips + sliding + scanlines;
    assert_eq!(bound, 1_972_360);
    assert!(bound < 2 << 20);
    let d = deck();
    let rises = World::run(2, move |comm| {
        let (mut sim, catalyst, libsim) = render_pair(comm, &d);
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        let mut rise = 0;
        for step in 0..4 {
            sim.step(comm);
            probe::alloc::reset_peak();
            let floor = probe::alloc::current_bytes();
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            if step >= 2 {
                rise = rise.max(probe::alloc::peak_bytes() - floor);
            }
        }
        assert!(bridge.failure_reports().is_empty());
        rise
    });
    assert!(
        rises[0] < bound,
        "rank 0 allocated {} B in a steady-state render step",
        rises[0]
    );

    // A probed pass counts one warm step's messages over both ranks:
    // 137, DESIGN §11's 12 + 62 + 63 (the frames' collectives and
    // scanlines, Catalyst's swap strips beyond the one patch each way,
    // Libsim's strips and their returns beyond its one patch). The
    // step's one colour range is one pair reduction, a reduce and a
    // broadcast: Libsim's frame reuses the range Catalyst's took. 96 are
    // strips, whose bytes are the closed form of
    // `render_step_ships_scanlines_not_gathered_framebuffers`: Catalyst
    // swaps 975 × 540 and 945 × 540 px, Libsim's child lends 504 × 1024,
    // each pixel 7 B (RGB and depth).
    let d = deck();
    let counted = World::run(2, move |comm| {
        comm.attach_probe(probe::enabled());
        let (mut sim, catalyst, libsim) = render_pair(comm, &d);
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        let mut step = [0; 3];
        for _ in 0..3 {
            sim.step(comm);
            let before = sent(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            step = [0, 1, 2].map(|k| sent(comm)[k] - before[k]);
        }
        step
    });
    let total = [0, 1, 2].map(|k| counted[0][k] + counted[1][k]);
    assert_eq!(total[0], 12 + 62 + 63, "minimpi messages a warm step");
    assert_eq!(total[1], 96, "render/composite strips a warm step");
    assert_eq!(total[2], 7 * (975 * 540 + 945 * 540 + 504 * 1024));
}

/// Catalyst and Libsim draw into each rank's one spare framebuffer, a
/// compositing child sends strips of its drawn pixels and keeps its
/// buffer, and the strips circulate: a warm render step allocates no
/// framebuffer and no patch on either rank (a framebuffer would be 2
/// heap calls, colour and depth, and 0.5–1 MB here). Catalyst at
/// 480×270 and Libsim at 256×256 over a 16³ field on two free-running
/// ranks: under the seeded scheduler, its own decision records land on
/// the rank threads in counts that follow the interleaving.
///
/// The bytes are bounded by what a step allocates on purpose: the
/// scanlines a rank flattens for another (one band a file: each stream
/// is under `2 · MIN_BAND`, so rank 0 deflates the whole of both and
/// rank 1 sends its 135 Catalyst rows), and the file, in a `Vec` grown
/// to at most twice its length; 16 KiB covers everything else.
///
/// The heap calls are exact, and listed by site. Before their first
/// pixel, the two analyses make 13 on each rank:
/// - the step's field, 8, derived for Catalyst and shared with Libsim:
///   the field's and the ghost flags' `DataArray::shared` and names (4),
///   the point-data slot (1), the field's name as the step's key (1),
///   `leaf_views`' leaf and view lists (2);
/// - `global_range`, 1, once: the envelope of its pair (rank 1's
///   reduce, rank 0's broadcast); Libsim reuses the range;
/// - `Scene::frame`, 1 a frame: the slice's colormap, cloned into its
///   config;
/// - `extract_plane`, 1 a frame: the plane's values.
///
/// A strip is ⌊32 Ki / 480⌋ = 68 Catalyst rows or 128 Libsim rows, so
/// each swap half (135 rows) and the tree child's image (256 rows)
/// travel as 2 strips, in buffers that circulate: each message is its
/// envelope alone. Beyond the 13, rank 1 makes 6 more, to 19:
/// - Catalyst's swap strips, 2;
/// - Catalyst's scanlines for rank 0's band, 2: the lines, envelope;
/// - Libsim's strips up the tree, 2.
///
/// Rank 0 makes 13 more, to 26, plus each file's growth:
/// - Catalyst's swap strips, 2;
/// - Libsim's strips given back to rank 1, 2;
/// - Catalyst's list of the rows rank 1 sent, 1;
/// - per file, its header `Vec`, 4: 8 B, then 16, 32 and 64 as the
///   signature and `IHDR` go in;
/// - the file `Vec`'s doublings from 64 B to the power of two holding
///   it: 7 for Catalyst's ≈ 5.2 KB, 6 for Libsim's ≈ 3 KB.
///
/// Until the strips, rank 0's swap patch took 3 calls (colour, depth,
/// envelope) and each file's raw scanline stream 1, and rank 1's two
/// patches 3 each.
#[test]
fn steady_state_render_step_allocates_no_framebuffer() {
    const STEPS: usize = 5;
    const WARM_UP: usize = 2;
    const CALLS: [u64; 2] = [26, 19];
    let d = deck();
    let rounds = World::run(2, move |comm| {
        let cfg = SimConfig {
            grid: [16, 16, 16],
            steps: STEPS,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(d.as_str()));
        let mut pipeline = catalyst::SlicePipeline::new("data", 2, 8);
        (pipeline.width, pipeline.height) = (480, 270);
        let catalyst = catalyst::CatalystSliceAnalysis::new(pipeline);
        let session =
            libsim::Session::parse("image 256 256\nplot pseudocolor data axis=z index=8\n")
                .unwrap();
        let libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
        let files = [catalyst.png_handle(), libsim.png_handle()];
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        let mut rounds = Vec::new();
        for _ in 0..STEPS {
            sim.step(comm);
            let data = OscillatorAdaptor::new(&sim);
            probe::alloc::reset_peak();
            let floor = probe::alloc::current_bytes();
            let calls = probe::alloc::allocations();
            bridge.execute(&data, comm);
            let len = |f: &catalyst::pipeline::PngHandle| f.lock().as_ref().map_or(0, Vec::len);
            rounds.push((
                probe::alloc::peak_bytes() - floor,
                probe::alloc::allocations() - calls,
                files.each_ref().map(len),
            ));
        }
        assert!(bridge.failure_reports().is_empty());
        rounds.split_off(WARM_UP)
    });
    // Scanlines are 1 + 3·width bytes: rank 0 pulls both streams through
    // its sliding buffer; rank 1 sends the 135 Catalyst rows it owns.
    let lines = [0, 135 * 1441];
    let growth = |len: usize| u64::from((len.next_power_of_two() / 64).ilog2());
    for (rank, rounds) in rounds.iter().enumerate() {
        for &(rise, calls, [cat, lib]) in rounds {
            let files = if rank == 0 { 2 * (cat + lib) } else { 0 };
            let bound = lines[rank] + files + (16 << 10);
            assert!(
                rise <= bound,
                "rank {rank} allocated {rise} B in a warm render step, over {bound} B"
            );
            let want = CALLS[rank]
                + if rank == 0 {
                    growth(cat) + growth(lib)
                } else {
                    0
                };
            assert_eq!(
                calls, want,
                "rank {rank}: heap calls in a warm render step ({cat} + {lib} B of files)"
            );
        }
    }
}

/// Each rank's collective calls (`minimpi/*` counters but p2p), by
/// name, and rank 0's files, over three Catalyst + Libsim steps of a
/// 9³ grid on two ranks, rank 1 carrying its block's field as `array`.
fn render_with_rank1_array(array: &'static str) -> (Vec<Vec<(String, u64)>>, Vec<String>) {
    use datamodel::{DataArray, DataSet, ImageData};
    let ranks = World::run(2, move |comm| {
        comm.attach_probe(probe::enabled());
        let global = Extent::whole([9, 9, 9]);
        let local = partition_extent(&global, datamodel::dims_create(2), comm.rank());
        let mut pipeline = catalyst::SlicePipeline::new("data", 2, 4);
        (pipeline.width, pipeline.height) = (64, 48);
        let catalyst = catalyst::CatalystSliceAnalysis::new(pipeline);
        let session =
            libsim::Session::parse("image 48 48\nplot pseudocolor data axis=x index=4\n").unwrap();
        let libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
        let files = [catalyst.png_handle(), libsim.png_handle()];
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        for step in 0..3 {
            let mut g = ImageData::new(local, global);
            let name = if comm.rank() == 1 { array } else { "data" };
            let values = local.iter_points().map(|p| (p[0] + 2 * p[1] + p[2]) as f64);
            g.add_point_array(DataArray::owned(name, 1, values.collect()));
            let data = sensei::InMemoryAdaptor::new(DataSet::Image(g), step as f64, step);
            assert!(bridge.execute(&data, comm).should_continue());
        }
        let missing = bridge.failure_reports().len();
        assert_eq!(missing, if array == "data" { 0 } else { 2 * comm.rank() });
        let calls = comm.probe().snapshot().counters.into_iter();
        let calls = calls.filter(|c| c.name.starts_with("minimpi/") && c.name != "minimpi/p2p");
        let files = files.map(|f| format!("{:?}", f.lock().as_ref().map(|png| png.len())));
        (calls.map(|c| (c.name, c.calls)).collect(), files.join(" "))
    });
    ranks.into_iter().unzip()
}

/// A rank whose step lacks the field still joins every collective of a
/// Catalyst + Libsim step: the step's field keeps the miss like a hit,
/// so the colour range it shares is taken once a step on every rank,
/// and the frames finish, each rank making the collectives it makes
/// when every rank has the field.
#[test]
fn a_rank_without_the_field_joins_the_same_collectives() {
    let (present, files) = render_with_rank1_array("data");
    let (missing, missing_files) = render_with_rank1_array("other");
    // One pair reduction a step, the range both frames share; the
    // frames' encode moves point to point.
    let range = vec![
        ("minimpi/bcast".to_string(), 3),
        ("minimpi/reduce".to_string(), 3),
    ];
    assert_eq!(present, [range.clone(), range], "the field on both ranks");
    assert_eq!(missing, present, "rank 1 without the field");
    assert_eq!(files[1], "None None", "rank 0 holds the files");
    assert_eq!(missing_files[1], files[1]);
    assert!(missing_files[0].starts_with("Some(") && missing_files[0].contains(") Some("));
}

/// Heap calls of one warm Libsim step on each of two free-running ranks
/// (16³, a 256² image, a direct-send tree), less the growth of rank 0's
/// file, for a session of `plots`.
fn warm_libsim_calls(plots: &'static str) -> Vec<u64> {
    let d = deck();
    World::run(2, move |comm| {
        let cfg = SimConfig {
            grid: [16, 16, 16],
            steps: 4,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(d.as_str()));
        let session = libsim::Session::parse(&format!("image 256 256\n{plots}")).unwrap();
        let mut libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
        let file = libsim.png_handle();
        let mut calls = 0;
        for _ in 0..4 {
            sim.step(comm);
            let data = OscillatorAdaptor::new(&sim);
            let before = probe::alloc::allocations();
            libsim.execute(&data, comm);
            calls = probe::alloc::allocations() - before;
        }
        let len = file.lock().as_ref().map_or(0, Vec::len);
        let growth = (len.next_power_of_two() / 64).checked_ilog2().unwrap_or(0);
        calls - u64::from(growth)
    })
}

/// A scene's later plot is merged into the frame where it lies, not
/// through a copied patch: a warm Libsim step with a second slice makes
/// exactly the second plot's own heap calls more, on each rank:
/// - its framebuffer, 2 (colour, depth): the frame holds the rank's
///   spare while the plot is drawn;
/// - its colormap, cloned into its config, 1; its plane's values, 1;
/// - its strips up the tree, 2 envelopes on rank 1, and their returns,
///   2 on rank 0.
///
/// Until the merge read the plot in place, rank 0 — whose owned rows
/// are the whole image — also copied them into a patch's colour and
/// depth `Vec`s: 8, not 6.
#[test]
fn a_later_plot_is_merged_in_place() {
    let one = warm_libsim_calls("plot pseudocolor data axis=z index=8\n");
    let two = warm_libsim_calls(
        "plot pseudocolor data axis=z index=8\nplot pseudocolor data axis=x index=8\n",
    );
    assert_eq!([two[0] - one[0], two[1] - one[1]], [6, 6]);
}

/// Counts, not clocks: what a render step puts on the wire at 2 ranks.
/// Compositing patches travel by ownership, cut into strips of
/// `32 Ki / width` whole rows (`render::composite`'s pixel budget):
/// `minimpi/p2p` counts each strip as its header, and
/// `render/composite` counts its pixels at 7 B. The scanlines of the
/// collective encode are byte vectors and count in full. Catalyst: each
/// swap partner sends its 540 rows as ⌈540 / 17⌉ = 32 strips and
/// receives as many, which come back as the buffers of its own, so the
/// swap needs no credit; then nothing image-sized — 6 rows of halo one
/// way, the look-ahead row the other, a landing position, a band's
/// bits. Libsim: rank 1 lends its 1 024 rows up the tree as
/// ⌈1024 / 32⌉ = 32 strips, the root gives each strip's buffer back
/// with its verdict (32 more headers, root to child, each a word
/// longer), then exactly one band of scanlines plus its halo rows from
/// the root, a landing, the bits back.
#[test]
fn render_step_ships_scanlines_not_gathered_framebuffers() {
    use sensei::AnalysisAdaptor;
    let d = deck();
    let sent = World::run(2, move |comm| {
        comm.attach_probe(probe::enabled());
        let counted = |comm: &minimpi::Comm| {
            let snapshot = comm.probe().snapshot();
            let count = |name| {
                let c = snapshot.counters.iter().find(|c| c.name == name);
                c.map_or((0, 0), |c| (c.messages, c.bytes))
            };
            [count("minimpi/p2p"), count("render/composite")]
        };
        let (mut sim, mut catalyst, mut libsim) = render_pair(comm, &d);
        sim.step(comm);
        let data = OscillatorAdaptor::new(&sim);
        let t0 = counted(comm);
        catalyst.execute(&data, comm);
        let t1 = counted(comm);
        libsim.execute(&data, comm);
        let t2 = counted(comm);
        let delta = |a: [(u64, u64); 2], b: [(u64, u64); 2]| {
            [0, 1].map(|k| (b[k].0 - a[k].0, b[k].1 - a[k].1))
        };
        [delta(t0, t1), delta(t1, t2)]
    });
    let vec = std::mem::size_of::<Vec<u8>>() as u64;
    let bits = std::mem::size_of::<(Vec<u8>, u64, u32)>() as u64;
    let landing = std::mem::size_of::<usize>() as u64;
    let strips = |width: u64, rows: u64| rows.div_ceil(32 * 1024 / width);
    let (swap, tree) = (strips(1920, 540), strips(1024, 1024));
    assert_eq!((swap, tree), (32, 32));
    // Libsim's rank 1 sends its strips and its band's bits: the strip
    // header, whatever its size, is the rest, and every strip has it.
    let [libsim_p2p, libsim_patches] = sent[1][1];
    assert_eq!((libsim_p2p.0, libsim_patches.0), (tree + 1, tree));
    let header = (libsim_p2p.1 - bits) / tree;
    assert_eq!(libsim_p2p.1, tree * header + bits);
    assert!(header < 256, "a strip travels as a {header} B header");

    // The 64³ field splits along x at point 32 of 63 cells, and the
    // slice fills every row. Catalyst, 1920×1080: rank 0 draws the
    // pixel columns whose centre lies left of 32·1920/63 = 975.2 (975
    // of them), rank 1 the other 945; each sends the half of the rows
    // it gives away. Libsim, 1024×1024: rank 1 draws from
    // 32·1024/63 = 520.1, 504 columns, and sends all its rows. The
    // bytes are those of whole patches, 7 B a pixel (RGB and depth);
    // only the messages grew.
    assert_eq!(sent[0][0][1], (swap, 7 * 975 * 540));
    assert_eq!(sent[1][0][1], (swap, 7 * 945 * 540));
    assert_eq!(sent[0][1][1], (0, 0));
    assert_eq!(libsim_patches, (tree, 7 * 504 * 1024));

    // Catalyst, 1920×1080: stride 5761, cut at row 540.
    let (stride, halo_rows) = (1 + 3 * 1920, 6);
    assert_eq!(halo_rows, 540 - (540 * stride - 32 * 1024) / stride);
    assert_eq!(
        sent[0][0][0],
        (swap + 2, swap * header + vec + halo_rows * stride + landing)
    );
    assert_eq!(
        sent[1][0][0],
        (swap + 2, swap * header + vec + stride + bits)
    );

    // Libsim, 1024×1024: stride 3073, cut at row 512; what the root
    // gives back is a strip header and a `minimpi::Verdict`, padded to
    // the header's 8-byte alignment.
    let (stride, halo_rows) = (1 + 3 * 1024, 11);
    assert_eq!(halo_rows, 512 - (512 * stride - 32 * 1024) / stride);
    let given_back = (header + std::mem::size_of::<minimpi::Verdict>() as u64).next_multiple_of(8);
    assert_eq!(
        sent[0][1][0],
        (
            tree + 2,
            tree * given_back + vec + (512 + halo_rows) * stride + landing
        )
    );
}

/// The autocorrelation's memory is the paper's two `O(t·N³)` buffers and
/// nothing that grows with the field beside them: no id per cell while
/// it runs, no copy of a `corr` row while it selects the peaks (the
/// tracking allocator is installed for this test binary).
#[test]
fn autocorrelation_holds_two_buffers_and_selects_in_place() {
    let d = deck();
    World::run(2, move |comm| {
        let cfg = SimConfig {
            grid: [64, 64, 64],
            steps: 3,
            ..SimConfig::default()
        };
        let root = (comm.rank() == 0).then_some(d.as_str());
        let mut sim = Simulation::new(comm, cfg, root);
        sim.step(comm);
        // A throwaway first reader: the simulation builds its ghost
        // flags on first demand and keeps them.
        Autocorrelation::new("data", 1, 1).execute(&OscillatorAdaptor::new(&sim), comm);
        let flags = datamodel::duplicate_point_ghosts(&sim.local_extent(), &sim.global_extent());
        let cells = flags.iter().filter(|&&flag| flag == 0).count();
        let (window, k) = (4, 8);
        let buffers = 2 * cells * window * 8;
        drop(flags);

        let floor = probe::alloc::current_bytes();
        let mut ac = Autocorrelation::new("data", window, k);
        let peaks = ac.results_handle();
        ac.execute(&OscillatorAdaptor::new(&sim), comm);
        let live = probe::alloc::current_bytes() - floor;
        assert_eq!(ac.buffer_bytes(), buffers);
        assert!(
            (buffers..=buffers + 4096).contains(&live),
            "rank {}: {live} B live against {buffers} B of buffers",
            comm.rank()
        );
        for _ in 1..3 {
            sim.step(comm);
            ac.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        assert!(ac.take_failures().is_empty());

        probe::alloc::reset_peak();
        let floor = probe::alloc::current_bytes();
        ac.finalize(comm);
        let rise = probe::alloc::peak_bytes() - floor;
        assert!(
            rise < 64 << 10,
            "rank {}: finalize allocated {rise} B over {cells} cells",
            comm.rank()
        );
        if comm.rank() == 0 {
            let peaks = peaks.lock().clone().expect("root holds the peaks");
            assert_eq!(peaks.len(), window);
            assert!(peaks.iter().all(|lag| lag.len() == k));
        }
    });
}

/// One step of a 64³ run on two ranks, marshalled by each: the ghosted
/// two-block deck the in transit tests below ship.
fn two_marshalled_blocks() -> Vec<adios::BpStep> {
    let d = deck();
    World::run(2, move |comm| {
        let cfg = SimConfig {
            grid: [64, 64, 64],
            steps: 1,
            ..SimConfig::default()
        };
        let root = (comm.rank() == 0).then_some(d.as_str());
        let mut sim = Simulation::new(comm, cfg, root);
        sim.step(comm);
        adios::staging::try_adaptor_to_step(&OscillatorAdaptor::new(&sim)).expect("marshals")
    })
}

/// The wire carries each array at its own width: 8 B of `f64` field and
/// 1 B of `u8` ghost flag a point, under a header of closed form.
#[test]
fn oscillator_step_ships_nine_bytes_a_point() {
    for step in two_marshalled_blocks() {
        let points: u64 = step.vars[0].local_dims.iter().product();
        let names = ["data", datamodel::GHOST_ARRAY_NAME];
        assert_eq!(step.vars.iter().map(|v| &v.name).collect::<Vec<_>>(), names);
        // Magic, step, time, attribute count; six geometry attributes
        // (length, name, value); variable count; per variable a length,
        // the name, type code, leaf, nine dims and the element count.
        let attrs = 3 * (4 + "leaf0_spacing_0".len() + 8) + 3 * (4 + "leaf0_origin_0".len() + 8);
        let vars: usize = names.iter().map(|n| 4 + n.len() + 1 + 4 + 9 * 8 + 8).sum();
        let header = (4 + 8 + 8 + 4) + attrs + 4 + vars;
        assert_eq!(header, 381);
        assert_eq!(step.encoded_len(), 9 * points as usize + header);
        let mut frame = Vec::new();
        step.encode_into(&mut frame);
        assert_eq!(frame.len(), step.encoded_len());
    }
}

/// The endpoint stores a decoded payload once: the blocks, the analysis
/// mesh and its arrays all share the buffer `decode` filled, so handing
/// a step to an analysis allocates headers, not fields.
#[test]
fn endpoint_reads_the_decoded_frame_in_place() {
    use adios::bp::Payload;
    use sensei::{Association, DataAdaptor as _};
    let steps: Vec<(usize, adios::BpStep)> = two_marshalled_blocks()
        .iter()
        .map(|step| {
            let mut frame = Vec::new();
            step.encode_into(&mut frame);
            adios::BpStep::decode(&frame).expect("own encoding decodes")
        })
        .enumerate()
        .collect();
    let payload: usize = steps.iter().map(|(_, s)| s.payload_bytes()).sum();
    assert!(payload > 9 * 64 * 64 * 64);

    probe::alloc::reset_peak();
    let floor = probe::alloc::current_bytes();
    let endpoint = adios::staging::round_adaptor(&steps);
    let mut mesh = endpoint.mesh();
    for name in ["data", datamodel::GHOST_ARRAY_NAME] {
        endpoint
            .add_array(&mut mesh, Association::Point, name)
            .expect("shipped array");
    }
    let rise = probe::alloc::peak_bytes() - floor;
    assert!(
        rise < payload / 8,
        "allocated {rise} B against {payload} B of payload"
    );

    let exec = datamodel::current_space();
    for (leaf, (_, step)) in mesh.leaves().zip(&steps) {
        let arrays = leaf.point_data().expect("image leaf");
        let (data, ghosts) = (
            arrays.get("data").unwrap(),
            arrays.get(datamodel::GHOST_ARRAY_NAME).unwrap(),
        );
        assert!(data.is_zero_copy() && ghosts.is_zero_copy());
        let (Payload::F64(sent), Payload::U8(flags)) = (&step.vars[0].data, &step.vars[1].data)
        else {
            panic!("field travels as f64, ghosts as u8");
        };
        assert_eq!(
            data.as_slice_in::<f64>(exec).unwrap().as_ptr(),
            sent.as_ptr()
        );
        assert_eq!(
            ghosts.as_slice_in::<u8>(exec).unwrap().as_ptr(),
            flags.as_ptr()
        );
    }
}

/// No share of a step outlives `Bridge::execute`: the step's field is
/// held by every analysis of the step and dropped before the adaptor's
/// `release_data`. In situ, the oscillator's field buffer is back to
/// its reference count before the call by `release_data`, having been
/// shared during it; in transit, every block a writer lent comes back
/// `Taken` and held by nobody else, so the writer marshals into it
/// again, and a bridged round leaves each adopted block to its step.
#[test]
fn no_share_of_a_step_outlives_bridge_execute() {
    use adios::bp::Payload;
    use adios::staging::{run_endpoint_with_broker, try_adaptor_to_step};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Reads the step's field, and records how many hold the
    /// simulation's buffer while it does.
    struct Holders {
        field: Arc<std::sync::Mutex<std::sync::Weak<Vec<f64>>>>,
        during: Arc<AtomicUsize>,
    }
    impl sensei::AnalysisAdaptor for Holders {
        fn name(&self) -> &str {
            "holders"
        }
        fn execute(
            &mut self,
            data: &dyn sensei::DataAdaptor,
            _comm: &minimpi::Comm,
        ) -> sensei::Steering {
            let field = data.field(sensei::Association::Point, "data");
            assert!(field.views().is_ok_and(|views| views.len() == 1));
            let held = self.field.lock().unwrap().strong_count();
            self.during.store(held, Ordering::SeqCst);
            sensei::Steering::Continue
        }
    }

    /// The oscillator's adaptor, recording how many hold the
    /// simulation's buffer when the bridge releases the step.
    struct CountsAtRelease {
        inner: OscillatorAdaptor,
        field: std::sync::Weak<Vec<f64>>,
        at_release: AtomicUsize,
    }
    impl sensei::DataAdaptor for CountsAtRelease {
        fn time(&self) -> f64 {
            self.inner.time()
        }
        fn step(&self) -> u64 {
            self.inner.step()
        }
        fn mesh(&self) -> datamodel::DataSet {
            self.inner.mesh()
        }
        fn array_names(&self, assoc: sensei::Association) -> Vec<String> {
            self.inner.array_names(assoc)
        }
        fn add_array(
            &self,
            mesh: &mut datamodel::DataSet,
            assoc: sensei::Association,
            name: &str,
        ) -> Result<(), sensei::AdaptorError> {
            self.inner.add_array(mesh, assoc, name)
        }
        fn release_data(&self) {
            let held = self.field.strong_count();
            self.at_release.store(held, Ordering::SeqCst);
        }
    }

    let d = deck();
    World::run(2, move |comm| {
        let cfg = SimConfig {
            grid: [16, 16, 16],
            steps: 3,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(d.as_str()));
        let (current, during) = (Arc::default(), Arc::new(AtomicUsize::new(0)));
        let mut bridge = Bridge::new();
        bridge.register(Box::new(HistogramAnalysis::new("data", 16)));
        bridge.register(Box::new(Autocorrelation::new("data", 2, 2)));
        bridge.register(Box::new(Holders {
            field: Arc::clone(&current),
            during: Arc::clone(&during),
        }));
        for _ in 0..3 {
            sim.step(comm);
            let field = sim.field();
            *current.lock().unwrap() = Arc::downgrade(&field);
            let data = CountsAtRelease {
                inner: OscillatorAdaptor::new(&sim),
                field: Arc::downgrade(&field),
                at_release: AtomicUsize::new(0),
            };
            let before = Arc::strong_count(&field);
            bridge.execute(&data, comm);
            assert_eq!(
                during.load(Ordering::SeqCst),
                before + 1,
                "the step's field"
            );
            let at_release = data.at_release.load(Ordering::SeqCst);
            assert_eq!(at_release, before, "at release_data");
            assert_eq!(Arc::strong_count(&field), before, "after execute");
        }
    });

    let ranks = World::run(2, |world| match pair(world, 1) {
        Role::Writer { sub, mut writer } => {
            let cfg = SimConfig {
                grid: [16, 16, 16],
                steps: 4,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&sub, cfg, Some(&deck()));
            let mut unshared = Vec::new();
            for s in 0..4 {
                writer.advance(world);
                if s > 0 {
                    type Frame = (bool, Vec<u8>, Vec<Payload>);
                    let frame: Frame = world.spare().expect("the step came back");
                    let held = |p: &Payload| match p {
                        Payload::F64(values) => Arc::strong_count(values),
                        Payload::U8(flags) => Arc::strong_count(flags),
                        other => panic!("the oscillator ships f64 and u8, not {other:?}"),
                    };
                    unshared.push(frame.2.iter().all(|p| held(p) == 1));
                    world.keep(frame, 1);
                }
                sim.step(&sub);
                let step = try_adaptor_to_step(&OscillatorAdaptor::new(&sim)).unwrap();
                // A refused step stops the stream: nothing ships after it.
                assert!(
                    writer.write(world, &step) > 0,
                    "step {s} ships: the last was taken"
                );
            }
            writer.close(world);
            unshared
        }
        Role::Endpoint { sub, mut reader } => {
            let analyses: Vec<Box<dyn sensei::AnalysisAdaptor>> = vec![
                Box::new(HistogramAnalysis::new("data", 16)),
                Box::new(Autocorrelation::new("data", 2, 2)),
                Box::new(DescriptiveStats::new("data")),
            ];
            let broker = StagingBroker::new(BrokerConfig::default());
            let (bridge, _) = run_endpoint_with_broker(world, &sub, &mut reader, analyses, &broker);
            assert_eq!(bridge.steps(), 4);
            assert!(bridge.failure_reports().is_empty());
            Vec::new()
        }
    });
    assert_eq!(
        ranks[0], [true; 3],
        "the writer's blocks come back unshared"
    );

    // The endpoint's half alone, with no writer racing its release: once
    // a bridged round and its adaptor are gone, each adopted block is
    // held by its step alone, ready to be given back.
    let steps: Arc<Vec<(usize, adios::BpStep)>> =
        Arc::new(two_marshalled_blocks().into_iter().enumerate().collect());
    World::run(1, move |comm| {
        let mut bridge = Bridge::new();
        bridge.register(Box::new(HistogramAnalysis::new("data", 16)));
        bridge.register(Box::new(DescriptiveStats::new("data")));
        let adaptor = adios::staging::round_adaptor(&steps);
        bridge.execute(&adaptor, comm);
        drop(adaptor);
        for (_, step) in steps.iter() {
            for var in &step.vars {
                let held = match &var.data {
                    Payload::F64(values) => Arc::strong_count(values),
                    Payload::U8(flags) => Arc::strong_count(flags),
                    other => panic!("the oscillator ships f64 and u8, not {other:?}"),
                };
                assert_eq!(held, 1, "{} after the round", var.name);
            }
        }
    });
}

/// This thread's allocation high-water rise, heap calls and messages
/// sent from one `execute` to the next: beside an endpoint's analyses,
/// everything one staging round costs — the steps given back, the next
/// steps' adoption, the analyses.
struct AllocBetweenExecutes {
    rounds: std::sync::Arc<std::sync::Mutex<Vec<(usize, u64, u64)>>>,
    floor: Option<(usize, u64, u64)>,
}

impl sensei::AnalysisAdaptor for AllocBetweenExecutes {
    fn name(&self) -> &str {
        "alloc-between-executes"
    }

    fn execute(
        &mut self,
        _data: &dyn sensei::DataAdaptor,
        comm: &minimpi::Comm,
    ) -> sensei::Steering {
        if let Some((bytes, calls, messages)) = self.floor {
            let rise = probe::alloc::peak_bytes().saturating_sub(bytes);
            let calls = probe::alloc::allocations() - calls;
            let messages = sent(comm)[0] - messages;
            self.rounds.lock().unwrap().push((rise, calls, messages));
        }
        let messages = sent(comm)[0];
        probe::alloc::reset_peak();
        self.floor = Some((
            probe::alloc::current_bytes(),
            probe::alloc::allocations(),
            messages,
        ));
        sensei::Steering::Continue
    }
}

/// The in transit buffers circulate: after two warm-up steps, neither a
/// writer's `execute` (marshal into the blocks the last step came back
/// in, lend) nor an endpoint round (give back, adopt the next blocks,
/// histogram)
/// allocates anything payload-sized. At 64³ over two writers a step is
/// 1.2 MB; a warm step's high-water rise repeats to the byte — 1 310 B a
/// writer `execute`, 528 B an endpoint round — so a fresh block, a
/// copied payload or a copied ghost array, or any other new buffer,
/// breaks it.
///
/// The heap calls are exact, and all of them are metadata. A warm
/// writer `execute` makes 21:
/// - `DataAdaptor::full_mesh` over the oscillator, 8: the array-name
///   list and its two names (3), the field and ghost arrays'
///   `DataArray::shared` (2 each), the point-data slot (1);
/// - `mesh_to_step`, 12: the leaf walk (1), six geometry attribute
///   names (6) and the attribute list growing to hold them (2), the
///   variable list (1), two variable names (2);
/// - `FlexpathWriter::write`, 1: the channel envelope of the step.
///
/// A warm endpoint round makes 78:
/// - `FlexpathReader::begin_step`, 22: the round's step list and the
///   list of writers awaited (2), and per writer (10 each) the metadata
///   `BpStep::adopt` parses into owned values — the attribute and
///   variable lists (2), six attribute names and two variable names (8);
/// - `StagingBroker::publish_step`, 0: it has no subscriber to deliver to;
/// - the round's blocks, 39: the multiblock's block list (1), and per
///   writer (19 each) the leaf ids and leaf variable list (2), six
///   geometry keys built by `format!` (2 each, 12), two
///   `DataArray::shared` arrays (2 each, 4) and the point-data slot (1);
/// - the step's field, 14: the bare multiblock (1), per block the
///   field's and the ghost flags' array clones (name and buffer list, 2
///   each: 8) and the point-data slot (2), the field's name as the
///   step's key (1), `leaf_views`' leaf and view lists (2);
/// - `HistogramAnalysis::execute`, 1: the count vector — its scatter
///   lanes are kept between steps;
/// - `FlexpathReader::end_step`, 2: the channel envelope of each step
///   given back.
#[test]
fn steady_state_staging_step_allocates_no_payload() {
    use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    const WRITER_RISE: usize = 1310;
    const ENDPOINT_RISE: usize = 528;
    const WRITER_CALLS: u64 = 21;
    const ENDPOINT_CALLS: u64 = 78;
    const STEPS: usize = 6;
    const WARM_UP: usize = 2;
    let run = |probed: bool| {
        let d = deck();
        World::run(3, move |world| {
            if probed {
                world.attach_probe(probe::enabled());
            }
            match pair(world, 2) {
                Role::Writer { sub, writer } => {
                    let cfg = SimConfig {
                        grid: [64, 64, 64],
                        steps: STEPS,
                        ..SimConfig::default()
                    };
                    let mut sim =
                        Simulation::new(&sub, cfg, (sub.rank() == 0).then_some(d.as_str()));
                    let mut ship = AdiosWriterAnalysis::new(writer);
                    let mut rounds = Vec::new();
                    for _ in 0..STEPS {
                        sim.step(&sub);
                        let data = OscillatorAdaptor::new(&sim);
                        let messages = sent(world)[0];
                        probe::alloc::reset_peak();
                        let floor = probe::alloc::current_bytes();
                        let calls = probe::alloc::allocations();
                        ship.execute(&data, world);
                        rounds.push((
                            probe::alloc::peak_bytes() - floor,
                            probe::alloc::allocations() - calls,
                            sent(world)[0] - messages,
                        ));
                    }
                    ship.finalize(world);
                    assert!(ship.take_failures().is_empty());
                    rounds.split_off(WARM_UP)
                }
                Role::Endpoint { sub, mut reader } => {
                    let rounds = std::sync::Arc::default();
                    let recorder = AllocBetweenExecutes {
                        rounds: std::sync::Arc::clone(&rounds),
                        floor: None,
                    };
                    let (bridge, _) = run_endpoint_with_broker(
                        world,
                        &sub,
                        &mut reader,
                        vec![
                            Box::new(HistogramAnalysis::new("data", 64)),
                            Box::new(recorder),
                        ],
                        &StagingBroker::new(BrokerConfig::default()),
                    );
                    assert_eq!(bridge.steps(), STEPS as u64);
                    assert!(bridge.failure_reports().is_empty());
                    // The first interval ends at the second execute.
                    let rounds = std::mem::take(&mut *rounds.lock().unwrap());
                    assert_eq!(rounds.len(), STEPS - 1);
                    rounds[WARM_UP - 1..].to_vec()
                }
            }
        })
    };
    for (rank, rounds) in run(false).iter().enumerate() {
        let (who, bytes, calls) = if rank < 2 {
            ("writer", WRITER_RISE, WRITER_CALLS)
        } else {
            ("endpoint", ENDPOINT_RISE, ENDPOINT_CALLS)
        };
        assert!(
            rounds
                .iter()
                .all(|&(rise, n, _)| rise == bytes && n == calls),
            "{who} rank {rank} allocated {rounds:?} (B, heap calls) in steady-state staging \
             steps, expected {bytes} B and {calls} calls a step"
        );
    }
    // A probed pass counts a warm step's messages: each writer lends its
    // step, and the endpoint gives both back — 4 in all.
    let messages: Vec<Vec<u64>> = run(true)
        .iter()
        .map(|rounds| rounds.iter().map(|r| r.2).collect())
        .collect();
    assert_eq!(messages, [vec![1; 4], vec![1; 4], vec![2; 4]]);
}

/// A probed staging run reports its heap calls as the per-step
/// `mem/allocs` counter: one call a writer `execute` and one an endpoint
/// round, each carrying that step's allocations as its messages.
#[test]
fn staging_reports_its_heap_calls_a_step() {
    use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    const STEPS: usize = 3;
    let d = deck();
    let counters = World::run(3, move |world| {
        world.attach_probe(probe::enabled());
        match pair(world, 2) {
            Role::Writer { sub, writer } => {
                let cfg = SimConfig {
                    grid: [16, 16, 16],
                    steps: STEPS,
                    ..SimConfig::default()
                };
                let mut sim = Simulation::new(&sub, cfg, (sub.rank() == 0).then_some(d.as_str()));
                let mut ship = AdiosWriterAnalysis::new(writer);
                for _ in 0..STEPS {
                    sim.step(&sub);
                    ship.execute(&OscillatorAdaptor::new(&sim), world);
                }
                ship.finalize(world);
            }
            Role::Endpoint { sub, mut reader } => {
                let broker = StagingBroker::new(BrokerConfig::default());
                run_endpoint_with_broker(world, &sub, &mut reader, Vec::new(), &broker);
            }
        }
        let snapshot = world.probe().snapshot();
        let allocs = snapshot.counters.iter().find(|c| c.name == "mem/allocs");
        allocs.map(|c| (c.calls, c.messages))
    });
    for (rank, counter) in counters.into_iter().enumerate() {
        let (calls, allocs) = counter.expect("a mem/allocs counter on every rank");
        assert_eq!(calls, STEPS as u64, "rank {rank}: one call a step");
        assert!(
            allocs >= calls,
            "rank {rank}: {allocs} heap calls in {calls} steps"
        );
    }
}

/// Regression: Libsim and GLEAN used `attrs.get(array)?` *inside* their
/// leaf loops, so a multiblock whose first leaf lacks the array rendered
/// and aggregated nothing. The shared leaf view skips such leaves.
#[test]
fn first_leaf_without_the_array_is_skipped_not_fatal() {
    use datamodel::{DataArray, DataSet, ImageData, MultiBlock};
    use sensei::DataAdaptor as _;
    let dir = std::env::temp_dir().join(format!("glean_skip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.clone();
    World::run(1, move |comm| {
        let global = Extent::whole([9, 9, 9]);
        let mut bare = ImageData::new(Extent::new([0, 0, 0], [4, 8, 8]), global);
        bare.add_point_array(DataArray::owned("other", 1, vec![0.0f64; 5 * 81]));
        let local = Extent::new([4, 0, 0], [8, 8, 8]);
        let mut full = ImageData::new(local, global);
        let vals: Vec<f64> = local.iter_points().map(|p| (p[0] + p[1]) as f64).collect();
        full.add_point_array(DataArray::owned("data", 1, vals));
        let mut mb = MultiBlock::new();
        mb.push(DataSet::Image(bare));
        mb.push(DataSet::Image(full));
        let data = sensei::InMemoryAdaptor::new(DataSet::Multi(mb), 0.0, 0);

        let session =
            libsim::Session::parse("image 32 32\nplot pseudocolor data axis=z index=4\n").unwrap();
        let mut render = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
        render.execute(&data, comm);
        let png = render.png_handle().lock().clone().expect("png");
        let (_, _, rgb) = render::png::decode_rgb(&png).unwrap();
        assert!(rgb.chunks(3).any(|p| p != [0, 0, 0]), "second leaf painted");

        let mut writer = glean::GleanWriter::new(glean::Topology::new(1), "data", out.clone());
        writer.execute(&data, comm);
        writer.finalize(comm);
        assert!(render.take_failures().is_empty() && writer.take_failures().is_empty());
    });
    let steps = adios::BpFile::read_all(&glean::GleanWriter::file_path(&dir, 0)).unwrap();
    let steps: Vec<_> = steps.into_iter().map(|s| (0, s)).collect();
    let mesh = adios::staging::round_adaptor(&steps).full_mesh();
    let blocks: Vec<_> = mesh.leaves().filter_map(|l| l.structured()).collect();
    assert_eq!(blocks.len(), 1, "the second leaf's block");
    assert_eq!(blocks[0].extent, Extent::new([4, 0, 0], [8, 8, 8]));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write-once-use-everywhere: the same config text selects analyses
/// that then run against the miniapp adaptor unchanged.
#[test]
fn config_driven_analysis_selection() {
    let d = deck();
    World::run(2, move |comm| {
        let cfg_text = "[histogram]\narray = data\nbins = 16\n\n[descriptive-stats]\narray = data\n\n[catalyst-slice]\n";
        let cfg = sensei::config::Config::parse(cfg_text).unwrap();
        let (analyses, unknown) = match sensei::config::build_builtin_analyses(&cfg) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(unknown, vec!["catalyst-slice".to_string()]);
        let mut bridge = Bridge::new();
        for a in analyses {
            bridge.register(a);
        }
        assert_eq!(bridge.num_analyses(), 2);

        let sim_cfg = SimConfig {
            grid: [9, 9, 9],
            steps: 1,
            ..SimConfig::default()
        };
        let root = if comm.rank() == 0 {
            Some(d.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, sim_cfg, root);
        sim.step(comm);
        bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        bridge.finalize(comm);
    });
}

/// The in situ / in transit / post hoc triple point: the histogram of
/// the same field computed three ways is identical.
#[test]
fn three_paths_one_histogram() {
    use adios::staging::{run_endpoint_with_broker, try_adaptor_to_step};
    use adios::{pair, BrokerConfig, Role, StagingBroker};

    let grid = 13usize;
    let make_field = move |comm: &minimpi::Comm, ranks: usize| {
        let global = Extent::whole([grid, grid, grid]);
        let local = partition_extent(&global, [ranks, 1, 1], comm.rank());
        let mut g = datamodel::ImageData::new(local, global);
        g.add_point_array(datamodel::DataArray::owned(
            "data",
            1,
            local
                .iter_points()
                .map(|p| (p[0] * p[1] + p[2]) as f64)
                .collect(),
        ));
        (local, global, g)
    };

    // Path 1: in situ on 2 ranks.
    let insitu = World::run(2, move |comm| {
        let (_, _, g) = make_field(comm, 2);
        let adaptor = sensei::InMemoryAdaptor::new(datamodel::DataSet::Image(g), 0.0, 0);
        let mut h = HistogramAnalysis::new("data", 8);
        let res = h.results_handle();
        h.execute(&adaptor, comm);
        if comm.rank() == 0 {
            let out = res.lock().clone();
            out
        } else {
            None
        }
    })
    .remove(0)
    .expect("in situ histogram");

    // Path 2: in transit (2 writers + 1 endpoint).
    let intransit = World::run(3, move |world| match pair(world, 2) {
        Role::Writer { sub, mut writer } => {
            let (_, _, g) = make_field(&sub, 2);
            let adaptor = sensei::InMemoryAdaptor::new(datamodel::DataSet::Image(g), 0.0, 0);
            writer.advance(world);
            writer.write(
                world,
                &try_adaptor_to_step(&adaptor).expect("host-resident data marshals"),
            );
            writer.close(world);
            None
        }
        Role::Endpoint { sub, mut reader } => {
            let h = HistogramAnalysis::new("data", 8);
            let res = h.results_handle();
            run_endpoint_with_broker(
                world,
                &sub,
                &mut reader,
                vec![Box::new(h)],
                &StagingBroker::new(BrokerConfig::default()),
            );
            let out = res.lock().clone();
            out
        }
    })
    .into_iter()
    .flatten()
    .next()
    .expect("in transit histogram");

    // Path 3: post hoc — write pieces, read back with one reader.
    let dir = std::env::temp_dir().join(format!("threepaths_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_w = dir.clone();
    World::run(2, move |comm| {
        let (_, _, g) = make_field(comm, 2);
        let adaptor = sensei::InMemoryAdaptor::new(datamodel::DataSet::Image(g), 0.0, 0);
        let piece = try_adaptor_to_step(&adaptor).expect("host-resident data marshals");
        adios::BpFile::append(&iosim::piece_path(&dir_w, 0, comm.rank()), &piece).unwrap();
        comm.barrier();
    });
    let dir_r = dir.clone();
    let posthoc = World::run(1, move |comm| {
        let h = HistogramAnalysis::new("data", 8);
        let res = h.results_handle();
        let (_, run, _) = iosim::posthoc_analysis(comm, &dir_r, 1, 2, vec![Box::new(h)], None);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        let out = res.lock().clone();
        out.expect("post hoc histogram")
    })
    .remove(0);
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(insitu.counts, intransit.counts, "in situ == in transit");
    assert_eq!(insitu.counts, posthoc.counts, "in situ == post hoc");
    assert_eq!(insitu.min, posthoc.min);
    assert_eq!(insitu.max, intransit.max);
}

/// GLEAN as a fourth infrastructure: aggregate the miniapp's field and
/// verify the aggregators' files hold every rank's block.
#[test]
fn glean_aggregation_end_to_end() {
    let d = deck();
    let dir = std::env::temp_dir().join(format!("glean_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir2 = dir.clone();
    World::run(4, move |comm| {
        let cfg = SimConfig {
            grid: [9, 9, 9],
            steps: 2,
            ..SimConfig::default()
        };
        let root = if comm.rank() == 0 {
            Some(d.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root);
        let mut bridge = Bridge::new();
        bridge.register(Box::new(glean::GleanWriter::new(
            glean::Topology::new(2),
            "data",
            dir2.clone(),
        )));
        for _ in 0..2 {
            sim.step(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        bridge.finalize(comm);
    });
    let read = |agg| adios::BpFile::read_all(&glean::GleanWriter::file_path(&dir, agg)).unwrap();
    let (f0, f2) = (read(0), read(2));
    let steps: Vec<u64> = f0.iter().map(|s| s.step).collect();
    assert_eq!(steps, [1, 1, 2, 2], "two steps of two members aggregated");
    let step1 = f0[..2].iter().chain(&f2[..2]);
    let lo: Vec<[u64; 3]> = step1.map(|s| s.var("data").unwrap().offset).collect();
    let dims = datamodel::dims_create(4);
    let expect: Vec<[u64; 3]> = (0..4)
        .map(|r| {
            partition_extent(&Extent::whole([9, 9, 9]), dims, r)
                .lo
                .map(|x| x as u64)
        })
        .collect();
    assert_eq!(lo, expect, "all four ranks' blocks present, in rank order");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The science proxies all drive the same bridge API.
#[test]
fn science_proxies_through_one_bridge_api() {
    World::run(2, |comm| {
        // Leslie.
        let mut leslie = science::Leslie::new(
            comm,
            science::LeslieConfig {
                grid: [12, 13, 4],
                ..science::LeslieConfig::default()
            },
        );
        leslie.step(comm);
        let mut bridge = Bridge::new();
        let stats = DescriptiveStats::new("vorticity");
        let res = stats.results_handle();
        bridge.register(Box::new(stats));
        bridge.execute(&science::LeslieAdaptor::new(&leslie), comm);
        bridge.finalize(comm);
        assert!((*res.lock()).unwrap().count > 0);

        // Nyx.
        let mut nyx = science::Nyx::new(
            comm,
            science::NyxConfig {
                grid: [8, 8, 8],
                ..science::NyxConfig::default()
            },
        );
        nyx.step(comm);
        let mut bridge = Bridge::new();
        let h = HistogramAnalysis::new("density", 8);
        let res = h.results_handle();
        bridge.register(Box::new(h));
        bridge.execute(&science::NyxAdaptor::new(&nyx), comm);
        bridge.finalize(comm);
        if comm.rank() == 0 {
            assert_eq!(
                res.lock().clone().unwrap().counts.iter().sum::<u64>(),
                8 * 8 * 8
            );
        }

        // PHASTA (stats over velocity magnitude on the unstructured mesh).
        let mut phasta = science::Phasta::new(
            comm,
            science::PhastaConfig {
                lattice: [9, 7, 7],
                ..science::PhastaConfig::default()
            },
        );
        phasta.step(comm);
        let mut bridge = Bridge::new();
        let stats = DescriptiveStats::new("velmag");
        let res = stats.results_handle();
        bridge.register(Box::new(stats));
        bridge.execute(&science::PhastaAdaptor::new(&phasta), comm);
        bridge.finalize(comm);
        let s = (*res.lock()).unwrap();
        assert!(s.count > 0);
        assert!(s.max > 0.0, "flow is moving");
    });
}

/// A warm `stats-insitu` step (histogram of 64 bins, autocorrelation of
/// window 4, top 8) at 32³ on two ranks under the seeded scheduler
/// allocates nothing field-sized, and its heap calls are exact, listed
/// by site, and the same on every warm step.
///
/// Called directly, each analysis derives the step's field, 8 calls:
/// - the populated mesh, 5: the field's `DataArray::shared` and its name
///   (2), the point-data slot (1), the ghost flags' `DataArray::shared`
///   and its name (2);
/// - the field's name, kept with it (1);
/// - `leaf_views`' leaf and view lists (2).
///
/// The histogram makes 3 more on rank 1, to 11, and 5 on rank 0, to 13:
/// - the count vector (1);
/// - the `(min, max)` pair reduction's envelope (1: rank 1's reduce,
///   rank 0's broadcast);
/// - the bin reduction: rank 1's reduce envelope (1), or rank 0's
///   reduced vector, the copy it broadcasts and its envelope (3).
///
/// The autocorrelation makes none beyond the field's 8: it walks the
/// step's kept runs against the captured table entry by entry, and
/// finds each delay's past slot as it goes.
///
/// Through a bridge the two share the step's one field: the histogram,
/// first to read it, makes the same 13 / 11, and the autocorrelation
/// none.
#[test]
fn steady_state_stats_step_heap_calls() {
    use minimpi::{SchedPolicy, WorldBuilder};
    use std::sync::{Arc, Mutex};
    const STEPS: usize = 6;
    const WARM_UP: usize = 2;
    const BOUND: usize = 16 << 10;
    // Per rank: histogram and autocorrelation called directly, then
    // through a bridge.
    const CALLS: [[[u64; 2]; 2]; 2] = [[[13, 8], [13, 0]], [[11, 8], [11, 0]]];

    /// Each `execute`'s allocation rise and heap calls.
    type Rounds = Arc<Mutex<Vec<(usize, u64)>>>;

    /// An analysis that records its rounds.
    struct Counted {
        inner: Box<dyn sensei::AnalysisAdaptor>,
        rounds: Rounds,
    }
    impl sensei::AnalysisAdaptor for Counted {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn execute(
            &mut self,
            data: &dyn sensei::DataAdaptor,
            comm: &minimpi::Comm,
        ) -> sensei::Steering {
            probe::alloc::reset_peak();
            let floor = probe::alloc::current_bytes();
            let calls = probe::alloc::allocations();
            let verdict = self.inner.execute(data, comm);
            let round = (
                probe::alloc::peak_bytes() - floor,
                probe::alloc::allocations() - calls,
            );
            self.rounds.lock().unwrap().push(round);
            verdict
        }
        fn take_failures(&mut self) -> Vec<String> {
            self.inner.take_failures()
        }
    }

    let d = deck();
    let rounds = WorldBuilder::new(2)
        .sched(SchedPolicy::Seeded(2016))
        .run(move |comm| {
            let cfg = SimConfig {
                grid: [32, 32, 32],
                steps: STEPS,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(d.as_str()));
            let rounds: [Rounds; 4] =
                std::array::from_fn(|_| Arc::new(Mutex::new(Vec::with_capacity(STEPS))));
            let counted = |k: usize| Counted {
                inner: if k.is_multiple_of(2) {
                    Box::new(HistogramAnalysis::new("data", 64))
                } else {
                    Box::new(Autocorrelation::new("data", 4, 8))
                },
                rounds: Arc::clone(&rounds[k]),
            };
            let mut direct = [counted(0), counted(1)];
            let mut bridge = Bridge::new();
            bridge.register(Box::new(counted(2)));
            bridge.register(Box::new(counted(3)));
            for _ in 0..STEPS {
                sim.step(comm);
                let data = OscillatorAdaptor::new(&sim);
                for analysis in &mut direct {
                    assert!(analysis.execute(&data, comm).should_continue());
                }
                assert!(bridge.execute(&data, comm).should_continue());
            }
            for analysis in &mut direct {
                assert!(analysis.take_failures().is_empty());
            }
            assert!(bridge.failure_reports().is_empty());
            rounds.map(|r| r.lock().unwrap().split_off(WARM_UP))
        });
    for (rank, rounds) in rounds.iter().enumerate() {
        for (pass, want) in ["direct", "bridge"].into_iter().zip(CALLS[rank]) {
            let analyses = &rounds[if pass == "direct" { 0..2 } else { 2..4 }];
            assert!(analyses.iter().all(|a| a.len() == STEPS - WARM_UP));
            for (&histogram, &autocorrelation) in analyses[0].iter().zip(&analyses[1]) {
                let round = [histogram, autocorrelation];
                assert!(
                    round.iter().all(|&(rise, _)| rise < BOUND),
                    "rank {rank} allocated {round:?} (B, heap calls) in a warm {pass} stats step"
                );
                assert_eq!(
                    round.map(|(_, calls)| calls),
                    want,
                    "rank {rank}, {pass}: heap calls of the histogram and the autocorrelation"
                );
            }
        }
    }
}
