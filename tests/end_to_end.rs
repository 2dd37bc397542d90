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
/// of the field (2 MB at 64³) was ever allocated (the tracking allocator
/// is installed for this test binary).
///
/// Each renderer's first `execute` rises exactly, site by site. Both
/// first derive the step's field alone, 1 184 B: neither asks for the
/// ghost flags, and at one rank the block has none anyway. (While every
/// field attached the flags, the first reader built 262 144 B of zero
/// flags here, and each held their array too.) Catalyst then peaks once
/// its file is written:
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
/// peaks while the isosurface collects its triangles: its second frame, 32 × 32 px at 7 B, the
/// isosurface's level and colormap (3 stops), and the triangle list at
/// its last doubling, 72 B a triangle: the one term the field's values
/// set, 2^13 triangles for this deck's 64³ field at level 0.9.
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
        let catalyst = catalyst::CatalystSliceAnalysis::new(pipe);
        let file = catalyst.png_handle();
        let session = libsim::Session::parse(
            "image 32 32\nplot pseudocolor data axis=z index=32\nplot isosurface data levels=0.9\n",
        )
        .unwrap();
        let analyses: [Box<dyn sensei::AnalysisAdaptor>; 2] = [
            Box::new(catalyst),
            Box::new(libsim::LibsimAnalysis::new(
                session,
                std::path::Path::new("/nonexistent"),
            )),
        ];
        let mut rises = Vec::new();
        for mut analysis in analyses {
            let data = OscillatorAdaptor::new(&sim);
            let before = std::sync::Arc::strong_count(&field);
            probe::alloc::reset_peak();
            let floor = probe::alloc::current_bytes();
            analysis.execute(&data, comm);
            rises.push(probe::alloc::rise_since(floor));
            assert!(analysis.take_failures().is_empty());
            assert_eq!(std::sync::Arc::strong_count(&field), before);
        }
        assert_eq!(std::sync::Arc::strong_count(&field), holders);

        let derived = 1_184;
        let encoder = 2 * 131_072 + 98_565 + (1 + 3 * 48);
        let png = file.lock().as_ref().map_or(0, Vec::len).next_power_of_two();
        let kept = |t: usize| size_of::<Vec<u8>>() + 4 * t;
        let plane = 63 * 63 * 3 + 2 * 63 * size_of::<std::ops::Range<usize>>();
        let pool = 4 * size_of::<Box<dyn std::any::Any + Send>>()
            + kept(120)
            + kept(128)
            + kept(size_of::<render::Framebuffer>());
        let catalyst = derived + 48 * 32 * 7 + encoder + png + plane + pool;
        assert_eq!(rises[0], catalyst, "Catalyst against a {payload} B field");
        let level = size_of::<f64>() + 3 * size_of::<(f64, render::Color)>();
        let triangle = size_of::<[render::raster::Vertex; 3]>();
        assert_eq!(triangle, 72);
        let libsim = derived + 32 * 32 * 7 + level + (1 << 13) * triangle;
        assert_eq!(rises[1], libsim, "Libsim against a {payload} B field");
    });
}

/// A one-shot encode holds its chain tables, its raw stream and a
/// sliding buffer no larger than that stream, beside the file: at 16×16
/// the stream is 784 B, where the sliding buffer was 98 565 B whatever
/// the stream (the rise read 362 517 B, not 264 736). The file grows from its 8 B signature to 64 B as the
/// header goes in, and doubles as the parse writes into it; the peak is
/// at the parse's end, before the Adler-32, the IDAT CRC and the IEND
/// chunk go in.
#[test]
fn a_one_shot_encode_reserves_what_its_stream_fills() {
    use render::deflate::Mode;
    let rgb: Vec<u8> = (0..16 * 16)
        .flat_map(|p| [(p % 16 * 16) as u8, (p / 16 * 16) as u8, 60])
        .collect();
    let once = || {
        probe::alloc::reset_peak();
        let floor = probe::alloc::current_bytes();
        let png = render::png::encode_rgb(16, 16, &rgb, Mode::Fixed);
        (png, probe::alloc::rise_since(floor))
    };
    let (png, rise) = once();
    assert_eq!(
        render::png::decode_rgb(&png).unwrap(),
        (16, 16, rgb.clone())
    );
    let raw = 16 * (1 + 3 * 16);
    let tables = 2 * 131_072;
    // The file's capacity when the parse ends.
    let during = (png.len() - 4 - 4 - 12).next_power_of_two().max(64);
    assert_eq!(raw, 784);
    assert_eq!(rise, during + raw + tables + raw);
    assert_eq!(once(), (png, rise), "the same bytes, the same rise");
}

/// A 2-rank world stepping a `grid`³ oscillator field, with Catalyst
/// and Libsim at the benchmark's image sizes (1920×1080 binary swap,
/// 1024×1024 direct send), one pseudocolor slice each, through the
/// mid-plane z = `grid / 2`.
fn render_pair(
    comm: &minimpi::Comm,
    deck: &str,
    grid: usize,
) -> (
    Simulation,
    catalyst::CatalystSliceAnalysis,
    libsim::LibsimAnalysis,
) {
    let cfg = SimConfig {
        grid: [grid; 3],
        steps: 4,
        ..SimConfig::default()
    };
    let sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck));
    let plane = grid / 2;
    let pipeline = catalyst::SlicePipeline::new("data", 2, plane as i64);
    let catalyst = catalyst::CatalystSliceAnalysis::new(pipeline);
    let session = format!("image 1024 1024\nplot pseudocolor data axis=z index={plane}\n");
    let session = libsim::Session::parse(&session).unwrap();
    let libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
    (sim, catalyst, libsim)
}

/// Catalyst and Libsim draw into the rank's one spare framebuffer, both
/// encoders keep their tables and sliding buffers, and compositing
/// strips circulate: once the first steps have faulted them in, nothing
/// image-sized is allocated beside the frame, and the frame holds only
/// the rows the rank keeps.
///
/// The frame each rank parks after a warm step is `width × kept rows ×
/// 7` B (RGB and depth), what `perfmodel::memory::slice_render_heap`
/// charges: rank 0 keeps Libsim's whole 1024² image as the tree's root,
/// 7 340 032 B, and Catalyst's 540 rows of 1920 are drawn into that
/// memory; rank 1 keeps Catalyst's 540 rows, 7 257 600 B, and as
/// Libsim's leaf no rows at all. Until a frame held only its rows,
/// each rank kept a whole 1920×1080 frame, 14 515 200 B.
///
/// Each rank's high-water mark over a warm step is exact, site by site
/// (the heap bytes a thread frees count against it, so a buffer sent
/// and freed by the peer stays on the sender's count, and one received
/// comes off the receiver's). Both ranks first derive the step's field
/// (1 184 B left allocated: 36 B less, the ghost flags' name and buffer
/// list, than while every field attached them) and take the colour range, whose envelopes
/// (16 B each way) cancel. Rank 1 peaks in Catalyst's encode, when the
/// bits of the band it deflates grow to their last power of two, `B`:
/// 1 184 + the look-ahead row it sends rank 0 (5 761) + the list of the
/// 6 rows rank 0 sent it (160) − rank 0's landing it frees (8) + the
/// envelope of its bits (40) + `B`. Rank 0 peaks in Libsim's encode,
/// when its file grows to its last power of two, `L`:
/// - 1 184, the step's field;
/// - Catalyst: its 6 halo rows for rank 1's band (34 566, freed there),
///   less the look-ahead row it frees (5 761), its landing out and rank
///   1's band envelope in (8 − 40), and rank 1's band bits (`B`);
///   the envelopes of the two rows sent cancel, and so do the files;
/// - Libsim: its 32 strips come in 128 B envelopes and go back in 136 B
///   ones with their verdict (32 × 8), then 523 rows for rank 1's band
///   (1 607 179) in a 24 B envelope, its landing and rank 1's band
///   envelope (8 − 40), and `L`.
///
/// Until the strips, rank 0 rose 4 213 360 B, the 975 × 540 pixels of
/// its swap patch at 8 B/px.
#[test]
fn steady_state_render_step_allocates_no_catalyst_frame() {
    let d = deck();
    let ranks = World::run(2, move |comm| {
        let (mut sim, catalyst, libsim) = render_pair(comm, &d, 64);
        let file = libsim.png_handle();
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        let mut warm = Vec::new();
        for step in 0..4 {
            sim.step(comm);
            probe::alloc::reset_peak();
            let floor = probe::alloc::current_bytes();
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            let len = file.lock().as_ref().map_or(0, Vec::len);
            if step >= 2 {
                warm.push((probe::alloc::rise_since(floor), len));
            }
        }
        assert!(bridge.failure_reports().is_empty());
        // The frame parked in the rank's pool: its colour and depth,
        // which dropping it frees. Rank 1 frees rank 0's Libsim
        // scanlines every step, so by now its count is below its frame
        // and the drop takes it below zero: still by exactly the frame.
        let frame = comm.spare::<render::Framebuffer>();
        let bytes = frame
            .as_ref()
            .map_or(0, |fb| size_of_val(fb.color()) + size_of_val(fb.depth()));
        let held = probe::alloc::current_bytes();
        drop(frame);
        assert_eq!(held - probe::alloc::current_bytes(), bytes as isize);
        assert!(comm.rank() == 0 || probe::alloc::current_bytes() < 0);
        (warm, bytes)
    });
    let frames = [ranks[0].1, ranks[1].1];
    assert_eq!(frames, [1024 * 1024 * 7, 1920 * 540 * 7]);
    assert_eq!(frames, [7_340_032, 7_257_600]);
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
    let frames_f = frames.map(|b| b as f64);
    assert_eq!(charged(1024, 1024, tree), frames_f[0] + 2.0 * encoder(1024));
    assert_eq!(
        charged(1920, 1080, swap),
        2.0 * (frames_f[1] + encoder(1920))
    );

    let (field, halo, row): (i64, i64, i64) = (1_184, 6 * (1 + 3 * 1920), 1 + 3 * 1920);
    let (landing, band) = (8, std::mem::size_of::<(Vec<u8>, u64, u32)>() as i64);
    let libsim_rows = (512 + 11) * (1 + 3 * 1024);
    assert_eq!((halo, libsim_rows, band), (34_566, 1_607_179, 40));
    for (&(rise0, len), &(rise1, _)) in ranks[0].0.iter().zip(&ranks[1].0) {
        let bits = rise1 as i64 - (field + row + 160 - landing + band);
        assert!(bits > 0 && bits.count_ones() == 1, "rank 1 rose {rise1} B");
        let file = len.next_power_of_two() as i64;
        let catalyst = halo - row + landing - band - bits;
        let libsim = 32 * 8 + libsim_rows + 24 + landing - band + file;
        assert_eq!(
            rise0 as i64,
            field + catalyst + libsim,
            "rank 0's warm rise (rank 1's band bits {bits} B, Libsim's file {len} B)"
        );
    }

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
        let (mut sim, catalyst, libsim) = render_pair(comm, &d, 64);
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
/// before the strips go out. (While the strips were drawn from a copy
/// of the plane's values, the copy (1 024) and the colormap (80) were
/// held until they had gone out, and rank 1 rose 1 104 B more.)
///
/// The heap calls are exact, and listed by site. Before their first
/// pixel, the two analyses make 9 on each rank:
/// - the step's field, 6, derived for Catalyst and shared with Libsim:
///   the field's `DataArray::shared` and its name (2), the point-data
///   slot (1), the field's name as the step's key (1), `leaf_views`'
///   leaf and view lists (2). Neither renderer reads the ghost flags, so
///   they are neither attached nor built (while every field attached
///   them, it was 8 calls and 1 220 B, and rank 1 built its flags);
/// - `global_range`, 1, once: the envelope of its pair (rank 1's
///   reduce, rank 0's broadcast); Libsim reuses the range;
/// - `Scene::frame`, 1 a frame: the slice's colormap, cloned into its
///   config. The slice is coloured from the field in place, into the
///   tables the rank's pool keeps (while `extract_plane` copied each
///   frame's plane values first, 1 more a frame: 24 / 17 calls).
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
///
/// Until the strips, rank 0's swap patch took 3 calls (colour, depth,
/// envelope) and each file's raw scanline stream 1, and rank 1's two
/// patches 3 each.
#[test]
fn steady_state_render_step_allocates_no_framebuffer() {
    const STEPS: usize = 5;
    const WARM_UP: usize = 2;
    const CALLS: [u64; 2] = [22, 15];
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
                probe::alloc::rise_since(floor),
                probe::alloc::allocations() - calls,
                files.each_ref().map(len),
            ));
        }
        assert!(bridge.failure_reports().is_empty());
        rounds.split_off(WARM_UP)
    });
    let field = 1_184;
    let lines = 135 * (1 + 3 * 480);
    let growth = |len: usize| u64::from((len.next_power_of_two() / 64).ilog2());
    for (rank, rounds) in rounds.iter().enumerate() {
        for &(rise, calls, [cat, lib]) in rounds {
            let want = if rank == 0 {
                field - 24 + 160 + cat.next_power_of_two()
            } else {
                field + lines + 24 + 2 * 128
            };
            assert_eq!(
                rise, want,
                "rank {rank}: bytes in a warm render step ({cat} + {lib} B of files)"
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
/// - on rank 0, the tree's root, its framebuffer, 2 (colour, depth):
///   the frame holds the rank's spare while the plot is drawn; rank 1,
///   a leaf, keeps no rows and takes none, and draws the plot's strips
///   into the strip buffer its first plot left in its pool;
/// - its colormap, cloned into its config, 1; its cells are coloured
///   straight from the field into the tables the first plot left in the
///   rank's pool (while its plane's values were copied out first, 1
///   more);
/// - its strips up the tree, 2 envelopes on rank 1, and their returns,
///   2 on rank 0.
///
/// Until the merge read the plot in place, rank 0 — whose owned rows
/// are the whole image — also copied them into a patch's colour and
/// depth `Vec`s: 8, not 6. Until a leaf drew its strips as it sent
/// them, rank 1 took a whole frame for the plot too: 6, not 4.
#[test]
fn a_later_plot_is_merged_in_place() {
    let one = warm_libsim_calls("plot pseudocolor data axis=z index=8\n");
    let two = warm_libsim_calls(
        "plot pseudocolor data axis=z index=8\nplot pseudocolor data axis=x index=8\n",
    );
    assert_eq!([two[0] - one[0], two[1] - one[1]], [5, 3]);
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
        let (mut sim, mut catalyst, mut libsim) = render_pair(comm, &d, 64);
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

/// Counts, not clocks: how far each junction of the collective encoder
/// re-parses before it meets the speculative parse, at the benchmark's
/// image sizes and `render-insitu`'s shape (2 ranks, 128³, z = 64). At
/// 2 ranks each file is two bands, so rank 1 settles one junction a
/// file: Catalyst's at row 540 of 1920, Libsim's at row 512 of 1024.
/// `render/junction` counts them (calls), the tokens re-parsed
/// (messages) and the stream bytes those cover (bytes). Over the first
/// two steps each re-parse meets within 11–48 tokens and 2 264–12 225 B,
/// inside `JOIN_SPAN` (64 KiB, the stretch past the cut whose token
/// starts the speculative parse logs): a junction that had not met
/// inside it would re-parse the rest of its band, 3.1 or 1.6 MB.
#[test]
fn render_junctions_meet_inside_the_join_span() {
    const JOIN_SPAN: u64 = 64 * 1024;
    const STEPS: usize = 2;
    let d = deck();
    let ranks = World::run(2, move |comm| {
        use sensei::AnalysisAdaptor;
        comm.attach_probe(probe::enabled());
        let (mut sim, mut catalyst, mut libsim) = render_pair(comm, &d, 128);
        let junctions = || {
            let snapshot = comm.probe().snapshot();
            let c = snapshot
                .counters
                .iter()
                .find(|c| c.name == "render/junction");
            c.map_or([0; 3], |c| [c.calls, c.messages, c.bytes])
        };
        let mut files = Vec::new();
        for _ in 0..STEPS {
            sim.step(comm);
            let data = OscillatorAdaptor::new(&sim);
            let analyses: [&mut dyn AnalysisAdaptor; 2] = [&mut catalyst, &mut libsim];
            for analysis in analyses {
                let before = junctions();
                analysis.execute(&data, comm);
                let after = junctions();
                files.push([0, 1, 2].map(|k| after[k] - before[k]));
            }
        }
        files
    });
    assert!(ranks[0].iter().all(|&file| file == [0; 3]), "rank 0 leads");
    // Catalyst, Libsim; Catalyst, Libsim.
    let want = [
        [1, 11, 2_264],
        [1, 48, 12_225],
        [1, 19, 4_213],
        [1, 48, 12_225],
    ];
    assert_eq!(ranks[1], want, "junctions, tokens, bytes re-parsed a file");
    assert!(want.iter().all(|&[_, _, bytes]| bytes < JOIN_SPAN));
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
    draws
        .iter()
        .map(|rows| (rows.len() - met(rows)) as u64)
        .sum()
}

/// Counts, not clocks: a slice's cells are coloured once a frame, and a
/// draw only fills memory. At `render-insitu`'s shape (2 ranks, z mid-
/// plane) and at 64³, `render/draw` counts each slice plot's draws
/// (calls), the cells its preparation coloured (messages) and the pixel
/// rows its draws copied (bytes), once a plot a frame. The field splits
/// along x at its middle point, so rank 0's piece is 32 × 63 cells at
/// 64³ (64 × 127 at 128³) and rank 1's 31 × 63 (63 × 127); each is
/// coloured once in Catalyst's frame and once in Libsim's. Catalyst's
/// binary swap draws a rank's kept half as one frame and the half it
/// gives away as ⌈540 / 17⌉ = 32 strips; Libsim's root draws its whole
/// frame once and its leaf lends ⌈1024 / 32⌉ = 32 strips. Every other
/// pixel row a draw holds of a row of cells is a copy.
///
/// The per-cell draw this replaced coloured every cell of a row of
/// cells again in each draw that met it, as an instrumented copy of it
/// read and the rule restates: at 64³, rank 0 coloured 3 040 cells a
/// Catalyst frame (32 cells × 95 rows of cells met over its 33 draws)
/// and 2 016 a Libsim frame, rank 1 2 852 (31 × 92) and 2 914 (31 × 94);
/// at 128³, rank 0 10 176 (64 × 159) and 8 128, rank 1 8 064 (63 × 128)
/// and 9 828 (63 × 156).
#[test]
fn a_slice_is_coloured_once_a_frame() {
    let per_cell_draw = [
        [[3_040, 2_016], [2_852, 2_914]],
        [[10_176, 8_128], [8_064, 9_828]],
    ];
    let shapes = [(64, [32 * 63, 31 * 63]), (128, [64 * 127, 63 * 127])];
    for ((grid, cells), per_cell_draw) in shapes.into_iter().zip(per_cell_draw) {
        let d = deck();
        let ranks = World::run(2, move |comm| {
            use sensei::AnalysisAdaptor;
            comm.attach_probe(probe::enabled());
            let (mut sim, mut catalyst, mut libsim) = render_pair(comm, &d, grid);
            let drawn = || {
                let snapshot = comm.probe().snapshot();
                let c = snapshot.counters.iter().find(|c| c.name == "render/draw");
                c.map_or([0; 3], |c| [c.calls, c.messages, c.bytes])
            };
            let mut frames = Vec::new();
            for _ in 0..2 {
                sim.step(comm);
                let data = OscillatorAdaptor::new(&sim);
                let analyses: [&mut dyn AnalysisAdaptor; 2] = [&mut catalyst, &mut libsim];
                for analysis in analyses {
                    let before = drawn();
                    analysis.execute(&data, comm);
                    let after = drawn();
                    frames.push([0, 1, 2].map(|k| after[k] - before[k]));
                }
            }
            frames
        });
        assert_eq!(
            (cells[0] + cells[1]) as usize,
            (grid - 1) * (grid - 1),
            "the plane's cells"
        );
        let strips = |rows: std::ops::Range<usize>, step: usize| {
            rows.clone()
                .step_by(step)
                .map(move |y| y..(y + step).min(rows.end))
        };
        for (rank, frames) in ranks.iter().enumerate() {
            let (kept, given) = if rank == 0 {
                (0..540, 540..1080)
            } else {
                (540..1080, 0..540)
            };
            let catalyst: Vec<_> = std::iter::once(kept).chain(strips(given, 17)).collect();
            // The tree's root draws its frame whole, its leaf in strips.
            let libsim: Vec<_> = strips(0..1024, if rank == 0 { 1024 } else { 32 }).collect();
            let want = [
                [33, cells[rank], rows_copied(1080, grid - 1, &catalyst)],
                [
                    libsim.len() as u64,
                    cells[rank],
                    rows_copied(1024, grid - 1, &libsim),
                ],
            ];
            assert_eq!(frames[..], [want, want].concat(), "{grid}³ rank {rank}");
            // Each row a draw holds was filled or copied, so the rows of
            // cells the draws met are the rows less the copies.
            let row_cells = cells[rank] / (grid as u64 - 1);
            let met = [(1080, want[0][2]), (1024, want[1][2])].map(|(h, copied)| h - copied);
            assert_eq!(met.map(|m| m * row_cells), per_cell_draw[rank]);
        }
    }
}

/// The autocorrelation's memory is the paper's two `O(t·N³)` buffers and
/// nothing that grows with the field beside them: no id per cell while
/// it runs, no copy of a `corr` row while it selects the peaks (the
/// tracking allocator is installed for this test binary). Both the
/// bytes it holds and finalize's rise are asserted to the byte, as sums
/// of what each site keeps, on free-running ranks and under the seeded
/// scheduler alike.
#[test]
fn autocorrelation_holds_two_buffers_and_selects_in_place() {
    use minimpi::{SchedPolicy, WorldBuilder};
    for policy in [SchedPolicy::Os, SchedPolicy::Seeded(2016)] {
        let d = deck();
        WorldBuilder::new(2)
            .sched(policy)
            .run(move |comm| autocorrelation_heap(comm, &d));
    }
}

fn autocorrelation_heap(comm: &minimpi::Comm, d: &str) {
    use sensei::analysis::autocorrelation::{AutocorrelationResult, Peak};
    // The capacity std first gives a collected `Vec` or a `VecDeque`, as
    // read on the pinned toolchain (a std update may move it, with no
    // change here).
    const FIRST_CAP: usize = 4;
    let cfg = SimConfig {
        grid: [64, 64, 64],
        steps: 3,
        ..SimConfig::default()
    };
    let root = (comm.rank() == 0).then_some(d);
    let mut sim = Simulation::new(comm, cfg, root);
    sim.step(comm);
    // A throwaway first reader: the simulation builds its ghost flags on
    // first demand and keeps them.
    Autocorrelation::new("data", 1, 1).execute(&OscillatorAdaptor::new(&sim), comm);
    let flags = datamodel::duplicate_point_ghosts(&sim.local_extent(), &sim.global_extent());
    let cells = flags
        .as_ref()
        .map_or(sim.local_extent().num_points(), |flags| {
            flags.iter().filter(|&&flag| flag == 0).count()
        });
    let (window, k) = (4, 8);
    let buffers = 2 * cells * window * 8;
    drop(flags);

    let floor = probe::alloc::current_bytes();
    let mut ac = Autocorrelation::new("data", window, k);
    let peaks = ac.results_handle();
    ac.execute(&OscillatorAdaptor::new(&sim), comm);
    let live = (probe::alloc::current_bytes() - floor) as usize;
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
    assert_eq!(
        live,
        buffers + kept,
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
    let rise = probe::alloc::rise_since(floor);
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
    let want = select.max(reduce);
    assert_eq!(
        rise,
        want,
        "rank {}: finalize allocated {rise} B over {cells} cells, not {want} B",
        comm.rank()
    );
    if comm.rank() == 0 {
        let peaks = peaks.lock().clone().expect("root holds the peaks");
        assert_eq!(peaks.len(), window);
        assert!(peaks.iter().all(|lag| lag.len() == k));
    }
}

/// A receive allocates nothing on the receiving rank, whether its
/// message is already queued or it waits: rank 1's heap window (bytes
/// risen, heap calls) around its first receive that blocks (rank 0
/// sleeps before it sends), around one whose message is already in its
/// mailbox (sent before the one rank 1 took last), and around its first
/// receive that blocks on a fresh `split` communicator reads 0 B in 0
/// calls each time.
#[test]
fn a_blocking_receive_allocates_nothing() {
    const LATE: std::time::Duration = std::time::Duration::from_millis(60);
    let window = |recv: &dyn Fn() -> u64| {
        probe::alloc::reset_peak();
        let (floor, calls) = (probe::alloc::current_bytes(), probe::alloc::allocations());
        let got = recv();
        let window = (
            probe::alloc::rise_since(floor),
            probe::alloc::allocations() - calls,
        );
        (got, window)
    };
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
            let blocked = window(&|| comm.recv(0, 1));
            comm.recv::<()>(0, 9);
            let queued = window(&|| comm.recv(0, 2));
            let sub = comm.split(0, 1);
            let fresh = window(&|| sub.recv(0, 3));
            vec![blocked, queued, fresh]
        }
    });
    assert_eq!(windows[1], [(1, (0, 0)), (2, (0, 0)), (3, (0, 0))]);
}

/// A match decision allocates nothing: under a deterministic policy an
/// `ANY_SOURCE` receive chooses among its candidate senders in a buffer
/// the world keeps, so a rank's heap calls do not follow the
/// interleaving. Rank 0 of 4 takes a round of three `recv_any` to warm
/// up, then a second round reads 0 heap calls, seeded and free-running.
#[test]
fn a_match_decision_allocates_nothing() {
    use minimpi::{SchedPolicy, WorldBuilder};
    for policy in [SchedPolicy::Seeded(3), SchedPolicy::Os] {
        let calls = WorldBuilder::new(4).sched(policy.clone()).run(|comm| {
            let mut calls = 0;
            for round in 0..2u64 {
                if comm.rank() == 0 {
                    let before = probe::alloc::allocations();
                    for _ in 1..comm.size() {
                        let (_, v): (usize, u64) = comm.recv_any(5);
                        assert_eq!(v, round);
                    }
                    calls = probe::alloc::allocations() - before;
                } else {
                    comm.send(0, 5, round);
                }
                comm.barrier();
            }
            calls
        });
        assert_eq!(calls[0], 0, "{policy:?}: heap calls in three warm recv_any");
    }
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

/// A warm step of the oscillator allocates nothing: the kernel's row
/// tables live in the `Simulation` from `new` on. On the benchmark's
/// deck at 2 ranks (64³, probed), each rank's warm `Simulation::step`
/// reads 0 B in 0 heap calls. While the kernel built its `dx²` row
/// table a step, each read 1 call, the table: 264 B on rank 0, whose
/// rows are 33 points, and 256 B on rank 1.
#[test]
fn a_warm_oscillator_step_allocates_nothing() {
    const STEPS: usize = 5;
    let windows = World::run(2, |comm| {
        comm.attach_probe(probe::enabled());
        let cfg = SimConfig {
            grid: [64, 64, 64],
            steps: STEPS,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(BENCHMARK_DECK));
        sim.step(comm);
        (1..STEPS)
            .map(|_| {
                probe::alloc::reset_peak();
                let (floor, calls) = (probe::alloc::current_bytes(), probe::alloc::allocations());
                sim.step(comm);
                (
                    probe::alloc::rise_since(floor),
                    probe::alloc::allocations() - calls,
                )
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        windows,
        vec![vec![(0, 0); STEPS - 1]; 2],
        "(B, heap calls) a warm step"
    );
}

/// The step kernel's terms on the benchmark's own shape (the seed-2016
/// deck, 128³, 2 ranks): `sim/terms` (evaluated, skipped) of each of the
/// first three steps, rank by rank. Rank 0's block is 65 × 128 × 128 =
/// 1 064 960 points and rank 1's 1 048 576, so a step's pair sums to 16
/// times that; the two wide oscillators take every one of their terms
/// (2 129 920 and 2 097 152), the fourteen narrow ones ≈ 11 500. The
/// kernel that ran the wide ones through the culling machinery, a pass
/// each over a zeroed block, read the same counts.
#[test]
fn benchmark_deck_terms_per_rank() {
    const STEPS: usize = 3;
    let per_rank = World::run(2, |comm| {
        comm.attach_probe(probe::enabled());
        let cfg = SimConfig {
            grid: [128, 128, 128],
            steps: STEPS,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(BENCHMARK_DECK));
        let mut last = (0, 0);
        (0..STEPS)
            .map(|_| {
                sim.step(comm);
                let snapshot = comm.probe().snapshot();
                let c = snapshot.counters.iter().find(|c| c.name == "sim/terms");
                let (evaluated, skipped) = c.map_or((0, 0), |c| (c.messages, c.bytes));
                let step = (evaluated - last.0, skipped - last.1);
                last = (evaluated, skipped);
                step
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        per_rank,
        [
            [
                (2141494, 14897866),
                (2141487, 14897873),
                (2141471, 14897889)
            ],
            [
                (2108726, 14668490),
                (2108706, 14668510),
                (2108690, 14668526)
            ],
        ]
    );
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

/// The wire carries each array at its own width: 8 B of `f64` field a
/// point, and on the block that duplicates a plane 1 B of `u8` ghost
/// flag a point, nine in all, under a header of closed form. The block
/// with no ghost (writer 0's, split along x) ships no ghost variable:
/// 8 B a point and a 280 B header, where it shipped 1 064 960 B of zero
/// flags a step at the benchmark's 128³ while every block carried them.
#[test]
fn oscillator_step_ships_nine_bytes_a_point() {
    for (rank, step) in two_marshalled_blocks().iter().enumerate() {
        let points: u64 = step.vars[0].local_dims.iter().product();
        let names = &["data", datamodel::GHOST_ARRAY_NAME][..=rank];
        assert_eq!(step.vars.iter().map(|v| &v.name).collect::<Vec<_>>(), names);
        // Magic, step, time, attribute count; six geometry attributes
        // (length, name, value); variable count; per variable a length,
        // the name, type code, leaf, nine dims and the element count.
        let attrs = 3 * (4 + "leaf0_spacing_0".len() + 8) + 3 * (4 + "leaf0_origin_0".len() + 8);
        let vars: usize = names.iter().map(|n| 4 + n.len() + 1 + 4 + 9 * 8 + 8).sum();
        let header = (4 + 8 + 8 + 4) + attrs + 4 + vars;
        assert_eq!(header, [280, 381][rank]);
        assert_eq!(step.encoded_len(), (8 + rank) * points as usize + header);
        let mut frame = Vec::new();
        step.encode_into(&mut frame);
        assert_eq!(frame.len(), step.encoded_len());
    }
}

/// The endpoint stores a decoded payload once: the blocks, the analysis
/// mesh and its arrays all share the buffer `decode` filled, so handing
/// a step to an analysis allocates headers, not fields.
///
/// The bytes are exact, site by site. The round's blocks and the mesh an
/// analysis reads each hold a block list (four slots as the blocks are
/// pushed, two when the bare mesh is built with its slot count), per
/// block a point-data slot of four arrays, and per array its name and
/// its one-buffer list: `data` on both blocks, the ghost flags on the
/// second alone, whose writer's block duplicates a plane. Both lists
/// are held at the end, so the high-water mark is their sum.
#[test]
fn endpoint_reads_the_decoded_frame_in_place() {
    use adios::bp::Payload;
    use datamodel::{Buffer, DataArray, DataSet, GHOST_ARRAY_NAME};
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
    // 33 and 32 points along x: the field, and the second block's flags.
    assert_eq!(payload, 8 * 65 * 64 * 64 + 32 * 64 * 64);

    probe::alloc::reset_peak();
    let floor = probe::alloc::current_bytes();
    let endpoint = adios::staging::round_adaptor(&steps);
    let mut mesh = endpoint.mesh();
    for name in ["data", GHOST_ARRAY_NAME] {
        endpoint
            .add_array(&mut mesh, Association::Point, name)
            .expect("shipped array");
    }
    let rise = probe::alloc::rise_since(floor);
    let array = |name: &str| name.len() + size_of::<Buffer<f64>>();
    let arrays = 2 * (4 * size_of::<DataArray>() + array("data")) + array(GHOST_ARRAY_NAME);
    let set = size_of::<Option<DataSet>>();
    assert_eq!(
        rise,
        (4 + 2) * set + 2 * arrays,
        "allocated {rise} B against {payload} B of payload"
    );

    let exec = datamodel::current_space();
    for (leaf, (writer, step)) in mesh.leaves().zip(&steps) {
        let arrays = leaf.point_data().expect("image leaf");
        let data = arrays.get("data").unwrap();
        let Payload::F64(sent) = &step.vars[0].data else {
            panic!("the field travels as f64");
        };
        assert!(data.is_zero_copy());
        assert_eq!(
            data.as_slice_in::<f64>(exec).unwrap().as_ptr(),
            sent.as_ptr()
        );
        let ghosts = arrays.get(GHOST_ARRAY_NAME);
        assert_eq!(ghosts.is_some(), *writer == 1, "flags where a ghost is");
        if let Some(ghosts) = ghosts {
            let Payload::U8(flags) = &step.vars[1].data else {
                panic!("ghost flags travel as u8");
            };
            assert!(ghosts.is_zero_copy());
            assert_eq!(
                ghosts.as_slice_in::<u8>(exec).unwrap().as_ptr(),
                flags.as_ptr()
            );
        }
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
        field: Arc<parking_lot::Mutex<std::sync::Weak<Vec<f64>>>>,
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
            let held = self.field.lock().strong_count();
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
            *current.lock() = Arc::downgrade(&field);
            let data = CountsAtRelease {
                inner: OscillatorAdaptor::new(&sim),
                field: Arc::downgrade(&field),
                at_release: AtomicUsize::new(0),
            };
            let before = Arc::strong_count(&field);
            bridge.execute(&data, comm);
            // The step's mesh, and on rank 1, whose block has ghost
            // flags, the mesh the kept tuples are read from.
            assert_eq!(
                during.load(Ordering::SeqCst),
                before + 1 + usize::from(comm.rank() == 1),
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
    rounds: std::sync::Arc<parking_lot::Mutex<Vec<(usize, u64, u64)>>>,
    floor: Option<(isize, u64, u64)>,
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
            let rise = probe::alloc::rise_since(bytes);
            let calls = probe::alloc::allocations() - calls;
            let messages = sent(comm)[0] - messages;
            self.rounds.lock().push((rise, calls, messages));
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
/// 1.2 MB; a warm step's high-water rise repeats to the byte — 1 262 B
/// on writer 0 and 1 310 B on writer 1 an `execute`, 528 B an endpoint
/// round — so a fresh block, a copied payload or a copied ghost array,
/// or any other new buffer, breaks it.
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
/// While every block carried flags, writer 0 made 21 calls too, and the
/// endpoint 78 (22 + 39 + 14 for a field that carried the flags of both
/// blocks + 1 + 2). Until the payload list went back as it came,
/// `end_step` made 3 and the round 81: writer 0's one-variable list was
/// collected in place into its payload list, and one 120 B `BpVar` is
/// not a whole number of 16 B payloads, so the list was refitted.
#[test]
fn steady_state_staging_step_allocates_no_payload() {
    use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    const WRITER_RISE: [usize; 2] = [1262, 1310];
    const ENDPOINT_RISE: usize = 528;
    const WRITER_CALLS: [u64; 2] = [17, 21];
    const ENDPOINT_CALLS: u64 = 80;
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
                            probe::alloc::rise_since(floor),
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
                    let rounds = std::mem::take(&mut *rounds.lock());
                    assert_eq!(rounds.len(), STEPS - 1);
                    rounds[WARM_UP - 1..].to_vec()
                }
            }
        })
    };
    for (rank, rounds) in run(false).iter().enumerate() {
        let (who, bytes, calls) = if rank < 2 {
            ("writer", WRITER_RISE[rank], WRITER_CALLS[rank])
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
/// step: the histogram, first to read it, makes the same 12 / 14 calls,
/// and the autocorrelation none.
///
/// The high-water rises repeat to the byte on every warm step, run to
/// run and in debug and release alike: the histogram's 2 184 / 2 136 B,
/// called directly or through the bridge alike, and the
/// autocorrelation's 1 192 / 1 608 B for the field it derives alone (0
/// through the bridge, where the histogram paid). While every field
/// attached the flags as it was derived, the field was 8 calls on both
/// ranks, and rank 0 built 17 408 B of zero flags and held them for the
/// run.
#[test]
fn steady_state_stats_step_heap_calls() {
    use minimpi::{SchedPolicy, WorldBuilder};
    use parking_lot::Mutex;
    use std::sync::Arc;
    const STEPS: usize = 6;
    const WARM_UP: usize = 2;
    // Per rank: histogram and autocorrelation called directly, then
    // through a bridge.
    const CALLS: [[[u64; 2]; 2]; 2] = [[[12, 7], [12, 0]], [[14, 11], [14, 0]]];
    const RISES: [[[usize; 2]; 2]; 2] = [[[2184, 1192], [2184, 0]], [[2136, 1608], [2136, 0]]];

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
                probe::alloc::rise_since(floor),
                probe::alloc::allocations() - calls,
            );
            self.rounds.lock().push(round);
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
            rounds.map(|r| r.lock().split_off(WARM_UP))
        });
    for (rank, rounds) in rounds.iter().enumerate() {
        let wants = CALLS[rank].into_iter().zip(RISES[rank]);
        for (pass, (want, rises)) in ["direct", "bridge"].into_iter().zip(wants) {
            let analyses = &rounds[if pass == "direct" { 0..2 } else { 2..4 }];
            assert!(analyses.iter().all(|a| a.len() == STEPS - WARM_UP));
            for (&histogram, &autocorrelation) in analyses[0].iter().zip(&analyses[1]) {
                let round = [histogram, autocorrelation];
                assert_eq!(
                    round.map(|(rise, _)| rise),
                    rises,
                    "rank {rank}, {pass}: high-water rise (B) of the histogram and the \
                     autocorrelation"
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

/// The oscillator's adaptor with ghost flags on every block: all zero
/// where the block duplicates no plane, as every block carried them
/// while the flags were built for each block.
struct EveryBlockFlagged {
    inner: OscillatorAdaptor,
    local: Extent,
    global: Extent,
}

impl EveryBlockFlagged {
    fn new(sim: &Simulation) -> Self {
        EveryBlockFlagged {
            inner: OscillatorAdaptor::new(sim),
            local: sim.local_extent(),
            global: sim.global_extent(),
        }
    }
}

impl sensei::DataAdaptor for EveryBlockFlagged {
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
        match assoc {
            sensei::Association::Point => vec!["data".into(), datamodel::GHOST_ARRAY_NAME.into()],
            sensei::Association::Cell => Vec::new(),
        }
    }
    fn add_array(
        &self,
        mesh: &mut datamodel::DataSet,
        assoc: sensei::Association,
        name: &str,
    ) -> Result<(), sensei::AdaptorError> {
        if name != datamodel::GHOST_ARRAY_NAME {
            return self.inner.add_array(mesh, assoc, name);
        }
        let flags = datamodel::duplicate_point_ghosts(&self.local, &self.global)
            .unwrap_or_else(|| vec![0; self.local.num_points()]);
        let datamodel::DataSet::Image(g) = mesh else {
            unreachable!("the oscillator's mesh is one image");
        };
        g.add_point_array(datamodel::DataArray::owned(name, 1, flags));
        Ok(())
    }
}

/// Ghost flags exist where a ghost is. At 2 and 8 ranks exactly the
/// blocks whose `lo` exceeds the global `lo` on some axis list, attach
/// and ship flags: one block of each decomposition has none. After warm
/// Catalyst + Libsim steps at `render-insitu`'s shape, no rank has built
/// its flags: the first to ask for them builds them then, and on rank 1
/// its rise holds them, 1 B a point. And the histogram and the
/// autocorrelation read the same, in situ and at the in transit
/// endpoint, bitwise, as a run in which every block carries flags.
#[test]
fn ghost_flags_exist_where_a_ghost_is() {
    use adios::staging::{run_endpoint_with_broker, try_adaptor_to_step};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    use sensei::{Association, DataAdaptor};
    let d = deck();
    let cfg = |steps| SimConfig {
        grid: [16, 16, 16],
        steps,
        ..SimConfig::default()
    };
    for ranks in [2, 8] {
        let d = d.clone();
        let ghosted = World::run(ranks, move |comm| {
            let mut sim = Simulation::new(comm, cfg(1), (comm.rank() == 0).then_some(d.as_str()));
            sim.step(comm);
            let (local, global) = (sim.local_extent(), sim.global_extent());
            let ghosted = (0..3).any(|a| local.lo[a] > global.lo[a]);
            let data = OscillatorAdaptor::new(&sim);
            let listed = data.array_names(Association::Point);
            assert_eq!(
                listed.iter().any(|n| n == datamodel::GHOST_ARRAY_NAME),
                ghosted
            );
            let mesh = data.full_mesh();
            assert_eq!(mesh.point_data().unwrap().ghosts().is_some(), ghosted);
            let shipped = try_adaptor_to_step(&data).unwrap();
            assert_eq!(shipped.vars.len(), 1 + usize::from(ghosted));
            ghosted
        });
        assert_eq!(ghosted.iter().filter(|&&g| !g).count(), 1, "{ranks} ranks");
        assert!(!ghosted[0], "the block at the global lo corner");
    }

    // Two warm steps of both renderers at the benchmark's image sizes.
    let d2 = d.clone();
    let rises = World::run(2, move |comm| {
        let (mut sim, catalyst, libsim) = render_pair(comm, &d2, 32);
        let mut bridge = Bridge::new();
        bridge.register(Box::new(catalyst));
        bridge.register(Box::new(libsim));
        for _ in 0..2 {
            sim.step(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        assert!(bridge.failure_reports().is_empty());
        let data = OscillatorAdaptor::new(&sim);
        probe::alloc::reset_peak();
        let floor = probe::alloc::current_bytes();
        let names = data.array_names(Association::Point);
        let rise = probe::alloc::rise_since(floor);
        (rise, names.len(), sim.local_extent().num_points())
    });
    // The name list (a `String` each) and its names; on rank 1 the
    // flags, in their `Arc` (two counts and the `Vec`).
    let list = |names: usize| names * size_of::<String>() + "data".len();
    let arc = 2 * size_of::<usize>() + size_of::<Vec<u8>>();
    assert_eq!(rises[0], (list(1), 1, rises[0].2));
    let (_, _, points) = rises[1];
    let flags = points + arc + datamodel::GHOST_ARRAY_NAME.len();
    assert_eq!(rises[1], (list(2) + flags, 2, points));

    // The same statistics over flags where a ghost is and over flags on
    // every block: in situ, and at an endpoint fed by two writers.
    type Results = (String, String);
    let stats = || {
        let hist = HistogramAnalysis::new("data", 32);
        let auto = Autocorrelation::new("data", 3, 4);
        let handles = (hist.results_handle(), auto.results_handle());
        let analyses: Vec<Box<dyn sensei::AnalysisAdaptor>> = vec![Box::new(hist), Box::new(auto)];
        let read = move || -> Results {
            (
                format!("{:?}", handles.0.lock()),
                format!("{:?}", handles.1.lock()),
            )
        };
        (analyses, read)
    };
    let run = |every: bool| -> [Results; 2] {
        let d = d.clone();
        let insitu = World::run(2, move |comm| {
            let mut sim = Simulation::new(comm, cfg(4), (comm.rank() == 0).then_some(d.as_str()));
            let (analyses, read) = stats();
            let mut bridge = Bridge::new();
            for analysis in analyses {
                bridge.register(analysis);
            }
            for _ in 0..4 {
                sim.step(comm);
                if every {
                    bridge.execute(&EveryBlockFlagged::new(&sim), comm);
                } else {
                    bridge.execute(&OscillatorAdaptor::new(&sim), comm);
                }
            }
            bridge.finalize(comm);
            assert!(bridge.failure_reports().is_empty());
            read()
        })
        .remove(0);
        let d = deck();
        let endpoint = World::run(3, move |world| match pair(world, 2) {
            Role::Writer { sub, mut writer } => {
                let root = (sub.rank() == 0).then_some(d.as_str());
                let mut sim = Simulation::new(&sub, cfg(4), root);
                for _ in 0..4 {
                    sim.step(&sub);
                    let step = if every {
                        try_adaptor_to_step(&EveryBlockFlagged::new(&sim))
                    } else {
                        try_adaptor_to_step(&OscillatorAdaptor::new(&sim))
                    };
                    writer.advance(world);
                    writer.write(world, &step.unwrap());
                }
                writer.close(world);
                None
            }
            Role::Endpoint { sub, mut reader } => {
                let (analyses, read) = stats();
                let broker = StagingBroker::new(BrokerConfig::default());
                let (bridge, _) =
                    run_endpoint_with_broker(world, &sub, &mut reader, analyses, &broker);
                assert_eq!(bridge.steps(), 4);
                assert!(bridge.failure_reports().is_empty());
                Some(read())
            }
        })
        .into_iter()
        .flatten()
        .next()
        .expect("the endpoint's results");
        [insitu, endpoint]
    };
    let [insitu, endpoint] = run(false);
    assert!(
        insitu.0.contains("counts") && insitu.1.contains("Peak"),
        "{insitu:?}"
    );
    assert_eq!(insitu, endpoint, "in situ and at the endpoint");
    assert_eq!([insitu, endpoint], run(true), "flags on every block");
}

/// The staged step is its closed form: what the writers ship a step,
/// summed, is `perfmodel::memory::staged_step_bytes` of their blocks —
/// the field, the flags of the blocks that have a ghost, and the
/// headers — at 1, 2 and 4 writers.
#[test]
fn staged_step_bytes_are_the_model_at_1_2_4_writers() {
    use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    const STEPS: usize = 3;
    for writers in [1, 2, 4] {
        let d = deck();
        let shipped = World::run(writers + 1, move |world| match pair(world, writers) {
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
                let (local, global) = (sim.local_extent(), sim.global_extent());
                let ghosted = (0..3).any(|a| local.lo[a] > global.lo[a]);
                Some((ship.bytes_shipped, (local.num_points(), ghosted)))
            }
            Role::Endpoint { sub, mut reader } => {
                let broker = StagingBroker::new(BrokerConfig::default());
                run_endpoint_with_broker(world, &sub, &mut reader, Vec::new(), &broker);
                None
            }
        });
        let (bytes, blocks): (Vec<usize>, Vec<(usize, bool)>) =
            shipped.into_iter().flatten().unzip();
        let per_step = bytes.iter().sum::<usize>() as f64 / STEPS as f64;
        assert_eq!(
            blocks.iter().filter(|b| !b.1).count(),
            1,
            "{writers} writers"
        );
        assert_eq!(
            per_step,
            perfmodel::memory::staged_step_bytes(&blocks),
            "{writers} writers: {blocks:?}"
        );
    }
}
