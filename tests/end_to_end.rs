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

mod table;

fn deck() -> String {
    format_deck(&demo_oscillators())
}

/// This rank's block of a `grid`³ oscillator field, the demo deck read
/// on rank 0.
fn simulation(comm: &minimpi::Comm, grid: usize) -> Simulation {
    let cfg = SimConfig {
        grid: [grid; 3],
        ..SimConfig::default()
    };
    Simulation::new(comm, cfg, (comm.rank() == 0).then(deck).as_deref())
}

/// The full §4.1 coupling: miniapp + every non-rendering analysis at
/// once through one bridge, over several steps, with timing capture.
#[test]
fn miniapp_with_all_direct_analyses() {
    World::run(8, move |comm| {
        let mut sim = simulation(comm, 17);

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
    World::run(4, move |comm| {
        let mut sim = simulation(comm, 17);
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

/// One step of a 64³ run on two ranks, marshalled by each: the ghosted
/// two-block deck the in transit tests below ship.
fn two_marshalled_blocks() -> Vec<adios::BpStep> {
    World::run(2, move |comm| {
        let mut sim = simulation(comm, 64);
        sim.step(comm);
        adios::staging::try_adaptor_to_step(&OscillatorAdaptor::new(&sim)).expect("marshals")
    })
}

/// The endpoint stores a decoded payload once: the blocks, the analysis
/// mesh and its arrays all share the buffer `decode` filled, so handing
/// a step to an analysis allocates headers, not fields (`tests/table`
/// holds the headers' bytes, site by site, as the row `bp-64
/// endpoint.adopt.rise`).
#[test]
fn endpoint_reads_the_decoded_frame_in_place() {
    use adios::bp::Payload;
    use datamodel::GHOST_ARRAY_NAME;
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

    let endpoint = adios::staging::round_adaptor(&steps);
    let mut mesh = endpoint.mesh();
    for name in ["data", GHOST_ARRAY_NAME] {
        endpoint
            .add_array(&mut mesh, Association::Point, name)
            .expect("shipped array");
    }

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

    World::run(2, move |comm| {
        let mut sim = simulation(comm, 16);
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
            let mut sim = simulation(&sub, 16);
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

        let mut sim = simulation(comm, 9);
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
    let dir = std::env::temp_dir().join(format!("glean_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir2 = dir.clone();
    World::run(4, move |comm| {
        let mut sim = simulation(comm, 9);
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

/// One step of `array` drawn by Catalyst and Libsim as a 64×48 slice
/// through z = 4: the analyses that report a failure on this rank, each
/// that it has nothing to draw, and on rank 0 each file's pixels that
/// are not its background (Catalyst's white, Libsim's black).
fn drawn(
    comm: &minimpi::Comm,
    data: &dyn sensei::DataAdaptor,
    array: &str,
) -> (Vec<String>, Option<[usize; 2]>) {
    let mut pipeline = catalyst::SlicePipeline::new(array, 2, 4);
    (pipeline.width, pipeline.height) = (64, 48);
    let catalyst = catalyst::CatalystSliceAnalysis::new(pipeline);
    let session = format!("image 64 48\nplot pseudocolor {array} axis=z index=4\n");
    let session = libsim::Session::parse(&session).unwrap();
    let libsim = libsim::LibsimAnalysis::new(session, std::path::Path::new("/nonexistent"));
    let files = [catalyst.png_handle(), libsim.png_handle()];
    let mut bridge = Bridge::new();
    bridge.register(Box::new(catalyst));
    bridge.register(Box::new(libsim));
    bridge.execute(data, comm);
    let coloured = files.each_ref().map(|file| {
        let png = file.lock().clone()?;
        let (w, h, rgb) = render::png::decode_rgb(&png).expect("a decodable PNG");
        assert_eq!((w, h), (64, 48));
        Some(
            rgb.chunks(3)
                .filter(|p| p != &[255; 3] && p != &[0; 3])
                .count(),
        )
    });
    let reports = bridge.failure_reports().iter().map(|report| match report {
        sensei::FailureReport::Analysis { analysis, detail } => {
            assert!(detail.ends_with("has no structured leaf on this rank: nothing to draw"));
            analysis.clone()
        }
        other => panic!("{other}"),
    });
    let reports = reports.collect();
    match coloured {
        [Some(c), Some(l)] => (reports, Some([c, l])),
        [None, None] => (reports, None),
        _ => panic!("one file of two on rank {}", comm.rank()),
    }
}

/// Catalyst and Libsim draw a structured block. LESLIE and Nyx have one
/// on every rank, and their slices colour every pixel. PHASTA's mesh is
/// unstructured: on each rank each infrastructure reports once that it
/// has nothing to draw, still joins the frame, and rank 0's files
/// decode, all background.
#[test]
fn an_unstructured_field_is_reported_not_drawn_blank() {
    let ranks = World::run(2, |comm| {
        let config = science::LeslieConfig {
            grid: [12, 13, 8],
            ..science::LeslieConfig::default()
        };
        let mut leslie = science::Leslie::new(comm, config);
        leslie.step(comm);
        let leslie = drawn(comm, &science::LeslieAdaptor::new(&leslie), "vorticity");
        let config = science::NyxConfig {
            grid: [8, 8, 8],
            ..science::NyxConfig::default()
        };
        let mut nyx = science::Nyx::new(comm, config);
        nyx.step(comm);
        let nyx = drawn(comm, &science::NyxAdaptor::new(&nyx), "density");
        let config = science::PhastaConfig {
            lattice: [9, 7, 7],
            ..science::PhastaConfig::default()
        };
        let mut phasta = science::Phasta::new(comm, config);
        phasta.step(comm);
        let phasta = drawn(comm, &science::PhastaAdaptor::new(&phasta), "velmag");
        [leslie, nyx, phasta]
    });
    let both = vec!["catalyst-slice".to_string(), "libsim".to_string()];
    let every = Some([64 * 48; 2]);
    for (rank, [leslie, nyx, phasta]) in ranks.into_iter().enumerate() {
        let file = |coloured| (rank == 0).then_some(coloured).flatten();
        assert_eq!(leslie, (Vec::new(), file(every)), "LESLIE, rank {rank}");
        assert_eq!(nyx, (Vec::new(), file(every)), "Nyx, rank {rank}");
        assert_eq!(
            phasta,
            (both.clone(), file(Some([0; 2]))),
            "PHASTA, rank {rank}"
        );
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
/// and ship flags: one block of each decomposition has none (after warm
/// render steps, no rank has built them either: `tests/table`'s row
/// `render-64 arrays-listed.rise`). And the histogram and the
/// autocorrelation read the same, in situ and at the in transit
/// endpoint, bitwise, as a run in which every block carries flags.
#[test]
fn ghost_flags_exist_where_a_ghost_is() {
    use adios::staging::{run_endpoint_with_broker, try_adaptor_to_step};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    use sensei::{Association, DataAdaptor};
    for ranks in [2, 8] {
        let ghosted = World::run(ranks, move |comm| {
            let mut sim = simulation(comm, 16);
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
        let insitu = World::run(2, move |comm| {
            let mut sim = simulation(comm, 16);
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
        let endpoint = World::run(3, move |world| match pair(world, 2) {
            Role::Writer { sub, mut writer } => {
                let mut sim = simulation(&sub, 16);
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

/// The tests whose numbers are rows of `tests/golden/counts.tsv`: each
/// measures its scenarios of `tests/table`, whose docs list the sites
/// each row sums, and checks their rows and closed forms.
macro_rules! counted {
    ($($test:ident: $($scenario:literal),+;)*) => {$(
        #[test]
        fn $test() {
            table::check(Some(&[$($scenario),+]));
        }
    )*};
}

counted! {
    renderers_read_the_simulation_field_in_place: "render-1rank-64";
    a_one_shot_encode_reserves_what_its_stream_fills: "png-16x16";
    steady_state_render_step_allocates_no_catalyst_frame: "render-64";
    render_step_ships_scanlines_not_gathered_framebuffers: "render-64";
    a_slice_is_coloured_once_a_frame: "render-64", "render-128";
    render_junctions_meet_inside_the_join_span: "render-128";
    steady_state_render_step_allocates_no_framebuffer: "render-16";
    a_later_plot_is_merged_in_place: "libsim-16";
    autocorrelation_holds_two_buffers_and_selects_in_place: "autocorrelation-64";
    a_blocking_receive_allocates_nothing: "minimpi";
    a_match_decision_allocates_nothing: "minimpi";
    a_warm_oscillator_step_allocates_nothing: "oscillator-128";
    benchmark_deck_terms_per_rank: "oscillator-128";
    oscillator_step_ships_nine_bytes_a_point: "bp-64";
    steady_state_staging_step_allocates_no_payload: "staging-64";
    staged_step_bytes_are_the_model_at_1_2_4_writers: "staging-16";
    steady_state_stats_step_heap_calls: "stats-32";
}
