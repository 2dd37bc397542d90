//! Planted-bug suite for the happens-before sanitizer.
//!
//! Each test plants one of the hazards the sanitizer exists to catch —
//! mutating a leaf array while it is staged to an endpoint, writing a
//! ghost point, dropping an in-flight message — and asserts the
//! sanitizer reports it with the involved ranks, vector-clock
//! evidence, and a replayable seed. A final test replays a finding's
//! recorded schedule with `SchedPolicy::Replay` and gets the same
//! finding again, and the conformance-style clean pipeline runs
//! sanitizer-enabled with zero findings.

use std::sync::Arc;

use datamodel::{DataArray, DataSet, Extent, ImageData, GHOST_ARRAY_NAME};
use minimpi::{FaultHandle, SchedPolicy, TraceCell, WorldBuilder};
use sanitizer::{FindingKind, Mode, Session};

const SEED: u64 = 42;

/// A per-rank image with one zero-copy (shared) point array. Must be
/// built inside the world so the rank's sanitizer context is active
/// and the array picks up a shadow.
fn shared_image(n: [usize; 3]) -> DataSet {
    let whole = Extent::whole(n);
    let mut img = ImageData::new(whole, whole);
    let pts = img.num_points();
    img.point_data
        .insert(DataArray::shared("u", 1, Arc::new(vec![0.0f64; pts])));
    DataSet::Image(img)
}

/// Planted bug 1: a rank mutates a leaf array while a zero-copy view
/// of it is staged to an endpoint (the publish window is still open).
#[test]
fn mutate_mid_publish_is_reported_with_clocks_and_seed() {
    let session = Session::new(2, Mode::Collect);
    let s2 = Arc::clone(&session);
    WorldBuilder::new(2)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(s2)
        .run(|comm| {
            let mut data = shared_image([4, 4, 1]);
            let guard = datamodel::publish_dataset(&data, "catalyst");
            assert_eq!(guard.len(), 1, "the shared array is shadowed");
            // BUG: the simulation advances the field while the
            // endpoint still holds the staged view.
            if comm.rank() == 0 {
                if let DataSet::Image(g) = &mut data {
                    let arr = g.point_data.get_mut("u").unwrap();
                    arr.set(0, 0, 1.0);
                }
            }
            drop(guard);
        });
    let findings = session.findings();
    let hit = findings
        .iter()
        .find(|f| f.kind == FindingKind::UseAfterPublish)
        .expect("use-after-publish reported");
    assert_eq!(hit.slots.0, 0, "the writer is rank 0");
    assert_eq!(hit.slots.1, Some(0), "rank 0 also opened the window");
    assert!(
        hit.subject.contains("u@catalyst"),
        "subject: {}",
        hit.subject
    );
    assert!(
        hit.clocks.0.is_some() && hit.clocks.1.is_some(),
        "both clocks attached as evidence"
    );
    assert_eq!(hit.seed, Some(SEED), "finding carries the replay seed");
    let rendered = hit.to_string();
    assert!(
        rendered.contains("SchedPolicy::Seeded(42)"),
        "rendered finding names the replay seed: {rendered}"
    );
}

/// Planted bug 2: a rank writes a point its decomposition marks as a
/// ghost copy (`vtkGhostType` non-zero).
#[test]
fn ghost_write_is_reported_with_tuple_evidence() {
    let session = Session::new(1, Mode::Collect);
    let s2 = Arc::clone(&session);
    WorldBuilder::new(1)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(s2)
        .run(|_comm| {
            let whole = Extent::whole([4, 1, 1]);
            let mut img = ImageData::new(whole, whole);
            let pts = img.num_points();
            img.point_data
                .insert(DataArray::shared("u", 1, Arc::new(vec![0.0f64; pts])));
            // Mark the last point as a ghost copy of a neighbor's.
            let mut flags = vec![0u8; pts];
            flags[pts - 1] = 1;
            img.point_data
                .insert(DataArray::owned(GHOST_ARRAY_NAME, 1, flags));
            // BUG: writing the ghost point — the owning rank's value
            // is authoritative, this write diverges silently.
            let arr = img.point_data.get_mut("u").unwrap();
            arr.set(pts - 1, 0, 9.0);
        });
    let findings = session.findings();
    let hit = findings
        .iter()
        .find(|f| f.kind == FindingKind::GhostWrite)
        .expect("ghost write reported");
    assert_eq!(hit.slots.0, 0);
    assert_eq!(hit.subject, "u");
    assert!(hit.detail.contains("tuple 3"), "detail: {}", hit.detail);
    assert_eq!(hit.seed, Some(SEED));
    // Non-ghost writes in the same run are clean: only the planted
    // tuple fired.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.kind == FindingKind::GhostWrite)
            .count(),
        1
    );
}

/// Planted bug 3: the transport drops an in-flight message (fault
/// injection) and nobody ever receives it. At world teardown the
/// vector-clock ledger still holds the un-received send.
#[test]
fn dropped_in_flight_message_leaks_at_teardown() {
    let session = Session::new(2, Mode::Collect);
    let s2 = Arc::clone(&session);
    let faults = FaultHandle::new();
    faults.drop_link(0, 1);
    WorldBuilder::new(2)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(s2)
        .fault_handle(faults.clone())
        .run(|comm| {
            // BUG: fire-and-forget notification on a lossy link; the
            // receiver never posts a matching recv, so the loss goes
            // unnoticed by the application.
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64; 8]);
            }
        });
    assert_eq!(faults.dropped(), 1, "the link dropped the message");
    let findings = session.findings();
    let hit = findings
        .iter()
        .find(|f| f.kind == FindingKind::MessageLeak)
        .expect("message leak reported");
    assert_eq!(hit.slots.0, 0, "sender rank");
    assert_eq!(hit.slots.1, Some(1), "intended receiver rank");
    assert!(hit.subject.contains("user:7"), "subject: {}", hit.subject);
    assert!(hit.clocks.0.is_some(), "send clock attached");
    assert_eq!(hit.seed, Some(SEED));
}

/// Planted bug: code running in a device execution space reads a
/// host-resident array through a legacy accessor — the missing
/// explicit transfer a real machine would need. The sanitizer reports
/// it as a wrong-space access naming both spaces.
#[test]
fn wrong_space_access_is_reported_as_a_missing_transfer() {
    let session = Session::new(1, Mode::Collect);
    let s2 = Arc::clone(&session);
    WorldBuilder::new(1)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(s2)
        .run(|_comm| {
            let data = shared_image([4, 1, 1]);
            // BUG: the "device" analysis reads the simulation's
            // host-resident field in place instead of snapshotting it
            // into device space first.
            let _device = datamodel::enter_space(datamodel::MemorySpace::DeviceSim(0));
            if let DataSet::Image(img) = &data {
                let arr = img.point_data.get("u").unwrap();
                let _v = arr.get(0, 0);
            }
        });
    let findings = session.findings();
    let hit = findings
        .iter()
        .find(|f| f.kind == FindingKind::WrongSpaceAccess)
        .expect("wrong-space access reported");
    assert_eq!(hit.subject, "u");
    assert!(
        hit.detail.contains("host") && hit.detail.contains("device"),
        "detail names both spaces: {}",
        hit.detail
    );
    assert!(
        hit.detail.contains("move_to/snapshot_in"),
        "detail points at the explicit-transfer API: {}",
        hit.detail
    );
    // The explicit transfer makes the identical read clean: snapshot
    // into device space first, read the snapshot, zero findings.
    let clean = Session::new(1, Mode::Collect);
    let c2 = Arc::clone(&clean);
    WorldBuilder::new(1)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(c2)
        .run(|_comm| {
            let data = shared_image([4, 1, 1]);
            let staged = data.snapshot_in(datamodel::MemorySpace::DeviceSim(0));
            let _device = datamodel::enter_space(datamodel::MemorySpace::DeviceSim(0));
            if let DataSet::Image(img) = &staged {
                let arr = img.point_data.get("u").unwrap();
                let _v = arr.get(0, 0);
            }
        });
    assert!(
        clean.findings().is_empty(),
        "snapshotted device read must be clean, got: {:#?}",
        clean
            .findings()
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
    );
}

/// A simulation that advances its field when the writer asks for the
/// time — that is, while the step is being marshalled.
struct AdvancesMidMarshal {
    inner: sensei::InMemoryAdaptor,
    field: parking_lot::Mutex<DataArray>,
}

impl sensei::DataAdaptor for AdvancesMidMarshal {
    fn time(&self) -> f64 {
        // BUG: the frame is encoded straight from this buffer.
        self.field.lock().set(0, 0, 1.0);
        self.inner.time()
    }
    fn step(&self) -> u64 {
        self.inner.step()
    }
    fn mesh(&self) -> DataSet {
        self.inner.mesh()
    }
    fn array_names(&self, assoc: sensei::Association) -> Vec<String> {
        self.inner.array_names(assoc)
    }
    fn add_array(
        &self,
        mesh: &mut DataSet,
        assoc: sensei::Association,
        name: &str,
    ) -> Result<(), sensei::AdaptorError> {
        self.inner.add_array(mesh, assoc, name)
    }
}

/// Planted bug on the in transit path: the ADIOS writer shares the
/// simulation's buffer from marshal until the frame is written, inside
/// one publish window; a write in between is reported, and the same
/// write once `execute` has returned is not (the window has closed).
#[test]
fn write_during_adios_marshal_is_reported_and_after_execute_is_clean() {
    use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
    use sensei::AnalysisAdaptor as _;
    let session = Session::new(2, Mode::Collect);
    let s2 = Arc::clone(&session);
    WorldBuilder::new(2)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(s2)
        .run(|world| match adios::pair(world, 1) {
            adios::Role::Writer { writer, .. } => {
                let data = shared_image([4, 4, 1]);
                let field = data.point_data().and_then(|a| a.get("u")).unwrap().clone();
                let planted = AdvancesMidMarshal {
                    inner: sensei::InMemoryAdaptor::new(data, 0.0, 0),
                    field: parking_lot::Mutex::new(field),
                };
                let mut ship = AdiosWriterAnalysis::new(writer);
                ship.execute(&planted, world);
                // The simulation's next step: ordered after the window.
                planted.field.lock().set(0, 0, 2.0);
                ship.finalize(world);
            }
            adios::Role::Endpoint { sub, mut reader } => {
                let broker = adios::StagingBroker::new(adios::BrokerConfig::default());
                run_endpoint_with_broker(world, &sub, &mut reader, Vec::new(), &broker);
            }
        });
    let findings = session.findings();
    assert_eq!(
        findings.len(),
        1,
        "one planted write, nothing else: {:#?}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
    let hit = &findings[0];
    assert_eq!(hit.kind, FindingKind::UseAfterPublish);
    assert_eq!(
        hit.slots,
        (0, Some(0)),
        "the writer rank, in its own window"
    );
    assert!(hit.subject.contains("u@adios"), "subject: {}", hit.subject);
}

/// An endpoint that never closes its staged view: `Bridge::finalize`'s
/// leak check (via `Session::finish_world`) reports the open window.
#[test]
fn unreturned_view_leaks_at_teardown() {
    let session = Session::new(1, Mode::Collect);
    let s2 = Arc::clone(&session);
    WorldBuilder::new(1)
        .sched(SchedPolicy::Seeded(SEED))
        .sanitizer(s2)
        .run(|_comm| {
            let data = shared_image([4, 1, 1]);
            let guard = datamodel::publish_dataset(&data, "adios");
            // BUG: the guard never drops before the world ends.
            std::mem::forget(guard);
        });
    let findings = session.findings();
    let hit = findings
        .iter()
        .find(|f| f.kind == FindingKind::ViewLeak)
        .expect("view leak reported");
    assert!(hit.subject.contains("u@adios"), "subject: {}", hit.subject);
}

/// The mutate-mid-publish schedule replays: feeding the recorded trace
/// back through `SchedPolicy::Replay` reproduces the identical finding.
#[test]
fn replaying_the_recorded_schedule_reproduces_the_finding() {
    let run = |policy: SchedPolicy, cell: Option<&TraceCell>| {
        let session = Session::new(2, Mode::Collect);
        let s2 = Arc::clone(&session);
        let mut b = WorldBuilder::new(2).sched(policy).sanitizer(s2);
        if let Some(cell) = cell {
            b = b.trace_cell(cell);
        }
        b.run(|comm| {
            let mut data = shared_image([4, 4, 1]);
            let _guard = datamodel::publish_dataset(&data, "libsim");
            if comm.rank() == 1 {
                if let DataSet::Image(g) = &mut data {
                    g.point_data.get_mut("u").unwrap().set(2, 0, 3.0);
                }
            }
        });
        session.findings()
    };

    let cell = TraceCell::new();
    let first = run(SchedPolicy::Seeded(SEED), Some(&cell));
    let trace = cell.take().expect("seeded run recorded a trace");
    let replayed = run(SchedPolicy::Replay(trace), None);

    let pick = |fs: &[sanitizer::Finding]| {
        fs.iter()
            .find(|f| f.kind == FindingKind::UseAfterPublish)
            .map(|f| (f.slots, f.subject.clone(), f.seed))
            .expect("use-after-publish present")
    };
    assert_eq!(
        pick(&first),
        pick(&replayed),
        "replay reproduces the finding"
    );
}

/// Clean-pipeline conformance: a full bridge + analysis + endpoint run
/// under the sanitizer produces zero findings (the suite's "no false
/// positives" anchor; CI re-runs the whole conformance suite with
/// `SENSEI_SANITIZER=1` at 1/4/8 ranks on top of this), and the same
/// seeded run without a session computes bitwise the same results: the
/// sanitizer observes, it never perturbs.
#[test]
fn clean_pipeline_is_sanitizer_silent() {
    use sensei::analysis::descriptive::{DescriptiveStats, Stats};
    use sensei::{Bridge, InMemoryAdaptor};
    // Every rank's per-step stats, as bits.
    let run = |session: Option<Arc<Session>>| -> Vec<Vec<[u64; 6]>> {
        let mut builder = WorldBuilder::new(4).sched(SchedPolicy::Seeded(SEED));
        if let Some(session) = session {
            builder = builder.sanitizer(session);
        }
        builder.run(|comm| {
            let stats = DescriptiveStats::new("u");
            let results = stats.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(stats));
            let mut seen = Vec::new();
            for step in 0..3u64 {
                // Fresh data each step, mutated only while unpublished.
                let mut data = shared_image([4, 4, 1]);
                if let DataSet::Image(g) = &mut data {
                    let arr = g.point_data.get_mut("u").unwrap();
                    for t in 0..arr.num_tuples() {
                        arr.set(t, 0, (t as f64) + step as f64);
                    }
                }
                let adaptor = InMemoryAdaptor::new(data, step as f64, step);
                bridge.execute(&adaptor, comm);
                let s: Stats = results.lock().expect("stats every step");
                seen.push([
                    s.count,
                    s.mean.to_bits(),
                    s.variance.to_bits(),
                    s.min.to_bits(),
                    s.max.to_bits(),
                    s.step,
                ]);
            }
            bridge.finalize(comm);
            seen
        })
    };
    let session = Session::new(4, Mode::Collect);
    let sanitized = run(Some(Arc::clone(&session)));
    let findings = session.findings();
    assert!(
        findings.is_empty(),
        "clean pipeline must be silent, got: {:#?}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(sanitized, run(None), "the sanitizer changed a result");
}
