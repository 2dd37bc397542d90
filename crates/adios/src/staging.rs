//! The two-executable staging pattern: a writer-side SENSEI analysis
//! adaptor that ships data, and an endpoint loop that reconstructs
//! datasets and runs any SENSEI analyses *in transit* — so Catalyst,
//! Libsim, histogram, or autocorrelation run at the endpoint without the
//! simulation knowing which (Fig. 2's composability).
//!
//! Each payload byte is copied once (DESIGN §11): the writer copies it
//! from the producer's buffer into its payload block — §4.1.4's
//! marshaling copy — inside a publish window held until the step is
//! written; the endpoint adopts that block, and its meshes share it.
//! The buffers circulate: the step, blocks and all, is a loan the
//! endpoint gives back, and the endpoint loop releases each round's
//! adaptor before `end_step`, so the writer marshals the next step into
//! the blocks nothing holds any more.

use datamodel::{DataSet, Extent, ImageData, MultiBlock};
use minimpi::Comm;
use sensei::{
    AdaptorError, AnalysisAdaptor, Bridge, DataAdaptor, InMemoryAdaptor, RunReport, Steering,
};

use crate::bp::{BpStep, BpVar, Payload};
use crate::broker::StagingBroker;
use crate::flexpath::{FlexpathReader, FlexpathWriter};

/// Marshal a populated mesh into a BP step: every 1-component point
/// array of every image/rectilinear leaf becomes a self-describing
/// variable in its own scalar type, keyed by its leaf index so a rank
/// carrying several leaves reconstructs into several blocks. Geometry
/// attributes are likewise keyed per leaf (`leaf{i}_spacing_{a}`).
///
/// A zero-copy array's buffer is *shared*, not copied, so the caller
/// holds a publish window over `mesh` while the step lives (or detaches
/// it). Arrays are read from the calling thread's memory space: a
/// device-resident array handed to a host-side writer surfaces as
/// [`AdaptorError::WrongSpace`] instead of an unchecked read.
fn mesh_to_step(mesh: &DataSet, data: &dyn DataAdaptor) -> Result<BpStep, AdaptorError> {
    let mut step = BpStep::new(data.step(), data.time());
    for (leaf_id, leaf) in mesh.leaves().enumerate() {
        let Some(grid) = leaf.structured() else {
            continue;
        };
        let (local, global) = (grid.extent, grid.global_extent);
        for a in 0..3 {
            step.set_attr(format!("leaf{leaf_id}_spacing_{a}"), grid.spacing[a]);
            step.set_attr(format!("leaf{leaf_id}_origin_{a}"), grid.origin[a]);
        }
        for arr in grid.point_data.iter() {
            if arr.num_components() != 1 {
                continue;
            }
            step.vars.push(
                BpVar::new(
                    arr.name(),
                    global.point_dims().map(|d| d as u64),
                    std::array::from_fn(|a| (local.lo[a] - global.lo[a]) as u64),
                    local.point_dims().map(|d| d as u64),
                    Payload::of_array(arr, datamodel::current_space())?,
                )
                .with_leaf(leaf_id as u32),
            );
        }
    }
    Ok(step)
}

/// Marshal `mesh`, one step of `data`, into a BP step that owns its
/// payloads: the one way a step is put at rest (GLEAN's aggregator
/// files, post hoc pieces) or shipped by a caller that keeps no publish
/// window open. See [`mesh_to_step`] for what becomes a variable;
/// `endpoint` names the publish window the sanitizer reports.
pub fn marshal(
    mesh: &DataSet,
    data: &dyn DataAdaptor,
    endpoint: &str,
) -> Result<BpStep, AdaptorError> {
    // Sanitizer: marshaling reads every array zero-copy, in a window.
    let _publish = datamodel::publish_dataset(mesh, endpoint);
    let mut step = mesh_to_step(mesh, data)?;
    // The step outlives the window, so what it still shares with the
    // producer is copied out here, once and exactly sized.
    for var in &mut step.vars {
        var.data.detach();
    }
    Ok(step)
}

/// [`marshal`] every array of one timestep of a (structured) data
/// adaptor.
pub fn try_adaptor_to_step(data: &dyn DataAdaptor) -> Result<BpStep, AdaptorError> {
    marshal(&data.full_mesh(), data, "adios")
}

/// The blocks of one round of received steps: an image grid per writer
/// leaf, each carrying its leaf's variables on its own extent and
/// geometry.
fn round_blocks(steps: &[(usize, BpStep)]) -> MultiBlock {
    let mut blocks = MultiBlock::new();
    for (_, step) in steps {
        let mut leaf_ids: Vec<u32> = step.vars.iter().map(|v| v.leaf).collect();
        leaf_ids.sort_unstable();
        leaf_ids.dedup();
        for leaf in leaf_ids {
            let vars: Vec<&BpVar> = step.vars.iter().filter(|v| v.leaf == leaf).collect();
            let Some(first) = vars.first() else { continue };
            let global = Extent::new([0; 3], first.global_dims.map(|d| d as i64 - 1));
            let lo = first.offset.map(|o| o as i64);
            let hi = std::array::from_fn(|a| lo[a] + first.local_dims[a] as i64 - 1);
            let geo = |what: &str, default: f64| {
                [0, 1, 2].map(|a| {
                    step.attr(&format!("leaf{leaf}_{what}_{a}"))
                        .unwrap_or(default)
                })
            };
            let mut grid = ImageData::new(Extent::new(lo, hi), global)
                .with_geometry(geo("origin", 0.0), geo("spacing", 1.0));
            for var in vars {
                // The adopted buffer itself: a reference count, not a copy.
                grid.add_point_array(var.data.to_array(&var.name));
            }
            blocks.push(DataSet::Image(grid));
        }
    }
    blocks
}

/// The endpoint's view of one round of received steps: a multiblock
/// of their blocks, at the first step's `(step, time)`.
pub fn round_adaptor(steps: &[(usize, BpStep)]) -> InMemoryAdaptor {
    let (step, time) = steps.first().map_or((0, 0.0), |(_, s)| (s.step, s.time));
    InMemoryAdaptor::new(DataSet::Multi(round_blocks(steps)), time, step)
}

/// The round's `(step, time)` as the endpoints of `sub` agree on it.
///
/// An endpoint whose writers all closed or died has no blocks in a
/// round and would otherwise report `step=0, time=0.0`, disagreeing
/// with its peers mid-run; every endpoint adopts the maximum
/// `(has-data, step)` across the subgroup instead. Collective over
/// `sub`.
fn agreed_step_time(sub: &Comm, steps: &[(usize, BpStep)], blocks: &MultiBlock) -> (u64, f64) {
    let mine = steps.first().map_or((0, 0.0), |(_, s)| (s.step, s.time));
    let mine = (blocks.num_present() > 0, mine.0, mine.1);
    let (_, step, time) =
        sub.allreduce_scalar(mine, |a, b| if (b.0, b.1) > (a.0, a.1) { b } else { a });
    (step, time)
}

/// Writer-side SENSEI analysis adaptor: ships each executed step through
/// FlexPath. Per-step costs decompose as in Fig. 8: `advance_seconds`
/// (metadata + blocking on the reader) and `write_seconds`
/// (marshal + transmit).
///
/// The bridge driving this adaptor must be executed with the **world**
/// communicator, since the transport addresses endpoint ranks globally.
pub struct AdiosWriterAnalysis {
    writer: FlexpathWriter,
    /// Cumulative seconds spent in `advance` (metadata + blocking).
    pub advance_seconds: f64,
    /// Cumulative seconds spent marshaling + sending.
    pub write_seconds: f64,
    /// Total bytes shipped.
    pub bytes_shipped: usize,
    /// Non-fatal marshal failures (e.g. wrong-space arrays) drained by
    /// the bridge through `take_failures`.
    failures: Vec<String>,
}

impl AdiosWriterAnalysis {
    /// Wrap a paired writer handle.
    pub fn new(writer: FlexpathWriter) -> Self {
        AdiosWriterAnalysis {
            writer,
            advance_seconds: 0.0,
            write_seconds: 0.0,
            bytes_shipped: 0,
            failures: Vec::new(),
        }
    }

    /// Surface the endpoint's refusal once, from the call that revealed
    /// it.
    fn report_refusal(&mut self, was_refused: bool) {
        if let (false, Some(step)) = (was_refused, self.writer.refused()) {
            self.failures.push(format!(
                "adios-flexpath: endpoint rank {} refused step {step}; nothing ships after it",
                self.writer.peer()
            ));
        }
    }
}

impl AnalysisAdaptor for AdiosWriterAnalysis {
    fn name(&self) -> &str {
        "adios-flexpath"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let probe = comm.probe();
        let was_refused = self.writer.refused().is_some();
        let advance = self.writer.advance(comm);
        self.report_refusal(was_refused);
        self.advance_seconds += advance;
        let t0 = probe::time::now_seconds();
        let shipped = {
            let mesh = data.full_mesh();
            // The step shares the producer's buffers and the payloads
            // are copied straight from them (the one copy of §4.1.4),
            // so the publish window stays open until the step is
            // written and dropped.
            let _publish = datamodel::publish_dataset(&mesh, "adios");
            // A marshal failure (wrong-space array) degrades to shipping
            // an empty step: the stream's step count stays aligned with
            // the endpoint while the failure surfaces through the bridge.
            let step = mesh_to_step(&mesh, data).unwrap_or_else(|err| {
                self.failures.push(format!("adios-flexpath: {err}"));
                BpStep::new(data.step(), data.time())
            });
            self.writer.write(comm, &step)
        };
        self.bytes_shipped += shipped;
        let write = (probe::time::now_seconds() - t0).max(0.0);
        self.write_seconds += write;
        // Fig. 8's decomposition as observability spans, plus the bytes
        // this rank put on the staging wire.
        probe.record_span("per-step/adios-flexpath/advance", advance);
        probe.record_span("per-step/adios-flexpath/write", write);
        if probe.is_enabled() {
            probe.message("staging/on_wire", shipped as u64);
        }
        Steering::Continue
    }

    fn finalize(&mut self, comm: &Comm) {
        let was_refused = self.writer.refused().is_some();
        self.writer.close(comm);
        self.report_refusal(was_refused);
    }

    fn take_failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}

/// Run the endpoint loop: receive steps until every served writer
/// closes or dies, driving `analyses` through a SENSEI bridge whose
/// collective communicator is the endpoint subgroup. Returns the bridge
/// (analysis result handles stay valid) and the run report.
///
/// Every received step is also published to `broker`
/// ([`StagingBroker::publish_step`]), which copies and allocates
/// nothing.
///
/// A writer lost mid-stream degrades gracefully: its stream ends (the
/// reader's per-writer deadline fires), the loop keeps serving the
/// surviving writers in lock-step with the other endpoints, and the
/// bytes/steps lost are surfaced through [`Bridge::failure_reports`].
pub fn run_endpoint_with_broker(
    world: &Comm,
    sub: &Comm,
    reader: &mut FlexpathReader,
    analyses: Vec<Box<dyn AnalysisAdaptor>>,
    broker: &StagingBroker,
) -> (Bridge, RunReport) {
    // Inherit whatever probe the caller attached to the endpoint
    // subgroup, so in-transit analyses land in the same report.
    let mut bridge = Bridge::with_probe(sub.probe());
    let probe = sub.probe();
    for a in analyses {
        bridge.register(a);
    }
    loop {
        let steps = reader.begin_step(world);
        // Every endpoint must agree on whether a round happens, because
        // the analyses are collective over `sub`. All writers advance in
        // lock-step, so per-endpoint None states coincide except when
        // writer counts differ per endpoint; reconcile with a reduction.
        let have = steps.is_some();
        let any = sub.allreduce_scalar(u8::from(have), |a, b| a.max(b));
        if any == 0 {
            break;
        }
        let steps = steps.unwrap_or_default();
        if probe.is_enabled() {
            // Payload bytes this endpoint pulled off the staging wire.
            for (_src, bp) in &steps {
                probe.message("staging/off_wire", bp.payload_bytes() as u64);
            }
        }
        for (_src, bp) in &steps {
            broker.publish_step(bp);
        }
        let blocks = round_blocks(&steps);
        let (step, time) = agreed_step_time(sub, &steps, &blocks);
        let adaptor = InMemoryAdaptor::new(DataSet::Multi(blocks), time, step);
        bridge.execute(&adaptor, sub);
        // The round's payloads go back to their writers, which marshal
        // the next step into those nothing holds by then: release the
        // adaptor's shares first.
        drop(adaptor);
        reader.end_step(world, steps);
    }
    for lost in reader.dead_writers() {
        bridge.record_failure(lost.clone());
    }
    let report = bridge.finalize(sub);
    (bridge, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::flexpath::{pair, Role};
    use datamodel::{DataArray, ScalarType};
    use minimpi::World;
    use sensei::analysis::histogram::HistogramAnalysis;
    use sensei::InMemoryAdaptor;
    use std::sync::Arc;

    fn marshal(data: &dyn DataAdaptor) -> BpStep {
        try_adaptor_to_step(data).expect("host-resident test data marshals")
    }

    /// The image blocks the endpoint builds from one writer's step.
    fn step_to_blocks(step: &BpStep) -> Vec<ImageData> {
        let blocks = round_blocks(&[(0, step.clone())]);
        let images = blocks.blocks().map(|block| {
            let DataSet::Image(grid) = block else {
                panic!("the endpoint builds image blocks")
            };
            grid.clone()
        });
        images.collect()
    }

    fn encoded(step: &BpStep) -> Vec<u8> {
        let mut out = Vec::new();
        step.encode_into(&mut out);
        out
    }

    /// The endpoint loop with a fresh tee.
    fn endpoint(
        world: &Comm,
        sub: &Comm,
        reader: &mut FlexpathReader,
        analyses: Vec<Box<dyn AnalysisAdaptor>>,
    ) -> (Bridge, RunReport) {
        let broker = StagingBroker::new(BrokerConfig::default());
        run_endpoint_with_broker(world, sub, reader, analyses, &broker)
    }

    fn sim_adaptor(rank: usize, n_writers: usize, step: u64) -> InMemoryAdaptor {
        let global = Extent::whole([2 * n_writers + 1, 3, 3]);
        let local = datamodel::partition_extent(&global, [n_writers, 1, 1], rank);
        let mut g = ImageData::new(local, global);
        let vals: Vec<f64> = local
            .iter_points()
            .map(|p| p[0] as f64 + step as f64)
            .collect();
        g.add_point_array(DataArray::owned("data", 1, vals));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    #[test]
    fn histogram_runs_in_transit() {
        // 2 writers + 2 endpoints: the histogram executes at the
        // endpoints over the reconstructed blocks.
        World::run(4, |world| match pair(world, 2) {
            Role::Writer { mut writer, .. } => {
                for s in 0..4u64 {
                    writer.advance(world);
                    let step = marshal(&sim_adaptor(world.rank(), 2, s));
                    writer.write(world, &step);
                }
                writer.close(world);
                None
            }
            Role::Endpoint { sub, mut reader } => {
                let hist = HistogramAnalysis::new("data", 8);
                let handle = hist.results_handle();
                let (bridge, _) = endpoint(world, &sub, &mut reader, vec![Box::new(hist)]);
                assert_eq!(bridge.steps(), 4);
                if sub.rank() == 0 {
                    let r = handle.lock().clone().expect("endpoint histogram");
                    // Global grid 5×3×3 points, split into 2 blocks of
                    // 3×3×3 = 54 total values.
                    assert_eq!(r.counts.iter().sum::<u64>(), 54);
                    assert_eq!(r.step, 3);
                    Some((r.min, r.max))
                } else {
                    None
                }
            }
        });
    }

    #[test]
    fn a_payload_an_analysis_holds_is_never_refilled() {
        // The analysis keeps every step's mesh, so every step's payload
        // is still held when the next frame arrives: each must get a
        // buffer of its own and keep its values to the bit.
        struct Hoard(Arc<parking_lot::Mutex<Vec<DataSet>>>);
        impl AnalysisAdaptor for Hoard {
            fn name(&self) -> &str {
                "hoard"
            }
            fn execute(&mut self, data: &dyn DataAdaptor, _comm: &Comm) -> Steering {
                self.0.lock().push(data.full_mesh());
                Steering::Continue
            }
        }
        const STEPS: u64 = 4;
        World::run(2, |world| match pair(world, 1) {
            Role::Writer { mut writer, .. } => {
                for s in 0..STEPS {
                    writer.advance(world);
                    writer.write(world, &marshal(&sim_adaptor(0, 1, s)));
                }
                writer.close(world);
            }
            Role::Endpoint { sub, mut reader } => {
                let held = Arc::default();
                let hoard = Box::new(Hoard(Arc::clone(&held)));
                endpoint(world, &sub, &mut reader, vec![hoard]);
                let held = held.lock();
                assert_eq!(held.len(), STEPS as usize);
                let mut buffers = Vec::new();
                for (s, mesh) in (0..STEPS).zip(held.iter()) {
                    let Some(DataSet::Image(grid)) = mesh.leaves().next() else {
                        panic!("the endpoint builds image blocks")
                    };
                    let got = grid.point_data.get("data").expect("the field is held");
                    let got = got
                        .values_in(0, datamodel::MemorySpace::Host)
                        .expect("host-resident");
                    let sent = marshal(&sim_adaptor(0, 1, s));
                    let Payload::F64(sent) = &sent.vars[0].data else {
                        panic!("f64 in, f64 out");
                    };
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(sent), "step {s}");
                    buffers.push(got.as_ptr());
                }
                buffers.sort_unstable();
                buffers.dedup();
                assert_eq!(buffers.len(), STEPS as usize, "one buffer per held step");
            }
        });
    }

    #[test]
    fn writer_analysis_reports_fig8_components() {
        World::run(2, |world| match pair(world, 1) {
            Role::Writer { .. } if false => unreachable!(),
            Role::Writer { sub, writer } => {
                let mut a = AdiosWriterAnalysis::new(writer);
                let mut bridge = Bridge::new();
                let sim0 = sim_adaptor(0, 1, 0);
                // Drive the adaptor directly (the bridge would Box it
                // away from our counters).
                for s in 0..3u64 {
                    a.execute(&sim_adaptor(0, 1, s), world);
                }
                a.finalize(world);
                assert!(a.bytes_shipped > 0);
                assert!(a.write_seconds > 0.0);
                assert!(a.advance_seconds >= 0.0);
                let _ = (bridge.steps(), sim0.step());
                // finalize gathers over its communicator, so the dummy
                // bridge must use the writer subgroup, not `world`.
                bridge.finalize(&sub);
            }
            Role::Endpoint { sub, mut reader } => {
                let (bridge, _) = endpoint(world, &sub, &mut reader, Vec::new());
                assert_eq!(bridge.steps(), 3);
            }
        });
    }

    #[test]
    fn adaptor_step_roundtrip_preserves_geometry() {
        let a = sim_adaptor(1, 2, 5);
        let step = marshal(&a);
        assert_eq!(step.step, 5);
        let blocks = step_to_blocks(&step);
        assert_eq!(blocks.len(), 1);
        let block = &blocks[0];
        assert_eq!(block.global_extent, Extent::whole([5, 3, 3]));
        assert_eq!(block.extent.lo[0], 2, "second writer's block offset");
        let arr = block.point_data.get("data").unwrap();
        assert_eq!(arr.num_tuples(), block.num_points());
    }

    /// A rank carrying two mesh leaves with distinct geometry: each leaf
    /// must ship as its own block with its own spacing/origin (the
    /// multi-leaf bug collapsed all leaves into one block with the last
    /// leaf's geometry).
    fn two_leaf_adaptor(step: u64) -> InMemoryAdaptor {
        let global = Extent::whole([4, 1, 1]);
        let mut mb = MultiBlock::new();
        for (i, (lo, hi)) in [([0, 0, 0], [1, 0, 0]), ([2, 0, 0], [3, 0, 0])]
            .into_iter()
            .enumerate()
        {
            let local = Extent::new(lo, hi);
            let mut g = ImageData::new(local, global)
                .with_geometry([i as f64 * 10.0, 0.0, 0.0], [1.0 + i as f64, 1.0, 1.0]);
            let vals: Vec<f64> = local
                .iter_points()
                .map(|p| p[0] as f64 + step as f64)
                .collect();
            g.add_point_array(DataArray::owned("data", 1, vals));
            mb.push(DataSet::Image(g));
        }
        InMemoryAdaptor::new(DataSet::Multi(mb), step as f64, step)
    }

    #[test]
    fn multi_leaf_rank_ships_one_block_per_leaf() {
        let step = marshal(&two_leaf_adaptor(2));
        assert_eq!(step.vars.len(), 2, "one var per leaf");
        // Full wire round-trip: leaf identity and geometry must survive
        // serialization, not just the in-memory step.
        let wire = BpStep::decode(&encoded(&step)).unwrap();
        let blocks = step_to_blocks(&wire);
        assert_eq!(blocks.len(), 2, "one block per leaf");
        assert_eq!(blocks[0].origin, [0.0, 0.0, 0.0]);
        assert_eq!(blocks[0].spacing, [1.0, 1.0, 1.0]);
        assert_eq!(blocks[1].origin, [10.0, 0.0, 0.0]);
        assert_eq!(blocks[1].spacing, [2.0, 1.0, 1.0]);
        assert_eq!(blocks[0].extent.lo[0], 0);
        assert_eq!(blocks[1].extent.lo[0], 2);
        let d1 = blocks[1].point_data.get("data").unwrap();
        assert_eq!(d1.num_tuples(), 2);
        assert_eq!(d1.get(0, 0), 4.0, "x=2 plus step 2");
    }

    // Regression: the marshal shipped a rectilinear leaf's *local*
    // corner as the origin, and the endpoint's image grid (whose origin
    // is global point 0's) then placed every block with `lo != 0` a
    // whole `lo * spacing` away from where it was.
    #[test]
    fn rectilinear_leaf_keeps_its_coordinates_in_transit() {
        let global = Extent::whole([8, 4, 3]);
        let local = Extent::new([3, 1, 1], [6, 3, 2]);
        // Exactly representable, so the comparison below is exact.
        let (origin, spacing) = ([10.0, -2.0, 0.5], [0.5, 0.25, 2.0]);
        let mut g = datamodel::RectilinearGrid::uniform(local, global, origin, spacing);
        g.add_point_array(DataArray::owned("data", 1, vec![0.0f64; g.num_points()]));
        let source = [g.x.clone(), g.y.clone(), g.z.clone()];
        let a = InMemoryAdaptor::new(DataSet::Rectilinear(g), 0.0, 0);
        let blocks = step_to_blocks(&marshal(&a));
        let block = &blocks[0];
        assert_eq!(block.extent, local);
        for p in local.iter_points() {
            let at = |a: usize| source[a][(p[a] - local.lo[a]) as usize];
            assert_eq!(block.point_coords(p), [at(0), at(1), at(2)], "point {p:?}");
        }
    }

    #[test]
    fn ghost_array_dtype_survives_transit() {
        let e = Extent::whole([3, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned("data", 1, vec![1.0f64, 2.0, 3.0]));
        g.add_point_array(DataArray::owned("vtkGhostType", 1, vec![0u8, 0, 1]));
        let a = InMemoryAdaptor::new(DataSet::Image(g), 0.0, 0);
        let wire = BpStep::decode(&encoded(&marshal(&a))).unwrap();
        let blocks = step_to_blocks(&wire);
        let ghost = blocks[0].point_data.get("vtkGhostType").unwrap();
        assert_eq!(
            ghost.scalar_type(),
            ScalarType::U8,
            "ghost markers must stay u8 so the endpoint recognizes them"
        );
        assert_eq!(ghost.get(2, 0), 1.0);
        let data = blocks[0].point_data.get("data").unwrap();
        assert_eq!(data.scalar_type(), ScalarType::F64);
    }

    #[test]
    fn reconcile_adopts_peer_step_for_empty_round() {
        World::run(2, |world| {
            let steps = if world.rank() == 0 {
                vec![(0usize, marshal(&sim_adaptor(0, 1, 7)))]
            } else {
                Vec::new()
            };
            let (step, time) = agreed_step_time(world, &steps, &round_blocks(&steps));
            assert_eq!(step, 7, "rank {}", world.rank());
            assert!((time - 7.0).abs() < 1e-12);
        });
    }

    #[test]
    fn dead_writer_degrades_to_end_of_stream() {
        use std::time::Duration;
        // Writer 0 ships 2 steps, then its third frame is lost in
        // transit and it dies without closing. Its endpoint must drain
        // to end-of-stream with a failure report — not hang — while the
        // other endpoint's stream finishes all 4 steps, with both
        // endpoints staying in lock-step.
        let faults = minimpi::FaultHandle::new();
        let hook = faults.clone();
        minimpi::WorldBuilder::new(4)
            .fault_handle(faults)
            .run(move |world| match pair(world, 2) {
                Role::Writer { mut writer, .. } if world.rank() == 0 => {
                    for s in 0..2u64 {
                        writer.advance(world);
                        writer.write(world, &marshal(&sim_adaptor(0, 2, s)));
                    }
                    writer.advance(world);
                    hook.drop_link(0, writer.peer());
                    writer.write(world, &marshal(&sim_adaptor(0, 2, 2)));
                    // Dies here: no close frame ever reaches the endpoint.
                }
                Role::Writer { mut writer, .. } => {
                    for s in 0..4u64 {
                        writer.advance(world);
                        writer.write(world, &marshal(&sim_adaptor(1, 2, s)));
                    }
                    writer.close(world);
                }
                Role::Endpoint { sub, mut reader } => {
                    reader.deadline = Duration::from_millis(150);
                    let (bridge, _) = endpoint(world, &sub, &mut reader, Vec::new());
                    assert_eq!(bridge.steps(), 4, "endpoints stay in lock-step");
                    if world.rank() == 2 {
                        let reports = bridge.failure_reports();
                        assert_eq!(reports.len(), 1, "lost writer surfaced");
                        assert_eq!(reports[0].kind(), "dead-writer");
                        let text = reports[0].to_string();
                        assert!(text.contains("writer rank 0"), "{text}");
                        assert!(text.contains("2 step(s)"), "{text}");
                        let wire = 2 * marshal(&sim_adaptor(0, 2, 0)).encoded_len() as u64;
                        assert_eq!(
                            reader.dead_writers(),
                            [sensei::FailureReport::DeadWriter {
                                rank: 0,
                                steps_received: 2,
                                bytes_received: wire,
                                waited: Duration::from_millis(150),
                            }]
                        );
                    } else {
                        assert!(bridge.failure_reports().is_empty());
                        assert!(reader.dead_writers().is_empty());
                    }
                }
            });
    }

    /// Writer 0's step `s` with its block moved outside its global grid:
    /// it encodes, and the endpoint's decoder refuses it.
    fn undecodable(s: u64) -> BpStep {
        let mut step = marshal(&sim_adaptor(0, 2, s));
        step.vars[0].offset[0] = step.vars[0].global_dims[0];
        step
    }

    #[test]
    fn corrupt_frame_drops_its_writer_and_spares_the_rest() {
        // Writer 0's second frame does not decode.
        refusal_spares_the_rest("block exceeds global dims", |writer, world| {
            assert!(writer.write(world, &undecodable(1)) > 0);
        });
    }

    #[test]
    fn mismatched_block_drops_its_writer_and_spares_the_rest() {
        // Writer 0's second step ships a payload block one element
        // short of what its header says: the framing parses, and the
        // block is refused, not adopted.
        refusal_spares_the_rest("block disagrees with its header", |writer, world| {
            writer.write_tampered(world, &marshal(&sim_adaptor(0, 2, 1)), |blocks| {
                let Payload::F64(values) = &mut blocks[0] else {
                    panic!("f64 in, f64 out");
                };
                Arc::make_mut(values).pop();
            });
        });
    }

    /// Writer 0's second step, shipped by `ship_bad`, is refused for
    /// `reason`. The
    /// endpoint drops that link with one typed report, refuses the
    /// writer — which runs on to the end, shipping nothing more — and
    /// keeps serving writer 1, whose block the last histogram then
    /// covers alone.
    fn refusal_spares_the_rest(reason: &'static str, ship_bad: fn(&mut FlexpathWriter, &Comm)) {
        const STEPS: u64 = 4;
        let alone = World::run(1, |comm| {
            let hist = HistogramAnalysis::new("data", 8);
            let handle = hist.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(hist));
            bridge.execute(&sim_adaptor(1, 2, STEPS - 1), comm);
            bridge.finalize(comm);
            let r = handle.lock().clone().expect("in situ histogram");
            (r.counts, r.min.to_bits(), r.max.to_bits())
        })
        .remove(0);
        World::run(3, move |world| match pair(world, 2) {
            Role::Writer { writer, .. } if world.rank() == 0 => {
                let mut ship = AdiosWriterAnalysis::new(writer);
                ship.execute(&sim_adaptor(0, 2, 0), world);
                let first = ship.bytes_shipped;
                ship.writer.advance(world);
                ship_bad(&mut ship.writer, world);
                for s in 2..STEPS {
                    ship.execute(&sim_adaptor(0, 2, s), world);
                }
                ship.finalize(world);
                assert_eq!(ship.writer.refused(), Some(1));
                assert_eq!(ship.bytes_shipped, first, "nothing ships after the refusal");
                assert_eq!(
                    ship.take_failures(),
                    ["adios-flexpath: endpoint rank 2 refused step 1; nothing ships after it"]
                );
            }
            Role::Writer { mut writer, .. } => {
                for s in 0..STEPS {
                    writer.advance(world);
                    writer.write(world, &marshal(&sim_adaptor(1, 2, s)));
                }
                writer.close(world);
            }
            Role::Endpoint { sub, mut reader } => {
                let hist = HistogramAnalysis::new("data", 8);
                let handle = hist.results_handle();
                let (bridge, _) = endpoint(world, &sub, &mut reader, vec![Box::new(hist)]);
                assert_eq!(bridge.steps(), STEPS, "writer 1's stream finished");
                let reports = bridge.failure_reports();
                assert_eq!(reports.len(), 1, "{reports:?}");
                assert_eq!(reports[0].kind(), "corrupt-frame");
                let text = reports[0].to_string();
                assert!(text.contains("writer rank 0"), "{text}");
                assert!(text.contains("1 step(s)"), "{text}");
                assert!(text.contains("corrupt BP data"), "{text}");
                assert!(text.contains(reason), "{text}");
                let r = handle.lock().clone().expect("endpoint histogram");
                assert_eq!((r.counts, r.min.to_bits(), r.max.to_bits()), alone);
            }
        });
    }

    #[test]
    fn i64_extremes_survive_transit() {
        // Integers no f64 holds exactly: they travel as themselves.
        let extremes = vec![i64::MAX, i64::MIN, (1 << 53) + 1];
        let e = Extent::whole([3, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned("ids", 1, extremes.clone()));
        let a = InMemoryAdaptor::new(DataSet::Image(g), 0.0, 0);
        let wire = BpStep::decode(&encoded(&marshal(&a))).unwrap();
        let mesh = round_adaptor(&[(0, wire)]).full_mesh();
        let ids = mesh.leaves().next().and_then(DataSet::point_data).unwrap();
        let ids = ids.get("ids").expect("the array survives");
        assert_eq!(
            ids.as_slice_in::<i64>(datamodel::current_space()).unwrap(),
            extremes
        );
    }

    #[test]
    fn round_adaptor_presents_multiblock() {
        let s0 = marshal(&sim_adaptor(0, 2, 1));
        let s1 = marshal(&sim_adaptor(1, 2, 1));
        let adaptor = round_adaptor(&[(0, s0), (1, s1)]);
        let mesh = adaptor.full_mesh();
        assert_eq!(mesh.leaves().count(), 2);
        assert_eq!(
            adaptor.array_names(sensei::Association::Point),
            vec!["data".to_string()]
        );
        let total: usize = mesh
            .leaves()
            .map(|l| l.point_data().unwrap().get("data").unwrap().num_tuples())
            .sum();
        assert_eq!(total, 54);
    }
}
