//! Topology-aware aggregation with an asynchronous drain thread.
//!
//! Each aggregator is a **staging-broker topic**: the assembled node
//! step publishes to `("glean/<array>", aggregator)` on an
//! [`adios::broker::Broker`], and the drain thread that appends it to
//! the aggregator's `.bp` file is just that topic's first subscriber.
//! Any number of additional consumers (live monitors, secondary
//! analyses) can subscribe to the same topic via
//! [`GleanWriter::with_broker`] without touching the aggregation path —
//! the same one-producer/N-consumer contract as the FlexPath staging
//! broker, with the same bounded-queue backpressure and slow-consumer
//! eviction semantics.
//!
//! A node step is the members' BP-lite steps in rank order, which is
//! what [`adios::staging::round_adaptor`] takes: the files read back
//! with [`adios::BpFile::read_all`] are a data adaptor again.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

use adios::broker::{Broker, BrokerConfig, TopicKey};
use adios::{BpError, BpFile, BpStep};
use minimpi::Comm;
use probe::time::Wall;
use sensei::analysis::ReportOnce;
use sensei::{AnalysisAdaptor, Association, DataAdaptor, FailureReport, Steering};

const TAG_AGG: u32 = 0x61E4_0001;

/// Default deadline for one node member's block to reach its
/// aggregator. Mirrors the FlexPath reader's writer deadline.
const DEFAULT_MEMBER_DEADLINE: Duration = Duration::from_secs(30);

/// Default bound on how long `finalize` waits for the drain thread to
/// flush and exit before declaring the aggregator's file suspect.
const DEFAULT_FINALIZE_DEADLINE: Duration = Duration::from_secs(30);

/// Steps of slack between the aggregator and its drain subscriber
/// before backpressure kicks in.
const DRAIN_QUEUE_DEPTH: usize = 8;

/// The machine topology GLEAN exploits: which ranks share a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// MPI ranks per compute node.
    pub ranks_per_node: usize,
}

impl Topology {
    /// Build; `ranks_per_node` must be positive.
    pub fn new(ranks_per_node: usize) -> Self {
        assert!(ranks_per_node > 0, "ranks_per_node must be positive");
        Topology { ranks_per_node }
    }

    /// The aggregator (first rank of the node) for `rank`.
    pub fn aggregator_of(&self, rank: usize) -> usize {
        (rank / self.ranks_per_node) * self.ranks_per_node
    }

    /// Is `rank` an aggregator?
    pub fn is_aggregator(&self, rank: usize) -> bool {
        self.aggregator_of(rank) == rank
    }

    /// Ranks aggregated by `agg` (including itself) in a `size`-rank job.
    pub fn node_members(&self, agg: usize, size: usize) -> Vec<usize> {
        debug_assert!(self.is_aggregator(agg));
        (agg..(agg + self.ranks_per_node).min(size)).collect()
    }

    /// Number of aggregators in a `size`-rank job.
    pub fn num_aggregators(&self, size: usize) -> usize {
        size.div_ceil(self.ranks_per_node)
    }
}

/// SENSEI analysis adaptor enabling GLEAN-accelerated output: every rank
/// marshals its block into a BP-lite step and forwards it to its node
/// aggregator; aggregators publish the assembled node step to their
/// broker topic, whose drain subscriber (a background thread) appends
/// it to one `.bp` file per aggregator.
pub struct GleanWriter {
    topology: Topology,
    array: String,
    output_dir: PathBuf,
    /// The topic fabric node steps publish through. Private by
    /// default; share one via [`GleanWriter::with_broker`] to let
    /// other consumers watch the aggregation stream.
    broker: Broker<Vec<(usize, BpStep)>>,
    drain: Option<JoinHandle<Result<(), BpError>>>,
    /// Steps accepted so far.
    steps: u64,
    /// Bytes forwarded or aggregated by this rank so far.
    pub bytes_handled: u64,
    failures: Vec<String>,
    /// Typed failures: dead node members and evicted subscribers.
    reports: Vec<FailureReport>,
    /// Why this rank had no block to forward, the first time.
    missing: ReportOnce,
    member_deadline: Duration,
    finalize_deadline: Duration,
    /// Node members declared dead (skipped in later gathers).
    dead_ranks: BTreeSet<usize>,
    /// Test hook: artificial per-step latency in the drain subscriber,
    /// to exercise the finalize deadline path.
    drain_delay: Duration,
}

impl GleanWriter {
    /// Create the writer. The drain thread is started lazily on the
    /// aggregator's first step (so non-aggregators never spawn one).
    pub fn new(topology: Topology, array: impl Into<String>, output_dir: PathBuf) -> Self {
        GleanWriter {
            topology,
            array: array.into(),
            output_dir,
            broker: Broker::new(BrokerConfig {
                queue_depth: DRAIN_QUEUE_DEPTH,
                ..BrokerConfig::default()
            }),
            drain: None,
            steps: 0,
            bytes_handled: 0,
            failures: Vec::new(),
            reports: Vec::new(),
            missing: ReportOnce::default(),
            member_deadline: DEFAULT_MEMBER_DEADLINE,
            finalize_deadline: DEFAULT_FINALIZE_DEADLINE,
            dead_ranks: BTreeSet::new(),
            drain_delay: Duration::ZERO,
        }
    }

    /// Publish through a shared broker instead of a private one, so
    /// external subscribers can watch this writer's aggregation topic
    /// (key `("glean/<array>", aggregator-rank)`).
    pub fn with_broker(mut self, broker: Broker<Vec<(usize, BpStep)>>) -> Self {
        self.broker = broker;
        self
    }

    /// The topic an aggregator rank publishes to.
    pub fn topic(&self, agg: usize) -> TopicKey {
        TopicKey::new(format!("glean/{}", self.array), agg as u32)
    }

    /// Override the per-member gather deadline (tests use short ones).
    pub fn set_member_deadline(&mut self, deadline: Duration) {
        self.member_deadline = deadline;
    }

    /// Override the finalize drain-join deadline.
    pub fn set_finalize_deadline(&mut self, deadline: Duration) {
        self.finalize_deadline = deadline;
    }

    /// Test hook: make the drain subscriber sleep this long per step,
    /// to exercise the finalize-deadline path deterministically.
    #[doc(hidden)]
    pub fn set_drain_delay(&mut self, delay: Duration) {
        self.drain_delay = delay;
    }

    /// The `.bp` file aggregator `agg` drains to: every node step's
    /// member steps, appended in rank order.
    pub fn file_path(dir: &std::path::Path, agg: usize) -> PathBuf {
        dir.join(format!("glean_{agg:06}.bp"))
    }

    /// Steps processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// This rank's block: the field's mesh (the array, the producer's
    /// ghost flags and the geometry) marshalled into a step that owns
    /// its payloads, since it outlives the step on the drain thread.
    fn local_step(&mut self, data: &dyn DataAdaptor) -> Option<BpStep> {
        let field = data.field(Association::Point, &self.array);
        let step = match field.mesh() {
            Ok(mesh) => adios::staging::marshal(mesh, data, "glean"),
            Err(err) => Err(err.clone()),
        };
        step.map_err(|cause| {
            self.missing.report(cause);
            self.failures.extend(self.missing.take());
        })
        .ok()
    }

    /// Move the broker's eviction records into the typed reports.
    fn take_evictions(&mut self) {
        let evicted = self.broker.take_evictions();
        self.reports
            .extend(evicted.into_iter().map(FailureReport::from));
    }

    /// Start the drain subscriber on first use: it subscribes to this
    /// aggregator's topic and persists every node step it receives.
    /// Returns whether a drain (now) exists; `false` means the
    /// subscription was refused and the failure has been recorded.
    fn ensure_drain(&mut self, agg: usize) -> bool {
        if self.drain.is_some() {
            return true;
        }
        let path = Self::file_path(&self.output_dir, agg);
        let topic = self.topic(agg);
        let sub = match self
            .broker
            .subscribe_labeled(topic.clone(), format!("glean-drain-{agg}"))
        {
            Ok(sub) => sub,
            Err(e) => {
                self.failures
                    .push(format!("glean: drain subscription refused: {e}"));
                return false;
            }
        };
        let delay = self.drain_delay;
        let handle = std::thread::spawn(move || -> Result<(), BpError> {
            // A run leaves one file per aggregator, empty if nothing
            // was aggregated.
            std::fs::File::create(&path)?;
            loop {
                match sub.recv_deadline(Duration::from_millis(200)) {
                    Ok(Some(msg)) => {
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        for (_, step) in msg.payload.iter() {
                            BpFile::append(&path, step)?;
                        }
                    }
                    // End-of-stream (topic finished, queue drained) or
                    // this subscriber was evicted for falling behind —
                    // either way there is nothing left to persist.
                    Ok(None) => break,
                    // Quiet stretch; keep waiting. finalize() bounds
                    // the writer-side wait, not this loop.
                    Err(()) => continue,
                }
            }
            Ok(())
        });
        self.drain = Some(handle);
        true
    }
}

impl AnalysisAdaptor for GleanWriter {
    fn name(&self) -> &str {
        "glean-write"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        self.steps += 1;
        let me = comm.rank();
        let agg = self.topology.aggregator_of(me);
        let block = self.local_step(data);
        if let Some(b) = &block {
            self.bytes_handled += b.payload_bytes() as u64;
        }
        if me != agg {
            // Ownership of the marshalled step moves to the aggregator:
            // no second copy.
            comm.send(agg, TAG_AGG, block);
            return Steering::Continue;
        }
        // Gather with a multi-peer select and a deadline: one slow
        // member no longer hangs the whole node, and a dead member is
        // recorded once and skipped from every later step — mirroring
        // the FlexPath reader's DeadWriter semantics.
        let mut awaiting: Vec<usize> = self
            .topology
            .node_members(agg, comm.size())
            .into_iter()
            .filter(|&p| p != me && !self.dead_ranks.contains(&p))
            .collect();
        let mut blocks: Vec<(usize, BpStep)> = Vec::with_capacity(awaiting.len() + 1);
        blocks.extend(block.map(|b| (me, b)));
        while !awaiting.is_empty() {
            match comm.recv_any_of_deadline::<Option<BpStep>>(
                &awaiting,
                TAG_AGG,
                self.member_deadline,
            ) {
                Ok((peer, b)) => {
                    awaiting.retain(|&p| p != peer);
                    blocks.extend(b.map(|b| (peer, b)));
                }
                Err(_) => {
                    // Every member still awaited was silent for the
                    // whole window: declare them all dead at once.
                    for &peer in &awaiting {
                        self.dead_ranks.insert(peer);
                        self.reports.push(FailureReport::DeadMember {
                            rank: peer,
                            steps_received: self.steps.saturating_sub(1),
                            waited: self.member_deadline,
                        });
                    }
                    awaiting.clear();
                }
            }
        }
        blocks.sort_by_key(|&(rank, _)| rank);
        if self.ensure_drain(agg) {
            let topic = self.topic(agg);
            self.broker.publish(&topic, blocks);
            self.take_evictions();
        }
        Steering::Continue
    }

    fn finalize(&mut self, comm: &Comm) {
        if let Some(handle) = self.drain.take() {
            let agg = self.topology.aggregator_of(comm.rank());
            self.broker.finish(&self.topic(agg));
            // Join with a deadline: a wedged drain (dead disk, hung
            // filesystem) must not hang the whole job at exit. The
            // thread is detached past the deadline and the suspect
            // file is surfaced through take_failures.
            let start = Wall::now();
            let joined = loop {
                if handle.is_finished() {
                    break true;
                }
                if start.elapsed() >= self.finalize_deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            if !joined {
                self.failures.push(format!(
                    "glean: drain thread did not finish within {:?}; the file of \
                     aggregator {agg} may be truncated or unflushed",
                    self.finalize_deadline
                ));
                return;
            }
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => self.failures.push(format!("drain thread: {e}")),
                Err(_) => self.failures.push("drain thread panicked".to_string()),
            }
            self.take_evictions();
        }
    }

    fn take_failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }

    fn take_failure_reports(&mut self) -> Vec<FailureReport> {
        std::mem::take(&mut self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{partition_extent, DataArray, DataSet, Extent, ImageData};
    use minimpi::World;
    use sensei::{Bridge, InMemoryAdaptor};

    /// Every member step aggregator `agg` appended, in file order.
    fn read_back(dir: &std::path::Path, agg: usize) -> Vec<BpStep> {
        BpFile::read_all(&GleanWriter::file_path(dir, agg)).expect("the aggregator's file parses")
    }

    /// The `(step, x offset)` of each member step in a file: the rank
    /// order of the node steps, since the test grids split along x.
    fn steps_and_offsets(steps: &[BpStep]) -> Vec<(u64, u64)> {
        steps
            .iter()
            .map(|s| (s.step, s.vars[0].offset[0]))
            .collect()
    }

    fn adaptor(comm: &Comm, step: u64) -> InMemoryAdaptor {
        let global = Extent::whole([9, 3, 3]);
        let local = partition_extent(&global, [comm.size(), 1, 1], comm.rank());
        let mut g = ImageData::new(local, global);
        let vals: Vec<f64> = local.iter_points().map(|p| p[0] as f64).collect();
        g.add_point_array(DataArray::owned("data", 1, vals));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    #[test]
    fn topology_math() {
        let t = Topology::new(4);
        assert_eq!(t.aggregator_of(0), 0);
        assert_eq!(t.aggregator_of(3), 0);
        assert_eq!(t.aggregator_of(4), 4);
        assert!(t.is_aggregator(4));
        assert!(!t.is_aggregator(5));
        assert_eq!(t.node_members(4, 6), vec![4, 5]);
        assert_eq!(t.num_aggregators(6), 2);
        assert_eq!(t.num_aggregators(8), 2);
    }

    #[test]
    fn aggregates_all_ranks_into_few_files() {
        let dir = std::env::temp_dir().join(format!("glean_agg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        World::run(4, move |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(GleanWriter::new(
                Topology::new(2),
                "data",
                d2.clone(),
            )));
            for s in 0..3u64 {
                bridge.execute(&adaptor(comm, s), comm);
            }
            bridge.finalize(comm);
        });
        // 4 ranks, 2 per node → 2 files.
        let f0 = read_back(&dir, 0);
        let f2 = read_back(&dir, 2);
        assert!(!GleanWriter::file_path(&dir, 1).exists());
        // Each node step is both node members' steps, rank-sorted.
        let lo = |r| partition_extent(&Extent::whole([9, 3, 3]), [4, 1, 1], r).lo[0] as u64;
        let node = |a, b| (0..3).flat_map(move |s| [(s, lo(a)), (s, lo(b))]);
        assert_eq!(steps_and_offsets(&f0), node(0, 1).collect::<Vec<_>>());
        assert_eq!(steps_and_offsets(&f2), node(2, 3).collect::<Vec<_>>());
        // Every point of the global grid is present once per step
        // across the two files (shared planes belong to both blocks, so
        // compare against the sum of local point counts).
        let step0 = [&f0[..2], &f2[..2]].concat();
        let total: usize = step0.iter().map(|s| s.payload_bytes() / 8).sum();
        let expect: usize = (0..4)
            .map(|r| partition_extent(&Extent::whole([9, 3, 3]), [4, 1, 1], r).num_points())
            .sum();
        assert_eq!(total, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_node_topology_single_file() {
        let dir = std::env::temp_dir().join(format!("glean_one_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        World::run(3, move |comm| {
            let mut w = GleanWriter::new(Topology::new(8), "data", d2.clone());
            w.execute(&adaptor(comm, 0), comm);
            w.finalize(comm);
            if comm.rank() == 0 {
                assert!(w.bytes_handled > 0);
            }
        });
        let steps = read_back(&dir, 0);
        assert_eq!(steps.len(), 3, "all three ranks aggregated");
        assert!(steps.iter().all(|s| s.step == 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn big_adaptor(step: u64) -> InMemoryAdaptor {
        // ~1.4 MB of field data: large enough that an unjoined drain
        // thread would still be mid-write when the process moves on.
        let global = Extent::whole([200, 30, 30]);
        let mut g = ImageData::new(global, global);
        let vals: Vec<f64> = global.iter_points().map(|p| p[0] as f64).collect();
        g.add_point_array(DataArray::owned("data", 1, vals));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    // Regression (finalize/drain race): finalizing immediately after a
    // large step must wait for the drain subscriber, so the file holds
    // the complete step — truncated/unflushed files were the failure
    // mode when finalize did not join the drain with a bound.
    #[test]
    fn finalize_right_after_large_step_leaves_complete_file() {
        let dir = std::env::temp_dir().join(format!("glean_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        World::run(1, move |comm| {
            let mut w = GleanWriter::new(Topology::new(1), "data", d2.clone());
            w.execute(&big_adaptor(0), comm);
            // No settling delay: finalize races the drain on purpose.
            w.finalize(comm);
            assert!(w.take_failures().is_empty(), "clean run reports nothing");
        });
        let steps = read_back(&dir, 0);
        assert_eq!(steps.len(), 1);
        let expect = Extent::whole([200, 30, 30]).num_points();
        assert_eq!(steps[0].payload_bytes(), expect * 8, "step complete");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The other side of the same bugfix: a wedged drain must not hang
    // finalize forever — the join deadline fires and the failure is
    // surfaced through take_failures instead.
    #[test]
    fn finalize_deadline_surfaces_wedged_drain() {
        let dir = std::env::temp_dir().join(format!("glean_wedge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        World::run(1, move |comm| {
            let mut w = GleanWriter::new(Topology::new(1), "data", d2.clone());
            w.set_drain_delay(Duration::from_millis(400));
            w.set_finalize_deadline(Duration::from_millis(40));
            w.execute(&adaptor(comm, 0), comm);
            let t0 = Wall::now();
            w.finalize(comm);
            assert!(
                t0.elapsed() < Duration::from_millis(350),
                "finalize must give up at its deadline, not wait out the drain"
            );
            let failures = w.take_failures();
            assert_eq!(failures.len(), 1, "failures: {failures:?}");
            assert!(
                failures[0].contains("did not finish within"),
                "unexpected failure text: {}",
                failures[0]
            );
        });
        // Let the detached drain finish before deleting its directory.
        std::thread::sleep(Duration::from_millis(600));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Regression (unbounded gather recv): a node member whose link to
    // the aggregator is cut must not hang the node — the gather
    // deadline fires, the member is recorded dead (DeadWriter-style)
    // and skipped from every later step.
    #[test]
    fn dead_member_degrades_instead_of_hanging() {
        let dir = std::env::temp_dir().join(format!("glean_dead_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        let faults = minimpi::FaultHandle::new();
        faults.drop_link(1, 0); // member 1 -> aggregator 0
        let (handle, healer) = (faults.clone(), faults.clone());
        minimpi::WorldBuilder::new(2)
            .fault_handle(handle)
            .run(move |comm| {
                let mut w = GleanWriter::new(Topology::new(2), "data", d2.clone());
                w.set_member_deadline(Duration::from_millis(60));
                let mut bridge = Bridge::new();
                bridge.register(Box::new(w));
                for s in 0..3u64 {
                    bridge.execute(&adaptor(comm, s), comm);
                }
                if comm.rank() == 1 {
                    // Every block is sent (and dropped); the link comes
                    // back so the bridge's report gather reaches rank 0.
                    healer.heal();
                }
                let report = bridge.finalize(comm);
                if comm.rank() == 0 {
                    // Recorded once, typed, then skipped.
                    let failures = bridge.failure_reports();
                    assert_eq!(failures.len(), 1, "{failures:?}");
                    assert_eq!(failures[0].kind(), "dead-member");
                    assert!(matches!(
                        failures[0],
                        FailureReport::DeadMember {
                            rank: 1,
                            steps_received: 0,
                            ..
                        }
                    ));
                    let kinds: Vec<&str> =
                        report.failures.iter().map(|f| f.kind.as_str()).collect();
                    assert_eq!(kinds, ["dead-member"]);
                }
            });
        assert_eq!(faults.dropped(), 3, "every forwarded block was dropped");
        // All three steps persisted with the aggregator's own block
        // only: the dead member's blocks must not appear.
        assert_eq!(
            steps_and_offsets(&read_back(&dir, 0)),
            [(0, 0), (1, 0), (2, 0)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Aggregators are broker topics: an external subscriber on a shared
    // broker watches the aggregation stream without touching the
    // drain path.
    #[test]
    fn external_subscriber_watches_aggregator_topic() {
        use adios::broker::{Broker, BrokerConfig};
        let dir = std::env::temp_dir().join(format!("glean_watch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        World::run(2, move |comm| {
            let broker: Broker<Vec<(usize, BpStep)>> = Broker::new(BrokerConfig {
                queue_depth: 8,
                ..BrokerConfig::default()
            });
            let mut w =
                GleanWriter::new(Topology::new(2), "data", d2.clone()).with_broker(broker.clone());
            let watcher = if comm.rank() == 0 {
                Some(broker.subscribe_labeled(w.topic(0), "watcher").unwrap())
            } else {
                None
            };
            for s in 0..3u64 {
                w.execute(&adaptor(comm, s), comm);
            }
            w.finalize(comm);
            if let Some(watcher) = watcher {
                let mut steps = Vec::new();
                while let Some(msg) = watcher.try_next() {
                    let ranks: Vec<usize> = msg.payload.iter().map(|&(r, _)| r).collect();
                    assert_eq!(ranks, [0, 1], "both node members aggregated");
                    steps.push(msg.payload[0].1.step);
                }
                assert_eq!(steps, vec![0, 1, 2], "watcher saw every node step");
                assert!(watcher.is_eos(), "finalize finished the topic");
            }
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_array_forwards_nothing_but_completes() {
        let dir = std::env::temp_dir().join(format!("glean_missing_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d2 = dir.clone();
        World::run(2, move |comm| {
            let mut w = GleanWriter::new(Topology::new(2), "absent", d2.clone());
            w.execute(&adaptor(comm, 0), comm);
            w.finalize(comm);
        });
        assert!(read_back(&dir, 0).is_empty(), "an empty file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
