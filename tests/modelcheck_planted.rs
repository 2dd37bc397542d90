//! Planted-bug corpus for the systematic model checker.
//!
//! Each test plants one concurrency or protocol bug — GLEAN's wait on
//! a full drain queue, a reply-order deadlock over plain point-to-point
//! messages, the publish-window and GLEAN-drain obligations, steering
//! command application — and asserts the
//! [`minimpi::Checker`] finds it within a deterministic schedule
//! budget, minimizes the failing schedule with the ddmin shrinker, and
//! replays the shrunk trace bitwise under `SchedPolicy::Replay`. The
//! clean twins of the same protocols run under the same checker with
//! zero findings.
//!
//! The last four tests sweep the substrate's riskiest surfaces — mixed
//! collectives with an `ANY_SOURCE` fan-in, the FlexPath staging
//! handshake, the zero-copy publish discipline, and compositing's lent
//! strips — at six ranks (and three, for compositing) with the
//! sanitizer armed. A failure writes its minimized delivery trace to
//! `results/minimized_trace_<scenario>.json` before the test panics;
//! replay it with `SchedPolicy::Replay(Trace::from_json(..))`.

use std::sync::Arc;
use std::time::Duration;

use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, BpStep, BpVar, BrokerConfig, Payload, Role, StagingBroker};
use datamodel::{DataArray, DataSet, Extent, ImageData};
use minimpi::{Checker, Comm, LivenessSpec, Verdict};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use render::composite::{composite, Compositor};
use render::{Color, Framebuffer};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::analysis::AnalysisAdaptor;
use sensei::{Bridge, InMemoryAdaptor};

/// A per-rank image with one zero-copy (shared) point array, built
/// inside the world so the rank's sanitizer context shadows it.
fn shared_image(n: [usize; 3]) -> DataSet {
    let whole = Extent::whole(n);
    let mut img = ImageData::new(whole, whole);
    let pts = img.num_points();
    img.point_data
        .insert(DataArray::shared("u", 1, Arc::new(vec![0.0f64; pts])));
    DataSet::Image(img)
}

/// A small per-rank step with a `data` point array.
fn data_step(step: u64) -> InMemoryAdaptor {
    let whole = Extent::whole([4, 4, 1]);
    let mut img = ImageData::new(whole, whole);
    img.add_point_array(DataArray::owned("data", 1, vec![step as f64; 16]));
    InMemoryAdaptor::new(DataSet::Image(img), step as f64, step)
}

/// A directory of this process's own for one GLEAN scenario.
fn glean_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("planted_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Remove a [`glean_dir`] whose drain threads a planted bug left
/// unjoined: the last one may still be creating its file or appending
/// its step, so a removal that races it is retried for up to a second.
fn remove_glean_dir(dir: &std::path::Path) {
    let mut removed = std::fs::remove_dir_all(dir);
    for _ in 0..100 {
        if removed.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        removed = std::fs::remove_dir_all(dir);
    }
    removed.expect("scratch dir removed");
}

/// GLEAN's bounded drain hand-off with a drain thread that never takes
/// a node step. Once the queue is full, the aggregator's next step
/// waits at a scheduling point: with an effectively infinite drain
/// deadline it spins forever — the planted livelock; with a zero
/// deadline the drain is cut off, reported, and the run goes on — the
/// clean twin.
fn glean_backpressure(comm: &Comm, dir: std::path::PathBuf, deadline: Duration) {
    let mut writer = glean::GleanWriter::new(glean::Topology::new(1), "data", dir);
    writer.set_drain_delay(Duration::from_secs(3600));
    writer.set_drain_deadline(deadline);
    for step in 0..64 {
        writer.execute(&data_step(step), comm);
        let reports = writer.take_failure_reports();
        if let Some(report) = reports.first() {
            assert_eq!(report.kind(), "slow-drain", "{report}");
            // Closes the hand-off; the wedged thread is left behind at
            // the (zero) drain deadline.
            writer.finalize(comm);
            return;
        }
    }
    panic!("the drain queue never filled");
}

/// The backpressure livelock: a producer spinning forever on a full
/// queue its consumer never drains, planted on GLEAN's drain hand-off.
#[test]
fn broker_backpressure_livelock_is_found_minimized_and_replayed() {
    let dir = glean_dir("spin");
    let d2 = dir.clone();
    let report = Checker::new()
        .max_schedules(8)
        .liveness(LivenessSpec {
            max_decisions: 100_000,
            spin_limit: 64,
            starvation_window: 0,
        })
        .run(2, move |comm| {
            if comm.rank() == 0 {
                glean_backpressure(comm, d2.clone(), Duration::from_secs(3600));
            }
        });
    let failure = report.failure.expect("the planted livelock must be found");
    assert!(
        failure.message.contains("livelock: world rank 0 spun"),
        "spin-limit breach names the spinning rank: {}",
        failure.message
    );
    assert!(
        failure.message.contains("backpressure"),
        "the report points at the backpressure shape: {}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "shrunk schedule replays bitwise");
    assert!(
        failure.prefix.is_empty(),
        "a schedule-independent livelock shrinks to the empty prefix"
    );
    remove_glean_dir(&dir);
}

/// The same shape with the consumer cut off (evicted) at the deadline.
#[test]
fn broker_backpressure_with_eviction_is_clean() {
    let dir = glean_dir("cut");
    let d2 = dir.clone();
    let report = Checker::new()
        .max_schedules(8)
        .liveness(LivenessSpec {
            max_decisions: 100_000,
            spin_limit: 64,
            starvation_window: 0,
        })
        .run(2, move |comm| {
            if comm.rank() == 0 {
                // Zero deadline: the stalled drain is cut off on the
                // first wait and the aggregator proceeds.
                glean_backpressure(comm, d2.clone(), Duration::ZERO);
            }
        });
    assert!(
        report.failure.is_none(),
        "cutting the drain off ends the wait: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(!report.stats.budget_exhausted);
    remove_glean_dir(&dir);
}

// A request/reply protocol over point-to-point messages: rank 0 sends
// two jobs, and the worker replies to each and waits for its ack
// before starting the next. Replies must be collected in send order.
const JOB: u32 = 31;
const RES: u32 = 40;
const ACK: u32 = 50;

#[test]
fn reply_order_deadlock_is_found_minimized_and_replayed() {
    let report = Checker::new().max_schedules(16).run(2, |comm| {
        match comm.rank() {
            0 => {
                comm.send(1, JOB, 0u64);
                comm.send(1, JOB, 1u64);
                // BUG: collects replies in reverse send order, but
                // the worker acks each job before starting the next —
                // rank 0 waits for a result the worker will never
                // produce while the worker waits for rank 0's ack.
                let _late: u64 = comm.recv(1, RES + 1);
                comm.send(1, ACK + 1, 0u64);
                let _early: u64 = comm.recv(1, RES);
                comm.send(1, ACK, 0u64);
            }
            _ => {
                for _ in 0..2 {
                    let job: u64 = comm.recv(0, JOB);
                    comm.send(0, RES + job as u32, job);
                    let _: u64 = comm.recv(0, ACK + job as u32);
                }
            }
        }
    });
    let failure = report
        .failure
        .expect("the reply-order deadlock must be found");
    assert!(
        failure.message.contains("deterministic deadlock detected"),
        "{}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "shrunk schedule replays bitwise");
    assert!(
        failure.prefix.is_empty(),
        "the deadlock is schedule-independent; ddmin reaches the empty prefix"
    );
}

#[test]
fn replies_in_send_order_are_clean() {
    let report = Checker::new()
        .max_schedules(64)
        .run(2, |comm| match comm.rank() {
            0 => {
                comm.send(1, JOB, 0u64);
                comm.send(1, JOB, 1u64);
                for job in 0..2u32 {
                    let _res: u64 = comm.recv(1, RES + job);
                    comm.send(1, ACK + job, 0u64);
                }
            }
            _ => {
                for _ in 0..2 {
                    let job: u64 = comm.recv(0, JOB);
                    comm.send(0, RES + job as u32, job);
                    let _: u64 = comm.recv(0, ACK + job as u32);
                }
            }
        });
    assert!(
        report.failure.is_none(),
        "send-order replies terminate: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(
        !report.stats.budget_exhausted,
        "the schedule tree completes"
    );
}

#[test]
fn unclosed_publish_window_is_found_and_replayed() {
    let report = Checker::new().max_schedules(8).sanitize().run(2, |comm| {
        if comm.rank() == 0 {
            let data = shared_image([4, 4, 1]);
            // BUG: the window guard is leaked — the zero-copy view
            // stays staged past the end of the step, and nothing can
            // ever close it.
            std::mem::forget(datamodel::publish_dataset(&data, "planted"));
        }
        comm.barrier();
    });
    let failure = report.failure.expect("the leaked window must be found");
    assert!(
        failure.message.contains("view-leak"),
        "sanitizer finding promoted to a checker failure: {}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "shrunk schedule replays bitwise");
}

#[test]
fn unclosed_glean_drain_is_an_obligation_leak() {
    let dir = glean_dir("leak");
    let d2 = dir.clone();
    let report = Checker::new()
        .max_schedules(8)
        .sanitize()
        .run(1, move |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(glean::GleanWriter::new(
                glean::Topology::new(1),
                "data",
                d2.clone(),
            )));
            bridge.execute(&data_step(0), comm);
            // BUG: the bridge is dropped without `finalize` — the drain's
            // hand-off is never closed and its thread never joined.
        });
    let failure = report.failure.expect("the open drain must be found");
    assert!(
        failure.message.contains("obligation-leak"),
        "{}",
        failure.message
    );
    assert!(
        failure.message.contains("glean-drain"),
        "the finding names the protocol: {}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "shrunk schedule replays bitwise");
    remove_glean_dir(&dir);
}

// Steering command application: the client plane starves when the
// serving rank polls the data plane forever.
const STEER: u32 = 71;
const STEER_ACK: u32 = 72;
const DATA: u32 = 73;

#[test]
fn steering_starvation_is_classified_and_replayed() {
    let report = Checker::new()
        .max_schedules(1)
        .liveness(LivenessSpec {
            max_decisions: 400,
            spin_limit: 0,
            starvation_window: 100,
        })
        .run(3, |comm| match comm.rank() {
            1 => {
                // The steering client: one command, then wait for the
                // acknowledgement that never comes.
                comm.send(0, STEER, 7u64);
                let _: u64 = comm.recv(0, STEER_ACK);
            }
            r => {
                // BUG: the serving rank (0) services rank 2's data
                // plane in an infinite loop and never applies the
                // steer command sitting in its queue.
                let peer = 2 - r;
                loop {
                    if r == 0 {
                        comm.send(peer, DATA, 0u64);
                        let _: u64 = comm.recv(peer, DATA);
                    } else {
                        let _: u64 = comm.recv(peer, DATA);
                        comm.send(peer, DATA, 0u64);
                    }
                }
            }
        });
    let failure = report.failure.expect("the starved client must be found");
    assert!(
        failure.message.contains("starvation: world rank(s) [1]"),
        "classification names the starved steering client: {}",
        failure.message
    );
    assert!(
        failure.message.contains("last progress at decision"),
        "the report carries the per-rank progress dump: {}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "liveness aborts replay bitwise");
}

/// Writer `w`'s half of a 4-point line at step `s`; a `corrupt` block
/// sits past the end of its global grid, so it encodes and does not
/// decode.
fn half_line(w: u64, s: u64, corrupt: bool) -> BpStep {
    let mut step = BpStep::new(s, s as f64);
    let mut var = BpVar::new(
        "data",
        [4, 1, 1],
        [2 * w, 0, 0],
        [2, 1, 1],
        vec![s as f64; 2],
    );
    if corrupt {
        var.offset[0] = 4;
    }
    step.vars.push(var);
    step
}

/// One writer's second frame does not decode and the endpoint refuses
/// it. The refused writer is released — its `advance` returns, it ships
/// nothing more and closes without a word — while the healthy writer's
/// stream finishes. Without the refusal the writer waits in `advance`
/// for a step that never comes back: a deadlock under every schedule.
#[test]
fn refused_writer_is_released_not_stranded() {
    const STEPS: u64 = 3;
    let report = Checker::new()
        .sanitize()
        .run(3, |comm| match pair(comm, 2) {
            Role::Writer { mut writer, .. } => {
                let w = comm.rank() as u64;
                for s in 0..STEPS {
                    writer.advance(comm);
                    let shipped = writer.write(comm, &half_line(w, s, w == 0 && s == 1));
                    assert_eq!(shipped == 0, w == 0 && s > 1, "writer {w} step {s}");
                }
                writer.close(comm);
            }
            Role::Endpoint { sub, mut reader } => {
                let broker = StagingBroker::new(BrokerConfig::default());
                let (bridge, _) =
                    run_endpoint_with_broker(comm, &sub, &mut reader, Vec::new(), &broker);
                assert_eq!(bridge.steps(), STEPS, "the healthy stream finished");
                let reports = bridge.failure_reports();
                assert_eq!(reports.len(), 1, "{reports:?}");
                assert_eq!(reports[0].kind(), "corrupt-frame");
            }
        });
    assert!(
        report.failure.is_none(),
        "every schedule terminates: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(
        !report.stats.budget_exhausted,
        "the schedule tree completes"
    );
}

/// `adios::flexpath`'s step tag and step. A writer whose payload block
/// disagrees with its own header cannot be built through
/// `FlexpathWriter`, so the planted one below lends the step itself.
const FLEXPATH_TAG_DATA: u32 = 0xAD10_0001;
type FlexpathFrame = (bool, Vec<u8>, Vec<Payload>);

/// One writer ships a step whose framing parses but whose payload
/// block is one element short of its header. The endpoint refuses the
/// block instead of adopting it and gives the step back refused,
/// without its blocks, while the healthy writer's stream finishes:
/// every schedule terminates, with nothing left in flight.
#[test]
fn mismatched_block_writer_is_released_not_stranded() {
    const STEPS: u64 = 3;
    let report = Checker::new()
        .sanitize()
        .run(3, |comm| match pair(comm, 2) {
            Role::Writer { writer, .. } if comm.rank() == 0 => {
                let step = half_line(0, 0, false);
                let mut meta = Vec::new();
                step.encode_into(&mut meta);
                meta.truncate(meta.len() - step.payload_bytes());
                let short: Payload = vec![0.0f64].into();
                comm.lend(writer.peer(), FLEXPATH_TAG_DATA, 1, |frame| {
                    *frame = (false, meta, vec![short]);
                });
                let verdict = comm.reclaim::<FlexpathFrame>(writer.peer(), FLEXPATH_TAG_DATA);
                assert_eq!(verdict, Some(Verdict::Refused), "refused");
                let (_, _, blocks) = comm.spare::<FlexpathFrame>().expect("given back");
                assert!(blocks.is_empty(), "not adopted");
            }
            Role::Writer { mut writer, .. } => {
                for s in 0..STEPS {
                    writer.advance(comm);
                    writer.write(comm, &half_line(1, s, false));
                }
                writer.close(comm);
            }
            Role::Endpoint { sub, mut reader } => {
                let broker = StagingBroker::new(BrokerConfig::default());
                let (bridge, _) =
                    run_endpoint_with_broker(comm, &sub, &mut reader, Vec::new(), &broker);
                assert_eq!(bridge.steps(), STEPS, "the healthy stream finished");
                let reports = bridge.failure_reports();
                assert_eq!(reports.len(), 1, "{reports:?}");
                assert_eq!(reports[0].kind(), "corrupt-frame");
                let reason = reports[0].to_string();
                assert!(reason.contains("disagrees with its header"), "{reason}");
            }
        });
    assert!(
        report.failure.is_none(),
        "every schedule terminates: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(
        !report.stats.budget_exhausted,
        "the schedule tree completes"
    );
}

// A lender with at most two loans out, and a borrower that merges one
// strip and keeps it: compositing's strips with a credit lost.
const LOAN: u32 = 61;
const LENT: u64 = 4;

#[test]
fn unreturned_credit_is_found_minimized_and_replayed() {
    let report = Checker::new().max_schedules(16).sanitize().run(2, |comm| {
        if comm.rank() == 0 {
            for strip in 0..LENT {
                comm.lend(1, LOAN, 2, |buf: &mut Vec<u64>| {
                    buf.clear();
                    buf.push(strip);
                });
            }
            while comm.reclaim::<Vec<u64>>(1, LOAN).is_some() {}
        } else {
            for strip in 0..LENT {
                let buf: Vec<u64> = comm.recv(0, LOAN);
                assert_eq!(buf, [strip]);
                // BUG: the second strip's buffer is never given back,
                // so the lender waits for a return that never comes.
                if strip != 1 {
                    comm.give_back(0, LOAN, buf, Verdict::Taken);
                }
            }
        }
    });
    let failure = report.failure.expect("the lost credit must be found");
    assert!(
        failure.message.contains("deterministic deadlock detected"),
        "{}",
        failure.message
    );
    assert!(
        failure.message.contains("return:61"),
        "the report names the awaited return: {}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "shrunk schedule replays bitwise");
    assert!(
        failure.prefix.is_empty(),
        "a lost credit strands the lender under every schedule; ddmin reaches the empty prefix"
    );
}

/// The clean pipeline — bridge steps with a histogram and GLEAN's
/// aggregation, publish windows opened and closed per step, and a
/// finalize that closes the drain — produces zero findings across every
/// explored schedule.
#[test]
fn clean_pipeline_is_silent_under_systematic_exploration() {
    let dir = glean_dir("clean");
    let d2 = dir.clone();
    let report = Checker::new()
        .max_schedules(6)
        .sanitize()
        .run(2, move |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(HistogramAnalysis::new("data", 8)));
            bridge.register(Box::new(glean::GleanWriter::new(
                glean::Topology::new(2),
                "data",
                d2.clone(),
            )));
            for step in 0..3u64 {
                let whole = Extent::whole([8, 1, 1]);
                let mut img = ImageData::new(whole, whole);
                let base = (comm.rank() as u64 * 100 + step) as f64;
                img.add_point_array(DataArray::owned(
                    "data",
                    1,
                    (0..8).map(|i| base + i as f64).collect::<Vec<f64>>(),
                ));
                let adaptor = InMemoryAdaptor::new(DataSet::Image(img), step as f64, step);
                assert!(bridge.execute(&adaptor, comm).should_continue());
            }
            bridge.finalize(comm);
        });
    assert!(
        report.failure.is_none(),
        "clean pipeline must stay silent: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(!report.stats.budget_exhausted || report.stats.schedules_explored >= 6);
    assert!(report.stats.schedules_explored >= 1);
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

/// Ranks of every scenario sweep (the render sweep runs at 3 too).
const SWEEP_RANKS: usize = 6;
/// Schedules each sweep explores: the four sweeps together take about
/// 8 s of a debug `cargo test` on a 2-vCPU x86-64 VM, 3.5 s in release;
/// the render sweep at 3 ranks ends before the budget, its schedule
/// tree done.
const SWEEP_SCHEDULES: usize = 512;
const GRID: [usize; 3] = [9, 9, 9];
const STEPS: usize = 2;
const BINS: usize = 16;

/// Explore `scenario` on `ranks` ranks with the sanitizer armed. A
/// failure leaves its minimized trace in `results/` and panics.
fn sweep<F>(name: &str, ranks: usize, scenario: F)
where
    F: Fn(&Comm) + Send + Sync + 'static,
{
    let report = Checker::new()
        .max_schedules(SWEEP_SCHEDULES)
        .sanitize()
        .run(ranks, scenario);
    if let Some(failure) = &report.failure {
        std::fs::create_dir_all("results").expect("results dir");
        let path = format!("results/minimized_trace_{name}.json");
        std::fs::write(&path, failure.trace.to_json()).expect("write trace");
        panic!(
            "{name}: {}\n  minimized to {} forced choice(s) from {}; bitwise replay \
             verified: {}; delivery trace written to {path}",
            failure.message,
            failure.prefix.len(),
            failure.original_choices,
            failure.replayed_bitwise
        );
    }
}

/// Mixed collectives with an `ANY_SOURCE` fan-in between them. Every
/// invariant below must hold under *any* interleaving.
fn collectives_scenario(comm: &Comm) {
    let r = comm.rank();
    let p = comm.size();

    let sum = comm.allreduce_scalar(r as u64 + 1, |a, b| a + b);
    assert_eq!(sum, (p * (p + 1) / 2) as u64, "allreduce sum");

    let v = comm.allreduce_vec(vec![r as u64; 7], |a, b| a + b);
    let expect = (p * (p - 1) / 2) as u64;
    assert!(v.iter().all(|&x| x == expect), "vector element sums");

    // Fan-in on ANY_SOURCE: the accumulated total must not depend on
    // the arrival order.
    if r == 0 {
        let mut total = 0u64;
        let mut seen = vec![false; p];
        for _ in 1..p {
            let (from, x) = comm.recv_any::<u64>(7);
            assert!(!seen[from], "duplicate delivery from {from}");
            seen[from] = true;
            total += x;
        }
        assert_eq!(total, (1..p as u64).sum::<u64>(), "fan-in total");
    } else {
        comm.send(0, 7, r as u64);
    }

    let scan = comm.scan(1u64, |a, b| a + b);
    assert_eq!(scan, r as u64 + 1, "inclusive scan");

    // Split into odd/even halves and run a collective in each,
    // exercising concurrent sub-communicators.
    let sub = comm.split((r % 2) as u32, r as u32);
    let members = comm.allreduce_scalar(1usize, |a, b| a + b);
    assert_eq!(members, p);
    let peak = sub.allreduce_scalar(r, usize::max);
    let expect_peak = if r.is_multiple_of(2) {
        ((p - 1) / 2) * 2
    } else {
        ((p - 2) / 2) * 2 + 1
    };
    assert_eq!(peak, expect_peak, "sub-communicator max");

    // A late straggler message must still be matchable after the
    // collectives completed (no cross-talk into collective tags).
    if r == 1 {
        comm.send(0, 99, 0xABu8);
    }
    if r == 0 {
        let (from, got): (usize, u8) = comm.recv_any(99);
        assert_eq!((from, got), (1, 0xAB));
    }
    comm.barrier();
}

/// FlexPath staging round trip: writers ship an oscillator deck, the
/// endpoint group runs a histogram in transit. The invariant is that
/// every grid point is counted once however the two groups interleave.
fn staging_scenario(comm: &Comm, deck: &str) {
    let writers = comm.size() / 2;
    match pair(comm, writers) {
        Role::Writer { sub, writer } => {
            let cfg = SimConfig {
                grid: GRID,
                steps: STEPS,
                ..SimConfig::default()
            };
            let root_deck = if sub.rank() == 0 { Some(deck) } else { None };
            let mut sim = Simulation::new(&sub, cfg, root_deck);
            let mut ship = AdiosWriterAnalysis::new(writer);
            for _ in 0..STEPS {
                sim.step(&sub);
                ship.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            ship.finalize(comm);
        }
        Role::Endpoint { sub, mut reader } => {
            let hist = HistogramAnalysis::new("data", BINS);
            let results = hist.results_handle();
            let analyses: Vec<Box<dyn AnalysisAdaptor>> = vec![Box::new(hist)];
            let broker = StagingBroker::new(BrokerConfig::default());
            let (bridge, _report) =
                run_endpoint_with_broker(comm, &sub, &mut reader, analyses, &broker);
            assert_eq!(bridge.steps(), STEPS as u64, "endpoint saw every step");
            if sub.rank() == 0 {
                let r = results.lock().clone().expect("endpoint histogram");
                let counted: u64 = r.counts.iter().sum();
                let points = (GRID[0] * GRID[1] * GRID[2]) as u64;
                assert_eq!(counted, points, "histogram counts every point once");
                assert!(r.min <= r.max, "histogram range is ordered");
            }
        }
    }
}

/// Zero-copy publish discipline: each rank stages its shared field,
/// exchanges a ring message, and mutates the field only after the
/// window closed and the neighbour's message arrived. Correct by
/// construction, so any sanitizer finding is a schedule the
/// happens-before edges do not cover.
fn publish_scenario(comm: &Comm) {
    let r = comm.rank();
    let p = comm.size();
    let mut data = shared_image([4, 4, 1]);
    for step in 0..2u64 {
        let guard = datamodel::publish_dataset(&data, "sweep");
        // Endpoint-side read while staged (reads are always safe).
        if let DataSet::Image(g) = &data {
            let arr = g.point_data.get("u").expect("field present");
            let _sum: f64 = (0..arr.num_tuples()).map(|t| arr.get(t, 0)).sum();
        }
        drop(guard);
        let tag = 40 + step as u32;
        comm.send((r + 1) % p, tag, r as u64);
        let _ = comm.recv::<u64>((r + p - 1) % p, tag);
        if let DataSet::Image(g) = &mut data {
            let arr = g.point_data.get_mut("u").expect("field present");
            arr.set(0, 0, step as f64);
        }
    }
    comm.barrier();
}

/// The render sweep's image: a strip is 32 Ki / 4096 = 8 rows, so the
/// 24 rows a tree child or a folded rank ships travel as 3 lent strips,
/// the last in the buffer the first came back in, and each swap half as
/// 2 strips or 1.
const RENDER_IMAGE: (usize, usize) = (4096, 17);

/// A frame of Catalyst's binary swap, then one of Libsim's
/// direct-send tree, which lends strips the swap left in the rank's
/// pool. Rank `r` draws every row of columns `12r .. 12r + 16 + f` at
/// depth `r` in frame `f`, so neighbours overlap and the lower rank
/// wins; rank 0's image must be exactly that, however the strips and
/// their returns interleave.
fn render_scenario(comm: &Comm) {
    let (w, h) = RENDER_IMAGE;
    let (r, p) = (comm.rank(), comm.size());
    let band = |rank: usize, frame: usize| 12 * rank..12 * rank + 16 + frame;
    let frames = [Compositor::BinarySwap, Compositor::DirectSendTree(2)];
    for (frame, which) in frames.into_iter().enumerate() {
        let mut fb = Framebuffer::new(w, h);
        for y in 0..h {
            for x in band(r, frame) {
                fb.set_pixel(x, y, r as f32, Color::rgb(r as u8 + 1, 0, 0));
            }
        }
        let Some(image) = composite(comm, fb, which) else {
            assert_ne!(r, 0, "rank 0 holds the image");
            continue;
        };
        let want: Vec<Color> = (0..w)
            .map(|x| match (0..p).find(|&q| band(q, frame).contains(&x)) {
                Some(q) => Color::rgb(q as u8 + 1, 0, 0),
                None => Color::TRANSPARENT,
            })
            .collect();
        for y in 0..h {
            assert!(
                (0..w).map(|x| image.pixel(x, y)).eq(want.iter().copied()),
                "{which:?}: row {y}"
            );
        }
    }
}

#[test]
fn collectives_sweep_is_clean() {
    sweep("collectives", SWEEP_RANKS, collectives_scenario);
}

#[test]
fn staging_sweep_is_clean() {
    let deck = format_deck(&demo_oscillators());
    sweep("staging", SWEEP_RANKS, move |comm| {
        staging_scenario(comm, &deck)
    });
}

#[test]
fn publish_sweep_is_clean() {
    sweep("publish", SWEEP_RANKS, publish_scenario);
}

/// At 3 ranks binary swap folds one rank into a pair; at 6, two into
/// four, and the tree is two levels deep.
#[test]
fn render_sweep_is_clean() {
    sweep("render_3", 3, render_scenario);
    sweep("render_6", SWEEP_RANKS, render_scenario);
}
