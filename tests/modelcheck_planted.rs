//! Planted-bug corpus for the systematic model checker.
//!
//! Each test plants one concurrency or protocol bug — the broker's
//! eviction/backpressure protocol, a reply-order deadlock over plain
//! point-to-point messages, the publish-window and query-client
//! obligations, steering command application — and asserts the
//! [`minimpi::Checker`] finds it within a deterministic schedule
//! budget, minimizes the failing schedule with the ddmin shrinker, and
//! replays the shrunk trace bitwise under `SchedPolicy::Replay`. The
//! clean twins of the same protocols run under the same checker with
//! zero findings.
//!
//! The last three tests sweep the substrate's riskiest surfaces — mixed
//! collectives with an `ANY_SOURCE` fan-in, the FlexPath staging
//! handshake, and the zero-copy publish discipline — at six ranks with
//! the sanitizer armed. A failure writes its minimized delivery trace
//! to `results/minimized_trace_<scenario>.json` before the test panics;
//! replay it with `SchedPolicy::Replay(Trace::from_json(..))`.

use std::sync::Arc;
use std::time::Duration;

use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, Broker, BrokerConfig, Role, StagingBroker, TopicKey};
use datamodel::{DataArray, DataSet, Extent, ImageData};
use minimpi::{Checker, Comm, LivenessSpec};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use query::{Query, QueryConfig, QueryServer, SessionScript};
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

/// The broker eviction/backpressure protocol with a publisher whose
/// one consumer never drains. With an effectively infinite eviction
/// deadline the second publish spins forever in the backpressure
/// loop — the planted livelock; with a zero deadline the slow
/// consumer is evicted and the protocol terminates — the clean twin.
fn broker_backpressure(_comm: &Comm, deadline: Duration) {
    let broker: Broker<u64> = Broker::new(BrokerConfig {
        queue_depth: 1,
        max_subscribers: 4,
        eviction_deadline: deadline,
    });
    let topic = TopicKey::new("planted/backpressure", 0);
    let sub = broker.subscribe(topic.clone()).expect("admitted");
    broker.publish(&topic, 1);
    // Queue is full and `sub` never drains: this publish sits in the
    // backpressure loop until the deadline (or the spin limit) trips.
    broker.publish(&topic, 2);
    drop(sub);
}

#[test]
fn broker_backpressure_livelock_is_found_minimized_and_replayed() {
    let report = Checker::new()
        .max_schedules(8)
        .liveness(LivenessSpec {
            max_decisions: 100_000,
            spin_limit: 64,
            starvation_window: 0,
        })
        .run(2, |comm| {
            if comm.rank() == 0 {
                broker_backpressure(comm, Duration::from_secs(3600));
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
}

#[test]
fn broker_backpressure_with_eviction_is_clean() {
    let report = Checker::new()
        .max_schedules(8)
        .liveness(LivenessSpec {
            max_decisions: 100_000,
            spin_limit: 64,
            starvation_window: 0,
        })
        .run(2, |comm| {
            if comm.rank() == 0 {
                // Zero deadline: the stalled consumer is evicted on the
                // first backpressure poll and the publisher proceeds.
                broker_backpressure(comm, Duration::ZERO);
            }
        });
    assert!(
        report.failure.is_none(),
        "eviction drains the backpressure loop: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(!report.stats.budget_exhausted);
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
fn unclosed_query_client_is_an_obligation_leak() {
    let report = Checker::new().max_schedules(8).sanitize().run(1, |_comm| {
        let server = QueryServer::new(Arc::new(SessionScript::new()), QueryConfig::default());
        let handle = server.handle();
        let mut bridge = Bridge::new();
        bridge.register(Box::new(server));
        let summary = Query::Summary {
            field: "data".into(),
        };
        handle.join(7, summary, "planted").expect("admitted");
        // BUG: the bridge is dropped without `finalize` — the server
        // never closes the client registration `join` opened.
    });
    let failure = report.failure.expect("the open client must be found");
    assert!(
        failure.message.contains("obligation-leak"),
        "{}",
        failure.message
    );
    assert!(
        failure.message.contains("query-client"),
        "the finding names the protocol: {}",
        failure.message
    );
    assert!(failure.replayed_bitwise, "shrunk schedule replays bitwise");
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

/// The clean pipeline — bridge steps with a histogram, publish windows
/// opened and closed per step, finalize, and a broker round with a
/// draining consumer — produces zero findings across every explored
/// schedule.
#[test]
fn clean_pipeline_is_silent_under_systematic_exploration() {
    let report = Checker::new().max_schedules(6).sanitize().run(2, |comm| {
        let mut bridge = Bridge::new();
        bridge.register(Box::new(HistogramAnalysis::new("data", 8)));
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
        if comm.rank() == 0 {
            let broker: Broker<u64> = Broker::new(BrokerConfig {
                queue_depth: 2,
                max_subscribers: 4,
                eviction_deadline: Duration::from_millis(50),
            });
            let topic = TopicKey::new("clean/round", 0);
            let sub = broker.subscribe(topic.clone()).expect("admitted");
            broker.publish(&topic, 1);
            broker.publish(&topic, 2);
            assert!(sub.try_next().is_some());
            assert!(sub.try_next().is_some());
            broker.finish_all();
        }
    });
    assert!(
        report.failure.is_none(),
        "clean pipeline must stay silent: {:?}",
        report.failure.map(|f| f.message)
    );
    assert!(!report.stats.budget_exhausted || report.stats.schedules_explored >= 6);
    assert!(report.stats.schedules_explored >= 1);
}

/// Ranks of every scenario sweep.
const SWEEP_RANKS: usize = 6;
/// Schedules each sweep explores: the three sweeps together take about
/// 4–5 s of a debug `cargo test` on a 2-vCPU x86-64 VM, under 2 s in
/// release.
const SWEEP_SCHEDULES: usize = 512;
const GRID: [usize; 3] = [9, 9, 9];
const STEPS: usize = 2;
const BINS: usize = 16;

/// Explore `scenario` on [`SWEEP_RANKS`] ranks with the sanitizer armed.
/// A failure leaves its minimized trace in `results/` and panics.
fn sweep<F>(name: &str, scenario: F)
where
    F: Fn(&Comm) + Send + Sync + 'static,
{
    let report = Checker::new()
        .max_schedules(SWEEP_SCHEDULES)
        .sanitize()
        .run(SWEEP_RANKS, scenario);
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

#[test]
fn collectives_sweep_is_clean() {
    sweep("collectives", collectives_scenario);
}

#[test]
fn staging_sweep_is_clean() {
    let deck = format_deck(&demo_oscillators());
    sweep("staging", move |comm| staging_scenario(comm, &deck));
}

#[test]
fn publish_sweep_is_clean() {
    sweep("publish", publish_scenario);
}
