//! Broker fan-out microbench: the dimensionless metrics the perf gate
//! tracks for the sharded staging broker.
//!
//! The interesting comparison is the one the broker replaced: the
//! thread-per-link staging model hands each consumer its **own copy**
//! of every step, so serving N consumers costs N payload memcpys per
//! publish. The broker fans one `Arc`-shared payload out to N bounded
//! queues — the per-consumer cost is a refcount bump. The gated
//! numbers:
//!
//! * `fanout.speedup` — per-consumer-copy baseline over the broker's
//!   shared-payload publish, same payload / subscriber count / steps;
//! * `fairness.min_over_max_delivered` — min/max messages delivered
//!   across all live subscribers (1.0 = perfectly fair dispatch);
//! * `robustness.eviction_works` / `robustness.queue_bounded` — a
//!   stalled consumer is evicted within its deadline, and the probed
//!   queue high-water never exceeds the configured depth.

use std::collections::VecDeque;
use std::time::Duration;

use adios::{BpVar, Broker, BrokerConfig, TopicKey};
use probe::time::Wall;

use crate::hotpath::{median_of, TIMED_ROUNDS, WARMUP_ROUNDS};

/// Subscribers served by one producer in the fan-out legs.
pub const SUBSCRIBERS: usize = 64;
/// Steps published per timed round.
pub const STEPS: usize = 32;
/// Payload size per step, in f64 elements (64 KiB).
pub const PAYLOAD_DOUBLES: usize = 8192;

fn values() -> Vec<f64> {
    (0..PAYLOAD_DOUBLES).map(|i| i as f64).collect()
}

fn payload_of(values: Vec<f64>) -> BpVar {
    let n = PAYLOAD_DOUBLES as u64;
    BpVar::new("data", [n, 1, 1], [0, 0, 0], [n, 1, 1], values)
}

fn payload() -> BpVar {
    payload_of(values())
}

/// The measured broker report; every gated entry is dimensionless.
#[derive(Clone, Debug)]
pub struct BrokerReport {
    /// Per-consumer deep-copy fan-out (the replaced model), seconds.
    pub clone_fanout_s: f64,
    /// Arc-shared broker fan-out over the same work, seconds.
    pub broker_fanout_s: f64,
    /// min/max delivered across subscribers after the broker leg.
    pub fairness: f64,
    /// A stalled consumer was evicted within its deadline.
    pub eviction_works: bool,
    /// The probed queue high-water stayed within the configured depth.
    pub queue_bounded: bool,
}

impl BrokerReport {
    /// Copy-per-consumer baseline over the shared-payload broker path.
    pub fn fanout_speedup(&self) -> f64 {
        self.clone_fanout_s / self.broker_fanout_s
    }

    /// Serialize in the flat one-line-per-section layout the perf gate
    /// parses (same conventions as `BENCH_hotpath.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"config\": {{\"subscribers\": {SUBSCRIBERS}, \"steps\": {STEPS}, \
             \"payload_doubles\": {PAYLOAD_DOUBLES}, \"warmup_rounds\": {WARMUP_ROUNDS}, \
             \"timed_rounds\": {TIMED_ROUNDS}}},\n",
        ));
        s.push_str(&format!(
            "  \"fanout\": {{\"clone_s\": {:.6}, \"broker_s\": {:.6}, \"speedup\": {:.2}}},\n",
            self.clone_fanout_s,
            self.broker_fanout_s,
            self.fanout_speedup()
        ));
        s.push_str(&format!(
            "  \"fairness\": {{\"min_over_max_delivered\": {:.3}}},\n",
            self.fairness
        ));
        s.push_str(&format!(
            "  \"robustness\": {{\"eviction_works\": {}, \"queue_bounded\": {}}}\n",
            self.eviction_works, self.queue_bounded
        ));
        s.push('}');
        s.push('\n');
        s
    }
}

/// Time the replaced model: every publish deep-copies the payload into
/// each consumer's private queue (a variable rebuilt around a copy of
/// the values: cloning a `BpVar` only bumps a reference count).
fn time_clone_fanout() -> f64 {
    median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
        let step = values();
        let mut queues: Vec<VecDeque<BpVar>> = (0..SUBSCRIBERS).map(|_| VecDeque::new()).collect();
        let t0 = Wall::now();
        for _ in 0..STEPS {
            for q in queues.iter_mut() {
                q.push_back(payload_of(step.clone()));
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        assert!(queues.iter().all(|q| q.len() == STEPS));
        dt
    })
}

/// Time the broker: one publish fans an `Arc`-shared payload out to
/// every subscriber's bounded queue. Returns `(seconds, fairness)`.
fn time_broker_fanout() -> (f64, f64) {
    let mut fairness = 0.0;
    let topic = TopicKey::new("data", 0);
    let secs = median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
        let broker: Broker<BpVar> = Broker::new(BrokerConfig {
            queue_depth: STEPS,
            max_subscribers: SUBSCRIBERS,
            eviction_deadline: Duration::from_secs(10),
        });
        let subs: Vec<_> = (0..SUBSCRIBERS)
            .map(|i| {
                broker
                    .subscribe_labeled(topic.clone(), format!("bench-{i:02}"))
                    .expect("admitted")
            })
            .collect();
        let t0 = Wall::now();
        for _ in 0..STEPS {
            let report = broker.publish(&topic, payload());
            debug_assert_eq!(report.delivered, SUBSCRIBERS);
        }
        let dt = t0.elapsed().as_secs_f64();
        fairness = broker.fairness(&topic).expect("live subscribers");
        drop(subs);
        dt
    });
    (secs, fairness)
}

/// Untimed robustness probe: a stalled consumer next to a draining one
/// must be evicted within its deadline, while the queue high-water
/// gauge respects the configured depth.
fn check_robustness() -> (bool, bool) {
    const DEPTH: usize = 2;
    let broker: Broker<BpVar> = Broker::new(BrokerConfig {
        queue_depth: DEPTH,
        max_subscribers: 4,
        eviction_deadline: Duration::from_millis(5),
    });
    let probe = probe::enabled();
    broker.attach_probe(probe.clone());
    let topic = TopicKey::new("data", 0);
    let stalled = broker
        .subscribe_labeled(topic.clone(), "stalled")
        .expect("admitted");
    let live = broker
        .subscribe_labeled(topic.clone(), "live")
        .expect("admitted");
    for _ in 0..DEPTH + 1 {
        broker.publish(&topic, payload());
        while live.try_next().is_some() {}
    }
    let eviction_works = stalled.is_evicted() && broker.take_evictions().len() == 1;
    let queue_bounded = probe
        .snapshot()
        .gauge("broker/data#0/queue_peak")
        .is_some_and(|peak| peak <= DEPTH as u64);
    (eviction_works, queue_bounded)
}

/// Measure everything.
pub fn run() -> BrokerReport {
    let clone_fanout_s = time_clone_fanout();
    let (broker_fanout_s, fairness) = time_broker_fanout();
    let (eviction_works, queue_bounded) = check_robustness();
    BrokerReport {
        clone_fanout_s,
        broker_fanout_s,
        fairness,
        eviction_works,
        queue_bounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfgate::{gate, TOLERANCE};

    #[test]
    fn report_measures_and_serializes() {
        let r = run();
        assert!(r.clone_fanout_s > 0.0 && r.broker_fanout_s > 0.0);
        assert!(r.fanout_speedup() > 1.0, "sharing beats copying");
        assert!(
            (r.fairness - 1.0).abs() < 1e-9,
            "all subscribers drained equally"
        );
        assert!(r.eviction_works);
        assert!(r.queue_bounded);
        let doc = probe::Json::parse(&r.to_json()).expect("well-formed JSON");
        let gated = gate("broker", &doc, &doc, TOLERANCE);
        assert!(gated.passed(), "{:?}", gated.failures);
    }
}
