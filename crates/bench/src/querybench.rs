//! Interactive-query microbench: the dimensionless metrics the perf
//! gate tracks for the query endpoint (`BENCH_query.json`).
//!
//! The interesting comparison is what serving N polling clients
//! *without* the endpoint would cost: each client re-evaluates the
//! query against the step's field and keeps a private copy of the
//! answer, so N clients cost N histogram folds per step. The query
//! server evaluates once and fans the shared response out through the
//! broker — the per-client cost is a refcount bump. The gated numbers:
//!
//! * `serve.speedup` — per-client re-evaluation baseline over the
//!   evaluate-once broker fan-out, same field / client count / steps;
//! * `fairness.min_over_max_delivered` — min/max responses delivered
//!   across all polling clients (1.0 = perfectly fair dispatch);
//! * `robustness.eviction_works` / `robustness.queue_bounded` — a
//!   query client that stops polling is evicted within its deadline,
//!   and the probed queue high-water never exceeds the configured
//!   depth.

use std::collections::VecDeque;
use std::time::Duration;

use adios::{Broker, BrokerConfig, TopicKey};
use probe::time::Wall;
use query::{QueryResponse, ResponsePayload};

use crate::hotpath::{median_of, TIMED_ROUNDS, WARMUP_ROUNDS};

/// Polling clients served in the fan-out legs.
pub const CLIENTS: usize = 48;
/// Steps served per timed round.
pub const STEPS: usize = 16;
/// Field size, in f64 elements (32 KiB).
pub const FIELD_DOUBLES: usize = 4096;
/// Histogram bins per response.
pub const BINS: usize = 32;

fn field_values() -> Vec<f64> {
    (0..FIELD_DOUBLES)
        .map(|i| (i % 257) as f64 * 0.25)
        .collect()
}

/// One histogram evaluation over the field — the per-step work a query
/// server does once and the baseline does once *per client*.
fn evaluate(field: &[f64], step: u64) -> QueryResponse {
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in field {
        min = min.min(v);
        max = max.max(v);
    }
    let width = if max > min {
        (max - min) / BINS as f64
    } else {
        1.0
    };
    let mut counts = vec![0u64; BINS];
    for &v in field {
        let b = (((v - min) / width) as usize).min(BINS - 1);
        counts[b] += 1;
    }
    QueryResponse {
        client: 0,
        step,
        time: step as f64,
        payload: ResponsePayload::Histogram { min, max, counts },
    }
}

/// The measured query report; every gated entry is dimensionless.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Per-client re-evaluation fan-out (the replaced model), seconds.
    pub per_client_s: f64,
    /// Evaluate-once broker fan-out over the same work, seconds.
    pub shared_s: f64,
    /// min/max delivered across clients after the broker leg.
    pub fairness: f64,
    /// A non-polling client was evicted within its deadline.
    pub eviction_works: bool,
    /// The probed queue high-water stayed within the configured depth.
    pub queue_bounded: bool,
}

impl QueryReport {
    /// Re-evaluate-per-client baseline over the evaluate-once path.
    pub fn serve_speedup(&self) -> f64 {
        self.per_client_s / self.shared_s
    }

    /// Serialize in the flat one-line-per-section layout the perf gate
    /// parses (same conventions as `BENCH_broker.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"config\": {{\"clients\": {CLIENTS}, \"steps\": {STEPS}, \
             \"field_doubles\": {FIELD_DOUBLES}, \"bins\": {BINS}, \
             \"warmup_rounds\": {WARMUP_ROUNDS}, \"timed_rounds\": {TIMED_ROUNDS}}},\n",
        ));
        s.push_str(&format!(
            "  \"serve\": {{\"per_client_s\": {:.6}, \"shared_s\": {:.6}, \"speedup\": {:.2}}},\n",
            self.per_client_s,
            self.shared_s,
            self.serve_speedup()
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

/// Time the replaced model: every client re-runs the evaluation and
/// keeps a private copy of the response.
fn time_per_client() -> f64 {
    let field = field_values();
    median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
        let mut queues: Vec<VecDeque<QueryResponse>> =
            (0..CLIENTS).map(|_| VecDeque::new()).collect();
        let t0 = Wall::now();
        for step in 0..STEPS {
            for q in queues.iter_mut() {
                q.push_back(evaluate(&field, step as u64));
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        assert!(queues.iter().all(|q| q.len() == STEPS));
        dt
    })
}

/// Time the endpoint model: evaluate once, fan the shared response out
/// to every client's bounded queue. Returns `(seconds, fairness)`.
fn time_shared() -> (f64, f64) {
    let field = field_values();
    let mut fairness = 0.0;
    let topic = TopicKey::new("query/hist", 0);
    let secs = median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
        let broker: Broker<QueryResponse> = Broker::new(BrokerConfig {
            queue_depth: STEPS,
            max_subscribers: CLIENTS,
            eviction_deadline: Duration::from_secs(10),
        });
        let subs: Vec<_> = (0..CLIENTS)
            .map(|i| {
                broker
                    .subscribe_labeled(topic.clone(), format!("client-{i:02}"))
                    .expect("admitted")
            })
            .collect();
        let t0 = Wall::now();
        for step in 0..STEPS {
            let report = broker.publish(&topic, evaluate(&field, step as u64));
            debug_assert_eq!(report.delivered, CLIENTS);
        }
        let dt = t0.elapsed().as_secs_f64();
        fairness = broker.fairness(&topic).expect("live clients");
        drop(subs);
        dt
    });
    (secs, fairness)
}

/// Untimed robustness probe: a query client that stops polling next to
/// a draining one must be evicted within its deadline, while the queue
/// high-water gauge respects the configured depth.
fn check_robustness() -> (bool, bool) {
    const DEPTH: usize = 2;
    let field = field_values();
    let broker: Broker<QueryResponse> = Broker::new(BrokerConfig {
        queue_depth: DEPTH,
        max_subscribers: 4,
        eviction_deadline: Duration::from_millis(5),
    });
    let probe = probe::enabled();
    broker.attach_probe(probe.clone());
    let topic = TopicKey::new("query/hist", 0);
    let stalled = broker
        .subscribe_labeled(topic.clone(), "stalled")
        .expect("admitted");
    let live = broker
        .subscribe_labeled(topic.clone(), "live")
        .expect("admitted");
    for step in 0..DEPTH + 1 {
        broker.publish(&topic, evaluate(&field, step as u64));
        while live.try_next().is_some() {}
    }
    let eviction_works = stalled.is_evicted() && broker.take_evictions().len() == 1;
    let queue_bounded = probe
        .snapshot()
        .gauge("broker/query/hist#0/queue_peak")
        .is_some_and(|peak| peak <= DEPTH as u64);
    (eviction_works, queue_bounded)
}

/// Measure everything.
pub fn run() -> QueryReport {
    let per_client_s = time_per_client();
    let (shared_s, fairness) = time_shared();
    let (eviction_works, queue_bounded) = check_robustness();
    QueryReport {
        per_client_s,
        shared_s,
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
        assert!(r.per_client_s > 0.0 && r.shared_s > 0.0);
        assert!(r.serve_speedup() > 1.0, "evaluating once beats N times");
        assert!(
            (r.fairness - 1.0).abs() < 1e-9,
            "all clients drained equally"
        );
        assert!(r.eviction_works);
        assert!(r.queue_bounded);
        let doc = probe::Json::parse(&r.to_json()).expect("well-formed JSON");
        let gated = gate("query", &doc, &doc, TOLERANCE);
        assert!(gated.passed(), "{:?}", gated.failures);
    }
}
