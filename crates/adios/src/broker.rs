//! Sharded multi-tenant staging broker: one producer, N subscribers.
//!
//! The paper's §5 design discussion argues that in transit staging must
//! serve *many* concurrent analysis endpoints without perturbing the
//! simulation. The seed transport ([`crate::flexpath`]) is a
//! one-writer/one-reader pipe: adding a consumer meant adding a rank
//! and a dedicated blocking receive. This module generalizes it into a
//! topic broker:
//!
//! * **Topics** are keyed by `(field, leaf-shard)` — the unit a
//!   consumer actually wants ("the `data` array of leaf 3"), matching
//!   the BP-lite block decomposition one topic per
//!   [`crate::bp::BpVar`] stream.
//! * **Fan-out** shares one `Arc` payload across every subscriber
//!   queue: publishing to 1 000 subscribers costs 1 000 pointer pushes,
//!   not 1 000 payload copies.
//! * **Bounded queues + backpressure**: each subscription holds at most
//!   `queue_depth` undelivered messages. A publish that finds a queue
//!   full waits — bounded by `eviction_deadline` — for the consumer to
//!   drain, generalizing the depth-1 advance/ack handshake of the
//!   FlexPath pipe.
//! * **Admission control**: a topic accepts at most `max_subscribers`
//!   live subscriptions; later arrivals are rejected with a typed
//!   error instead of silently degrading everyone's bandwidth.
//! * **Slow-consumer eviction**: a subscriber that stays full past the
//!   deadline is evicted and recorded as an [`EvictionRecord`] — the
//!   same degrade-don't-hang contract as the reader-side
//!   [`sensei::FailureReport::DeadWriter`], applied to the consumer side.
//! * **Single event loop**: there is no thread per subscriber or per
//!   link. Every `publish` call *is* one dispatcher tick: it prunes
//!   disconnected subscriptions, admits queued state changes, delivers
//!   to every live queue, and applies the eviction policy. Consumers
//!   only ever touch their own queue's lock, never the broker's.
//!
//! Determinism: the broker never spawns a thread and reads time only
//! through [`probe::time`], so under the deterministic scheduler
//! (virtual clock) a publish/poll sequence — including eviction
//! decisions — replays byte-identically.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::bp::{BpStep, BpVar};

/// Default bound on undelivered messages per subscription.
const DEFAULT_QUEUE_DEPTH: usize = 4;

/// Default cap on live subscriptions per topic.
const DEFAULT_MAX_SUBSCRIBERS: usize = 4096;

/// Default slow-consumer deadline, matching the FlexPath reader's
/// writer deadline: generous in production, overridden short in tests.
const DEFAULT_EVICTION_DEADLINE: Duration = Duration::from_secs(30);

/// Topic address: one field (array name) on one leaf shard of the
/// block decomposition.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicKey {
    /// Array name, e.g. `"data"`.
    pub field: String,
    /// Leaf shard (the BP-lite `leaf` block id).
    pub shard: u32,
}

impl TopicKey {
    /// Build a key from anything string-ish.
    pub fn new(field: impl Into<String>, shard: u32) -> Self {
        TopicKey {
            field: field.into(),
            shard,
        }
    }
}

impl fmt::Display for TopicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.field, self.shard)
    }
}

/// Broker tuning knobs; the defaults suit production-sized runs, tests
/// shrink them to force the interesting transitions.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Max undelivered messages per subscription queue.
    pub queue_depth: usize,
    /// Max live subscriptions per topic (admission control).
    pub max_subscribers: usize,
    /// How long a publish waits on a full queue before evicting the
    /// consumer. Measured on [`probe::time`], so virtual under the
    /// deterministic scheduler.
    pub eviction_deadline: Duration,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            queue_depth: DEFAULT_QUEUE_DEPTH,
            max_subscribers: DEFAULT_MAX_SUBSCRIBERS,
            eviction_deadline: DEFAULT_EVICTION_DEADLINE,
        }
    }
}

/// Why a subscription was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The topic already carries `max_subscribers` live subscriptions.
    TopicAtCapacity {
        /// The refused topic.
        topic: TopicKey,
        /// The configured cap.
        limit: usize,
    },
    /// The topic has already seen end-of-stream; a new subscription
    /// could never receive anything.
    Finished {
        /// The refused topic.
        topic: TopicKey,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TopicAtCapacity { topic, limit } => {
                write!(f, "topic {topic} at capacity ({limit} subscribers)")
            }
            AdmissionError::Finished { topic } => {
                write!(f, "topic {topic} already finished")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One delivered message: the per-topic sequence number and the shared
/// payload.
#[derive(Debug)]
pub struct TopicMsg<T> {
    /// Per-topic publish sequence (0-based, contiguous).
    pub seq: u64,
    /// The payload, shared across every subscriber of the topic.
    pub payload: Arc<T>,
}

// Hand-rolled so cloning never demands `T: Clone` — a clone shares the
// payload `Arc`, it does not copy the payload.
impl<T> Clone for TopicMsg<T> {
    fn clone(&self) -> Self {
        TopicMsg {
            seq: self.seq,
            payload: self.payload.clone(),
        }
    }
}

/// A consumer evicted for falling behind: what it had consumed before
/// the loss, for the bridge's failure report. This is the consumer-side
/// generalization of [`sensei::FailureReport::DeadWriter`].
#[derive(Clone, Debug)]
pub struct EvictionRecord {
    /// Broker-wide subscription id.
    pub client: u64,
    /// Caller-supplied label (e.g. `"analysis-774"`), empty if none.
    pub label: String,
    /// The topic the consumer was evicted from.
    pub topic: TopicKey,
    /// Messages pushed into the consumer's queue before eviction.
    pub delivered: u64,
    /// Messages the consumer actually drained before eviction.
    pub consumed: u64,
    /// The sequence number of the publish that evicted it (never
    /// delivered to this consumer).
    pub dropped_seq: u64,
    /// How long the dispatcher waited for the queue to drain.
    pub waited: Duration,
}

impl From<&EvictionRecord> for sensei::FailureReport {
    fn from(e: &EvictionRecord) -> Self {
        sensei::FailureReport::Eviction {
            consumer: if e.label.is_empty() {
                format!("client {}", e.client)
            } else {
                e.label.clone()
            },
            topic: e.topic.to_string(),
            delivered: e.delivered,
            consumed: e.consumed,
            dropped_seq: e.dropped_seq,
            waited: e.waited,
        }
    }
}

impl From<EvictionRecord> for sensei::FailureReport {
    fn from(e: EvictionRecord) -> Self {
        (&e).into()
    }
}

/// Outcome of one publish tick.
#[derive(Clone, Debug, Default)]
pub struct PublishReport {
    /// Sequence number assigned to the published message.
    pub seq: u64,
    /// Subscriptions the message was delivered to.
    pub delivered: usize,
    /// Consumers evicted by this tick (also queued on the broker; see
    /// [`Broker::take_evictions`]).
    pub evicted: usize,
}

/// Subscription lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SubPhase {
    Live,
    Evicted,
    Closed,
}

/// Consumer-side queue state. Guarded by its own mutex so draining
/// never touches the broker lock.
struct SubState<T> {
    phase: SubPhase,
    queue: VecDeque<TopicMsg<T>>,
    /// End-of-stream flag: no further messages will arrive.
    finished: bool,
    /// Messages pushed into the queue by the dispatcher.
    delivered: u64,
    /// Messages drained by the consumer.
    consumed: u64,
    /// Sequence number of the first message this subscription was
    /// eligible for (admission point).
    joined_seq: u64,
    /// High-water queue occupancy.
    queue_peak: usize,
}

/// Public snapshot of a subscription's accounting.
#[derive(Clone, Debug)]
pub struct SubStats {
    /// Messages pushed into the queue by the dispatcher.
    pub delivered: u64,
    /// Messages drained by the consumer.
    pub consumed: u64,
    /// First sequence number this subscription was eligible for.
    pub joined_seq: u64,
    /// High-water queue occupancy (never exceeds `queue_depth`).
    pub queue_peak: usize,
    /// Was this consumer evicted?
    pub evicted: bool,
}

struct SubEntry<T> {
    id: u64,
    label: String,
    state: Arc<(Mutex<SubState<T>>, Condvar)>,
}

struct Topic<T> {
    key: TopicKey,
    next_seq: u64,
    finished: bool,
    subs: Vec<SubEntry<T>>,
}

struct Inner<T> {
    config: BrokerConfig,
    topics: Vec<Topic<T>>,
    next_client: u64,
    evictions: Vec<EvictionRecord>,
    probe: probe::Probe,
}

impl<T> Topic<T> {
    /// Deliver `msg` to every live subscription, waiting (up to the
    /// eviction deadline) on full queues. Returns the delivery count
    /// and the consumers evicted by this tick.
    fn dispatch(
        &mut self,
        config: &BrokerConfig,
        msg: TopicMsg<T>,
    ) -> (usize, Vec<EvictionRecord>) {
        // Dispatch pass: deliver where there is room, collect the
        // stalled.
        let mut stalled: Vec<usize> = Vec::new();
        let mut delivered = 0usize;
        for (i, sub) in self.subs.iter().enumerate() {
            let (lock, cond) = &*sub.state;
            let mut st = lock.lock();
            // Closed entries were pruned by the caller; anything
            // non-Live (raced disconnect) just gets skipped and pruned
            // on the next tick.
            if st.phase == SubPhase::Live {
                if st.queue.len() < config.queue_depth {
                    push_msg(&mut st, msg.clone());
                    cond.notify_all();
                    delivered += 1;
                } else {
                    stalled.push(i);
                }
            }
        }

        // Backpressure: wait — bounded — for stalled consumers. Time
        // flows through probe::time, so this loop is deterministic
        // under the virtual clock (each poll advances it one tick) and
        // wall-bounded otherwise.
        let mut evicted_now: Vec<EvictionRecord> = Vec::new();
        if !stalled.is_empty() {
            let start = probe::time::now_seconds();
            let deadline = config.eviction_deadline.as_secs_f64();
            loop {
                stalled.retain(|&i| {
                    let (lock, cond) = &*self.subs[i].state;
                    let mut st = lock.lock();
                    match st.phase {
                        SubPhase::Live if st.queue.len() < config.queue_depth => {
                            push_msg(&mut st, msg.clone());
                            cond.notify_all();
                            delivered += 1;
                            false
                        }
                        SubPhase::Live => true,
                        // Consumer went away while we waited for it.
                        _ => false,
                    }
                });
                if stalled.is_empty() {
                    break;
                }
                let waited = (probe::time::now_seconds() - start).max(0.0);
                if waited >= deadline {
                    for &i in &stalled {
                        let sub = &self.subs[i];
                        let (lock, cond) = &*sub.state;
                        let mut st = lock.lock();
                        st.phase = SubPhase::Evicted;
                        cond.notify_all();
                        evicted_now.push(EvictionRecord {
                            client: sub.id,
                            label: sub.label.clone(),
                            topic: self.key.clone(),
                            delivered: st.delivered,
                            consumed: st.consumed,
                            dropped_seq: msg.seq,
                            waited: Duration::from_secs_f64(waited),
                        });
                    }
                    break;
                }
                // Under a scheduled world each poll is a spin at a
                // yield point, so the liveness checker can flag a
                // publisher stuck behind a consumer that never drains.
                minimpi::sched::yield_point();
                if !probe::time::is_virtual() {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            self.subs
                .retain(|s| s.state.0.lock().phase == SubPhase::Live);
        }
        (delivered, evicted_now)
    }
}

impl<T> Inner<T> {
    fn topic_mut(&mut self, key: &TopicKey) -> &mut Topic<T> {
        if let Some(i) = self.topics.iter().position(|t| &t.key == key) {
            return &mut self.topics[i];
        }
        self.topics.push(Topic {
            key: key.clone(),
            next_seq: 0,
            finished: false,
            subs: Vec::new(),
        });
        let last = self.topics.len() - 1;
        &mut self.topics[last]
    }
}

/// The broker handle. Cheap to clone; clones share the topic registry.
pub struct Broker<T> {
    inner: Arc<Mutex<Inner<T>>>,
}

impl<T> Clone for Broker<T> {
    fn clone(&self) -> Self {
        Broker {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + Sync + 'static> Default for Broker<T> {
    fn default() -> Self {
        Broker::new(BrokerConfig::default())
    }
}

/// The staging broker instantiation used on the wire path: topics carry
/// BP-lite variable blocks.
pub type StagingBroker = Broker<BpVar>;

impl<T: Send + Sync + 'static> Broker<T> {
    /// A broker with the given knobs.
    pub fn new(config: BrokerConfig) -> Self {
        assert!(config.queue_depth > 0, "broker: queue_depth must be > 0");
        assert!(
            config.max_subscribers > 0,
            "broker: max_subscribers must be > 0"
        );
        Broker {
            inner: Arc::new(Mutex::new(Inner {
                config,
                topics: Vec::new(),
                next_client: 0,
                evictions: Vec::new(),
                probe: probe::off(),
            })),
        }
    }

    /// Attach an observability probe: publishes then count per-topic
    /// throughput (`broker/<topic>/out` calls/messages/bytes are the
    /// caller's own `message` recordings), queue high-water marks
    /// (`broker/<topic>/queue_peak`) and evictions
    /// (`broker/evictions`).
    pub fn attach_probe(&self, probe: probe::Probe) {
        self.inner.lock().probe = probe;
    }

    /// Subscribe to `topic`. The subscription sees every message
    /// published after admission, in order, until it disconnects, is
    /// evicted, or the topic finishes.
    pub fn subscribe(&self, topic: TopicKey) -> Result<Subscription<T>, AdmissionError> {
        self.subscribe_labeled(topic, "")
    }

    /// [`Broker::subscribe`] with a human-readable consumer label that
    /// eviction records carry into failure reports.
    pub fn subscribe_labeled(
        &self,
        topic: TopicKey,
        label: impl Into<String>,
    ) -> Result<Subscription<T>, AdmissionError> {
        let mut inner = self.inner.lock();
        let limit = inner.config.max_subscribers;
        let id = inner.next_client;
        let t = inner.topic_mut(&topic);
        if t.finished {
            return Err(AdmissionError::Finished { topic });
        }
        // Disconnected consumers are pruned lazily by the dispatcher;
        // prune here too so capacity counts only live subscriptions.
        t.subs.retain(|s| s.state.0.lock().phase == SubPhase::Live);
        if t.subs.len() >= limit {
            return Err(AdmissionError::TopicAtCapacity { topic, limit });
        }
        let state = Arc::new((
            Mutex::new(SubState {
                phase: SubPhase::Live,
                queue: VecDeque::new(),
                finished: false,
                delivered: 0,
                consumed: 0,
                joined_seq: t.next_seq,
                queue_peak: 0,
            }),
            Condvar::new(),
        ));
        t.subs.push(SubEntry {
            id,
            label: label.into(),
            state: state.clone(),
        });
        inner.next_client += 1;
        Ok(Subscription {
            id,
            topic,
            state,
            depth: inner.config.queue_depth,
        })
    }

    /// Publish one message to `topic` — one dispatcher tick. Delivers
    /// the shared payload to every live subscription, waiting (up to
    /// the eviction deadline) for full queues to drain and evicting
    /// consumers that never do. Returns what happened.
    ///
    /// # Panics
    /// Panics if the topic has already been [`Broker::finish`]ed —
    /// publishing past end-of-stream is a program bug.
    pub fn publish(&self, topic: &TopicKey, payload: T) -> PublishReport {
        self.publish_with(topic, || payload)
    }

    /// [`Broker::publish`] with the payload built on demand: a tick on
    /// a topic nobody subscribes to advances the sequence number and
    /// the probe counters but never runs `payload`, so teeing a stream
    /// through an unwatched broker copies nothing.
    pub(crate) fn publish_with(
        &self,
        topic: &TopicKey,
        payload: impl FnOnce() -> T,
    ) -> PublishReport {
        let mut inner = self.inner.lock();
        let config = inner.config.clone();
        let probe = inner.probe.clone();
        let t = inner.topic_mut(topic);
        assert!(!t.finished, "broker: publish to finished topic {topic}");
        let seq = t.next_seq;
        t.next_seq += 1;
        // Disconnected subscriptions are pruned here — this publish
        // tick is the event loop's housekeeping point.
        t.subs
            .retain(|s| s.state.0.lock().phase != SubPhase::Closed);
        let (delivered, evicted_now) = if t.subs.is_empty() {
            (0, Vec::new())
        } else {
            let msg = TopicMsg {
                seq,
                payload: Arc::new(payload()),
            };
            t.dispatch(&config, msg)
        };

        if probe.is_enabled() {
            let name = probe::key::scoped("broker", topic, "fanout");
            let bytes = delivered as u64 * std::mem::size_of::<TopicMsg<T>>() as u64;
            probe.bulk(&name, 1, delivered as u64, bytes);
            let peak = t
                .subs
                .iter()
                .map(|s| s.state.0.lock().queue.len())
                .max()
                .unwrap_or(0);
            probe.gauge_max(
                &probe::key::scoped("broker", topic, "queue_peak"),
                peak as u64,
            );
            if !evicted_now.is_empty() {
                probe.bulk(
                    &probe::key::of("broker", "evictions"),
                    evicted_now.len() as u64,
                    0,
                    0,
                );
            }
        }
        let report = PublishReport {
            seq,
            delivered,
            evicted: evicted_now.len(),
        };
        inner.evictions.extend(evicted_now);
        report
    }

    /// Mark `topic` end-of-stream: live subscriptions drain what is
    /// queued and then observe EOS; new subscriptions are refused.
    pub fn finish(&self, topic: &TopicKey) {
        let mut inner = self.inner.lock();
        let t = inner.topic_mut(topic);
        t.finished = true;
        for sub in &t.subs {
            let (lock, cond) = &*sub.state;
            lock.lock().finished = true;
            cond.notify_all();
        }
    }

    /// Mark every topic end-of-stream.
    pub fn finish_all(&self) {
        let keys: Vec<TopicKey> = {
            let inner = self.inner.lock();
            inner.topics.iter().map(|t| t.key.clone()).collect()
        };
        for key in keys {
            self.finish(&key);
        }
    }

    /// Drain the eviction log (consumers evicted since the last call).
    /// Feed these to [`sensei::Bridge::record_failure`] via
    /// [`EvictionRecord::describe`].
    pub fn take_evictions(&self) -> Vec<EvictionRecord> {
        std::mem::take(&mut self.inner.lock().evictions)
    }

    /// Live subscription count on `topic` (0 for unknown topics).
    pub fn subscriber_count(&self, topic: &TopicKey) -> usize {
        let inner = self.inner.lock();
        inner
            .topics
            .iter()
            .find(|t| &t.key == topic)
            .map(|t| {
                t.subs
                    .iter()
                    .filter(|s| s.state.0.lock().phase == SubPhase::Live)
                    .count()
            })
            .unwrap_or(0)
    }

    /// Messages published to `topic` so far.
    pub fn published(&self, topic: &TopicKey) -> u64 {
        let inner = self.inner.lock();
        inner
            .topics
            .iter()
            .find(|t| &t.key == topic)
            .map(|t| t.next_seq)
            .unwrap_or(0)
    }

    /// Delivery fairness across `topic`'s live subscribers:
    /// `min(delivered) / max(delivered)`, 1.0 when perfectly fair,
    /// `None` when the topic has no live subscribers (or none has been
    /// delivered anything yet).
    pub fn fairness(&self, topic: &TopicKey) -> Option<f64> {
        let inner = self.inner.lock();
        let t = inner.topics.iter().find(|t| &t.key == topic)?;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut any = false;
        for s in &t.subs {
            let st = s.state.0.lock();
            if st.phase == SubPhase::Live {
                min = min.min(st.delivered);
                max = max.max(st.delivered);
                any = true;
            }
        }
        if !any || max == 0 {
            return None;
        }
        Some(min as f64 / max as f64)
    }
}

impl StagingBroker {
    /// Route one decoded BP-lite step onto the broker: each variable
    /// block publishes to its `(field, leaf)` topic. A watched variable
    /// shares the decoded payload with all its subscribers (a reference
    /// count, plus its small header); an unwatched one costs nothing.
    pub fn publish_step(&self, step: &BpStep) -> Vec<PublishReport> {
        step.vars
            .iter()
            .map(|v| self.publish_with(&TopicKey::new(v.name.clone(), v.leaf), || v.clone()))
            .collect()
    }
}

fn push_msg<T>(st: &mut SubState<T>, msg: TopicMsg<T>) {
    st.queue.push_back(msg);
    st.delivered += 1;
    st.queue_peak = st.queue_peak.max(st.queue.len());
}

/// One consumer's handle on a topic. Dropping it disconnects.
pub struct Subscription<T> {
    id: u64,
    topic: TopicKey,
    state: Arc<(Mutex<SubState<T>>, Condvar)>,
    depth: usize,
}

impl<T> Subscription<T> {
    /// Broker-wide subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The subscribed topic.
    pub fn topic(&self) -> &TopicKey {
        &self.topic
    }

    /// Non-blocking poll: the next queued message, if any.
    pub fn try_next(&self) -> Option<TopicMsg<T>> {
        let mut st = self.state.0.lock();
        let msg = st.queue.pop_front()?;
        st.consumed += 1;
        Some(msg)
    }

    /// Blocking receive with a wall-clock deadline: `Ok(Some(msg))` on
    /// delivery, `Ok(None)` at end-of-stream (topic finished and queue
    /// drained, or this consumer was evicted), `Err(())` on timeout.
    ///
    /// Meant for free-running consumer threads (e.g. a drain thread);
    /// deterministic single-threaded drivers should poll
    /// [`Subscription::try_next`] instead.
    #[allow(clippy::result_unit_err)]
    pub fn recv_deadline(&self, timeout: Duration) -> Result<Option<TopicMsg<T>>, ()> {
        let (lock, cond) = &*self.state;
        let mut st = lock.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                st.consumed += 1;
                return Ok(Some(msg));
            }
            if st.finished || st.phase != SubPhase::Live {
                return Ok(None);
            }
            if cond.wait_for(&mut st, timeout) {
                return Err(());
            }
        }
    }

    /// Has the dispatcher evicted this consumer?
    pub fn is_evicted(&self) -> bool {
        self.state.0.lock().phase == SubPhase::Evicted
    }

    /// End-of-stream: the topic finished and everything queued has been
    /// drained (or the consumer is no longer live).
    pub fn is_eos(&self) -> bool {
        let st = self.state.0.lock();
        (st.finished && st.queue.is_empty()) || st.phase != SubPhase::Live
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> SubStats {
        let st = self.state.0.lock();
        SubStats {
            delivered: st.delivered,
            consumed: st.consumed,
            joined_seq: st.joined_seq,
            queue_peak: st.queue_peak,
            evicted: st.phase == SubPhase::Evicted,
        }
    }

    /// The configured queue bound (for occupancy assertions).
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Explicit disconnect; equivalent to dropping the handle.
    pub fn disconnect(&self) {
        let (lock, cond) = &*self.state;
        let mut st = lock.lock();
        if st.phase == SubPhase::Live {
            st.phase = SubPhase::Closed;
        }
        cond.notify_all();
    }
}

impl<T> Drop for Subscription<T> {
    fn drop(&mut self) {
        self.disconnect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(depth: usize, max_subs: usize, deadline_ms: u64) -> BrokerConfig {
        BrokerConfig {
            queue_depth: depth,
            max_subscribers: max_subs,
            eviction_deadline: Duration::from_millis(deadline_ms),
        }
    }

    #[test]
    fn fan_out_shares_one_payload() {
        let broker: Broker<Vec<f64>> = Broker::new(cfg(4, 16, 100));
        let key = TopicKey::new("data", 0);
        let subs: Vec<_> = (0..8)
            .map(|_| broker.subscribe(key.clone()).unwrap())
            .collect();
        let report = broker.publish(&key, vec![1.0; 1024]);
        assert_eq!((report.seq, report.delivered, report.evicted), (0, 8, 0));
        let mut payloads = vec![];
        for s in &subs {
            let msg = s.try_next().expect("delivered");
            assert_eq!(msg.seq, 0);
            payloads.push(msg.payload);
        }
        // All eight handles alias the same allocation.
        for p in &payloads[1..] {
            assert!(Arc::ptr_eq(&payloads[0], p));
        }
        // …and every subscriber was delivered the same count.
        assert_eq!(broker.fairness(&key), Some(1.0));
    }

    #[test]
    fn admission_control_caps_subscribers() {
        let broker: Broker<u32> = Broker::new(cfg(2, 3, 50));
        let key = TopicKey::new("data", 0);
        let _live: Vec<_> = (0..3)
            .map(|_| broker.subscribe(key.clone()).unwrap())
            .collect();
        match broker.subscribe(key.clone()).err() {
            Some(AdmissionError::TopicAtCapacity { limit, .. }) => assert_eq!(limit, 3),
            other => panic!("expected capacity rejection, got {other:?}"),
        }
        // A disconnect frees the slot.
        _live[0].disconnect();
        assert!(broker.subscribe(key.clone()).is_ok());
    }

    #[test]
    fn finished_topic_refuses_new_subscribers() {
        let broker: Broker<u32> = Broker::new(cfg(2, 8, 50));
        let key = TopicKey::new("data", 1);
        let sub = broker.subscribe(key.clone()).unwrap();
        broker.publish(&key, 7);
        broker.finish(&key);
        assert!(matches!(
            broker.subscribe(key.clone()),
            Err(AdmissionError::Finished { .. })
        ));
        // Existing subscriber drains the queue, then sees EOS.
        assert_eq!(*sub.try_next().unwrap().payload, 7);
        assert!(sub.is_eos());
        assert!(matches!(
            sub.recv_deadline(Duration::from_millis(10)),
            Ok(None)
        ));
    }

    #[test]
    fn slow_consumer_evicted_without_stalling_others() {
        let broker: Broker<u64> = Broker::new(cfg(2, 8, 20));
        let key = TopicKey::new("data", 0);
        let fast = broker.subscribe_labeled(key.clone(), "fast").unwrap();
        let slow = broker.subscribe_labeled(key.clone(), "slow").unwrap();
        let mut got = 0u64;
        for i in 0..6u64 {
            broker.publish(&key, i);
            // Only the fast consumer drains.
            while let Some(msg) = fast.try_next() {
                assert_eq!(*msg.payload, got);
                got += 1;
            }
            let _ = msg_noop(&slow, i);
        }
        assert_eq!(got, 6, "fast consumer saw every step");
        assert!(slow.is_evicted());
        let evictions = broker.take_evictions();
        assert_eq!(evictions.len(), 1);
        let e = &evictions[0];
        assert_eq!(e.label, "slow");
        assert_eq!(e.delivered, 2, "queue bound is 2");
        assert_eq!(e.consumed, 0);
        assert_eq!(e.dropped_seq, 2, "third publish hit the full queue");
        assert!(sensei::FailureReport::from(e).to_string().contains("slow"));
        // The fast consumer keeps receiving after the eviction.
        broker.publish(&key, 6);
        assert_eq!(*fast.try_next().unwrap().payload, 6);
        assert_eq!(broker.subscriber_count(&key), 1);
    }

    // The slow consumer never drains; this helper only exists to make
    // the intent explicit at the call site.
    fn msg_noop(sub: &Subscription<u64>, _i: u64) -> usize {
        sub.stats().queue_peak
    }

    #[test]
    fn queue_occupancy_never_exceeds_bound() {
        let p = probe::enabled();
        let broker: Broker<u64> = Broker::new(cfg(3, 4, 10));
        broker.attach_probe(p.clone());
        let key = TopicKey::new("field", 2);
        let sub = broker.subscribe(key.clone()).unwrap();
        let lazy = broker.subscribe(key.clone()).unwrap();
        for i in 0..10u64 {
            broker.publish(&key, i);
            if i % 2 == 0 {
                let _ = sub.try_next();
            }
            // `lazy` drains just enough to stay admitted.
            while lazy.stats().delivered - lazy.stats().consumed >= 2 {
                let _ = lazy.try_next();
            }
        }
        assert!(sub.stats().queue_peak <= 3);
        assert!(lazy.stats().queue_peak <= 3);
        let gauge = p
            .snapshot()
            .gauge("broker/field#2/queue_peak")
            .expect("gauge recorded");
        assert!(gauge <= 3, "probe-observed peak {gauge} exceeds bound");
    }

    #[test]
    fn late_subscriber_sees_only_later_seqs() {
        let broker: Broker<u64> = Broker::new(cfg(8, 8, 50));
        let key = TopicKey::new("data", 0);
        let early = broker.subscribe(key.clone()).unwrap();
        broker.publish(&key, 0);
        broker.publish(&key, 1);
        let late = broker.subscribe(key.clone()).unwrap();
        broker.publish(&key, 2);
        assert_eq!(late.stats().joined_seq, 2);
        assert_eq!(late.try_next().unwrap().seq, 2);
        assert!(late.try_next().is_none());
        let seqs: Vec<u64> = std::iter::from_fn(|| early.try_next().map(|m| m.seq)).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn unwatched_topic_never_builds_its_payload() {
        let broker: Broker<u64> = Broker::new(cfg(8, 8, 50));
        let key = TopicKey::new("data", 0);
        let built = std::cell::Cell::new(0u32);
        let publish = |v: u64| {
            broker.publish_with(&key, || {
                built.set(built.get() + 1);
                v
            })
        };
        for v in 0..3 {
            assert_eq!((publish(v).seq, built.get()), (v, 0));
        }
        let late = broker.subscribe(key.clone()).unwrap();
        assert_eq!(publish(3).delivered, 1);
        assert_eq!(
            late.try_next().unwrap().seq,
            3,
            "sequence advanced unwatched"
        );
        assert_eq!(broker.published(&key), 4);
        assert_eq!(built.get(), 1);
    }

    #[test]
    fn cross_thread_consumer_via_recv_deadline() {
        let broker: Broker<u64> = Broker::new(cfg(2, 4, 5000));
        let key = TopicKey::new("data", 0);
        let sub = broker.subscribe(key.clone()).unwrap();
        let consumer = std::thread::spawn(move || {
            let mut total = 0u64;
            loop {
                match sub.recv_deadline(Duration::from_secs(10)) {
                    Ok(Some(msg)) => total += *msg.payload,
                    Ok(None) => break,
                    Err(()) => panic!("consumer starved"),
                }
            }
            total
        });
        for i in 1..=100u64 {
            broker.publish(&key, i);
        }
        broker.finish(&key);
        assert_eq!(consumer.join().unwrap(), 100 * 101 / 2);
    }

    #[test]
    fn publish_step_routes_per_field_and_leaf() {
        use crate::bp::BpVar;
        let broker = StagingBroker::new(cfg(4, 8, 50));
        let s0 = broker.subscribe(TopicKey::new("data", 0)).unwrap();
        let s1 = broker.subscribe(TopicKey::new("data", 1)).unwrap();
        let g0 = broker.subscribe(TopicKey::new("ghost", 0)).unwrap();
        let mut step = BpStep::new(3, 0.3);
        step.vars
            .push(BpVar::new("data", [2, 1, 1], [0, 0, 0], [1, 1, 1], vec![1.0]).with_leaf(0));
        step.vars
            .push(BpVar::new("data", [2, 1, 1], [1, 0, 0], [1, 1, 1], vec![2.0]).with_leaf(1));
        step.vars
            .push(BpVar::new("ghost", [2, 1, 1], [0, 0, 0], [1, 1, 1], vec![0.0]).with_leaf(0));
        let reports = broker.publish_step(&step);
        assert_eq!(reports.len(), 3);
        // A watched variable's payload is shared, not copied.
        let (crate::bp::Payload::F64(sent), crate::bp::Payload::F64(got)) =
            (&step.vars[0].data, &s0.try_next().unwrap().payload.data)
        else {
            panic!("f64 in, f64 out");
        };
        assert!(Arc::ptr_eq(sent, got));
        assert_eq!(s1.try_next().unwrap().payload.data, vec![2.0].into());
        assert_eq!(g0.try_next().unwrap().payload.name, "ghost");
        assert!(s0.try_next().is_none());
    }
}
