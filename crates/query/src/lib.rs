//! # query — the interactive in situ endpoint
//!
//! The fifth endpoint of the reproduction: a [`QueryServer`] registered
//! on the SENSEI `Bridge` that exposes **live per-step field
//! summaries, histograms, and leaf slices** to N concurrent polling
//! clients, plus a **write-back steering channel** that turns
//! [`sensei::Steering`] verdicts into a real control surface —
//! pause/resume, trigger-refine, and oscillator retarget commands
//! applied at the next step boundary.
//!
//! ## Transport: the staging broker, not a new socket layer
//!
//! Query clients are subscriber-class consumers of a generic
//! [`adios::Broker`]: each registered query gets a topic, each polling
//! client a bounded [`adios::Subscription`] queue, and a client that
//! stops draining is **evicted** under the broker's deadline rather
//! than stalling the simulation — the same discipline the
//! `run_endpoint_with_broker` fan-out applies to analysis consumers.
//!
//! ## Replayability contract
//!
//! An interactive session is a *reproducible artifact*. Queries and
//! steering commands are scheduled events: every command the server
//! applies is recorded in the minimpi delivery trace as an
//! `Interactive` event — `(world slot, client id, bridge step, FNV-1a
//! payload digest)` — via [`minimpi::Comm::record_interactive`]. Under
//! `SchedPolicy::Replay` the recorded session replays byte-identically
//! (query responses and `RunReport` alike), and a session whose command
//! stream changed diverges with a diff instead of silently producing
//! different results. Commands therefore come from a [`SessionScript`]
//! pinned to bridge step numbers, which doubles as the wire format a
//! live front end would produce.
//!
//! ## Snapshot discipline
//!
//! Summaries and histograms stream the live publish window (covered by
//! the bridge's sanitizer window). Leaf slices are answered from a
//! double-buffered snapshot of the *previous* step — read-only windows,
//! one step late by design — and the reads are wrapped in their own
//! `publish_dataset` window so the happens-before sanitizer covers the
//! query snapshot path.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use adios::{AdmissionError, Broker, BrokerConfig, EvictionRecord, Subscription, TopicKey};
use minimpi::{Comm, FaultHandle};
use sensei::analysis::{for_each_value, leaf_views};
use sensei::{AnalysisAdaptor, Association, DataAdaptor, FailureReport, Steering};

/// Interactive client identity. Stable across record and replay: the
/// script assigns ids, not the transport.
pub type ClientId = u64;

/// FNV-1a 64-bit digest — the payload fingerprint recorded in the
/// delivery trace for every applied command.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A live query a client registers against the running simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Global (count, min, max, sum) of a field, reduced collectively.
    Summary {
        /// Field name (e.g. `"data"`).
        field: String,
    },
    /// Global histogram of a field; bin count may be refined live via
    /// [`SteerCommand::Refine`].
    Histogram {
        /// Field name.
        field: String,
        /// Requested bin count.
        bins: u32,
    },
    /// The leading values of one local leaf of the serving rank,
    /// answered from the previous step's snapshot (one step late).
    LeafSlice {
        /// Field name.
        field: String,
        /// Local leaf ordinal on the serving rank.
        leaf: u32,
    },
}

impl Query {
    /// Canonical serialization — digest input and log key.
    pub fn canonical(&self) -> String {
        match self {
            Query::Summary { field } => format!("summary field={field}"),
            Query::Histogram { field, bins } => format!("histogram field={field} bins={bins}"),
            Query::LeafSlice { field, leaf } => format!("slice field={field} leaf={leaf}"),
        }
    }
}

/// A write-back steering command, applied at the next step boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum SteerCommand {
    /// Suspend query evaluation (and signal the driver to hold the
    /// simulation) until [`SteerCommand::Resume`].
    Pause,
    /// Resume a paused session.
    Resume,
    /// Trigger refined analysis: histogram queries switch to this bin
    /// count from the next boundary on.
    Refine {
        /// Refined bin count.
        bins: u32,
    },
    /// Retarget an oscillator: move its center and retune its
    /// frequency. The driver drains these via
    /// [`QueryHandle::take_retargets`] and applies them to the
    /// simulation deck — identically on every rank.
    Retarget {
        /// Deck index of the oscillator.
        oscillator: usize,
        /// New center.
        center: [f64; 3],
        /// New angular frequency.
        omega: f64,
    },
    /// Request a steering stop; the bridge records who and why.
    Stop {
        /// Human-readable cause.
        reason: String,
    },
    /// Liveness beacon from a watched steering client.
    Heartbeat,
}

impl SteerCommand {
    /// Canonical serialization — digest input and log key.
    pub fn canonical(&self) -> String {
        match self {
            SteerCommand::Pause => "pause".to_string(),
            SteerCommand::Resume => "resume".to_string(),
            SteerCommand::Refine { bins } => format!("refine bins={bins}"),
            SteerCommand::Retarget {
                oscillator,
                center,
                omega,
            } => format!(
                "retarget osc={oscillator} center={:?},{:?},{:?} omega={omega:?}",
                center[0], center[1], center[2]
            ),
            SteerCommand::Stop { reason } => format!("stop reason={reason}"),
            SteerCommand::Heartbeat => "heartbeat".to_string(),
        }
    }
}

/// One scripted client action.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Register a live query (opens a broker topic + subscription).
    Register(Query),
    /// Apply a steering command.
    Steer(SteerCommand),
}

impl Action {
    /// Canonical serialization — digest input and log key.
    pub fn canonical(&self) -> String {
        match self {
            Action::Register(q) => format!("register {}", q.canonical()),
            Action::Steer(s) => format!("steer {}", s.canonical()),
        }
    }

    /// The payload digest recorded in the delivery trace.
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// One command in a session script.
#[derive(Clone, Debug, PartialEq)]
pub struct ScriptedCommand {
    /// Issuing client.
    pub client: ClientId,
    /// Bridge step boundary at which the command applies.
    pub at_step: u64,
    /// What the client asked for.
    pub action: Action,
}

/// A scripted interactive session: the deterministic command stream
/// every rank's server drains at step boundaries. A live front end
/// produces exactly this shape (client, step, action) — scripting it
/// is what makes a session recordable and replayable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionScript {
    commands: Vec<ScriptedCommand>,
}

impl SessionScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a command applying at step boundary `at_step` (builder).
    #[must_use]
    pub fn at(mut self, at_step: u64, client: ClientId, action: Action) -> Self {
        self.commands.push(ScriptedCommand {
            client,
            at_step,
            action,
        });
        self
    }

    /// The commands, in insertion order.
    pub fn commands(&self) -> &[ScriptedCommand] {
        &self.commands
    }
}

/// Liveness watch over one steering client: the server expects periodic
/// commands (or heartbeats) and degrades to run-to-completion — with a
/// [`FailureReport::DeadSteering`] entry — when the client goes silent
/// past the grace window or its link is severed by fault injection.
#[derive(Clone)]
pub struct SteeringWatch {
    /// Watched client.
    pub client: ClientId,
    /// World slot the client is modeled on (fault-injection key).
    pub peer_slot: usize,
    /// World slot of the serving rank (fault-injection key).
    pub home_slot: usize,
    /// Bridge steps of silence tolerated before declaring it dead.
    pub grace_steps: u64,
    /// Fault switchboard: a severed `peer_slot → home_slot` link
    /// declares the client dead immediately instead of burning the
    /// grace window.
    pub faults: Option<FaultHandle>,
}

/// Query server configuration.
#[derive(Clone)]
pub struct QueryConfig {
    /// Per-client response queue bound (broker queue depth).
    pub queue_depth: usize,
    /// Max concurrent clients per query topic.
    pub max_clients: usize,
    /// How long a publish waits on a slow client before evicting it.
    pub eviction_deadline: Duration,
    /// Cap on values returned by a [`Query::LeafSlice`] response.
    pub slice_cap: usize,
    /// Optional liveness watch over a steering client.
    pub steering_watch: Option<SteeringWatch>,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            queue_depth: 4,
            max_clients: 64,
            eviction_deadline: Duration::from_micros(50),
            slice_cap: 32,
            steering_watch: None,
        }
    }
}

/// One response payload.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponsePayload {
    /// Global field summary.
    Summary {
        /// Non-ghost values summarized.
        count: u64,
        /// Global minimum (0 when `count == 0`).
        min: f64,
        /// Global maximum (0 when `count == 0`).
        max: f64,
        /// Global sum.
        sum: f64,
    },
    /// Global histogram.
    Histogram {
        /// Global minimum of the field.
        min: f64,
        /// Global maximum of the field.
        max: f64,
        /// Per-bin global counts.
        counts: Vec<u64>,
    },
    /// Leading values of one local leaf (previous step's snapshot).
    Slice {
        /// Local leaf ordinal.
        leaf: u32,
        /// Total non-capped length of the leaf's field.
        len: u64,
        /// The first `slice_cap` values.
        values: Vec<f64>,
    },
}

/// One message published to a query topic.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResponse {
    /// Client the response answers.
    pub client: ClientId,
    /// Bridge step the response describes.
    pub step: u64,
    /// Simulation time at that step.
    pub time: f64,
    /// The answer.
    pub payload: ResponsePayload,
}

impl QueryResponse {
    /// Deterministic one-line JSON rendering — the bytes compared for
    /// replay identity and fed to the trace digest.
    pub fn to_json(&self) -> String {
        use probe::Json;
        let payload = match &self.payload {
            ResponsePayload::Summary {
                count,
                min,
                max,
                sum,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("summary".into())),
                ("count".into(), Json::Num(*count as f64)),
                ("min".into(), Json::Num(*min)),
                ("max".into(), Json::Num(*max)),
                ("sum".into(), Json::Num(*sum)),
            ]),
            ResponsePayload::Histogram { min, max, counts } => Json::Obj(vec![
                ("kind".into(), Json::Str("histogram".into())),
                ("min".into(), Json::Num(*min)),
                ("max".into(), Json::Num(*max)),
                (
                    "counts".into(),
                    Json::Arr(counts.iter().map(|c| Json::Num(*c as f64)).collect()),
                ),
            ]),
            ResponsePayload::Slice { leaf, len, values } => Json::Obj(vec![
                ("kind".into(), Json::Str("slice".into())),
                ("leaf".into(), Json::Num(f64::from(*leaf))),
                ("len".into(), Json::Num(*len as f64)),
                (
                    "values".into(),
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]),
        };
        Json::Obj(vec![
            ("client".into(), Json::Num(self.client as f64)),
            ("step".into(), Json::Num(self.step as f64)),
            ("time".into(), Json::Num(self.time)),
            ("payload".into(), payload),
        ])
        .to_string()
    }
}

/// A pending oscillator retarget, drained by the simulation driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetargetCmd {
    /// Deck index.
    pub oscillator: usize,
    /// New center.
    pub center: [f64; 3],
    /// New angular frequency.
    pub omega: f64,
}

/// One live client registration: the query, its topic, and (on the
/// serving rank) the client's subscription.
struct ClientReg {
    client: ClientId,
    query: Query,
    topic: TopicKey,
    sub: Option<Subscription<QueryResponse>>,
    /// Sanitizer obligation id for this live registration: opened at
    /// register/join, discharged at leave, eviction pruning, or server
    /// finalize. `None` when the sanitizer is off.
    obligation: Option<u64>,
}

/// State shared between the server (registered on the bridge) and the
/// [`QueryHandle`] the driver/tests hold.
struct SharedState {
    broker: Broker<QueryResponse>,
    regs: Vec<ClientReg>,
    paused: bool,
    refine_bins: Option<u32>,
    retargets: Vec<RetargetCmd>,
    failures: Vec<FailureReport>,
    evicted: Vec<EvictionRecord>,
    /// Deterministic receive log: one line per message a poll drained.
    log: String,
    responses_published: u64,
    clients_peak: u64,
}

impl SharedState {
    /// Prune registrations whose subscriptions the broker evicted, and
    /// surface the eviction records as typed failures.
    fn drain_evictions(&mut self) -> u64 {
        let records = self.broker.take_evictions();
        let n = records.len() as u64;
        for r in records {
            self.failures.push(r.clone().into());
            self.evicted.push(r);
        }
        self.regs.retain_mut(|r| {
            let keep = r.sub.as_ref().is_none_or(|s| !s.is_evicted());
            if !keep {
                sanitizer::close_obligation(r.obligation.take());
            }
            keep
        });
        n
    }
}

/// Cloneable handle over a [`QueryServer`]'s shared state: the control
/// surface the simulation driver and the clients use.
#[derive(Clone)]
pub struct QueryHandle {
    shared: Arc<Mutex<SharedState>>,
}

impl QueryHandle {
    /// Is the session paused? The driver holds the simulation (but
    /// keeps executing bridge steps, so the resume command can arrive).
    pub fn paused(&self) -> bool {
        self.shared.lock().paused
    }

    /// Drain the retargets steered in since the last call. The driver
    /// applies them to the simulation deck — on every rank, in order.
    pub fn take_retargets(&self) -> Vec<RetargetCmd> {
        std::mem::take(&mut self.shared.lock().retargets)
    }

    /// Dynamically join a client outside the script: subscribe `client`
    /// to a new registration of `query`. For single-rank endpoints
    /// (e.g. the broker soak's churn); multi-rank sessions must script
    /// registrations so every rank sees the same collective sequence.
    pub fn join(
        &self,
        client: ClientId,
        query: Query,
        label: impl Into<String>,
    ) -> Result<(), AdmissionError> {
        let mut s = self.shared.lock();
        let shard = s.regs.iter().filter(|r| r.client == client).count() as u32;
        let topic = TopicKey::new(format!("query/{client}"), shard);
        let sub = s.broker.subscribe_labeled(topic.clone(), label)?;
        let obligation =
            sanitizer::open_obligation("query-client", &format!("client {client} @ {topic}"));
        s.regs.push(ClientReg {
            client,
            query,
            topic,
            sub: Some(sub),
            obligation,
        });
        Ok(())
    }

    /// Disconnect every registration of `client` (client-side leave).
    pub fn leave(&self, client: ClientId) {
        let mut s = self.shared.lock();
        for reg in s.regs.iter_mut().filter(|r| r.client == client) {
            if let Some(sub) = &reg.sub {
                sub.disconnect();
            }
            sanitizer::close_obligation(reg.obligation.take());
        }
        s.regs.retain(|r| r.client != client);
    }

    /// Poll one client: drain its response queues, appending each
    /// message to the deterministic receive log. Returns messages
    /// drained.
    pub fn poll(&self, client: ClientId) -> usize {
        let mut s = self.shared.lock();
        Self::poll_filtered(&mut s, Some(client))
    }

    /// Poll every live client (the "N concurrent polling clients"
    /// tick). Returns messages drained.
    pub fn poll_all(&self) -> usize {
        let mut s = self.shared.lock();
        Self::poll_filtered(&mut s, None)
    }

    fn poll_filtered(s: &mut SharedState, only: Option<ClientId>) -> usize {
        let mut lines = String::new();
        let mut n = 0;
        for reg in &s.regs {
            if only.is_some_and(|c| c != reg.client) {
                continue;
            }
            let Some(sub) = &reg.sub else { continue };
            while let Some(msg) = sub.try_next() {
                use std::fmt::Write as _;
                let _ = writeln!(
                    lines,
                    "client {} topic {} seq {} {}",
                    reg.client,
                    reg.topic,
                    msg.seq,
                    msg.payload.to_json()
                );
                n += 1;
            }
        }
        s.log.push_str(&lines);
        n
    }

    /// The deterministic receive log: every message every poll drained,
    /// in drain order. Byte-identical across record and replay.
    pub fn session_log(&self) -> String {
        self.shared.lock().log.clone()
    }

    /// Live registration count.
    pub fn live_clients(&self) -> usize {
        self.shared.lock().regs.len()
    }

    /// Responses published so far.
    pub fn responses_published(&self) -> u64 {
        self.shared.lock().responses_published
    }

    /// Eviction records accumulated so far (also surfaced as typed
    /// [`FailureReport::Eviction`] entries through the bridge).
    pub fn evictions(&self) -> Vec<EvictionRecord> {
        self.shared.lock().evicted.clone()
    }

    /// Fairness over the live query topics: min/max messages delivered
    /// across subscribers, minimized over topics. `None` until
    /// something was published.
    pub fn fairness(&self) -> Option<f64> {
        let s = self.shared.lock();
        let mut worst: Option<f64> = None;
        for reg in &s.regs {
            if let Some(f) = s.broker.fairness(&reg.topic) {
                worst = Some(worst.map_or(f, |w: f64| w.min(f)));
            }
        }
        worst
    }
}

/// Tracks the liveness of a watched steering client.
struct WatchState {
    watch: SteeringWatch,
    last_seen: u64,
    dead: bool,
}

/// The interactive query server. Register it on a `Bridge` like any
/// analysis; drive the session with a [`SessionScript`]; control the
/// simulation through the [`QueryHandle`].
pub struct QueryServer {
    shared: Arc<Mutex<SharedState>>,
    script: Arc<SessionScript>,
    /// Script indices in stable (at_step, insertion) order.
    order: Vec<usize>,
    cursor: usize,
    cfg: QueryConfig,
    watch: Option<WatchState>,
    /// Bridge steps executed (the boundary counter the script is
    /// pinned to).
    step: u64,
    /// Double-buffered snapshots for slice queries: the window being
    /// read and the window being filled coexist.
    slots: [Option<Arc<datamodel::DataSet>>; 2],
    /// Stop verdict drained this step, if any.
    pending_stop: Option<String>,
    /// Set on first execute: this rank serves the broker fan-out.
    serving: Option<bool>,
}

impl QueryServer {
    /// Build a server around a session script.
    pub fn new(script: Arc<SessionScript>, cfg: QueryConfig) -> Self {
        let mut order: Vec<usize> = (0..script.commands().len()).collect();
        order.sort_by_key(|&i| script.commands()[i].at_step);
        let watch = cfg.steering_watch.clone().map(|watch| WatchState {
            watch,
            last_seen: 0,
            dead: false,
        });
        let shared = Arc::new(Mutex::new(SharedState {
            broker: Broker::new(BrokerConfig {
                queue_depth: cfg.queue_depth,
                max_subscribers: cfg.max_clients,
                eviction_deadline: cfg.eviction_deadline,
            }),
            regs: Vec::new(),
            paused: false,
            refine_bins: None,
            retargets: Vec::new(),
            failures: Vec::new(),
            evicted: Vec::new(),
            log: String::new(),
            responses_published: 0,
            clients_peak: 0,
        }));
        QueryServer {
            shared,
            script,
            order,
            cursor: 0,
            cfg,
            watch,
            step: 0,
            slots: [None, None],
            pending_stop: None,
            serving: None,
        }
    }

    /// The control handle shared with the driver and the clients.
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Apply one scripted command at boundary `step`. Records the trace
    /// event, then mutates session state. Returns `true` when the
    /// command requests a stop.
    fn apply(&mut self, idx: usize, step: u64, comm: &Comm, probe: &probe::Probe) {
        let cmd = self.script.commands()[idx].clone();
        if let Some(w) = &self.watch {
            if w.dead && cmd.client == w.watch.client {
                // Commands from a client already declared dead are
                // unreachable in a real deployment; skip them so the
                // degraded run stays deterministic.
                return;
            }
        }
        let canonical = cmd.action.canonical();
        comm.record_interactive(cmd.client, step, cmd.action.digest());
        probe.bulk(
            &probe::key::of("query", "commands"),
            1,
            1,
            canonical.len() as u64,
        );
        if let Some(w) = &mut self.watch {
            if cmd.client == w.watch.client {
                w.last_seen = step;
            }
        }
        let serving = self.serving.unwrap_or(false);
        match cmd.action {
            Action::Register(query) => {
                let mut s = self.shared.lock();
                let shard = s.regs.iter().filter(|r| r.client == cmd.client).count() as u32;
                let topic = TopicKey::new(format!("query/{}", cmd.client), shard);
                // Only the serving rank hosts subscriptions; every rank
                // tracks the registration so collective evaluation
                // stays aligned.
                let sub = if serving {
                    match s
                        .broker
                        .subscribe_labeled(topic.clone(), format!("client-{}", cmd.client))
                    {
                        Ok(sub) => Some(sub),
                        Err(err) => {
                            s.failures.push(FailureReport::Other {
                                detail: format!("query: admission refused: {err}"),
                            });
                            return;
                        }
                    }
                } else {
                    None
                };
                let obligation = sanitizer::open_obligation(
                    "query-client",
                    &format!("client {} @ {topic}", cmd.client),
                );
                s.regs.push(ClientReg {
                    client: cmd.client,
                    query,
                    topic,
                    sub,
                    obligation,
                });
                s.clients_peak = s.clients_peak.max(s.regs.len() as u64);
            }
            Action::Steer(steer) => {
                let mut s = self.shared.lock();
                match steer {
                    SteerCommand::Pause => s.paused = true,
                    SteerCommand::Resume => s.paused = false,
                    SteerCommand::Refine { bins } => s.refine_bins = Some(bins),
                    SteerCommand::Retarget {
                        oscillator,
                        center,
                        omega,
                    } => s.retargets.push(RetargetCmd {
                        oscillator,
                        center,
                        omega,
                    }),
                    SteerCommand::Stop { reason } => self.pending_stop = Some(reason),
                    SteerCommand::Heartbeat => {}
                }
            }
        }
    }

    /// Check the steering watch at boundary `step`; on death, record
    /// the typed failure and degrade to run-to-completion.
    fn check_watch(&mut self, step: u64) {
        let Some(w) = &mut self.watch else { return };
        if w.dead {
            return;
        }
        let waited = step.saturating_sub(w.last_seen);
        let severed = w
            .watch
            .faults
            .as_ref()
            .is_some_and(|f| f.is_severed(w.watch.peer_slot, w.watch.home_slot));
        if severed || waited >= w.watch.grace_steps {
            w.dead = true;
            self.shared
                .lock()
                .failures
                .push(FailureReport::DeadSteering {
                    client: w.watch.client,
                    step,
                    waited_steps: waited,
                });
        }
    }

    /// Evaluate every registered query and publish the responses from
    /// the serving rank. Collective: summary and histogram queries
    /// reduce over `comm` on every rank.
    fn evaluate(&mut self, data: &dyn DataAdaptor, comm: &Comm, probe: &probe::Probe) {
        let serving = self.serving.unwrap_or(false);
        let step = self.step;
        let refine = self.shared.lock().refine_bins;
        // Registration list is identical on every rank (script-driven),
        // so the collective sequence below stays aligned.
        let regs: Vec<(ClientId, Query)> = self
            .shared
            .lock()
            .regs
            .iter()
            .map(|r| (r.client, r.query.clone()))
            .collect();
        let mut responses: Vec<(usize, QueryResponse)> = Vec::new();
        for (i, (client, query)) in regs.iter().enumerate() {
            let payload = match query {
                Query::Summary { field } => {
                    let mut local = (0u64, f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
                    let n = each_value(data, field, |v| {
                        local.1 = local.1.min(v);
                        local.2 = local.2.max(v);
                        local.3 += v;
                    });
                    local.0 = n as u64;
                    let global = comm.allreduce(local, |a, b| {
                        (a.0 + b.0, a.1.min(b.1), a.2.max(b.2), a.3 + b.3)
                    });
                    Some(ResponsePayload::Summary {
                        count: global.0,
                        min: if global.0 == 0 { 0.0 } else { global.1 },
                        max: if global.0 == 0 { 0.0 } else { global.2 },
                        sum: global.3,
                    })
                }
                Query::Histogram { field, bins } => {
                    let bins = refine.unwrap_or(*bins).max(1) as usize;
                    let mut range = (f64::INFINITY, f64::NEG_INFINITY);
                    each_value(data, field, |v| {
                        range.0 = range.0.min(v);
                        range.1 = range.1.max(v);
                    });
                    let (min, max) = comm.allreduce(range, |a, b| (a.0.min(b.0), a.1.max(b.1)));
                    let width = if max > min {
                        (max - min) / bins as f64
                    } else {
                        1.0
                    };
                    let mut counts = vec![0u64; bins];
                    each_value(data, field, |v| {
                        let b = (((v - min) / width) as usize).min(bins - 1);
                        counts[b] += 1;
                    });
                    let counts = comm.allreduce_vec(counts, |a, b| a + b);
                    let empty = counts.iter().all(|&c| c == 0);
                    Some(ResponsePayload::Histogram {
                        min: if empty { 0.0 } else { min },
                        max: if empty { 0.0 } else { max },
                        counts,
                    })
                }
                Query::LeafSlice { field, leaf } => {
                    // One step late, from the previous snapshot slot;
                    // nothing collective here.
                    if !serving {
                        None
                    } else {
                        self.slots[((step + 1) % 2) as usize]
                            .as_ref()
                            .map(Arc::clone)
                            .and_then(|snap| {
                                // Sanitizer coverage for the query
                                // snapshot path: a read-only publish
                                // window over the double-buffered data.
                                let _window = if sanitizer::active() {
                                    Some(datamodel::publish_dataset(&snap, "query"))
                                } else {
                                    None
                                };
                                slice_leaf(&snap, field, *leaf, self.cfg.slice_cap)
                            })
                    }
                }
            };
            if let Some(payload) = payload {
                responses.push((
                    i,
                    QueryResponse {
                        client: *client,
                        step,
                        time: data.time(),
                        payload,
                    },
                ));
            }
        }
        if !serving {
            return;
        }
        let mut s = self.shared.lock();
        let mut bytes = 0u64;
        let mut published = 0u64;
        for (i, response) in responses {
            let Some(reg) = s.regs.get(i) else { continue };
            if reg.sub.as_ref().is_some_and(|sub| sub.is_evicted()) {
                continue;
            }
            let topic = reg.topic.clone();
            bytes += response.to_json().len() as u64;
            s.broker.publish(&topic, response);
            published += 1;
        }
        s.responses_published += published;
        if published > 0 {
            probe.bulk(
                &probe::key::of("query", "responses"),
                published,
                published,
                bytes,
            );
        }
        let evicted = s.drain_evictions();
        if evicted > 0 {
            probe.bulk(&probe::key::of("query", "evictions"), evicted, 0, 0);
        }
        probe.gauge_max(&probe::key::of("query", "clients_peak"), s.clients_peak);
    }
}

/// Stream a field's non-ghost values, trying point association first
/// and falling back to cell. An unreadable field counts as absent.
fn each_value(data: &dyn DataAdaptor, field: &str, mut f: impl FnMut(f64)) -> usize {
    let n = for_each_value(data, Association::Point, field, &mut f).unwrap_or(0);
    if n > 0 {
        return n;
    }
    for_each_value(data, Association::Cell, field, &mut f).unwrap_or(0)
}

/// Read the leading values of leaf `leaf`'s field from a snapshot.
fn slice_leaf(
    snap: &datamodel::DataSet,
    field: &str,
    leaf: u32,
    cap: usize,
) -> Option<ResponsePayload> {
    let leaf_ds = snap.leaves().nth(leaf as usize)?;
    let view = [Association::Point, Association::Cell]
        .into_iter()
        .find_map(|assoc| leaf_views(leaf_ds, assoc, field).ok()?.pop())?;
    let values = &view.values;
    Some(ResponsePayload::Slice {
        leaf,
        len: values.len() as u64,
        values: values[..values.len().min(cap)].to_vec(),
    })
}

impl AnalysisAdaptor for QueryServer {
    fn name(&self) -> &str {
        "query-server"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let probe = comm.probe();
        if self.serving.is_none() {
            // Rank 0 of the bridge's communicator hosts the fan-out.
            self.serving = Some(comm.rank() == 0);
            if comm.rank() == 0 {
                // Query evictions and queue peaks flow into the same
                // probe surface the staging broker reports on
                // (`broker/evictions`, `broker/<topic>/queue_peak`).
                self.shared.lock().broker.attach_probe(probe.clone());
            }
        }
        let step = self.step;
        // 1. Drain the script up to this boundary, in stable step
        //    order. Every applied command lands in the delivery trace.
        while self.cursor < self.order.len() {
            let idx = self.order[self.cursor];
            if self.script.commands()[idx].at_step > step {
                break;
            }
            self.cursor += 1;
            self.apply(idx, step, comm, &probe);
        }
        // 2. Liveness: a silent (or severed) steering client degrades
        //    the session to run-to-completion instead of blocking.
        self.check_watch(step);
        // 3. Evaluate and publish, unless paused.
        let paused = self.shared.lock().paused;
        if paused {
            probe.bulk(&probe::key::of("query", "paused_steps"), 1, 0, 0);
        } else {
            self.evaluate(data, comm, &probe);
            if self.serving == Some(true) {
                let has_slice = self
                    .shared
                    .lock()
                    .regs
                    .iter()
                    .any(|r| matches!(r.query, Query::LeafSlice { .. }));
                if has_slice {
                    // Fill this step's snapshot slot after evaluation:
                    // slices always answer from the previous window.
                    self.slots[(step % 2) as usize] = Some(Arc::new(data.full_mesh()));
                }
            }
        }
        self.step += 1;
        match self.pending_stop.take() {
            Some(reason) => Steering::Stop { reason },
            None => Steering::Continue,
        }
    }

    fn finalize(&mut self, _comm: &Comm) {
        let mut s = self.shared.lock();
        s.broker.finish_all();
        let _ = s.drain_evictions();
        // Server teardown is the legitimate discharge point for
        // scripted registrations: clients that never left are closed
        // with the broker, not leaked.
        for reg in s.regs.iter_mut() {
            sanitizer::close_obligation(reg.obligation.take());
        }
    }

    fn take_failure_reports(&mut self) -> Vec<FailureReport> {
        std::mem::take(&mut self.shared.lock().failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{DataArray, DataSet, Extent, ImageData};
    use minimpi::World;
    use sensei::{Bridge, InMemoryAdaptor};

    fn adaptor(step: u64) -> InMemoryAdaptor {
        let e = Extent::whole([4, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned(
            "data",
            1,
            vec![1.0, 2.0, 3.0, 4.0 + step as f64],
        ));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        let a = Action::Register(Query::Summary {
            field: "data".into(),
        });
        let b = Action::Steer(SteerCommand::Retarget {
            oscillator: 1,
            center: [0.5, 0.25, 0.125],
            omega: 3.5,
        });
        assert_eq!(a.digest(), a.digest());
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.canonical(), "register summary field=data");
        assert_eq!(
            b.canonical(),
            "steer retarget osc=1 center=0.5,0.25,0.125 omega=3.5"
        );
    }

    #[test]
    fn scripted_session_publishes_summaries_and_applies_steering() {
        let script = Arc::new(
            SessionScript::new()
                .at(
                    0,
                    1,
                    Action::Register(Query::Summary {
                        field: "data".into(),
                    }),
                )
                .at(
                    0,
                    2,
                    Action::Register(Query::Histogram {
                        field: "data".into(),
                        bins: 4,
                    }),
                )
                .at(1, 1, Action::Steer(SteerCommand::Pause))
                .at(
                    2,
                    1,
                    Action::Steer(SteerCommand::Retarget {
                        oscillator: 0,
                        center: [0.9, 0.1, 0.9],
                        omega: 7.0,
                    }),
                )
                .at(2, 1, Action::Steer(SteerCommand::Resume))
                .at(3, 2, Action::Steer(SteerCommand::Refine { bins: 8 })),
        );
        World::run(1, move |comm| {
            let server = QueryServer::new(Arc::clone(&script), QueryConfig::default());
            let handle = server.handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(server));
            for s in 0..5 {
                assert!(bridge.execute(&adaptor(s), comm).should_continue());
                handle.poll_all();
            }
            bridge.finalize(comm);
            // Step 1 was paused: 2 registrations × 4 live steps.
            assert_eq!(handle.responses_published(), 8);
            let retargets = handle.take_retargets();
            assert_eq!(
                retargets,
                vec![RetargetCmd {
                    oscillator: 0,
                    center: [0.9, 0.1, 0.9],
                    omega: 7.0,
                }]
            );
            let log = handle.session_log();
            // Step 0 histogram: values 1..=4 over 4 bins, one each.
            assert!(log.contains(r#""counts":[1,1,1,1]"#), "{log}");
            // The refine command widened the histogram to 8 bins from
            // step 3 on.
            assert!(log.contains(r#""counts":[1,1,1,0,0,0,0,1]"#), "{log}");
            assert!(!handle.paused());
        });
    }

    #[test]
    fn slices_answer_from_the_previous_snapshot() {
        let script = Arc::new(SessionScript::new().at(
            0,
            9,
            Action::Register(Query::LeafSlice {
                field: "data".into(),
                leaf: 0,
            }),
        ));
        World::run(1, move |comm| {
            let server = QueryServer::new(Arc::clone(&script), QueryConfig::default());
            let handle = server.handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(server));
            // Step 0: no snapshot yet — nothing published.
            bridge.execute(&adaptor(0), comm);
            handle.poll_all();
            assert_eq!(handle.responses_published(), 0);
            // Step 1: answers from step 0's window (last value 4.0).
            bridge.execute(&adaptor(1), comm);
            handle.poll_all();
            bridge.finalize(comm);
            assert_eq!(handle.responses_published(), 1);
            let log = handle.session_log();
            assert!(
                log.contains(r#""values":[1,2,3,4]"#),
                "one step late: {log}"
            );
        });
    }

    #[test]
    fn slow_clients_are_evicted_not_waited_for() {
        let script = Arc::new(
            SessionScript::new()
                .at(
                    0,
                    5,
                    Action::Register(Query::Summary {
                        field: "data".into(),
                    }),
                )
                .at(
                    0,
                    6,
                    Action::Register(Query::Summary {
                        field: "data".into(),
                    }),
                ),
        );
        World::run(1, move |comm| {
            let cfg = QueryConfig {
                queue_depth: 1,
                eviction_deadline: Duration::from_micros(10),
                ..QueryConfig::default()
            };
            let server = QueryServer::new(Arc::clone(&script), cfg);
            let handle = server.handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(server));
            for s in 0..4 {
                bridge.execute(&adaptor(s), comm);
                // Client 5 polls; client 6 stalls and must be evicted.
                handle.poll(5);
            }
            bridge.finalize(comm);
            let evictions = handle.evictions();
            assert_eq!(evictions.len(), 1, "{evictions:?}");
            assert_eq!(evictions[0].label, "client-6");
            let failures = bridge.failure_reports();
            assert!(
                failures.iter().any(|f| f.kind() == "eviction"),
                "{failures:?}"
            );
            assert_eq!(handle.live_clients(), 1);
        });
    }

    #[test]
    fn silent_steering_client_degrades_to_run_to_completion() {
        let script = Arc::new(SessionScript::new());
        World::run(1, move |comm| {
            let cfg = QueryConfig {
                steering_watch: Some(SteeringWatch {
                    client: 42,
                    peer_slot: 1,
                    home_slot: 0,
                    grace_steps: 2,
                    faults: None,
                }),
                ..QueryConfig::default()
            };
            let server = QueryServer::new(Arc::clone(&script), cfg);
            let mut bridge = Bridge::new();
            bridge.register(Box::new(server));
            for s in 0..4 {
                assert!(bridge.execute(&adaptor(s), comm).should_continue());
            }
            bridge.finalize(comm);
            let failures = bridge.failure_reports();
            let dead: Vec<_> = failures
                .iter()
                .filter(|f| f.kind() == "dead-steering")
                .collect();
            assert_eq!(dead.len(), 1, "{failures:?}");
            assert!(dead[0].to_string().contains("steering client 42"));
        });
    }
}
