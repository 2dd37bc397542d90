//! Deterministic scheduling: seed-driven serialized execution, delivery
//! traces, replay, and the guided policy the model checker steers.
//!
//! The thread-backed substrate normally runs at the mercy of the OS
//! scheduler: which rank runs next, and which sender an `ANY_SOURCE`
//! receive matches first, differ run to run. That is faithful to real
//! MPI — and useless for reproducing a bad interleaving. This module
//! adds a cooperative scheduler that serializes rank execution around a
//! single turn token and makes every nondeterministic decision
//! explicitly, driven by a seeded RNG:
//!
//! * **run decisions** — at every scheduling point (post-send
//!   preemption, receive blocking, rank completion) the policy picks
//!   which runnable rank executes next;
//! * **match decisions** — when an `ANY_SOURCE` receive could match
//!   envelopes from several senders, the policy picks the sender;
//! * **virtual time** — injected link delays advance a virtual clock
//!   instead of sleeping, and `recv_deadline` times out *only at
//!   quiescence* (no rank can run), earliest virtual deadline first,
//!   ties broken by world slot. Rank-side span timings run on
//!   [`probe::time`]'s per-thread virtual tick source.
//!
//! Every decision and delivery is recorded in a [`Trace`]. The same
//! [`SchedPolicy::Seeded`] seed replays the identical schedule
//! byte-for-byte; [`SchedPolicy::Replay`] forces a recorded trace and
//! panics with a diff on the first divergence. A deadlock under the
//! deterministic scheduler is detected *exactly* (the ready set empties
//! with unfinished ranks) — no grace period, no wall-clock watchdog —
//! and every blocked rank panics with a per-rank dump plus the seed.
//!
//! [`SchedPolicy::Guided`] is how [`crate::Checker`] searches
//! interleavings: a forced decision prefix per run, each run's decisions
//! logged for the next branch, failures replayed under
//! [`SchedPolicy::Replay`].

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::envelope::Tag;

/// How a world schedules its ranks.
#[derive(Clone, Debug)]
pub enum SchedPolicy {
    /// OS threads run freely (the default; faithful nondeterminism).
    Os,
    /// Serialized deterministic execution: every scheduling and
    /// matching decision comes from an RNG seeded with this value. The
    /// same seed reproduces the identical interleaving, delivery trace,
    /// and (under virtual time) byte-identical observability output.
    Seeded(u64),
    /// Re-execute a recorded [`Trace`]: decisions are forced from the
    /// trace and every emitted event is verified against it; the first
    /// divergence panics with a diff.
    Replay(Trace),
    /// Systematic exploration: a forced decision prefix steers the run
    /// down one branch of the schedule tree, and past the prefix a
    /// deterministic fair round-robin default takes over. Every
    /// decision (its enabled set and the value chosen) is recorded in
    /// the guide's [`DecisionLog`] so the DPOR explorer
    /// ([`crate::dpor::Checker`]) can compute backtrack points. The
    /// round-robin default is *fair*: no enabled rank is skipped more
    /// than a full rotation, so a liveness finding under this policy is
    /// a program bug, not scheduler-induced starvation.
    Guided(Guide),
}

/// The kind of a recorded scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// Which runnable world slot received the turn token.
    Run,
    /// Which communicator-local source an `ANY_SOURCE` receive on
    /// world slot `slot` matched.
    Match {
        /// Receiving world slot.
        slot: usize,
    },
}

/// One scheduling decision a guided run made: the choices that were
/// enabled, the one taken, and where in the delivery trace it landed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// What was being decided.
    pub kind: DecisionKind,
    /// The enabled choice values (world slots for [`DecisionKind::Run`],
    /// communicator-local sources for [`DecisionKind::Match`]), in
    /// deterministic order.
    pub enabled: Vec<usize>,
    /// The value chosen.
    pub chosen: usize,
    /// Index into [`Trace::events`] at the instant of the decision (the
    /// chosen slot's actions land at and after this position).
    pub trace_pos: usize,
}

/// Shared log of every decision a [`SchedPolicy::Guided`] run made.
/// Clones share the log; take the records after the world joins.
#[derive(Clone, Default)]
pub struct DecisionLog {
    inner: Arc<Mutex<DecisionLogState>>,
}

#[derive(Default)]
struct DecisionLogState {
    records: Vec<DecisionRecord>,
    divergences: usize,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recorded decisions and the count of prefix divergences
    /// (forced choices that were not enabled when their turn came),
    /// leaving the log empty.
    pub fn take(&self) -> (Vec<DecisionRecord>, usize) {
        let mut st = self.inner.lock();
        (
            std::mem::take(&mut st.records),
            std::mem::take(&mut st.divergences),
        )
    }

    fn push(&self, record: DecisionRecord) {
        self.inner.lock().records.push(record);
    }

    fn mark_divergence(&self) {
        self.inner.lock().divergences += 1;
    }
}

/// Steering input for a [`SchedPolicy::Guided`] run: a forced decision
/// prefix (chosen *values*, one per decision point) plus the shared
/// [`DecisionLog`] the run records into.
#[derive(Clone, Default)]
pub struct Guide {
    prefix: Arc<Vec<usize>>,
    log: DecisionLog,
}

impl Guide {
    /// A guide forcing the first `prefix.len()` decisions to the given
    /// choice values (a forced value that is not enabled at its
    /// decision point is skipped and counted as a divergence).
    pub fn new(prefix: Vec<usize>) -> Guide {
        Guide {
            prefix: Arc::new(prefix),
            log: DecisionLog::new(),
        }
    }

    /// A handle on the log this guide's run records into.
    pub fn log(&self) -> DecisionLog {
        self.log.clone()
    }
}

impl std::fmt::Debug for Guide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Guide {{ prefix: {:?} }}", self.prefix)
    }
}

/// Bounded-fairness liveness thresholds for a scheduled world. All
/// counts are in scheduling decisions (turn-token grants), so breaches
/// are deterministic and replay exactly: re-running a recorded trace
/// under the same spec aborts at the same event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LivenessSpec {
    /// Abort once this many scheduling decisions have been made with
    /// unfinished ranks (livelock / starvation backstop).
    pub max_decisions: u64,
    /// Abort when one rank passes this many consecutive
    /// [`yield_point`] spins without making progress (a send or match
    /// resets the count) — the shape of a producer spinning forever on
    /// a full queue.
    pub spin_limit: u64,
    /// When the decision budget trips, a live rank that made no
    /// progress in this many trailing decisions while others kept
    /// progressing is reported as starved.
    pub starvation_window: u64,
}

impl Default for LivenessSpec {
    fn default() -> Self {
        LivenessSpec {
            max_decisions: 20_000,
            spin_limit: 2_000,
            starvation_window: 1_000,
        }
    }
}

/// One entry of a delivery trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The scheduler granted the turn to world slot `slot`.
    Run {
        /// Chosen world slot.
        slot: usize,
    },
    /// World slot `from` delivered a message to world slot `to`.
    Send {
        /// Sending world slot.
        from: usize,
        /// Receiving world slot.
        to: usize,
        /// Raw tag bits.
        tag: u64,
    },
    /// World slot `slot` matched an `ANY_SOURCE` receive against the
    /// envelope from communicator-local rank `src`.
    Match {
        /// Receiving world slot.
        slot: usize,
        /// Chosen communicator-local source rank.
        src: usize,
        /// Raw tag bits.
        tag: u64,
    },
}

impl Event {
    fn to_json(&self) -> probe::Json {
        use probe::Json;
        match self {
            Event::Run { slot } => Json::Arr(vec![Json::Str("r".into()), Json::Num(*slot as f64)]),
            Event::Send { from, to, tag } => Json::Arr(vec![
                Json::Str("s".into()),
                Json::Num(*from as f64),
                Json::Num(*to as f64),
                Json::Str(format!("{tag:x}")),
            ]),
            Event::Match { slot, src, tag } => Json::Arr(vec![
                Json::Str("m".into()),
                Json::Num(*slot as f64),
                Json::Num(*src as f64),
                Json::Str(format!("{tag:x}")),
            ]),
        }
    }

    fn from_json(v: &probe::Json) -> Result<Event, String> {
        let items = v.as_arr().ok_or("event is not an array")?;
        let kind = items
            .first()
            .and_then(probe::Json::as_str)
            .ok_or("event missing kind")?;
        let num = |i: usize| -> Result<usize, String> {
            items
                .get(i)
                .and_then(probe::Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("event field {i} is not an index"))
        };
        let tag = |i: usize| -> Result<u64, String> {
            let s = items
                .get(i)
                .and_then(probe::Json::as_str)
                .ok_or_else(|| format!("event field {i} is not a tag"))?;
            u64::from_str_radix(s, 16).map_err(|e| format!("bad tag '{s}': {e}"))
        };
        match kind {
            "r" => Ok(Event::Run { slot: num(1)? }),
            "s" => Ok(Event::Send {
                from: num(1)?,
                to: num(2)?,
                tag: tag(3)?,
            }),
            "m" => Ok(Event::Match {
                slot: num(1)?,
                src: num(2)?,
                tag: tag(3)?,
            }),
            other => Err(format!("unknown event kind '{other}'")),
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Run { slot } => write!(f, "run slot {slot}"),
            Event::Send { from, to, tag } => {
                write!(f, "send {from} -> {to} tag {}", Tag(*tag))
            }
            Event::Match { slot, src, tag } => {
                write!(f, "match slot {slot} <- src {src} tag {}", Tag(*tag))
            }
        }
    }
}

/// A recorded schedule: the seed it ran under and every decision and
/// delivery, in order. Serializes to compact JSON via [`probe::Json`]
/// so a failing run can print itself and be replayed from a log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Seed of the run that produced this trace (`None` for replays of
    /// hand-built traces).
    pub seed: Option<u64>,
    /// Every decision and delivery, in schedule order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Serialize to one compact JSON line.
    pub fn to_json(&self) -> String {
        use probe::Json;
        let mut members = Vec::new();
        match self.seed {
            Some(seed) => members.push(("seed".to_string(), Json::Num(seed as f64))),
            None => members.push(("seed".to_string(), Json::Null)),
        }
        members.push((
            "events".to_string(),
            Json::Arr(self.events.iter().map(Event::to_json).collect()),
        ));
        Json::Obj(members).to_string()
    }

    /// Parse a trace previously written by [`Trace::to_json`].
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let v = probe::Json::parse(text)?;
        let seed = match v.get("seed") {
            Some(probe::Json::Null) | None => None,
            Some(s) => Some(s.as_u64().ok_or("seed is not an integer")?),
        };
        let events = v
            .get("events")
            .and_then(probe::Json::as_arr)
            .ok_or("missing events array")?
            .iter()
            .map(Event::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { seed, events })
    }
}

/// Shared slot a world deposits its finished [`Trace`] into (also on
/// panic), so tests and the [`crate::Checker`] can retrieve the schedule
/// of a run that unwound. Clones share the slot.
#[derive(Clone, Default)]
pub struct TraceCell {
    inner: Arc<Mutex<Option<Trace>>>,
}

impl TraceCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the deposited trace, leaving the cell empty.
    pub fn take(&self) -> Option<Trace> {
        self.inner.lock().take()
    }

    pub(crate) fn set(&self, trace: Trace) {
        *self.inner.lock() = Some(trace);
    }
}

/// Why a blocked receive woke up.
pub(crate) enum Wake {
    /// New mail may have arrived; re-check the pending queue.
    Mail,
    /// The receive's virtual deadline fired at quiescence.
    Deadline,
    /// The world is aborting (deadlock or replay divergence); panic
    /// with this message.
    Abort(String),
}

/// What a rank is blocked on, for exact deadlock reports and deadline
/// arbitration.
pub(crate) struct WaitInfo {
    pub comm_rank: usize,
    pub comm_size: usize,
    /// Awaited communicator-local source ([`crate::ANY_SOURCE`] = any).
    pub src: usize,
    pub tag: Tag,
    /// Absolute virtual deadline in nanoseconds, when the receive has
    /// one.
    pub deadline_nanos: Option<u64>,
    /// Snapshot of unmatched `(src, tag)` pairs in the pending queue.
    pub pending: Vec<(usize, Tag)>,
}

enum Status {
    Runnable,
    Blocked(WaitInfo),
    Finished,
}

enum Mode {
    Seeded(StdRng),
    Replay {
        recorded: Vec<Event>,
        pos: usize,
    },
    Guided {
        guide: Guide,
        /// Next decision index (consumes the guide's prefix).
        pos: usize,
        /// Fair round-robin rotor: the slot the default policy tries
        /// first at the next run decision.
        rotor: usize,
    },
}

/// Which liveness threshold tripped.
enum LivenessBreach {
    /// The global decision budget ran out with unfinished ranks.
    Budget,
    /// This slot hit the consecutive-spin limit at a [`yield_point`].
    Spin(usize),
}

struct State {
    mode: Mode,
    /// World slot currently holding the turn token.
    current: Option<usize>,
    /// Set once the first grant has been made.
    started: bool,
    status: Vec<Status>,
    /// Per-slot flag: the last wake was a deadline expiry.
    deadline_fired: Vec<bool>,
    /// Virtual clock, nanoseconds. Advanced by injected link delays
    /// and by deadline expiry at quiescence.
    vclock_nanos: u64,
    trace: Trace,
    /// Set when the world must abort (exact deadlock, replay
    /// divergence, or liveness breach). Every waiting rank panics with
    /// this message.
    abort: Option<String>,
    /// Bounded-fairness thresholds, when liveness analysis is on.
    liveness: Option<LivenessSpec>,
    /// Scheduling decisions made so far (turn-token grants).
    decisions: u64,
    /// Per-slot consecutive [`yield_point`] spins without progress.
    spin_counts: Vec<u64>,
    /// Per-slot decision count at the last progress event (send or
    /// match).
    last_progress: Vec<u64>,
    /// The runnable slots of the decision being made, sized for every
    /// slot when the world is built: a decision allocates nothing.
    runnable: Vec<usize>,
}

/// Trace events reserved when the world is built, before any rank
/// holds the turn: a run that records fewer grows its trace on no
/// rank's thread, so a rank's heap calls do not follow the
/// interleaving. A longer run doubles it on the rank thread that
/// records the next event.
const TRACE_RESERVE: usize = 1 << 12;

/// The serialized deterministic scheduler shared by every rank of one
/// world. At most one rank executes user code at any instant; all
/// interleaving freedom is concentrated in the explicit decisions this
/// type makes (and records).
pub(crate) struct Sched {
    state: Mutex<State>,
    cv: Condvar,
}

impl Sched {
    /// Build the engine for a deterministic policy.
    ///
    /// # Panics
    /// Panics when handed [`SchedPolicy::Os`] — an OS-scheduled world
    /// has no engine.
    pub(crate) fn new(
        size: usize,
        policy: &SchedPolicy,
        liveness: Option<LivenessSpec>,
    ) -> Arc<Sched> {
        let (mode, seed) = match policy {
            SchedPolicy::Os => panic!("SchedPolicy::Os has no scheduler engine"),
            SchedPolicy::Seeded(seed) => (Mode::Seeded(StdRng::seed_from_u64(*seed)), Some(*seed)),
            SchedPolicy::Replay(trace) => (
                Mode::Replay {
                    recorded: trace.events.clone(),
                    pos: 0,
                },
                trace.seed,
            ),
            SchedPolicy::Guided(guide) => (
                Mode::Guided {
                    guide: guide.clone(),
                    pos: 0,
                    rotor: 0,
                },
                None,
            ),
        };
        Arc::new(Sched {
            state: Mutex::new(State {
                mode,
                current: None,
                started: false,
                status: (0..size).map(|_| Status::Runnable).collect(),
                deadline_fired: vec![false; size],
                vclock_nanos: 0,
                trace: Trace {
                    seed,
                    events: Vec::with_capacity(TRACE_RESERVE),
                },
                abort: None,
                liveness,
                decisions: 0,
                spin_counts: vec![0; size],
                last_progress: vec![0; size],
                runnable: Vec::with_capacity(size),
            }),
            cv: Condvar::new(),
        })
    }

    /// Block until this rank is granted the turn token for the first
    /// time. Called once per rank before user code runs.
    pub(crate) fn acquire(&self, slot: usize) {
        let mut s = self.state.lock();
        if !s.started {
            s.started = true;
            self.pick_and_grant(&mut s);
            self.cv.notify_all();
        }
        while s.current != Some(slot) {
            if let Some(msg) = &s.abort {
                let msg = msg.clone();
                drop(s);
                panic!("{msg}");
            }
            self.cv.wait(&mut s);
        }
    }

    /// Scheduling point after a delivery: record the send, wake the
    /// destination if it was blocked, then let the policy decide who
    /// runs next (post-send preemption).
    pub(crate) fn on_send(&self, from_slot: usize, to_slot: usize, tag: Tag) {
        let mut s = self.state.lock();
        self.emit(
            &mut s,
            Event::Send {
                from: from_slot,
                to: to_slot,
                tag: tag.0,
            },
        );
        if matches!(s.status[to_slot], Status::Blocked(_)) {
            s.status[to_slot] = Status::Runnable;
        }
        self.reschedule(s, from_slot);
    }

    /// Block this rank on a receive. Returns why it woke.
    pub(crate) fn block_recv(&self, slot: usize, info: WaitInfo) -> Wake {
        let mut s = self.state.lock();
        debug_assert_eq!(s.current, Some(slot), "block_recv without the token");
        s.status[slot] = Status::Blocked(info);
        self.pick_and_grant(&mut s);
        self.cv.notify_all();
        loop {
            if let Some(msg) = &s.abort {
                return Wake::Abort(msg.clone());
            }
            if s.current == Some(slot) {
                // Granted again: either a sender woke us or our
                // deadline fired at quiescence.
                s.status[slot] = Status::Runnable;
                if s.deadline_fired[slot] {
                    s.deadline_fired[slot] = false;
                    return Wake::Deadline;
                }
                return Wake::Mail;
            }
            self.cv.wait(&mut s);
        }
    }

    /// Choose which source an `ANY_SOURCE` receive matches, among the
    /// communicator-local `candidates` (distinct sources with a
    /// matching envelope, in pending-queue order).
    pub(crate) fn choose_match(&self, slot: usize, candidates: &[usize], tag: Tag) -> usize {
        debug_assert!(!candidates.is_empty());
        let mut s = self.state.lock();
        let trace_pos = s.trace.events.len();
        let src = match &mut s.mode {
            Mode::Seeded(rng) => candidates[rng.gen_range(0..candidates.len())],
            Mode::Guided { guide, pos, .. } => guided_choice(
                guide,
                pos,
                candidates,
                candidates[0],
                DecisionKind::Match { slot },
                trace_pos,
            ),
            Mode::Replay { recorded, pos } => match recorded.get(*pos) {
                Some(Event::Match {
                    slot: r_slot,
                    src,
                    tag: r_tag,
                }) if *r_slot == slot && *r_tag == tag.0 && candidates.contains(src) => *src,
                other => {
                    let msg = self.divergence_message(
                        *pos,
                        other.cloned(),
                        format!(
                            "match slot {slot} tag {} among candidates {candidates:?}",
                            Tag(tag.0)
                        ),
                    );
                    self.raise_abort(&mut s, msg.clone());
                    drop(s);
                    panic!("{msg}");
                }
            },
        };
        self.emit(
            &mut s,
            Event::Match {
                slot,
                src,
                tag: tag.0,
            },
        );
        src
    }

    /// Advance the virtual clock (injected link delay).
    pub(crate) fn advance_clock(&self, by: Duration) {
        let mut s = self.state.lock();
        s.vclock_nanos = s.vclock_nanos.saturating_add(by.as_nanos() as u64);
    }

    /// Current virtual time in nanoseconds.
    pub(crate) fn vclock_nanos(&self) -> u64 {
        self.state.lock().vclock_nanos
    }

    /// Mark this rank finished (normal return or unwind) and hand the
    /// token onward.
    pub(crate) fn finish(&self, slot: usize) {
        let mut s = self.state.lock();
        s.status[slot] = Status::Finished;
        s.deadline_fired[slot] = false;
        if s.current == Some(slot) {
            self.pick_and_grant(&mut s);
        }
        self.cv.notify_all();
    }

    /// The trace recorded so far (complete once the world joined).
    pub(crate) fn trace(&self) -> Trace {
        self.state.lock().trace.clone()
    }

    /// Release the token held by `slot` and wait to get it back.
    fn reschedule(&self, mut s: parking_lot::MutexGuard<'_, State>, slot: usize) {
        self.pick_and_grant(&mut s);
        self.cv.notify_all();
        while s.current != Some(slot) {
            if let Some(msg) = &s.abort {
                let msg = msg.clone();
                drop(s);
                panic!("{msg}");
            }
            self.cv.wait(&mut s);
        }
    }

    /// Pick the next runnable rank (policy decision) and grant it the
    /// token; resolve quiescence (deadline expiry or exact deadlock)
    /// when the ready set is empty.
    fn pick_and_grant(&self, s: &mut State) {
        s.runnable.clear();
        let ready = s.status.iter().enumerate();
        let ready = ready.filter(|(_, st)| matches!(st, Status::Runnable));
        s.runnable.extend(ready.map(|(slot, _)| slot));
        let runnable = &s.runnable;
        if runnable.is_empty() {
            self.resolve_quiescence(s);
            return;
        }
        s.decisions += 1;
        if let Some(spec) = s.liveness {
            if spec.max_decisions > 0 && s.decisions > spec.max_decisions {
                let report = self.liveness_report(s, LivenessBreach::Budget);
                self.raise_abort(s, report);
                return;
            }
        }
        let size = s.status.len();
        let trace_pos = s.trace.events.len();
        let slot = match &mut s.mode {
            Mode::Seeded(rng) => runnable[rng.gen_range(0..runnable.len())],
            Mode::Guided { guide, pos, rotor } => {
                // Fair round-robin default: the first enabled slot at or
                // cyclically after the rotor, so no enabled rank waits
                // more than one full rotation.
                let start = *rotor;
                let fair = (0..size)
                    .map(|k| (start + k) % size)
                    .find(|slot| runnable.contains(slot))
                    .unwrap_or(runnable[0]);
                let chosen =
                    guided_choice(guide, pos, runnable, fair, DecisionKind::Run, trace_pos);
                *rotor = (chosen + 1) % size;
                chosen
            }
            Mode::Replay { recorded, pos } => match recorded.get(*pos) {
                Some(Event::Run { slot }) if runnable.contains(slot) => *slot,
                other => {
                    let msg = self.divergence_message(
                        *pos,
                        other.cloned(),
                        format!("run decision among runnable {runnable:?}"),
                    );
                    self.raise_abort(s, msg);
                    return;
                }
            },
        };
        self.emit(s, Event::Run { slot });
        s.current = Some(slot);
    }

    /// No rank can run. Fire the earliest virtual deadline (ties broken
    /// by slot) or declare an exact deadlock.
    fn resolve_quiescence(&self, s: &mut State) {
        s.current = None;
        let mut earliest: Option<(u64, usize)> = None;
        let mut unfinished = 0usize;
        for (slot, st) in s.status.iter().enumerate() {
            match st {
                Status::Finished => {}
                Status::Runnable => unreachable!("quiescence with a runnable rank"),
                Status::Blocked(info) => {
                    unfinished += 1;
                    if let Some(d) = info.deadline_nanos {
                        if earliest.is_none_or(|(bd, bs)| (d, slot) < (bd, bs)) {
                            earliest = Some((d, slot));
                        }
                    }
                }
            }
        }
        if let Some((deadline, slot)) = earliest {
            s.vclock_nanos = s.vclock_nanos.max(deadline);
            s.deadline_fired[slot] = true;
            s.status[slot] = Status::Runnable;
            self.emit(s, Event::Run { slot });
            s.current = Some(slot);
            return;
        }
        if unfinished > 0 {
            let report = self.deadlock_report(s, unfinished);
            self.raise_abort(s, report);
        }
        // All ranks finished: nothing to grant.
    }

    /// Record an event; under replay, verify it against the recording.
    fn emit(&self, s: &mut State, event: Event) {
        if let Mode::Replay { recorded, pos } = &mut s.mode {
            match recorded.get(*pos) {
                Some(expected) if *expected == event => *pos += 1,
                other => {
                    let msg = self.divergence_message(*pos, other.cloned(), format!("{event}"));
                    self.raise_abort(s, msg);
                    // Keep recording so the divergent trace is visible.
                }
            }
        }
        // A send or match is progress for its actor: reset the spin
        // count and stamp the liveness window. Merely being granted the
        // token (Run) is not progress.
        let actor = match &event {
            Event::Send { from, .. } => Some(*from),
            Event::Match { slot, .. } => Some(*slot),
            Event::Run { .. } => None,
        };
        if let Some(actor) = actor {
            s.spin_counts[actor] = 0;
            s.last_progress[actor] = s.decisions;
        }
        s.trace.events.push(event);
    }

    fn divergence_message(&self, pos: usize, expected: Option<Event>, got: String) -> String {
        match expected {
            Some(e) => format!(
                "minimpi sched: replay diverged at event {pos}: trace recorded [{e}], \
                 this execution produced [{got}] — the program or its inputs changed \
                 since the trace was recorded"
            ),
            None => format!(
                "minimpi sched: replay diverged at event {pos}: trace is exhausted but \
                 this execution produced [{got}]"
            ),
        }
    }

    /// Compose the exact-deadlock report: every live rank's wait state.
    fn deadlock_report(&self, s: &State, live: usize) -> String {
        let seed = match s.trace.seed {
            Some(seed) => format!(" (seed {seed})"),
            None => String::new(),
        };
        let mut report = format!(
            "minimpi sched: deterministic deadlock detected{seed} — all {live} live rank(s) \
             blocked in recv with an empty ready set:"
        );
        for (slot, st) in s.status.iter().enumerate() {
            let Status::Blocked(info) = st else { continue };
            let src = if info.src == crate::ANY_SOURCE {
                "any source".to_string()
            } else {
                format!("src {}", info.src)
            };
            report.push_str(&format!(
                "\n  world rank {slot}: rank {}/{} waiting for {src}, tag {}; pending ({})",
                info.comm_rank,
                info.comm_size,
                info.tag,
                info.pending.len(),
            ));
            if info.pending.is_empty() {
                report.push_str(": []");
            } else {
                let shown: Vec<String> = info
                    .pending
                    .iter()
                    .take(8)
                    .map(|(src, tag)| format!("from {src}: {tag}"))
                    .collect();
                let ellipsis = if info.pending.len() > 8 { ", ..." } else { "" };
                report.push_str(&format!(": [{}{ellipsis}]", shown.join(", ")));
            }
        }
        report
    }

    /// A cooperative spin from [`yield_point`]: count it against the
    /// slot's spin limit, then hand the token around (an ordinary run
    /// decision, so guided/replayed schedules see it like any other
    /// scheduling point).
    fn spin_yield(&self, slot: usize) {
        let mut s = self.state.lock();
        if s.current != Some(slot) {
            // Defensive: a yield from a thread that does not hold the
            // token (e.g. GLEAN's drain thread) is a no-op.
            return;
        }
        s.spin_counts[slot] = s.spin_counts[slot].saturating_add(1);
        if let Some(spec) = s.liveness {
            if spec.spin_limit > 0 && s.spin_counts[slot] >= spec.spin_limit {
                let report = self.liveness_report(&s, LivenessBreach::Spin(slot));
                self.raise_abort(&mut s, report.clone());
                drop(s);
                panic!("{report}");
            }
        }
        self.reschedule(s, slot);
    }

    /// Compose a liveness-violation report: the breach headline plus
    /// every rank's progress state. Deterministic (decision counts, no
    /// wall clock), so a replayed trace reproduces it verbatim.
    fn liveness_report(&self, s: &State, breach: LivenessBreach) -> String {
        let spec = s.liveness.unwrap_or_default();
        let headline = match breach {
            LivenessBreach::Spin(slot) => format!(
                "livelock: world rank {slot} spun {} consecutive scheduling points without \
                 making progress (spin limit {}; a backpressure loop that never drains?)",
                s.spin_counts[slot], spec.spin_limit
            ),
            LivenessBreach::Budget => {
                let horizon = s.decisions.saturating_sub(spec.starvation_window);
                let mut starved: Vec<usize> = Vec::new();
                let mut progressing = false;
                let mut unfinished = 0usize;
                for (slot, st) in s.status.iter().enumerate() {
                    if matches!(st, Status::Finished) {
                        continue;
                    }
                    unfinished += 1;
                    if s.last_progress[slot] <= horizon {
                        starved.push(slot);
                    } else {
                        progressing = true;
                    }
                }
                if spec.starvation_window > 0 && progressing && !starved.is_empty() {
                    format!(
                        "starvation: world rank(s) {starved:?} made no progress for {} \
                         scheduling points while other ranks kept running (budget {} decisions)",
                        spec.starvation_window, spec.max_decisions
                    )
                } else {
                    format!(
                        "livelock: scheduling budget of {} decisions exhausted with {unfinished} \
                         rank(s) unfinished",
                        spec.max_decisions
                    )
                }
            }
        };
        let seed = match s.trace.seed {
            Some(seed) => format!(" (seed {seed})"),
            None => String::new(),
        };
        let mut report = format!("minimpi sched: liveness violation{seed} — {headline}");
        for (slot, st) in s.status.iter().enumerate() {
            let state = match st {
                Status::Finished => "finished".to_string(),
                Status::Runnable => "runnable".to_string(),
                Status::Blocked(info) => {
                    let src = if info.src == crate::ANY_SOURCE {
                        "any source".to_string()
                    } else {
                        format!("src {}", info.src)
                    };
                    format!(
                        "blocked waiting for {src}, tag {} ({} pending)",
                        info.tag,
                        info.pending.len()
                    )
                }
            };
            report.push_str(&format!(
                "\n  world rank {slot}: {state}; last progress at decision {}/{}; spin count {}",
                s.last_progress[slot], s.decisions, s.spin_counts[slot]
            ));
        }
        report
    }

    fn raise_abort(&self, s: &mut State, msg: String) {
        if s.abort.is_none() {
            s.abort = Some(msg);
        }
        s.current = None;
        self.cv.notify_all();
    }
}

/// Releases a rank's hold on the scheduler when its closure exits —
/// normally or by unwind — so the remaining ranks keep scheduling.
pub(crate) struct SchedFinishGuard {
    pub sched: Arc<Sched>,
    pub slot: usize,
}

impl Drop for SchedFinishGuard {
    fn drop(&mut self) {
        self.sched.finish(self.slot);
    }
}

/// Resolve one guided decision: consume the forced prefix while it
/// lasts (skipping, and counting, forced values that are not enabled),
/// fall back to the deterministic default past it, and record the
/// decision in the guide's log.
fn guided_choice(
    guide: &Guide,
    pos: &mut usize,
    enabled: &[usize],
    default: usize,
    kind: DecisionKind,
    trace_pos: usize,
) -> usize {
    let idx = *pos;
    *pos += 1;
    let mut chosen = default;
    if let Some(&forced) = guide.prefix.get(idx) {
        if enabled.contains(&forced) {
            chosen = forced;
        } else {
            guide.log.mark_divergence();
        }
    }
    guide.log.push(DecisionRecord {
        kind,
        enabled: enabled.to_vec(),
        chosen,
        trace_pos,
    });
    chosen
}

thread_local! {
    /// The scheduler and world slot of the rank running on this thread,
    /// installed for the lifetime of the rank closure so library code
    /// (e.g. GLEAN's wait for a drain-queue slot) can reach the
    /// scheduler without threading it through every call.
    static THREAD_SCHED: std::cell::RefCell<Option<(Arc<Sched>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs this thread's scheduler handle; the guard uninstalls it.
pub(crate) struct ThreadSchedGuard;

pub(crate) fn install_thread(sched: &Arc<Sched>, slot: usize) -> ThreadSchedGuard {
    THREAD_SCHED.with(|t| *t.borrow_mut() = Some((Arc::clone(sched), slot)));
    ThreadSchedGuard
}

impl Drop for ThreadSchedGuard {
    fn drop(&mut self) {
        THREAD_SCHED.with(|t| *t.borrow_mut() = None);
    }
}

/// Cooperative scheduling point for spin/backpressure loops.
///
/// Inside a deterministically scheduled world this hands the turn
/// token around (so other ranks can make the progress the spinner is
/// waiting for) and counts the spin against the world's
/// [`LivenessSpec::spin_limit`] — a loop that spins past the limit is
/// reported as a livelock with a replayable trace. Outside a scheduled
/// world (OS policy, helper threads such as GLEAN's drain thread) it is a
/// no-op, so library code can call it unconditionally.
pub fn yield_point() {
    let entry = THREAD_SCHED.with(|t| t.borrow().clone());
    if let Some((sched, slot)) = entry {
        sched.spin_yield(slot);
    }
}

/// Best-effort extraction of a panic payload's message (the payload a
/// `catch_unwind` around a world returns).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_round_trip() {
        let t = Trace {
            seed: Some(42),
            events: vec![
                Event::Run { slot: 3 },
                Event::Send {
                    from: 0,
                    to: 1,
                    tag: Tag::collective(crate::CollectiveKind::Bcast, 7).0,
                },
                Event::Match {
                    slot: 1,
                    src: 0,
                    tag: Tag::user(9).0,
                },
            ],
        };
        let text = t.to_json();
        assert_eq!(Trace::from_json(&text).expect("parse"), t);
        // High tag bits survive the hex round trip exactly.
        let Event::Send { tag, .. } = &t.events[1] else {
            unreachable!()
        };
        assert!(tag & (1 << 63) != 0);
    }

    #[test]
    fn seedless_trace_round_trips() {
        let t = Trace {
            seed: None,
            events: vec![Event::Run { slot: 0 }],
        };
        assert_eq!(Trace::from_json(&t.to_json()).expect("parse"), t);
    }

    #[test]
    fn trace_rejects_garbage() {
        assert!(Trace::from_json("{}").is_err());
        assert!(Trace::from_json(r#"{"seed":1,"events":[["x",0]]}"#).is_err());
        assert!(Trace::from_json(r#"{"seed":1,"events":[["s",0,1,"zz"]]}"#).is_err());
        assert!(Trace::from_json(r#"{"seed":1,"events":[["q",0,1]]}"#).is_err());
        assert!(Trace::from_json(r#"{"seed":1,"events":[["q",0,1,2,"gg"]]}"#).is_err());
    }
}
