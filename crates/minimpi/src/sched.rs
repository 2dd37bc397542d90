//! Scheduling: the world's rank table, seed-driven serialized
//! execution, delivery traces, replay, and the guided policy the model
//! checker steers.
//!
//! Every world keeps one table of its ranks — each `Runnable`,
//! `Blocked` in a receive (with what it waits for), or `Finished` —
//! under one lock, and applies one deadlock rule to it under every
//! policy: when a rank blocks or finishes and no live rank is runnable,
//! the world aborts at once and every blocked rank panics with the same
//! per-rank dump. Sends are eager, so a rank blocked in a receive can
//! only be released by a send from a runnable rank; with none left the
//! wait can never end. There is no grace period and no wall-clock
//! watchdog.
//!
//! The table also holds every rank's mail: one queue per rank and
//! communicator, in send order. A send pushes its envelope under the
//! table's lock, and a receive matches, and if need be waits, under the
//! same lock, so one receive loop serves every policy and no mail is
//! missed between a match that finds nothing and the wait.
//!
//! Under [`SchedPolicy::Os`] ranks run freely and the table is all
//! there is: a waiting rank sleeps on its own condition variable until
//! mail, its wall-clock deadline or the world's abort wakes it. The
//! thread-backed substrate then runs at the mercy of the
//! OS scheduler: which rank runs next, and which sender an `ANY_SOURCE`
//! receive matches first, differ run to run. That is faithful to real
//! MPI — and useless for reproducing a bad interleaving. The other
//! policies add a cooperative scheduler that serializes rank execution
//! around a single turn token and makes every nondeterministic decision
//! explicitly:
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
//! Both kinds are made by one `Sched::decide`, among the enabled values
//! (runnable slots, or the distinct sources with a matching envelope)
//! with a default (the fair round-robin slot, or the first candidate).
//! Only where the choice comes from differs: [`SchedPolicy::Seeded`]
//! draws it from an RNG seeded with the seed; [`SchedPolicy::Replay`]
//! takes the enabled value whose event the trace records next;
//! [`SchedPolicy::Guided`] takes the guide's forced prefix value while
//! it lasts and is enabled, else the default, and logs the decision for
//! [`crate::Checker`]'s next branch.
//!
//! Every decision and delivery is recorded in a [`Trace`] by `emit`,
//! under replay the one check against the recording: the first event
//! that differs (a decision finding no recorded value enabled is one)
//! aborts the world with a diff. A seed replays its schedule
//! byte-for-byte, and its deadlock reports carry it. A rank waits for
//! the token by one rule, `await_turn`: the world's abort first, then
//! the grant.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use probe::time::Wall;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::envelope::{Envelope, Tag};

/// How a world schedules its ranks.
#[derive(Clone, Debug)]
pub enum SchedPolicy {
    /// OS threads run freely (the default; faithful nondeterminism).
    /// Only the rank table is kept: a waiting rank sleeps until mail,
    /// its deadline or the world's abort wakes it, and a deadlock is
    /// still caught the moment no live rank can run.
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
    /// New mail may have arrived; match again.
    Mail,
    /// The receive's deadline passed, after this long: wall-clock time
    /// when ranks run free, the limit itself when the virtual deadline
    /// fired at quiescence.
    Deadline(Duration),
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
    /// World slot of the awaited source, when `src` is one rank.
    pub src_slot: Option<usize>,
    pub tag: Tag,
    /// Absolute virtual deadline in nanoseconds, when the receive has
    /// one.
    pub deadline_nanos: Option<u64>,
    /// The mailbox it waits on, whose unmatched mail a report lists.
    pub mailbox: usize,
}

/// When a receive gives up: `limit` after `start` on the wall clock
/// when ranks run free, at `at_nanos` on the virtual clock when they
/// take turns.
#[derive(Clone, Copy)]
pub(crate) struct Deadline {
    start: Wall,
    limit: Duration,
    pub at_nanos: u64,
}

enum Status {
    Runnable,
    Blocked(WaitInfo),
    Finished,
}

/// Where a deterministic policy's decisions come from.
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
    /// `None` for free-running ranks: no token, no decisions, no trace.
    mode: Option<Mode>,
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
    /// Fair round-robin rotor: the slot a run decision's default tries
    /// first (the one after the last slot granted).
    rotor: usize,
    /// The enabled values of the decision being made (runnable slots,
    /// or a match's candidate sources), sized for every slot when the
    /// world is built: a decision allocates nothing.
    enabled: Vec<usize>,
    /// Every mailbox's mail in send order, by id: one per rank and
    /// communicator, the world's first (id = slot). `None` once its
    /// `Comm` is dropped. A queue keeps its capacity, so a warm step
    /// allocates nothing for mail.
    mailboxes: Vec<Option<VecDeque<Envelope>>>,
    /// Per slot: a free-running rank sleeps on its waker.
    waiting: Vec<bool>,
}

/// Trace events reserved when the world is built, before any rank
/// holds the turn: a run that records fewer grows its trace on no
/// rank's thread, so a rank's heap calls do not follow the
/// interleaving. A longer run doubles it on the rank thread that
/// records the next event.
const TRACE_RESERVE: usize = 1 << 12;

/// The rank table shared by every rank of one world and, under a
/// deterministic policy, the serialized scheduler around it: at most
/// one rank then executes user code at any instant, and all
/// interleaving freedom is concentrated in the explicit decisions this
/// type makes (and records).
pub(crate) struct Sched {
    state: Mutex<State>,
    cv: Condvar,
    /// Per slot, what a free-running rank waits on: a send wakes only
    /// its destination.
    wakers: Vec<Condvar>,
    /// A deterministic policy: ranks take turns holding the token.
    serial: bool,
}

impl Sched {
    /// Build the rank table for `policy`.
    pub(crate) fn new(
        size: usize,
        policy: &SchedPolicy,
        liveness: Option<LivenessSpec>,
    ) -> Arc<Sched> {
        let (mode, seed) = match policy {
            SchedPolicy::Os => (None, None),
            SchedPolicy::Seeded(seed) => (
                Some(Mode::Seeded(StdRng::seed_from_u64(*seed))),
                Some(*seed),
            ),
            SchedPolicy::Replay(trace) => (
                Some(Mode::Replay {
                    recorded: trace.events.clone(),
                    pos: 0,
                }),
                trace.seed,
            ),
            SchedPolicy::Guided(guide) => (
                Some(Mode::Guided {
                    guide: guide.clone(),
                    pos: 0,
                }),
                None,
            ),
        };
        let serial = mode.is_some();
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
                    events: Vec::with_capacity(if serial { TRACE_RESERVE } else { 0 }),
                },
                abort: None,
                liveness,
                decisions: 0,
                spin_counts: vec![0; size],
                last_progress: vec![0; size],
                rotor: 0,
                enabled: Vec::with_capacity(size),
                mailboxes: (0..size).map(|_| Some(VecDeque::new())).collect(),
                waiting: vec![false; size],
            }),
            cv: Condvar::new(),
            wakers: (0..size).map(|_| Condvar::new()).collect(),
            serial,
        })
    }

    /// True under a deterministic policy (ranks take turns).
    pub(crate) fn serial(&self) -> bool {
        self.serial
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
        if let Err(msg) = self.await_turn(&mut s, slot) {
            drop(s);
            panic!("{msg}");
        }
    }

    /// The one turn rule: wait until the world aborts (`Err` with its
    /// message) or `slot` holds the token.
    fn await_turn(&self, s: &mut MutexGuard<'_, State>, slot: usize) -> Result<(), String> {
        loop {
            if let Some(msg) = &s.abort {
                return Err(msg.clone());
            }
            if s.current == Some(slot) {
                return Ok(());
            }
            self.cv.wait(s);
        }
    }

    /// Lock the table for a receive: match, check and wait under one
    /// hold.
    pub(crate) fn lock(&self) -> Table<'_> {
        Table {
            sched: self,
            s: self.state.lock(),
        }
    }

    /// A new mailbox, for a rank of a communicator being split off.
    pub(crate) fn open_mailbox(&self) -> usize {
        let mut s = self.state.lock();
        s.mailboxes.push(Some(VecDeque::new()));
        s.mailboxes.len() - 1
    }

    /// Close `mailbox` (its `Comm` is dropped): later sends to it fail,
    /// and its unmatched mail is dropped.
    pub(crate) fn close_mailbox(&self, mailbox: usize) {
        let mail = self.state.lock().mailboxes[mailbox].take();
        drop(mail);
    }

    /// Deliver `env` into `mailbox` of world slot `to_slot`, waking the
    /// destination if it was blocked — before the sender can block —
    /// and, under a deterministic policy, record the send and let the
    /// policy decide who runs next (post-send preemption). `Err` gives
    /// the envelope back when the mailbox is closed.
    pub(crate) fn deliver(
        &self,
        from_slot: usize,
        to_slot: usize,
        mailbox: usize,
        env: Envelope,
    ) -> Result<(), Envelope> {
        let mut s = self.state.lock();
        let tag = env.tag;
        let Some(mail) = s.mailboxes[mailbox].as_mut() else {
            return Err(env);
        };
        mail.push_back(env);
        if matches!(s.status[to_slot], Status::Blocked(_)) {
            s.status[to_slot] = Status::Runnable;
        }
        if !self.serial {
            // Woken after the unlock, the destination finds the lock free.
            let waiting = s.waiting[to_slot];
            drop(s);
            if waiting {
                self.wakers[to_slot].notify_one();
            }
            return Ok(());
        }
        let send = Event::Send {
            from: from_slot,
            to: to_slot,
            tag: tag.0,
        };
        self.emit(&mut s, send, &[]);
        self.reschedule(s, from_slot);
        Ok(())
    }

    /// The deadlock rule for free-running ranks: with no live rank
    /// runnable, resolve quiescence as the serialized scheduler does.
    fn settle_free(&self, s: &mut State) {
        if !s.status.iter().any(|st| matches!(st, Status::Runnable)) {
            self.resolve_quiescence(s);
        }
    }

    /// Advance the virtual clock (injected link delay).
    pub(crate) fn advance_clock(&self, by: Duration) {
        let mut s = self.state.lock();
        s.vclock_nanos = s.vclock_nanos.saturating_add(by.as_nanos() as u64);
    }

    /// Mark this rank finished (normal return or unwind) and hand the
    /// token onward, or — free-running — apply the deadlock rule.
    pub(crate) fn finish(&self, slot: usize) {
        let mut s = self.state.lock();
        s.status[slot] = Status::Finished;
        s.deadline_fired[slot] = false;
        if !self.serial {
            self.settle_free(&mut s);
        } else if s.current == Some(slot) {
            self.pick_and_grant(&mut s);
        }
        self.cv.notify_all();
    }

    /// The trace recorded so far (complete once the world joined).
    pub(crate) fn trace(&self) -> Trace {
        self.state.lock().trace.clone()
    }

    /// Release the token held by `slot` and wait to get it back.
    fn reschedule(&self, mut s: MutexGuard<'_, State>, slot: usize) {
        self.pick_and_grant(&mut s);
        self.cv.notify_all();
        if let Err(msg) = self.await_turn(&mut s, slot) {
            drop(s);
            panic!("{msg}");
        }
    }

    /// Pick the next runnable rank (policy decision) and grant it the
    /// token; resolve quiescence (deadline expiry or exact deadlock)
    /// when the ready set is empty. A replay that diverges grants
    /// nothing.
    fn pick_and_grant(&self, s: &mut State) {
        s.enabled.clear();
        let ready = s.status.iter().enumerate();
        let ready = ready.filter(|(_, st)| matches!(st, Status::Runnable));
        s.enabled.extend(ready.map(|(slot, _)| slot));
        let Some(&first) = s.enabled.first() else {
            self.resolve_quiescence(s);
            return;
        };
        s.decisions += 1;
        if let Some(spec) = s.liveness {
            if spec.max_decisions > 0 && s.decisions > spec.max_decisions {
                let report = self.liveness_report(s, LivenessBreach::Budget);
                self.raise_abort(s, report);
                return;
            }
        }
        // Fair round-robin default: the first runnable slot at or
        // cyclically after the rotor, so no runnable rank waits more
        // than one full rotation.
        let fair = s.enabled.iter().find(|&&slot| slot >= s.rotor);
        let fair = fair.map_or(first, |&slot| slot);
        if let Some(slot) = self.decide(s, DecisionKind::Run, fair, |slot| Event::Run { slot }) {
            s.rotor = (slot + 1) % s.status.len();
            s.current = Some(slot);
        }
    }

    /// The one place a choice is made, among `s.enabled` (non-empty):
    /// the policy's value (see the module docs), recorded by `emit`.
    /// `None` when the replay diverged here.
    fn decide(
        &self,
        s: &mut State,
        kind: DecisionKind,
        default: usize,
        event: impl Fn(usize) -> Event,
    ) -> Option<usize> {
        let enabled = std::mem::take(&mut s.enabled);
        let trace_pos = s.trace.events.len();
        let chosen = match &mut s.mode {
            Some(Mode::Seeded(rng)) => enabled[rng.gen_range(0..enabled.len())],
            Some(Mode::Replay { recorded, pos }) => {
                let recorded = recorded.get(*pos);
                let replayed = enabled.iter().find(|&&v| recorded == Some(&event(v)));
                replayed.map_or(default, |&v| v)
            }
            Some(Mode::Guided { guide, pos }) => {
                let forced = guide.prefix.get(*pos).copied();
                *pos += 1;
                if forced.is_some_and(|v| !enabled.contains(&v)) {
                    guide.log.mark_divergence();
                }
                let chosen = forced.filter(|v| enabled.contains(v)).unwrap_or(default);
                guide.log.push(DecisionRecord {
                    kind,
                    enabled: enabled.clone(),
                    chosen,
                    trace_pos,
                });
                chosen
            }
            None => default,
        };
        let replayed = self.emit(s, event(chosen), &enabled);
        s.enabled = enabled;
        replayed.then_some(chosen)
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
            self.emit(s, Event::Run { slot }, &[]);
            s.current = Some(slot);
            return;
        }
        if unfinished > 0 {
            let report = self.deadlock_report(s, unfinished);
            self.raise_abort(s, report);
        }
        // All ranks finished: nothing to grant.
    }

    /// Record an event; under replay, verify it against the recording
    /// (the one replay check), naming the decision's `enabled` values
    /// when it diverges. False when it diverged.
    fn emit(&self, s: &mut State, event: Event, enabled: &[usize]) -> bool {
        let mut replayed = true;
        if let Some(Mode::Replay { recorded, pos }) = &mut s.mode {
            let recorded = match recorded.get(*pos) {
                Some(expected) if *expected == event => None,
                Some(expected) => Some(format!("trace recorded [{expected}]")),
                None => Some("the trace is exhausted".to_string()),
            };
            if let Some(recorded) = recorded {
                let among = match enabled {
                    [] => String::new(),
                    _ => format!(" among enabled {enabled:?}"),
                };
                let msg = format!(
                    "minimpi sched: replay diverged at event {pos}: {recorded}, this execution \
                     produced [{event}]{among} — the program or its inputs changed since the \
                     trace was recorded"
                );
                self.raise_abort(s, msg);
                replayed = false;
                // Keep recording so the divergent trace is visible.
            } else {
                *pos += 1;
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
        replayed
    }

    /// Compose the exact-deadlock report: every live rank's wait state.
    fn deadlock_report(&self, s: &State, live: usize) -> String {
        let (who, kind) = if self.serial {
            (" sched", "deterministic ")
        } else {
            ("", "")
        };
        let seed = match s.trace.seed {
            Some(seed) => format!(" (seed {seed})"),
            None => String::new(),
        };
        let mut report = format!(
            "minimpi{who}: {kind}deadlock detected{seed} — all {live} live rank(s) \
             blocked in recv with an empty ready set:"
        );
        for (slot, st) in s.status.iter().enumerate() {
            let Status::Blocked(info) = st else { continue };
            report.push_str(&format!(
                "\n  world rank {slot}: rank {}/{} waiting for {}, tag {}; pending ({}): {}",
                info.comm_rank,
                info.comm_size,
                awaited(s, info),
                info.tag,
                s.mail(info.mailbox).count(),
                list_mail(s.mail(info.mailbox)),
            ));
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
                Status::Blocked(info) => format!(
                    "blocked waiting for {}, tag {} ({} pending)",
                    awaited(s, info),
                    info.tag,
                    s.mail(info.mailbox).count()
                ),
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
        for waker in &self.wakers {
            waker.notify_all();
        }
    }
}

impl State {
    /// The unmatched mail of `mailbox`, in send order (none once it is
    /// closed).
    fn mail(&self, mailbox: usize) -> impl Iterator<Item = &Envelope> {
        self.mailboxes[mailbox].iter().flatten()
    }
}

/// Up to 8 envelopes of `mail`, as reports list them:
/// `[from 1: user:5, ...]`.
pub(crate) fn list_mail<'a>(mail: impl Iterator<Item = &'a Envelope>) -> String {
    let mut list = String::from("[");
    for (i, env) in mail.enumerate() {
        if i == 8 {
            list.push_str(", ...");
            break;
        }
        if i > 0 {
            list.push_str(", ");
        }
        list.push_str(&format!("from {}: {}", env.src, env.tag));
    }
    list.push(']');
    list
}

/// The rank table, locked for one receive ([`Sched::lock`]).
pub(crate) struct Table<'a> {
    sched: &'a Sched,
    s: MutexGuard<'a, State>,
}

impl Table<'_> {
    /// A deadline `limit` from now, on both clocks.
    pub(crate) fn deadline(&self, limit: Duration) -> Deadline {
        Deadline {
            start: Wall::now(),
            limit,
            at_nanos: self.s.vclock_nanos.saturating_add(limit.as_nanos() as u64),
        }
    }

    /// The unmatched mail of `mailbox`, in send order.
    pub(crate) fn mail(&self, mailbox: usize) -> impl Iterator<Item = &Envelope> {
        self.s.mail(mailbox)
    }

    /// Take the first envelope of `mailbox` with `tag` from one of
    /// `sources` (`src` is the one source, or `ANY_SOURCE` for any or a
    /// set): FIFO per `(src, tag)`. When ranks take turns, a match that
    /// could take several distinct senders is a recorded decision —
    /// even with one candidate, so replayed traces align event for
    /// event.
    pub(crate) fn take(
        &mut self,
        slot: usize,
        mailbox: usize,
        sources: &[usize],
        src: usize,
        tag: Tag,
    ) -> Option<Envelope> {
        let is_from = |sources: &[usize], e: &Envelope| {
            e.tag == tag && (sources == [crate::ANY_SOURCE] || sources.contains(&e.src))
        };
        let mut chosen = None;
        if self.sched.serial && src == crate::ANY_SOURCE {
            // The candidates: distinct sources with a matching envelope,
            // in mailbox order; the first is the default.
            let s = &mut *self.s;
            s.enabled.clear();
            for e in s.mailboxes[mailbox].iter().flatten() {
                if is_from(sources, e) && !s.enabled.contains(&e.src) {
                    s.enabled.push(e.src);
                }
            }
            let &first = s.enabled.first()?;
            let event = |src| Event::Match {
                slot,
                src,
                tag: tag.0,
            };
            let kind = DecisionKind::Match { slot };
            let Some(src) = self.sched.decide(s, kind, first, event) else {
                // The replay diverged: this rank panics at the decision.
                panic!("{}", s.abort.as_deref().unwrap_or_default());
            };
            chosen = Some([src]);
        }
        let sources = chosen.as_ref().map_or(sources, |one| one.as_slice());
        let mail = self.s.mailboxes[mailbox].as_mut()?;
        let idx = mail.iter().position(|e| is_from(sources, e))?;
        mail.remove(idx)
    }

    /// Wait on the table for mail, the receive's deadline, or the
    /// world's abort. A free-running receive without a deadline is
    /// marked `Blocked` (its match found nothing under this same lock)
    /// and the deadlock rule applies; one with a deadline stays
    /// runnable, as it ends on its own. Both sleep on the rank's waker,
    /// which a send to the rank or the abort wakes. When ranks take
    /// turns this hands the token to a policy-chosen peer, and a
    /// deadline fires on the virtual clock at quiescence.
    pub(crate) fn wait(&mut self, slot: usize, info: WaitInfo, deadline: Option<Deadline>) -> Wake {
        let (sched, s) = (self.sched, &mut self.s);
        if sched.serial {
            debug_assert_eq!(s.current, Some(slot), "wait without the token");
            s.status[slot] = Status::Blocked(info);
            sched.pick_and_grant(s);
            sched.cv.notify_all();
            if let Err(msg) = sched.await_turn(s, slot) {
                return Wake::Abort(msg);
            }
            // Granted again: either a sender woke us or our deadline
            // fired at quiescence.
            s.status[slot] = Status::Runnable;
            if std::mem::take(&mut s.deadline_fired[slot]) {
                return Wake::Deadline(deadline.map_or(Duration::ZERO, |d| d.limit));
            }
            return Wake::Mail;
        }
        let left = match deadline {
            Some(d) => {
                let waited = d.start.elapsed();
                if waited >= d.limit {
                    return Wake::Deadline(waited);
                }
                Some(d.limit - waited)
            }
            None => {
                if s.abort.is_none() {
                    s.status[slot] = Status::Blocked(info);
                    sched.settle_free(s);
                }
                None
            }
        };
        if let Some(msg) = &s.abort {
            return Wake::Abort(msg.clone());
        }
        s.waiting[slot] = true;
        match left {
            Some(left) => _ = sched.wakers[slot].wait_for(s, left),
            None => sched.wakers[slot].wait(s),
        }
        s.waiting[slot] = false;
        Wake::Mail
    }
}

/// The awaited source of a blocked rank, as a report names it: its
/// world rank when that differs, and whether it has finished.
fn awaited(s: &State, info: &WaitInfo) -> String {
    if info.src == crate::ANY_SOURCE {
        return "any source".to_string();
    }
    let mut notes = Vec::new();
    if let Some(world) = info.src_slot {
        if world != info.src {
            notes.push(format!("world rank {world}"));
        }
        if matches!(s.status.get(world), Some(Status::Finished)) {
            notes.push("finished".to_string());
        }
    }
    if notes.is_empty() {
        format!("src {}", info.src)
    } else {
        format!("src {} ({})", info.src, notes.join(", "))
    }
}

/// Marks a rank finished when its closure exits — normally or by
/// unwind — so the remaining ranks keep scheduling and a peer waiting
/// on it is released by the deadlock rule.
pub(crate) struct SchedFinishGuard {
    pub sched: Arc<Sched>,
    pub slot: usize,
}

impl Drop for SchedFinishGuard {
    fn drop(&mut self) {
        self.sched.finish(self.slot);
    }
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
                    tag: Tag::collective(crate::envelope::CollectiveKind::Bcast, 7).0,
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
