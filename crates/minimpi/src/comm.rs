//! The communicator: typed, tagged point-to-point messaging.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use probe::time::Wall;

use crate::envelope::{CollectiveKind, Envelope, Tag, ANY_SOURCE};
use crate::fault::{FaultAction, FaultHandle};
use crate::loan::{Loans, Pool};
use crate::monitor::{BlockedInfo, Monitor};
use crate::sched::{Sched, WaitInfo, Wake};

/// How often a blocked receive wakes up to poll the watchdog abort flag
/// and (when set) its deadline. Bounds the latency between the watchdog
/// raising an abort and every blocked rank panicking with the report.
const POLL_TICK: Duration = Duration::from_millis(25);

/// An MPI-style communicator handle owned by one rank (one thread).
///
/// A `Comm` is *not* `Sync`: exactly one thread drives each rank, matching
/// the single-threaded-per-rank MPI funneled model the paper's codes use.
/// Intra-rank threading (rayon loops inside a rank) must not touch the
/// communicator, just as `MPI_THREAD_FUNNELED` requires.
pub struct Comm {
    rank: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    receiver: Receiver<Envelope>,
    /// Messages received but not yet matched by a `recv` call.
    pending: RefCell<VecDeque<Envelope>>,
    /// Count of collective operations issued, used to build collective tags.
    epoch: Cell<u64>,
    /// Clock origin for [`Comm::wtime`], in [`probe::time`] seconds —
    /// wall clock normally, deterministic virtual ticks under the
    /// scheduler.
    t0: f64,
    /// This rank's slot in the *world* (stable across `split`); used to
    /// key monitor state and fault rules.
    slot: usize,
    /// World slot of each rank in this communicator (`peer_slots[rank]`).
    peer_slots: Arc<Vec<usize>>,
    /// Shared deadlock monitor, when launched under a [`crate::World`].
    monitor: Option<Arc<Monitor>>,
    /// Injected transport faults, when installed for a test.
    faults: Option<FaultHandle>,
    /// Deterministic scheduler, when launched under a non-`Os`
    /// [`crate::SchedPolicy`]. Interposes on every delivery, blocking
    /// receive, and `ANY_SOURCE` match.
    sched: Option<Arc<Sched>>,
    /// Observability handle; [`probe::off`] (a no-op) by default.
    probe: RefCell<probe::Probe>,
    /// Loans out, per `(peer, tag)` ([`Comm::lend`]).
    pub(crate) loans: RefCell<Vec<Loans>>,
    /// This rank's spare buffers ([`Comm::keep`]).
    pub(crate) pool: RefCell<Pool>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        senders: Arc<Vec<Sender<Envelope>>>,
        receiver: Receiver<Envelope>,
    ) -> Self {
        let size = senders.len();
        Comm {
            rank,
            senders,
            receiver,
            pending: RefCell::new(VecDeque::new()),
            epoch: Cell::new(0),
            t0: probe::time::now_seconds(),
            slot: rank,
            peer_slots: Arc::new((0..size).collect()),
            monitor: None,
            faults: None,
            sched: None,
            probe: RefCell::new(probe::off()),
            loans: RefCell::new(Vec::new()),
            pool: RefCell::new(Vec::new()),
        }
    }

    /// Attach world identity and instrumentation (monitor, faults,
    /// deterministic scheduler).
    pub(crate) fn with_runtime(
        mut self,
        slot: usize,
        peer_slots: Arc<Vec<usize>>,
        monitor: Option<Arc<Monitor>>,
        faults: Option<FaultHandle>,
        sched: Option<Arc<Sched>>,
    ) -> Self {
        self.slot = slot;
        self.peer_slots = peer_slots;
        self.monitor = monitor;
        self.faults = faults;
        self.sched = sched;
        self
    }

    /// Attach an observability probe: subsequent sends count messages
    /// and (estimated) payload bytes per collective kind, and
    /// collective entries count invocations. Communicators derived via
    /// [`Comm::split`] / [`Comm::dup`] inherit the probe.
    pub fn attach_probe(&self, probe: probe::Probe) {
        *self.probe.borrow_mut() = probe;
    }

    /// A clone of the attached probe ([`probe::off`] if none): the
    /// channel through which analyses record sub-spans and gauges next
    /// to the transport's own counters.
    pub fn probe(&self) -> probe::Probe {
        self.probe.borrow().clone()
    }

    /// This rank's index in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Seconds since this communicator was created (cf. `MPI_Wtime`).
    /// Under the deterministic scheduler this reads the per-thread
    /// virtual clock, so identical seeds report identical times.
    pub fn wtime(&self) -> f64 {
        (probe::time::now_seconds() - self.t0).max(0.0)
    }

    /// Advance and return the collective epoch for this communicator.
    pub(crate) fn next_epoch(&self) -> u64 {
        let e = self.epoch.get();
        self.epoch.set(e.wrapping_add(1));
        e
    }

    /// Build the tag for one collective invocation, counting the call
    /// on the attached probe. Called unconditionally at collective
    /// entry (before any single-rank fast path) so invocation counts
    /// are identical at every communicator size.
    pub(crate) fn collective_tag(&self, kind: CollectiveKind) -> Tag {
        let probe = self.probe.borrow();
        if probe.is_enabled() {
            probe.call(kind.counter_name());
        }
        Tag::collective(kind, self.next_epoch())
    }

    /// Send `value` to `dest` with a user `tag`. Sends are buffered and
    /// never block (eager protocol); ownership of the payload moves.
    ///
    /// # Panics
    /// Panics if `dest` is out of range or the destination rank has exited.
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: u32, value: T) {
        self.send_tagged(dest, Tag::user(tag), value)
    }

    pub(crate) fn send_tagged<T: Send + 'static>(&self, dest: usize, tag: Tag, value: T) {
        if !self.try_send(dest, tag, value) {
            panic!(
                "send: destination rank disconnected (rank {} sending tag {tag} to rank {dest})",
                self.rank
            );
        }
    }

    /// Shared send path; applies injected faults. A fault-dropped message
    /// counts as delivered from the sender's perspective, and one to a
    /// rank that has exited as not: `false`, where `send` panics.
    pub(crate) fn try_send<T: Send + 'static>(&self, dest: usize, tag: Tag, value: T) -> bool {
        let sender = self
            .senders
            .get(dest)
            .unwrap_or_else(|| panic!("send: rank {dest} out of range (size {})", self.size()));
        {
            // Send-side accounting (each message counts exactly once
            // across the job). A no-op unless a probe is attached.
            let probe = self.probe.borrow();
            if probe.is_enabled() {
                let name = match tag.collective_parts() {
                    Some((kind, _)) => kind.counter_name(),
                    None => "minimpi/p2p",
                };
                if !tag.is_collective() {
                    probe.call(name);
                }
                probe.message(name, payload_bytes(&value) as u64);
            }
        }
        // Sanitizer stamp: ticks this rank's vector clock and registers
        // the message as in flight. Registered *before* the fault check
        // so a fault-dropped message stays registered — exactly the
        // leak the teardown check reports. `None` when the sanitizer
        // is off (the common case: one thread-local read).
        let to_slot = self.peer_slots.get(dest).copied().unwrap_or(dest);
        let stamp = sanitizer::on_send(to_slot, || tag.to_string());
        if let Some(faults) = &self.faults {
            match faults.action(self.slot, to_slot) {
                FaultAction::Deliver => {}
                FaultAction::Drop => {
                    faults.note_dropped();
                    return true;
                }
                // Under the deterministic scheduler an injected link
                // delay advances the virtual clock instead of sleeping,
                // so delayed runs stay schedule-reproducible.
                FaultAction::Delay(d) => match &self.sched {
                    Some(sched) => sched.advance_clock(d),
                    None => std::thread::sleep(d),
                },
            }
        }
        let delivered = sender
            .send(Envelope {
                src: self.rank,
                tag,
                payload: Box::new(value),
                stamp: stamp.clone(),
            })
            .is_ok();
        if delivered {
            if let Some(sched) = &self.sched {
                sched.on_send(self.slot, to_slot, tag);
            }
        } else if let Some(stamp) = &stamp {
            // The receiver's channel is gone: the message never entered
            // flight, so it must not count as a leak.
            sanitizer::cancel_send(stamp);
        }
        delivered
    }

    /// Blocking receive of a `T` from `src` with user `tag`.
    ///
    /// Matching is FIFO per `(src, tag)` pair, mirroring MPI's
    /// non-overtaking guarantee. Pass [`ANY_SOURCE`] as `src` to match any
    /// sender.
    ///
    /// # Panics
    /// Panics if the matched payload is not a `T`, or all senders hang up.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u32) -> T {
        self.recv_tagged(src, Tag::user(tag)).1
    }

    /// Blocking receive matching any source; returns `(src, value)`.
    pub fn recv_any<T: Send + 'static>(&self, tag: u32) -> (usize, T) {
        self.recv_tagged(ANY_SOURCE, Tag::user(tag))
    }

    /// Receive with a deadline: like [`Comm::recv`], but gives up after
    /// `timeout` and returns [`crate::Error::DeadlineExceeded`] carrying a
    /// snapshot of this rank's unmatched pending queue — the raw material
    /// for diagnosing who stopped talking.
    pub fn recv_deadline<T: Send + 'static>(
        &self,
        src: usize,
        tag: u32,
        timeout: Duration,
    ) -> crate::Result<(usize, T)> {
        let tag = Tag::user(tag);
        let env = self.match_envelope_deadline(&[src], tag, Some(timeout))?;
        let from = env.src;
        Ok((from, downcast_payload(env.payload, from, tag)))
    }

    pub(crate) fn recv_tagged<T: Send + 'static>(&self, src: usize, tag: Tag) -> (usize, T) {
        let env = self.match_envelope(src, tag);
        let from = env.src;
        (from, downcast_payload(env.payload, from, tag))
    }

    /// Poll/select-style multi-peer wait: block until a message with
    /// `tag` arrives from *any* rank in `sources`, and return
    /// `(src, value)`. Messages from ranks outside the set stay queued
    /// untouched, unlike [`Comm::recv_any`] which matches everyone.
    ///
    /// This is the event-loop primitive a single dispatcher needs to
    /// serve N peers without dedicating a thread (or a fixed-order
    /// blocking receive) to each link: whichever peer is ready first is
    /// served first. It gives up after `timeout` and returns
    /// [`crate::Error::DeadlineExceeded`]: a timeout means *every* rank
    /// in the set was silent for the whole window, which is exactly the
    /// evidence a caller needs to declare the stragglers dead in one
    /// decision instead of one full deadline per peer.
    ///
    /// # Panics
    /// Panics if `sources` is empty — a select over nothing can never
    /// complete and is a program bug, not a runtime failure.
    pub fn recv_any_of_deadline<T: Send + 'static>(
        &self,
        sources: &[usize],
        tag: u32,
        timeout: Duration,
    ) -> crate::Result<(usize, T)> {
        assert!(
            !sources.is_empty(),
            "recv_any_of_deadline: empty source set on rank {}",
            self.rank
        );
        if sources.len() > 1 {
            for src in sources {
                assert!(
                    *src < self.size(),
                    "recv_any_of_deadline: rank {src} out of range (size {})",
                    self.size()
                );
            }
        }
        let tag = Tag::user(tag);
        let env = self.match_envelope_deadline(sources, tag, Some(timeout))?;
        let from = env.src;
        Ok((from, downcast_payload(env.payload, from, tag)))
    }

    /// Non-blocking probe: is a message matching `(src, tag)` available?
    pub fn iprobe(&self, src: usize, tag: u32) -> bool {
        self.drain_channel();
        let tag = Tag::user(tag);
        self.pending
            .borrow()
            .iter()
            .any(|e| e.tag == tag && is_from(&[src], e.src))
    }

    /// Combined send + receive with the same tag (pairwise exchange).
    /// Never deadlocks because sends are eager.
    pub fn sendrecv<T: Send + 'static, U: Send + 'static>(
        &self,
        dest: usize,
        src: usize,
        tag: u32,
        value: T,
    ) -> U {
        self.send(dest, tag, value);
        self.recv(src, tag)
    }

    /// Pull everything currently queued in the channel into `pending`.
    fn drain_channel(&self) {
        let mut pending = self.pending.borrow_mut();
        while let Ok(env) = self.receiver.try_recv() {
            pending.push_back(env);
        }
    }

    /// Block until an envelope matching `(src, tag)` is available and
    /// remove it from the pending queue.
    fn match_envelope(&self, src: usize, tag: Tag) -> Envelope {
        self.match_envelope_deadline(&[src], tag, None)
            .unwrap_or_else(|_| unreachable!("recv without a deadline cannot time out"))
    }

    /// Matching engine behind every receive: the first envelope with
    /// `tag` from one of `sources` — one rank, `[ANY_SOURCE]`, or the set
    /// of a select. While blocked it publishes its wait state to the
    /// watchdog monitor and polls the abort flag; a receive from one
    /// rank verifies collective order on every non-matching envelope
    /// from it.
    fn match_envelope_deadline(
        &self,
        sources: &[usize],
        tag: Tag,
        deadline: Option<Duration>,
    ) -> crate::Result<Envelope> {
        // The awaited rank, as the watchdog, the scheduler and a
        // deadline report name it: `ANY_SOURCE` for any or a set.
        let src = match sources {
            [one] => *one,
            _ => ANY_SOURCE,
        };
        if let Some(sched) = self.sched.clone() {
            return self.match_envelope_sched(&sched, sources, src, tag, deadline);
        }
        // Fast path: already pending.
        if let Some(env) = self.take_pending(sources, tag) {
            self.note_progress();
            self.note_delivery(&env);
            return Ok(env);
        }
        self.check_pending_for_mismatch(src, tag);
        let start = Wall::now();
        self.publish_blocked(src, tag, start);
        let outcome = loop {
            let wait = match deadline {
                Some(limit) => {
                    let elapsed = start.elapsed();
                    if elapsed >= limit {
                        break Err(self.deadline_error(src, tag, elapsed));
                    }
                    POLL_TICK.min(limit - elapsed)
                }
                None => POLL_TICK,
            };
            match self.receiver.recv_timeout(wait) {
                Ok(env) => {
                    if env.tag == tag && is_from(sources, env.src) {
                        self.note_progress();
                        self.note_delivery(&env);
                        break Ok(env);
                    }
                    self.check_envelope_for_mismatch(&env, src, tag);
                    self.pending.borrow_mut().push_back(env);
                    self.update_pending_snapshot();
                }
                Err(RecvTimeoutError::Timeout) => self.check_abort(),
                Err(RecvTimeoutError::Disconnected) => {
                    panic!(
                        "recv: all peer ranks disconnected while rank {} waited for tag {tag}",
                        self.rank
                    );
                }
            }
        };
        if let Some(monitor) = &self.monitor {
            monitor.clear_blocked(self.slot);
        }
        outcome
    }

    /// Matching engine under the deterministic scheduler. The rank
    /// holds the schedule token while it runs; the only blocking point
    /// is [`Sched::block_recv`], which hands the token to a
    /// policy-chosen peer. A match among several ready senders — any
    /// source, or a select's set — is an explicit
    /// [`Sched::choose_match`] decision, and deadlines resolve on the
    /// *virtual* clock at quiescence — no wall-clock polling anywhere.
    fn match_envelope_sched(
        &self,
        sched: &Arc<Sched>,
        sources: &[usize],
        src: usize,
        tag: Tag,
        deadline: Option<Duration>,
    ) -> crate::Result<Envelope> {
        let deadline_nanos =
            deadline.map(|d| sched.vclock_nanos().saturating_add(d.as_nanos() as u64));
        loop {
            self.drain_channel();
            if let Some(env) = self.take_pending_sched(sched, sources, src, tag) {
                self.note_delivery(&env);
                return Ok(env);
            }
            self.check_pending_for_mismatch(src, tag);
            let info = WaitInfo {
                comm_rank: self.rank,
                comm_size: self.size(),
                src,
                tag,
                deadline_nanos,
                pending: self.pending_snapshot(),
            };
            match sched.block_recv(self.slot, info) {
                Wake::Mail => continue,
                Wake::Deadline => {
                    return Err(self.deadline_error(src, tag, deadline.unwrap_or_default()))
                }
                Wake::Abort(msg) => panic!("{msg}"),
            }
        }
    }

    /// Pending-queue match under the scheduler: a receive from one rank
    /// is FIFO as usual; one that could match several distinct senders
    /// asks the policy to pick one.
    fn take_pending_sched(
        &self,
        sched: &Sched,
        sources: &[usize],
        src: usize,
        tag: Tag,
    ) -> Option<Envelope> {
        if src != ANY_SOURCE {
            return self.take_pending(sources, tag);
        }
        let candidates: Vec<usize> = {
            let pending = self.pending.borrow();
            let mut distinct = Vec::new();
            for e in pending.iter() {
                if e.tag == tag && is_from(sources, e.src) && !distinct.contains(&e.src) {
                    distinct.push(e.src);
                }
            }
            distinct
        };
        if candidates.is_empty() {
            return None;
        }
        // Always a recorded decision — even with one candidate — so
        // replayed traces align event-for-event with the original run.
        let chosen = sched.choose_match(self.slot, &candidates, tag);
        self.take_pending(&[chosen], tag)
    }

    /// The first pending envelope with `tag` from one of `sources`.
    fn take_pending(&self, sources: &[usize], tag: Tag) -> Option<Envelope> {
        let mut pending = self.pending.borrow_mut();
        let idx = pending
            .iter()
            .position(|e| e.tag == tag && is_from(sources, e.src))?;
        pending.remove(idx)
    }

    /// Collective-order verification against the pending queue: if this
    /// rank waits for a collective message from a *specific* peer and that
    /// peer has already sent traffic for a *different* collective, the
    /// program violated the all-ranks-same-order rule. Sound because every
    /// collective's sends are exactly consumed by its receives and
    /// per-pair delivery is FIFO, so a leftover collective envelope from
    /// the awaited peer can only mean divergent collective order.
    fn check_pending_for_mismatch(&self, src: usize, tag: Tag) {
        if src == ANY_SOURCE {
            return;
        }
        let Some(mine) = tag.collective_parts() else {
            return;
        };
        let theirs = self.pending.borrow().iter().find_map(|e| {
            if e.src == src && e.tag != tag {
                e.tag.collective_parts()
            } else {
                None
            }
        });
        if let Some(theirs) = theirs {
            self.collective_mismatch(mine, src, theirs);
        }
    }

    /// Same check for a freshly received non-matching envelope.
    fn check_envelope_for_mismatch(&self, env: &Envelope, src: usize, tag: Tag) {
        if src == ANY_SOURCE || env.src != src {
            return;
        }
        let (Some(mine), Some(theirs)) = (tag.collective_parts(), env.tag.collective_parts())
        else {
            return;
        };
        self.collective_mismatch(mine, src, theirs);
    }

    fn collective_mismatch(
        &self,
        mine: (CollectiveKind, u64),
        src: usize,
        theirs: (CollectiveKind, u64),
    ) -> ! {
        panic!(
            "minimpi: collective mismatch on communicator of size {}: rank {} in {:?}@{}, \
             rank {src} in {:?}@{} — every rank must issue collectives in the same order",
            self.size(),
            self.rank,
            mine.0,
            mine.1,
            theirs.0,
            theirs.1,
        );
    }

    fn note_progress(&self) {
        if let Some(monitor) = &self.monitor {
            monitor.note_progress(self.slot);
        }
    }

    /// Sanitizer delivery hook: merge the sender's piggybacked clock
    /// into this rank's (the happens-before edge every safety argument
    /// leans on) and clear the in-flight registration. A no-op when
    /// the envelope is unstamped or the sanitizer is off.
    fn note_delivery(&self, env: &Envelope) {
        if let Some(stamp) = &env.stamp {
            sanitizer::on_recv(stamp);
        }
    }

    fn publish_blocked(&self, src: usize, tag: Tag, since: Wall) {
        let Some(monitor) = &self.monitor else {
            return;
        };
        let src_slot = if src == ANY_SOURCE {
            None
        } else {
            self.peer_slots.get(src).copied()
        };
        monitor.publish_blocked(
            self.slot,
            BlockedInfo {
                comm_rank: self.rank,
                comm_size: self.size(),
                src,
                src_slot,
                tag,
                since,
                pending: self.pending_snapshot(),
            },
        );
    }

    fn update_pending_snapshot(&self) {
        if let Some(monitor) = &self.monitor {
            monitor.update_pending(self.slot, self.pending_snapshot());
        }
    }

    fn pending_snapshot(&self) -> Vec<(usize, Tag)> {
        self.pending
            .borrow()
            .iter()
            .map(|e| (e.src, e.tag))
            .collect()
    }

    /// Panic with the watchdog's deadlock report if it fired.
    fn check_abort(&self) {
        if let Some(monitor) = &self.monitor {
            if monitor.aborted() {
                panic!("{}", monitor.report());
            }
        }
    }

    fn deadline_error(&self, src: usize, tag: Tag, waited: Duration) -> crate::Error {
        let snapshot = self.pending_snapshot();
        let mut pending = String::from("[");
        for (i, (from, tag)) in snapshot.iter().take(8).enumerate() {
            if i > 0 {
                pending.push_str(", ");
            }
            pending.push_str(&format!("from {from}: {tag}"));
        }
        if snapshot.len() > 8 {
            pending.push_str(", ...");
        }
        pending.push(']');
        crate::Error::DeadlineExceeded {
            src,
            tag: tag.to_string(),
            waited,
            pending,
        }
    }

    /// Collectively split this communicator into disjoint subgroups.
    ///
    /// Ranks passing the same `color` end up in the same new communicator;
    /// within a group, new ranks are ordered by `(key, old rank)`. Every
    /// rank of `self` must call `split`. Analogous to `MPI_Comm_split`.
    pub fn split(&self, color: u32, key: u32) -> Comm {
        let (tx, rx) = unbounded::<Envelope>();
        let tag = self.collective_tag(CollectiveKind::Split);
        let mine = SplitInfo {
            color,
            key,
            old_rank: self.rank,
            slot: self.slot,
            sender: tx,
        };
        let infos: Vec<SplitInfo> = crate::collectives::allgather_tagged(self, tag, mine);
        let mut members: Vec<&SplitInfo> = infos.iter().filter(|i| i.color == color).collect();
        members.sort_by_key(|i| (i.key, i.old_rank));
        let new_rank = members
            .iter()
            .position(|i| i.old_rank == self.rank)
            .unwrap_or_else(|| panic!("split: own rank missing from its color group"));
        let senders: Vec<Sender<Envelope>> = members.iter().map(|i| i.sender.clone()).collect();
        let peer_slots: Arc<Vec<usize>> = Arc::new(members.iter().map(|i| i.slot).collect());
        let sub = Comm::new(new_rank, Arc::new(senders), rx).with_runtime(
            self.slot,
            peer_slots,
            self.monitor.clone(),
            self.faults.clone(),
            self.sched.clone(),
        );
        sub.attach_probe(self.probe());
        sub
    }

    /// Collectively duplicate this communicator (cf. `MPI_Comm_dup`).
    ///
    /// The duplicate has an independent tag/epoch space, so libraries can
    /// communicate on it without colliding with application messages.
    pub fn dup(&self) -> Comm {
        self.split(0, self.rank as u32)
    }
}

#[derive(Clone)]
struct SplitInfo {
    color: u32,
    key: u32,
    old_rank: usize,
    slot: usize,
    sender: Sender<Envelope>,
}

/// Does a receive from `sources` match a message from `src`?
fn is_from(sources: &[usize], src: usize) -> bool {
    sources == [ANY_SOURCE] || sources.contains(&src)
}

/// Estimated deep size of a payload about to ship. The transport is
/// type-erased, so deep sizing probes the concrete buffer types the
/// workspace actually moves (element vectors, strings); anything else
/// falls back to its shallow `size_of`. Only evaluated when a probe is
/// attached.
fn payload_bytes<T: Send + 'static>(value: &T) -> usize {
    fn vec_bytes<E>(v: &[E]) -> usize {
        std::mem::size_of::<Vec<E>>() + std::mem::size_of_val(v)
    }
    let any: &dyn Any = value;
    macro_rules! try_vec {
        ($($elem:ty),* $(,)?) => {
            $(
                if let Some(v) = any.downcast_ref::<Vec<$elem>>() {
                    return vec_bytes(v);
                }
            )*
        };
    }
    try_vec!(f64, f32, u64, i64, u32, i32, u8, usize);
    if let Some(s) = any.downcast_ref::<String>() {
        return std::mem::size_of::<String>() + s.len();
    }
    std::mem::size_of::<T>()
}

fn downcast_payload<T: 'static>(payload: Box<dyn Any + Send>, src: usize, tag: Tag) -> T {
    match payload.downcast::<T>() {
        Ok(v) => *v,
        Err(_) => panic!(
            "recv: message from rank {src} with tag {tag} is not a {}",
            std::any::type_name::<T>()
        ),
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn ping_pong() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                let back: Vec<f64> = comm.recv(1, 8);
                assert_eq!(back, vec![2.0, 4.0, 6.0]);
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                comm.send(0, 8, v.into_iter().map(|x| x * 2.0).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn tag_matching_is_selective() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(1, 2, 222u32);
                comm.send(1, 1, 111u32);
            } else {
                let one: u32 = comm.recv(0, 1);
                let two: u32 = comm.recv(0, 2);
                assert_eq!((one, two), (111, 222));
            }
        });
    }

    #[test]
    fn per_source_fifo_order() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(1, 5, i);
                }
            } else {
                for i in 0..100u32 {
                    let got: u32 = comm.recv(0, 5);
                    assert_eq!(got, i);
                }
            }
        });
    }

    #[test]
    fn recv_any_source() {
        World::run(4, |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![false; 4];
                for _ in 0..3 {
                    let (src, v): (usize, usize) = comm.recv_any(9);
                    assert_eq!(v, src * 10);
                    seen[src] = true;
                }
                assert_eq!(seen, vec![false, true, true, true]);
            } else {
                comm.send(0, 9, comm.rank() * 10);
            }
        });
    }

    #[test]
    fn sendrecv_ring_shift() {
        World::run(5, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let got: usize = comm.sendrecv(right, left, 3, comm.rank());
            assert_eq!(got, left);
        });
    }

    #[test]
    fn split_into_even_odd_groups() {
        World::run(6, |comm| {
            let color = (comm.rank() % 2) as u32;
            let sub = comm.split(color, comm.rank() as u32);
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), comm.rank() / 2);
            // The subgroup communicates independently of the parent.
            let total = sub.allreduce_scalar(comm.rank(), |a, b| a + b);
            let expect = if color == 0 { 6 } else { 1 + 3 + 5 };
            assert_eq!(total, expect);
        });
    }

    #[test]
    fn split_with_key_reorders() {
        World::run(4, |comm| {
            // Reverse order via key.
            let key = (comm.size() - comm.rank()) as u32;
            let sub = comm.split(0, key);
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
        });
    }

    #[test]
    fn dup_is_independent() {
        World::run(3, |comm| {
            let dup = comm.dup();
            assert_eq!(dup.rank(), comm.rank());
            assert_eq!(dup.size(), comm.size());
            // Same tag on both communicators does not cross over.
            if comm.rank() == 0 {
                comm.send(1, 4, 1u8);
                dup.send(1, 4, 2u8);
            } else if comm.rank() == 1 {
                let b: u8 = dup.recv(0, 4);
                let a: u8 = comm.recv(0, 4);
                assert_eq!((a, b), (1, 2));
            }
        });
    }

    #[test]
    fn iprobe_sees_pending_message() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 11, 42u64);
                comm.barrier();
            } else {
                comm.barrier();
                assert!(comm.iprobe(0, 11));
                assert!(!comm.iprobe(0, 12));
                let v: u64 = comm.recv(0, 11);
                assert_eq!(v, 42);
            }
        });
    }

    #[test]
    fn probe_counts_collectives_and_p2p() {
        World::run(4, |comm| {
            let p = probe::enabled();
            comm.attach_probe(p.clone());
            comm.barrier();
            let _ = comm.allreduce_vec(vec![comm.rank() as u64; 8], |a, b| a + b);
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1.0f64; 16]);
            } else if comm.rank() == 1 {
                let _: Vec<f64> = comm.recv(0, 5);
            }
            let snap = p.snapshot();
            let get = |n: &str| snap.counters.iter().find(|c| c.name == n);
            assert_eq!(get("minimpi/barrier").unwrap().calls, 1);
            assert_eq!(get("minimpi/reduce").unwrap().calls, 1);
            assert_eq!(get("minimpi/bcast").unwrap().calls, 1);
            assert!(get("minimpi/barrier").unwrap().messages > 0);
            if comm.rank() == 0 {
                let c = get("minimpi/p2p").unwrap();
                assert_eq!((c.calls, c.messages), (1, 1));
                assert!(c.bytes >= 16 * 8, "deep-sized payload: {} bytes", c.bytes);
            } else {
                assert!(get("minimpi/p2p").is_none(), "recv side counts nothing");
            }
            // Derived communicators inherit the probe.
            let sub = comm.split((comm.rank() % 2) as u32, 0);
            assert!(sub.probe().is_enabled());
            sub.barrier();
            assert_eq!(
                get("minimpi/barrier").unwrap().calls,
                1,
                "snapshot is a copy"
            );
            assert!(p
                .snapshot()
                .counters
                .iter()
                .any(|c| c.name == "minimpi/split"));
        });
    }

    #[test]
    fn unprobed_comm_records_nothing() {
        World::run(2, |comm| {
            assert!(!comm.probe().is_enabled());
            comm.barrier();
            assert_eq!(comm.probe().snapshot(), probe::Snapshot::default());
        });
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn type_mismatch_panics() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 1.5f64);
            } else {
                let _: u32 = comm.recv(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn collective_epoch_mismatch_detected() {
        use crate::envelope::{CollectiveKind, Tag};
        World::run(2, |comm| {
            if comm.rank() == 0 {
                // Simulate a peer one collective ahead: same kind, epoch 7.
                comm.send_tagged(1, Tag::collective(CollectiveKind::Bcast, 7), 1u8);
            } else {
                let _: (usize, u8) = comm.recv_tagged(0, Tag::collective(CollectiveKind::Bcast, 9));
            }
        });
    }

    #[test]
    fn recv_any_of_deadline_matches_only_listed_sources() {
        let patient = std::time::Duration::from_secs(30);
        World::run(4, move |comm| {
            if comm.rank() == 0 {
                // Rank 3 also sends on the same tag; the select over
                // {1, 2} must leave that message queued untouched.
                let mut seen = vec![];
                for _ in 0..2 {
                    let (src, v): (usize, u32) =
                        comm.recv_any_of_deadline(&[1, 2], 21, patient).unwrap();
                    assert_eq!(v as usize, src * 100);
                    seen.push(src);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2]);
                let (src, v): (usize, u32) = comm.recv_any_of_deadline(&[3], 21, patient).unwrap();
                assert_eq!((src, v), (3, 300));
            } else {
                comm.send(0, 21, (comm.rank() * 100) as u32);
            }
        });
    }

    #[test]
    fn recv_any_of_deadline_times_out_when_all_silent() {
        use std::time::Duration;
        World::run(3, |comm| {
            if comm.rank() == 0 {
                let got: crate::Result<(usize, u8)> =
                    comm.recv_any_of_deadline(&[1, 2], 33, Duration::from_millis(40));
                match got {
                    Err(crate::Error::DeadlineExceeded { waited, .. }) => {
                        assert!(waited >= Duration::from_millis(40));
                    }
                    other => panic!("expected deadline, got {other:?}"),
                }
            }
            comm.barrier();
        });
    }

    #[test]
    fn recv_any_of_deadline_is_deterministic_under_replay() {
        use crate::{SchedPolicy, TraceCell, WorldBuilder};
        let patient = std::time::Duration::from_secs(30);
        let run = |policy: SchedPolicy, cell: &TraceCell| -> Vec<usize> {
            let order = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sink = order.clone();
            WorldBuilder::new(4)
                .sched(policy)
                .trace_cell(cell)
                .run(move |comm| {
                    if comm.rank() == 0 {
                        for _ in 0..6 {
                            let (src, _v): (usize, u64) =
                                comm.recv_any_of_deadline(&[1, 2, 3], 44, patient).unwrap();
                            sink.lock().push(src);
                        }
                    } else {
                        for i in 0..2u64 {
                            comm.send(0, 44, comm.rank() as u64 * 10 + i);
                        }
                    }
                });
            let got = order.lock().clone();
            got
        };
        let cell = TraceCell::default();
        let recorded = run(SchedPolicy::Seeded(0xB20C), &cell);
        let trace = cell.take().expect("seeded run records a trace");
        let replay_cell = TraceCell::default();
        let replayed = run(SchedPolicy::Replay(trace), &replay_cell);
        assert_eq!(recorded, replayed, "select order must replay exactly");
    }

    #[test]
    fn split_preserves_world_slots() {
        use std::time::Duration;
        // Faults are keyed by world rank: cutting world link 0->2 must
        // still drop messages on a sub-communicator where those ranks have
        // different local numbering.
        let faults = crate::FaultHandle::new();
        faults.drop_link(0, 2);
        let handle = faults.clone();
        crate::WorldBuilder::new(4)
            .fault_handle(handle)
            .run(|comm| {
                let sub = comm.split((comm.rank() % 2) as u32, 0); // {0,2} and {1,3}
                if comm.rank() == 0 {
                    sub.send(1, 3, 5u8); // world 0 -> world 2: dropped
                } else if comm.rank() == 2 {
                    let got: crate::Result<(usize, u8)> =
                        sub.recv_deadline(0, 3, Duration::from_millis(50));
                    assert!(got.is_err(), "fault rule did not follow the split");
                } else if comm.rank() == 1 {
                    sub.send(1, 3, 6u8); // world 1 -> world 3: delivered
                } else {
                    let (_, got): (usize, u8) = sub
                        .recv_deadline(0, 3, Duration::from_secs(5))
                        .expect("healthy link must deliver");
                    assert_eq!(got, 6);
                }
            });
        assert_eq!(faults.dropped(), 1);
    }
}
