//! The communicator: typed, tagged point-to-point messaging.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

use crate::envelope::{CollectiveKind, Envelope, Tag, ANY_SOURCE};
use crate::fault::{FaultAction, FaultHandle};
use crate::loan::{Loans, Pool};
use crate::sched::{list_mail, Deadline, Sched, WaitInfo, Wake};
use crate::Wire;

/// An MPI-style communicator handle owned by one rank (one thread).
///
/// A `Comm` is *not* `Sync`: exactly one thread drives each rank, matching
/// the single-threaded-per-rank MPI funneled model the paper's codes use.
/// Intra-rank threading (rayon loops inside a rank) must not touch the
/// communicator, just as `MPI_THREAD_FUNNELED` requires.
pub struct Comm {
    rank: usize,
    /// The mailbox in the rank table of each rank of this communicator
    /// (`mailboxes[rank]`); this rank receives from its own.
    mailboxes: Arc<Vec<usize>>,
    /// Count of collective operations issued, used to build collective tags.
    epoch: Cell<u64>,
    /// Clock origin for [`Comm::wtime`], in [`probe::time`] seconds —
    /// wall clock normally, deterministic virtual ticks under the
    /// scheduler.
    t0: f64,
    /// This rank's slot in the *world* (stable across `split`); used to
    /// key the rank table and fault rules.
    slot: usize,
    /// World slot of each rank in this communicator (`peer_slots[rank]`).
    peer_slots: Arc<Vec<usize>>,
    /// Injected transport faults, when installed for a test.
    faults: Option<FaultHandle>,
    /// The world's rank table: it holds every rank's mail, every
    /// delivery wakes its destination and every receive waits on it.
    /// Under a non-`Os` [`crate::SchedPolicy`] it is also the
    /// deterministic scheduler, interposing on every blocking receive
    /// and `ANY_SOURCE` match.
    sched: Arc<Sched>,
    /// Observability handle; [`probe::off`] (a no-op) by default.
    probe: RefCell<probe::Probe>,
    /// Loans out, per `(peer, tag)` ([`Comm::lend`]).
    pub(crate) loans: RefCell<Vec<Loans>>,
    /// This rank's spare buffers ([`Comm::keep`]).
    pub(crate) pool: RefCell<Pool>,
}

impl Comm {
    /// Rank `rank` of a communicator whose ranks sit in world slots
    /// `peer_slots` and receive from `mailboxes`, this one in `slot`.
    pub(crate) fn new(
        rank: usize,
        slot: usize,
        peer_slots: Arc<Vec<usize>>,
        mailboxes: Arc<Vec<usize>>,
        faults: Option<FaultHandle>,
        sched: Arc<Sched>,
    ) -> Self {
        Comm {
            rank,
            mailboxes,
            epoch: Cell::new(0),
            t0: probe::time::now_seconds(),
            slot,
            peer_slots,
            faults,
            sched,
            probe: RefCell::new(probe::off()),
            loans: RefCell::new(Vec::new()),
            pool: RefCell::new(Vec::new()),
        }
    }

    /// Attach an observability probe: subsequent sends count messages
    /// and their payloads' wire bytes ([`Wire`]) per collective kind, and
    /// collective entries count invocations. Communicators derived via
    /// [`Comm::split`] inherit the probe.
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
        self.mailboxes.len()
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
    pub fn send<T: Wire + Send + 'static>(&self, dest: usize, tag: u32, value: T) {
        self.send_tagged(dest, Tag::user(tag), value)
    }

    pub(crate) fn send_tagged<T: Wire + Send + 'static>(&self, dest: usize, tag: Tag, value: T) {
        if !self.try_send(dest, tag, value, T::wire_bytes) {
            panic!(
                "send: destination rank disconnected (rank {} sending tag {tag} to rank {dest})",
                self.rank
            );
        }
    }

    /// Shared send path; applies injected faults. A fault-dropped message
    /// counts as delivered from the sender's perspective, and one to a
    /// rank that has exited as not: `false`, where `send` panics. A
    /// probe attached counts the message at `bytes(&value)`.
    pub(crate) fn try_send<T: Send + 'static>(
        &self,
        dest: usize,
        tag: Tag,
        value: T,
        bytes: fn(&T) -> usize,
    ) -> bool {
        let mailbox = *self
            .mailboxes
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
                probe.message(name, bytes(&value) as u64);
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
                FaultAction::Delay(d) if self.sched.serial() => self.sched.advance_clock(d),
                FaultAction::Delay(d) => std::thread::sleep(d),
            }
        }
        let env = Envelope {
            src: self.rank,
            tag,
            payload: Box::new(value),
            stamp,
        };
        match self.sched.deliver(self.slot, to_slot, mailbox, env) {
            Ok(()) => true,
            Err(env) => {
                // The receiver's mailbox is closed: the message never
                // entered flight, so it must not count as a leak.
                if let Some(stamp) = &env.stamp {
                    sanitizer::cancel_send(stamp);
                }
                false
            }
        }
    }

    /// Blocking receive of a `T` from `src` with user `tag`.
    ///
    /// Matching is FIFO per `(src, tag)` pair, mirroring MPI's
    /// non-overtaking guarantee. Pass [`ANY_SOURCE`] as `src` to match any
    /// sender.
    ///
    /// # Panics
    /// Panics if the matched payload is not a `T`, or the world aborts
    /// (no live rank can send).
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u32) -> T {
        self.recv_tagged(src, Tag::user(tag)).1
    }

    /// Blocking receive matching any source; returns `(src, value)`.
    pub fn recv_any<T: Send + 'static>(&self, tag: u32) -> (usize, T) {
        self.recv_tagged(ANY_SOURCE, Tag::user(tag))
    }

    /// Receive with a deadline: like [`Comm::recv`], but gives up after
    /// `timeout` and returns [`crate::Error::DeadlineExceeded`] carrying a
    /// list of this rank's unmatched mail — the raw material
    /// for diagnosing who stopped talking.
    pub fn recv_deadline<T: Send + 'static>(
        &self,
        src: usize,
        tag: u32,
        timeout: Duration,
    ) -> crate::Result<(usize, T)> {
        let tag = Tag::user(tag);
        let env = self.match_envelope(&[src], tag, Some(timeout))?;
        let from = env.src;
        Ok((from, downcast_payload(env.payload, from, tag)))
    }

    pub(crate) fn recv_tagged<T: Send + 'static>(&self, src: usize, tag: Tag) -> (usize, T) {
        let env = self
            .match_envelope(&[src], tag, None)
            .unwrap_or_else(|_| unreachable!("recv without a deadline cannot time out"));
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
        let env = self.match_envelope(sources, tag, Some(timeout))?;
        let from = env.src;
        Ok((from, downcast_payload(env.payload, from, tag)))
    }

    /// The one receive loop, under every policy: the first envelope
    /// with `tag` from one of `sources` — one rank, `[ANY_SOURCE]`, or
    /// the set of a select — taken from this rank's mailbox under the
    /// rank table's lock ([`crate::sched::Table::take`]). A receive
    /// from one rank verifies collective order against the mailbox.
    /// With nothing to match the rank waits on the table for mail, its
    /// deadline, or the world's abort (a deadlock or a replay
    /// divergence), and matches again.
    fn match_envelope(
        &self,
        sources: &[usize],
        tag: Tag,
        limit: Option<Duration>,
    ) -> crate::Result<Envelope> {
        // The awaited rank, as the scheduler and a deadline report name
        // it: `ANY_SOURCE` for any or a set.
        let src = match sources {
            [one] => *one,
            _ => ANY_SOURCE,
        };
        let mailbox = self.mailboxes[self.rank];
        let mut table = self.sched.lock();
        let deadline = limit.map(|limit| table.deadline(limit));
        loop {
            if let Some(env) = table.take(self.slot, mailbox, sources, src, tag) {
                drop(table);
                self.note_delivery(&env);
                return Ok(env);
            }
            if let Some((mine, theirs)) = collective_ahead(table.mail(mailbox), src, tag) {
                drop(table);
                self.collective_mismatch(mine, src, theirs);
            }
            let info = self.wait_info(src, tag, mailbox, deadline);
            match table.wait(self.slot, info, deadline) {
                Wake::Mail => {}
                Wake::Deadline(waited) => {
                    return Err(crate::Error::DeadlineExceeded {
                        src,
                        tag: tag.to_string(),
                        waited,
                        pending: list_mail(table.mail(mailbox)),
                    })
                }
                Wake::Abort(msg) => {
                    drop(table);
                    panic!("{msg}");
                }
            }
        }
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

    /// Sanitizer delivery hook: merge the sender's piggybacked clock
    /// into this rank's (the happens-before edge every safety argument
    /// leans on) and clear the in-flight registration. A no-op when
    /// the envelope is unstamped or the sanitizer is off.
    fn note_delivery(&self, env: &Envelope) {
        if let Some(stamp) = &env.stamp {
            sanitizer::on_recv(stamp);
        }
    }

    /// What this rank waits for, as the rank table records it.
    fn wait_info(
        &self,
        src: usize,
        tag: Tag,
        mailbox: usize,
        deadline: Option<Deadline>,
    ) -> WaitInfo {
        WaitInfo {
            comm_rank: self.rank,
            comm_size: self.size(),
            src,
            src_slot: self.peer_slots.get(src).copied(),
            tag,
            deadline_nanos: deadline.map(|d| d.at_nanos),
            mailbox,
        }
    }

    /// Collectively split this communicator into disjoint subgroups.
    ///
    /// Ranks passing the same `color` end up in the same new communicator;
    /// within a group, new ranks are ordered by `(key, old rank)`. Every
    /// rank of `self` must call `split`. Analogous to `MPI_Comm_split`.
    pub fn split(&self, color: u32, key: u32) -> Comm {
        let tag = self.collective_tag(CollectiveKind::Split);
        let mine = SplitInfo {
            color,
            key,
            old_rank: self.rank,
            slot: self.slot,
            mailbox: self.sched.open_mailbox(),
        };
        let infos: Vec<SplitInfo> = crate::collectives::allgather_tagged(self, tag, mine);
        let mut members: Vec<&SplitInfo> = infos.iter().filter(|i| i.color == color).collect();
        members.sort_by_key(|i| (i.key, i.old_rank));
        let new_rank = members
            .iter()
            .position(|i| i.old_rank == self.rank)
            .unwrap_or_else(|| panic!("split: own rank missing from its color group"));
        let peer_slots: Arc<Vec<usize>> = Arc::new(members.iter().map(|i| i.slot).collect());
        let mailboxes: Arc<Vec<usize>> = Arc::new(members.iter().map(|i| i.mailbox).collect());
        let sub = Comm::new(
            new_rank,
            self.slot,
            peer_slots,
            mailboxes,
            self.faults.clone(),
            Arc::clone(&self.sched),
        );
        sub.attach_probe(self.probe());
        sub
    }
}

impl Drop for Comm {
    /// Close this rank's mailbox: a later send to it fails.
    fn drop(&mut self) {
        self.sched.close_mailbox(self.mailboxes[self.rank]);
    }
}

#[derive(Clone, Copy)]
struct SplitInfo {
    color: u32,
    key: u32,
    old_rank: usize,
    slot: usize,
    mailbox: usize,
}

impl Wire for SplitInfo {
    const PLAIN: bool = true;
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Collective-order verification against the mailbox: if this rank
/// waits for a collective message from a *specific* peer and that peer
/// has already sent traffic for a *different* collective, the program
/// violated the all-ranks-same-order rule: `(mine, theirs)`. Sound
/// because every collective's sends are exactly consumed by its
/// receives and per-pair delivery is FIFO, so a leftover collective
/// envelope from the awaited peer can only mean divergent collective
/// order.
fn collective_ahead<'a>(
    mail: impl Iterator<Item = &'a Envelope>,
    src: usize,
    tag: Tag,
) -> Option<((CollectiveKind, u64), (CollectiveKind, u64))> {
    if src == ANY_SOURCE {
        return None;
    }
    let mine = tag.collective_parts()?;
    let theirs = mail
        .filter(|e| e.src == src && e.tag != tag)
        .find_map(|e| e.tag.collective_parts())?;
    Some((mine, theirs))
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
                assert_eq!(c.bytes, 24 + 16 * 8, "a Vec<f64>, header and elements");
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
