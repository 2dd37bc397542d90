//! FlexPath-like publish/subscribe staging transport.
//!
//! The world splits into a **writer group** (the simulation) and an
//! **endpoint group** (the analysis readers) — the paper's co-scheduled
//! configuration puts one endpoint per writer core's sibling
//! hyperthread, but the pairing works for any M-writers/N-endpoints
//! split, including the in transit case on disjoint nodes.
//!
//! Per-step protocol, matching Fig. 8's decomposition:
//!
//! * `advance` — the writer's metadata update: blocks until the reader
//!   has given the *previous* step back (a step is a `minimpi` loan with
//!   at most one out — back-pressure is where "blocking time if the
//!   reader is not yet ready" appears). The step's buffers come back
//!   with it, into the writer's pool, so the writer marshals every step
//!   into the buffers it keeps;
//! * `write` — lends one [`BpStep`] split in two, as ADIOS2's SST
//!   engine splits its control and data planes: the BPL3 framing
//!   without its payload sections travels as bytes, and each payload
//!   travels beside it as the block the writer copied it into — the one
//!   marshaling copy of §4.1.4, and the only copy either side makes;
//! * readers `begin_step`/`end_step` around their analysis. A reader
//!   checks each block against its header and adopts it as the
//!   variable's payload, and `end_step` gives the framing and the
//!   blocks back, so a warm stream allocates no payload on either side.
//!
//! Writers may `close` at any time (FlexPath supports dynamic
//! disconnection); endpoints drain remaining steps and observe EOF.
//!
//! Readers also survive writers that *die* rather than close: each
//! per-writer receive carries a deadline, and a writer that misses it —
//! or whose step does not decode — is recorded as a
//! [`FailureReport`] (steps and bytes received before the loss) and
//! dropped from the stream instead of hanging or killing the endpoint.
//! A writer whose step does not decode is *refused*: the step comes
//! back with [`Verdict::Refused`], its `advance` returns, and it ships
//! nothing more.

use std::time::Duration;

use minimpi::{Comm, Verdict};
use sensei::FailureReport;

use crate::bp::{BpStep, Payload};

/// The tag steps are lent on, and come back on.
const TAG_DATA: u32 = 0xAD10_0001;

/// Default per-writer receive deadline: generous enough for slow
/// simulation steps, small enough that a dead writer is diagnosed rather
/// than hanging the endpoint forever.
const DEFAULT_WRITER_DEADLINE: Duration = Duration::from_secs(30);

/// One step on `TAG_DATA`: whether the writer is closing, the step's
/// framing without payloads ([`BpStep::encode_meta`]), and one payload
/// block per variable.
type Frame = (bool, Vec<u8>, Vec<Payload>);

/// This rank's role after [`pair`].
pub enum Role {
    /// A simulation (writer) rank.
    Writer {
        /// Sub-communicator over the writer group.
        sub: Comm,
        /// Transport handle to the paired endpoint.
        writer: FlexpathWriter,
    },
    /// An analysis (endpoint) rank.
    Endpoint {
        /// Sub-communicator over the endpoint group.
        sub: Comm,
        /// Transport handle to the served writers.
        reader: FlexpathReader,
    },
}

/// Split `world` into `n_writers` writers and the rest endpoints, and
/// wire the pairing: writer `w` publishes to endpoint `w % n_endpoints`.
///
/// # Panics
/// Panics unless `0 < n_writers < world.size()`.
pub fn pair(world: &Comm, n_writers: usize) -> Role {
    let p = world.size();
    assert!(n_writers > 0 && n_writers < p, "need writers and endpoints");
    let n_endpoints = p - n_writers;
    let me = world.rank();
    let is_writer = me < n_writers;
    let sub = world.split(u32::from(is_writer), me as u32);
    if is_writer {
        let peer = n_writers + (me % n_endpoints);
        Role::Writer {
            sub,
            writer: FlexpathWriter {
                peer,
                last: 0,
                refused: None,
                closed: false,
            },
        }
    } else {
        let e = me - n_writers;
        let links: Vec<WriterLink> = (0..n_writers)
            .filter(|w| w % n_endpoints == e)
            .map(|rank| WriterLink {
                rank,
                steps: 0,
                bytes: 0,
                meta: Vec::new(),
                blocks: Vec::new(),
            })
            .collect();
        Role::Endpoint {
            sub,
            reader: FlexpathReader {
                links,
                deadline: DEFAULT_WRITER_DEADLINE,
                dead: Vec::new(),
            },
        }
    }
}

/// Writer-side transport handle. The step buffers it marshals into are
/// the world communicator's: at the endpoint while a step is lent, in
/// the rank's pool (`Comm::spare`) between steps.
pub struct FlexpathWriter {
    peer: usize,
    /// The step lent last.
    last: u64,
    /// The step the endpoint refused; nothing ships after it.
    refused: Option<u64>,
    closed: bool,
}

impl FlexpathWriter {
    /// The endpoint rank this writer publishes to (world index).
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// The step whose frame the endpoint refused, if it did.
    pub(crate) fn refused(&self) -> Option<u64> {
        self.refused
    }

    /// Metadata advance: waits for the reader to give the previous step
    /// back (returns the blocking seconds, the Fig. 8
    /// `adios::advance`+blocking component; 0 when no step is out).
    pub fn advance(&mut self, world: &Comm) -> f64 {
        assert!(!self.closed, "advance after close");
        let t0 = probe::time::now_seconds();
        match self.settle(world) {
            None => 0.0,
            Some(()) => (probe::time::now_seconds() - t0).max(0.0),
        }
    }

    /// Take the lent step's buffers back, if one is out, and note a
    /// refusal.
    fn settle(&mut self, world: &Comm) -> Option<()> {
        if world.reclaim::<Frame>(self.peer, TAG_DATA)? == Verdict::Refused {
            self.refused = Some(self.last);
        }
        Some(())
    }

    /// Ship one step: encodes its framing without payloads into the kept
    /// metadata buffer, copies each variable's values into the block the
    /// last step returned (the one marshaling copy of §4.1.4; a fresh
    /// block only where the type changed or something still holds the
    /// old one), and lends both to the endpoint, which needs to own
    /// them; a step still out is waited for first, as `advance` does.
    /// Returns the bytes shipped, the step's [`BpStep::encoded_len`]: 0
    /// once the endpoint has refused this writer.
    pub fn write(&mut self, world: &Comm, step: &BpStep) -> usize {
        assert!(!self.closed, "write after close");
        self.settle(world);
        if self.refused.is_some() {
            return 0;
        }
        world.lend(self.peer, TAG_DATA, 1, |frame| marshal(step, frame));
        self.last = step.step;
        step.encoded_len()
    }

    /// Disconnect from the endpoint, dropping the step buffers. A
    /// refused writer has nobody to tell.
    pub fn close(&mut self, world: &Comm) {
        if !self.closed {
            self.settle(world);
            if self.refused.is_none() {
                world.send::<Frame>(self.peer, TAG_DATA, (true, Vec::new(), Vec::new()));
            }
            drop(world.spare::<Frame>());
            self.closed = true;
        }
    }
}

/// Marshal `step` into `frame`, reusing the buffers it holds.
fn marshal(step: &BpStep, (closing, meta, blocks): &mut Frame) {
    *closing = false;
    step.encode_meta(meta);
    blocks.truncate(step.vars.len());
    for (i, var) in step.vars.iter().enumerate() {
        match blocks.get_mut(i) {
            Some(block) => var.data.marshal_into(block),
            None => blocks.push(var.data.copied()),
        }
    }
}

/// Per-writer stream state on the reader side.
#[derive(Clone, Debug)]
struct WriterLink {
    rank: usize,
    steps: u64,
    bytes: u64,
    /// The framing read this round, held until `end_step` gives it back.
    meta: Vec<u8>,
    /// The payload list it came in, drained by `BpStep::adopt`, to carry
    /// the payloads back.
    blocks: Vec<Payload>,
}

/// Reader-side transport handle.
pub struct FlexpathReader {
    links: Vec<WriterLink>,
    /// Per-writer receive deadline (tests set short ones).
    pub(crate) deadline: Duration,
    dead: Vec<FailureReport>,
}

impl FlexpathReader {
    /// Writers lost mid-stream so far, with what was received before
    /// the loss: [`FailureReport::DeadWriter`] for a missed receive
    /// deadline, [`FailureReport::CorruptFrame`] for a step that did
    /// not decode.
    pub(crate) fn dead_writers(&self) -> &[FailureReport] {
        &self.dead
    }

    /// Stop serving writer `rank` and record why.
    fn drop_link(&mut self, rank: usize, why: impl FnOnce(&WriterLink) -> FailureReport) {
        if let Some(i) = self.links.iter().position(|l| l.rank == rank) {
            let link = self.links.remove(i);
            self.dead.push(why(&link));
        }
    }

    /// Receive one step from every still-connected writer. Returns
    /// `None` once all writers have closed or died. Steps arrive with
    /// their source world rank. A writer that misses the deadline, or
    /// sends a step that does not decode — a framing that does not
    /// parse, or a payload block that disagrees with its header — is
    /// recorded in [`FlexpathReader::dead_writers`] and dropped; the
    /// stream degrades to end-of-stream instead of hanging, and the
    /// other writers are served as before.
    ///
    /// Internally this is one event-loop round over a multi-peer
    /// select ([`Comm::recv_any_of_deadline`]): whichever writer is
    /// ready first is served first, so one slow writer no longer
    /// serializes the round behind a fixed receive order, and one
    /// deadline window covers all stragglers at once instead of
    /// costing a full deadline per dead writer. The returned steps are
    /// sorted by writer rank, so downstream block order is independent
    /// of arrival order.
    pub fn begin_step(&mut self, world: &Comm) -> Option<Vec<(usize, BpStep)>> {
        if self.links.is_empty() {
            return None;
        }
        let mut steps: Vec<(usize, BpStep)> = Vec::with_capacity(self.links.len());
        // Writers still owing a step this round; shrinks as steps
        // arrive.
        let mut awaiting: Vec<usize> = self.links.iter().map(|l| l.rank).collect();
        while !awaiting.is_empty() {
            let got = world.recv_any_of_deadline::<Frame>(&awaiting, TAG_DATA, self.deadline);
            let Ok((w, (is_close, meta, mut blocks))) = got else {
                // Every writer still awaited was silent for the whole
                // window: declare them all dead in one decision.
                let waited = self.deadline;
                for &rank in &awaiting {
                    self.drop_link(rank, |link| FailureReport::DeadWriter {
                        rank,
                        steps_received: link.steps,
                        bytes_received: link.bytes,
                        waited,
                    });
                }
                break;
            };
            awaiting.retain(|&r| r != w);
            if is_close {
                self.links.retain(|l| l.rank != w);
                continue;
            }
            let Some(link) = self.links.iter_mut().find(|l| l.rank == w) else {
                continue;
            };
            match BpStep::adopt(&meta, &mut blocks) {
                Ok(step) => {
                    link.steps += 1;
                    link.bytes += (meta.len() + step.payload_bytes()) as u64;
                    link.meta = meta;
                    link.blocks = blocks;
                    steps.push((w, step));
                }
                // Refused: the writer's `advance` returns and it ships
                // nothing more. The blocks were not adopted.
                Err(err) => {
                    let frame: Frame = (false, meta, blocks);
                    world.give_back(w, TAG_DATA, frame, Verdict::Refused);
                    self.drop_link(w, |link| FailureReport::CorruptFrame {
                        rank: w,
                        steps_received: link.steps,
                        bytes_received: link.bytes,
                        reason: err.to_string(),
                    });
                }
            }
        }
        // Arrival order is schedule-dependent; block order must not be.
        steps.sort_by_key(|(w, _)| *w);
        if steps.is_empty() {
            None
        } else {
            Some(steps)
        }
    }

    /// Give the current round back to the writers that lent it,
    /// releasing their back-pressure and returning each its framing and
    /// the round's payloads, which the writer marshals its next step
    /// into wherever nothing else holds them by then. Best-effort: a
    /// writer that died after sending must not take the endpoint down
    /// with it.
    pub fn end_step(&mut self, world: &Comm, round: Vec<(usize, BpStep)>) {
        for (w, step) in round {
            if let Some(link) = self.links.iter_mut().find(|l| l.rank == w) {
                let meta = std::mem::take(&mut link.meta);
                let mut blocks = std::mem::take(&mut link.blocks);
                blocks.extend(step.vars.into_iter().map(|v| v.data));
                let frame: Frame = (false, meta, blocks);
                world.give_back(w, TAG_DATA, frame, Verdict::Taken);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::BpVar;
    use minimpi::World;

    impl FlexpathWriter {
        /// [`FlexpathWriter::write`], with `tamper` applied to the
        /// marshalled payload blocks before they ship.
        pub(crate) fn write_tampered(
            &mut self,
            world: &Comm,
            step: &BpStep,
            tamper: impl FnOnce(&mut Vec<Payload>),
        ) {
            self.settle(world);
            world.lend(self.peer, TAG_DATA, 1, |frame: &mut Frame| {
                marshal(step, frame);
                tamper(&mut frame.2);
            });
            self.last = step.step;
        }
    }

    fn step_with(step: u64, v: f64) -> BpStep {
        let mut s = BpStep::new(step, step as f64 * 0.1);
        s.vars.push(BpVar::new(
            "data",
            [2, 1, 1],
            [0, 0, 0],
            [2, 1, 1],
            vec![v, v],
        ));
        s
    }

    #[test]
    fn one_writer_one_endpoint_streams_steps() {
        World::run(2, |world| match pair(world, 1) {
            Role::Writer { sub, mut writer } => {
                assert_eq!(sub.size(), 1);
                for s in 0..5u64 {
                    writer.advance(world);
                    writer.write(world, &step_with(s, s as f64));
                }
                writer.close(world);
            }
            Role::Endpoint { sub, mut reader } => {
                assert_eq!(sub.size(), 1);
                let mut seen = 0u64;
                while let Some(steps) = reader.begin_step(world) {
                    assert_eq!(steps.len(), 1);
                    assert_eq!(steps[0].1.step, seen);
                    assert_eq!(
                        steps[0].1.var("data").unwrap().data,
                        vec![seen as f64; 2].into()
                    );
                    reader.end_step(world, steps);
                    seen += 1;
                }
                assert_eq!(seen, 5);
            }
        });
    }

    /// Where a payload's values live.
    fn data_ptr(payload: &Payload) -> usize {
        let Payload::F64(values) = payload else {
            panic!("f64 in, f64 out");
        };
        values.as_ptr() as usize
    }

    #[test]
    fn frames_and_payloads_circulate() {
        // The writer's framing and blocks come back with each answer and
        // are marshalled into again; the endpoint reads the very block
        // the writer marshalled each step into. One buffer per variable
        // serves the whole stream.
        let ranks = World::run(2, |world| match pair(world, 1) {
            Role::Writer { mut writer, .. } => {
                let (mut metas, mut blocks) = (Vec::new(), Vec::new());
                for s in 0..3u64 {
                    writer.advance(world);
                    if s > 0 {
                        let frame: Frame = world.spare().expect("the step came back");
                        metas.push(frame.1.as_ptr());
                        blocks.push(data_ptr(&frame.2[0]));
                        world.keep(frame, 1);
                    }
                    writer.write(world, &step_with(s, s as f64));
                }
                writer.close(world);
                assert_eq!(metas.len(), 2);
                assert_eq!(metas[0], metas[1], "one framing buffer, encoded into again");
                blocks
            }
            Role::Endpoint { mut reader, .. } => {
                let mut payloads = Vec::new();
                while let Some(steps) = reader.begin_step(world) {
                    let step = &steps[0].1;
                    let data = &step.var("data").unwrap().data;
                    assert_eq!(*data, vec![step.step as f64; 2].into());
                    payloads.push(data_ptr(data));
                    reader.end_step(world, steps);
                }
                payloads
            }
        });
        let (marshalled, read) = (&ranks[0], &ranks[1]);
        assert_eq!(read.len(), 3);
        assert!(read.iter().all(|&p| p == read[0]), "one buffer: {read:?}");
        assert_eq!(
            marshalled[..],
            read[1..],
            "the endpoint reads what was marshalled"
        );
    }

    #[test]
    fn write_ships_exactly_encoded_len_bytes_that_decode_round_trips() {
        World::run(2, |world| match pair(world, 1) {
            Role::Writer { mut writer, .. } => {
                let step = step_with(3, 1.5);
                writer.advance(world);
                assert_eq!(writer.write(world, &step), step.encoded_len());
                writer.close(world);
            }
            Role::Endpoint { mut reader, .. } => {
                let steps = reader.begin_step(world).expect("one step");
                assert_eq!(steps[0].1, step_with(3, 1.5), "decode round-trips");
                assert_eq!(reader.links[0].bytes, steps[0].1.encoded_len() as u64);
                reader.end_step(world, steps);
                assert!(reader.begin_step(world).is_none());
            }
        });
    }

    #[test]
    fn many_writers_fan_in_to_fewer_endpoints() {
        // 4 writers, 2 endpoints: each endpoint serves 2 writers.
        World::run(6, |world| match pair(world, 4) {
            Role::Writer { mut writer, .. } => {
                for s in 0..3u64 {
                    writer.advance(world);
                    writer.write(world, &step_with(s, world.rank() as f64));
                }
                writer.close(world);
            }
            Role::Endpoint { mut reader, .. } => {
                assert_eq!(reader.links.len(), 2);
                let mut rounds = 0;
                while let Some(steps) = reader.begin_step(world) {
                    assert_eq!(steps.len(), 2, "one step per served writer");
                    reader.end_step(world, steps);
                    rounds += 1;
                }
                assert_eq!(rounds, 3);
            }
        });
    }

    #[test]
    fn back_pressure_blocks_writer() {
        World::run(2, |world| match pair(world, 1) {
            Role::Writer { mut writer, .. } => {
                let b0 = writer.advance(world);
                assert_eq!(b0, 0.0, "first advance never blocks");
                writer.write(world, &step_with(0, 0.0));
                // Reader sleeps before acking; this advance must block.
                let blocked = writer.advance(world);
                assert!(blocked > 0.02, "advance blocked {blocked}s");
                writer.write(world, &step_with(1, 1.0));
                writer.close(world);
            }
            Role::Endpoint { mut reader, .. } => {
                let first = reader.begin_step(world).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(40));
                reader.end_step(world, first);
                let second = reader.begin_step(world).unwrap();
                reader.end_step(world, second);
                assert!(reader.begin_step(world).is_none());
            }
        });
    }

    #[test]
    fn subcommunicators_are_usable_for_analysis() {
        World::run(4, |world| match pair(world, 2) {
            Role::Writer { sub, mut writer } => {
                // Writers can still do collective work among themselves.
                let total = sub.allreduce_scalar(1usize, |a, b| a + b);
                assert_eq!(total, 2);
                writer.close(world);
            }
            Role::Endpoint { sub, mut reader } => {
                let total = sub.allreduce_scalar(1usize, |a, b| a + b);
                assert_eq!(total, 2);
                while reader.begin_step(world).is_some() {}
            }
        });
    }

    #[test]
    #[should_panic(expected = "need writers and endpoints")]
    fn all_writers_is_invalid() {
        World::run(2, |world| {
            let _ = pair(world, 2);
        });
    }
}
