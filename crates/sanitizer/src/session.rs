//! A sanitizer session: one per world, shared by every rank thread.
//!
//! The session owns the cross-rank state the per-thread contexts
//! cannot: the in-flight message registry (for leak detection at
//! teardown), the open zero-copy publish windows (for view-leak
//! detection at `Bridge::finalize`), and — in [`Mode::Collect`] — the
//! accumulated findings. In [`Mode::Panic`] a finding panics the
//! offending rank thread instead, so the world's deterministic
//! scheduler prints the delivery trace and the failure reproduces with
//! `SchedPolicy::Seeded(seed)`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VectorClock;
use crate::report::{Finding, FindingKind};

/// What the session does with a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Panic on the detecting thread with the rendered finding. The
    /// default for env-enabled runs: under a seeded world the panic
    /// carries a replayable trace.
    Panic,
    /// Accumulate findings for later inspection ([`Session::findings`]).
    /// Used by the planted-bug tests and `minimpi::Checker::sanitize()`.
    Collect,
}

/// Bookkeeping for one in-flight message.
#[derive(Clone, Debug)]
pub(crate) struct MsgMeta {
    pub from: usize,
    pub to: usize,
    pub tag: String,
    pub clock: VectorClock,
}

/// Bookkeeping for one open zero-copy publish window.
#[derive(Clone, Debug)]
struct PubMeta {
    slot: usize,
    subject: String,
}

/// Bookkeeping for one open protocol obligation: a resource whose
/// acquire must be paired with a release before the world (or the
/// bridge) finalizes — a GLEAN drain's hand-off, and the like.
#[derive(Clone, Debug)]
struct OblMeta {
    slot: usize,
    kind: String,
    subject: String,
}

#[derive(Default)]
struct SessState {
    inflight: BTreeMap<u64, MsgMeta>,
    publishes: BTreeMap<u64, PubMeta>,
    obligations: BTreeMap<u64, OblMeta>,
    findings: Vec<Finding>,
}

/// Shared sanitizer state for one world run.
pub struct Session {
    size: usize,
    mode: Mode,
    seed: Mutex<Option<u64>>,
    next_id: AtomicU64,
    state: Mutex<SessState>,
}

impl Session {
    /// A fresh session for a world of `size` ranks.
    pub fn new(size: usize, mode: Mode) -> Arc<Session> {
        Arc::new(Session {
            size,
            mode,
            seed: Mutex::new(None),
            next_id: AtomicU64::new(1),
            state: Mutex::new(SessState::default()),
        })
    }

    /// World size this session sanitizes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The session's reporting mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Attach the scheduler seed so findings carry replay provenance.
    pub fn set_seed(&self, seed: Option<u64>) {
        *self.seed.lock() = seed;
    }

    /// The seed findings are stamped with.
    pub fn seed(&self) -> Option<u64> {
        *self.seed.lock()
    }

    /// Register a message entering flight; returns its session-unique
    /// id (carried on the envelope stamp, cleared on delivery).
    pub(crate) fn register_send(&self, meta: MsgMeta) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.state.lock().inflight.insert(id, meta);
        id
    }

    /// Delivery: the message with `msg_id` was matched by a receiver.
    pub(crate) fn register_recv(&self, msg_id: u64) {
        self.state.lock().inflight.remove(&msg_id);
    }

    /// The send never entered flight (receiver's channel already
    /// closed): forget it without a finding.
    pub fn cancel_send(&self, msg_id: u64) {
        self.state.lock().inflight.remove(&msg_id);
    }

    /// Register an open zero-copy publish window (a staged view).
    pub(crate) fn register_publish(&self, slot: usize, subject: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.state.lock().publishes.insert(
            id,
            PubMeta {
                slot,
                subject: subject.to_string(),
            },
        );
        id
    }

    /// The publish window with `pub_id` closed (view returned).
    pub(crate) fn release_publish(&self, pub_id: u64) {
        self.state.lock().publishes.remove(&pub_id);
    }

    /// Open a protocol obligation for `slot`: `kind` names the
    /// protocol (e.g. `glean-drain`), `subject`
    /// the concrete resource. Returns the id [`Session::close_obligation`]
    /// must be called with before finalize/teardown.
    pub fn open_obligation(&self, slot: usize, kind: &str, subject: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.state.lock().obligations.insert(
            id,
            OblMeta {
                slot,
                kind: kind.to_string(),
                subject: subject.to_string(),
            },
        );
        id
    }

    /// The obligation with `id` was discharged (drained, left, joined).
    pub fn close_obligation(&self, id: u64) {
        self.state.lock().obligations.remove(&id);
    }

    /// Obligations still open for `slot` — the finalize-time leak
    /// check a bridge runs after its analyses shut down. Each open
    /// obligation becomes a finding.
    pub fn check_obligations(&self, slot: usize, location: &str) {
        let leaked: Vec<OblMeta> = {
            let state = self.state.lock();
            state
                .obligations
                .values()
                .filter(|o| o.slot == slot)
                .cloned()
                .collect()
        };
        for o in leaked {
            self.report(Finding {
                kind: FindingKind::ObligationLeak,
                slots: (o.slot, None),
                subject: format!("{} ({})", o.subject, o.kind),
                clocks: (None, None),
                seed: None,
                detail: format!("protocol obligation never discharged by {location}"),
            });
        }
    }

    /// Route a finding per [`Mode`].
    pub fn report(&self, mut finding: Finding) {
        if finding.seed.is_none() {
            finding.seed = self.seed();
        }
        match self.mode {
            Mode::Panic => panic!("{finding}"),
            Mode::Collect => self.state.lock().findings.push(finding),
        }
    }

    /// Findings accumulated so far (Collect mode; empty under Panic).
    pub fn findings(&self) -> Vec<Finding> {
        self.state.lock().findings.clone()
    }

    /// Publish windows still open for `slot` — the view-leak check a
    /// bridge runs at finalize. Each open window becomes a finding.
    pub fn check_view_leaks(&self, slot: usize, location: &str) {
        let leaked: Vec<PubMeta> = {
            let state = self.state.lock();
            state
                .publishes
                .values()
                .filter(|p| p.slot == slot)
                .cloned()
                .collect()
        };
        for p in leaked {
            self.report(Finding {
                kind: FindingKind::ViewLeak,
                slots: (p.slot, None),
                subject: p.subject.clone(),
                clocks: (None, None),
                seed: None,
                detail: format!("zero-copy publish window still open at {location}"),
            });
        }
    }

    /// World teardown (main thread, after every rank joined cleanly):
    /// any message still in flight was sent but never received; any
    /// publish window still open outlived the world. Reports one
    /// finding per leak and returns how many fired.
    pub fn finish_world(&self) -> usize {
        let (msgs, pubs, obls): (Vec<(u64, MsgMeta)>, Vec<PubMeta>, Vec<OblMeta>) = {
            let state = self.state.lock();
            (
                state
                    .inflight
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect(),
                state.publishes.values().cloned().collect(),
                state.obligations.values().cloned().collect(),
            )
        };
        let n = msgs.len() + pubs.len() + obls.len();
        for (_, m) in msgs {
            self.report(Finding {
                kind: FindingKind::MessageLeak,
                slots: (m.from, Some(m.to)),
                subject: m.tag.clone(),
                clocks: (Some(m.clock.clone()), None),
                seed: None,
                detail: "message sent but never received by world teardown".into(),
            });
        }
        for p in pubs {
            self.report(Finding {
                kind: FindingKind::ViewLeak,
                slots: (p.slot, None),
                subject: p.subject.clone(),
                clocks: (None, None),
                seed: None,
                detail: "zero-copy publish window still open at world teardown".into(),
            });
        }
        for o in obls {
            self.report(Finding {
                kind: FindingKind::ObligationLeak,
                slots: (o.slot, None),
                subject: format!("{} ({})", o.subject, o.kind),
                clocks: (None, None),
                seed: None,
                detail: "protocol obligation never discharged by world teardown".into(),
            });
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreceived_message_is_a_leak() {
        let s = Session::new(2, Mode::Collect);
        s.set_seed(Some(7));
        let mut clock = VectorClock::new(2);
        clock.tick(0);
        let id = s.register_send(MsgMeta {
            from: 0,
            to: 1,
            tag: "tag 9".into(),
            clock,
        });
        assert_eq!(s.finish_world(), 1);
        let f = s.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::MessageLeak);
        assert_eq!(f[0].slots, (0, Some(1)));
        assert_eq!(f[0].seed, Some(7));
        let _ = id;
    }

    #[test]
    fn received_message_is_clean() {
        let s = Session::new(2, Mode::Collect);
        let id = s.register_send(MsgMeta {
            from: 0,
            to: 1,
            tag: "tag 9".into(),
            clock: VectorClock::new(2),
        });
        s.register_recv(id);
        assert_eq!(s.finish_world(), 0);
        assert!(s.findings().is_empty());
    }

    #[test]
    fn open_publish_is_a_view_leak() {
        let s = Session::new(4, Mode::Collect);
        let id = s.register_publish(2, "data@catalyst");
        s.check_view_leaks(2, "Bridge::finalize");
        let f = s.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::ViewLeak);
        assert_eq!(f[0].slots.0, 2);
        s.release_publish(id);
        s.check_view_leaks(2, "Bridge::finalize");
        assert_eq!(s.findings().len(), 1, "a released window is no leak");
    }

    #[test]
    fn undischarged_obligation_is_a_leak() {
        let s = Session::new(4, Mode::Collect);
        let kept = s.open_obligation(1, "glean-drain", "glean_000007.bp");
        let closed = s.open_obligation(3, "glean-drain", "glean_000003.bp");
        s.close_obligation(closed);
        // Per-slot check (the finalize path): only slot 1's leak fires.
        s.check_obligations(3, "Bridge::finalize");
        assert!(s.findings().is_empty());
        s.check_obligations(1, "Bridge::finalize");
        let f = s.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::ObligationLeak);
        assert_eq!(f[0].slots, (1, None));
        assert!(f[0].subject.contains("glean_000007"), "{}", f[0].subject);
        // World teardown reports it too, then closing silences it.
        assert_eq!(s.finish_world(), 1);
        assert_eq!(s.findings().len(), 2);
        s.close_obligation(kept);
        assert_eq!(s.finish_world(), 0);
        assert_eq!(s.findings().len(), 2);
    }

    #[test]
    #[should_panic(expected = "message-leak")]
    fn panic_mode_panics_on_report() {
        let s = Session::new(2, Mode::Panic);
        s.register_send(MsgMeta {
            from: 0,
            to: 1,
            tag: "tag 1".into(),
            clock: VectorClock::new(2),
        });
        s.finish_world();
    }
}
