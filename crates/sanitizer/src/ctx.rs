//! Per-rank sanitizer context: a thread-local holding this rank's
//! vector clock and a handle to the world's [`Session`].
//!
//! minimpi's worlds are thread-backed (one thread per rank), so a
//! thread-local is exactly per-rank state. A thread a rank launches
//! (GLEAN's drain thread, which only writes files) has no context;
//! every hook degrades to a no-op there, and everywhere when no
//! session is installed — the disabled path is one thread-local read.

use std::cell::RefCell;
use std::sync::Arc;

use crate::clock::{Stamp, VectorClock};
use crate::session::{MsgMeta, Session};

struct RankCtx {
    session: Arc<Session>,
    slot: usize,
    clock: VectorClock,
}

thread_local! {
    static CTX: RefCell<Option<RankCtx>> = const { RefCell::new(None) };
}

/// Install the sanitizer on this rank thread; uninstalls (restoring
/// any previous context) when the guard drops.
pub fn install(session: Arc<Session>, slot: usize) -> CtxGuard {
    let clock = VectorClock::new(session.size());
    let prev = CTX.with(|c| {
        c.replace(Some(RankCtx {
            session,
            slot,
            clock,
        }))
    });
    CtxGuard { prev }
}

/// Restores the previous context on drop; see [`install`].
pub struct CtxGuard {
    prev: Option<RankCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Is a sanitizer context active on this thread?
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// The active session, if any (cheap Arc clone).
pub fn session() -> Option<Arc<Session>> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| Arc::clone(&ctx.session)))
}

/// This thread's world-wide rank slot, if a context is active.
pub fn slot() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.slot))
}

/// A local visible event (an array write, a publish open/close): tick
/// this rank's clock and return `(session, slot, clock-after-tick)`.
/// `None` when no context is active — callers skip their check.
pub(crate) fn local_event() -> Option<(Arc<Session>, usize, VectorClock)> {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        let ctx = b.as_mut()?;
        let slot = ctx.slot;
        ctx.clock.tick(slot);
        Some((Arc::clone(&ctx.session), slot, ctx.clock.clone()))
    })
}

/// Send hook: tick, register the message as in flight, and return the
/// [`Stamp`] to piggyback on the envelope. `tag` is rendered lazily so
/// the disabled path never formats.
pub fn on_send(to_slot: usize, tag: impl FnOnce() -> String) -> Option<Stamp> {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        let ctx = b.as_mut()?;
        let from_slot = ctx.slot;
        ctx.clock.tick(from_slot);
        let clock = ctx.clock.clone();
        let msg_id = ctx.session.register_send(MsgMeta {
            from: from_slot,
            to: to_slot,
            tag: tag(),
            clock: clock.clone(),
        });
        Some(Stamp {
            from_slot,
            clock,
            msg_id,
        })
    })
}

/// The send never entered the receiver's queue (channel closed):
/// retract the in-flight registration so teardown doesn't call it a
/// leak.
pub fn cancel_send(stamp: &Stamp) {
    if let Some(s) = session() {
        s.cancel_send(stamp.msg_id);
    }
}

/// Delivery hook: merge the sender's clock into ours (the
/// happens-before edge), tick for the receive event, and clear the
/// in-flight registration.
pub fn on_recv(stamp: &Stamp) {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        let Some(ctx) = b.as_mut() else { return };
        ctx.clock.merge(&stamp.clock);
        ctx.clock.tick(ctx.slot);
        ctx.session.register_recv(stamp.msg_id);
    });
}

/// Report a wrong-space access: code executing in space `have_exec`
/// touched array `subject` whose bytes live in `array_space`, with no
/// explicit transfer in between. A local visible event (ticks the
/// clock so the finding carries evidence); no-op without a context.
pub fn report_wrong_space(subject: &str, array_space: &str, have_exec: &str) {
    let Some((session, slot, clock)) = local_event() else {
        return;
    };
    session.report(crate::report::Finding {
        kind: crate::report::FindingKind::WrongSpaceAccess,
        slots: (slot, None),
        subject: subject.to_string(),
        clocks: (None, Some(clock)),
        seed: None,
        detail: format!(
            "bytes live in {array_space} but were accessed from {have_exec} \
             without an explicit move_to/snapshot_in transfer"
        ),
    });
}

/// View-leak check for this rank (called from `Bridge::finalize`):
/// any publish window this slot still holds open is reported. No-op
/// without a context.
pub fn check_view_leaks(location: &str) {
    CTX.with(|c| {
        let b = c.borrow();
        let Some(ctx) = b.as_ref() else { return };
        ctx.session.check_view_leaks(ctx.slot, location);
    });
}

/// Open a protocol obligation for this rank: `kind` names the
/// protocol (`glean-drain`, ...), `subject` the
/// concrete resource. Returns the id to pass to [`close_obligation`]
/// when the matching release runs, or `None` without a context (the
/// caller keeps the `None` and both calls are no-ops).
pub fn open_obligation(kind: &str, subject: &str) -> Option<u64> {
    CTX.with(|c| {
        let b = c.borrow();
        let ctx = b.as_ref()?;
        Some(ctx.session.open_obligation(ctx.slot, kind, subject))
    })
}

/// Discharge an obligation opened by [`open_obligation`]. No-op for
/// `None` (no context was active at the open).
pub fn close_obligation(id: Option<u64>) {
    if let Some(id) = id {
        if let Some(s) = session() {
            s.close_obligation(id);
        }
    }
}

/// Obligation-leak check for this rank (called from
/// `Bridge::finalize` after the analyses shut down): every obligation
/// this slot still holds open is reported. No-op without a context.
pub fn check_obligations(location: &str) {
    CTX.with(|c| {
        let b = c.borrow();
        let Some(ctx) = b.as_ref() else { return };
        ctx.session.check_obligations(ctx.slot, location);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Mode;

    #[test]
    fn hooks_are_noops_without_context() {
        assert!(!active());
        assert!(on_send(1, || "t".into()).is_none());
        assert!(local_event().is_none());
        check_view_leaks("nowhere");
    }

    #[test]
    fn send_recv_builds_a_happens_before_edge() {
        let session = Session::new(2, Mode::Collect);
        // Two "ranks" simulated sequentially on one thread via nested
        // installs (the guard restores the outer context).
        let stamp = {
            let _g0 = install(Arc::clone(&session), 0);
            on_send(1, || "tag 5".into()).expect("ctx installed")
        };
        let write_clock = {
            let _g1 = install(Arc::clone(&session), 1);
            on_recv(&stamp);
            local_event().expect("ctx installed").2
        };
        assert!(stamp.clock.happens_before_or_eq(&write_clock));
        assert!(!write_clock.happens_before_or_eq(&stamp.clock));
        // Delivered: no leak at teardown.
        assert_eq!(session.finish_world(), 0);
    }

    #[test]
    fn guard_restores_previous_context() {
        let session = Session::new(2, Mode::Collect);
        let _g0 = install(Arc::clone(&session), 0);
        assert_eq!(slot(), Some(0));
        {
            let _g1 = install(Arc::clone(&session), 1);
            assert_eq!(slot(), Some(1));
        }
        assert_eq!(slot(), Some(0));
    }
}
