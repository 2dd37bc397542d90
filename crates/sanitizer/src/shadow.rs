//! Shadow state: the per-array happens-before ledger.
//!
//! Every shared (zero-copy capable) `DataArray` created while a
//! sanitizer context is active carries an `Arc<Shadow>`. Clones of the
//! array share the shadow — the sanitizer follows the *lineage* of the
//! data, not the allocation, because the model's copy-on-write buffers
//! can silently fork storage while the logical array (what the
//! simulation publishes and the endpoint reads) is one object.
//!
//! The ledger records, per array: open and recently-closed zero-copy
//! publish windows (with the publishing slot and clocks) and — once
//! the array's dataset carries a `vtkGhostType` array — the ghost flags
//! used to police tuple writes.
//!
//! The write rule: a write at clock `C` by slot `w` races a publish
//! window `p` unless the window closed *and* its release
//! happens-before-or-equals `C` (or the writer is the publisher
//! itself, whose program order is the edge). Windows proven ordered
//! are pruned, so the ledger stays O(open windows).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VectorClock;
use crate::ctx;
use crate::report::{Finding, FindingKind};

/// How many closed-but-unordered publish records a shadow retains
/// before discarding the oldest. Bounds memory on pathological
/// schedules; 64 windows is far beyond any real pipeline depth here.
const MAX_RECORDS: usize = 64;

/// One zero-copy publish window on an array.
#[derive(Clone, Debug)]
struct PublishRecord {
    /// Where the view was staged ("catalyst", "libsim", "adios", ...).
    endpoint: String,
    /// Slot that opened the window.
    slot: usize,
    /// Session publish id (for view-leak accounting).
    pub_id: u64,
    /// Clock when the window opened.
    start: VectorClock,
    /// Clock when the window closed; `None` while the view is staged.
    released: Option<VectorClock>,
}

#[derive(Default)]
struct ShadowState {
    publishes: Vec<PublishRecord>,
    ghosts: Option<Arc<Vec<u8>>>,
}

/// The shadow ledger attached to one `DataArray` lineage.
pub struct Shadow {
    name: String,
    state: Mutex<ShadowState>,
}

impl Shadow {
    /// A fresh ledger for the array `name`.
    pub fn new(name: &str) -> Arc<Shadow> {
        Arc::new(Shadow {
            name: name.to_string(),
            state: Mutex::new(ShadowState::default()),
        })
    }

    /// The array name this ledger shadows.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attach ghost flags (one `u8` per tuple; non-zero = ghost copy)
    /// so tuple-level writes can be policed. Idempotent; the last
    /// armed flags win.
    pub fn arm_ghosts(&self, flags: Arc<Vec<u8>>) {
        self.state.lock().ghosts = Some(flags);
    }

    /// Open a zero-copy publish window to `endpoint`. Ticks the
    /// rank's clock (opening a window is a visible event). Returns a
    /// token for [`Shadow::end_publish`]; `None` (and no effect)
    /// without an active context.
    pub fn begin_publish(&self, endpoint: &str) -> Option<u64> {
        let (session, slot, clock) = ctx::local_event()?;
        let pub_id = session.register_publish(slot, &format!("{}@{}", self.name, endpoint));
        let mut state = self.state.lock();
        if state.publishes.len() >= MAX_RECORDS {
            state.publishes.remove(0);
        }
        state.publishes.push(PublishRecord {
            endpoint: endpoint.to_string(),
            slot,
            pub_id,
            start: clock,
            released: None,
        });
        Some(pub_id)
    }

    /// Close the publish window `pub_id`: the endpoint is done with
    /// the view. The closing rank's clock becomes the release stamp —
    /// later writes are safe iff that stamp happens-before them.
    pub fn end_publish(&self, pub_id: u64) {
        let Some((session, _slot, clock)) = ctx::local_event() else {
            return;
        };
        session.release_publish(pub_id);
        let mut state = self.state.lock();
        if let Some(p) = state.publishes.iter_mut().find(|p| p.pub_id == pub_id) {
            p.released = Some(clock);
        }
    }

    /// A write to one tuple (`DataArray::set`): the whole-array check
    /// plus the ghost rule — a rank must never write a tuple its
    /// decomposition marks as a ghost copy.
    pub fn on_write_tuple(&self, tuple: usize) {
        let Some((session, slot, clock)) = ctx::local_event() else {
            return;
        };
        let ghost = {
            let state = self.state.lock();
            state
                .ghosts
                .as_ref()
                .map(|g| g.get(tuple).copied().unwrap_or(0))
                .unwrap_or(0)
        };
        if ghost != 0 {
            session.report(Finding {
                kind: FindingKind::GhostWrite,
                slots: (slot, None),
                subject: self.name.clone(),
                clocks: (None, Some(clock.clone())),
                seed: None,
                detail: format!(
                    "write to tuple {tuple}, a ghost copy (vtkGhostType={ghost}); \
                     the owning rank's value is authoritative"
                ),
            });
        }
        self.check_write(&session, slot, &clock);
    }

    /// A read of the array's bytes: a read borrow (`as_slice_in` /
    /// `component_slice_in` / leaf view) or an explicit cross-space
    /// transfer (`move_to` / `snapshot_in`). A visible event that ticks
    /// the rank's clock; reads are always safe against open windows
    /// (both sides read), so there is no publish check. A transfer's
    /// snapshot is ordered after every prior write by program order, so
    /// later host writes cannot race the device copy.
    pub fn on_read(&self) {
        let _ = ctx::local_event();
    }

    /// Number of publish windows still open (tests / diagnostics).
    pub fn open_publishes(&self) -> usize {
        self.state
            .lock()
            .publishes
            .iter()
            .filter(|p| p.released.is_none())
            .count()
    }

    fn check_write(&self, session: &crate::session::Session, slot: usize, clock: &VectorClock) {
        let mut state = self.state.lock();
        let mut keep = Vec::with_capacity(state.publishes.len());
        for p in state.publishes.drain(..) {
            match &p.released {
                // Open window: ANY write races the staged view — even
                // the publisher's own (that is exactly the
                // mutate-mid-publish bug).
                None => {
                    session.report(Finding {
                        kind: FindingKind::UseAfterPublish,
                        slots: (slot, Some(p.slot)),
                        subject: format!("{}@{}", self.name, p.endpoint),
                        clocks: (Some(p.start.clone()), Some(clock.clone())),
                        seed: None,
                        detail: "array mutated while a zero-copy view is staged \
                                 (no happens-before edge from the publish window)"
                            .into(),
                    });
                    keep.push(p);
                }
                // Closed by the writer itself: program order is the
                // happens-before edge. Window proven safe — prune.
                Some(_) if p.slot == slot => {}
                // Closed and the release is ordered before this
                // write: safe — prune.
                Some(rel) if rel.happens_before_or_eq(clock) => {}
                // Closed, but no message chain orders the release
                // before this write: the endpoint may still have been
                // reading when the bytes changed.
                Some(rel) => {
                    session.report(Finding {
                        kind: FindingKind::UseAfterPublish,
                        slots: (slot, Some(p.slot)),
                        subject: format!("{}@{}", self.name, p.endpoint),
                        clocks: (Some(rel.clone()), Some(clock.clone())),
                        seed: None,
                        detail: "write concurrent with a zero-copy publish release \
                                 (release not ordered before the write)"
                            .into(),
                    });
                    keep.push(p);
                }
            }
        }
        state.publishes = keep;
    }
}

impl std::fmt::Debug for Shadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shadow")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::install;
    use crate::session::{Mode, Session};

    #[test]
    fn write_during_open_window_is_use_after_publish() {
        let session = Session::new(1, Mode::Collect);
        let _g = install(Arc::clone(&session), 0);
        let shadow = Shadow::new("data");
        let id = shadow.begin_publish("catalyst").expect("ctx active");
        shadow.on_write_tuple(0);
        let f = session.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::UseAfterPublish);
        assert_eq!(f[0].subject, "data@catalyst");
        shadow.end_publish(id);
    }

    #[test]
    fn write_after_release_in_program_order_is_clean() {
        let session = Session::new(1, Mode::Collect);
        let _g = install(Arc::clone(&session), 0);
        let shadow = Shadow::new("data");
        let id = shadow.begin_publish("libsim").expect("ctx active");
        shadow.end_publish(id);
        shadow.on_write_tuple(0);
        assert!(session.findings().is_empty());
        // Window pruned once proven ordered.
        assert_eq!(shadow.open_publishes(), 0);
    }

    #[test]
    fn cross_rank_write_needs_a_message_edge() {
        let session = Session::new(2, Mode::Collect);
        let shadow = Shadow::new("data");
        // Rank 0 publishes and releases...
        let stamp = {
            let _g0 = install(Arc::clone(&session), 0);
            let id = shadow.begin_publish("adios").expect("ctx");
            shadow.end_publish(id);
            // ...and tells rank 1 it is done.
            crate::ctx::on_send(1, || "done".into()).expect("ctx")
        };
        // Rank 1 writes WITHOUT receiving the message: racy.
        {
            let _g1 = install(Arc::clone(&session), 1);
            shadow.on_write_tuple(0);
            let f = session.findings();
            assert_eq!(f.len(), 1);
            assert_eq!(f[0].kind, FindingKind::UseAfterPublish);
            assert_eq!(f[0].slots, (1, Some(0)));
        }
        // Rank 1 writes AFTER receiving: the edge orders the release
        // before the write — clean.
        {
            let _g1 = install(Arc::clone(&session), 1);
            crate::ctx::on_recv(&stamp);
            shadow.on_write_tuple(0);
            assert_eq!(
                session.findings().len(),
                1,
                "release → send → recv → write is ordered"
            );
        }
    }

    #[test]
    fn ghost_tuple_write_is_reported() {
        let session = Session::new(1, Mode::Collect);
        let _g = install(Arc::clone(&session), 0);
        let shadow = Shadow::new("data");
        shadow.arm_ghosts(Arc::new(vec![0, 1, 0]));
        shadow.on_write_tuple(0);
        assert!(session.findings().is_empty(), "owned tuple is writable");
        shadow.on_write_tuple(1);
        let f = session.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::GhostWrite);
        assert!(f[0].detail.contains("tuple 1"), "{}", f[0].detail);
    }

    #[test]
    fn reads_never_race_windows() {
        let session = Session::new(1, Mode::Collect);
        let _g = install(Arc::clone(&session), 0);
        let shadow = Shadow::new("data");
        let id = shadow.begin_publish("catalyst").expect("ctx active");
        shadow.on_read();
        assert!(session.findings().is_empty(), "reads never race windows");
        shadow.end_publish(id);
    }
}
