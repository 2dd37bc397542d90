//! Test-only fault injection for the transport layer.
//!
//! A [`FaultHandle`] is a cloneable, thread-safe switchboard of link
//! faults. When installed on a world via
//! [`crate::WorldBuilder::fault_handle`], every point-to-point send — and
//! therefore every collective, which is built on point-to-point — consults
//! it before delivering. Rules are keyed by *world* rank (slot), so they
//! keep meaning across [`crate::Comm::split`] sub-communicators.
//!
//! This exists to let tests drive the failure modes the fail-fast layer
//! must diagnose (dead writer, partitioned link, slow link) without
//! touching production code paths: with no handle installed the send path
//! is unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

#[derive(Clone, Debug, PartialEq)]
enum Rule {
    /// Silently discard messages from `from` to `to`.
    DropLink { from: usize, to: usize },
    /// Deliver messages from `from` to `to` after sleeping `delay`.
    DelayLink {
        from: usize,
        to: usize,
        delay: Duration,
    },
    /// Discard every message to or from `rank` (full disconnect).
    Isolate { rank: usize },
}

/// What the transport should do with a message, per the active rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultAction {
    Deliver,
    Drop,
    Delay(Duration),
}

/// Shared handle controlling injected transport faults.
///
/// Clone it freely: all clones share the same rule set, so a test can keep
/// one clone and hand another to [`crate::WorldBuilder::fault_handle`],
/// then flip links mid-run from inside a rank closure.
#[derive(Clone, Default)]
pub struct FaultHandle {
    inner: Arc<FaultInner>,
}

#[derive(Default)]
struct FaultInner {
    rules: Mutex<Vec<Rule>>,
    dropped: AtomicU64,
}

impl FaultHandle {
    /// A handle with no active faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Silently drop all messages sent from world rank `from` to `to`
    /// (one direction only).
    pub fn drop_link(&self, from: usize, to: usize) {
        self.push(Rule::DropLink { from, to });
    }

    /// Delay all messages sent from world rank `from` to `to` by `delay`.
    pub fn delay_link(&self, from: usize, to: usize, delay: Duration) {
        self.push(Rule::DelayLink { from, to, delay });
    }

    /// Disconnect world rank `rank`: every message to or from it is
    /// dropped, as if its network link died.
    pub fn isolate(&self, rank: usize) {
        self.push(Rule::Isolate { rank });
    }

    /// Remove every active fault rule.
    pub fn heal(&self) {
        self.inner.rules.lock().clear();
    }

    /// Number of messages dropped by injected faults so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    fn push(&self, rule: Rule) {
        self.inner.rules.lock().push(rule);
    }

    /// Decide the fate of a message from world slot `from` to `to`.
    /// Drop wins over delay; delays accumulate.
    pub(crate) fn action(&self, from: usize, to: usize) -> FaultAction {
        let rules = self.inner.rules.lock();
        if rules.is_empty() {
            return FaultAction::Deliver;
        }
        let mut delay = Duration::ZERO;
        for rule in rules.iter() {
            match rule {
                Rule::DropLink { from: f, to: t } if *f == from && *t == to => {
                    return FaultAction::Drop;
                }
                Rule::Isolate { rank } if *rank == from || *rank == to => {
                    return FaultAction::Drop;
                }
                Rule::DelayLink {
                    from: f,
                    to: t,
                    delay: d,
                } if *f == from && *t == to => {
                    delay += *d;
                }
                _ => {}
            }
        }
        if delay.is_zero() {
            FaultAction::Deliver
        } else {
            FaultAction::Delay(delay)
        }
    }

    /// Record a message discarded by [`FaultAction::Drop`].
    pub(crate) fn note_dropped(&self) {
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_rules_deliver() {
        let f = FaultHandle::new();
        assert_eq!(f.action(0, 1), FaultAction::Deliver);
    }

    #[test]
    fn drop_link_is_directional() {
        let f = FaultHandle::new();
        f.drop_link(0, 1);
        assert_eq!(f.action(0, 1), FaultAction::Drop);
        assert_eq!(f.action(1, 0), FaultAction::Deliver);
    }

    #[test]
    fn isolate_cuts_both_directions() {
        let f = FaultHandle::new();
        f.isolate(2);
        assert_eq!(f.action(2, 0), FaultAction::Drop);
        assert_eq!(f.action(1, 2), FaultAction::Drop);
        assert_eq!(f.action(0, 1), FaultAction::Deliver);
    }

    #[test]
    fn delays_accumulate_and_heal_clears() {
        let f = FaultHandle::new();
        f.delay_link(0, 1, Duration::from_millis(10));
        f.delay_link(0, 1, Duration::from_millis(5));
        assert_eq!(
            f.action(0, 1),
            FaultAction::Delay(Duration::from_millis(15))
        );
        f.heal();
        assert_eq!(f.action(0, 1), FaultAction::Deliver);
    }

    #[test]
    fn clones_share_rules() {
        let a = FaultHandle::new();
        let b = a.clone();
        a.drop_link(3, 4);
        assert_eq!(b.action(3, 4), FaultAction::Drop);
        b.note_dropped();
        assert_eq!(a.dropped(), 1);
    }
}
