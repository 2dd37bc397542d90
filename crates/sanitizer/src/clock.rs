//! Vector clocks: the partial order behind every happens-before check.
//!
//! One clock per rank *slot* (a slot is minimpi's world-wide thread
//! index, stable across `Comm::split`). A rank ticks its own component
//! on every visible event (send, receive, array write) and merges the
//! sender's clock into its own on delivery, so `a.happens_before_or_eq(b)`
//! holds, and its converse does not, exactly when a chain of messages
//! orders event `a` before event `b`.

use std::fmt;

/// A per-rank vector clock over `n` slots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock for a world of `n` slots.
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// Number of slots this clock covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the clock covers no slots (degenerate worlds only).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// This slot's own component.
    pub fn get(&self, slot: usize) -> u64 {
        self.0.get(slot).copied().unwrap_or(0)
    }

    /// Advance `slot`'s component by one: a new local event.
    pub fn tick(&mut self, slot: usize) {
        if let Some(c) = self.0.get_mut(slot) {
            *c += 1;
        }
    }

    /// Component-wise maximum: learn everything `other` knew.
    pub fn merge(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// `self ≤ other` component-wise: every event this clock has seen
    /// is also in `other`'s past. This is the happens-before-or-equal
    /// test the shadow state uses — a release stamped `self` orders
    /// before a write stamped `other` iff this returns true.
    pub(crate) fn happens_before_or_eq(&self, other: &VectorClock) -> bool {
        if self.0.len() > other.0.len() && self.0[other.0.len()..].iter().any(|&c| c != 0) {
            return false;
        }
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(mine, theirs)| mine <= theirs)
    }

    /// Neither orders before the other: the two events are racing.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.happens_before_or_eq(other) && !other.happens_before_or_eq(self)
    }
}

impl fmt::Display for VectorClock {
    /// Compact evidence form used in findings: `[3,0,7,1]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// The happens-before metadata piggybacked on a message envelope: the
/// sender's slot and clock at send time, plus the session-unique
/// message id used for leak accounting.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Sender's world-wide slot.
    pub from_slot: usize,
    /// Sender's clock immediately after ticking for the send.
    pub clock: VectorClock,
    /// Session-unique id; unreceived ids at teardown are leaks.
    pub msg_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_chain_orders_events() {
        // Rank 0 sends to rank 1; 0's pre-send event happens-before
        // 1's post-receive event.
        let mut a = VectorClock::new(3);
        a.tick(0); // event on 0
        let mut b = VectorClock::new(3);
        b.merge(&a); // delivery
        b.tick(1);
        assert!(a.happens_before_or_eq(&b));
        assert!(!b.happens_before_or_eq(&a));
    }

    #[test]
    fn independent_events_are_concurrent() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let mut b = VectorClock::new(2);
        b.tick(1);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
    }

    #[test]
    fn equal_clocks_order_weakly_both_ways() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let b = a.clone();
        assert!(a.happens_before_or_eq(&b));
        assert!(b.happens_before_or_eq(&a));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn merge_is_component_max() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new(3);
        b.tick(2);
        b.merge(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 0);
        assert_eq!(b.get(2), 1);
    }

    #[test]
    fn display_is_compact() {
        let mut a = VectorClock::new(3);
        a.tick(1);
        assert_eq!(a.to_string(), "[0,1,0]");
    }
}
