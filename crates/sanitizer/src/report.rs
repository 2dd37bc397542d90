//! Findings: what the sanitizer reports and how it renders.
//!
//! Every finding carries enough to reproduce it: the scheduler seed of
//! the run (when the world ran under `SchedPolicy::Seeded`), the rank
//! pair involved, and the vector-clock evidence showing the two events
//! are concurrent (neither happens-before the other).

use std::fmt;

use probe::Json;

use crate::clock::VectorClock;

/// What kind of hazard a finding describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A rank mutated an array while a zero-copy publish window to an
    /// endpoint was open (or closed without a happens-before edge to
    /// the writer).
    UseAfterPublish,
    /// A rank wrote a tuple its decomposition marked as a ghost copy
    /// (`vtkGhostType` non-zero): the owning rank's value is
    /// authoritative and the write will be silently dropped or
    /// double-counted downstream.
    GhostWrite,
    /// A message was sent but never received by world teardown.
    MessageLeak,
    /// A zero-copy publish window was still open at
    /// `Bridge::finalize` — the endpoint kept a borrowed view alive
    /// past the bridge's lifetime.
    ViewLeak,
    /// A protocol obligation — a GLEAN aggregator's drain hand-off —
    /// was acquired but never discharged by the matching release call
    /// before finalize/teardown.
    ObligationLeak,
    /// Code executing in one memory space touched an array whose
    /// bytes live in another without an explicit transfer
    /// (`move_to`/`snapshot_in`). Works mechanically on the simulated
    /// device (it is host RAM) but is a missing-transfer bug on a
    /// real heterogeneous node.
    WrongSpaceAccess,
}

impl FindingKind {
    /// Stable machine-readable tag (used in JSON reports and tests).
    pub fn tag(&self) -> &'static str {
        match self {
            FindingKind::UseAfterPublish => "use-after-publish",
            FindingKind::GhostWrite => "ghost-write",
            FindingKind::MessageLeak => "message-leak",
            FindingKind::ViewLeak => "view-leak",
            FindingKind::ObligationLeak => "obligation-leak",
            FindingKind::WrongSpaceAccess => "wrong-space-access",
        }
    }
}

/// One detected hazard, with replay provenance.
#[derive(Clone, Debug)]
pub struct Finding {
    pub kind: FindingKind,
    /// The two slots involved: for use-after-publish, (writer,
    /// publisher); for ghost writes, (writer, owner-if-known); for
    /// leaks, (sender, intended receiver).
    pub slots: (usize, Option<usize>),
    /// Array name, endpoint, or message tag the hazard touched.
    pub subject: String,
    /// Vector clocks of the two unordered events, when applicable:
    /// (earlier/publish/send clock, later/write clock).
    pub clocks: (Option<VectorClock>, Option<VectorClock>),
    /// Scheduler seed of the offending run, if the world was seeded.
    pub seed: Option<u64>,
    /// Free-form one-line detail.
    pub detail: String,
}

impl Finding {
    /// Serialize for artifact upload (`results/sanitizer_*.json`).
    pub fn to_json(&self) -> Json {
        let opt_clock = |c: &Option<VectorClock>| match c {
            Some(c) => Json::Str(c.to_string()),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.tag().into())),
            ("slot".into(), Json::Num(self.slots.0 as f64)),
            (
                "peer_slot".into(),
                match self.slots.1 {
                    Some(peer) => Json::Num(peer as f64),
                    None => Json::Null,
                },
            ),
            ("subject".into(), Json::Str(self.subject.clone())),
            ("first_clock".into(), opt_clock(&self.clocks.0)),
            ("second_clock".into(), opt_clock(&self.clocks.1)),
            (
                "seed".into(),
                match self.seed {
                    Some(s) => Json::Num(s as f64),
                    None => Json::Null,
                },
            ),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sanitizer[{}] slot {}", self.kind.tag(), self.slots.0)?;
        if let Some(peer) = self.slots.1 {
            write!(f, " vs slot {peer}")?;
        }
        write!(f, ": {} — {}", self.subject, self.detail)?;
        if let (Some(a), Some(b)) = (&self.clocks.0, &self.clocks.1) {
            write!(f, " (clocks {a} vs {b}: unordered)")?;
        }
        if let Some(seed) = self.seed {
            write!(f, " [replay with SchedPolicy::Seeded({seed})]")?;
        }
        Ok(())
    }
}

/// Render a batch of findings as a JSON array string for artifacts.
pub fn findings_to_json(findings: &[Finding]) -> String {
    Json::Arr(findings.iter().map(Finding::to_json).collect()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_seed_and_clocks() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let mut b = VectorClock::new(2);
        b.tick(1);
        let f = Finding {
            kind: FindingKind::UseAfterPublish,
            slots: (1, Some(0)),
            subject: "data@catalyst".into(),
            clocks: (Some(a), Some(b)),
            seed: Some(42),
            detail: "write during open publish window".into(),
        };
        let s = f.to_string();
        assert!(s.contains("use-after-publish"), "{s}");
        assert!(s.contains("slot 1 vs slot 0"), "{s}");
        assert!(s.contains("[1,0]"), "{s}");
        assert!(s.contains("Seeded(42)"), "{s}");
    }

    #[test]
    fn json_round_trips_the_tag() {
        let f = Finding {
            kind: FindingKind::MessageLeak,
            slots: (2, Some(3)),
            subject: "tag 7".into(),
            clocks: (None, None),
            seed: None,
            detail: "sent but never received".into(),
        };
        let s = findings_to_json(&[f]);
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("\"message-leak\""), "{s}");
        assert!(
            s.contains("\"peer_slot\":null")
                || s.contains("\"peer_slot\": null")
                || s.contains("\"peer_slot\":3"),
            "{s}"
        );
    }
}
