//! Message envelopes and tag space.
//!
//! Every message carries `(src, tag, payload)`. Payloads are type-erased
//! (`Box<dyn Any + Send>`) so a message transfers ownership of its buffer —
//! a `Vec<f64>` moves across ranks without copying the heap allocation.

use std::any::Any;

/// Message tag. User tags occupy the low 32-bit space; collective
/// implementations use a reserved high space (see [`Tag::collective`]),
/// and loan returns one beside it (`Tag::returned`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub(crate) struct Tag(pub u64);

/// Wildcard source for [`crate::Comm::recv_any`]-style matching.
pub const ANY_SOURCE: usize = usize::MAX;

const COLLECTIVE_BIT: u64 = 1 << 63;
const RETURN_BIT: u64 = 1 << 62;

impl Tag {
    /// A user-level tag. Values are taken as-is from the low 32 bits.
    pub(crate) fn user(tag: u32) -> Self {
        Tag(tag as u64)
    }

    /// An internal tag for collective `kind` at collective-call `epoch`.
    ///
    /// Each rank counts collective calls on a communicator; because MPI
    /// semantics require every rank to issue collectives in the same order,
    /// the per-rank counters agree and the epoch disambiguates successive
    /// collectives of the same kind.
    pub(crate) fn collective(kind: CollectiveKind, epoch: u64) -> Self {
        Tag(COLLECTIVE_BIT | ((kind as u64) << 48) | (epoch & 0xFFFF_FFFF_FFFF))
    }

    /// The tag a loan lent on user tag `tag` comes back on
    /// ([`crate::Comm::give_back`]): point-to-point, and apart from every
    /// user tag.
    pub(crate) fn returned(tag: u32) -> Self {
        Tag(RETURN_BIT | tag as u64)
    }

    /// True if this tag belongs to the reserved collective space.
    pub(crate) fn is_collective(self) -> bool {
        self.0 & COLLECTIVE_BIT != 0
    }

    /// Decode a collective tag into `(kind, epoch)`; `None` for user tags
    /// or unknown kind bits.
    pub(crate) fn collective_parts(self) -> Option<(CollectiveKind, u64)> {
        if !self.is_collective() {
            return None;
        }
        let kind = CollectiveKind::from_bits(((self.0 >> 48) & 0x7FFF) as u8)?;
        Some((kind, self.0 & 0xFFFF_FFFF_FFFF))
    }
}

impl std::fmt::Display for Tag {
    /// Human-readable form used in fail-fast diagnostics: `Bcast@7` for
    /// collectives, `user:42` for application tags.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.collective_parts() {
            Some((kind, epoch)) => write!(f, "{kind:?}@{epoch}"),
            None if self.is_collective() => write!(f, "collective:{:#x}", self.0),
            None if self.0 & RETURN_BIT != 0 => write!(f, "return:{}", self.0 ^ RETURN_BIT),
            None => write!(f, "user:{}", self.0),
        }
    }
}

/// Which collective algorithm a reserved tag belongs to. The
/// discriminants are the tag's kind bits: they keep their values, so a
/// recorded trace keeps its meaning, and 7 and 8 are unused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum CollectiveKind {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Allreduce = 4,
    Gather = 5,
    Allgather = 6,
    Scan = 9,
    Split = 10,
}

impl CollectiveKind {
    /// Probe counter name for this collective (messages/bytes tally up
    /// under the algorithm that moved them: an allreduce built from
    /// reduce + bcast reports as those two kinds).
    pub(crate) fn counter_name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "minimpi/barrier",
            CollectiveKind::Bcast => "minimpi/bcast",
            CollectiveKind::Reduce => "minimpi/reduce",
            CollectiveKind::Allreduce => "minimpi/allreduce",
            CollectiveKind::Gather => "minimpi/gather",
            CollectiveKind::Allgather => "minimpi/allgather",
            CollectiveKind::Scan => "minimpi/scan",
            CollectiveKind::Split => "minimpi/split",
        }
    }

    /// Inverse of `kind as u8`; `None` for values outside the enum.
    pub(crate) fn from_bits(bits: u8) -> Option<Self> {
        Some(match bits {
            1 => CollectiveKind::Barrier,
            2 => CollectiveKind::Bcast,
            3 => CollectiveKind::Reduce,
            4 => CollectiveKind::Allreduce,
            5 => CollectiveKind::Gather,
            6 => CollectiveKind::Allgather,
            9 => CollectiveKind::Scan,
            10 => CollectiveKind::Split,
            _ => return None,
        })
    }
}

/// A message in flight: source rank, tag, and type-erased payload.
pub(crate) struct Envelope {
    /// Rank of the sender within the communicator the message was sent on.
    pub src: usize,
    /// Matching tag.
    pub tag: Tag,
    /// Owned, type-erased payload. Downcast by the typed `recv`.
    pub payload: Box<dyn Any + Send>,
    /// Happens-before metadata piggybacked by the sanitizer: the
    /// sender's vector clock at send time, merged into the receiver's
    /// clock on delivery. `None` whenever the sanitizer is off.
    pub stamp: Option<sanitizer::Stamp>,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("src", &self.src)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_tags_are_not_collective() {
        assert!(!Tag::user(0).is_collective());
        assert!(!Tag::user(u32::MAX).is_collective());
    }

    #[test]
    fn collective_tags_are_collective_and_distinct_by_kind() {
        let a = Tag::collective(CollectiveKind::Bcast, 7);
        let b = Tag::collective(CollectiveKind::Reduce, 7);
        assert!(a.is_collective());
        assert_ne!(a, b);
    }

    #[test]
    fn collective_tags_distinct_by_epoch() {
        let a = Tag::collective(CollectiveKind::Bcast, 1);
        let b = Tag::collective(CollectiveKind::Bcast, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn collective_parts_round_trip() {
        let t = Tag::collective(CollectiveKind::Reduce, 42);
        assert_eq!(t.collective_parts(), Some((CollectiveKind::Reduce, 42)));
        assert_eq!(Tag::user(42).collective_parts(), None);
        assert_eq!(format!("{t}"), "Reduce@42");
        assert_eq!(format!("{}", Tag::user(7)), "user:7");
        assert_eq!(format!("{}", Tag::returned(7)), "return:7");
        assert!(!Tag::returned(u32::MAX).is_collective());
        assert_ne!(Tag::returned(7), Tag::user(7));
    }

    #[test]
    fn collective_epoch_wraps_without_touching_kind_bits() {
        let a = Tag::collective(CollectiveKind::Scan, u64::MAX);
        assert!(a.is_collective());
        // Kind bits survive epoch saturation.
        let kind_bits = (a.0 >> 48) & 0x7FFF;
        assert_eq!(kind_bits, CollectiveKind::Scan as u64);
    }
}
