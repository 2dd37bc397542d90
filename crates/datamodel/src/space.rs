//! Explicit memory spaces for the data path.
//!
//! The SC16 cost model treats "where the bytes live" as a first-class
//! design axis: synchronous in situ work reads simulation memory in
//! place, while asynchronous offload requires an explicit, paid-for
//! copy to the analysis processor's memory. The SENSEI heterogeneous
//! extensions make that placement explicit in the API, and this module
//! is the workspace's equivalent: every [`crate::DataArray`] carries a
//! [`MemorySpace`], accessors are checked against the *execution
//! space* of the calling code, and crossing spaces is an explicit,
//! tracked transfer — never a silent copy.
//!
//! Execution spaces are modeled with a thread-local: the rank thread
//! runs in [`MemorySpace::Host`] unless a scope [`enter_space`]s a
//! device (the analogue of launching a kernel), and the offload
//! executor's workers enter their device space for the duration of an
//! analysis. Since simulated devices are host RAM, a wrong-space
//! access still *works* mechanically — the typed error path
//! ([`crate::DataArray::as_slice_in`]) refuses it, and the legacy
//! accessors report it to the happens-before sanitizer so a missing
//! transfer is caught as a finding rather than a silent slowdown on a
//! real machine.

use std::cell::Cell;
use std::fmt;

/// Where an array's bytes (or a thread's execution) live.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MemorySpace {
    /// Simulation (CPU) memory — the default for every array.
    Host,
    /// Memory of simulated analysis device `id` (the offload
    /// executor's workers; stands in for a GPU or a dedicated
    /// analysis socket).
    DeviceSim(u32),
    /// Host-pinned / unified memory reachable from every space
    /// without a transfer.
    Shared,
}

impl MemorySpace {
    /// Can data living in `self` be touched by code executing in
    /// `exec` without a transfer?
    pub fn accessible_from(self, exec: MemorySpace) -> bool {
        match (self, exec) {
            (MemorySpace::Shared, _) | (_, MemorySpace::Shared) => true,
            (a, b) => a == b,
        }
    }

    /// Short stable label (probe keys, findings, error messages).
    pub fn label(self) -> String {
        match self {
            MemorySpace::Host => "host".to_string(),
            MemorySpace::DeviceSim(id) => format!("device{id}"),
            MemorySpace::Shared => "shared".to_string(),
        }
    }
}

impl fmt::Display for MemorySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Typed failure of a space-checked accessor. Converted into
/// `sensei::AdaptorError::WrongSpace` at the adaptor boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessError {
    /// The array's bytes are not reachable from the declared
    /// execution space; an explicit [`crate::DataArray::move_to`] or
    /// [`crate::DataArray::snapshot_in`] is required first.
    WrongSpace {
        /// Array name.
        array: String,
        /// Where the bytes live.
        have: MemorySpace,
        /// The execution space that tried to touch them.
        want: MemorySpace,
    },
    /// The array's scalar type does not match the requested view type.
    TypeMismatch {
        /// Array name.
        array: String,
        /// Requested element type.
        want: &'static str,
    },
    /// The array's layout cannot be viewed as one contiguous slice
    /// (e.g. multi-buffer SoA through `as_slice_in`).
    LayoutUnsupported {
        /// Array name.
        array: String,
        /// What was attempted.
        detail: String,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::WrongSpace { array, have, want } => write!(
                f,
                "array '{array}' lives in {have} but was accessed from {want}; \
                 move_to/snapshot_in must make the transfer explicit"
            ),
            AccessError::TypeMismatch { array, want } => {
                write!(f, "array '{array}' does not store {want} elements")
            }
            AccessError::LayoutUnsupported { array, detail } => {
                write!(f, "array '{array}': {detail}")
            }
        }
    }
}

impl std::error::Error for AccessError {}

thread_local! {
    /// The execution space of the current thread. Rank threads run on
    /// the host; the offload executor's workers (and host-launched
    /// device phases) enter their device space via [`enter_space`].
    static EXEC_SPACE: Cell<MemorySpace> = const { Cell::new(MemorySpace::Host) };
}

/// The execution space of the calling thread.
pub fn current_space() -> MemorySpace {
    EXEC_SPACE.with(|c| c.get())
}

/// Enter `space` for the current scope (RAII; restores the previous
/// space on drop). Nested entries behave like a stack.
pub fn enter_space(space: MemorySpace) -> SpaceGuard {
    let prev = EXEC_SPACE.with(|c| c.replace(space));
    SpaceGuard { prev }
}

/// Restores the previous execution space on drop; see [`enter_space`].
pub struct SpaceGuard {
    prev: MemorySpace,
}

impl Drop for SpaceGuard {
    fn drop(&mut self) {
        EXEC_SPACE.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_is_reachable_from_everywhere() {
        for exec in [
            MemorySpace::Host,
            MemorySpace::DeviceSim(0),
            MemorySpace::DeviceSim(3),
        ] {
            assert!(MemorySpace::Shared.accessible_from(exec));
            assert!(exec.accessible_from(MemorySpace::Shared));
        }
    }

    #[test]
    fn host_and_device_are_disjoint() {
        assert!(MemorySpace::Host.accessible_from(MemorySpace::Host));
        assert!(!MemorySpace::Host.accessible_from(MemorySpace::DeviceSim(0)));
        assert!(!MemorySpace::DeviceSim(0).accessible_from(MemorySpace::Host));
        assert!(!MemorySpace::DeviceSim(0).accessible_from(MemorySpace::DeviceSim(1)));
        assert!(MemorySpace::DeviceSim(1).accessible_from(MemorySpace::DeviceSim(1)));
    }

    #[test]
    fn enter_space_nests_and_restores() {
        assert_eq!(current_space(), MemorySpace::Host);
        {
            let _d0 = enter_space(MemorySpace::DeviceSim(0));
            assert_eq!(current_space(), MemorySpace::DeviceSim(0));
            {
                let _sh = enter_space(MemorySpace::Shared);
                assert_eq!(current_space(), MemorySpace::Shared);
            }
            assert_eq!(current_space(), MemorySpace::DeviceSim(0));
        }
        assert_eq!(current_space(), MemorySpace::Host);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MemorySpace::Host.label(), "host");
        assert_eq!(MemorySpace::DeviceSim(2).label(), "device2");
        assert_eq!(MemorySpace::Shared.label(), "shared");
        assert_eq!(format!("{}", MemorySpace::DeviceSim(0)), "device0");
    }

    #[test]
    fn wrong_space_error_names_both_spaces() {
        let e = AccessError::WrongSpace {
            array: "u".into(),
            have: MemorySpace::Host,
            want: MemorySpace::DeviceSim(0),
        };
        let s = e.to_string();
        assert!(s.contains("'u'"), "{s}");
        assert!(s.contains("host"), "{s}");
        assert!(s.contains("device0"), "{s}");
    }
}
