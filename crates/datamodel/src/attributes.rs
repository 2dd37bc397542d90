//! Point/cell attribute collections and the ghost-marking convention.

use std::sync::Arc;

use crate::array::DataArray;
use crate::MemoryFootprint;

/// Name of the ghost-marking array, following VTK's convention. Entries
/// are `u8` flags: `0` = real, nonzero = ghost (duplicated from a
/// neighboring rank and to be blanked by analyses).
pub const GHOST_ARRAY_NAME: &str = "vtkGhostType";

/// Ghost flag value for a duplicated (ghost) point or cell.
pub(crate) const GHOST_DUPLICATE: u8 = 1;

/// An ordered collection of named [`DataArray`]s attached to points or
/// cells of a mesh (the analogue of `vtkPointData` / `vtkCellData`).
#[derive(Clone, Debug, Default)]
pub struct Attributes {
    arrays: Vec<DataArray>,
}

impl Attributes {
    /// Empty attribute set.
    pub fn new() -> Self {
        Attributes { arrays: Vec::new() }
    }

    /// Add or replace an array by name.
    ///
    /// When the sanitizer is active and a ghost array is (or becomes)
    /// present, the ghost flags are mirrored into the shadow ledgers of
    /// the sibling arrays so tuple-level writes can be checked against
    /// the ghost rule.
    pub fn insert(&mut self, array: DataArray) {
        if let Some(existing) = self.arrays.iter_mut().find(|a| a.name() == array.name()) {
            *existing = array;
        } else {
            self.arrays.push(array);
        }
        if sanitizer::active() {
            self.rearm_ghost_shadows();
        }
    }

    /// Copy the ghost flags into every shadowed sibling array's ledger.
    /// No-op when there is no ghost array or no shadowed arrays.
    fn rearm_ghost_shadows(&self) {
        let Some(flags) = self
            .get(GHOST_ARRAY_NAME)
            .and_then(|g| g.as_slice_in::<u8>(g.space()).ok())
            .map(|s| Arc::new(s.to_vec()))
        else {
            return;
        };
        for a in &self.arrays {
            if a.name() == GHOST_ARRAY_NAME {
                continue;
            }
            if let Some(shadow) = a.shadow() {
                shadow.arm_ghosts(Arc::clone(&flags));
            }
        }
    }

    /// Look up an array by name.
    pub fn get(&self, name: &str) -> Option<&DataArray> {
        self.arrays.iter().find(|a| a.name() == name)
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut DataArray> {
        self.arrays.iter_mut().find(|a| a.name() == name)
    }

    /// Remove an array by name, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<DataArray> {
        let idx = self.arrays.iter().position(|a| a.name() == name)?;
        Some(self.arrays.remove(idx))
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True when no arrays are attached.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Iterate arrays in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &DataArray> {
        self.arrays.iter()
    }

    /// Array names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.arrays.iter().map(|a| a.name()).collect()
    }

    /// The ghost-marking array, if any.
    pub fn ghosts(&self) -> Option<&DataArray> {
        self.get(GHOST_ARRAY_NAME)
    }

    /// Is tuple `t` marked as a ghost? (False when no ghost array exists.)
    pub fn is_ghost(&self, t: usize) -> bool {
        self.ghosts().map(|g| g.get(t, 0) != 0.0).unwrap_or(false)
    }
}

impl MemoryFootprint for Attributes {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        self.arrays.iter().map(|a| a.heap_bytes(count_shared)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace() {
        let mut at = Attributes::new();
        at.insert(DataArray::owned("a", 1, vec![1.0f64]));
        at.insert(DataArray::owned("b", 1, vec![2.0f64]));
        assert_eq!(at.len(), 2);
        assert_eq!(at.get("a").unwrap().get(0, 0), 1.0);
        // Replacement keeps len stable.
        at.insert(DataArray::owned("a", 1, vec![9.0f64]));
        assert_eq!(at.len(), 2);
        assert_eq!(at.get("a").unwrap().get(0, 0), 9.0);
    }

    #[test]
    fn remove_returns_array() {
        let mut at = Attributes::new();
        at.insert(DataArray::owned("x", 1, vec![5i32]));
        let got = at.remove("x").unwrap();
        assert_eq!(got.name(), "x");
        assert!(at.is_empty());
        assert!(at.remove("x").is_none());
    }

    #[test]
    fn ghost_convention() {
        let mut at = Attributes::new();
        assert!(!at.is_ghost(0));
        at.insert(DataArray::owned(GHOST_ARRAY_NAME, 1, vec![0u8, 1, 0]));
        assert!(!at.is_ghost(0));
        assert!(at.is_ghost(1));
        assert!(!at.is_ghost(2));
    }

    #[test]
    fn names_in_insertion_order() {
        let mut at = Attributes::new();
        at.insert(DataArray::owned("z", 1, vec![0.0f64]));
        at.insert(DataArray::owned("a", 1, vec![0.0f64]));
        assert_eq!(at.names(), vec!["z", "a"]);
    }
}
