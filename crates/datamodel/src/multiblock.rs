//! Multiblock collections (`vtkMultiBlockDataSet`): a list of child
//! datasets, some of which may be absent on this rank (each rank typically
//! owns one block of a global collection).

use crate::dataset::DataSet;
use crate::MemoryFootprint;

/// An ordered collection of optional child datasets.
#[derive(Clone, Debug, Default)]
pub struct MultiBlock {
    children: Vec<Option<DataSet>>,
}

impl MultiBlock {
    /// Empty collection.
    pub fn new() -> Self {
        MultiBlock {
            children: Vec::new(),
        }
    }

    /// A collection with `n` empty slots (global block count known, local
    /// blocks filled in by [`MultiBlock::set`]).
    pub fn with_slots(n: usize) -> Self {
        MultiBlock {
            children: (0..n).map(|_| None).collect(),
        }
    }

    /// Append a present block.
    pub fn push(&mut self, ds: DataSet) {
        self.children.push(Some(ds));
    }

    /// Fill slot `i` (grows the collection if needed).
    pub fn set(&mut self, i: usize, ds: DataSet) {
        if i >= self.children.len() {
            self.children.resize_with(i + 1, || None);
        }
        self.children[i] = Some(ds);
    }

    /// Slot count, including empty slots.
    pub fn num_slots(&self) -> usize {
        self.children.len()
    }

    /// The block in slot `i`, if present.
    pub fn block(&self, i: usize) -> Option<&DataSet> {
        self.children.get(i).and_then(|c| c.as_ref())
    }

    /// Mutable access to the block in slot `i`, if present.
    pub fn block_mut(&mut self, i: usize) -> Option<&mut DataSet> {
        self.children.get_mut(i).and_then(|c| c.as_mut())
    }

    /// Iterate present blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &DataSet> {
        self.children.iter().filter_map(|c| c.as_ref())
    }

    /// Number of present blocks.
    pub fn num_present(&self) -> usize {
        self.children.iter().filter(|c| c.is_some()).count()
    }
}

impl MemoryFootprint for MultiBlock {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        self.blocks().map(|b| b.heap_bytes(count_shared)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use crate::grids::ImageData;

    fn img() -> DataSet {
        DataSet::Image(ImageData::new(
            Extent::whole([2, 2, 2]),
            Extent::whole([2, 2, 2]),
        ))
    }

    #[test]
    fn slots_and_sparse_fill() {
        let mut m = MultiBlock::with_slots(4);
        assert_eq!(m.num_slots(), 4);
        assert_eq!(m.num_present(), 0);
        m.set(2, img());
        assert_eq!(m.num_present(), 1);
        assert!(m.block(2).is_some());
        assert!(m.block(0).is_none());
        assert!(m.block(9).is_none());
    }

    #[test]
    fn set_grows() {
        let mut m = MultiBlock::new();
        m.set(3, img());
        assert_eq!(m.num_slots(), 4);
        assert_eq!(m.blocks().count(), 1);
    }
}
