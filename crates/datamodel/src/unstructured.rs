//! Unstructured grids (`vtkUnstructuredGrid`): explicit points plus a
//! connectivity/offsets cell description. PHASTA's finite-element meshes
//! map here; the paper notes nodal coordinates and fields map zero-copy
//! while connectivity is a full copy — both paths are expressible. The
//! cell arrays never change between steps, so they are shared by `Arc`:
//! a producer copies them once and every later mesh is a view of them.

use std::sync::Arc;

use crate::array::DataArray;
use crate::attributes::Attributes;
use crate::MemoryFootprint;

/// Supported cell shapes (VTK type ids).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum CellType {
    /// 3-node triangle (VTK 5).
    Triangle = 5,
    /// 4-node quad (VTK 9).
    Quad = 9,
    /// 4-node tetrahedron (VTK 10).
    Tetra = 10,
    /// 8-node hexahedron (VTK 12).
    Hexahedron = 12,
}

impl CellType {
    /// Nodes per cell of this shape.
    pub fn num_points(self) -> usize {
        match self {
            CellType::Triangle => 3,
            CellType::Quad => 4,
            CellType::Tetra => 4,
            CellType::Hexahedron => 8,
        }
    }
}

/// An unstructured mesh: points (3-component array, possibly zero-copy),
/// flat connectivity with per-cell offsets, and per-cell types, each
/// shareable between meshes.
#[derive(Clone, Debug)]
pub struct UnstructuredGrid {
    /// Point coordinates, 3 components per tuple.
    pub points: DataArray,
    /// Flat point-index list for all cells.
    pub connectivity: Arc<Vec<i64>>,
    /// `offsets[c]..offsets[c+1]` indexes `connectivity` for cell `c`;
    /// length = num_cells + 1, starts at 0.
    pub offsets: Arc<Vec<usize>>,
    /// Shape of each cell; length = num_cells.
    pub cell_types: Arc<Vec<CellType>>,
    /// Arrays defined on points.
    pub point_data: Attributes,
    /// Arrays defined on cells.
    pub cell_data: Attributes,
}

impl UnstructuredGrid {
    /// Assemble and validate a mesh.
    ///
    /// # Panics
    /// Panics when offsets are malformed, a cell's node count disagrees
    /// with its type, or connectivity references nonexistent points.
    pub fn new(
        points: DataArray,
        connectivity: Vec<i64>,
        offsets: Vec<usize>,
        cell_types: Vec<CellType>,
    ) -> Self {
        assert_eq!(points.num_components(), 3, "points must have 3 components");
        assert!(
            !offsets.is_empty() && offsets[0] == 0,
            "offsets must start at 0"
        );
        assert_eq!(
            offsets.len(),
            cell_types.len() + 1,
            "offsets length must be num_cells + 1"
        );
        assert_eq!(
            offsets[cell_types.len()],
            connectivity.len(),
            "last offset must equal connectivity length"
        );
        let np = points.num_tuples() as i64;
        for (c, ty) in cell_types.iter().enumerate() {
            let span = offsets[c + 1] - offsets[c];
            assert_eq!(
                span,
                ty.num_points(),
                "cell {c} of type {ty:?} has {span} nodes"
            );
        }
        assert!(
            connectivity.iter().all(|&p| p >= 0 && p < np),
            "connectivity references out-of-range point"
        );
        UnstructuredGrid {
            points,
            connectivity: Arc::new(connectivity),
            offsets: Arc::new(offsets),
            cell_types: Arc::new(cell_types),
            point_data: Attributes::new(),
            cell_data: Attributes::new(),
        }
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.points.num_tuples()
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cell_types.len()
    }

    /// The point indices of cell `c`.
    pub fn cell_points(&self, c: usize) -> &[i64] {
        &self.connectivity[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Physical coordinates of point `p`.
    pub fn point_coords(&self, p: usize) -> [f64; 3] {
        [
            self.points.get(p, 0),
            self.points.get(p, 1),
            self.points.get(p, 2),
        ]
    }

    /// Attach a point array, validating its tuple count.
    pub fn add_point_array(&mut self, array: DataArray) {
        let n = self.num_points();
        crate::grids::attach(&mut self.point_data, array, n, "point");
    }

    /// Attach a cell array, validating its tuple count.
    pub fn add_cell_array(&mut self, array: DataArray) {
        let n = self.num_cells();
        crate::grids::attach(&mut self.cell_data, array, n, "cell");
    }
}

impl MemoryFootprint for UnstructuredGrid {
    /// The cell arrays count as owned, however many meshes share them:
    /// they are the in situ side's copy of the cells, never a view of
    /// the solver's buffers (§4.2.1), so each mesh reports that copy.
    fn heap_bytes(&self, count_shared: bool) -> usize {
        self.points.heap_bytes(count_shared)
            + self.connectivity.capacity() * 8
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.cell_types.capacity()
            + self.point_data.heap_bytes(count_shared)
            + self.cell_data.heap_bytes(count_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tets() -> UnstructuredGrid {
        // 5 points, 2 tetrahedra sharing a face.
        let pts = vec![
            0.0, 0.0, 0.0, //
            1.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, //
            0.0, 0.0, 1.0, //
            1.0, 1.0, 1.0,
        ];
        UnstructuredGrid::new(
            DataArray::owned("points", 3, pts),
            vec![0, 1, 2, 3, 1, 2, 3, 4],
            vec![0, 4, 8],
            vec![CellType::Tetra, CellType::Tetra],
        )
    }

    #[test]
    fn construction_and_access() {
        let g = two_tets();
        assert_eq!(g.num_points(), 5);
        assert_eq!(g.num_cells(), 2);
        assert_eq!(g.cell_points(1), &[1, 2, 3, 4]);
        assert_eq!(g.point_coords(4), [1.0, 1.0, 1.0]);
    }

    #[test]
    fn zero_copy_points_shared_with_simulation() {
        let coords = Arc::new(vec![0.0f64; 15]);
        let g = UnstructuredGrid::new(
            DataArray::shared("points", 3, Arc::clone(&coords)),
            vec![0, 1, 2, 3],
            vec![0, 4],
            vec![CellType::Tetra],
        );
        assert!(g.points.is_zero_copy());
        assert_eq!(Arc::strong_count(&coords), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range point")]
    fn bad_connectivity_panics() {
        let _ = UnstructuredGrid::new(
            DataArray::owned("points", 3, vec![0.0f64; 9]),
            vec![0, 1, 5],
            vec![0, 3],
            vec![CellType::Triangle],
        );
    }

    #[test]
    #[should_panic(expected = "has 3 nodes")]
    fn type_span_mismatch_panics() {
        let _ = UnstructuredGrid::new(
            DataArray::owned("points", 3, vec![0.0f64; 12]),
            vec![0, 1, 2],
            vec![0, 3],
            vec![CellType::Tetra],
        );
    }

    #[test]
    fn cell_type_node_counts() {
        assert_eq!(CellType::Triangle.num_points(), 3);
        assert_eq!(CellType::Quad.num_points(), 4);
        assert_eq!(CellType::Tetra.num_points(), 4);
        assert_eq!(CellType::Hexahedron.num_points(), 8);
    }
}
