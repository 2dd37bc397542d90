//! The polymorphic dataset wrapper analyses consume.

use crate::attributes::Attributes;
use crate::extent::Extent;
use crate::grids::{ImageData, RectilinearGrid};
use crate::multiblock::MultiBlock;
use crate::unstructured::UnstructuredGrid;
use crate::MemoryFootprint;

/// Any mesh the data model can describe — what a data adaptor hands to an
/// analysis adaptor (the analogue of `vtkDataObject`).
#[derive(Clone, Debug)]
pub enum DataSet {
    /// Uniform structured grid.
    Image(ImageData),
    /// Rectilinear grid.
    Rectilinear(RectilinearGrid),
    /// Unstructured mesh.
    Unstructured(UnstructuredGrid),
    /// Collection of blocks (one per rank or per box).
    Multi(MultiBlock),
}

/// The one description of a structured leaf ([`DataSet::structured`]):
/// index space, uniform geometry and point attributes, whichever of
/// `Image`/`Rectilinear` the leaf is stored as.
#[derive(Clone, Copy, Debug)]
pub struct Structured<'a> {
    /// The leaf's (possibly ghosted) extent.
    pub extent: Extent,
    /// The whole problem's extent.
    pub global_extent: Extent,
    /// Physical coordinates of **global** point (0,0,0), as
    /// [`ImageData::origin`] defines it.
    pub origin: [f64; 3],
    /// Physical distance between adjacent points per axis.
    pub spacing: [f64; 3],
    /// Arrays defined on points.
    pub point_data: &'a Attributes,
}

impl DataSet {
    /// A structured leaf as `(extent, global extent, origin, spacing,
    /// point data)`; `None` for unstructured and multiblock datasets.
    /// A rectilinear leaf is described by the uniform grid through its
    /// first two coordinates per axis (unit spacing on a one-point
    /// axis), with the origin carried back from the leaf's corner to
    /// global point 0.
    pub fn structured(&self) -> Option<Structured<'_>> {
        let (extent, global_extent, point_data, origin, spacing) = match self {
            DataSet::Image(g) => (
                g.extent,
                g.global_extent,
                &g.point_data,
                g.origin,
                g.spacing,
            ),
            DataSet::Rectilinear(g) => {
                let axes = [&g.x, &g.y, &g.z];
                let spacing = axes.map(|c| if c.len() > 1 { c[1] - c[0] } else { 1.0 });
                let origin = [0, 1, 2].map(|a| axes[a][0] - g.extent.lo[a] as f64 * spacing[a]);
                (g.extent, g.global_extent, &g.point_data, origin, spacing)
            }
            DataSet::Unstructured(_) | DataSet::Multi(_) => return None,
        };
        Some(Structured {
            extent,
            global_extent,
            origin,
            spacing,
            point_data,
        })
    }

    /// Total points in this dataset (summed over blocks).
    pub fn num_points(&self) -> usize {
        match self {
            DataSet::Image(g) => g.num_points(),
            DataSet::Rectilinear(g) => g.num_points(),
            DataSet::Unstructured(g) => g.num_points(),
            DataSet::Multi(m) => m.blocks().map(|b| b.num_points()).sum(),
        }
    }

    /// Total cells in this dataset (summed over blocks).
    pub fn num_cells(&self) -> usize {
        match self {
            DataSet::Image(g) => g.num_cells(),
            DataSet::Rectilinear(g) => g.num_cells(),
            DataSet::Unstructured(g) => g.num_cells(),
            DataSet::Multi(m) => m.blocks().map(|b| b.num_cells()).sum(),
        }
    }

    /// Point attributes of a leaf dataset (`None` for multiblock).
    pub fn point_data(&self) -> Option<&Attributes> {
        match self {
            DataSet::Image(g) => Some(&g.point_data),
            DataSet::Rectilinear(g) => Some(&g.point_data),
            DataSet::Unstructured(g) => Some(&g.point_data),
            DataSet::Multi(_) => None,
        }
    }

    /// Cell attributes of a leaf dataset (`None` for multiblock).
    pub fn cell_data(&self) -> Option<&Attributes> {
        match self {
            DataSet::Image(g) => Some(&g.cell_data),
            DataSet::Rectilinear(g) => Some(&g.cell_data),
            DataSet::Unstructured(g) => Some(&g.cell_data),
            DataSet::Multi(_) => None,
        }
    }

    /// Mutable point attributes of a leaf dataset (`None` for multiblock).
    pub fn point_data_mut(&mut self) -> Option<&mut Attributes> {
        match self {
            DataSet::Image(g) => Some(&mut g.point_data),
            DataSet::Rectilinear(g) => Some(&mut g.point_data),
            DataSet::Unstructured(g) => Some(&mut g.point_data),
            DataSet::Multi(_) => None,
        }
    }

    /// Iterate this dataset's leaves (itself, or each multiblock block).
    pub fn leaves(&self) -> Box<dyn Iterator<Item = &DataSet> + '_> {
        match self {
            DataSet::Multi(m) => Box::new(m.blocks()),
            other => Box::new(std::iter::once(other)),
        }
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            DataSet::Image(_) => "image",
            DataSet::Rectilinear(_) => "rectilinear",
            DataSet::Unstructured(_) => "unstructured",
            DataSet::Multi(_) => "multiblock",
        }
    }
}

impl MemoryFootprint for DataSet {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        match self {
            DataSet::Image(g) => g.heap_bytes(count_shared),
            DataSet::Rectilinear(g) => g.heap_bytes(count_shared),
            DataSet::Unstructured(g) => g.heap_bytes(count_shared),
            DataSet::Multi(m) => m.heap_bytes(count_shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;

    #[test]
    fn leaves_of_leaf_is_self() {
        let g = ImageData::new(Extent::whole([2, 2, 2]), Extent::whole([2, 2, 2]));
        let ds = DataSet::Image(g);
        assert_eq!(ds.leaves().count(), 1);
        assert_eq!(ds.kind(), "image");
        assert_eq!(ds.num_points(), 8);
        assert_eq!(ds.num_cells(), 1);
    }

    #[test]
    fn structured_describes_image_and_rectilinear_leaves_alike() {
        let global = Extent::whole([6, 3, 1]);
        let local = Extent::new([2, 1, 0], [4, 2, 0]);
        let (origin, spacing) = ([10.0, -1.0, 5.0], [0.5, 2.0, 1.0]);
        let image = DataSet::Image(ImageData::new(local, global).with_geometry(origin, spacing));
        let rect = DataSet::Rectilinear(RectilinearGrid::uniform(local, global, origin, spacing));
        for ds in [&image, &rect] {
            let s = ds.structured().expect("structured leaf");
            assert_eq!((s.extent, s.global_extent), (local, global));
            // The origin is global point 0's, not the local corner's;
            // the one-point z axis falls back to unit spacing.
            assert_eq!(s.origin, origin, "{}", ds.kind());
            assert_eq!(s.spacing, spacing, "{}", ds.kind());
        }
        assert!(DataSet::Multi(MultiBlock::new()).structured().is_none());
    }

    #[test]
    fn multiblock_sums_counts() {
        let mut m = MultiBlock::new();
        m.push(DataSet::Image(ImageData::new(
            Extent::whole([2, 2, 2]),
            Extent::whole([4, 2, 2]),
        )));
        m.push(DataSet::Image(ImageData::new(
            Extent::new([2, 0, 0], [3, 1, 1]),
            Extent::whole([4, 2, 2]),
        )));
        let ds = DataSet::Multi(m);
        assert_eq!(ds.num_points(), 16);
        assert_eq!(ds.leaves().count(), 2);
        assert!(ds.point_data().is_none());
    }
}
