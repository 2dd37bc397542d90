//! Structured mesh types: uniform [`ImageData`] and [`RectilinearGrid`].

use crate::array::DataArray;
use crate::attributes::Attributes;
use crate::extent::Extent;
use crate::MemoryFootprint;

/// A uniform structured grid (`vtkImageData`): points at
/// `origin + index * spacing` over a local [`Extent`] of a global grid.
///
/// This is the mesh type of the oscillator miniapp and AVF-LESLIE.
#[derive(Clone, Debug)]
pub struct ImageData {
    /// This rank's (possibly ghosted) extent.
    pub extent: Extent,
    /// The whole problem's extent.
    pub global_extent: Extent,
    /// Physical coordinates of global point (0,0,0).
    pub origin: [f64; 3],
    /// Physical distance between adjacent points per axis.
    pub spacing: [f64; 3],
    /// Arrays defined on points.
    pub point_data: Attributes,
    /// Arrays defined on cells.
    pub cell_data: Attributes,
}

impl ImageData {
    /// A grid over `extent` within `global_extent`, unit spacing at the
    /// origin by default.
    pub fn new(extent: Extent, global_extent: Extent) -> Self {
        assert!(
            global_extent.intersect(&extent) == Some(extent),
            "local extent {extent:?} not contained in global {global_extent:?}"
        );
        ImageData {
            extent,
            global_extent,
            origin: [0.0; 3],
            spacing: [1.0; 3],
            point_data: Attributes::new(),
            cell_data: Attributes::new(),
        }
    }

    /// Set physical origin and spacing.
    pub fn with_geometry(mut self, origin: [f64; 3], spacing: [f64; 3]) -> Self {
        assert!(spacing.iter().all(|&s| s > 0.0), "spacing must be positive");
        self.origin = origin;
        self.spacing = spacing;
        self
    }

    /// Physical coordinates of a global point index.
    pub fn point_coords(&self, p: [i64; 3]) -> [f64; 3] {
        std::array::from_fn(|a| self.origin[a] + p[a] as f64 * self.spacing[a])
    }

    /// Number of local points.
    pub fn num_points(&self) -> usize {
        self.extent.num_points()
    }

    /// Number of local cells.
    pub fn num_cells(&self) -> usize {
        self.extent.num_cells()
    }

    /// Attach a point array, validating its tuple count.
    pub fn add_point_array(&mut self, array: DataArray) {
        let n = self.extent.num_points();
        attach(&mut self.point_data, array, n, "point");
    }

    /// Attach a cell array, validating its tuple count.
    pub fn add_cell_array(&mut self, array: DataArray) {
        attach(&mut self.cell_data, array, self.extent.num_cells(), "cell");
    }
}

impl MemoryFootprint for ImageData {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        self.point_data.heap_bytes(count_shared) + self.cell_data.heap_bytes(count_shared)
    }
}

/// A rectilinear grid (`vtkRectilinearGrid`): axis-aligned with per-axis
/// coordinate arrays. Nyx's BoxLib boxes map here.
#[derive(Clone, Debug)]
pub struct RectilinearGrid {
    /// This rank's extent.
    pub extent: Extent,
    /// The whole problem's extent.
    pub global_extent: Extent,
    /// Point coordinates along x, length = local point dims\[0\].
    pub x: Vec<f64>,
    /// Point coordinates along y.
    pub y: Vec<f64>,
    /// Point coordinates along z.
    pub z: Vec<f64>,
    /// Arrays defined on points.
    pub point_data: Attributes,
    /// Arrays defined on cells.
    pub cell_data: Attributes,
}

impl RectilinearGrid {
    /// Build from explicit per-axis coordinates. Coordinates must be
    /// strictly increasing and sized to the extent.
    pub fn new(
        extent: Extent,
        global_extent: Extent,
        x: Vec<f64>,
        y: Vec<f64>,
        z: Vec<f64>,
    ) -> Self {
        for ((c, axis), n) in [&x, &y, &z]
            .into_iter()
            .zip("xyz".chars())
            .zip(extent.point_dims())
        {
            assert_eq!(c.len(), n, "{axis} coords sized {} for {n} points", c.len());
            assert!(
                c.windows(2).all(|w| w[1] > w[0]),
                "coordinates must be strictly increasing"
            );
        }
        RectilinearGrid {
            extent,
            global_extent,
            x,
            y,
            z,
            point_data: Attributes::new(),
            cell_data: Attributes::new(),
        }
    }

    /// Uniformly spaced coordinates (convenience for Nyx-style boxes).
    pub fn uniform(
        extent: Extent,
        global_extent: Extent,
        origin: [f64; 3],
        spacing: [f64; 3],
    ) -> Self {
        let gen = |axis: usize| {
            (extent.lo[axis]..=extent.hi[axis])
                .map(|i| origin[axis] + i as f64 * spacing[axis])
                .collect::<Vec<_>>()
        };
        Self::new(extent, global_extent, gen(0), gen(1), gen(2))
    }

    /// Number of local points.
    pub fn num_points(&self) -> usize {
        self.extent.num_points()
    }

    /// Number of local cells.
    pub fn num_cells(&self) -> usize {
        self.extent.num_cells()
    }

    /// Attach a cell array, validating its tuple count.
    pub fn add_cell_array(&mut self, array: DataArray) {
        attach(&mut self.cell_data, array, self.extent.num_cells(), "cell");
    }

    /// Attach a point array, validating its tuple count.
    pub fn add_point_array(&mut self, array: DataArray) {
        let n = self.extent.num_points();
        attach(&mut self.point_data, array, n, "point");
    }
}

impl MemoryFootprint for RectilinearGrid {
    fn heap_bytes(&self, count_shared: bool) -> usize {
        (self.x.capacity() + self.y.capacity() + self.z.capacity()) * 8
            + self.point_data.heap_bytes(count_shared)
            + self.cell_data.heap_bytes(count_shared)
    }
}

/// Insert `array` into `attrs`, a grid's `kind` (point or cell) data,
/// once its tuple count is checked against the grid's `n`.
pub(crate) fn attach(attrs: &mut Attributes, array: DataArray, n: usize, kind: &str) {
    let tuples = array.num_tuples();
    assert_eq!(
        tuples,
        n,
        "{kind} array '{}' has {tuples} tuples, grid has {n} {kind}s",
        array.name()
    );
    attrs.insert(array);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DataArray;

    #[test]
    fn image_data_geometry() {
        let g = ImageData::new(Extent::whole([3, 3, 3]), Extent::whole([3, 3, 3]))
            .with_geometry([1.0, 2.0, 3.0], [0.5, 0.5, 2.0]);
        assert_eq!(g.point_coords([2, 0, 1]), [2.0, 2.0, 5.0]);
        assert_eq!(g.num_points(), 27);
        assert_eq!(g.num_cells(), 8);
    }

    #[test]
    fn image_data_subextent() {
        let global = Extent::whole([10, 10, 10]);
        let local = Extent::new([5, 0, 0], [9, 9, 9]);
        let g = ImageData::new(local, global);
        assert_eq!(g.num_points(), 5 * 10 * 10);
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn local_outside_global_panics() {
        let _ = ImageData::new(Extent::whole([20, 10, 10]), Extent::whole([10, 10, 10]));
    }

    #[test]
    #[should_panic(expected = "has 5 tuples")]
    fn wrong_sized_point_array_panics() {
        let mut g = ImageData::new(Extent::whole([2, 2, 2]), Extent::whole([2, 2, 2]));
        g.add_point_array(DataArray::owned("d", 1, vec![0.0f64; 5]));
    }

    #[test]
    fn rectilinear_uniform_matches_spacing() {
        let e = Extent::new([2, 0, 0], [4, 1, 1]);
        let g = RectilinearGrid::uniform(e, Extent::whole([5, 2, 2]), [0.0; 3], [0.25, 1.0, 1.0]);
        assert_eq!(g.x, vec![0.5, 0.75, 1.0]);
        assert_eq!(g.num_cells(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_coords_panic() {
        let e = Extent::whole([3, 1, 1]);
        let _ = RectilinearGrid::new(e, e, vec![0.0, 2.0, 1.0], vec![0.0], vec![0.0]);
    }
}
