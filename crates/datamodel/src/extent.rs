//! Structured index-space algebra (VTK-style inclusive extents).
//!
//! An extent `[i0..=i1, j0..=j1, k0..=k1]` names a box of **points** in a
//! global structured grid; a box with `i1 == i0` is a plane. Cell counts
//! are one less per non-degenerate axis, as in VTK.

/// Inclusive structured extent in point-index space.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Extent {
    /// Inclusive lower corner `[i0, j0, k0]`.
    pub lo: [i64; 3],
    /// Inclusive upper corner `[i1, j1, k1]`.
    pub hi: [i64; 3],
}

impl Extent {
    /// Build an extent; `hi` must dominate `lo` on every axis.
    pub fn new(lo: [i64; 3], hi: [i64; 3]) -> Self {
        assert!(
            (0..3).all(|a| hi[a] >= lo[a]),
            "degenerate extent: lo {lo:?} hi {hi:?}"
        );
        Extent { lo, hi }
    }

    /// Extent of a whole grid with `dims` points per axis, rooted at 0.
    pub fn whole(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "zero-sized grid");
        Extent {
            lo: [0, 0, 0],
            hi: dims.map(|d| d as i64 - 1),
        }
    }

    /// Points per axis.
    pub fn point_dims(&self) -> [usize; 3] {
        std::array::from_fn(|a| (self.hi[a] - self.lo[a] + 1) as usize)
    }

    /// Cells per axis (`max(points-1, 1)` on degenerate axes is *not*
    /// applied: a flat axis has zero cells, so a plane has no 3D cells).
    pub fn cell_dims(&self) -> [usize; 3] {
        self.point_dims().map(|p| p.saturating_sub(1))
    }

    /// Total number of points.
    pub fn num_points(&self) -> usize {
        let d = self.point_dims();
        d[0] * d[1] * d[2]
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        let c = self.cell_dims();
        c[0] * c[1] * c[2]
    }

    /// Does this extent contain global point index `(i, j, k)`?
    pub fn contains(&self, p: [i64; 3]) -> bool {
        (0..3).all(|a| self.lo[a] <= p[a] && p[a] <= self.hi[a])
    }

    /// Row-major (k slowest) linear offset of a **global** point index
    /// within this extent's local storage.
    pub fn linear_index(&self, p: [i64; 3]) -> usize {
        debug_assert!(self.contains(p), "point {p:?} outside extent {self:?}");
        let d = self.point_dims();
        let i = (p[0] - self.lo[0]) as usize;
        let j = (p[1] - self.lo[1]) as usize;
        let k = (p[2] - self.lo[2]) as usize;
        (k * d[1] + j) * d[0] + i
    }

    /// Inverse of [`Extent::linear_index`].
    pub fn point_at(&self, linear: usize) -> [i64; 3] {
        let d = self.point_dims();
        let ijk = [
            linear % d[0],
            (linear / d[0]) % d[1],
            linear / (d[0] * d[1]),
        ];
        std::array::from_fn(|a| self.lo[a] + ijk[a] as i64)
    }

    /// Intersection, or `None` when disjoint.
    pub(crate) fn intersect(&self, other: &Extent) -> Option<Extent> {
        let lo: [i64; 3] = std::array::from_fn(|a| self.lo[a].max(other.lo[a]));
        let hi: [i64; 3] = std::array::from_fn(|a| self.hi[a].min(other.hi[a]));
        if (0..3).all(|a| lo[a] <= hi[a]) {
            Some(Extent { lo, hi })
        } else {
            None
        }
    }

    /// Grow by `g` layers on every face, clipped to `bounds`.
    pub fn grow_within(&self, g: i64, bounds: &Extent) -> Extent {
        Extent {
            lo: std::array::from_fn(|a| (self.lo[a] - g).max(bounds.lo[a])),
            hi: std::array::from_fn(|a| (self.hi[a] + g).min(bounds.hi[a])),
        }
    }

    /// Iterate all global point indices in row-major (k slowest) order.
    pub fn iter_points(&self) -> impl Iterator<Item = [i64; 3]> + '_ {
        let lo = self.lo;
        let d = self.point_dims();
        (0..d[2]).flat_map(move |k| {
            (0..d[1]).flat_map(move |j| {
                (0..d[0]).map(move |i| [lo[0] + i as i64, lo[1] + j as i64, lo[2] + k as i64])
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_counts() {
        let e = Extent::whole([4, 3, 2]);
        assert_eq!(e.num_points(), 24);
        assert_eq!(e.num_cells(), 6);
        assert_eq!(e.point_dims(), [4, 3, 2]);
    }

    #[test]
    fn plane_has_no_cells() {
        let e = Extent::new([0, 0, 5], [9, 9, 5]);
        assert_eq!(e.num_points(), 100);
        assert_eq!(e.num_cells(), 0);
    }

    #[test]
    fn linear_index_roundtrip() {
        let e = Extent::new([2, 3, 4], [5, 7, 6]);
        for (n, p) in e.iter_points().enumerate() {
            assert_eq!(e.linear_index(p), n);
            assert_eq!(e.point_at(n), p);
        }
        assert_eq!(e.iter_points().count(), e.num_points());
    }

    #[test]
    fn intersect_overlapping() {
        let a = Extent::new([0, 0, 0], [10, 10, 10]);
        let b = Extent::new([5, 5, 5], [15, 15, 15]);
        assert_eq!(a.intersect(&b), Some(Extent::new([5, 5, 5], [10, 10, 10])));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = Extent::new([0, 0, 0], [4, 4, 4]);
        let b = Extent::new([5, 0, 0], [9, 4, 4]);
        assert_eq!(a.intersect(&b), None);
    }

    #[test]
    fn grow_is_clipped() {
        let bounds = Extent::whole([10, 10, 10]);
        let e = Extent::new([0, 4, 8], [2, 6, 9]);
        let g = e.grow_within(1, &bounds);
        assert_eq!(g, Extent::new([0, 3, 7], [3, 7, 9]));
    }

    #[test]
    fn contains_boundary_points() {
        let e = Extent::new([1, 1, 1], [3, 3, 3]);
        assert!(e.contains([1, 1, 1]));
        assert!(e.contains([3, 3, 3]));
        assert!(!e.contains([0, 1, 1]));
        assert!(!e.contains([4, 3, 3]));
    }

    #[test]
    #[should_panic(expected = "degenerate extent")]
    fn inverted_extent_panics() {
        let _ = Extent::new([0, 0, 0], [-1, 0, 0]);
    }
}
