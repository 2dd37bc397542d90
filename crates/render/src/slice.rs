//! Axis-aligned slice extraction from block-decomposed structured grids.
//!
//! Mirrors the paper's slice workloads: "only those ranks whose domains
//! intersect the slice plane will extract and render the slice geometry"
//! (§4.1.3) — extraction returns `None` on non-intersecting ranks, and
//! rendering pseudocolors the local piece into the pixels a framebuffer
//! holds, the global plane mapped onto the whole image: a compositing
//! rank draws the rows it keeps into its frame and each strip it gives
//! away straight into the message, visiting only the rows of cells that
//! meet them, and the parallel compositor merges the rest.

use std::ops::Range;

use datamodel::Extent;

use crate::color::Colormap;
use crate::framebuffer::{overlap, Framebuffer, Rect};
use crate::raster::{centres_in, fill_rect};

/// One rank's piece of a global slice plane, in index space.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalSlice {
    /// The sliced axis (0 = x, 1 = y, 2 = z).
    pub axis: usize,
    /// Global point index along the sliced axis.
    pub global_index: i64,
    /// Local inclusive index range along the plane's u axis.
    pub u_range: [i64; 2],
    /// Local inclusive index range along the plane's v axis.
    pub v_range: [i64; 2],
    /// Global inclusive u range of the whole plane.
    pub global_u: [i64; 2],
    /// Global inclusive v range of the whole plane.
    pub global_v: [i64; 2],
    /// Point values, u fastest, row-major in (v, u).
    pub values: Vec<f64>,
}

/// The two in-plane axes for a slice along `axis`.
pub(crate) fn plane_axes(axis: usize) -> (usize, usize) {
    match axis {
        0 => (1, 2),
        1 => (0, 2),
        2 => (0, 1),
        _ => panic!("axis must be 0, 1, or 2"),
    }
}

/// Extract this rank's piece of the plane `axis = global_index` from
/// point data stored over `local` (row-major, k slowest). Returns `None`
/// when the rank's block does not intersect the plane.
pub fn extract_plane(
    local: &Extent,
    global: &Extent,
    values: &[f64],
    axis: usize,
    global_index: i64,
) -> Option<LocalSlice> {
    assert_eq!(
        values.len(),
        local.num_points(),
        "point data sized to the local extent"
    );
    assert!(
        global_index >= global.lo[axis] && global_index <= global.hi[axis],
        "slice index {global_index} outside the global extent on axis {axis}"
    );
    if global_index < local.lo[axis] || global_index > local.hi[axis] {
        return None;
    }
    let (ua, va) = plane_axes(axis);
    let mut out = Vec::with_capacity(
        ((local.hi[ua] - local.lo[ua] + 1) * (local.hi[va] - local.lo[va] + 1)) as usize,
    );
    for v in local.lo[va]..=local.hi[va] {
        for u in local.lo[ua]..=local.hi[ua] {
            let mut p = [0i64; 3];
            p[axis] = global_index;
            p[ua] = u;
            p[va] = v;
            out.push(values[local.linear_index(p)]);
        }
    }
    Some(LocalSlice {
        axis,
        global_index,
        u_range: [local.lo[ua], local.hi[ua]],
        v_range: [local.lo[va], local.hi[va]],
        global_u: [global.lo[ua], global.hi[ua]],
        global_v: [global.lo[va], global.hi[va]],
        values: out,
    })
}

impl LocalSlice {
    /// Local points along u.
    pub fn nu(&self) -> usize {
        (self.u_range[1] - self.u_range[0] + 1) as usize
    }

    /// Local points along v.
    pub(crate) fn nv(&self) -> usize {
        (self.v_range[1] - self.v_range[0] + 1) as usize
    }

    /// Value at local plane coordinates.
    pub fn value(&self, u: usize, v: usize) -> f64 {
        self.values[v * self.nu() + u]
    }
}

/// Where a slice piece's cells land in an image: the global plane
/// mapped onto all of it, v up.
struct Placement {
    u0: f64,
    v0: f64,
    sx: f64,
    sy: f64,
    height: f64,
}

impl Placement {
    /// The placement in a `width` × `height` image, or `None` if the
    /// plane spans no cell along an axis.
    fn of(slice: &LocalSlice, width: usize, height: usize) -> Option<Placement> {
        let gu0 = slice.global_u[0] as f64;
        let gv0 = slice.global_v[0] as f64;
        // The plane spans one fewer cell than points per axis.
        let gu_cells = (slice.global_u[1] - slice.global_u[0]) as f64;
        let gv_cells = (slice.global_v[1] - slice.global_v[0]) as f64;
        if gu_cells <= 0.0 || gv_cells <= 0.0 {
            return None;
        }
        Some(Placement {
            u0: slice.u_range[0] as f64 - gu0,
            v0: slice.v_range[0] as f64 - gv0,
            sx: width as f64 / gu_cells,
            sy: height as f64 / gv_cells,
            height: height as f64,
        })
    }

    /// The image columns `[x0, x1)` of local cell column `u`.
    fn cols(&self, u: usize) -> (f64, f64) {
        let x0 = (self.u0 + u as f64) * self.sx;
        let x1 = (self.u0 + u as f64 + 1.0) * self.sx;
        (x0.min(x1), x0.max(x1))
    }

    /// The image rows `[y0, y1)` of local cell row `v`.
    fn rows(&self, v: usize) -> (f64, f64) {
        let y1 = self.height - (self.v0 + v as f64) * self.sy;
        let y0 = self.height - (self.v0 + v as f64 + 1.0) * self.sy;
        (y0.min(y1), y0.max(y1))
    }
}

/// Pseudocolor this rank's slice piece into the pixels `fb` holds,
/// mapping the **global** plane onto the full image so pieces from
/// different ranks tile seamlessly before compositing. `range` is the
/// global data range. A row of cells that misses the rows held is
/// skipped whole.
pub fn render_plane(fb: &mut Framebuffer, slice: &LocalSlice, cmap: &Colormap, range: (f64, f64)) {
    let Some(at) = Placement::of(slice, fb.width(), fb.height()) else {
        return;
    };
    let held = fb.rows();
    // Paint one rect per local cell, colored by the cell's mean value.
    for v in 0..slice.nv().saturating_sub(1) {
        let (y0, y1) = at.rows(v);
        if overlap(&centres_in(y0, y1, fb.height()), &held).is_empty() {
            continue;
        }
        for u in 0..slice.nu().saturating_sub(1) {
            let mean = 0.25
                * (slice.value(u, v)
                    + slice.value(u + 1, v)
                    + slice.value(u, v + 1)
                    + slice.value(u + 1, v + 1));
            let color = cmap.map_range(mean, range.0, range.1);
            let (x0, x1) = at.cols(u);
            fill_rect(fb, x0, y0, x1, y1, 0.5, color);
        }
    }
}

/// The rectangle [`render_plane`] marks drawing `slice` into a whole
/// `width` × `height` image: the columns of its cell columns by the
/// rows of its cell rows.
pub(crate) fn plane_box(slice: &LocalSlice, width: usize, height: usize) -> Rect {
    let Some(at) = Placement::of(slice, width, height) else {
        return Rect::default();
    };
    let span = |cells: usize, pixels: &dyn Fn(usize) -> Range<usize>| {
        (0..cells.saturating_sub(1))
            .map(pixels)
            .filter(|r| !r.is_empty())
            .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))
            .unwrap_or(0..0)
    };
    let cols = span(slice.nu(), &|u| {
        let (x0, x1) = at.cols(u);
        centres_in(x0, x1, width)
    });
    let rows = span(slice.nv(), &|v| {
        let (y0, y1) = at.rows(v);
        centres_in(y0, y1, height)
    });
    Rect::new(cols, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::partition_extent;

    /// Point data where value = global x index (easy to verify).
    fn ramp(local: &Extent) -> Vec<f64> {
        local.iter_points().map(|p| p[0] as f64).collect()
    }

    #[test]
    fn extraction_only_on_intersecting_ranks() {
        let global = Extent::whole([9, 9, 9]);
        let left = partition_extent(&global, [2, 1, 1], 0); // x in 0..=4
        let right = partition_extent(&global, [2, 1, 1], 1); // x in 4..=8
        let vals_l = ramp(&left);
        let vals_r = ramp(&right);
        // Slice at x=2: only the left block intersects.
        assert!(extract_plane(&left, &global, &vals_l, 0, 2).is_some());
        assert!(extract_plane(&right, &global, &vals_r, 0, 2).is_none());
        // x=4 is the shared plane: both intersect.
        assert!(extract_plane(&left, &global, &vals_l, 0, 4).is_some());
        assert!(extract_plane(&right, &global, &vals_r, 0, 4).is_some());
    }

    #[test]
    fn extracted_values_match_field() {
        let global = Extent::whole([5, 4, 3]);
        let vals: Vec<f64> = global
            .iter_points()
            .map(|p| (p[0] + 10 * p[1] + 100 * p[2]) as f64)
            .collect();
        let s = extract_plane(&global, &global, &vals, 2, 1).unwrap();
        assert_eq!(s.nu(), 5);
        assert_eq!(s.nv(), 4);
        // value(u, v) should be u + 10 v + 100·1.
        for v in 0..4 {
            for u in 0..5 {
                assert_eq!(s.value(u, v), (u + 10 * v + 100) as f64);
            }
        }
        assert_eq!(s.values.iter().copied().reduce(f64::min), Some(100.0));
        assert_eq!(s.values.iter().copied().reduce(f64::max), Some(134.0));
    }

    #[test]
    fn two_blocks_tile_the_image_seamlessly() {
        let global = Extent::whole([9, 9, 2]);
        let cmap = Colormap::grayscale();
        let mut fb = Framebuffer::new(32, 32);
        for rank in 0..2 {
            let local = partition_extent(&global, [2, 1, 1], rank);
            let vals = ramp(&local);
            let s = extract_plane(&local, &global, &vals, 2, 0).unwrap();
            render_plane(&mut fb, &s, &cmap, (0.0, 8.0));
        }
        // Every pixel painted exactly once by the union of the blocks.
        assert_eq!(fb.covered_pixels(), 32 * 32);
        // Grayscale ramp increases along x.
        assert!(fb.pixel(2, 16).r < fb.pixel(29, 16).r);
    }

    #[test]
    fn separate_rank_images_composite_to_full_cover() {
        let global = Extent::whole([9, 9, 2]);
        let cmap = Colormap::grayscale();
        let mut images: Vec<Framebuffer> = Vec::new();
        for rank in 0..2 {
            let local = partition_extent(&global, [2, 1, 1], rank);
            let vals = ramp(&local);
            let s = extract_plane(&local, &global, &vals, 2, 0).unwrap();
            let mut fb = Framebuffer::new(16, 16);
            render_plane(&mut fb, &s, &cmap, (0.0, 8.0));
            assert!(fb.covered_pixels() < 16 * 16, "each rank covers a part");
            images.push(fb);
        }
        let mut merged = images[0].clone();
        merged.composite_from(&images[1]);
        assert_eq!(merged.covered_pixels(), 16 * 16);
    }

    #[test]
    fn plane_axes_are_the_complement() {
        assert_eq!(plane_axes(0), (1, 2));
        assert_eq!(plane_axes(1), (0, 2));
        assert_eq!(plane_axes(2), (0, 1));
    }

    #[test]
    #[should_panic(expected = "outside the global extent")]
    fn out_of_domain_slice_panics() {
        let g = Extent::whole([4, 4, 4]);
        let vals = ramp(&g);
        let _ = extract_plane(&g, &g, &vals, 0, 99);
    }
}
