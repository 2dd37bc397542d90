//! Axis-aligned slice extraction from block-decomposed structured grids.
//!
//! Mirrors the paper's slice workloads: "only those ranks whose domains
//! intersect the slice plane will extract and render the slice geometry"
//! (§4.1.3) — a piece is `None` on non-intersecting ranks, and rendering
//! pseudocolors it into the pixels a framebuffer holds, the global plane
//! mapped onto the whole image, each cell coloured once a frame, from
//! the field in place: a rank draws the rows it keeps into its frame and
//! each strip it gives away into the message by filling memory alone,
//! and the compositor merges the rest.

use std::cell::Cell;
use std::ops::Range;

use datamodel::Extent;
use minimpi::Comm;

use crate::color::Colormap;
use crate::framebuffer::{overlap, Framebuffer, Rect};
use crate::raster::centres_in;

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

/// This rank's piece of the plane `axis = global_index` without its
/// values, and the index of the value at plane coordinates `(u, v)` in
/// point data over `local` (row-major, k slowest); `None` off the plane.
pub(crate) fn locate_plane(
    local: &Extent,
    global: &Extent,
    axis: usize,
    global_index: i64,
) -> Option<(LocalSlice, impl Fn(usize, usize) -> usize)> {
    assert!(
        global_index >= global.lo[axis] && global_index <= global.hi[axis],
        "slice index {global_index} outside the global extent on axis {axis}"
    );
    if global_index < local.lo[axis] || global_index > local.hi[axis] {
        return None;
    }
    let (ua, va) = plane_axes(axis);
    let d = local.point_dims();
    let stride = [1, d[0], d[0] * d[1]];
    let base = (global_index - local.lo[axis]) as usize * stride[axis];
    let piece = LocalSlice {
        axis,
        global_index,
        u_range: [local.lo[ua], local.hi[ua]],
        v_range: [local.lo[va], local.hi[va]],
        global_u: [global.lo[ua], global.hi[ua]],
        global_v: [global.lo[va], global.hi[va]],
        values: Vec::new(),
    };
    Some((piece, move |u, v| base + u * stride[ua] + v * stride[va]))
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
    let (mut piece, at) = locate_plane(local, global, axis, global_index)?;
    let nu = piece.nu();
    piece.values = (0..nu * piece.nv())
        .map(|i| values[at(i % nu, i / nu)])
        .collect();
    Some(piece)
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
/// mapped onto all of it, v up, each cell on the pixels whose centre
/// lies in it.
struct Placement {
    u0: f64,
    v0: f64,
    sx: f64,
    sy: f64,
    width: usize,
    height: usize,
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
            width,
            height,
        })
    }

    /// The pixel columns of local cell column `u`.
    fn cols(&self, u: usize) -> Range<usize> {
        let u = self.u0 + u as f64;
        centres_in(u * self.sx, (u + 1.0) * self.sx, self.width)
    }

    /// The pixel rows of local cell row `v`.
    fn rows(&self, v: usize) -> Range<usize> {
        let (v, h) = (self.v0 + v as f64, self.height as f64);
        centres_in(h - (v + 1.0) * self.sy, h - v * self.sy, self.height)
    }
}

/// A slice piece prepared once a frame: each cell's colour, and the
/// pixels of each cell column and row. A draw only fills memory; between
/// frames the tables wait in the rank's pool (`Plane::park`).
#[derive(Default)]
pub(crate) struct Plane {
    /// Cell colours, row-major in (v, u).
    colours: Vec<[u8; 3]>,
    cols: Vec<Range<usize>>,
    rows: Vec<Range<usize>>,
    /// What a draw of every row marks.
    pub(crate) drawn: Rect,
    /// Draws since the preparation, and the pixel rows they copied.
    counts: Cell<(u64, u64)>,
}

impl Plane {
    /// Prepare `slice`, whose value at `(u, v)` is `p(u, v)`, for a
    /// `width` × `height` image, the **global** plane mapped onto all of
    /// it so that ranks' pieces tile seamlessly, each cell coloured by
    /// its four points' mean over `range`.
    pub(crate) fn prepare(
        &mut self,
        slice: &LocalSlice,
        p: impl Fn(usize, usize) -> f64,
        cmap: &Colormap,
        range: (f64, f64),
        (width, height): (usize, usize),
    ) {
        self.colours.clear();
        self.cols.clear();
        self.rows.clear();
        self.counts = Default::default();
        if let Some(at) = Placement::of(slice, width, height) {
            let (nu, nv) = (slice.nu().saturating_sub(1), slice.nv().saturating_sub(1));
            self.cols.extend((0..nu).map(|u| at.cols(u)));
            self.rows.extend((0..nv).map(|v| at.rows(v)));
            self.colours.reserve_exact(nu * nv);
            for v in 0..nv {
                self.colours.extend((0..nu).map(|u| {
                    let mean = 0.25 * (p(u, v) + p(u + 1, v) + p(u, v + 1) + p(u + 1, v + 1));
                    let c = cmap.map_range(mean, range.0, range.1);
                    [c.r, c.g, c.b]
                }));
            }
        }
        let span = |runs: &[Range<usize>]| {
            let runs = runs.iter().filter(|r| !r.is_empty()).cloned();
            runs.reduce(|a, r| a.start.min(r.start)..a.end.max(r.end))
        };
        let (cols, rows) = (span(&self.cols), span(&self.rows));
        self.drawn = Rect::new(cols.unwrap_or_default(), rows.unwrap_or_default());
    }

    /// Draw the cells into the pixels `fb` holds, which are clear: of
    /// each cell row that meets the rows held, the first row held span
    /// by span, copied into the others (they share its colours and
    /// depth, so this is the per-cell fill bit for bit).
    pub(crate) fn draw(&self, fb: &mut Framebuffer) {
        let (held_cols, held_rows) = (fb.cols(), fb.rows());
        let marked = overlap(&self.drawn.cols, &held_cols);
        fb.mark(marked, overlap(&self.drawn.rows, &held_rows));
        let (mut copied, cell_rows) = (0, self.colours.chunks_exact(self.cols.len().max(1)));
        for (rows, colours) in self.rows.iter().zip(cell_rows) {
            let rows = overlap(rows, &held_rows);
            if !rows.is_empty() {
                let spans = self.cols.iter().map(|cols| overlap(cols, &held_cols));
                copied += fb.fill_rows(rows, 0.5, spans.zip(colours.iter().copied())) as u64;
            }
        }
        let (draws, rows) = self.counts.get();
        self.counts.set((draws + 1, rows + copied));
    }

    /// Keep the tables in `comm`'s pool for the next frame, and count
    /// the draws, the cells coloured and the pixel rows copied on its
    /// probe under `render/draw`.
    pub(crate) fn park(self, comm: &Comm) {
        let ((draws, copied), cells) = (self.counts.get(), self.colours.len() as u64);
        comm.probe().bulk("render/draw", draws, cells, copied);
        comm.keep(self, 1);
    }
}

/// Pseudocolor this rank's slice piece into the pixels `fb` holds,
/// which are clear, over `range`, the global data range: a [`Plane`]
/// prepared and drawn.
pub fn render_plane(fb: &mut Framebuffer, slice: &LocalSlice, cmap: &Colormap, range: (f64, f64)) {
    let mut plane = Plane::default();
    let value = |u, v| slice.value(u, v);
    plane.prepare(slice, value, cmap, range, (fb.width(), fb.height()));
    plane.draw(fb);
}

/// The draw a [`Plane`] replaced, kept as its oracle: each cell
/// coloured as it is drawn, and filled, depth-tested, in the pixels `fb`
/// holds whose centre lies in it; a row of cells that misses the rows
/// held is skipped whole.
#[cfg(test)]
pub(crate) fn render_plane_per_cell(
    fb: &mut Framebuffer,
    slice: &LocalSlice,
    cmap: &Colormap,
    range: (f64, f64),
) {
    let Some(at) = Placement::of(slice, fb.width(), fb.height()) else {
        return;
    };
    for v in 0..slice.nv().saturating_sub(1) {
        let rows = overlap(&at.rows(v), &fb.rows());
        if rows.is_empty() {
            continue;
        }
        for u in 0..slice.nu().saturating_sub(1) {
            let mean = 0.25
                * (slice.value(u, v)
                    + slice.value(u + 1, v)
                    + slice.value(u, v + 1)
                    + slice.value(u + 1, v + 1));
            let color = cmap.map_range(mean, range.0, range.1);
            let cols = overlap(&at.cols(u), &fb.cols());
            if cols.is_empty() {
                continue;
            }
            fb.mark(cols.clone(), rows.clone());
            for y in rows.clone() {
                for x in cols.clone() {
                    fb.plot(x, y, 0.5, color);
                }
            }
        }
    }
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

    /// A plane of `u` × `v` cells whose values grow along u.
    fn cells(u: usize, v: usize) -> LocalSlice {
        let global = Extent::whole([u + 1, v + 1, 1]);
        let vals: Vec<f64> = global.iter_points().map(|p| p[0] as f64).collect();
        extract_plane(&global, &global, &vals, 2, 0).unwrap()
    }

    #[test]
    fn cells_fill_the_image_without_seams() {
        let mut fb = Framebuffer::new(8, 8);
        render_plane(&mut fb, &cells(2, 1), &Colormap::grayscale(), (0.0, 2.0));
        assert_eq!(fb.covered_pixels(), 64, "no gaps, no overdraw misses");
        let left = fb.pixel(3, 0);
        assert!((0..8).all(|y| fb.pixel(0, y) == left && fb.pixel(3, y) == left));
        assert!(left.r < fb.pixel(4, 0).r, "the cell edge at x = 4");
        assert_eq!(fb.drawn(), &Rect::new(0..8, 0..8));
    }

    #[test]
    fn a_plane_clips_to_the_pixels_held() {
        let mut fb = Framebuffer::with_rows(1, 1, 0..0);
        fb.rearm(8, 8, Rect::new(2..5, 3..6));
        render_plane(&mut fb, &cells(3, 2), &Colormap::grayscale(), (0.0, 3.0));
        assert_eq!(fb.covered_pixels(), 9);
        assert_eq!(fb.drawn(), &Rect::new(2..5, 3..6));
        fb.assert_clear_outside_drawn();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// A prepared plane draws what the per-cell loop drew, bit for
        /// bit in colour and depth, and marks the same rectangle: pieces
        /// of the blocks of a random grid, sliced on each axis, on a
        /// block's boundary plane or inside it, drawn into frames of any
        /// rows and strips of any rectangle, in images narrower or
        /// shorter than the plane's cells, so that a cell's span holds no
        /// pixel or one, and in wider ones.
        #[test]
        fn a_prepared_plane_draws_what_the_per_cell_loop_drew(
            dims in proptest::array::uniform3(2usize..14),
            parts in proptest::array::uniform3(1usize..3),
            plane in (0usize..8, 0usize..3, 0usize..14),
            coef in (1i64..7, -5i64..6, 1i64..5),
            image in (1usize..48, 1usize..48),
            held in ((0usize..48, 0usize..48), (0usize..48, 0usize..48)),
            frame in proptest::prelude::any::<bool>(),
        ) {
            let ((rank, axis, at), (width, height)) = (plane, image);
            let global = Extent::whole(dims);
            let parts: [usize; 3] = std::array::from_fn(|a| parts[a].min(dims[a] - 1));
            let block = partition_extent(&global, parts, rank % parts.iter().product::<usize>());
            let values: Vec<f64> = block
                .iter_points()
                .map(|p| (coef.0 * p[0] + coef.1 * p[1] + coef.2 * p[2]).rem_euclid(17) as f64)
                .collect();
            // Any of the block's planes, its first and last among them.
            let index = block.lo[axis] + at as i64 % (block.hi[axis] - block.lo[axis] + 1);
            let piece = extract_plane(&block, &global, &values, axis, index).unwrap();
            let run = |(a, b): (usize, usize), n: usize| a.min(b).min(n)..a.max(b).min(n);
            let rows = run(held.1, height);
            let cols = if frame { 0..width } else { run(held.0, width) };
            let buffer = || {
                let mut fb = Framebuffer::with_rows(1, 1, 0..0);
                fb.rearm(width, height, Rect::new(cols.clone(), rows.clone()));
                fb
            };
            let (cmap, range) = (Colormap::cool_warm(), (1.0, 15.0));
            let (mut got, mut want) = (buffer(), buffer());
            render_plane(&mut got, &piece, &cmap, range);
            render_plane_per_cell(&mut want, &piece, &cmap, range);
            let bits = |fb: &Framebuffer| fb.depth().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert!(got.color() == want.color(), "colour");
            proptest::prop_assert!(bits(&got) == bits(&want), "depth bits");
            proptest::prop_assert!(got.drawn() == want.drawn(), "{:?} {:?}", got.drawn(), want.drawn());
            got.assert_clear_outside_drawn();
        }
    }
}
