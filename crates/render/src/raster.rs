//! Z-buffered triangle rasterization with per-vertex color
//! interpolation (Gouraud) — the software renderer under the isosurface
//! pipeline — and the pixel-centre rule a slice's cells are cut by.

use std::ops::Range;

use crate::color::Color;
use crate::framebuffer::{overlap, Framebuffer, Rect};

/// A screen-space vertex: continuous pixel coordinates, depth, color.
#[derive(Clone, Copy, Debug)]
pub struct Vertex {
    /// Pixel x.
    pub x: f64,
    /// Pixel y.
    pub y: f64,
    /// Depth (smaller = closer).
    pub z: f32,
    /// Vertex color.
    pub color: Color,
}

/// The pixel box of the triangle `v0 v1 v2` clipped to a `width` ×
/// `height` image, or `None` if it covers no pixel centre for sure: the
/// box is empty, or the triangle has no area. What
/// [`fill_triangle`] marks when it draws the whole image.
pub(crate) fn triangle_box([v0, v1, v2]: [Vertex; 3], width: usize, height: usize) -> Option<Rect> {
    let min_x = v0.x.min(v1.x).min(v2.x).floor().max(0.0) as i64;
    let max_x = v0.x.max(v1.x).max(v2.x).ceil().min(width as f64) as i64;
    let min_y = v0.y.min(v1.y).min(v2.y).floor().max(0.0) as i64;
    let max_y = v0.y.max(v1.y).max(v2.y).ceil().min(height as f64) as i64;
    if min_x >= max_x || min_y >= max_y || edge(v0, v1, v2.x, v2.y).abs() < 1e-12 {
        return None;
    }
    Some(Rect {
        cols: min_x as usize..max_x as usize,
        rows: min_y as usize..max_y as usize,
    })
}

/// Rasterize a filled triangle with barycentric interpolation of depth
/// and color, into the pixels `fb` holds.
pub(crate) fn fill_triangle(fb: &mut Framebuffer, v0: Vertex, v1: Vertex, v2: Vertex) {
    let Some(bbox) = triangle_box([v0, v1, v2], fb.width(), fb.height()) else {
        return; // off the image, or degenerate
    };
    let (cols, rows) = (
        overlap(&bbox.cols, &fb.cols()),
        overlap(&bbox.rows, &fb.rows()),
    );
    if cols.is_empty() || rows.is_empty() {
        return;
    }
    let inv_area = 1.0 / edge(v0, v1, v2.x, v2.y);

    fb.mark(cols.clone(), rows.clone());
    for py in rows {
        for px in cols.clone() {
            // Sample at the pixel center.
            let sx = px as f64 + 0.5;
            let sy = py as f64 + 0.5;
            let w0 = edge(v1, v2, sx, sy) * inv_area;
            let w1 = edge(v2, v0, sx, sy) * inv_area;
            let w2 = edge(v0, v1, sx, sy) * inv_area;
            if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                continue;
            }
            let z = (w0 * v0.z as f64 + w1 * v1.z as f64 + w2 * v2.z as f64) as f32;
            let blend =
                |a: u8, b: u8, c: u8| (w0 * a as f64 + w1 * b as f64 + w2 * c as f64).round() as u8;
            let color = Color {
                r: blend(v0.color.r, v1.color.r, v2.color.r),
                g: blend(v0.color.g, v1.color.g, v2.color.g),
                b: blend(v0.color.b, v1.color.b, v2.color.b),
                a: blend(v0.color.a, v1.color.a, v2.color.a),
            };
            fb.plot(px, py, z, color);
        }
    }
}

/// Signed edge function (positive when `(x, y)` is left of `a→b`).
fn edge(a: Vertex, b: Vertex, x: f64, y: f64) -> f64 {
    (b.x - a.x) * (y - a.y) - (b.y - a.y) * (x - a.x)
}

/// The pixels `p < n` whose centre `p + 0.5` lies in `[a, b)`: a run,
/// as the centre grows with `p`, found by testing its ends only.
pub(crate) fn centres_in(a: f64, b: f64, n: usize) -> Range<usize> {
    let inside = |p: usize| (a..b).contains(&(p as f64 + 0.5));
    let lo = (a.floor().max(0.0) as usize).min(n);
    let hi = (b.ceil().min(n as f64) as usize).max(lo);
    let start = (lo..hi).find(|&p| inside(p)).unwrap_or(hi);
    let end = (start..hi).rfind(|&p| inside(p)).map_or(start, |p| p + 1);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64, y: f64, z: f32, c: Color) -> Vertex {
        Vertex { x, y, z, color: c }
    }

    #[test]
    fn triangle_covers_interior() {
        let mut fb = Framebuffer::new(16, 16);
        fill_triangle(
            &mut fb,
            v(0.0, 0.0, 0.5, Color::WHITE),
            v(15.0, 0.0, 0.5, Color::WHITE),
            v(0.0, 15.0, 0.5, Color::WHITE),
        );
        // Roughly half the square, definitely the inner corner.
        assert!(fb.covered_pixels() > 60, "covered {}", fb.covered_pixels());
        assert_eq!(fb.pixel(2, 2), Color::WHITE);
        assert_eq!(fb.pixel(15, 15), Color::TRANSPARENT);
    }

    #[test]
    fn winding_order_does_not_matter() {
        let a = v(1.0, 1.0, 0.1, Color::WHITE);
        let b = v(12.0, 2.0, 0.1, Color::WHITE);
        let c = v(4.0, 13.0, 0.1, Color::WHITE);
        let mut f1 = Framebuffer::new(16, 16);
        fill_triangle(&mut f1, a, b, c);
        let mut f2 = Framebuffer::new(16, 16);
        fill_triangle(&mut f2, c, b, a);
        assert_eq!(f1.covered_pixels(), f2.covered_pixels());
    }

    #[test]
    fn depth_interpolates_between_vertices() {
        let mut fb = Framebuffer::new(10, 3);
        fill_triangle(
            &mut fb,
            v(0.0, 0.0, 0.0, Color::WHITE),
            v(10.0, 0.0, 1.0, Color::WHITE),
            v(0.0, 3.0, 0.0, Color::WHITE),
        );
        let d_left = fb.depth()[0];
        let d_right = fb.depth()[8];
        assert!(d_left < d_right, "{d_left} < {d_right}");
    }

    #[test]
    fn gouraud_color_gradient() {
        let mut fb = Framebuffer::new(11, 4);
        fill_triangle(
            &mut fb,
            v(0.0, 0.0, 0.5, Color::rgb(0, 0, 0)),
            v(11.0, 0.0, 0.5, Color::rgb(250, 0, 0)),
            v(0.0, 4.0, 0.5, Color::rgb(0, 0, 0)),
        );
        assert!(fb.pixel(1, 0).r < fb.pixel(9, 0).r);
    }

    #[test]
    fn degenerate_triangle_is_noop() {
        let mut fb = Framebuffer::new(8, 8);
        let p = v(3.0, 3.0, 0.5, Color::WHITE);
        fill_triangle(&mut fb, p, p, p);
        assert_eq!(fb.covered_pixels(), 0);
    }

    #[test]
    fn adjacent_runs_share_no_pixel_and_leave_no_gap() {
        // Cells meeting at a shared edge split the pixels between them.
        for edge in [4.0, 3.5, 3.25, 0.0, 8.0] {
            let (left, right) = (centres_in(0.0, edge, 8), centres_in(edge, 8.0, 8));
            assert_eq!(
                (left.start, left.end, right.end),
                (0, right.start, 8),
                "{edge}"
            );
        }
    }

    #[test]
    fn runs_are_the_pixel_centre_test() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // Quarter-pixel ends, so centres land on them too, and ends off
        // both sides of the image.
        for _ in 0..2000 {
            let n = rng.gen_range(1..12);
            let mut end = || rng.gen_range(-12..4 * n as i64 + 12) as f64 / 4.0;
            let (a, b) = (end(), end());
            let inside: Vec<usize> = (0..n)
                .filter(|&p| (a..b).contains(&(p as f64 + 0.5)))
                .collect();
            let run = centres_in(a, b, n);
            assert_eq!(run.clone().collect::<Vec<_>>(), inside, "{a} {b} {n}");
            assert!(run.end <= n, "{a} {b} {n}: {run:?}");
        }
    }

    #[test]
    fn triangle_marks_its_clipped_box() {
        let mut fb = Framebuffer::new(16, 16);
        fill_triangle(
            &mut fb,
            v(-4.0, 2.0, 0.5, Color::WHITE),
            v(9.5, 2.0, 0.5, Color::WHITE),
            v(3.0, 30.0, 0.5, Color::WHITE),
        );
        assert_eq!(
            (fb.drawn().cols.clone(), fb.drawn().rows.clone()),
            (0..10, 2..16)
        );
        fb.assert_clear_outside_drawn();
    }

    #[test]
    fn runs_clip_to_the_image() {
        assert_eq!(centres_in(-5.0, 100.0, 4), 0..4);
        assert_eq!(centres_in(-5.0, 0.75, 4), 0..1);
        assert_eq!(centres_in(3.6, 100.0, 4), 4..4);
        assert!(centres_in(-5.0, -1.0, 4).is_empty());
    }
}
