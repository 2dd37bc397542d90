//! RGBA + depth framebuffers and the blending/compositing primitives.

use crate::color::Color;

/// A color+depth image. Depth follows the convention "smaller is
/// closer"; empty pixels carry `f32::INFINITY` depth and transparent
/// color, so depth-compositing two partial images is associative.
#[derive(Clone, Debug, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// RGBA8, row-major from the top-left.
    pub color: Vec<[u8; 4]>,
    /// Per-pixel depth.
    pub depth: Vec<f32>,
}

impl Framebuffer {
    /// A cleared framebuffer (transparent, infinitely far).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate framebuffer");
        Framebuffer {
            width,
            height,
            color: vec![[0, 0, 0, 0]; width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    /// A cleared `width` × `height` framebuffer in `kept`'s memory when
    /// that has the size, a new one otherwise: what a renderer that
    /// draws a frame a step calls instead of [`Framebuffer::new`], so
    /// that the pages are faulted in once.
    pub fn recycle(kept: Option<Framebuffer>, width: usize, height: usize) -> Self {
        match kept {
            Some(mut fb) if (fb.width, fb.height) == (width, height) => {
                fb.clear(None);
                fb
            }
            _ => Framebuffer::new(width, height),
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Clear to transparent/far, optionally with a background color at
    /// infinite depth.
    pub fn clear(&mut self, background: Option<Color>) {
        let c = background.map(|c| [c.r, c.g, c.b, c.a]).unwrap_or([0; 4]);
        self.color.fill(c);
        self.depth.fill(f32::INFINITY);
    }

    /// Write a pixel if it wins the depth test.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, z: f32, c: Color) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = y * self.width + x;
        if z < self.depth[i] {
            self.depth[i] = z;
            self.color[i] = [c.r, c.g, c.b, c.a];
        }
    }

    /// Read a pixel.
    pub fn pixel(&self, x: usize, y: usize) -> Color {
        let i = y * self.width + x;
        let [r, g, b, a] = self.color[i];
        Color { r, g, b, a }
    }

    /// Depth-composite `other` into `self`: per pixel, keep the closer
    /// opaque fragment; transparent pixels lose to anything.
    ///
    /// This is the merge operator of the parallel compositors. It is
    /// commutative for opaque geometry and associative, as binary swap
    /// requires.
    pub fn composite_from(&mut self, other: &Framebuffer) {
        assert_eq!(self.height, other.height, "composite: height mismatch");
        self.composite_rows_from(0, other);
    }

    /// Depth-composite `band` into the rows starting at `y0`, in place
    /// (binary swap merges the half it receives into the half it keeps).
    pub fn composite_rows_from(&mut self, y0: usize, band: &Framebuffer) {
        assert_eq!(self.width, band.width, "composite: width mismatch");
        assert!(y0 + band.height <= self.height, "composite: band overflows");
        let rows = y0 * self.width..(y0 + band.height) * self.width;
        let mine = self.color[rows.clone()]
            .iter_mut()
            .zip(&mut self.depth[rows]);
        for ((color, depth), (&c, &d)) in mine.zip(band.color.iter().zip(&band.depth)) {
            let take_other = match (c[3], color[3]) {
                (0, _) => false,
                (_, 0) => true,
                _ => d < *depth,
            };
            if take_other {
                *color = c;
                *depth = d;
            }
        }
    }

    /// Count of non-transparent pixels (diagnostics and tests).
    pub fn covered_pixels(&self) -> usize {
        self.color.iter().filter(|p| p[3] != 0).count()
    }

    /// Extract a horizontal band of rows `[y0, y1)` (binary swap splits
    /// images into spans).
    pub fn extract_rows(&self, y0: usize, y1: usize) -> Framebuffer {
        assert!(y0 < y1 && y1 <= self.height, "bad band [{y0}, {y1})");
        Framebuffer {
            width: self.width,
            height: y1 - y0,
            color: self.color[y0 * self.width..y1 * self.width].to_vec(),
            depth: self.depth[y0 * self.width..y1 * self.width].to_vec(),
        }
    }

    /// Paste a band previously extracted at row `y0`.
    pub fn paste_rows(&mut self, y0: usize, band: &Framebuffer) {
        assert_eq!(band.width, self.width, "paste: width mismatch");
        assert!(y0 + band.height <= self.height, "paste: band overflows");
        let start = y0 * self.width;
        let n = band.color.len();
        self.color[start..start + n].copy_from_slice(&band.color);
        self.depth[start..start + n].copy_from_slice(&band.depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_test_keeps_closer_fragment() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set_pixel(1, 1, 0.5, Color::rgb(10, 0, 0));
        fb.set_pixel(1, 1, 0.9, Color::rgb(0, 10, 0)); // behind: rejected
        assert_eq!(fb.pixel(1, 1), Color::rgb(10, 0, 0));
        fb.set_pixel(1, 1, 0.1, Color::rgb(0, 0, 10)); // in front: wins
        assert_eq!(fb.pixel(1, 1), Color::rgb(0, 0, 10));
    }

    #[test]
    fn recycled_buffer_is_a_new_one_in_the_same_memory() {
        let mut used = Framebuffer::new(3, 2);
        used.set_pixel(1, 1, 0.25, Color::rgb(9, 8, 7));
        let at = used.color.as_ptr();
        let again = Framebuffer::recycle(Some(used), 3, 2);
        assert_eq!(again, Framebuffer::new(3, 2), "colour and depth re-armed");
        assert_eq!(again.color.as_ptr(), at, "no new allocation");
        // Another size cannot be reused.
        assert_eq!(
            Framebuffer::recycle(Some(again), 2, 3),
            Framebuffer::new(2, 3)
        );
        assert_eq!(Framebuffer::recycle(None, 1, 1), Framebuffer::new(1, 1));
    }

    #[test]
    fn out_of_bounds_writes_ignored() {
        let mut fb = Framebuffer::new(2, 2);
        fb.set_pixel(5, 0, 0.0, Color::WHITE);
        fb.set_pixel(0, 9, 0.0, Color::WHITE);
        assert_eq!(fb.covered_pixels(), 0);
    }

    #[test]
    fn composite_is_commutative_for_disjoint_and_overlapping() {
        let mut a = Framebuffer::new(3, 1);
        a.set_pixel(0, 0, 0.3, Color::rgb(1, 0, 0));
        a.set_pixel(1, 0, 0.5, Color::rgb(2, 0, 0));
        let mut b = Framebuffer::new(3, 1);
        b.set_pixel(1, 0, 0.2, Color::rgb(0, 3, 0)); // closer at x=1
        b.set_pixel(2, 0, 0.9, Color::rgb(0, 4, 0));

        let mut ab = a.clone();
        ab.composite_from(&b);
        let mut ba = b.clone();
        ba.composite_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.pixel(0, 0), Color::rgb(1, 0, 0));
        assert_eq!(ab.pixel(1, 0), Color::rgb(0, 3, 0));
        assert_eq!(ab.pixel(2, 0), Color::rgb(0, 4, 0));
    }

    #[test]
    fn composite_is_associative() {
        let mk = |x: usize, z: f32, c: u8| {
            let mut f = Framebuffer::new(4, 1);
            f.set_pixel(x, 0, z, Color::rgb(c, c, c));
            f
        };
        let (a, b, c) = (mk(0, 0.1, 1), mk(0, 0.2, 2), mk(0, 0.05, 3));
        let mut left = a.clone();
        left.composite_from(&b);
        left.composite_from(&c);
        let mut bc = b.clone();
        bc.composite_from(&c);
        let mut right = a.clone();
        right.composite_from(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn bands_roundtrip() {
        let mut fb = Framebuffer::new(2, 4);
        for y in 0..4 {
            fb.set_pixel(0, y, 0.1, Color::rgb(y as u8, 0, 0));
        }
        let band = fb.extract_rows(1, 3);
        assert_eq!(band.height(), 2);
        let mut fresh = Framebuffer::new(2, 4);
        fresh.paste_rows(1, &band);
        assert_eq!(fresh.pixel(0, 1), Color::rgb(1, 0, 0));
        assert_eq!(fresh.pixel(0, 2), Color::rgb(2, 0, 0));
        assert_eq!(fresh.pixel(0, 0), Color::TRANSPARENT);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn composite_size_mismatch_panics() {
        let mut a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(3, 2);
        a.composite_from(&b);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn composite_rows_width_mismatch_panics() {
        let mut a = Framebuffer::new(2, 4);
        a.composite_rows_from(1, &Framebuffer::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "band overflows")]
    fn composite_rows_overflowing_band_panics() {
        let mut a = Framebuffer::new(2, 4);
        a.composite_rows_from(3, &Framebuffer::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "height mismatch")]
    fn composite_height_mismatch_panics() {
        let mut a = Framebuffer::new(2, 4);
        a.composite_from(&Framebuffer::new(2, 3));
    }

    #[test]
    fn composite_rows_touches_only_its_band() {
        let mut full = Framebuffer::new(3, 5);
        for y in 0..5 {
            full.set_pixel(1, y, 0.5, Color::rgb(y as u8 + 1, 0, 0));
        }
        let mut band = Framebuffer::new(3, 2);
        band.set_pixel(1, 0, 0.2, Color::rgb(50, 0, 0)); // closer: wins row 2
        band.set_pixel(1, 1, 0.9, Color::rgb(60, 0, 0)); // farther: loses row 3
        band.set_pixel(0, 1, 0.9, Color::rgb(70, 0, 0)); // over empty: wins
        let mut merged = full.clone();
        merged.composite_rows_from(2, &band);
        // The same merge through a copy of the band's rows.
        let mut rows = full.extract_rows(2, 4);
        rows.composite_from(&band);
        let mut want = full.clone();
        want.paste_rows(2, &rows);
        assert_eq!(merged, want);
        assert_eq!(merged.pixel(1, 2), Color::rgb(50, 0, 0));
        assert_eq!(merged.pixel(1, 3), Color::rgb(4, 0, 0));
        assert_eq!(merged.pixel(0, 3), Color::rgb(70, 0, 0));
        assert_eq!(merged.pixel(1, 1), full.pixel(1, 1));
        assert_eq!(merged.pixel(1, 4), full.pixel(1, 4));
    }
}
