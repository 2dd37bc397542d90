//! RGB + depth framebuffers, the rectangle drawn since one was taken,
//! the depth-merge the parallel compositors apply to them, and the one
//! buffer each rank draws its frames into.
//!
//! A pixel is its colour and its depth, 7 B: it is covered iff its depth
//! is below +∞ (`covered`), so no alpha byte is stored. A clear pixel
//! is black at +∞ and loses every merge, the nearer fragment wins, and
//! the encoders put the background where the depth is +∞. `Color` keeps
//! its alpha for the colormaps; every colour drawn is opaque, and no
//! fragment is drawn at +∞ or NaN (`z < depth` rejects both).
//!
//! A buffer holds a rectangle of its image, columns × rows
//! (`Framebuffer::cols`, `Framebuffer::rows`; all of it for
//! [`Framebuffer::new`]): a compositing rank's frame holds every column
//! of the rows it keeps, `w · kept rows · 7` B, a strip it gives away
//! holds the drawn columns of the strip's rows, and a rasterizer draws
//! only into the pixels a buffer holds. A rank keeps one
//! spare framebuffer in its communicator's pool (`minimpi::Comm::keep`).
//! `Framebuffer::take` hands it out cleared, at any size and band
//! within its capacity (grown to the new extent exactly when it falls
//! short), and `Framebuffer::park` puts a buffer back when the frame is
//! encoded, keeping the larger of the two. Catalyst's 540 rows of
//! 1920 and Libsim's 1024×1024 frame are drawn into the same memory:
//! after the first frame no rank faults a frame in.

use std::ops::Range;

use minimpi::{Comm, Wire};

use crate::color::Color;

/// A pixel rectangle `cols` × `rows`, half-open; every empty one is
/// `Rect::default()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Rect {
    pub(crate) cols: Range<usize>,
    pub(crate) rows: Range<usize>,
}

impl Rect {
    pub(crate) fn new(cols: Range<usize>, rows: Range<usize>) -> Rect {
        if cols.is_empty() || rows.is_empty() {
            return Rect::default();
        }
        Rect { cols, rows }
    }

    fn is_empty(&self) -> bool {
        self.cols.is_empty() || self.rows.is_empty()
    }

    /// The smallest rectangle holding both.
    pub(crate) fn union(&self, other: &Rect) -> Rect {
        match (self.is_empty(), other.is_empty()) {
            (_, true) => self.clone(),
            (true, false) => other.clone(),
            (false, false) => Rect {
                cols: self.cols.start.min(other.cols.start)..self.cols.end.max(other.cols.end),
                rows: self.rows.start.min(other.rows.start)..self.rows.end.max(other.rows.end),
            },
        }
    }

    /// Its part inside `rows`.
    pub(crate) fn within_rows(&self, rows: Range<usize>) -> Rect {
        let start = self.rows.start.max(rows.start);
        Rect::new(
            self.cols.clone(),
            start..self.rows.end.min(rows.end).max(start),
        )
    }
}

/// A colour+depth image, or the rectangle of it a rank holds. Depth
/// follows the convention "smaller is closer"; empty pixels carry
/// `f32::INFINITY` depth and black, so depth-compositing two partial
/// images is associative.
///
/// `width` × `height` is the image's size, and the buffer holds its
/// pixels `cols` × `rows`: a compositing rank's frame is every column
/// of the rows its algorithm leaves it (`Compositor::kept_rows`), a
/// band moved to the root every column of its rows alone, and a strip
/// given away the drawn columns of its rows. Pixel `(x, y)` is
/// addressed in the image's coordinates, inside the rectangle held.
///
/// The buffer records the rectangle of the image drawn since it was
/// taken, in image coordinates too: every pixel it holds outside it is
/// clear. The record may reach past the pixels held (a rank records
/// the whole plot it drew, of which it keeps a band); compositing
/// ships and merges only its part in the rows at hand, and
/// `Framebuffer::take` re-arms only that part. Equality compares the
/// pixels held, not the record.
#[derive(Clone, Debug)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    cols: Range<usize>,
    rows: Range<usize>,
    /// RGB8, row-major from the top-left of `cols` × `rows`.
    color: Vec<[u8; 3]>,
    depth: Vec<f32>,
    drawn: Rect,
}

impl PartialEq for Framebuffer {
    fn eq(&self, other: &Self) -> bool {
        (self.width, self.height, &self.cols, &self.rows)
            == (other.width, other.height, &other.cols, &other.rows)
            && self.color == other.color
            && self.depth == other.depth
    }
}

/// A buffer ships the pixels it holds, 7 B each: RGB and depth.
impl Wire for Framebuffer {
    fn heap_bytes(&self) -> usize {
        size_of_val(self.color.as_slice()) + size_of_val(self.depth.as_slice())
    }
}

/// The coverage rule: a pixel is drawn iff its depth is below +∞.
#[inline]
pub(crate) fn covered(depth: f32) -> bool {
    depth < f32::INFINITY
}

/// The depth rule: the nearer fragment wins. A clear pixel sits at +∞
/// and loses to anything; of two equal depths the one held stays.
#[inline]
fn merge_pixel(color: &mut [u8; 3], depth: &mut f32, c: [u8; 3], d: f32) {
    if d < *depth {
        *color = c;
        *depth = d;
    }
}

/// Rows `a` and `b` share.
pub(crate) fn overlap(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let start = a.start.max(b.start);
    start..a.end.min(b.end).max(start)
}

impl Framebuffer {
    /// A cleared framebuffer (black, infinitely far).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate framebuffer");
        Framebuffer::with_rows(width, height, 0..height)
    }

    /// A cleared buffer of every column of the rows `rows` of a `width`
    /// × `height` image; one of no rows holds no memory.
    pub(crate) fn with_rows(width: usize, height: usize, rows: Range<usize>) -> Self {
        assert!(rows.end <= height, "rows {rows:?} outside {height}");
        let n = width * rows.len();
        Framebuffer {
            width,
            height,
            cols: 0..width,
            rows,
            color: vec![[0; 3]; n],
            depth: vec![f32::INFINITY; n],
            drawn: Rect::default(),
        }
    }

    /// A cleared buffer of the rows `rows` of a `width` × `height` image
    /// in the memory of the spare buffer `comm`'s rank keeps, or a new
    /// one if it keeps none: what a renderer that draws a frame a step
    /// calls instead of [`Framebuffer::new`], so that the pages are
    /// faulted in once. A buffer of no rows is not taken: it holds
    /// nothing, and the spare stays for the rank's next frame.
    pub(crate) fn take(comm: &Comm, width: usize, height: usize, rows: Range<usize>) -> Self {
        assert!(width > 0 && height > 0, "degenerate framebuffer");
        let spare = (!rows.is_empty()).then(|| comm.spare::<Framebuffer>());
        match spare.flatten() {
            Some(mut fb) => {
                fb.rearm(width, height, Rect::new(0..width, rows));
                fb
            }
            None => Framebuffer::with_rows(width, height, rows),
        }
    }

    /// Make this buffer, whatever its size, a cleared buffer of the
    /// pixels `held` of a `width` × `height` image. Its drawn rectangle
    /// is cleared where it lies inside the new extent's pixels, and the
    /// pixels are resized to the new extent, within the capacity when it
    /// suffices and to the extent exactly when not: every pixel the new
    /// buffer has is then clear.
    pub(crate) fn rearm(&mut self, width: usize, height: usize, held: Rect) {
        assert!(
            held.cols.end <= width && held.rows.end <= height,
            "{held:?} outside {width} × {height}"
        );
        let n = held.cols.len() * held.rows.len();
        let drawn = std::mem::take(&mut self.drawn);
        let Rect { cols, rows } = Rect::new(
            overlap(&drawn.cols, &self.cols),
            overlap(&drawn.rows, &self.rows),
        );
        for y in rows {
            let at = self.at(cols.start, y);
            let at = at.min(n)..(at + cols.len()).min(n);
            self.color[at.clone()].fill([0; 3]);
            self.depth[at].fill(f32::INFINITY);
        }
        self.color.truncate(n);
        self.depth.truncate(n);
        self.color.reserve_exact(n - self.color.len());
        self.depth.reserve_exact(n - self.depth.len());
        self.color.resize(n, [0; 3]);
        self.depth.resize(n, f32::INFINITY);
        (self.width, self.height) = (width, height);
        (self.cols, self.rows) = (held.cols, held.rows);
    }

    /// Give this buffer back as the spare `comm`'s rank keeps, once its
    /// frame is encoded; of it and a spare already parked, the larger
    /// stays.
    pub(crate) fn park(self, comm: &Comm) {
        let keep = match comm.spare::<Framebuffer>() {
            Some(spare) if spare.color.capacity() > self.color.capacity() => spare,
            _ => self,
        };
        comm.keep(keep, 1);
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the image in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The columns of the image this buffer holds.
    pub(crate) fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// The rows of the image this buffer holds.
    pub(crate) fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Where pixel `(x, y)` of the image lies in the pixel planes; `x`
    /// may be the end of the columns held, `y` the end of the rows.
    fn at(&self, x: usize, y: usize) -> usize {
        debug_assert!((self.cols.start..=self.cols.end).contains(&x));
        debug_assert!((self.rows.start..=self.rows.end).contains(&y));
        (y - self.rows.start) * self.cols.len() + x - self.cols.start
    }

    /// RGB8 pixels of the rectangle held, row-major from its top-left;
    /// where the depth is +∞ the pixel is clear, and black.
    pub fn color(&self) -> &[[u8; 3]] {
        &self.color
    }

    /// Per-pixel depth, in the order of [`Framebuffer::color`].
    pub fn depth(&self) -> &[f32] {
        &self.depth
    }

    /// The rectangle drawn since the buffer was taken.
    pub(crate) fn drawn(&self) -> &Rect {
        &self.drawn
    }

    /// Widen the drawn rectangle by `cols` × `rows`, clipped to the
    /// image by the caller: a rasterizer marks its box inside the rows
    /// held once and then writes inside it with [`Framebuffer::plot`]
    /// or [`Framebuffer::fill_rows`].
    pub(crate) fn mark(&mut self, cols: Range<usize>, rows: Range<usize>) {
        let rect = Rect::new(cols, rows);
        debug_assert!(rect.cols.end <= self.width && rect.rows.end <= self.height);
        self.drawn = self.drawn.union(&rect);
    }

    /// Write a pixel if it wins the depth test; a pixel outside the
    /// rectangle held is not this buffer's.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, z: f32, c: Color) {
        if !self.cols.contains(&x) || !self.rows.contains(&y) {
            return;
        }
        self.mark(x..x + 1, y..y + 1);
        self.plot(x, y, z, c);
    }

    /// [`Framebuffer::set_pixel`] inside the marked rectangle.
    #[inline]
    pub(crate) fn plot(&mut self, x: usize, y: usize, z: f32, c: Color) {
        debug_assert!(self.drawn.cols.contains(&x) && self.drawn.rows.contains(&y));
        let i = self.at(x, y);
        if z < self.depth[i] {
            self.depth[i] = z;
            self.color[i] = [c.r, c.g, c.b];
        }
    }

    /// Fill `rows` (not empty, clear where filled, marked) with `spans`
    /// of colour at depth `z`, left to right, in the first row and by copy
    /// in the others, with no depth test. Returns the rows copied.
    pub(crate) fn fill_rows(
        &mut self,
        rows: Range<usize>,
        z: f32,
        spans: impl Iterator<Item = (Range<usize>, [u8; 3])>,
    ) -> usize {
        let mut filled: Option<Range<usize>> = None;
        for (cols, rgb) in spans.filter(|(cols, _)| !cols.is_empty()) {
            let at = self.at(cols.start, rows.start);
            debug_assert!(self.depth[at..at + cols.len()].iter().all(|&d| !covered(d)));
            self.color[at..at + cols.len()].fill(rgb);
            self.depth[at..at + cols.len()].fill(z);
            filled = Some(filled.map_or(cols.start, |f| f.start)..cols.end);
        }
        let Some(filled) = filled else {
            return 0;
        };
        debug_assert!(Rect::new(filled.clone(), rows.clone()).union(&self.drawn) == self.drawn);
        let (from, n) = (self.at(filled.start, rows.start), filled.len());
        for y in rows.start + 1..rows.end {
            let to = self.at(filled.start, y);
            debug_assert!(self.depth[to..to + n].iter().all(|&d| !covered(d)));
            self.color.copy_within(from..from + n, to);
            self.depth.copy_within(from..from + n, to);
        }
        rows.len() - 1
    }

    /// Read a pixel of the rectangle held: opaque where it is covered,
    /// transparent elsewhere.
    pub fn pixel(&self, x: usize, y: usize) -> Color {
        let i = self.at(x, y);
        let [r, g, b] = self.color[i];
        let a = if covered(self.depth[i]) { 255 } else { 0 };
        Color { r, g, b, a }
    }

    /// Depth-composite `other`, whose rectangle of an image of the same
    /// size this buffer holds too, into `self`: per pixel, keep the
    /// closer fragment; clear pixels, at +∞, lose to anything. Only
    /// `other`'s drawn rectangle is visited: nothing else of it can win.
    ///
    /// This is the merge operator of the parallel compositors. It is
    /// commutative for opaque geometry and associative, as binary swap
    /// requires.
    pub fn composite_from(&mut self, other: &Framebuffer) {
        self.composite_rows_from(other, other.rows());
    }

    /// [`Framebuffer::composite_from`] inside `rows` alone, which both
    /// buffers hold, and inside the columns this buffer holds: the one
    /// row-merge path, whether `other` is a strip that came in, a plot
    /// merged where it lies, or a frame copied into a strip going out.
    pub(crate) fn composite_rows_from(&mut self, other: &Framebuffer, rows: Range<usize>) {
        assert_eq!(self.width, other.width, "composite: width mismatch");
        assert_eq!(self.height, other.height, "composite: height mismatch");
        let held = |a: &Range<usize>| rows.is_empty() || overlap(&rows, a) == rows;
        assert!(
            held(&self.rows) && held(&other.rows),
            "composite: rows {rows:?} not in both buffers"
        );
        let drawn = other.drawn.within_rows(rows);
        let cols = overlap(&overlap(&drawn.cols, &other.cols), &self.cols);
        let rect = Rect::new(cols, drawn.rows);
        self.drawn = self.drawn.union(&rect);
        let n = rect.cols.len();
        for y in rect.rows.clone() {
            let (to, from) = (self.at(rect.cols.start, y), other.at(rect.cols.start, y));
            let mine = self.color[to..to + n]
                .iter_mut()
                .zip(&mut self.depth[to..to + n]);
            let theirs = other.color[from..from + n]
                .iter()
                .zip(&other.depth[from..from + n]);
            for ((color, depth), (&c, &d)) in mine.zip(theirs) {
                merge_pixel(color, depth, c, d);
            }
        }
    }

    /// Count of covered pixels held, those at a finite depth
    /// (diagnostics and tests).
    pub fn covered_pixels(&self) -> usize {
        self.depth.iter().filter(|&&d| covered(d)).count()
    }

    /// A copy of the rows `[y0, y1)`, as a buffer of those rows alone
    /// (the gather moves finished bands).
    pub(crate) fn extract_rows(&self, y0: usize, y1: usize) -> Framebuffer {
        assert!(
            y0 < y1 && overlap(&(y0..y1), &self.rows) == (y0..y1),
            "bad band [{y0}, {y1})"
        );
        let at = self.at(self.cols.start, y0)..self.at(self.cols.start, y1);
        Framebuffer {
            width: self.width,
            height: self.height,
            cols: self.cols.clone(),
            rows: y0..y1,
            color: self.color[at.clone()].to_vec(),
            depth: self.depth[at].to_vec(),
            drawn: self.drawn.within_rows(y0..y1),
        }
    }

    /// Paste the rows `rows` of `band`, a buffer of an image of this
    /// width that holds them and these columns, over this buffer's.
    pub(crate) fn paste_rows(&mut self, band: &Framebuffer, rows: Range<usize>) {
        assert!(
            (band.width, &band.cols) == (self.width, &self.cols),
            "paste: width mismatch"
        );
        assert!(
            overlap(&rows, &self.rows) == rows && overlap(&rows, &band.rows) == rows,
            "paste: rows {rows:?} not in both buffers"
        );
        let (to, from) = (
            self.at(self.cols.start, rows.start),
            band.at(band.cols.start, rows.start),
        );
        let n = rows.len() * self.cols.len();
        self.color[to..to + n].copy_from_slice(&band.color[from..from + n]);
        self.depth[to..to + n].copy_from_slice(&band.depth[from..from + n]);
        let Rect { cols, rows } = band.drawn.within_rows(rows);
        self.mark(cols, rows);
    }
}

/// The merge rule of frames that stored an alpha byte: a transparent
/// fragment loses to anything, else the closer one wins. The oracle the
/// coverage rule is held to (`composite`'s tests).
#[cfg(test)]
pub(crate) fn merge_rgba_pixel(color: &mut [u8; 4], depth: &mut f32, c: [u8; 4], d: f32) {
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

#[cfg(test)]
impl Framebuffer {
    /// Bytes its pixel planes hold, colour and depth.
    pub(crate) fn pixel_bytes(&self) -> usize {
        self.color.capacity() * std::mem::size_of::<[u8; 3]>()
            + self.depth.capacity() * std::mem::size_of::<f32>()
    }

    /// The address of the pixels of the spare framebuffer `comm`'s rank
    /// keeps, if it keeps one.
    pub(crate) fn spare_at(comm: &Comm) -> Option<usize> {
        let spare = comm.spare::<Framebuffer>()?;
        let at = spare.color.as_ptr() as usize;
        comm.keep(spare, 1);
        Some(at)
    }

    /// The record's promise: every pixel outside the drawn rectangle is
    /// clear.
    pub(crate) fn assert_clear_outside_drawn(&self) {
        for y in self.rows() {
            for x in self.cols() {
                if !(self.drawn.cols.contains(&x) && self.drawn.rows.contains(&y)) {
                    let i = self.at(x, y);
                    assert_eq!(
                        (self.color[i], self.depth[i]),
                        ([0; 3], f32::INFINITY),
                        "({x}, {y}) outside {:?}",
                        self.drawn
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;

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
    fn set_pixel_grows_the_drawn_rectangle() {
        let mut fb = Framebuffer::new(6, 5);
        assert!(fb.drawn().is_empty());
        fb.set_pixel(4, 1, 0.5, Color::WHITE);
        assert_eq!(fb.drawn, Rect::new(4..5, 1..2));
        fb.set_pixel(2, 3, 0.5, Color::WHITE);
        fb.set_pixel(9, 9, 0.5, Color::WHITE); // off the image: no mark
        assert_eq!(fb.drawn, Rect::new(2..5, 1..4));
        fb.assert_clear_outside_drawn();
    }

    /// Draw a `cols` × `rows` block, clipped to the image, as a
    /// rasterizer does: mark it, then fill it.
    fn draw(fb: &mut Framebuffer, cols: Range<usize>, rows: Range<usize>, c: Color) {
        let cols = cols.start.min(fb.width)..cols.end.min(fb.width);
        let rows = overlap(&rows, &fb.rows());
        fb.mark(cols.clone(), rows.clone());
        if !rows.is_empty() {
            fb.fill_rows(rows, 0.5, std::iter::once((cols, [c.r, c.g, c.b])));
        }
    }

    #[test]
    fn taken_buffer_is_a_new_one_in_the_spare_memory_at_any_size() {
        World::run(1, |comm| {
            let mut used = Framebuffer::take(comm, 7, 5, 0..5);
            draw(&mut used, 1..6, 2..5, Color::rgb(9, 8, 7));
            let at = used.color.as_ptr();
            used.park(comm);
            // A smaller frame after a larger one: the same allocation, and
            // a new buffer pixel for pixel.
            let mut small = Framebuffer::take(comm, 3, 4, 0..4);
            assert_eq!(small, Framebuffer::new(3, 4), "colour and depth re-armed");
            assert!(small.drawn().is_empty());
            assert_eq!(small.color.as_ptr(), at, "no new allocation");
            // And back: what the small frame drew is cleared too.
            draw(&mut small, 0..3, 1..4, Color::WHITE);
            small.park(comm);
            let again = Framebuffer::take(comm, 7, 5, 0..5);
            assert_eq!(again, Framebuffer::new(7, 5));
            assert_eq!(again.color.as_ptr(), at);
            again.assert_clear_outside_drawn();
            // Of two parked buffers the larger stays.
            again.park(comm);
            Framebuffer::new(2, 2).park(comm);
            assert_eq!(Framebuffer::take(comm, 1, 1, 0..1).color.as_ptr(), at);
            assert_eq!(
                Framebuffer::take(comm, 1, 1, 0..1),
                Framebuffer::new(1, 1),
                "none left"
            );
        });
    }

    #[test]
    fn a_taken_full_hd_frame_holds_seven_bytes_a_pixel() {
        World::run(1, |comm| {
            let (w, h) = (1920, 1080);
            let fb = Framebuffer::take(comm, w, h, 0..h);
            assert_eq!(fb.pixel_bytes(), w * h * 7);
            fb.park(comm);
            // Through a smaller frame and back, the same planes.
            Framebuffer::take(comm, 1024, 1024, 0..1024).park(comm);
            let fb = Framebuffer::take(comm, w, h, 0..h);
            assert_eq!(fb.pixel_bytes(), w * h * 7);
            assert_eq!(fb.pixel_bytes(), 14_515_200);
        });
    }

    proptest::proptest! {
        /// Any sequence of sizes, bands of rows and drawn blocks through
        /// the one spare: each buffer taken is a new one, and it is drawn
        /// into as one. Some record a drawn rectangle reaching past their
        /// rows, as a rank records the whole plot it drew a band of.
        #[test]
        fn any_frames_through_the_spare_are_new_frames(
            frames in proptest::collection::vec(
                (
                    ((1usize..24, 1usize..24), (0usize..24, 0usize..24)),
                    ((0usize..30, 0usize..30), (0usize..30, 0usize..30)),
                    proptest::prelude::any::<bool>(),
                ),
                1..12,
            ),
        ) {
            World::run(1, move |comm| {
                for &(((w, h), (r0, r1)), ((x0, x1), (y0, y1)), wide) in &frames {
                    let band = r0.min(r1).min(h)..r0.max(r1).min(h);
                    let mut fb = Framebuffer::take(comm, w, h, band.clone());
                    proptest::prop_assert!(fb == Framebuffer::with_rows(w, h, band.clone()));
                    proptest::prop_assert!(fb.drawn().is_empty());
                    let (cols, rows) = (x0.min(x1)..x0.max(x1), y0.min(y1)..y0.max(y1));
                    draw(&mut fb, cols.clone(), rows.clone(), Color::rgb(w as u8, h as u8, 1));
                    if wide {
                        fb.mark(0..w, 0..h);
                    }
                    let mut want = Framebuffer::with_rows(w, h, band.clone());
                    draw(&mut want, cols, rows, Color::rgb(w as u8, h as u8, 1));
                    proptest::prop_assert!(fb == want);
                    fb.assert_clear_outside_drawn();
                    fb.park(comm);
                }
            });
        }
    }

    #[test]
    fn a_band_holds_its_rows_alone_and_grows_to_a_larger_one_exactly() {
        World::run(1, |comm| {
            // Catalyst's lower 540 rows of 1920, then Libsim's whole
            // 1024² image in the same spare, grown to it exactly, not to
            // twice the band; then the band again, in that memory.
            let band = Framebuffer::take(comm, 1920, 1080, 540..1080);
            assert_eq!(band.pixel_bytes(), 1920 * 540 * 7);
            assert_eq!((band.height(), band.color().len()), (1080, 1920 * 540));
            band.park(comm);
            let whole = Framebuffer::take(comm, 1024, 1024, 0..1024);
            assert_eq!(whole.pixel_bytes(), 7_340_032);
            let at = whole.color.as_ptr();
            whole.park(comm);
            let band = Framebuffer::take(comm, 1920, 1080, 0..540);
            assert_eq!((band.pixel_bytes(), band.color.as_ptr()), (7_340_032, at));
            // A buffer of no rows holds nothing, and leaves the spare in
            // the pool.
            band.park(comm);
            let none = Framebuffer::take(comm, 1024, 1024, 0..0);
            assert_eq!(none.pixel_bytes(), 0);
            assert_eq!(Framebuffer::spare_at(comm), Some(at as usize));
            none.park(comm);
            assert_eq!(Framebuffer::spare_at(comm), Some(at as usize));
        });
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
        assert_eq!(ab.drawn, Rect::new(0..3, 0..1));
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
        assert_eq!((band.height(), band.rows()), (4, 1..3));
        assert_eq!(band.drawn, Rect::new(0..1, 1..3));
        assert_eq!(band.pixel(0, 2), Color::rgb(2, 0, 0));
        let mut fresh = Framebuffer::new(2, 4);
        fresh.paste_rows(&band, band.rows());
        assert_eq!(fresh.pixel(0, 1), Color::rgb(1, 0, 0));
        assert_eq!(fresh.pixel(0, 2), Color::rgb(2, 0, 0));
        assert_eq!(fresh.pixel(0, 0), Color::TRANSPARENT);
        assert_eq!(fresh.drawn, Rect::new(0..1, 1..3));
        fresh.assert_clear_outside_drawn();
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn composite_size_mismatch_panics() {
        let mut a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(3, 2);
        a.composite_from(&b);
    }

    #[test]
    #[should_panic(expected = "height mismatch")]
    fn composite_height_mismatch_panics() {
        let mut a = Framebuffer::new(2, 4);
        a.composite_from(&Framebuffer::new(2, 3));
    }

    /// The drawn pixels of `fb` inside `rows`, copied into a buffer of
    /// that rectangle alone, as a strip given away from a frame is.
    fn strip(fb: &Framebuffer, rows: Range<usize>) -> Framebuffer {
        let mut strip = Framebuffer::with_rows(1, 1, 0..0);
        strip.rearm(fb.width, fb.height, fb.drawn.within_rows(rows));
        strip.composite_rows_from(fb, strip.rows());
        strip
    }

    #[test]
    fn a_strip_holds_the_drawn_pixels_of_its_rows_and_merges_as_the_frame() {
        let mut full = Framebuffer::new(5, 6);
        for y in 0..6 {
            full.set_pixel(1, y, 0.5, Color::rgb(y as u8 + 1, 0, 0));
        }
        let mut other = Framebuffer::new(5, 6);
        other.set_pixel(1, 2, 0.2, Color::rgb(50, 0, 0)); // closer: wins row 2
        other.set_pixel(1, 3, 0.9, Color::rgb(60, 0, 0)); // farther: loses row 3
        other.set_pixel(3, 3, 0.9, Color::rgb(70, 0, 0)); // over empty: wins
        other.set_pixel(2, 5, 0.1, Color::rgb(80, 0, 0)); // outside the rows sent
        let sent = strip(&other, 1..4);
        assert_eq!((sent.cols(), sent.rows()), (1..4, 2..4));
        assert_eq!((sent.color.len(), sent.pixel_bytes()), (6, 6 * 7));
        assert_eq!(sent.drawn, Rect::new(1..4, 2..4));
        let mut merged = full.clone();
        merged.composite_from(&sent);
        assert_eq!(merged.pixel(1, 2), Color::rgb(50, 0, 0));
        assert_eq!(merged.pixel(1, 3), Color::rgb(4, 0, 0));
        assert_eq!(merged.pixel(3, 3), Color::rgb(70, 0, 0));
        assert_eq!(merged.pixel(2, 5), Color::TRANSPARENT);
        merged.assert_clear_outside_drawn();
        // Rows 1..4 are the frame merge's; the others are untouched.
        let mut want = full.clone();
        want.composite_from(&other);
        for y in 0..6 {
            for x in 0..5 {
                let from = if (1..4).contains(&y) { &want } else { &full };
                assert_eq!(merged.pixel(x, y), from.pixel(x, y), "({x}, {y})");
            }
        }
        // Rows with nothing drawn send an empty buffer, which merges as
        // nothing.
        let empty = strip(&other, 0..2);
        assert_eq!((empty.drawn(), empty.color.len()), (&Rect::default(), 0));
        let before = merged.clone();
        merged.composite_from(&empty);
        assert_eq!((&merged, &merged.drawn), (&before, &before.drawn));
    }

    #[test]
    fn a_strip_rearmed_at_another_rectangle_is_clear() {
        // A strip's memory goes out again holding other columns and
        // rows: every pixel it then holds is clear, and pixels address
        // the new rectangle.
        let mut fb = Framebuffer::new(9, 7);
        fb.mark(0..9, 0..7);
        for y in 0..7 {
            fb.fill_rows(y..y + 1, 0.5, std::iter::once((0..9, [y as u8, 1, 2])));
        }
        let mut s = strip(&fb, 2..5);
        assert_eq!((s.cols(), s.rows(), s.covered_pixels()), (0..9, 2..5, 27));
        s.rearm(9, 7, Rect::new(3..5, 1..7));
        assert_eq!(s, {
            let mut want = Framebuffer::with_rows(1, 1, 0..0);
            want.rearm(9, 7, Rect::new(3..5, 1..7));
            want
        });
        assert_eq!(s.covered_pixels(), 0);
        s.composite_rows_from(&fb, 1..7);
        assert_eq!(
            (s.pixel(3, 6), s.pixel(4, 1)),
            (fb.pixel(3, 6), fb.pixel(4, 1))
        );
        s.assert_clear_outside_drawn();
    }

    #[test]
    fn take_rearms_the_drawn_rectangle_only() {
        World::run(1, |comm| {
            let mut fb = Framebuffer::new(4, 4);
            fb.mark(1..3, 1..4);
            fb.fill_rows(2..3, 0.5, std::iter::once((1..3, [255; 3])));
            fb.plot(1, 3, 0.5, Color::WHITE);
            assert_eq!(fb.covered_pixels(), 3);
            // A pixel outside the record is not the take's to clear.
            (fb.color[0], fb.depth[0]) = ([1; 3], 0.25);
            fb.park(comm);
            let fb = Framebuffer::take(comm, 4, 4, 0..4);
            assert_eq!((fb.color[0], fb.depth[0]), ([1; 3], 0.25));
            assert_eq!(fb.covered_pixels(), 1);
            assert!(fb.drawn().is_empty());
        });
    }
}
