//! Parallel image compositing over `minimpi` — the "costly compositing
//! operation that involves communication of image-sized buffers among a
//! hierarchical set of ranks" (§4.1.3). Two algorithm families, matching
//! the paper's observation that Catalyst and Libsim use *different*
//! compositors with different scaling:
//!
//! * binary swap — log₂p rounds; partners exchange half their current
//!   span and composite the half they keep (Catalyst-like);
//! * direct-send tree — a fan-in tree of configurable arity; each
//!   parent composites its children's images (Libsim-like).
//!
//! What travels is never an image: a rank sends the part of its drawn
//! rectangle inside the rows it gives away, a strip at a time, each
//! strip a framebuffer of the drawn columns of its rows (RGB and depth,
//! 7 B a pixel; one that holds nothing when the rank drew nothing
//! there), and the receiver depth-merges it where it lies, through the
//! one row-merge path (`Framebuffer::composite_from`): the nearer
//! fragment wins. Every pixel outside the rectangle is clear, at depth
//! +∞, and loses to anything, so the result is the full-frame merge's,
//! bit for bit.
//!
//! Nor is an image held whole where a rank keeps less of it. A plot
//! reaches `merge` as a [`RowSource`]: drawn into any rectangle of the
//! image on demand. A rank's frame holds every column of the rows it
//! keeps (`Compositor::kept_rows`): under binary swap its half after the
//! first halving, the whole image on a rank a folded rank's image is
//! merged into; under the tree the whole image on the root and on a
//! node with children, and nothing on a leaf. A rank draws those rows
//! first, before it merges anything, so of two equal depths its own
//! fragment stays, as it did when every rank drew the whole image. The
//! rows it gives away from outside its frame — round 1's half, a folded
//! rank's or a leaf's image — are drawn strip by strip straight into
//! the buffer that goes out as the message, just before it is sent; the
//! rows it gives away from its frame are copied into it the same way,
//! the frame read as a `RowSource`. The rectangle a strip holds is the
//! whole plot's drawn rectangle inside its rows, so the strips are those
//! of a whole-image draw, byte for byte. The gathered [`composite`]
//! runs the same merge over a buffer already drawn, whose rows are
//! copied out as they are asked for.
//!
//! The rows a rank gives away are cut into strips of
//! `max(1, STRIP / width)` rows, so that a message spans at most
//! `STRIP` pixels of the image: swap partners alternate sending a strip
//! and merging one, and keep each strip they receive as the buffer a
//! later one goes out in; a tree child or a folded rank lends its
//! strips (`Comm::lend`, at most `CREDITS` out), and the receiver gives
//! each back once merged, so the next strip goes out in the buffer that
//! came back. Between frames the strips wait in the rank's pool
//! (`Comm::keep`, `CREDITS` of them): a warm frame allocates none. Both
//! sides count the strips from the rows and the width alone. A strip is
//! a point-to-point message of its wire bytes (`minimpi::Wire`): its
//! 128 B framebuffer and 7 B a pixel it holds; a strip given back is
//! one of its 136 B envelope, for its pixels do not travel back.
//!
//! Compositing is two steps. `merge` runs the algorithm and stops
//! where the finished pixels are: binary swap leaves each rank of the
//! power-of-two group the rows its halvings kept, the tree leaves all
//! of them on the root, and a rank that shipped its whole image — a
//! folded rank, a tree child — owns nothing (`Compositor::owned_rows`
//! is that rule, a function of the rank count and the height alone, so
//! every rank knows every rank's rows). The gather then moves the owned
//! rows to rank 0 as framebuffers: [`composite`] is gather ∘ merge and
//! returns the final image on rank 0 and `None` elsewhere. The
//! collective PNG encoder (`png::PngEncoder`) takes `merge`'s result as
//! it lies instead, and moves scanlines.

use std::ops::Range;

use minimpi::{Comm, Verdict, Wire};

use crate::framebuffer::{overlap, Framebuffer, Rect};

/// Tag space for compositing traffic.
const TAG_FOLD: u32 = 0x434F_0001;
const TAG_SWAP: u32 = 0x434F_0002;
const TAG_GATHER: u32 = 0x434F_0003;
const TAG_TREE: u32 = 0x434F_0004;

/// Pixels of the image one compositing message spans at most.
const STRIP: usize = 32 * 1024;
/// Strips a tree child or folded rank may have lent at once, and the
/// strips a rank keeps between frames.
const CREDITS: usize = 2;

/// A plot as compositing reads it: drawn into any rectangle of the
/// image, when it is needed.
pub(crate) trait RowSource {
    /// The rectangle of the image a draw of all its rows marks; every
    /// pixel outside it is clear.
    fn drawn(&self) -> &Rect;

    /// Draw its pixels inside the rectangle `fb` holds into `fb`, which
    /// is clear there.
    fn draw(&self, fb: &mut Framebuffer);
}

/// A buffer drawn already, holding every row asked of it, reads as its
/// rows: merged into a cleared buffer, a copy of them.
impl RowSource for Framebuffer {
    fn drawn(&self) -> &Rect {
        Framebuffer::drawn(self)
    }

    fn draw(&self, fb: &mut Framebuffer) {
        fb.composite_rows_from(self, fb.rows());
    }
}

/// A strip as it travels: a framebuffer of the drawn columns of the
/// strip's rows. Its own type, so that the strips a rank keeps wait in
/// its pool apart from its one frame (`Framebuffer::take`).
struct Strip(Framebuffer);

impl Wire for Strip {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

impl Default for Strip {
    fn default() -> Self {
        Strip(Framebuffer::with_rows(0, 0, 0..0))
    }
}

/// Where the strips a rank gives away come from.
enum Give<'a> {
    /// Its frame, which holds their rows; the rectangle is the one drawn
    /// in it when the round began.
    Frame(Rect),
    /// Its plot, drawn strip by strip.
    Plot(&'a dyn RowSource),
}

impl Give<'_> {
    /// Draw the strip `rows` of the image `fb` is a frame of into
    /// `strip`, which then holds the drawn columns of those rows.
    fn fill(&self, fb: &Framebuffer, rows: Range<usize>, Strip(strip): &mut Strip) {
        let (drawn, source): (&Rect, &dyn RowSource) = match self {
            Give::Frame(drawn) => (drawn, fb),
            Give::Plot(source) => (source.drawn(), *source),
        };
        let held = drawn.within_rows(rows);
        strip.rearm(fb.width(), fb.height(), held.clone());
        source.draw(strip);
        // All of it ships, as the whole plot's rectangle inside the rows.
        strip.mark(held.cols, held.rows);
    }
}

/// Draw `source` into the pixels `fb` holds, and record the rectangle it
/// covers in the whole image: the later rounds ship the parts of that
/// rectangle that lie in their rows, as a whole-image draw would.
fn draw_kept(fb: &mut Framebuffer, source: &dyn RowSource) {
    source.draw(fb);
    let Rect { cols, rows } = source.drawn().clone();
    fb.mark(cols, rows);
}

/// The largest power of two not above `p`: binary swap's group.
fn swap_group(p: usize) -> usize {
    1 << (usize::BITS - 1 - p.leading_zeros())
}

/// One halving of binary swap: of rows `lo..hi`, the half a rank keeps
/// and the half it gives, by whether its bit of the round is clear.
fn halve(lo: usize, hi: usize, keep_low: bool) -> (Range<usize>, Range<usize>) {
    let mid = lo + (hi - lo) / 2;
    if keep_low {
        (lo..mid, mid..hi)
    } else {
        (mid..hi, lo..mid)
    }
}

/// `rows` of an image `width` pixels wide, cut into the strips that
/// travel one to a message.
fn strips(rows: Range<usize>, width: usize) -> impl Iterator<Item = Range<usize>> {
    let step = (STRIP / width).max(1);
    let end = rows.end;
    rows.step_by(step).map(move |y| y..(y + step).min(end))
}

/// Lend `dest` the drawn pixels of `rows` strip by strip, at most
/// `CREDITS` out at once. Returns when every buffer is back.
fn send_rows(
    comm: &Comm,
    dest: usize,
    tag: u32,
    fb: &Framebuffer,
    give: &Give<'_>,
    rows: Range<usize>,
) {
    for rows in strips(rows, fb.width()) {
        comm.lend(dest, tag, CREDITS, |strip| give.fill(fb, rows, strip));
    }
    while comm.reclaim::<Strip>(dest, tag).is_some() {}
}

/// Depth-merge the strips of `rows` that `src` lends into `fb`, giving
/// each strip's buffer back.
fn merge_rows_from(comm: &Comm, src: usize, tag: u32, fb: &mut Framebuffer, rows: Range<usize>) {
    for _ in strips(rows, fb.width()) {
        let strip: Strip = comm.recv(src, tag);
        fb.composite_from(&strip.0);
        comm.give_back(src, tag, strip, Verdict::Taken);
    }
}

/// One round of binary swap: send `partner` the strips of `give` and
/// merge its strips of `keep`, alternately. What goes out of the frame
/// is the drawn rectangle as the round found it: a merge widens the
/// rectangle, but only in `keep`, and every pixel it adds in `give` is
/// clear. Each strip received is kept as the buffer a later one goes
/// out in: the two halves differ by a row at most, so neither side gets
/// more than a strip ahead.
fn swap_rows(
    comm: &Comm,
    partner: usize,
    fb: &mut Framebuffer,
    from: Give<'_>,
    give: Range<usize>,
    keep: Range<usize>,
) {
    let width = fb.width();
    let (mut give, mut keep) = (strips(give, width), strips(keep, width));
    loop {
        let (out, back) = (give.next(), keep.next());
        if out.is_none() && back.is_none() {
            return;
        }
        if let Some(rows) = out {
            let mut strip = comm.spare().unwrap_or_default();
            from.fill(fb, rows, &mut strip);
            comm.send(partner, TAG_SWAP, strip);
        }
        if back.is_some() {
            let strip: Strip = comm.recv(partner, TAG_SWAP);
            fb.composite_from(&strip.0);
            comm.keep(strip, CREDITS);
        }
    }
}

/// Binary-swap merge. Works for any rank count: ranks beyond the
/// largest power of two fold their image into a partner first.
fn binary_swap_merge(comm: &Comm, fb: &mut Framebuffer, source: &dyn RowSource) {
    let p = comm.size();
    let me = comm.rank();
    let pot = swap_group(p);
    let height = fb.height();
    assert!(
        height >= pot,
        "image height {height} shorter than {pot} binary-swap bands"
    );

    // Fold phase: ranks >= pot ship their whole image to rank - pot.
    if me >= pot {
        send_rows(comm, me - pot, TAG_FOLD, fb, &Give::Plot(source), 0..height);
        return;
    }
    draw_kept(fb, source);
    if me + pot < p {
        merge_rows_from(comm, me + pot, TAG_FOLD, fb, 0..height);
    }

    // Swap phase over the power-of-two group. A half given away from
    // the frame holds stale pixels from here on (inside the drawn
    // rectangle, so the next take re-arms them); one the frame does not
    // hold is drawn as it goes.
    let mut rows = 0..height;
    let mut bit = pot >> 1;
    while bit > 0 {
        let partner = me ^ bit;
        let (keep, give) = halve(rows.start, rows.end, me & bit == 0);
        let from = if overlap(&give, &fb.rows()) == give {
            Give::Frame(fb.drawn().clone())
        } else {
            Give::Plot(source)
        };
        swap_rows(comm, partner, fb, from, give, keep.clone());
        rows = keep;
        bit >>= 1;
    }
}

/// Direct-send fan-in tree merge with arity `fanout`: children of node
/// `r` are `r*fanout + 1 ..= r*fanout + fanout`.
fn direct_send_tree_merge(
    comm: &Comm,
    fb: &mut Framebuffer,
    source: &dyn RowSource,
    fanout: usize,
) {
    assert!(fanout >= 2, "tree fanout must be >= 2");
    let p = comm.size();
    let me = comm.rank();
    let height = fb.height();
    if fb.rows().is_empty() {
        // A leaf keeps no rows: its image goes up as it is drawn.
        let leaf = Give::Plot(source);
        send_rows(comm, (me - 1) / fanout, TAG_TREE, fb, &leaf, 0..height);
        return;
    }
    draw_kept(fb, source);
    // Receive from children (deepest first is unnecessary; compositing is
    // order-independent for opaque fragments).
    for c in 1..=fanout {
        let child = me * fanout + c;
        if child < p {
            merge_rows_from(comm, child, TAG_TREE, fb, 0..height);
        }
    }
    if me > 0 {
        let drawn = Give::Frame(fb.drawn().clone());
        send_rows(comm, (me - 1) / fanout, TAG_TREE, fb, &drawn, 0..height);
    }
}

/// Compositor selection (infrastructure crates pick their family).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Compositor {
    /// Binary swap (Catalyst-like).
    BinarySwap,
    /// Direct-send tree with the given fan-in (Libsim-like).
    DirectSendTree(usize),
}

impl Compositor {
    /// The rows of a `height`-row image that `merge` over `p` ranks
    /// leaves finished on `rank`; empty for a rank left with nothing.
    /// The ranges of all ranks tile `0..height`.
    pub(crate) fn owned_rows(self, p: usize, rank: usize, height: usize) -> Range<usize> {
        match self {
            Compositor::BinarySwap if rank < swap_group(p) => {
                let mut rows = 0..height;
                let mut bit = swap_group(p) >> 1;
                while bit > 0 {
                    rows = halve(rows.start, rows.end, rank & bit == 0).0;
                    bit >>= 1;
                }
                rows
            }
            Compositor::DirectSendTree(_) if rank == 0 => 0..height,
            _ => 0..0,
        }
    }

    /// The rows of a `height`-row image that `rank`'s frame holds while
    /// `merge` runs over `p` ranks: those it draws before it merges
    /// anything, and merges into. Under binary swap, its half after the
    /// first halving, or the whole image on a rank that merges a folded
    /// rank's image or is alone; under the tree, the whole image on the
    /// root and on a node with children. Empty on a rank that ships all
    /// it draws as it draws it: a folded rank, a tree leaf. They hold
    /// `owned_rows`.
    pub(crate) fn kept_rows(self, p: usize, rank: usize, height: usize) -> Range<usize> {
        match self {
            Compositor::BinarySwap => {
                let pot = swap_group(p);
                if rank >= pot {
                    0..0
                } else if pot == 1 || rank + pot < p {
                    0..height
                } else {
                    halve(0, height, rank & (pot >> 1) == 0).0
                }
            }
            Compositor::DirectSendTree(fanout) if rank == 0 || rank * fanout + 1 < p => 0..height,
            Compositor::DirectSendTree(_) => 0..0,
        }
    }
}

/// Run the selected compositor over `source`, this rank's plot, up to,
/// and not including, the gather: collective. `fb` is a cleared frame
/// of the rows `which.kept_rows(comm.size(), comm.rank(), height)`;
/// afterwards its rows `which.owned_rows(…)` are the final image's and
/// the others are stale. Stale pixels lie inside the drawn rectangle,
/// so the next take clears them.
///
/// # Panics
/// Panics if `fb` holds other rows, framebuffer sizes differ across
/// ranks, a binary-swap image is shorter than the participating rank
/// count (bands would be empty), or a tree's fan-in is below 2.
pub(crate) fn merge(comm: &Comm, fb: &mut Framebuffer, source: &dyn RowSource, which: Compositor) {
    let (p, me, height) = (comm.size(), comm.rank(), fb.height());
    assert_eq!(
        fb.rows(),
        which.kept_rows(p, me, height),
        "merge: the frame holds the rows the rank keeps"
    );
    match which {
        Compositor::BinarySwap => binary_swap_merge(comm, fb, source),
        Compositor::DirectSendTree(fanout) => direct_send_tree_merge(comm, fb, source, fanout),
    }
}

/// Move the rows [`merge`] left on each rank to rank 0, which holds
/// them in a buffer of the whole image: its own frame, when that holds
/// every row (the bands tile the image, so every stale row of it is
/// overwritten), or a new one.
pub(crate) fn gather(comm: &Comm, fb: Framebuffer, which: Compositor) -> Option<Framebuffer> {
    let (p, me, width, height) = (comm.size(), comm.rank(), fb.width(), fb.height());
    let owned = which.owned_rows(p, me, height);
    if me > 0 {
        if !owned.is_empty() {
            comm.send(0, TAG_GATHER, fb.extract_rows(owned.start, owned.end));
        }
        return None;
    }
    let mut image = if fb.rows() == (0..height) {
        fb
    } else {
        let mut image = Framebuffer::new(width, height);
        image.paste_rows(&fb, owned);
        image
    };
    for r in 1..p {
        let rows = which.owned_rows(p, r, height);
        if !rows.is_empty() {
            let band: Framebuffer = comm.recv(r, TAG_GATHER);
            image.paste_rows(&band, rows);
        }
    }
    Some(image)
}

/// `source`, a plot of a `width` × `height` image on every rank,
/// composited by `which` into a frame of the rows each rank keeps and
/// gathered: the image on rank 0.
pub(crate) fn gathered(
    comm: &Comm,
    source: &dyn RowSource,
    (width, height): (usize, usize),
    which: Compositor,
) -> Option<Framebuffer> {
    let rows = which.kept_rows(comm.size(), comm.rank(), height);
    let mut frame = Framebuffer::with_rows(width, height, rows);
    merge(comm, &mut frame, source, which);
    gather(comm, frame, which)
}

/// Run the selected compositor; the final image lands on rank 0.
pub fn composite(comm: &Comm, fb: Framebuffer, which: Compositor) -> Option<Framebuffer> {
    gathered(comm, &fb, (fb.width(), fb.height()), which)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::{Color, Colormap};
    use crate::slice::{extract_plane, plane_axes, render_plane};
    use datamodel::{dims_create, partition_extent, Extent};
    use minimpi::{SchedPolicy, World, WorldBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Each rank paints one column at depth = rank (so rank 0's pixels
    /// are in front where columns collide).
    fn rank_columns(rank: usize, p: usize, w: usize, h: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for y in 0..h {
            for x in (rank..w).step_by(p) {
                fb.set_pixel(x, y, rank as f32, Color::rgb(rank as u8 + 1, 0, 0));
            }
        }
        fb
    }

    fn expect_full(final_fb: &Framebuffer, p: usize) {
        assert_eq!(
            final_fb.covered_pixels(),
            final_fb.width() * final_fb.height()
        );
        // Column x belongs to rank x mod p.
        for x in 0..final_fb.width() {
            let want = (x % p) as u8 + 1;
            assert_eq!(final_fb.pixel(x, 0).r, want, "column {x}");
        }
    }

    #[test]
    fn binary_swap_power_of_two() {
        for p in [2usize, 4, 8] {
            let out = World::run(p, move |comm| {
                composite(
                    comm,
                    rank_columns(comm.rank(), p, 16, 8),
                    Compositor::BinarySwap,
                )
            });
            let root = out.into_iter().next().unwrap().expect("root image");
            expect_full(&root, p);
        }
    }

    #[test]
    fn binary_swap_non_power_of_two() {
        for p in [3usize, 5, 6, 7] {
            let out = World::run(p, move |comm| {
                composite(
                    comm,
                    rank_columns(comm.rank(), p, 21, 8),
                    Compositor::BinarySwap,
                )
            });
            let mut images = out.into_iter();
            let root = images.next().unwrap().expect("root image");
            expect_full(&root, p);
            assert!(images.all(|i| i.is_none()), "only root has the image");
        }
    }

    #[test]
    fn binary_swap_single_rank_identity() {
        let out = World::run(1, |comm| {
            composite(comm, rank_columns(0, 1, 4, 4), Compositor::BinarySwap)
        });
        assert_eq!(out[0].as_ref().unwrap().covered_pixels(), 16);
    }

    #[test]
    fn direct_send_tree_various_fanouts() {
        for (p, fanout) in [(5usize, 2usize), (9, 3), (16, 4), (7, 8)] {
            let out = World::run(p, move |comm| {
                composite(
                    comm,
                    rank_columns(comm.rank(), p, 16, 4),
                    Compositor::DirectSendTree(fanout),
                )
            });
            let root = out.into_iter().next().unwrap().expect("root image");
            expect_full(&root, p);
        }
    }

    #[test]
    fn depth_wins_across_algorithms() {
        // All ranks paint the SAME pixel; the closest (rank 0) must win
        // under both compositors.
        for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
            let out = World::run(4, move |comm| {
                let mut fb = Framebuffer::new(8, 8);
                fb.set_pixel(
                    3,
                    3,
                    comm.rank() as f32,
                    Color::rgb(comm.rank() as u8 + 1, 0, 0),
                );
                composite(comm, fb, which)
            });
            let root = out.into_iter().next().unwrap().unwrap();
            assert_eq!(root.pixel(3, 3).r, 1, "{which:?}");
            assert_eq!(root.covered_pixels(), 1);
        }
    }

    #[test]
    fn algorithms_agree_exactly() {
        let bs = World::run(6, |comm| {
            composite(
                comm,
                rank_columns(comm.rank(), 6, 12, 8),
                Compositor::BinarySwap,
            )
        });
        let ds = World::run(6, |comm| {
            composite(
                comm,
                rank_columns(comm.rank(), 6, 12, 8),
                Compositor::DirectSendTree(3),
            )
        });
        assert_eq!(bs[0], ds[0]);
    }

    type Drawn = (Range<usize>, Range<usize>);

    /// Every rank paints every pixel of `drawn`, at a depth that makes
    /// a different rank the closest from pixel to pixel: each pixel of
    /// the result is decided by the merge order-independently, and a
    /// row merged into the wrong place or left stale shows.
    fn overlapping(rank: usize, p: usize, (w, h): (usize, usize), drawn: &Drawn) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for y in drawn.1.clone() {
            for x in drawn.0.clone() {
                let front = (3 * x + 5 * y) % p;
                let z = ((rank + p - front) % p) as f32 + 0.25;
                // A few holes, so transparency takes part too.
                if !(x + 2 * y + rank).is_multiple_of(7) {
                    fb.set_pixel(x, y, z, Color::rgb(rank as u8 + 1, x as u8, y as u8));
                }
            }
        }
        fb
    }

    /// Where each of `p` ranks draws in case `case`: the whole image;
    /// nothing on every third rank; a strip straddling the first
    /// halving cut (even ranks) or the second (odd ones); rectangles at
    /// random, empty ones among them.
    fn drawn_rects(case: usize, p: usize, (w, h): (usize, usize)) -> Vec<Drawn> {
        let mut rng = StdRng::seed_from_u64((case * 1000 + p * 100 + w * h) as u64);
        let mut span = |n: usize| {
            let (a, b) = (rng.gen_range(0..n + 1), rng.gen_range(0..n + 1));
            a.min(b)..a.max(b)
        };
        (0..p)
            .map(|r| match case {
                0 => (0..w, 0..h),
                1 if r % 3 == 1 => (0..0, 0..0),
                1 => (0..w, 0..h),
                2 => {
                    let cut = if r % 2 == 0 { h / 2 } else { h / 4 };
                    (r % w..w, cut.saturating_sub(1)..(cut + 1).min(h))
                }
                _ => (span(w), span(h)),
            })
            .collect()
    }

    /// The one-rank image by the full-frame rule: every pixel of every
    /// layer, in rank order, kept where it is closer (depths never tie).
    fn full_frame(
        layers: impl Iterator<Item = Framebuffer>,
        (w, h): (usize, usize),
    ) -> Framebuffer {
        let mut want = Framebuffer::new(w, h);
        for fb in layers {
            for y in 0..h {
                for x in 0..w {
                    if fb.pixel(x, y).a != 0 {
                        want.set_pixel(x, y, fb.depth()[y * w + x], fb.pixel(x, y));
                    }
                }
            }
        }
        want
    }

    #[test]
    fn in_place_swap_equals_tree_and_one_rank_image() {
        // Odd heights where the halving rounds, a height equal to the
        // band count, and the benchmark's even split.
        for size in [(21usize, 13usize), (5, 8), (16, 11), (12, 64)] {
            for p in 1usize..=8 {
                for case in 0..4 {
                    let drawn = drawn_rects(case, p, size);
                    let layers = (0..p).map(|r| overlapping(r, p, size, &drawn[r]));
                    let want = full_frame(layers, size);
                    let run = |which| {
                        let drawn = drawn.clone();
                        World::run(p, move |comm| {
                            let me = comm.rank();
                            composite(comm, overlapping(me, p, size, &drawn[me]), which)
                        })
                    };
                    let (swap, tree) = (
                        run(Compositor::BinarySwap),
                        run(Compositor::DirectSendTree(2)),
                    );
                    let what = format!("{size:?} p={p} drawn {drawn:?}");
                    assert_eq!(swap[0].as_ref(), Some(&want), "swap {what}");
                    assert_eq!(tree[0].as_ref(), Some(&want), "tree {what}");
                    assert!(swap[1..].iter().all(Option::is_none));
                    for fb in swap.iter().chain(&tree).flatten() {
                        fb.assert_clear_outside_drawn();
                    }
                }
            }
        }
    }

    /// Depth levels a fragment of the oracle proptest is drawn at: two
    /// finite, so that ranks meet at equal depths, and +∞, a hole
    /// inside a drawn rectangle.
    const LEVELS: [f32; 3] = [0.25, 0.5, f32::INFINITY];

    /// A rank's fragments: rectangles `(x0, x1, y0, y1, level)`, clipped
    /// to the image.
    type Fragments = Vec<(usize, usize, usize, usize, usize)>;

    /// Each pixel of each rectangle, its colour a function of the pixel
    /// and the depth: equal depths are equal fragments, so the result
    /// does not depend on the merge order. A third of the nearest level's
    /// fragments are black, which a clear pixel is too.
    fn fragments(
        rects: &Fragments,
        (w, h): (usize, usize),
    ) -> impl Iterator<Item = (usize, usize, f32, Color)> + '_ {
        rects.iter().flat_map(move |&(x0, x1, y0, y1, level)| {
            let (cols, rows) = (
                x0.min(x1).min(w)..x0.max(x1).min(w),
                y0.min(y1).min(h)..y0.max(y1).min(h),
            );
            rows.flat_map(move |y| {
                cols.clone().map(move |x| {
                    let g = ((x + y) % 3) as u8 * 100;
                    let c = Color::rgb(g, g, 100 * level as u8);
                    (x, y, LEVELS[level], c)
                })
            })
        })
    }

    /// The image the RGBA rule makes of the ranks' fragments: each rank
    /// plots its own with an alpha byte (written where closer), and the
    /// layers merge in rank order under the two-rule merge.
    fn rgba_oracle(ranks: &[Fragments], (w, h): (usize, usize)) -> (Vec<[u8; 4]>, Vec<f32>) {
        let clear = || (vec![[0u8; 4]; w * h], vec![f32::INFINITY; w * h]);
        let (mut color, mut depth) = clear();
        for rects in ranks {
            let (mut mine, mut near) = clear();
            for (x, y, z, c) in fragments(rects, (w, h)) {
                if z < near[y * w + x] {
                    (mine[y * w + x], near[y * w + x]) = ([c.r, c.g, c.b, c.a], z);
                }
            }
            for i in 0..w * h {
                crate::framebuffer::merge_rgba_pixel(
                    &mut color[i],
                    &mut depth[i],
                    mine[i],
                    near[i],
                );
            }
        }
        (color, depth)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Coverage is depth: both compositors at 1–8 ranks give, bit
        /// for bit, the RGB and depth the RGBA rule gives, with overlapping
        /// rectangles at equal, different and infinite depths.
        #[test]
        fn coverage_by_depth_composites_as_the_rgba_rule(
            p in 1usize..9,
            size in (1usize..20, 8usize..20),
            ranks in proptest::collection::vec(
                proptest::collection::vec((0usize..22, 0usize..22, 0usize..22, 0usize..22, 0usize..3), 0..4),
                8..9,
            ),
        ) {
            let ranks = ranks[..p].to_vec();
            let (color, depth) = rgba_oracle(&ranks, size);
            for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
                let ranks = ranks.clone();
                let out = World::run(p, move |comm| {
                    let mut fb = Framebuffer::new(size.0, size.1);
                    for (x, y, z, c) in fragments(&ranks[comm.rank()], size) {
                        fb.set_pixel(x, y, z, c);
                    }
                    composite(comm, fb, which)
                });
                let image = out[0].as_ref().expect("rank 0 holds the image");
                let rgb: Vec<[u8; 3]> = color.iter().map(|&[r, g, b, _]| [r, g, b]).collect();
                proptest::prop_assert_eq!(image.color(), &rgb[..], "{:?}", which);
                let bits = |d: &[f32]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(image.depth()), bits(&depth), "{:?}", which);
                for (i, &[.., a]) in color.iter().enumerate() {
                    let (x, y) = (i % size.0, i / size.0);
                    proptest::prop_assert_eq!(image.pixel(x, y).a, a, "{:?} ({}, {})", which, x, y);
                }
            }
        }
    }

    #[test]
    fn merge_leaves_each_rank_the_rows_it_is_said_to_own() {
        for which in [Compositor::BinarySwap, Compositor::DirectSendTree(3)] {
            for size @ (_, h) in [(21usize, 13usize), (5, 8), (12, 64)] {
                for p in 1usize..=8 {
                    for case in 0..4 {
                        let drawn = drawn_rects(case, p, size);
                        let layers = (0..p).map(|r| overlapping(r, p, size, &drawn[r]));
                        let want = full_frame(layers, size);
                        let held = {
                            let drawn = drawn.clone();
                            World::run(p, move |comm| {
                                let me = comm.rank();
                                let source = overlapping(me, p, size, &drawn[me]);
                                let kept = which.kept_rows(p, me, h);
                                let mut fb = Framebuffer::with_rows(size.0, h, kept);
                                merge(comm, &mut fb, &source, which);
                                fb
                            })
                        };
                        // The owned ranges tile the image, in some order.
                        let mut rows: Vec<_> = (0..p).map(|r| which.owned_rows(p, r, h)).collect();
                        for (r, (fb, rows)) in held.iter().zip(&rows).enumerate() {
                            let what = format!("{which:?} {size:?} p={p} rank {r} rows {rows:?}");
                            fb.assert_clear_outside_drawn();
                            if !rows.is_empty() {
                                assert_eq!(
                                    fb.extract_rows(rows.start, rows.end),
                                    want.extract_rows(rows.start, rows.end),
                                    "{what} drawn {drawn:?}"
                                );
                            }
                        }
                        rows.retain(|r| !r.is_empty());
                        rows.sort_by_key(|r| r.start);
                        assert_eq!(rows.first().map(|r| r.start), Some(0));
                        assert_eq!(rows.last().map(|r| r.end), Some(h));
                        assert!(rows.windows(2).all(|w| w[0].end == w[1].start));
                    }
                }
            }
        }
    }

    /// The pixels `0..n` whose centre lies in `[a, b)`: `fill_rect`'s
    /// rule, restated.
    fn centred(a: f64, b: f64, n: usize) -> Range<usize> {
        let inside = |p: &usize| (a..b).contains(&(*p as f64 + 0.5));
        let first = (0..n).find(inside);
        first.map_or(0..0, |start| start..(0..n).rfind(inside).unwrap() + 1)
    }

    /// The rectangle `local` projects to in a `w`×`h` image of the
    /// plane `axis = index` (`render_plane` maps the global plane onto
    /// the whole image, v up), or nothing if the block misses the plane.
    fn projected(
        local: &Extent,
        global: &Extent,
        axis: usize,
        index: i64,
        w: usize,
        h: usize,
    ) -> Drawn {
        if !(local.lo[axis]..=local.hi[axis]).contains(&index) {
            return (0..0, 0..0);
        }
        let (ua, va) = plane_axes(axis);
        let scale = |a: usize, n: usize| n as f64 / (global.hi[a] - global.lo[a]) as f64;
        let x = |u: i64| (u - global.lo[ua]) as f64 * scale(ua, w);
        let y = |v: i64| h as f64 - (v - global.lo[va]) as f64 * scale(va, h);
        let cols = centred(x(local.lo[ua]), x(local.hi[ua]), w);
        let rows = centred(y(local.hi[va]), y(local.lo[va]), h);
        (cols, rows)
    }

    fn area((cols, rows): &Drawn) -> u64 {
        (cols.len() * rows.len()) as u64
    }

    /// The bounding box of two rectangles, either of them empty.
    fn bbox(a: &Drawn, b: &Drawn) -> Drawn {
        match (area(a), area(b)) {
            (_, 0) => a.clone(),
            (0, _) => b.clone(),
            _ => (
                a.0.start.min(b.0.start)..a.0.end.max(b.0.end),
                a.1.start.min(b.1.start)..a.1.end.max(b.1.end),
            ),
        }
    }

    /// `(messages, bytes)` of `minimpi/p2p` each rank sends over
    /// `merge`, from the ranks' projected rectangles alone: what a rank
    /// sends is what it has covered so far, cut to the rows it sends,
    /// and it travels as one message for each strip of those rows, at
    /// its wire bytes: a `Strip`'s framebuffer and 7 B a pixel. A strip
    /// lent (folded, or up the tree) comes back as the receiver's
    /// message of one `(Strip, Verdict)`, its pixels left behind.
    fn predicted(
        which: Compositor,
        mut covered: Vec<Drawn>,
        (w, h): (usize, usize),
    ) -> Vec<(u64, u64)> {
        let p = covered.len();
        let mut sent = vec![(0, 0); p];
        let rows_a_strip = (STRIP / w).max(1);
        let (header, given_back) = (size_of::<Strip>(), size_of::<(Strip, Verdict)>());
        // `from` sends the strips of `rows`, which hold `patch`; a loan
        // names the rank that gives each strip back.
        let mut send = |from: usize, lent_to: Option<usize>, rows: usize, patch: &Drawn| {
            let n = rows.div_ceil(rows_a_strip) as u64;
            sent[from].0 += n;
            sent[from].1 += n * header as u64 + 7 * area(patch);
            if let Some(to) = lent_to {
                sent[to].0 += n;
                sent[to].1 += n * given_back as u64;
            }
        };
        match which {
            Compositor::BinarySwap => {
                let pot = swap_group(p);
                for r in pot..p {
                    send(r, Some(r - pot), h, &covered[r]);
                    covered[r - pot] = bbox(&covered[r - pot], &covered[r]);
                }
                let mut spans = vec![0..h; pot];
                let mut bit = pot >> 1;
                while bit > 0 {
                    let patches: Vec<(usize, Drawn)> = (0..pot)
                        .map(|r| {
                            let (keep, give) = halve(spans[r].start, spans[r].end, r & bit == 0);
                            spans[r] = keep;
                            let (cols, rows) = &covered[r];
                            let start = rows.start.max(give.start);
                            (
                                give.len(),
                                (cols.clone(), start..rows.end.min(give.end).max(start)),
                            )
                        })
                        .collect();
                    for (r, (rows, patch)) in patches.iter().enumerate() {
                        send(r, None, *rows, patch);
                        covered[r] = bbox(&covered[r], &patches[r ^ bit].1);
                    }
                    bit >>= 1;
                }
            }
            Compositor::DirectSendTree(fanout) => {
                for r in (1..p).rev() {
                    let parent = (r - 1) / fanout;
                    send(r, Some(parent), h, &covered[r]);
                    covered[parent] = bbox(&covered[parent], &covered[r]);
                }
            }
        }
        sent
    }

    /// Compositing traffic, counted: the `minimpi/p2p` messages and
    /// bytes `merge` sends on every rank of a seeded run equal what the
    /// ranks' extents and the image size predict, under both
    /// compositors, with ranks whose block misses the plane among them.
    /// Returns the ranks that drew something.
    fn slice_traffic(
        p: usize,
        points: [usize; 3],
        (axis, index): (usize, i64),
        which: Compositor,
        (w, h): (usize, usize),
    ) -> usize {
        let global = Extent::whole(points);
        let out = WorldBuilder::new(p)
            .sched(SchedPolicy::Seeded(p as u64))
            .run(move |comm| {
                let local = partition_extent(&global, dims_create(p), comm.rank());
                let values: Vec<f64> = local
                    .iter_points()
                    .map(|q| (q[0] + 2 * q[1] + 3 * q[2]) as f64)
                    .collect();
                // What this rank draws before compositing.
                let mut fb = Framebuffer::new(w, h);
                if let Some(piece) = extract_plane(&local, &global, &values, axis, index) {
                    render_plane(&mut fb, &piece, &Colormap::cool_warm(), (0.0, 1.0));
                }
                let kept = which.kept_rows(p, comm.rank(), h);
                let mut frame = Framebuffer::with_rows(w, h, kept);
                comm.attach_probe(probe::enabled());
                merge(comm, &mut frame, &fb, which);
                let snapshot = comm.probe().snapshot();
                let counted = snapshot.counters.iter().find(|c| c.name == "minimpi/p2p");
                let drawn = fb.drawn().clone();
                let drawn = (drawn.cols, drawn.rows);
                (
                    counted.map_or((0, 0), |c| (c.messages, c.bytes)),
                    drawn,
                    local,
                )
            });
        let rects: Vec<Drawn> = out
            .iter()
            .map(|(_, _, local)| projected(local, &global, axis, index, w, h))
            .collect();
        for (r, ((_, drawn, _), rect)) in out.iter().zip(&rects).enumerate() {
            assert_eq!(
                drawn, rect,
                "p={p} rank {r}: the drawn rectangle is the projection"
            );
        }
        let counted: Vec<(u64, u64)> = out.iter().map(|(c, _, _)| *c).collect();
        let what = format!("{which:?} p={p} {points:?} axis {axis} index {index}");
        assert_eq!(counted, predicted(which, rects.clone(), (w, h)), "{what}");
        rects.iter().filter(|r| area(r) > 0).count()
    }

    #[test]
    fn composite_bytes_are_the_projected_rectangles_at_1_to_8_ranks() {
        let points = [17, 13, 11];
        // One strip holds a whole patch at 40×64; at 300×700 a strip is
        // 109 rows, and a patch of 700 / 2^k rows travels in several.
        for size in [(40, 64), (300, 700)] {
            assert_eq!(
                strips(0..size.1, size.0).count(),
                size.1.div_ceil(STRIP / size.0)
            );
            for p in 1..=8 {
                for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
                    let mut drawing = Vec::new();
                    for plane in [(0, 3), (1, 6), (2, 5), (0, 16)] {
                        drawing.push(slice_traffic(p, points, plane, which, size));
                    }
                    // A plane across the rank grid's long axis misses ranks.
                    if p >= 2 {
                        assert!(drawing[0] < p, "{which:?} p={p}: {drawing:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn drawing_ranks_are_one_sheet_of_the_rank_grid() {
        // 17³ points over 2³ and 4³ blocks; z = 6 lies inside a block
        // layer, z = 8 on the boundary between two.
        for (p, on_boundary) in [(8, 8), (64, 32)] {
            let inside = slice_traffic(p, [17; 3], (2, 6), Compositor::BinarySwap, (40, 64));
            assert_eq!(inside, perfmodel::workloads::slice_participants(p), "p={p}");
            let boundary =
                slice_traffic(p, [17; 3], (2, 8), Compositor::DirectSendTree(8), (40, 64));
            assert_eq!(boundary, on_boundary, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn image_too_short_for_bands_panics() {
        // 8 pot participants need >= 8 rows; give 2.
        World::run(8, |comm| {
            composite(
                comm,
                rank_columns(comm.rank(), 8, 4, 2),
                Compositor::BinarySwap,
            )
        });
    }
}
