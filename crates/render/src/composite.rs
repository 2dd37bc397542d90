//! Parallel image compositing over `minimpi` — the "costly compositing
//! operation that involves communication of image-sized buffers among a
//! hierarchical set of ranks" (§4.1.3). Two algorithm families, matching
//! the paper's observation that Catalyst and Libsim use *different*
//! compositors with different scaling:
//!
//! * binary swap — log₂p rounds; partners exchange half their current
//!   span and composite the half they keep (Catalyst-like);
//! * direct-send tree — a fan-in tree of configurable arity; each
//!   parent composites its children's full images (Libsim-like).
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

use minimpi::Comm;

use crate::framebuffer::Framebuffer;

/// Tag space for compositing traffic.
const TAG_FOLD: u32 = 0x434F_0001;
const TAG_SWAP: u32 = 0x434F_0002;
const TAG_GATHER: u32 = 0x434F_0003;
const TAG_TREE: u32 = 0x434F_0004;

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

/// Binary-swap merge. Works for any rank count: ranks beyond the
/// largest power of two fold their image into a partner first.
fn binary_swap_merge(comm: &Comm, mut fb: Framebuffer) -> Option<Framebuffer> {
    let p = comm.size();
    let me = comm.rank();
    let pot = swap_group(p);
    assert!(
        fb.height() >= pot,
        "image height {} shorter than {} binary-swap bands",
        fb.height(),
        pot
    );

    // Fold phase: ranks >= pot ship their full image to rank - pot.
    if me >= pot {
        comm.send(me - pot, TAG_FOLD, fb);
        return None;
    }
    if me + pot < p {
        let other: Framebuffer = comm.recv(me + pot, TAG_FOLD);
        fb.composite_from(&other);
    }

    // Swap phase over the power-of-two group. The rows given away hold
    // stale pixels from here on.
    let (mut lo, mut hi) = (0, fb.height());
    let mut bit = pot >> 1;
    while bit > 0 {
        let partner = me ^ bit;
        let (keep, give) = halve(lo, hi, me & bit == 0);
        let outgoing = fb.extract_rows(give.start, give.end);
        comm.send(partner, TAG_SWAP, (give.start, outgoing));
        let (their_lo, their_band): (usize, Framebuffer) = comm.recv(partner, TAG_SWAP);
        debug_assert_eq!(their_lo, keep.start);
        assert_eq!(
            their_band.height(),
            keep.len(),
            "swap: band height mismatch"
        );
        fb.composite_rows_from(keep.start, &their_band);
        (lo, hi) = (keep.start, keep.end);
        bit >>= 1;
    }
    Some(fb)
}

/// Direct-send fan-in tree merge with arity `fanout`: children of node
/// `r` are `r*fanout + 1 ..= r*fanout + fanout`.
fn direct_send_tree_merge(comm: &Comm, mut fb: Framebuffer, fanout: usize) -> Option<Framebuffer> {
    assert!(fanout >= 2, "tree fanout must be >= 2");
    let p = comm.size();
    let me = comm.rank();
    // Receive from children (deepest first is unnecessary; compositing is
    // order-independent for opaque fragments).
    for c in 1..=fanout {
        let child = me * fanout + c;
        if child < p {
            let theirs: Framebuffer = comm.recv(child, TAG_TREE);
            fb.composite_from(&theirs);
        }
    }
    if me == 0 {
        Some(fb)
    } else {
        let parent = (me - 1) / fanout;
        comm.send(parent, TAG_TREE, fb);
        None
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
}

/// Run the selected compositor up to, and not including, the gather:
/// collective; a rank gets back the buffer it still holds, whose rows
/// `which.owned_rows(comm.size(), comm.rank(), height)` are the final
/// image's (the others are stale), or `None` if it shipped its image
/// whole and owns no row.
///
/// # Panics
/// Panics if framebuffer sizes differ across ranks, a binary-swap image
/// is shorter than the participating rank count (bands would be empty),
/// or a tree's fan-in is below 2.
pub(crate) fn merge(comm: &Comm, fb: Framebuffer, which: Compositor) -> Option<Framebuffer> {
    match which {
        Compositor::BinarySwap => binary_swap_merge(comm, fb),
        Compositor::DirectSendTree(fanout) => direct_send_tree_merge(comm, fb, fanout),
    }
}

/// Move the rows [`merge`] left on each rank to rank 0, which pastes
/// them around its own: the bands tile the image, so every stale row of
/// its buffer is overwritten.
pub(crate) fn gather(
    comm: &Comm,
    held: Option<Framebuffer>,
    which: Compositor,
    height: usize,
) -> Option<Framebuffer> {
    let (p, me) = (comm.size(), comm.rank());
    if me > 0 {
        let rows = which.owned_rows(p, me, height);
        if !rows.is_empty() {
            let fb = held.expect("a rank that owns rows holds their buffer");
            comm.send(0, TAG_GATHER, fb.extract_rows(rows.start, rows.end));
        }
        return None;
    }
    let mut fb = held.expect("rank 0 owns rows under either compositor");
    for r in 1..p {
        let rows = which.owned_rows(p, r, height);
        if !rows.is_empty() {
            let band: Framebuffer = comm.recv(r, TAG_GATHER);
            fb.paste_rows(rows.start, &band);
        }
    }
    Some(fb)
}

/// Run the selected compositor; the final image lands on rank 0.
pub fn composite(comm: &Comm, fb: Framebuffer, which: Compositor) -> Option<Framebuffer> {
    let height = fb.height();
    gather(comm, merge(comm, fb, which), which, height)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use minimpi::World;

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

    /// Every rank paints every pixel, at a depth that makes a
    /// different rank the closest from pixel to pixel: each pixel of
    /// the result is decided by the merge order-independently, and a
    /// row merged into the wrong place or left stale shows.
    fn overlapping(rank: usize, p: usize, w: usize, h: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
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

    #[test]
    fn in_place_swap_equals_tree_and_one_rank_image() {
        // Odd heights where the halving rounds, a height equal to the
        // band count, and the benchmark's even split.
        for (w, h) in [(21usize, 13usize), (5, 8), (16, 11), (12, 64)] {
            for p in 1usize..=8 {
                // The one-rank image: all p layers merged serially.
                let mut want = overlapping(0, p, w, h);
                for r in 1..p {
                    want.composite_from(&overlapping(r, p, w, h));
                }
                let swap = World::run(p, move |comm| {
                    composite(
                        comm,
                        overlapping(comm.rank(), p, w, h),
                        Compositor::BinarySwap,
                    )
                });
                let tree = World::run(p, move |comm| {
                    composite(
                        comm,
                        overlapping(comm.rank(), p, w, h),
                        Compositor::DirectSendTree(2),
                    )
                });
                assert_eq!(swap[0].as_ref(), Some(&want), "swap {w}x{h} p={p}");
                assert_eq!(tree[0].as_ref(), Some(&want), "tree {w}x{h} p={p}");
                assert!(swap[1..].iter().all(Option::is_none));
            }
        }
    }

    #[test]
    fn merge_leaves_each_rank_the_rows_it_is_said_to_own() {
        for which in [Compositor::BinarySwap, Compositor::DirectSendTree(3)] {
            for (w, h) in [(21usize, 13usize), (5, 8), (12, 64)] {
                for p in 1usize..=8 {
                    let mut want = overlapping(0, p, w, h);
                    for r in 1..p {
                        want.composite_from(&overlapping(r, p, w, h));
                    }
                    let held = World::run(p, move |comm| {
                        merge(comm, overlapping(comm.rank(), p, w, h), which)
                    });
                    // The owned ranges tile the image, in some order.
                    let mut rows: Vec<_> = (0..p).map(|r| which.owned_rows(p, r, h)).collect();
                    for (r, (held, rows)) in held.iter().zip(&rows).enumerate() {
                        assert_eq!(held.is_none(), rows.is_empty(), "{which:?} p={p} rank {r}");
                        if let Some(fb) = held {
                            assert_eq!(
                                fb.extract_rows(rows.start, rows.end),
                                want.extract_rows(rows.start, rows.end),
                                "{which:?} {w}x{h} p={p} rank {r} rows {rows:?}"
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
