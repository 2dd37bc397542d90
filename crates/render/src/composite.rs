//! Parallel image compositing over `minimpi` — the "costly compositing
//! operation that involves communication of image-sized buffers among a
//! hierarchical set of ranks" (§4.1.3). Two algorithm families, matching
//! the paper's observation that Catalyst and Libsim use *different*
//! compositors with different scaling:
//!
//! * [`binary_swap`] — log₂p rounds; partners exchange half their
//!   current span and composite the half they keep; a final gather
//!   assembles the bands on the root (Catalyst-like);
//! * [`direct_send_tree`] — a fan-in tree of configurable arity; each
//!   parent composites its children's full images (Libsim-like).
//!
//! Both return the final image on rank 0 and `None` elsewhere.

use minimpi::Comm;

use crate::framebuffer::Framebuffer;

/// Tag space for compositing traffic.
const TAG_FOLD: u32 = 0x434F_0001;
const TAG_SWAP: u32 = 0x434F_0002;
const TAG_GATHER: u32 = 0x434F_0003;
const TAG_TREE: u32 = 0x434F_0004;

/// Binary-swap compositing. Works for any rank count: ranks beyond the
/// largest power of two fold their image into a partner first.
///
/// # Panics
/// Panics if the image is shorter than the participating rank count
/// (bands would be empty) or framebuffer sizes differ across ranks.
pub fn binary_swap(comm: &Comm, mut fb: Framebuffer) -> Option<Framebuffer> {
    let p = comm.size();
    let me = comm.rank();
    if p == 1 {
        return Some(fb);
    }
    let pot = 1usize << (usize::BITS - 1 - p.leading_zeros()); // 2^⌊log2 p⌋
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

    // Swap phase over the power-of-two group.
    let height = fb.height();
    let (mut lo, mut hi) = (0usize, height);
    let mut bit = pot >> 1;
    while bit > 0 {
        let partner = me ^ bit;
        let mid = lo + (hi - lo) / 2;
        let keep_low = me & bit == 0;
        let (keep, give) = if keep_low {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        let outgoing = fb.extract_rows(give.0, give.1);
        comm.send(partner, TAG_SWAP, (give.0, outgoing));
        let (their_lo, their_band): (usize, Framebuffer) = comm.recv(partner, TAG_SWAP);
        debug_assert_eq!(their_lo, keep.0);
        assert_eq!(
            their_band.height(),
            keep.1 - keep.0,
            "swap: band height mismatch"
        );
        fb.composite_rows_from(keep.0, &their_band);
        (lo, hi) = keep;
        bit >>= 1;
    }

    // Gather bands to root, which pastes them around its own finished
    // band: the rows it gave away hold stale pixels until then, and the
    // bands tile the image, so every one of them is overwritten.
    if me == 0 {
        for _ in 1..pot {
            let (src_lo, their): (usize, Framebuffer) = comm.recv_any(TAG_GATHER).1;
            fb.paste_rows(src_lo, &their);
        }
        Some(fb)
    } else {
        comm.send(0, TAG_GATHER, (lo, fb.extract_rows(lo, hi)));
        None
    }
}

/// Direct-send fan-in tree compositing with arity `fanout`: children of
/// node `r` are `r*fanout + 1 ..= r*fanout + fanout`.
///
/// # Panics
/// Panics when `fanout < 2` or framebuffer sizes differ across ranks.
pub fn direct_send_tree(comm: &Comm, mut fb: Framebuffer, fanout: usize) -> Option<Framebuffer> {
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

/// Run the selected compositor.
pub fn composite(comm: &Comm, fb: Framebuffer, which: Compositor) -> Option<Framebuffer> {
    match which {
        Compositor::BinarySwap => binary_swap(comm, fb),
        Compositor::DirectSendTree(fanout) => direct_send_tree(comm, fb, fanout),
    }
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
                binary_swap(comm, rank_columns(comm.rank(), p, 16, 8))
            });
            let root = out.into_iter().next().unwrap().expect("root image");
            expect_full(&root, p);
        }
    }

    #[test]
    fn binary_swap_non_power_of_two() {
        for p in [3usize, 5, 6, 7] {
            let out = World::run(p, move |comm| {
                binary_swap(comm, rank_columns(comm.rank(), p, 21, 8))
            });
            let mut images = out.into_iter();
            let root = images.next().unwrap().expect("root image");
            expect_full(&root, p);
            assert!(images.all(|i| i.is_none()), "only root has the image");
        }
    }

    #[test]
    fn binary_swap_single_rank_identity() {
        let out = World::run(1, |comm| binary_swap(comm, rank_columns(0, 1, 4, 4)));
        assert_eq!(out[0].as_ref().unwrap().covered_pixels(), 16);
    }

    #[test]
    fn direct_send_tree_various_fanouts() {
        for (p, fanout) in [(5usize, 2usize), (9, 3), (16, 4), (7, 8)] {
            let out = World::run(p, move |comm| {
                direct_send_tree(comm, rank_columns(comm.rank(), p, 16, 4), fanout)
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
            binary_swap(comm, rank_columns(comm.rank(), 6, 12, 8))
        });
        let ds = World::run(6, |comm| {
            direct_send_tree(comm, rank_columns(comm.rank(), 6, 12, 8), 3)
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
                    binary_swap(comm, overlapping(comm.rank(), p, w, h))
                });
                let tree = World::run(p, move |comm| {
                    direct_send_tree(comm, overlapping(comm.rank(), p, w, h), 2)
                });
                assert_eq!(swap[0].as_ref(), Some(&want), "swap {w}x{h} p={p}");
                assert_eq!(tree[0].as_ref(), Some(&want), "tree {w}x{h} p={p}");
                assert!(swap[1..].iter().all(Option::is_none));
            }
        }
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn image_too_short_for_bands_panics() {
        // 8 pot participants need >= 8 rows; give 2.
        World::run(8, |comm| {
            binary_swap(comm, rank_columns(comm.rank(), 8, 4, 2))
        });
    }
}
