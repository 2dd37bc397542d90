//! Memory-footprint models for the paper's memory studies.
//!
//! Fig. 4 compares total (summed over ranks) high-water marks of the
//! Original vs. SENSEI-instrumented autocorrelation runs; Fig. 7 breaks
//! startup executable footprint out from the run high-water mark per
//! configuration. §4.2 adds executable-size observations (Catalyst
//! Editions: 153 MB static / 87 MB dynamic with PHASTA; Nyx 68 → 109 MB).

use crate::compositing::Algorithm;
use crate::MB;

/// Executable / resident-image sizes in bytes for each configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Executable {
    /// Miniapp without SENSEI.
    Original,
    /// Miniapp with the SENSEI interface linked (no analysis libraries).
    Baseline,
    /// Baseline + the direct histogram/autocorrelation analyses.
    DirectAnalysis,
    /// Baseline + Catalyst Edition (statically linked, incl. OSMesa).
    CatalystStatic,
    /// Baseline + Catalyst Edition, dynamically linked.
    CatalystDynamic,
    /// Baseline + Libsim runtime.
    Libsim,
    /// Baseline + ADIOS/FlexPath transport.
    Adios,
}

impl Executable {
    /// Per-rank resident image size in bytes.
    pub fn bytes(self) -> f64 {
        match self {
            // The Original configuration links the same analysis code via
            // direct subroutine calls (§4.1.1), so its image differs from
            // DirectAnalysis only by the thin SENSEI layer.
            Executable::Original => 6.5 * MB,
            Executable::Baseline => 6.0 * MB,
            Executable::DirectAnalysis => 7.0 * MB,
            // §4.2.1: 153 MB static, 87 MB dynamic (Catalyst Edition).
            Executable::CatalystStatic => 153.0 * MB,
            Executable::CatalystDynamic => 87.0 * MB,
            Executable::Libsim => 120.0 * MB,
            Executable::Adios => 14.0 * MB,
        }
    }
}

/// Per-rank heap bytes of the miniapp's own state (subgrid + oscillator
/// table).
pub fn miniapp_heap(cells_per_rank: usize, num_oscillators: usize) -> f64 {
    (cells_per_rank * 8 + num_oscillators * 64) as f64
}

/// Per-rank heap of the autocorrelation analysis: two circular buffers of
/// `window` timesteps each (§3.3: "two circular buffers, each of size
/// O(tN³)").
pub fn autocorrelation_heap(cells_per_rank: usize, window: usize) -> f64 {
    2.0 * (cells_per_rank * window * 8) as f64
}

/// Per-rank heap of the histogram analysis (just the bins).
pub fn histogram_heap(bins: usize) -> f64 {
    (bins * 8 + 64) as f64
}

/// Per-rank heap of a slice-render pipeline over `p` ranks composited by
/// `alg`, averaged over the ranks: the frame each rank draws the rows
/// it keeps into and keeps between steps, 7 B a pixel (RGB and depth; a
/// pixel is covered where its depth is finite), and the PNG encoder
/// each rank that deflates a band keeps. The rows are those compositing
/// leaves a rank (`kept_rows`), whether its block meets the plane or
/// not. The bands are one a rank from 0 up, each at least 256 KiB of
/// scanlines (`1 + 3 · width` B a row); an encoder is its hash chains'
/// `head` and `prev` (131 072 B each), its sliding buffer (`WINDOW +
/// CHUNK + MAX_MATCH + 3` = 98 565 B) and a scanline. The speculative
/// bit string and junction log a band rank past the first keeps follow
/// the pixels, and the strips (`CREDITS` = 2 of at most 32 Ki pixels)
/// are not charged.
pub fn slice_render_heap(width: usize, height: usize, alg: Algorithm, p: usize) -> f64 {
    let rows: usize = (0..p).map(|rank| kept_rows(alg, p, rank, height)).sum();
    let stride = 1 + 3 * width;
    let bands = (height / (256 * 1024usize).div_ceil(stride)).clamp(1, p);
    let encoders = bands * (2 * 131_072 + 98_565 + stride);
    (width * rows * 7 + encoders) as f64 / p as f64
}

/// The rows of a `height`-row image `rank`'s frame holds while `alg`
/// composites over `p` ranks. Binary swap: the half of the image it
/// keeps after the first halving (the lower half of the group keeps
/// `⌊h/2⌋` rows, the upper `⌈h/2⌉`), all of it on a rank that merges a
/// folded rank's image (ranks below `p − pot`, `pot` the largest power
/// of two not above `p`) or is alone, and none on a folded rank. A
/// fan-in tree: all of it on the root and on every node with a child,
/// none on a leaf, whose image goes up strip by strip as it is drawn.
fn kept_rows(alg: Algorithm, p: usize, rank: usize, height: usize) -> usize {
    match alg {
        Algorithm::BinarySwap => {
            let pot = 1 << p.ilog2();
            if rank >= pot {
                0
            } else if pot == 1 || rank + pot < p {
                height
            } else if rank < pot / 2 {
                height / 2
            } else {
                height - height / 2
            }
        }
        Algorithm::DirectSendTree { fanout } => {
            if rank == 0 || rank * fanout + 1 < p {
                height
            } else {
                0
            }
        }
    }
}

/// Bytes one in transit step of the oscillator ships over its writers
/// (`adios.bytes_per_step`), given each writer's block as its point
/// count and whether it has a ghost: the `f64` field, the `u8` ghost
/// flags of the blocks that have one (a block with none ships no ghost
/// variable), and per block a BP header — 187 B of framing and six
/// geometry attributes, and 89 B a variable beside its name: 280 B
/// without flags, 381 B with them.
pub fn staged_step_bytes(blocks: &[(usize, bool)]) -> f64 {
    let variable = |name: &str| 89 + name.len();
    let block = |&(points, ghosted): &(usize, bool)| {
        let flags = usize::from(ghosted) * (points + variable("vtkGhostType"));
        187 + 8 * points + variable("data") + flags
    };
    blocks.iter().map(block).sum::<usize>() as f64
}

/// Total memory high-water mark summed over `p` ranks, the quantity the
/// miniapp study charts.
pub fn total_high_water(p: usize, exe: Executable, per_rank_heap: f64) -> f64 {
    p as f64 * (exe.bytes() + per_rank_heap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_step_reads_the_benchmark_row() {
        // `intransit-staging`: 128³ over two writers split along x, the
        // second block duplicating the first's last plane.
        let blocks = [(65 * 128 * 128, false), (64 * 128 * 128, true)];
        assert_eq!(
            staged_step_bytes(&blocks),
            (16_908_288 + 1_048_576 + 280 + 381) as f64
        );
        assert_eq!(staged_step_bytes(&blocks), 17_957_525.0);
    }

    #[test]
    fn autocorrelation_dominates_miniapp_heap() {
        // Window-10 history is 20× the field itself.
        let cells = 64 * 64 * 64;
        assert!(autocorrelation_heap(cells, 10) > 10.0 * miniapp_heap(cells, 3));
    }

    #[test]
    fn histogram_heap_is_tiny() {
        assert!(histogram_heap(256) < 1e4);
    }

    #[test]
    fn memory_grows_linearly_with_ranks() {
        let heap = miniapp_heap(64 * 64 * 64, 3);
        let a = total_high_water(812, Executable::Baseline, heap);
        let b = total_high_water(6496, Executable::Baseline, heap);
        assert!((b / a - 8.0).abs() < 0.1);
    }

    #[test]
    fn slice_render_heap_charges_the_rows_each_rank_keeps() {
        const TREE: Algorithm = Algorithm::DirectSendTree { fanout: 8 };
        // One encoder a band: its chains, sliding buffer and scanline.
        let encoder = |width: usize| (131_072 + 131_072 + 98_565 + 1 + 3 * width) as f64;
        assert_eq!(encoder(1920), 366_470.0);
        // `render-insitu` on 2 ranks: each keeps Catalyst's 540 rows of
        // 1920; Libsim's root keeps its whole 1024² image, its leaf none.
        // Both files are two bands (23 and 11 of 256 KiB), one a rank.
        assert_eq!(
            slice_render_heap(1920, 1080, Algorithm::BinarySwap, 2),
            7_257_600.0 + 366_470.0
        );
        assert_eq!(
            slice_render_heap(1024, 1024, TREE, 2),
            (7_340_032.0 + 2.0 * encoder(1024)) / 2.0
        );
        // Alone, a rank keeps the whole frame and the one encoder.
        assert_eq!(
            slice_render_heap(1920, 1080, Algorithm::BinarySwap, 1),
            14_515_200.0 + 366_470.0
        );
        assert_eq!(
            slice_render_heap(1920, 1080, TREE, 1),
            14_515_200.0 + 366_470.0
        );
        // 3 ranks: rank 0 merges rank 2's image (1080 rows), rank 1
        // keeps its upper half (540), rank 2 none; the tree's root
        // keeps all, its two leaves none. 1081 rows of 61 B are under
        // 256 KiB: one band, rank 0's.
        assert_eq!(
            slice_render_heap(20, 1081, Algorithm::BinarySwap, 3) * 3.0,
            (7 * 20 * (1081 + 541)) as f64 + encoder(20)
        );
        assert_eq!(
            slice_render_heap(20, 1081, TREE, 3) * 3.0,
            7.0 * 20.0 * 1081.0 + encoder(20)
        );
        // A power-of-two group keeps half an image a rank; a tree keeps
        // an image on each of its ⌈(p − 1) / f⌉ inner nodes. A 1920 ×
        // 1080 file is at most 1080 / ⌈256 Ki / 5761⌉ = 23 bands.
        for p in [8, 64, 4096] {
            let bands = p.min(23) as f64;
            let heap = slice_render_heap(1920, 1080, Algorithm::BinarySwap, p) * p as f64;
            let half = 14_515_200.0 / 2.0 * p as f64;
            assert_eq!(heap, half + bands * 366_470.0, "p = {p}");
            let inner = (p - 1).div_ceil(8);
            let tree = slice_render_heap(1920, 1080, TREE, p) * p as f64;
            assert_eq!(
                tree,
                14_515_200.0 * inner as f64 + bands * 366_470.0,
                "p = {p}"
            );
        }
        let heap = slice_render_heap(1600, 1600, TREE, 812);
        let a = total_high_water(812, Executable::Libsim, heap);
        let b = total_high_water(6496, Executable::Libsim, heap);
        assert!((b / a - 8.0).abs() < 1e-9);
    }
}
