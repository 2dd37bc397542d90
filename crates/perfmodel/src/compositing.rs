//! Image-compositing cost models.
//!
//! Catalyst and Libsim render locally and then composite partial images
//! across all ranks; the paper notes the two use *different* compositing
//! algorithms with visibly different scaling (Fig. 6) and that
//! compositing involves "communication of image-sized buffers among a
//! hierarchical set of ranks". We model the two classic families:
//!
//! * **binary swap** (Catalyst-like): log₂p stages, each exchanging half
//!   the remaining image; total pixel traffic per rank ≈ `2·I·(p−1)/p`;
//! * **direct-send tree** (Libsim-like): a fan-in tree of arity `f`;
//!   every level's receiver ingests `f` full images.
//!
//! The per-stage `composite_stage_alpha` captures the synchronization
//! skew that dominates at hundreds of thousands of ranks (Mira's two
//! constants are solved from Table 2's PHASTA numbers).

use crate::machine::MachineSpec;
use crate::stages;

/// Compositing algorithm family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// Binary swap (Catalyst-like).
    BinarySwap,
    /// Direct-send fan-in tree with the given arity (Libsim-like).
    DirectSendTree {
        /// Fan-in per tree level.
        fanout: usize,
    },
}

/// Seconds to composite an `image_bytes` framebuffer across `p` ranks.
pub fn composite(m: &MachineSpec, alg: Algorithm, p: usize, image_bytes: f64) -> f64 {
    if p <= 1 {
        // Single rank: just the local blend-over pass.
        return image_bytes / (10.0 * m.composite_bw);
    }
    match alg {
        Algorithm::BinarySwap => {
            let l = stages(p);
            let traffic = 2.0 * image_bytes * (p as f64 - 1.0) / p as f64;
            l * m.composite_stage_alpha + traffic / m.composite_bw
        }
        Algorithm::DirectSendTree { fanout } => {
            assert!(fanout >= 2, "tree fanout must be >= 2");
            let depth = (p as f64).log(fanout as f64).ceil();
            depth * (m.composite_stage_alpha + fanout as f64 * image_bytes / m.composite_bw)
        }
    }
}

/// Bytes of an RGBA8 framebuffer.
pub(crate) fn rgba_bytes(width: usize, height: usize) -> f64 {
    (width * height * 4) as f64
}

/// Bytes of an RGB8 framebuffer (what the PNG writer consumes).
pub(crate) fn rgb_bytes(width: usize, height: usize) -> f64 {
    (width * height * 3) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_images_cost_more() {
        let m = MachineSpec::cori_haswell();
        let small = composite(&m, Algorithm::BinarySwap, 4096, rgba_bytes(800, 200));
        let large = composite(&m, Algorithm::BinarySwap, 4096, rgba_bytes(2900, 725));
        assert!(large > small);
    }

    #[test]
    fn scaling_is_logarithmic_not_linear() {
        let m = MachineSpec::cori_haswell();
        let t1k = composite(&m, Algorithm::BinarySwap, 1024, rgba_bytes(1920, 1080));
        let t45k = composite(&m, Algorithm::BinarySwap, 45440, rgba_bytes(1920, 1080));
        assert!(t45k > t1k);
        assert!(t45k / t1k < 3.0, "ratio {}", t45k / t1k);
    }

    #[test]
    fn algorithms_scale_differently() {
        // The Fig. 6 observation: the two infrastructures' compositors
        // have visibly different scaling characteristics.
        let m = MachineSpec::cori_haswell();
        let bytes = rgba_bytes(1600, 1600);
        let bs: Vec<f64> = [812usize, 6496, 45440]
            .iter()
            .map(|&p| composite(&m, Algorithm::BinarySwap, p, bytes))
            .collect();
        let ds: Vec<f64> = [812usize, 6496, 45440]
            .iter()
            .map(|&p| composite(&m, Algorithm::DirectSendTree { fanout: 8 }, p, bytes))
            .collect();
        // Both grow with scale …
        assert!(bs.windows(2).all(|w| w[1] > w[0]));
        assert!(ds.windows(2).all(|w| w[1] > w[0]));
        // … but with different slopes.
        let bs_growth = bs[2] / bs[0];
        let ds_growth = ds[2] / ds[0];
        assert!((bs_growth - ds_growth).abs() > 0.05);
    }

    #[test]
    fn single_rank_is_cheap() {
        let m = MachineSpec::cori_haswell();
        let t = composite(&m, Algorithm::BinarySwap, 1, rgba_bytes(1920, 1080));
        assert!(t < 0.05);
    }

    #[test]
    #[should_panic(expected = "fanout must be >= 2")]
    fn degenerate_fanout_panics() {
        let m = MachineSpec::cori_haswell();
        composite(&m, Algorithm::DirectSendTree { fanout: 1 }, 16, 1e6);
    }
}
