//! Deterministic noise for modeled runs.
//!
//! Storage and network performance at scale is noisy (Lofstead et al.
//! document order-unity I/O variability on petascale Lustre). Modeled
//! experiments sample multiplicative lognormal noise from a seeded
//! generator so regenerated figures show realistic scatter *and*
//! reproduce exactly across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded noise source.
pub struct SeededNoise {
    rng: StdRng,
}

impl SeededNoise {
    /// Create from an experiment-specific seed.
    pub fn new(seed: u64) -> Self {
        SeededNoise {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A standard-normal sample (Box–Muller over the uniform generator).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative lognormal factor with median 1 and shape `sigma`.
    /// `sigma = 0` returns exactly 1.
    pub fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        (sigma * self.standard_normal()).exp()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_noise_is_reproducible() {
        let mut a = SeededNoise::new(42);
        let mut b = SeededNoise::new(42);
        for _ in 0..100 {
            assert_eq!(a.lognormal_factor(0.3), b.lognormal_factor(0.3));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededNoise::new(1);
        let mut b = SeededNoise::new(2);
        let va: Vec<f64> = (0..10).map(|_| a.standard_normal()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.standard_normal()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        let mut n = SeededNoise::new(7);
        for _ in 0..10 {
            assert_eq!(n.lognormal_factor(0.0), 1.0);
        }
    }

    #[test]
    fn lognormal_median_near_one() {
        let mut n = SeededNoise::new(99);
        let mut samples: Vec<f64> = (0..20001).map(|_| n.lognormal_factor(0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut n = SeededNoise::new(123);
        let samples: Vec<f64> = (0..50000).map(|_| n.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut n = SeededNoise::new(5);
        for _ in 0..1000 {
            let v = n.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }
}
