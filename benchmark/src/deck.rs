//! The benchmark's input: an oscillator deck generated from `--seed`.
//!
//! The program under test receives only the deck text
//! (`oscillator::format_deck`); the generator and its RNG live here so
//! that no product change can move the inputs.
//!
//! The driver measures run-to-run spread across *different* seeds, so
//! the deck's cost must not depend on the seed while its content does:
//!
//! * 2 **wide** oscillators (radius 0.15–0.25): their support radius
//!   (≈ 38.6 × radius) exceeds the domain diagonal, so support culling is
//!   inactive and each costs exactly one full-grid pass wherever it sits.
//! * 14 **narrow** oscillators (culling active): 7 seeded ones plus their
//!   point reflections through the domain centre, so the two ranks of
//!   any axis-aligned split carry the same culled work; their radii are
//!   a fixed ladder (shuffled by the seed) and their centres stay far
//!   enough from the boundary that every support ball lies inside the
//!   domain, so the number of cells inside the supports is the same for
//!   every seed.
//!
//! Two wide oscillators, not more, keep a step near 20 ms, which is
//! what leaves the analyses and endpoints the larger share of the other
//! three workloads (each wide oscillator adds ~7 ms to every step).

use std::f64::consts::PI;

use oscillator::{format_deck, Oscillator, OscillatorKind};

/// Oscillators that cost a full-grid pass each.
pub const WIDE: usize = 2;
/// Seeded narrow oscillators; each gets a point-reflected twin.
pub const NARROW_PAIRS: usize = 7;

/// Narrow radii: support radius 0.154–0.232, inside the 0.3 margin the
/// narrow centres keep from the domain boundary.
const NARROW_RADII: [f64; NARROW_PAIRS] = [0.0040, 0.0043, 0.0046, 0.0050, 0.0053, 0.0056, 0.0060];

/// SplitMix64 (Steele, Lea, Flood 2014): the harness's own RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// SplitMix64's output function; also the field digest's mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn kind_of(index: usize) -> OscillatorKind {
    match index % 3 {
        0 => OscillatorKind::Periodic,
        1 => OscillatorKind::Damped,
        _ => OscillatorKind::Decaying,
    }
}

/// The 16 oscillators for `seed`.
pub fn generate(seed: u64) -> Vec<Oscillator> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(WIDE + 2 * NARROW_PAIRS);
    let mut push = |center: [f64; 3], radius: f64, omega: f64, zeta: f64| {
        let kind = kind_of(out.len());
        out.push(Oscillator {
            kind,
            center,
            radius,
            omega,
            zeta: if kind == OscillatorKind::Damped {
                zeta
            } else {
                0.0
            },
        });
    };
    for _ in 0..WIDE {
        let center = [
            rng.range(0.1, 0.9),
            rng.range(0.1, 0.9),
            rng.range(0.1, 0.9),
        ];
        let radius = rng.range(0.15, 0.25);
        push(
            center,
            radius,
            rng.range(2.0 * PI, 6.0 * PI),
            rng.range(0.05, 0.2),
        );
    }
    // Fisher–Yates over the fixed radius ladder.
    let mut radii = NARROW_RADII;
    for i in (1..radii.len()).rev() {
        radii.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    for radius in radii {
        let c = [
            rng.range(0.3, 0.7),
            rng.range(0.3, 0.7),
            rng.range(0.3, 0.7),
        ];
        let omega = rng.range(2.0 * PI, 6.0 * PI);
        let zeta = rng.range(0.05, 0.2);
        push(c, radius, omega, zeta);
        push([1.0 - c[0], 1.0 - c[1], 1.0 - c[2]], radius, omega, zeta);
    }
    out
}

/// The deck text handed to the program.
pub fn deck_text(seed: u64) -> String {
    format_deck(&generate(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text_and_different_seed_differs() {
        assert_eq!(deck_text(2016), deck_text(2016));
        assert_ne!(deck_text(2016), deck_text(78));
    }

    #[test]
    fn deck_round_trips_through_the_program_parser() {
        let deck = generate(78);
        assert_eq!(oscillator::parse_deck(&deck_text(78)).unwrap(), deck);
        assert_eq!(deck.len(), 16);
    }

    #[test]
    fn cost_shape_is_seed_invariant() {
        for seed in [1u64, 78, 2016, 0xFFFF_FFFF_FFFF] {
            let deck = generate(seed);
            let diagonal = 3f64.sqrt();
            for o in &deck[..WIDE] {
                assert!(o.support_radius() > diagonal, "wide: culling inactive");
            }
            let mut radii: Vec<f64> = Vec::new();
            for pair in deck[WIDE..].chunks(2) {
                assert_eq!(pair[0].radius, pair[1].radius);
                radii.push(pair[0].radius);
                for a in 0..3 {
                    assert!((pair[0].center[a] + pair[1].center[a] - 1.0).abs() < 1e-12);
                    for o in pair {
                        let s = o.support_radius();
                        assert!(o.center[a] - s > 0.0 && o.center[a] + s < 1.0);
                    }
                }
            }
            radii.sort_by(f64::total_cmp);
            assert_eq!(radii, NARROW_RADII);
        }
    }
}
