//! Oscillator definitions and the input-deck parser.
//!
//! The input format is one oscillator per line, read on the root rank
//! and broadcast (§3.3):
//!
//! ```text
//! # kind  x    y    z    radius  omega  zeta
//! periodic 0.3 0.3 0.5  0.2     6.28   0
//! damped   0.7 0.7 0.3  0.25    12.57  0.1
//! decaying 0.5 0.2 0.8  0.15    1.0    0
//! ```

/// Oscillator temporal behavior.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OscillatorKind {
    /// `cos(ωt)` — periodic forever.
    Periodic,
    /// `e^(−ζωt)·cos(ω√(1−ζ²)·t)` — underdamped ringing.
    Damped,
    /// `e^(−ωt)` — pure decay.
    Decaying,
}

/// One oscillator: a time signal convolved with a spatial Gaussian.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Oscillator {
    /// Temporal behavior.
    pub kind: OscillatorKind,
    /// Center position in physical coordinates.
    pub center: [f64; 3],
    /// Gaussian width (standard deviation).
    pub radius: f64,
    /// Angular frequency (or decay rate for `Decaying`).
    pub omega: f64,
    /// Damping ratio (used by `Damped`).
    pub zeta: f64,
}

/// The deck rank 0 broadcasts is a list of plain oscillators.
impl minimpi::Wire for Oscillator {
    const PLAIN: bool = true;
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The Gaussian exponent magnitude beyond which `exp` underflows to
/// exactly `+0.0` in IEEE f64.
///
/// `exp(x)` rounds to zero for `x < ln(2^-1075) ≈ -745.134`; at `x =
/// -746` the true value (≈ 1.2e-324) is below half the smallest
/// subnormal (≈ 2.47e-324), so even with a few ulps of rounding error in
/// computing the exponent the result is exactly `+0.0`. Support culling
/// built on this threshold is therefore *bitwise* exact, not an
/// approximation: every culled contribution is a `±0.0` that cannot
/// change a non-negative-zero accumulator.
pub(crate) const GAUSSIAN_UNDERFLOW_EXPONENT: f64 = 746.0;

impl Oscillator {
    /// Squared support cutoff: for any `d2 >= cutoff_d2()` the spatial
    /// Gaussian [`Oscillator::gaussian`] evaluates to exactly `+0.0`, so
    /// a kernel may skip such cells without changing the field bitwise.
    ///
    /// Returns `0.0` when the radius is so small the denominator
    /// underflows (callers must then disable culling — the Gaussian is
    /// NaN at the center in that degenerate case).
    pub(crate) fn cutoff_d2(&self) -> f64 {
        2.0 * self.radius * self.radius * GAUSSIAN_UNDERFLOW_EXPONENT
    }

    /// Support radius: distance beyond which this oscillator contributes
    /// exactly zero (`≈ 38.6 × radius`). Infinite when `radius` is large
    /// enough to overflow the squared cutoff.
    pub fn support_radius(&self) -> f64 {
        self.cutoff_d2().sqrt()
    }

    /// Temporal amplitude at time `t`.
    pub(crate) fn value_at(&self, t: f64) -> f64 {
        match self.kind {
            OscillatorKind::Periodic => (self.omega * t).cos(),
            OscillatorKind::Damped => {
                let zeta = self.zeta.clamp(0.0, 0.999_999);
                let wd = self.omega * (1.0 - zeta * zeta).sqrt();
                (-zeta * self.omega * t).exp() * (wd * t).cos()
            }
            OscillatorKind::Decaying => (-self.omega * t).exp(),
        }
    }

    /// Spatial Gaussian weight at squared distance `d2` from the center.
    pub(crate) fn gaussian(&self, d2: f64) -> f64 {
        (-d2 / (2.0 * self.radius * self.radius)).exp()
    }

    /// Contribution at position `p`, time `t`.
    pub fn contribution(&self, p: [f64; 3], t: f64) -> f64 {
        let dx = p[0] - self.center[0];
        let dy = p[1] - self.center[1];
        let dz = p[2] - self.center[2];
        self.value_at(t) * self.gaussian(dx * dx + dy * dy + dz * dz)
    }
}

/// Input-deck parse errors.
#[derive(Debug, PartialEq)]
pub enum ParseError {
    /// A line had the wrong number of fields.
    WrongFieldCount { line: usize, got: usize },
    /// Unknown oscillator kind.
    UnknownKind { line: usize, kind: String },
    /// A numeric field failed to parse.
    BadNumber { line: usize, field: &'static str },
    /// A numeric field parsed to an infinity or NaN.
    NonFiniteNumber { line: usize, field: &'static str },
    /// Radius must be positive.
    NonPositiveRadius { line: usize },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::WrongFieldCount { line, got } => {
                write!(f, "line {line}: expected 7 fields, got {got}")
            }
            ParseError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown oscillator kind '{kind}'")
            }
            ParseError::BadNumber { line, field } => {
                write!(f, "line {line}: field '{field}' is not a number")
            }
            ParseError::NonFiniteNumber { line, field } => {
                write!(f, "line {line}: field '{field}' must be finite")
            }
            ParseError::NonPositiveRadius { line } => {
                write!(f, "line {line}: radius must be positive")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse an oscillator input deck.
pub fn parse_deck(text: &str) -> Result<Vec<Oscillator>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let s = raw.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = s.split_whitespace().collect();
        if fields.len() != 7 {
            return Err(ParseError::WrongFieldCount {
                line,
                got: fields.len(),
            });
        }
        let kind = match fields[0] {
            "periodic" => OscillatorKind::Periodic,
            "damped" => OscillatorKind::Damped,
            "decaying" => OscillatorKind::Decaying,
            other => {
                return Err(ParseError::UnknownKind {
                    line,
                    kind: other.to_string(),
                })
            }
        };
        let num = |idx: usize, name: &'static str| -> Result<f64, ParseError> {
            let v: f64 = fields[idx]
                .parse()
                .map_err(|_| ParseError::BadNumber { line, field: name })?;
            // Finite parameters are what makes support culling exact
            // (a NaN/∞ amplitude times a zero Gaussian is NaN, which a
            // culled kernel could not reproduce by skipping).
            if !v.is_finite() {
                return Err(ParseError::NonFiniteNumber { line, field: name });
            }
            Ok(v)
        };
        let osc = Oscillator {
            kind,
            center: [num(1, "x")?, num(2, "y")?, num(3, "z")?],
            radius: num(4, "radius")?,
            omega: num(5, "omega")?,
            zeta: num(6, "zeta")?,
        };
        if osc.radius <= 0.0 {
            return Err(ParseError::NonPositiveRadius { line });
        }
        out.push(osc);
    }
    Ok(out)
}

/// Serialize oscillators back to deck format (for writing sample inputs).
pub fn format_deck(oscillators: &[Oscillator]) -> String {
    let mut s = String::from("# kind x y z radius omega zeta\n");
    for o in oscillators {
        let kind = match o.kind {
            OscillatorKind::Periodic => "periodic",
            OscillatorKind::Damped => "damped",
            OscillatorKind::Decaying => "decaying",
        };
        s.push_str(&format!(
            "{kind} {} {} {} {} {} {}\n",
            o.center[0], o.center[1], o.center[2], o.radius, o.omega, o.zeta
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_starts_at_one_and_oscillates() {
        let o = Oscillator {
            kind: OscillatorKind::Periodic,
            center: [0.0; 3],
            radius: 1.0,
            omega: std::f64::consts::PI,
            zeta: 0.0,
        };
        assert_eq!(o.value_at(0.0), 1.0);
        assert!(
            (o.value_at(1.0) + 1.0).abs() < 1e-12,
            "half period flips sign"
        );
        assert!((o.value_at(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn damped_envelope_shrinks() {
        let o = Oscillator {
            kind: OscillatorKind::Damped,
            center: [0.0; 3],
            radius: 1.0,
            omega: 10.0,
            zeta: 0.2,
        };
        // Compare peak magnitudes over successive windows.
        let peak = |t0: f64| {
            (0..100)
                .map(|i| o.value_at(t0 + i as f64 * 0.01).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(peak(0.0) > peak(2.0));
        assert!(peak(2.0) > peak(4.0));
    }

    #[test]
    fn decaying_is_monotone() {
        let o = Oscillator {
            kind: OscillatorKind::Decaying,
            center: [0.0; 3],
            radius: 1.0,
            omega: 1.0,
            zeta: 0.0,
        };
        assert_eq!(o.value_at(0.0), 1.0);
        assert!(o.value_at(1.0) > o.value_at(2.0));
        assert!(o.value_at(2.0) > 0.0);
    }

    #[test]
    fn gaussian_peaks_at_center() {
        let o = Oscillator {
            kind: OscillatorKind::Periodic,
            center: [0.5, 0.5, 0.5],
            radius: 0.1,
            omega: 1.0,
            zeta: 0.0,
        };
        let at_center = o.contribution([0.5, 0.5, 0.5], 0.0);
        let off = o.contribution([0.6, 0.5, 0.5], 0.0);
        assert_eq!(at_center, 1.0);
        assert!(off < at_center && off > 0.0);
        // One sigma away: e^(-1/2).
        assert!((off - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn deck_roundtrip() {
        let deck = crate::demo_oscillators();
        let text = format_deck(&deck);
        let parsed = parse_deck(&text).unwrap();
        assert_eq!(parsed, deck);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let parsed = parse_deck("# header\n\nperiodic 0 0 0 1 1 0\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, OscillatorKind::Periodic);
    }

    #[test]
    fn parse_errors_are_precise() {
        assert_eq!(
            parse_deck("periodic 0 0 0 1 1\n"),
            Err(ParseError::WrongFieldCount { line: 1, got: 6 })
        );
        assert_eq!(
            parse_deck("wiggly 0 0 0 1 1 0\n"),
            Err(ParseError::UnknownKind {
                line: 1,
                kind: "wiggly".to_string()
            })
        );
        assert_eq!(
            parse_deck("periodic 0 0 zero 1 1 0\n"),
            Err(ParseError::BadNumber {
                line: 1,
                field: "z"
            })
        );
        assert_eq!(
            parse_deck("periodic 0 0 0 0 1 0\n"),
            Err(ParseError::NonPositiveRadius { line: 1 })
        );
    }
}
