//! Colors and colormaps for pseudocoloring ("heatmap technique", §4.1.3).

/// An RGBA8 color.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Color {
    /// Red.
    pub r: u8,
    /// Green.
    pub g: u8,
    /// Blue.
    pub b: u8,
    /// Alpha (255 = opaque).
    pub a: u8,
}

impl Color {
    /// Opaque color from components.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Self {
        Color { r, g, b, a: 255 }
    }

    /// Fully transparent black (the compositing identity).
    pub const TRANSPARENT: Color = Color {
        r: 0,
        g: 0,
        b: 0,
        a: 0,
    };

    /// Opaque white.
    pub const WHITE: Color = Color::rgb(255, 255, 255);

    /// Opaque black.
    pub const BLACK: Color = Color::rgb(0, 0, 0);

    /// Linear interpolation between two colors.
    pub(crate) fn lerp(a: Color, b: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |x: u8, y: u8| (x as f64 + (y as f64 - x as f64) * t).round() as u8;
        Color {
            r: mix(a.r, b.r),
            g: mix(a.g, b.g),
            b: mix(a.b, b.b),
            a: mix(a.a, b.a),
        }
    }
}

/// A colormap: maps a normalized scalar in `[0, 1]` to a color by
/// piecewise-linear interpolation through control points.
#[derive(Clone, Debug)]
pub struct Colormap {
    stops: Vec<(f64, Color)>,
}

impl Colormap {
    /// Build from control points; positions must start at 0, end at 1,
    /// and be non-decreasing.
    pub fn new(stops: Vec<(f64, Color)>) -> Self {
        assert!(stops.len() >= 2, "need at least two stops");
        assert_eq!(stops[0].0, 0.0, "first stop must be at 0");
        assert_eq!(stops[stops.len() - 1].0, 1.0, "last stop must be at 1");
        assert!(
            stops.windows(2).all(|w| w[1].0 >= w[0].0),
            "stops must be non-decreasing"
        );
        Colormap { stops }
    }

    /// ParaView's default cool-to-warm diverging map (blue→white→red).
    pub fn cool_warm() -> Self {
        Colormap::new(vec![
            (0.0, Color::rgb(59, 76, 192)),
            (0.5, Color::rgb(221, 221, 221)),
            (1.0, Color::rgb(180, 4, 38)),
        ])
    }

    /// A viridis-like perceptually ordered map.
    pub fn viridis() -> Self {
        Colormap::new(vec![
            (0.0, Color::rgb(68, 1, 84)),
            (0.25, Color::rgb(59, 82, 139)),
            (0.5, Color::rgb(33, 145, 140)),
            (0.75, Color::rgb(94, 201, 98)),
            (1.0, Color::rgb(253, 231, 37)),
        ])
    }

    /// Map a normalized value (clamped to `[0,1]`; NaN maps to 0).
    pub fn map(&self, t: f64) -> Color {
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        for w in self.stops.windows(2) {
            let (t0, c0) = w[0];
            let (t1, c1) = w[1];
            if t <= t1 {
                if t1 == t0 {
                    return c1;
                }
                return Color::lerp(c0, c1, (t - t0) / (t1 - t0));
            }
        }
        self.stops[self.stops.len() - 1].1
    }

    /// Map a raw value given a data range (degenerate ranges map to the
    /// midpoint).
    pub(crate) fn map_range(&self, v: f64, min: f64, max: f64) -> Color {
        if max > min {
            self.map((v - min) / (max - min))
        } else {
            self.map(0.5)
        }
    }
}

#[cfg(test)]
impl Colormap {
    /// Grayscale ramp (the tests' colormap).
    pub(crate) fn grayscale() -> Self {
        Colormap::new(vec![(0.0, Color::BLACK), (1.0, Color::WHITE)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        let a = Color::rgb(0, 0, 0);
        let b = Color::rgb(200, 100, 50);
        assert_eq!(Color::lerp(a, b, 0.0), a);
        assert_eq!(Color::lerp(a, b, 1.0), b);
        assert_eq!(Color::lerp(a, b, 0.5), Color::rgb(100, 50, 25));
    }

    #[test]
    fn cool_warm_endpoints_and_middle() {
        let cm = Colormap::cool_warm();
        assert_eq!(cm.map(0.0), Color::rgb(59, 76, 192));
        assert_eq!(cm.map(1.0), Color::rgb(180, 4, 38));
        assert_eq!(cm.map(0.5), Color::rgb(221, 221, 221));
    }

    #[test]
    fn map_clamps_and_handles_nan() {
        let cm = Colormap::grayscale();
        assert_eq!(cm.map(-3.0), Color::BLACK);
        assert_eq!(cm.map(7.0), Color::WHITE);
        assert_eq!(cm.map(f64::NAN), Color::BLACK);
    }

    #[test]
    fn map_range_degenerate() {
        let cm = Colormap::grayscale();
        let mid = cm.map_range(5.0, 5.0, 5.0);
        assert_eq!(mid, cm.map(0.5));
    }

    #[test]
    fn viridis_is_monotone_in_green() {
        let cm = Colormap::viridis();
        let g: Vec<u8> = (0..=10).map(|i| cm.map(i as f64 / 10.0).g).collect();
        assert!(g.windows(2).all(|w| w[1] >= w[0]), "{g:?}");
    }

    #[test]
    #[should_panic(expected = "first stop")]
    fn bad_stops_panic() {
        let _ = Colormap::new(vec![(0.1, Color::BLACK), (1.0, Color::WHITE)]);
    }
}
