//! Minimal cameras: orthographic (slices) and look-at perspective
//! (isosurface scenes). Produces screen coordinates plus a depth value
//! for the z-buffer.

/// A camera projecting world-space points to pixel coordinates.
#[derive(Clone, Debug)]
pub enum Camera {
    /// Orthographic projection of an axis-aligned world rectangle onto
    /// the full image: used for slice views.
    Ortho {
        /// World-space rectangle `[xmin, xmax]`.
        x: [f64; 2],
        /// World-space rectangle `[ymin, ymax]`.
        y: [f64; 2],
    },
    /// Perspective look-at camera.
    LookAt {
        /// Eye position.
        eye: [f64; 3],
        /// Target position.
        target: [f64; 3],
        /// Up direction.
        up: [f64; 3],
        /// Vertical field of view, radians.
        fov_y: f64,
    },
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let n = dot(v, v).sqrt();
    assert!(n > 0.0, "cannot normalize zero vector");
    [v[0] / n, v[1] / n, v[2] / n]
}

impl Camera {
    /// An orthographic camera covering the rectangle `[x0,x1]×[y0,y1]`.
    pub(crate) fn ortho(x0: f64, x1: f64, y0: f64, y1: f64) -> Self {
        assert!(x1 > x0 && y1 > y0, "degenerate ortho window");
        Camera::Ortho {
            x: [x0, x1],
            y: [y0, y1],
        }
    }

    /// A perspective camera looking from `eye` to `target`.
    pub fn look_at(eye: [f64; 3], target: [f64; 3], up: [f64; 3], fov_y: f64) -> Self {
        assert!(fov_y > 0.0 && fov_y < std::f64::consts::PI, "bad fov");
        Camera::LookAt {
            eye,
            target,
            up,
            fov_y,
        }
    }

    /// Project a world point (2D slices pass z as the slice-normal
    /// coordinate, used only for depth). Returns `(px, py, depth)` in
    /// continuous pixel coordinates, or `None` behind the camera.
    pub(crate) fn project(
        &self,
        p: [f64; 3],
        width: usize,
        height: usize,
    ) -> Option<(f64, f64, f32)> {
        match self {
            Camera::Ortho { x, y } => {
                let u = (p[0] - x[0]) / (x[1] - x[0]);
                let v = (p[1] - y[0]) / (y[1] - y[0]);
                Some((
                    u * width as f64,
                    (1.0 - v) * height as f64, // image y grows downward
                    p[2] as f32,
                ))
            }
            Camera::LookAt {
                eye,
                target,
                up,
                fov_y,
            } => {
                let fwd = normalize(sub(*target, *eye));
                let right = normalize(cross(fwd, *up));
                let cam_up = cross(right, fwd);
                let rel = sub(p, *eye);
                let zc = dot(rel, fwd); // distance along view axis
                if zc <= 1e-9 {
                    return None;
                }
                let xc = dot(rel, right);
                let yc = dot(rel, cam_up);
                let half_h = (fov_y / 2.0).tan();
                let aspect = width as f64 / height as f64;
                let ndc_x = xc / (zc * half_h * aspect);
                let ndc_y = yc / (zc * half_h);
                Some((
                    (ndc_x + 1.0) * 0.5 * width as f64,
                    (1.0 - ndc_y) * 0.5 * height as f64,
                    zc as f32,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ortho_maps_corners() {
        let c = Camera::ortho(0.0, 2.0, 0.0, 1.0);
        let (px, py, _) = c.project([0.0, 0.0, 0.0], 200, 100).unwrap();
        assert_eq!((px, py), (0.0, 100.0)); // bottom-left → bottom row
        let (px, py, _) = c.project([2.0, 1.0, 0.5], 200, 100).unwrap();
        assert_eq!((px, py), (200.0, 0.0));
    }

    #[test]
    fn ortho_depth_passthrough() {
        let c = Camera::ortho(0.0, 1.0, 0.0, 1.0);
        let (_, _, z) = c.project([0.5, 0.5, 7.25], 10, 10).unwrap();
        assert_eq!(z, 7.25);
    }

    #[test]
    fn lookat_centers_target() {
        let c = Camera::look_at([0.0, 0.0, -5.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0);
        let (px, py, z) = c.project([0.0, 0.0, 0.0], 100, 100).unwrap();
        assert!((px - 50.0).abs() < 1e-9);
        assert!((py - 50.0).abs() < 1e-9);
        assert!((z - 5.0).abs() < 1e-6);
    }

    #[test]
    fn lookat_rejects_points_behind() {
        let c = Camera::look_at([0.0, 0.0, -5.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0);
        assert!(c.project([0.0, 0.0, -10.0], 100, 100).is_none());
    }

    #[test]
    fn lookat_depth_orders_points() {
        let c = Camera::look_at([0.0, 0.0, -5.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0);
        let near = c.project([0.0, 0.0, -1.0], 64, 64).unwrap().2;
        let far = c.project([0.0, 0.0, 3.0], 64, 64).unwrap().2;
        assert!(near < far);
    }

    #[test]
    #[should_panic(expected = "degenerate ortho")]
    fn bad_ortho_panics() {
        let _ = Camera::ortho(1.0, 1.0, 0.0, 1.0);
    }
}
