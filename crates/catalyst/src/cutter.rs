//! Plane cutter for unstructured tetrahedral meshes — the filter behind
//! the PHASTA "slice through the wing" images (§4.2.1). Cutting a tet
//! with a plane yields a triangle or a quad (two triangles); vertex
//! scalars interpolate onto the cut.

use datamodel::{CellType, UnstructuredGrid};

/// A cut triangle: three world-space vertices with interpolated scalars.
#[derive(Clone, Debug, PartialEq)]
pub struct CutTriangle {
    /// Vertex positions.
    pub points: [[f64; 3]; 3],
    /// Interpolated scalar at each vertex.
    pub scalars: [f64; 3],
}

/// Signed distance of `p` to the plane `normal · x = offset`.
fn plane_dist(p: [f64; 3], normal: [f64; 3], offset: f64) -> f64 {
    p[0] * normal[0] + p[1] * normal[1] + p[2] * normal[2] - offset
}

fn lerp_point(a: [f64; 3], b: [f64; 3], t: f64) -> [f64; 3] {
    std::array::from_fn(|i| a[i] + t * (b[i] - a[i]))
}

/// Cut every tetrahedral cell of `grid` with the plane
/// `normal · x = offset`, interpolating the named point scalar. Non-tet
/// cells are skipped.
pub fn cut_tets(
    grid: &UnstructuredGrid,
    scalar_array: &str,
    normal: [f64; 3],
    offset: f64,
) -> Vec<CutTriangle> {
    let scalars = grid.point_data.get(scalar_array);
    let value = |p: usize| scalars.map(|a| a.get(p, 0)).unwrap_or(0.0);
    let mut out = Vec::new();
    for c in 0..grid.num_cells() {
        if grid.cell_types[c] != CellType::Tetra {
            continue;
        }
        let ids = grid.cell_points(c);
        let pts: Vec<[f64; 3]> = ids.iter().map(|&p| grid.point_coords(p as usize)).collect();
        let vals: Vec<f64> = ids.iter().map(|&p| value(p as usize)).collect();
        let dists: Vec<f64> = pts.iter().map(|&p| plane_dist(p, normal, offset)).collect();

        let above: Vec<usize> = (0..4).filter(|&i| dists[i] >= 0.0).collect();
        let below: Vec<usize> = (0..4).filter(|&i| dists[i] < 0.0).collect();
        if above.is_empty() || below.is_empty() {
            continue; // plane misses this tet
        }
        // Crossing edges: every (above, below) pair.
        let crossing = |i: usize, j: usize| -> ([f64; 3], f64) {
            let t = dists[i] / (dists[i] - dists[j]);
            (
                lerp_point(pts[i], pts[j], t),
                vals[i] + t * (vals[j] - vals[i]),
            )
        };
        match (above.len(), below.len()) {
            (1, 3) | (3, 1) => {
                let (lone, rest) = if above.len() == 1 {
                    (above[0], below)
                } else {
                    (below[0], above)
                };
                let (p0, s0) = crossing(lone, rest[0]);
                let (p1, s1) = crossing(lone, rest[1]);
                let (p2, s2) = crossing(lone, rest[2]);
                out.push(CutTriangle {
                    points: [p0, p1, p2],
                    scalars: [s0, s1, s2],
                });
            }
            (2, 2) => {
                // Quad: edges (a0,b0), (a0,b1), (a1,b1), (a1,b0) in order.
                let (a0, a1) = (above[0], above[1]);
                let (b0, b1) = (below[0], below[1]);
                let (p0, s0) = crossing(a0, b0);
                let (p1, s1) = crossing(a0, b1);
                let (p2, s2) = crossing(a1, b1);
                let (p3, s3) = crossing(a1, b0);
                out.push(CutTriangle {
                    points: [p0, p1, p2],
                    scalars: [s0, s1, s2],
                });
                out.push(CutTriangle {
                    points: [p0, p2, p3],
                    scalars: [s0, s2, s3],
                });
            }
            _ => unreachable!("above/below partition of 4 vertices"),
        }
    }
    out
}

/// Total area of a set of cut triangles.
pub fn cut_area(tris: &[CutTriangle]) -> f64 {
    tris.iter()
        .map(|t| {
            let [o, p, q] = t.points;
            let u: [f64; 3] = std::array::from_fn(|i| p[i] - o[i]);
            let v: [f64; 3] = std::array::from_fn(|i| q[i] - o[i]);
            let c = [
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            ];
            0.5 * (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::DataArray;

    /// Unit cube split into the Kuhn 6 tets, scalar = x coordinate.
    fn cube_mesh() -> UnstructuredGrid {
        let corners: Vec<[f64; 3]> = (0..8)
            .map(|c| [(c & 1) as f64, ((c >> 1) & 1) as f64, ((c >> 2) & 1) as f64])
            .collect();
        let mut pts = Vec::new();
        for c in &corners {
            pts.extend_from_slice(c);
        }
        let tets: [[i64; 4]; 6] = [
            [0, 1, 3, 7],
            [0, 1, 5, 7],
            [0, 2, 3, 7],
            [0, 2, 6, 7],
            [0, 4, 5, 7],
            [0, 4, 6, 7],
        ];
        let mut conn = Vec::new();
        let mut offsets = vec![0usize];
        for t in &tets {
            conn.extend_from_slice(t);
            offsets.push(conn.len());
        }
        let mut g = UnstructuredGrid::new(
            DataArray::owned("points", 3, pts),
            conn,
            offsets,
            vec![CellType::Tetra; 6],
        );
        let xs: Vec<f64> = corners.iter().map(|c| c[0]).collect();
        g.add_point_array(DataArray::owned("x", 1, xs));
        g
    }

    #[test]
    fn mid_cut_has_unit_area() {
        let g = cube_mesh();
        let tris = cut_tets(&g, "x", [1.0, 0.0, 0.0], 0.5);
        assert!(!tris.is_empty());
        let area = cut_area(&tris);
        assert!((area - 1.0).abs() < 1e-9, "cut area {area}");
    }

    #[test]
    fn scalars_interpolate_exactly_on_cut() {
        let g = cube_mesh();
        let tris = cut_tets(&g, "x", [1.0, 0.0, 0.0], 0.25);
        for t in &tris {
            for (p, s) in t.points.iter().zip(t.scalars.iter()) {
                assert!((p[0] - 0.25).abs() < 1e-12, "on the plane");
                assert!((s - 0.25).abs() < 1e-12, "scalar = x");
            }
        }
    }

    #[test]
    fn missing_plane_produces_nothing() {
        let g = cube_mesh();
        assert!(cut_tets(&g, "x", [1.0, 0.0, 0.0], 5.0).is_empty());
        assert!(cut_tets(&g, "x", [1.0, 0.0, 0.0], -5.0).is_empty());
    }

    #[test]
    fn oblique_cut_is_nonempty_with_plausible_area() {
        let g = cube_mesh();
        let n = {
            let l = (3.0f64).sqrt();
            [1.0 / l, 1.0 / l, 1.0 / l]
        };
        let tris = cut_tets(&g, "x", n, 0.8);
        let area = cut_area(&tris);
        assert!(area > 0.5 && area < 1.5, "oblique cut area {area}");
    }

    #[test]
    fn unknown_scalar_defaults_to_zero() {
        let g = cube_mesh();
        let tris = cut_tets(&g, "nope", [1.0, 0.0, 0.0], 0.5);
        assert!(tris.iter().all(|t| t.scalars == [0.0; 3]));
    }
}
