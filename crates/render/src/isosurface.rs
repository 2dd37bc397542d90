//! Isosurface extraction from structured point fields via marching
//! tetrahedra (each hexahedral cell split into 6 tets) — the geometry
//! pass of the AVF-LESLIE visualization (3 vorticity isosurfaces).

use datamodel::Extent;

/// One triangle of the surface, world-space vertices.
pub type Triangle = [[f64; 3]; 3];

/// The Kuhn 6-tetrahedron decomposition of a cube, as corner indices
/// (corner bit pattern: i → bit 0, j → bit 1, k → bit 2). Every tet
/// shares the 0→7 diagonal; the union exactly tiles the cube, so
/// adjacent cells produce watertight surfaces.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 1, 5, 7],
    [0, 2, 3, 7],
    [0, 2, 6, 7],
    [0, 4, 5, 7],
    [0, 4, 6, 7],
];

/// Extract the isosurface of `values` (point data over `local`, row-major
/// k-slowest) at `isovalue`, handing each world-space triangle to `emit`
/// in order. Vertex positions are `origin + index * spacing`.
pub(crate) fn march(
    local: &Extent,
    values: &[f64],
    isovalue: f64,
    origin: [f64; 3],
    spacing: [f64; 3],
    emit: &mut impl FnMut(Triangle),
) {
    assert_eq!(values.len(), local.num_points(), "point data size mismatch");
    let d = local.point_dims();
    if d[0] < 2 || d[1] < 2 || d[2] < 2 {
        return;
    }
    let val = |i: usize, j: usize, k: usize| values[(k * d[1] + j) * d[0] + i];
    for k in 0..d[2] - 1 {
        for j in 0..d[1] - 1 {
            for i in 0..d[0] - 1 {
                // Cube corner scalar values and positions.
                let mut corner_v = [0.0f64; 8];
                let mut corner_p = [[0.0f64; 3]; 8];
                for c in 0..8 {
                    let ci = i + (c & 1);
                    let cj = j + ((c >> 1) & 1);
                    let ck = k + ((c >> 2) & 1);
                    corner_v[c] = val(ci, cj, ck);
                    corner_p[c] = [
                        origin[0] + (local.lo[0] + ci as i64) as f64 * spacing[0],
                        origin[1] + (local.lo[1] + cj as i64) as f64 * spacing[1],
                        origin[2] + (local.lo[2] + ck as i64) as f64 * spacing[2],
                    ];
                }
                for tet in &TETS {
                    march_tet(
                        [
                            corner_p[tet[0]],
                            corner_p[tet[1]],
                            corner_p[tet[2]],
                            corner_p[tet[3]],
                        ],
                        [
                            corner_v[tet[0]],
                            corner_v[tet[1]],
                            corner_v[tet[2]],
                            corner_v[tet[3]],
                        ],
                        isovalue,
                        emit,
                    );
                }
            }
        }
    }
}

/// Interpolate the isovalue crossing on an edge.
fn interp(p0: [f64; 3], p1: [f64; 3], v0: f64, v1: f64, iso: f64) -> [f64; 3] {
    let t = if (v1 - v0).abs() < 1e-300 {
        0.5
    } else {
        ((iso - v0) / (v1 - v0)).clamp(0.0, 1.0)
    };
    [
        p0[0] + t * (p1[0] - p0[0]),
        p0[1] + t * (p1[1] - p0[1]),
        p0[2] + t * (p1[2] - p0[2]),
    ]
}

/// March one tetrahedron: 16 sign cases collapse to 0, 1, or 2
/// triangles.
fn march_tet(p: [[f64; 3]; 4], v: [f64; 4], iso: f64, emit: &mut impl FnMut(Triangle)) {
    // Indices of inside / outside vertices, ascending.
    let (mut ins, mut outs) = ([0usize; 4], [0usize; 4]);
    let (mut n_in, mut n_out) = (0, 0);
    for (c, &value) in v.iter().enumerate() {
        if value >= iso {
            ins[n_in] = c;
            n_in += 1;
        } else {
            outs[n_out] = c;
            n_out += 1;
        }
    }
    if n_in == 0 || n_in == 4 {
        return;
    }
    match n_in {
        1 => {
            // One vertex inside: single triangle on the three edges.
            let a = ins[0];
            emit([
                interp(p[a], p[outs[0]], v[a], v[outs[0]], iso),
                interp(p[a], p[outs[1]], v[a], v[outs[1]], iso),
                interp(p[a], p[outs[2]], v[a], v[outs[2]], iso),
            ]);
        }
        3 => {
            // One vertex outside: single triangle (mirrored case).
            let a = outs[0];
            emit([
                interp(p[a], p[ins[0]], v[a], v[ins[0]], iso),
                interp(p[a], p[ins[1]], v[a], v[ins[1]], iso),
                interp(p[a], p[ins[2]], v[a], v[ins[2]], iso),
            ]);
        }
        2 => {
            // Two in, two out: a quad split into two triangles.
            let (a, b) = (ins[0], ins[1]);
            let (c, d) = (outs[0], outs[1]);
            let ac = interp(p[a], p[c], v[a], v[c], iso);
            let ad = interp(p[a], p[d], v[a], v[d], iso);
            let bc = interp(p[b], p[c], v[b], v[c], iso);
            let bd = interp(p[b], p[d], v[b], v[d], iso);
            emit([ac, ad, bd]);
            emit([ac, bd, bc]);
        }
        _ => unreachable!(),
    }
}

/// [`march`]'s triangles, collected: the tests' reference surface.
#[cfg(test)]
pub(crate) fn marching_tetrahedra(
    local: &Extent,
    values: &[f64],
    isovalue: f64,
    origin: [f64; 3],
    spacing: [f64; 3],
) -> Vec<Triangle> {
    let mut triangles = Vec::new();
    march(local, values, isovalue, origin, spacing, &mut |t| {
        triangles.push(t)
    });
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Surface area of a triangle soup.
    fn surface_area(triangles: &[Triangle]) -> f64 {
        triangles
            .iter()
            .map(|t| {
                let u = [t[1][0] - t[0][0], t[1][1] - t[0][1], t[1][2] - t[0][2]];
                let v = [t[2][0] - t[0][0], t[2][1] - t[0][1], t[2][2] - t[0][2]];
                let cx = u[1] * v[2] - u[2] * v[1];
                let cy = u[2] * v[0] - u[0] * v[2];
                let cz = u[0] * v[1] - u[1] * v[0];
                0.5 * (cx * cx + cy * cy + cz * cz).sqrt()
            })
            .sum()
    }

    /// Distance field from the domain center over an n³ point grid.
    fn sphere_field(n: usize) -> (Extent, Vec<f64>) {
        let e = Extent::whole([n, n, n]);
        let c = (n - 1) as f64 / 2.0;
        let vals = e
            .iter_points()
            .map(|p| {
                let dx = p[0] as f64 - c;
                let dy = p[1] as f64 - c;
                let dz = p[2] as f64 - c;
                (dx * dx + dy * dy + dz * dz).sqrt()
            })
            .collect();
        (e, vals)
    }

    #[test]
    fn empty_when_isovalue_outside_range() {
        let (e, vals) = sphere_field(8);
        assert!(marching_tetrahedra(&e, &vals, 1e9, [0.0; 3], [1.0; 3]).is_empty());
        assert!(marching_tetrahedra(&e, &vals, -1e9, [0.0; 3], [1.0; 3]).is_empty());
    }

    #[test]
    fn sphere_surface_area_approximates_analytic() {
        let (e, vals) = sphere_field(33);
        let r = 10.0;
        let tris = marching_tetrahedra(&e, &vals, r, [0.0; 3], [1.0; 3]);
        assert!(!tris.is_empty());
        let area = surface_area(&tris);
        let analytic = 4.0 * std::f64::consts::PI * r * r;
        let rel = (area - analytic).abs() / analytic;
        assert!(rel < 0.10, "area {area} vs analytic {analytic} (rel {rel})");
    }

    #[test]
    fn vertices_lie_on_the_isosurface() {
        let (e, vals) = sphere_field(17);
        let r = 5.0;
        let tris = marching_tetrahedra(&e, &vals, r, [0.0; 3], [1.0; 3]);
        let c = 8.0;
        for t in &tris {
            for v in t {
                let d = ((v[0] - c).powi(2) + (v[1] - c).powi(2) + (v[2] - c).powi(2)).sqrt();
                // Linear interpolation error of the distance field.
                assert!((d - r).abs() < 0.25, "vertex at distance {d}");
            }
        }
    }

    #[test]
    fn planar_field_yields_flat_surface() {
        // Field = x: isosurface x = 1.5 is a plane of area (n-1)².
        let e = Extent::whole([4, 4, 4]);
        let vals: Vec<f64> = e.iter_points().map(|p| p[0] as f64).collect();
        let tris = marching_tetrahedra(&e, &vals, 1.5, [0.0; 3], [1.0; 3]);
        let area = surface_area(&tris);
        assert!((area - 9.0).abs() < 1e-9, "plane area {area}");
        for t in &tris {
            for v in t {
                assert!((v[0] - 1.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spacing_and_origin_scale_geometry() {
        let e = Extent::whole([4, 4, 4]);
        let vals: Vec<f64> = e.iter_points().map(|p| p[0] as f64).collect();
        let tris = marching_tetrahedra(&e, &vals, 1.5, [10.0, 0.0, 0.0], [2.0, 1.0, 1.0]);
        for t in &tris {
            for v in t {
                assert!((v[0] - 13.0).abs() < 1e-12, "x = 10 + 1.5·2");
            }
        }
    }

    #[test]
    fn degenerate_grid_no_cells() {
        let e = Extent::new([0, 0, 0], [3, 3, 0]); // a plane: no 3D cells
        let vals = vec![0.0; e.num_points()];
        assert!(marching_tetrahedra(&e, &vals, 0.5, [0.0; 3], [1.0; 3]).is_empty());
    }
}
