//! The plane cut of a tetrahedral mesh, the filter behind PHASTA's
//! "slice through the wing" images (§4.2.1), as a plot of a
//! [`crate::scene::Scene`]: each tet the plane `axis = at` crosses
//! leaves a triangle or a quad (two triangles), its vertices' values
//! interpolated onto the cut, coloured and seen face on over the mesh's
//! global bounds.

use datamodel::{CellType, UnstructuredGrid};
use minimpi::Comm;

use crate::camera::Camera;
use crate::color::Colormap;
use crate::framebuffer::Rect;
use crate::pipeline::Layer;
use crate::raster::{triangle_box, Vertex};

/// Call `emit` with each triangle the plane `axis = at` cuts from the
/// tets of `grid`: its vertices and `values`, the point values,
/// interpolated there. Cells of other shapes are skipped.
fn cut_tets(
    grid: &UnstructuredGrid,
    values: &[f64],
    axis: usize,
    at: f64,
    mut emit: impl FnMut([[f64; 3]; 3], [f64; 3]),
) {
    for c in 0..grid.num_cells() {
        if grid.cell_types[c] != CellType::Tetra {
            continue;
        }
        let ids = grid.cell_points(c);
        let pts: [[f64; 3]; 4] = std::array::from_fn(|i| grid.point_coords(ids[i] as usize));
        let vals: [f64; 4] = std::array::from_fn(|i| values[ids[i] as usize]);
        let dists = pts.map(|p| p[axis] - at);
        // The vertices on or above the plane first, then those below,
        // each in cell order.
        let mut order = [0, 1, 2, 3];
        order.sort_by_key(|&i| dists[i] < 0.0);
        let above = dists.iter().filter(|&&d| d >= 0.0).count();
        let crossing = |i: usize, j: usize| {
            let t = dists[i] / (dists[i] - dists[j]);
            let p = std::array::from_fn(|a| pts[i][a] + t * (pts[j][a] - pts[i][a]));
            (p, vals[i] + t * (vals[j] - vals[i]))
        };
        match above {
            1 | 3 => {
                let (lone, rest) = if above == 1 {
                    (order[0], &order[1..])
                } else {
                    (order[3], &order[..3])
                };
                let [(p0, s0), (p1, s1), (p2, s2)] = [0, 1, 2].map(|k| crossing(lone, rest[k]));
                emit([p0, p1, p2], [s0, s1, s2]);
            }
            2 => {
                // A quad: the edges (a0, b0), (a0, b1), (a1, b1), (a1, b0)
                // in order around it.
                let [a0, a1, b0, b1] = order;
                let [(p0, s0), (p1, s1), (p2, s2), (p3, s3)] =
                    [(a0, b0), (a0, b1), (a1, b1), (a1, b0)].map(|(i, j)| crossing(i, j));
                emit([p0, p1, p2], [s0, s1, s2]);
                emit([p0, p2, p3], [s0, s2, s3]);
            }
            _ => {} // the plane misses this tet
        }
    }
}

/// This rank's part of a cut, coloured by `cmap` over `range`: the
/// triangles it cuts from its mesh, if it has one, seen face on by an
/// orthographic camera over the other two axes of every rank's mesh,
/// those that cover no pixel left out. Collective: the camera's window
/// takes one pair reduction, which a rank without a mesh joins too.
pub(crate) fn cut_layer(
    comm: &Comm,
    mesh: Option<(&UnstructuredGrid, &[f64])>,
    (axis, at): (usize, f64),
    cmap: &Colormap,
    (lo, hi): (f64, f64),
    (width, height): (usize, usize),
) -> Layer {
    let [u, v] = match axis {
        0 => [1, 2],
        1 => [0, 2],
        _ => [0, 1],
    };
    let mut bounds = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    if let Some((grid, _)) = mesh {
        for p in 0..grid.num_points() {
            let q = grid.point_coords(p);
            for (k, a) in [u, v].into_iter().enumerate() {
                bounds.0[k] = bounds.0[k].min(q[a]);
                bounds.1[k] = bounds.1[k].max(q[a]);
            }
        }
    }
    let (min, max) = comm.allreduce_scalar(bounds, |a, b| {
        (
            [a.0[0].min(b.0[0]), a.0[1].min(b.0[1])],
            [a.1[0].max(b.1[0]), a.1[1].max(b.1[1])],
        )
    });
    let Some((grid, values)) = mesh.filter(|_| max[0] > min[0] && max[1] > min[1]) else {
        return Layer::Empty;
    };
    let camera = Camera::ortho(min[0], max[0], min[1], max[1]);
    let (mut tris, mut drawn) = (Vec::new(), Rect::default());
    cut_tets(grid, values, axis, at, |points, scalars| {
        let vertex = |k: usize| {
            let p = points[k];
            let (x, y, z) = camera.project([p[u], p[v], p[axis]], width, height)?;
            let color = cmap.map_range(scalars[k], lo, hi);
            Some(Vertex { x, y, z, color })
        };
        if let (Some(a), Some(b), Some(c)) = (vertex(0), vertex(1), vertex(2)) {
            if let Some(bbox) = triangle_box([a, b, c], width, height) {
                drawn = drawn.union(&bbox);
                tris.push([a, b, c]);
            }
        }
    });
    Layer::Triangles { tris, drawn }
}

/// Total area of the cut of `grid` by the plane `axis = at`.
#[cfg(test)]
fn cut_area(grid: &UnstructuredGrid, axis: usize, at: f64) -> f64 {
    let mut area = 0.0;
    let values = vec![0.0; grid.num_points()];
    cut_tets(grid, &values, axis, at, |[o, p, q], _| {
        let e: [[f64; 3]; 2] = [p, q].map(|r| std::array::from_fn(|i| r[i] - o[i]));
        let [a, b] = e;
        let c = [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ];
        area += 0.5 * (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
    });
    area
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::color::Color;
    use crate::composite::Compositor;
    use crate::png::decode_rgb;
    use crate::scene::{Leaf, Plot, Scene};
    use datamodel::DataArray;
    use minimpi::World;

    /// The unit cube split into the Kuhn 6 tets.
    fn cube_mesh() -> UnstructuredGrid {
        let corners: Vec<[f64; 3]> = (0..8)
            .map(|c| [(c & 1) as f64, ((c >> 1) & 1) as f64, ((c >> 2) & 1) as f64])
            .collect();
        let tets: [[i64; 4]; 6] = [
            [0, 1, 3, 7],
            [0, 1, 5, 7],
            [0, 2, 3, 7],
            [0, 2, 6, 7],
            [0, 4, 5, 7],
            [0, 4, 6, 7],
        ];
        UnstructuredGrid::new(
            DataArray::owned("points", 3, corners.concat()),
            tets.concat(),
            (0..=6).map(|c| 4 * c).collect(),
            vec![CellType::Tetra; 6],
        )
    }

    /// The cube's corners' x coordinates, the value of each point.
    fn xs() -> Vec<f64> {
        (0..8).map(|c| (c & 1) as f64).collect()
    }

    #[test]
    fn a_mid_cut_has_unit_area_on_every_axis() {
        let g = cube_mesh();
        for axis in 0..3 {
            let area = cut_area(&g, axis, 0.5);
            assert!((area - 1.0).abs() < 1e-9, "axis {axis}: cut area {area}");
        }
    }

    #[test]
    fn values_interpolate_exactly_on_the_cut() {
        let (g, mut cut) = (cube_mesh(), 0);
        cut_tets(&g, &xs(), 0, 0.25, |points, scalars| {
            for (p, s) in points.iter().zip(scalars) {
                assert!((p[0] - 0.25).abs() < 1e-12, "on the plane");
                assert!((s - 0.25).abs() < 1e-12, "value = x");
            }
            cut += 1;
        });
        assert!(cut > 0);
    }

    #[test]
    fn a_plane_off_the_mesh_cuts_nothing() {
        let g = cube_mesh();
        for at in [5.0, -5.0] {
            cut_tets(&g, &xs(), 0, at, |_, _| panic!("cut at {at}"));
        }
    }

    #[test]
    fn a_cut_frame_covers_the_mesh_whoever_holds_it() {
        // Rank 0 holds the cube and the others nothing: each still joins
        // the range and the camera's reductions, and the cut x = 0.5
        // fills the frame, coloured across y and z by nothing but the
        // one value x = 0.5 there.
        for p in [1, 2, 3] {
            let files = World::run(p, |comm| {
                let (g, values) = (cube_mesh(), xs());
                let leaf = (comm.rank() == 0).then_some((Leaf::Unstructured(&g), &values[..]));
                let plot = Plot::Cut {
                    axis: 0,
                    at: 0.5,
                    cmap: Colormap::cool_warm(),
                };
                let scene = Scene::new(
                    "cut",
                    (32, 24),
                    Compositor::BinarySwap,
                    Color::BLACK,
                    vec![plot],
                );
                let png = scene.frame(comm, 0, leaf, &Cell::new(None));
                png.map(|(png, _)| png)
            });
            let png = files[0].clone().expect("rank 0's file");
            let (w, h, rgb) = decode_rgb(&png).expect("a file");
            let mid = Colormap::cool_warm().map_range(0.5, 0.0, 1.0);
            assert_eq!((w, h), (32, 24));
            assert!(rgb.chunks(3).all(|c| c == [mid.r, mid.g, mid.b]), "p={p}");
        }
    }
}
