//! End-to-end distributed render pipelines: extract → rasterize locally
//! → composite in parallel. These are the building blocks the
//! infrastructure crates (`catalyst`, `libsim`) configure differently
//! (image sizes, compositor family), per §4.1.3, through [`crate::scene::Scene`].
//!
//! Each pipeline comes gathered ([`pseudocolor_slice`],
//! [`shaded_isosurface`]: the image on rank 0) and as its plot alone
//! (`slice_layer`, `isosurface_layer`: this rank's block over a range
//! taken once per frame, prepared once — a slice's cells coloured, a
//! surface's triangles shaded and projected — and drawn into whatever
//! rows the compositor asks for), which [`crate::scene::Scene`]
//! composites up to where `composite::merge` stops and hands to
//! [`crate::png::PngEncoder`]. Both go through the one merge.

use datamodel::Extent;
use minimpi::Comm;

use crate::camera::Camera;
use crate::color::{Color, Colormap};
use crate::composite::{gathered, Compositor, RowSource};
use crate::framebuffer::{Framebuffer, Rect};
use crate::isosurface::march;
use crate::raster::{fill_triangle, triangle_box, Vertex};
use crate::slice::{locate_plane, Plane};

/// Global `(min, max)` of a block-decomposed field: the one colour scale
/// every rank has to share. Collective (one pair reduction); NaN-free
/// fields assumed. Equal as numbers to the serial fold; the sign of a
/// zero extreme is unspecified, as it is for `f64::min`/`max`.
pub(crate) fn global_range(comm: &Comm, values: &[f64]) -> (f64, f64) {
    // Eight independent accumulators: `min`/`max` over a set do not
    // depend on the order, and one accumulator is a serial chain of
    // their latencies over the whole field. The lanes are selects,
    // which compile to packed `min`/`max` where `f64::min`/`max` do not.
    const LANES: usize = 8;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut fold = |vs: &[f64]| {
        for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(vs) {
            *lo = if v < *lo { v } else { *lo };
            *hi = if v > *hi { v } else { *hi };
        }
    };
    let (octets, rest) = values.as_chunks::<LANES>();
    octets.iter().for_each(|vs| fold(vs));
    fold(rest);
    let lo = lo.into_iter().fold(f64::INFINITY, f64::min);
    let hi = hi.into_iter().fold(f64::NEG_INFINITY, f64::max);
    comm.allreduce_scalar((lo, hi), |a: (f64, f64), b| (a.0.min(b.0), a.1.max(b.1)))
}

/// Configuration of a distributed pseudocolor-slice render.
#[derive(Clone, Debug)]
pub struct SliceRender {
    /// Sliced axis (0/1/2).
    pub axis: usize,
    /// Global point index of the plane.
    pub global_index: i64,
    /// Output image width.
    pub width: usize,
    /// Output image height.
    pub height: usize,
    /// Compositing algorithm.
    pub compositor: Compositor,
    /// Colormap for pseudocoloring.
    pub cmap: Colormap,
}

/// Render a slice of a block-decomposed structured point field.
/// Collective over `comm`; returns the composited image on rank 0.
///
/// Only ranks whose block intersects the plane rasterize anything (the
/// §4.1.3 behavior); everyone participates in compositing.
pub fn pseudocolor_slice(
    comm: &Comm,
    local: &Extent,
    global: &Extent,
    values: &[f64],
    cfg: &SliceRender,
) -> Option<Framebuffer> {
    let range = global_range(comm, values);
    let layer = slice_layer(comm, local, global, values, cfg, range);
    let image = gathered(comm, &layer, (cfg.width, cfg.height), cfg.compositor);
    if let Layer::Slice(plane) = layer {
        plane.park(comm);
    }
    image
}

/// One rank's plot, prepared once a frame and drawn into any rectangle
/// of the image: the compositor draws the rows a rank keeps into its
/// frame, and each strip it gives away straight into the message just
/// before it is sent (`composite::RowSource`).
pub(crate) enum Layer {
    /// Nothing: the rank has no block, or its block misses the plot.
    Empty,
    /// This rank's piece of a slice plane, its cells coloured.
    Slice(Plane),
    /// Shaded triangles projected into the image, in drawing order, each
    /// with pixels of the image in its box.
    Triangles { tris: Vec<[Vertex; 3]>, drawn: Rect },
}

impl RowSource for Layer {
    fn drawn(&self) -> &Rect {
        const NOTHING: &Rect = &Rect {
            cols: 0..0,
            rows: 0..0,
        };
        match self {
            Layer::Empty => NOTHING,
            Layer::Slice(plane) => &plane.drawn,
            Layer::Triangles { drawn, .. } => drawn,
        }
    }

    fn draw(&self, fb: &mut Framebuffer) {
        match self {
            Layer::Empty => {}
            Layer::Slice(plane) => plane.draw(fb),
            Layer::Triangles { tris, .. } => {
                for &[a, b, c] in tris {
                    fill_triangle(fb, a, b, c);
                }
            }
        }
    }
}

/// This rank's part of [`pseudocolor_slice`], coloured over `range`: its
/// piece of the plane, if its block meets it, prepared from `values` in
/// place into the tables `comm`'s pool keeps.
pub(crate) fn slice_layer(
    comm: &Comm,
    local: &Extent,
    global: &Extent,
    values: &[f64],
    cfg: &SliceRender,
    range: (f64, f64),
) -> Layer {
    let Some((piece, at)) = locate_plane(local, global, cfg.axis, cfg.global_index) else {
        return Layer::Empty;
    };
    let mut plane: Plane = comm.spare().unwrap_or_default();
    let value = |u, v| values[at(u, v)];
    plane.prepare(&piece, value, &cfg.cmap, range, (cfg.width, cfg.height));
    Layer::Slice(plane)
}

/// Configuration of a distributed isosurface render.
#[derive(Clone, Debug)]
pub struct IsosurfaceRender {
    /// Isovalues to extract (one surface each).
    pub isovalues: Vec<f64>,
    /// Camera.
    pub camera: Camera,
    /// Output image width.
    pub width: usize,
    /// Output image height.
    pub height: usize,
    /// Compositing algorithm.
    pub compositor: Compositor,
    /// Colormap indexed by isovalue position in the data range.
    pub cmap: Colormap,
    /// World-space origin of the structured grid.
    pub origin: [f64; 3],
    /// Grid spacing.
    pub spacing: [f64; 3],
}

/// Render isosurfaces of a block-decomposed structured point field with
/// flat diffuse shading. Collective; image lands on rank 0.
pub fn shaded_isosurface(
    comm: &Comm,
    local: &Extent,
    values: &[f64],
    cfg: &IsosurfaceRender,
) -> Option<Framebuffer> {
    let range = global_range(comm, values);
    let layer = isosurface_layer(local, values, cfg, range);
    gathered(comm, &layer, (cfg.width, cfg.height), cfg.compositor)
}

/// This rank's part of [`shaded_isosurface`], coloured over `range`: its
/// triangles of every level, shaded and projected, those that cover no
/// pixel left out, and the rectangle they cover.
pub(crate) fn isosurface_layer(
    local: &Extent,
    values: &[f64],
    cfg: &IsosurfaceRender,
    (glo, ghi): (f64, f64),
) -> Layer {
    let light = normalize([0.4, 0.5, -0.8]);
    let (mut tris, mut drawn) = (Vec::new(), Rect::default());
    for &iso in &cfg.isovalues {
        let base = cfg.cmap.map_range(iso, glo, ghi);
        march(local, values, iso, cfg.origin, cfg.spacing, &mut |t| {
            let n = triangle_normal(&t);
            // Two-sided diffuse shade.
            let diffuse = (n[0] * light[0] + n[1] * light[1] + n[2] * light[2]).abs();
            let shade = 0.35 + 0.65 * diffuse;
            let color = Color::rgb(
                (base.r as f64 * shade) as u8,
                (base.g as f64 * shade) as u8,
                (base.b as f64 * shade) as u8,
            );
            let vertex = |p: [f64; 3]| {
                let (x, y, z) = cfg.camera.project(p, cfg.width, cfg.height)?;
                Some(Vertex { x, y, z, color })
            };
            if let (Some(a), Some(b), Some(c)) = (vertex(t[0]), vertex(t[1]), vertex(t[2])) {
                if let Some(bbox) = triangle_box([a, b, c], cfg.width, cfg.height) {
                    drawn = drawn.union(&bbox);
                    tris.push([a, b, c]);
                }
            }
        });
    }
    Layer::Triangles { tris, drawn }
}

fn triangle_normal(t: &[[f64; 3]; 3]) -> [f64; 3] {
    let u = [t[1][0] - t[0][0], t[1][1] - t[0][1], t[1][2] - t[0][2]];
    let v = [t[2][0] - t[0][0], t[2][1] - t[0][1], t[2][2] - t[0][2]];
    normalize([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if n < 1e-300 {
        return [0.0, 0.0, 1.0];
    }
    [v[0] / n, v[1] / n, v[2] / n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::merge;
    use datamodel::partition_extent;
    use minimpi::World;

    #[test]
    fn global_range_is_the_serial_fold() {
        // Every tail length around the lane count, split over ranks.
        // No ±0.0 pair in the field, so equal numbers are equal bits.
        for n in [0usize, 1, 7, 8, 9, 31, 1000] {
            let field: Vec<f64> = (0..n)
                .map(|k| ((k * 7919) % 1013) as f64 / 7.0 - 70.0)
                .collect();
            let want = field
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            for p in [1usize, 3] {
                let field = field.clone();
                let got = World::run(p, move |comm| {
                    let (lo, hi) = (comm.rank() * n / p, (comm.rank() + 1) * n / p);
                    global_range(comm, &field[lo..hi])
                });
                for (lo, hi) in got {
                    assert_eq!(
                        (lo.to_bits(), hi.to_bits()),
                        (want.0.to_bits(), want.1.to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_slice_matches_single_rank() {
        let global = Extent::whole([9, 9, 9]);
        let field = |p: [i64; 3]| (p[0] + p[1] * 2) as f64;
        let cfg = SliceRender {
            axis: 2,
            global_index: 4,
            width: 24,
            height: 24,
            compositor: Compositor::BinarySwap,
            cmap: Colormap::cool_warm(),
        };
        let cfg1 = cfg.clone();
        let single = World::run(1, move |comm| {
            let vals: Vec<f64> = global.iter_points().map(field).collect();
            pseudocolor_slice(comm, &global, &global, &vals, &cfg1)
        });
        let cfg4 = cfg.clone();
        let multi = World::run(4, move |comm| {
            let local = partition_extent(&global, [2, 2, 1], comm.rank());
            let vals: Vec<f64> = local.iter_points().map(field).collect();
            pseudocolor_slice(comm, &local, &global, &vals, &cfg4)
        });
        let a = single[0].as_ref().unwrap();
        let b = multi[0].as_ref().unwrap();
        assert_eq!(a.color(), b.color(), "decomposition-invariant image");
        assert_eq!(a.covered_pixels(), 24 * 24);
    }

    #[test]
    fn drawing_into_the_spare_buffer_equals_drawing_into_a_new_one() {
        // The spare arrives full of another frame (another plane, stale
        // rows from the swap, and pixels in front of anything a slice
        // draws, off the slice too) at another size; colour and depth
        // of what comes back must be a fresh render's, on every rank.
        let global = Extent::whole([9, 9, 9]);
        let cfg = SliceRender {
            axis: 2,
            global_index: 4,
            width: 24,
            height: 24,
            compositor: Compositor::BinarySwap,
            cmap: Colormap::cool_warm(),
        };
        let held = World::run(4, move |comm| {
            let local = partition_extent(&global, [2, 2, 1], comm.rank());
            let vals: Vec<f64> = local.iter_points().map(|p| (p[0] * p[1]) as f64).collect();
            let other = SliceRender {
                global_index: 7,
                width: 30,
                ..cfg.clone()
            };
            let range = global_range(comm, &vals);
            let kept = |cfg: &SliceRender| cfg.compositor.kept_rows(4, comm.rank(), cfg.height);
            let bands = |cfg: &SliceRender, mut fb: Framebuffer| {
                let layer = slice_layer(comm, &local, &global, &vals, cfg, range);
                merge(comm, &mut fb, &layer, cfg.compositor);
                if let Layer::Slice(plane) = layer {
                    plane.park(comm);
                }
                fb
            };
            let taken = Framebuffer::take(comm, other.width, other.height, kept(&other));
            let mut before = bands(&other, taken);
            for k in 0..8 {
                before.set_pixel(3 * k, 2 * k, -1.0, Color::WHITE);
            }
            let at = before.color().as_ptr();
            before.park(comm);
            let again = bands(
                &cfg,
                Framebuffer::take(comm, cfg.width, cfg.height, kept(&cfg)),
            );
            assert_eq!(again.color().as_ptr(), at, "the spare's memory");
            let fresh = Framebuffer::with_rows(cfg.width, cfg.height, kept(&cfg));
            (again, bands(&cfg, fresh))
        });
        for (again, fresh) in held {
            assert_eq!(again, fresh, "colour and depth");
        }
    }

    #[test]
    fn non_intersecting_ranks_render_nothing_but_composite() {
        let global = Extent::whole([9, 3, 3]);
        let out = World::run(4, move |comm| {
            let local = partition_extent(&global, [4, 1, 1], comm.rank());
            let vals: Vec<f64> = local.iter_points().map(|p| p[0] as f64).collect();
            let cfg = SliceRender {
                axis: 0, // slice perpendicular to the decomposition axis
                global_index: 1,
                width: 8,
                height: 8,
                compositor: Compositor::DirectSendTree(2),
                cmap: Colormap::grayscale(),
            };
            pseudocolor_slice(comm, &local, &global, &vals, &cfg)
        });
        let root = out[0].as_ref().unwrap();
        assert_eq!(root.covered_pixels(), 64, "plane fully painted by one rank");
    }

    #[test]
    fn distributed_isosurface_renders_sphere() {
        let global = Extent::whole([17, 17, 17]);
        let out = World::run(8, move |comm| {
            let local = partition_extent(&global, [2, 2, 2], comm.rank());
            let c = 8.0;
            let vals: Vec<f64> = local
                .iter_points()
                .map(|p| {
                    let dx = p[0] as f64 - c;
                    let dy = p[1] as f64 - c;
                    let dz = p[2] as f64 - c;
                    (dx * dx + dy * dy + dz * dz).sqrt()
                })
                .collect();
            let cfg = IsosurfaceRender {
                isovalues: vec![5.0],
                camera: Camera::look_at([8.0, 8.0, -20.0], [8.0, 8.0, 8.0], [0.0, 1.0, 0.0], 0.9),
                width: 64,
                height: 64,
                compositor: Compositor::BinarySwap,
                cmap: Colormap::viridis(),
                origin: [0.0; 3],
                spacing: [1.0; 3],
            };
            shaded_isosurface(comm, &local, &vals, &cfg)
        });
        let root = out[0].as_ref().unwrap();
        // The sphere projects to a disc: a good chunk of pixels covered,
        // and the center pixel definitely hit.
        assert!(
            root.covered_pixels() > 200,
            "covered {}",
            root.covered_pixels()
        );
        assert_ne!(root.pixel(32, 32), crate::color::Color::TRANSPARENT);
        // Corners stay background.
        assert_eq!(root.pixel(1, 1), crate::color::Color::TRANSPARENT);
    }

    #[test]
    fn multiple_isovalues_nest() {
        let global = Extent::whole([17, 17, 17]);
        let covered: Vec<usize> = [vec![6.0], vec![6.0, 3.0]]
            .into_iter()
            .map(|isos| {
                let out = World::run(1, move |comm| {
                    let c = 8.0;
                    let vals: Vec<f64> = global
                        .iter_points()
                        .map(|p| {
                            let dx = p[0] as f64 - c;
                            let dy = p[1] as f64 - c;
                            let dz = p[2] as f64 - c;
                            (dx * dx + dy * dy + dz * dz).sqrt()
                        })
                        .collect();
                    let cfg = IsosurfaceRender {
                        isovalues: isos.clone(),
                        camera: Camera::look_at(
                            [8.0, 8.0, -20.0],
                            [8.0, 8.0, 8.0],
                            [0.0, 1.0, 0.0],
                            0.9,
                        ),
                        width: 48,
                        height: 48,
                        compositor: Compositor::BinarySwap,
                        cmap: Colormap::viridis(),
                        origin: [0.0; 3],
                        spacing: [1.0; 3],
                    };
                    shaded_isosurface(comm, &global, &vals, &cfg)
                        .unwrap()
                        .covered_pixels()
                });
                out[0]
            })
            .collect();
        // The outer surface dominates coverage; adding an inner level
        // must not reduce it.
        assert!(covered[1] >= covered[0]);
    }
}
