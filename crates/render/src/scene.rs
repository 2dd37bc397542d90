//! One in situ frame, as `catalyst` and `libsim` configure it, and as
//! the science proxies' figures do (PHASTA's cut through a tetrahedral
//! mesh is a [`Plot::Cut`] of a [`Leaf::Unstructured`]): one
//! [`global_range`] a step, kept in the caller's range cell for the
//! step's later frames, each plot prepared and composited over it and
//! depth-merged where its rows lie, one collective [`PngEncoder`] file.
//! A rank without the field is an empty block: it draws nothing and
//! still joins every collective, so no rank waits on it.
//!
//! A scene is configuration alone; what a rank keeps between frames
//! waits in its pool, one of each whatever scene drew last, so that
//! Catalyst and Libsim on one rank share them and nothing is faulted in
//! after the first frames. A frame holds only the rows the rank keeps
//! while it composites (`Compositor::kept_rows`): half of Catalyst's
//! image after binary swap's first halving, all of Libsim's on the
//! tree's root and nothing on a leaf. It is taken from the spare
//! framebuffer in the pool (`Framebuffer::take`) and parked again once
//! the file is encoded. The rows a rank gives away are drawn strip by
//! strip straight into the messages that carry them
//! (`composite::merge`), whose buffers wait in the pool too. A rank
//! that deflates a band of the file takes the pool's one encoder for it
//! (`PngEncoder::encode`), and a slice is prepared in its one table of
//! cells (`slice::Plane`). A scene's later plots share one more buffer
//! a frame, which the last park drops, and are merged into the frame
//! where they lie. The comm's probe times `per-step/render/range` and
//! `…/encode` once a frame, and `…/clear` (the take), `…/draw` (the
//! plot's preparation: its slice piece with each cell coloured, ≈ 0.4
//! ms a step at `render-insitu`'s shape, or its projected triangles)
//! and `…/composite` (filling the kept rows and the strips, and
//! merging) once a plot.

use std::cell::Cell;
use std::path::PathBuf;

use datamodel::{Structured, UnstructuredGrid};
use minimpi::Comm;

use crate::camera::Camera;
use crate::color::{Color, Colormap};
use crate::composite::{merge, Compositor};
use crate::cut::cut_layer;
use crate::framebuffer::Framebuffer;
use crate::pipeline::{
    global_range, isosurface_layer, slice_layer, IsosurfaceRender, Layer, SliceRender,
};
use crate::png::PngEncoder;

/// One plot of a [`Scene`], coloured by `cmap` over the field's range.
#[derive(Clone, Debug)]
pub enum Plot {
    /// The plane `axis = index`, a global point index clamped into the
    /// domain.
    Slice {
        axis: usize,
        index: i64,
        cmap: Colormap,
    },
    /// Shaded isosurfaces at `levels`, fractions of the range, seen from
    /// outside the domain.
    Isosurface { levels: Vec<f64>, cmap: Colormap },
    /// The plane `axis = at`, in world coordinates, through a
    /// tetrahedral mesh, seen face on over the mesh's bounds.
    Cut {
        axis: usize,
        at: f64,
        cmap: Colormap,
    },
}

/// A rank's leaf of the field a [`Scene`] draws: a structured block,
/// which slices and isosurfaces draw, or a tetrahedral mesh, which a cut
/// draws.
#[derive(Clone, Copy, Debug)]
pub enum Leaf<'a> {
    /// A block of a structured grid.
    Structured(Structured<'a>),
    /// A piece of an unstructured mesh.
    Unstructured(&'a UnstructuredGrid),
}

/// A frame's configuration.
pub struct Scene {
    image: (usize, usize),
    compositor: Compositor,
    background: Color,
    plots: Vec<Plot>,
    /// Rank 0 writes each frame to `<dir>/<prefix>_<step>.png` here.
    pub output: Option<PathBuf>,
    prefix: &'static str,
}

impl Scene {
    /// `plots` in an `image` over `background`, composited by
    /// `compositor`, in files named `<prefix>_<step>.png`.
    pub fn new(
        prefix: &'static str,
        image: (usize, usize),
        compositor: Compositor,
        background: Color,
        plots: Vec<Plot>,
    ) -> Self {
        Scene {
            image,
            compositor,
            background,
            plots,
            output: None,
            prefix,
        }
    }

    /// One frame of `field` — this rank's leaf and its point values, or
    /// `None` — coloured over `range`, the field's range this step: the
    /// one a frame of this step already took, or else taken here (one
    /// pair reduction) and kept in it. Collective, so every rank passes
    /// a cell in the same state; rank 0 gets the PNG and whether writing
    /// it to `output` failed.
    pub fn frame(
        &self,
        comm: &Comm,
        step: u64,
        field: Option<(Leaf<'_>, &[f64])>,
        range: &Cell<Option<(f64, f64)>>,
    ) -> Option<(Vec<u8>, Result<(), String>)> {
        let probe = comm.probe();
        let (lo, hi) = {
            let _range = probe.span("per-step/render/range");
            let taken = range
                .get()
                .unwrap_or_else(|| global_range(comm, field.map_or(&[][..], |(_, values)| values)));
            range.set(Some(taken));
            taken
        };
        let ((width, height), compositor) = (self.image, self.compositor);
        let (p, me) = (comm.size(), comm.rank());
        // Each later plot is merged in where this rank's rows lie: only
        // what it drew there is final, and only that can show.
        let (kept, owned) = (
            compositor.kept_rows(p, me, height),
            compositor.owned_rows(p, me, height),
        );
        let mut image: Option<Framebuffer> = None;
        for plot in &self.plots {
            let mut fb = {
                let _clear = probe.span("per-step/render/clear");
                Framebuffer::take(comm, width, height, kept.clone())
            };
            let draw = probe.span("per-step/render/draw");
            let layer = match (plot, field) {
                (Plot::Slice { axis, index, cmap }, Some((Leaf::Structured(grid), values))) => {
                    let (local, global) = (&grid.extent, &grid.global_extent);
                    let slice = SliceRender {
                        axis: *axis,
                        global_index: (*index).clamp(global.lo[*axis], global.hi[*axis]),
                        width,
                        height,
                        compositor,
                        cmap: cmap.clone(),
                    };
                    slice_layer(comm, local, global, values, &slice, (lo, hi))
                }
                (Plot::Isosurface { levels, cmap }, Some((Leaf::Structured(grid), values))) => {
                    let cfg = IsosurfaceRender {
                        isovalues: levels.iter().map(|f| lo + f * (hi - lo)).collect(),
                        camera: overview(&grid),
                        width,
                        height,
                        compositor,
                        cmap: cmap.clone(),
                        origin: grid.origin,
                        spacing: grid.spacing,
                    };
                    isosurface_layer(&grid.extent, values, &cfg, (lo, hi))
                }
                (Plot::Cut { axis, at, cmap }, field) => {
                    let mesh = match field {
                        Some((Leaf::Unstructured(grid), values)) => Some((grid, values)),
                        _ => None,
                    };
                    cut_layer(comm, mesh, (*axis, *at), cmap, (lo, hi), self.image)
                }
                _ => Layer::Empty,
            };
            drop(draw);
            let _composite = probe.span("per-step/render/composite");
            merge(comm, &mut fb, &layer, compositor);
            if let Layer::Slice(plane) = layer {
                plane.park(comm);
            }
            match &mut image {
                None => image = Some(fb),
                Some(image) => {
                    image.composite_rows_from(&fb, owned.clone());
                    fb.park(comm);
                }
            }
        }
        // With no plot the buffer stays clear: a rank that owns rows
        // still owes the encode them.
        let image = image.unwrap_or_else(|| Framebuffer::take(comm, width, height, kept));
        let png = {
            let _encode = probe.span("per-step/render/encode");
            PngEncoder::encode(comm, &image, compositor, self.background)
        };
        image.park(comm);
        let png = png?;
        let written = self.output.as_ref().map_or(Ok(()), |dir| {
            let path = dir.join(format!("{}_{step:05}.png", self.prefix));
            std::fs::write(&path, &png)
                .map_err(|e| format!("failed to write {}: {e}", path.display()))
        });
        Some((png, written))
    }
}

/// A camera looking at the centre of the whole domain from outside it.
fn overview(grid: &Structured<'_>) -> Camera {
    let dims = grid.global_extent.point_dims();
    let length = |a: usize| (dims[a] - 1) as f64 * grid.spacing[a];
    let center: [f64; 3] = std::array::from_fn(|a| grid.origin[a] + length(a) / 2.0);
    let span = |a: usize| dims[a] as f64 * grid.spacing[a];
    let size = span(0).max(span(1)).max(span(2));
    let eye = std::array::from_fn(|a| center[a] + [1.2, 0.9, -2.0][a] * size);
    Camera::look_at(eye, center, [0.0, 1.0, 0.0], 0.8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::composite;
    use crate::deflate::Mode;
    use crate::isosurface::marching_tetrahedra;
    use crate::png::{decode_rgb, encode_framebuffer};
    use crate::raster::{fill_triangle, Vertex};
    use crate::slice::{extract_plane, render_plane};
    use datamodel::{dims_create, partition_extent, Attributes, Extent};
    use minimpi::World;
    use perfmodel::compositing::Algorithm;

    /// Two frames of one slice on `p` ranks: where each rank's spare
    /// framebuffer is after each, and rank 0's files.
    fn two_frames(which: Compositor, p: usize) -> Vec<Vec<(Option<usize>, bool)>> {
        let global = Extent::whole([9, 9, 9]);
        let files = World::run(p, move |comm| {
            let extent = partition_extent(&global, dims_create(p), comm.rank());
            let values: Vec<f64> = extent
                .iter_points()
                .map(|q| (q[0] + 2 * q[1]) as f64)
                .collect();
            let attrs = Attributes::default();
            let grid = Structured {
                extent,
                global_extent: global,
                origin: [0.0; 3],
                spacing: [1.0; 3],
                point_data: &attrs,
            };
            let plot = Plot::Slice {
                axis: 2,
                index: 4,
                cmap: Colormap::cool_warm(),
            };
            let scene = Scene::new("frame", (40, 24), which, Color::BLACK, vec![plot]);
            (0..2)
                .map(|step| {
                    let range = Cell::new(None);
                    let png =
                        scene.frame(comm, step, Some((Leaf::Structured(grid), &values)), &range);
                    (Framebuffer::spare_at(comm), png.map(|(png, _)| png))
                })
                .collect::<Vec<_>>()
        });
        let first = files[0][0].1.clone();
        assert!(first.is_some(), "rank 0 gets the file");
        files
            .into_iter()
            .map(|frames| {
                let same = |png: &Option<Vec<u8>>| png.is_none() || *png == first;
                frames
                    .into_iter()
                    .map(|(at, png)| (at, same(&png)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_rank_draws_each_frame_into_the_buffer_it_kept() {
        // A tree child and a folded swap rank send copies of their drawn
        // pixels and keep their buffers, like every other rank.
        for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
            for p in [2, 3, 5] {
                for (rank, frames) in two_frames(which, p).into_iter().enumerate() {
                    let what = format!("{which:?} p={p} rank {rank}: {frames:?}");
                    assert!(frames[0].0.is_some(), "{what}: the frame was parked");
                    assert_eq!(frames[0].0, frames[1].0, "{what}: one allocation");
                    assert!(frames.iter().all(|f| f.1), "{what}: the same file");
                }
            }
        }
    }

    /// The rows `rank`'s frame holds after a frame over `p` ranks,
    /// restated from the algorithms: binary swap keeps the half of the
    /// first halving (⌊h/2⌋ rows on the group's lower half, the rest on
    /// its upper), the whole image where a folded rank is merged in or a
    /// rank is alone, nothing on a folded rank; a tree keeps the whole
    /// image on its root and inner nodes and nothing on a leaf.
    fn kept(which: Compositor, p: usize, rank: usize, h: usize) -> usize {
        let pot = 1 << p.ilog2();
        match which {
            Compositor::BinarySwap if rank >= pot => 0,
            Compositor::BinarySwap if p == 1 || rank < p - pot => h,
            Compositor::BinarySwap if rank < pot / 2 => h / 2,
            Compositor::BinarySwap => h - h / 2,
            Compositor::DirectSendTree(f) if rank == 0 || rank * f + 1 < p => h,
            Compositor::DirectSendTree(_) => 0,
        }
    }

    /// What each of `p` ranks keeps after two frames of one slice in a
    /// `w` × `h` image: its frame's pixel bytes, its encoder's tables,
    /// sliding buffer and scanline, and its speculative bit string and
    /// junction log.
    fn kept_after_two_frames(
        which: Compositor,
        (w, h): (usize, usize),
        p: usize,
    ) -> Vec<[usize; 3]> {
        let global = Extent::whole([9, 9, 9]);
        World::run(p, move |comm| {
            let extent = partition_extent(&global, dims_create(p), comm.rank());
            let values: Vec<f64> = extent.iter_points().map(|q| q[0] as f64).collect();
            let attrs = Attributes::default();
            let grid = Structured {
                extent,
                global_extent: global,
                origin: [0.0; 3],
                spacing: [1.0; 3],
                point_data: &attrs,
            };
            let plot = Plot::Slice {
                axis: 2,
                index: 4,
                cmap: Colormap::cool_warm(),
            };
            let scene = Scene::new("kept", (w, h), which, Color::BLACK, vec![plot]);
            for step in 0..2 {
                scene.frame(
                    comm,
                    step,
                    Some((Leaf::Structured(grid), &values)),
                    &Cell::new(None),
                );
            }
            let frame = comm.spare::<Framebuffer>().map_or(0, |fb| fb.pixel_bytes());
            let [tables, spec] = comm.spare::<PngEncoder>().map_or([0; 2], |e| e.held());
            [frame, tables, spec]
        })
    }

    #[test]
    fn each_rank_keeps_a_frame_of_the_rows_it_keeps_and_one_encoder() {
        // Two frames of one slice: the spare frame each rank parks is
        // `w · kept rows · 7` B, and each rank that deflates a band keeps
        // one encoder, its chains (2 × 131 072 B), sliding buffer
        // (98 565) and a scanline. Over the ranks they sum to what
        // `perfmodel::memory::slice_render_heap` charges. An odd height
        // in one band, and the benchmark's images at 2 and 3 ranks, in
        // two bands: rank 1 also keeps the bit string of the band it
        // speculated and the token starts within `JOIN_SPAN` of its cut,
        // which the charge leaves out.
        let swap = (Compositor::BinarySwap, Algorithm::BinarySwap);
        let tree = |f| {
            (
                Compositor::DirectSendTree(f),
                Algorithm::DirectSendTree { fanout: f },
            )
        };
        let mut cases = Vec::new();
        for (which, alg) in [swap, tree(2), tree(8)] {
            for p in [1, 2, 3, 4, 5, 8] {
                cases.push((which, alg, (40, 25), p));
            }
        }
        for p in [2, 3] {
            cases.push((swap.0, swap.1, (1920, 1080), p));
            cases.push((tree(8).0, tree(8).1, (1024, 1024), p));
        }
        for (which, alg, (w, h), p) in cases {
            let held = kept_after_two_frames(which, (w, h), p);
            let bands = (h / (256 * 1024usize).div_ceil(1 + 3 * w)).clamp(1, p);
            let encoder = 2 * 131_072 + 98_565 + 1 + 3 * w;
            for (rank, &[frame, tables, spec]) in held.iter().enumerate() {
                let what = format!("{which:?} {w}x{h} p={p} rank {rank}");
                assert_eq!(frame, w * kept(which, p, rank, h) * 7, "{what}");
                assert_eq!(tables, if rank < bands { encoder } else { 0 }, "{what}");
                assert_eq!(spec > 0, (1..bands).contains(&rank), "{what}");
            }
            let charged = perfmodel::memory::slice_render_heap(w, h, alg, p);
            let fixed: usize = held.iter().map(|[frame, tables, ..]| frame + tables).sum();
            assert_eq!(fixed as f64, p as f64 * charged, "{which:?} {w}x{h} p={p}");
        }
    }

    /// A scene of `plots` over a `dims` grid whose field is a function of
    /// `coef`, on `p` ranks: `Scene::frame`'s file, and the file of the
    /// full-frame oracle — each rank draws each plot whole into a buffer
    /// of the image, as every rank did when each held the whole image,
    /// the buffers are composited, and each later plot's image is merged
    /// into the first's.
    fn scene_and_oracle(
        p: usize,
        which: Compositor,
        (w, h): (usize, usize),
        dims: [usize; 3],
        coef: [i64; 4],
        plots: Vec<Plot>,
    ) -> (Vec<u8>, Vec<u8>) {
        let global = Extent::whole(dims);
        let background = Color::rgb(20, 30, 40);
        let files = World::run(p, move |comm| {
            let extent = partition_extent(&global, dims_create(p), comm.rank());
            let values: Vec<f64> = extent
                .iter_points()
                .map(|q| {
                    let v =
                        coef[0] * q[0] + coef[1] * q[1] + coef[2] * q[2] + coef[3] * q[0] * q[1];
                    1.0 + v.rem_euclid(17) as f64 / 3.0
                })
                .collect();
            let attrs = Attributes::default();
            let grid = Structured {
                extent,
                global_extent: global,
                origin: [0.0; 3],
                spacing: [1.0; 3],
                point_data: &attrs,
            };
            let scene = Scene::new("oracle", (w, h), which, background, plots.clone());
            let range = Cell::new(None);
            let png = scene.frame(comm, 0, Some((Leaf::Structured(grid), &values)), &range);
            let (lo, hi) = range.get().expect("the frame took the range");
            let mut image: Option<Framebuffer> = None;
            for plot in &plots {
                let mut fb = Framebuffer::new(w, h);
                match plot {
                    Plot::Slice { axis, index, cmap } => {
                        let at = (*index).clamp(global.lo[*axis], global.hi[*axis]);
                        if let Some(piece) = extract_plane(&extent, &global, &values, *axis, at) {
                            render_plane(&mut fb, &piece, cmap, (lo, hi));
                        }
                    }
                    Plot::Isosurface { levels, cmap } => {
                        let isos = levels.iter().map(|f| lo + f * (hi - lo));
                        let (field, colour) = ((&extent, &values[..]), (cmap, (lo, hi)));
                        draw_surfaces(&mut fb, field, isos, colour, &overview(&grid));
                    }
                    Plot::Cut { .. } => unreachable!("a cut draws a tetrahedral mesh"),
                }
                let composited = composite(comm, fb, which);
                match (&mut image, composited) {
                    (None, plot) => image = plot,
                    (Some(image), Some(plot)) => image.composite_from(&plot),
                    (Some(_), None) => {}
                }
            }
            let oracle = image.map(|fb| encode_framebuffer(&fb, background, Mode::Fixed));
            (png.map(|(png, _)| png), oracle)
        });
        let (png, oracle) = files.into_iter().next().expect("rank 0");
        (png.expect("rank 0's file"), oracle.expect("rank 0's image"))
    }

    /// The unit vector along `v`, or +z for a null one.
    fn unit(v: [f64; 3]) -> [f64; 3] {
        let len = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        if len < 1e-300 {
            [0.0, 0.0, 1.0]
        } else {
            v.map(|c| c / len)
        }
    }

    /// The isosurfaces of `values` at the levels `isos` drawn into the
    /// whole of `fb`, triangle by triangle as they are marched: the
    /// level's colour over `range`, shaded two-sided diffuse, seen by
    /// `camera`.
    fn draw_surfaces(
        fb: &mut Framebuffer,
        (extent, values): (&Extent, &[f64]),
        isos: impl Iterator<Item = f64>,
        (cmap, range): (&Colormap, (f64, f64)),
        camera: &Camera,
    ) {
        let (w, h) = (fb.width(), fb.height());
        let light = unit([0.4, 0.5, -0.8]);
        for iso in isos {
            let base = cmap.map_range(iso, range.0, range.1);
            for t in marching_tetrahedra(extent, values, iso, [0.0; 3], [1.0; 3]) {
                let u: [f64; 3] = std::array::from_fn(|a| t[1][a] - t[0][a]);
                let v: [f64; 3] = std::array::from_fn(|a| t[2][a] - t[0][a]);
                let n = unit([
                    u[1] * v[2] - u[2] * v[1],
                    u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0],
                ]);
                let diffuse = n[0] * light[0] + n[1] * light[1] + n[2] * light[2];
                let shade = 0.35 + 0.65 * diffuse.abs();
                let shaded = |c: u8| (c as f64 * shade) as u8;
                let color = Color::rgb(shaded(base.r), shaded(base.g), shaded(base.b));
                let vertex = |q: [f64; 3]| {
                    let (x, y, z) = camera.project(q, w, h)?;
                    Some(Vertex { x, y, z, color })
                };
                if let (Some(a), Some(b), Some(c)) = (vertex(t[0]), vertex(t[1]), vertex(t[2])) {
                    fill_triangle(fb, a, b, c);
                }
            }
        }
    }

    /// Rows a compositing strip spans at `width` (`composite::STRIP`
    /// pixels, restated).
    fn strip_rows(width: usize) -> usize {
        (32 * 1024 / width).max(1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Kept rows drawn into a frame of their own and given rows
        /// drawn strip by strip make the file the full-frame oracle
        /// makes, byte for byte: scenes of slices or of isosurfaces at
        /// 1–8 ranks under either compositor, heights that are not a
        /// whole number of strips, so that cells and triangles straddle
        /// the cuts. (A slice covers the whole image at one depth, in
        /// front of any surface, so a scene mixing them shows the
        /// slice alone; of two slices, the first.)
        #[test]
        fn a_scene_drawn_by_the_rows_is_the_full_frame_oracle(
            p in 1usize..9,
            tree in proptest::prelude::any::<bool>(),
            width in 300usize..1300,
            cut in (0usize..3, 1usize..1000),
            dims in (8usize..13, 5usize..12, 5usize..12),
            coef in (1i64..7, -5i64..6, 1i64..5, -2i64..3),
            surfaces in proptest::prelude::any::<bool>(),
            plots in proptest::collection::vec((0usize..3, 0i64..14, 0.05f64..0.95), 1..4),
        ) {
            let which = if tree { Compositor::DirectSendTree(2) } else { Compositor::BinarySwap };
            let rows = strip_rows(width);
            let height = (cut.0 * rows + 1 + cut.1 % (rows - 1)).max(p);
            let plots = plots
                .into_iter()
                .map(|(axis, index, level)| {
                    if surfaces {
                        let levels = vec![level; 1 + axis % 2];
                        let levels = levels.iter().enumerate().map(|(k, l)| (l + 0.3 * k as f64) % 1.0);
                        Plot::Isosurface { levels: levels.collect(), cmap: Colormap::viridis() }
                    } else {
                        Plot::Slice { axis, index, cmap: Colormap::cool_warm() }
                    }
                })
                .collect();
            let dims = [dims.0, dims.1, dims.2];
            let coef = [coef.0, coef.1, coef.2, coef.3];
            let (png, oracle) = scene_and_oracle(p, which, (width, height), dims, coef, plots);
            proptest::prop_assert!(png == oracle, "{:?} p={} {}x{}", which, p, width, height);
        }
    }

    #[test]
    fn slices_straddling_strip_cuts_are_the_full_frame_oracle() {
        // 2 048 wide: 16-row strips. Ten rows of cells over 33–64 image
        // rows put a cell's edge at every offset from a cut, the
        // strips' and the halving's, so that some row of cells meets a
        // window by a single row.
        for height in 33..=64 {
            for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
                let plots = vec![Plot::Slice {
                    axis: 2,
                    index: 3,
                    cmap: Colormap::cool_warm(),
                }];
                let (png, oracle) =
                    scene_and_oracle(3, which, (2048, height), [9, 11, 7], [2, 3, 1, 1], plots);
                assert!(png == oracle, "{which:?} height {height}");
            }
        }
    }

    #[test]
    fn an_isosurface_straddling_strip_cuts_is_the_full_frame_oracle() {
        // 2 048 wide: 16-row strips, and 53 rows cut the last one short;
        // the surfaces span rows 16 and 32, where strips meet.
        for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
            for p in [1, 2, 3, 4, 8] {
                let plots = vec![Plot::Isosurface {
                    levels: vec![0.3, 0.6],
                    cmap: Colormap::viridis(),
                }];
                let (png, oracle) =
                    scene_and_oracle(p, which, (2048, 53), [11, 9, 10], [3, -2, 1, 1], plots);
                assert!(png == oracle, "{which:?} p={p}");
                // The surfaces reach across two strip cuts at least.
                let (_, _, rgb) = decode_rgb(&png).expect("a file");
                let drawn: Vec<usize> = (0..53)
                    .filter(|y| {
                        let row = &rgb[3 * 2048 * y..3 * 2048 * (y + 1)];
                        row.chunks(3).any(|c| c != [20, 30, 40])
                    })
                    .collect();
                let strips = drawn
                    .first()
                    .zip(drawn.last())
                    .map(|(a, b)| b / 16 - a / 16);
                assert!(strips >= Some(2), "{which:?} p={p}: rows {drawn:?}");
            }
        }
    }

    #[test]
    fn equal_depths_keep_each_ranks_own_fragment() {
        // Both ranks hold the plane x = 4 and draw all of it at the one
        // depth a slice has, in colours of their own. A rank draws its
        // rows before it merges its partner's strips, so each row shows
        // the colour of the rank that finishes it: under binary swap
        // rank 0's upper half and rank 1's lower half, under the tree
        // the root's everywhere. A rank that merged a strip before it
        // drew its own rows would show its partner's colour there.
        let global = Extent::whole([9, 9, 9]);
        let (w, h) = (300, 250);
        for which in [Compositor::BinarySwap, Compositor::DirectSendTree(2)] {
            let files = World::run(2, move |comm| {
                let extent = partition_extent(&global, [2, 1, 1], comm.rank());
                let values = vec![1.0 + 2.0 * comm.rank() as f64; extent.num_points()];
                let attrs = Attributes::default();
                let grid = Structured {
                    extent,
                    global_extent: global,
                    origin: [0.0; 3],
                    spacing: [1.0; 3],
                    point_data: &attrs,
                };
                let plot = Plot::Slice {
                    axis: 0,
                    index: 4,
                    cmap: Colormap::cool_warm(),
                };
                let scene = Scene::new("tie", (w, h), which, Color::BLACK, vec![plot]);
                let range = Cell::new(None);
                scene
                    .frame(comm, 0, Some((Leaf::Structured(grid), &values)), &range)
                    .map(|(png, _)| png)
            });
            let png = files[0].clone().expect("rank 0's file");
            let (_, _, rgb) = decode_rgb(&png).expect("a file");
            let cmap = Colormap::cool_warm();
            let colour = |rank: usize| {
                let c = cmap.map_range(1.0 + 2.0 * rank as f64, 1.0, 3.0);
                [c.r, c.g, c.b]
            };
            assert_ne!(colour(0), colour(1));
            for y in 0..h {
                let owner = match which {
                    Compositor::BinarySwap if y >= h / 2 => 1,
                    _ => 0,
                };
                for x in 0..w {
                    let at = 3 * (y * w + x);
                    assert_eq!(rgb[at..at + 3], colour(owner), "{which:?} ({x}, {y})");
                }
            }
        }
    }
}
