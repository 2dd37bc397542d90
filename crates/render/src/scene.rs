//! One in situ frame, as `catalyst` and `libsim` configure it: one
//! [`global_range`] a step, kept in the caller's range cell for the
//! step's later frames, each plot drawn and composited over it and
//! depth-merged where its rows lie, one collective [`PngEncoder`] file.
//! A rank without the field is an empty block: it draws nothing and
//! still joins every collective, so no rank waits on it.
//!
//! A frame is drawn into the spare framebuffer in the rank's pool
//! (`Framebuffer::take`), whatever scene drew the last one, and the
//! buffer is parked again once the file is encoded: Catalyst and Libsim
//! on one rank share it, and no frame is faulted in after the first. A
//! scene's later plots share one more buffer a frame, which the last
//! park drops, and are merged into the frame where they lie. The comm's
//! probe times `per-step/render/range` and `…/encode` once a frame, and
//! `…/clear` (the take), `…/draw` and `…/composite` once a plot.

use std::cell::Cell;
use std::path::PathBuf;

use datamodel::Structured;
use minimpi::Comm;

use crate::camera::Camera;
use crate::color::{Color, Colormap};
use crate::composite::{merge, Compositor};
use crate::framebuffer::Framebuffer;
use crate::pipeline::{draw_isosurface, draw_slice, global_range, IsosurfaceRender, SliceRender};
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
}

/// A frame's configuration, and what it keeps between frames: the
/// encoder's tables.
pub struct Scene {
    image: (usize, usize),
    compositor: Compositor,
    background: Color,
    plots: Vec<Plot>,
    /// Rank 0 writes each frame to `<dir>/<prefix>_<step>.png` here.
    pub output: Option<PathBuf>,
    prefix: &'static str,
    encoder: PngEncoder,
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
            encoder: PngEncoder::default(),
        }
    }

    /// One frame of `field` — this rank's block and its point values, or
    /// `None` — coloured over `range`, the field's range this step: the
    /// one a frame of this step already took, or else taken here (one
    /// pair reduction) and kept in it. Collective, so every rank passes
    /// a cell in the same state; rank 0 gets the PNG and whether writing
    /// it to `output` failed.
    pub fn frame(
        &mut self,
        comm: &Comm,
        step: u64,
        field: Option<(Structured<'_>, &[f64])>,
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
        // Each later plot is merged in where this rank's rows lie: only
        // what it drew there is final, and only that can show.
        let owned = compositor.owned_rows(comm.size(), comm.rank(), height);
        let mut image: Option<Framebuffer> = None;
        for plot in &self.plots {
            let mut fb = {
                let _clear = probe.span("per-step/render/clear");
                Framebuffer::take(comm, width, height)
            };
            let draw = probe.span("per-step/render/draw");
            if let Some((grid, values)) = field {
                let (local, global) = (&grid.extent, &grid.global_extent);
                match plot {
                    Plot::Slice { axis, index, cmap } => {
                        let cfg = SliceRender {
                            axis: *axis,
                            global_index: (*index).clamp(global.lo[*axis], global.hi[*axis]),
                            width,
                            height,
                            compositor,
                            cmap: cmap.clone(),
                        };
                        draw_slice(local, global, values, &cfg, (lo, hi), &mut fb);
                    }
                    Plot::Isosurface { levels, cmap } => {
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
                        draw_isosurface(local, values, &cfg, (lo, hi), &mut fb);
                    }
                }
            }
            drop(draw);
            let _composite = probe.span("per-step/render/composite");
            merge(comm, &mut fb, compositor);
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
        let image = image.unwrap_or_else(|| Framebuffer::take(comm, width, height));
        let png = {
            let _encode = probe.span("per-step/render/encode");
            self.encoder
                .encode(comm, &image, compositor, self.background)
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
    use datamodel::{dims_create, partition_extent, Attributes, Extent};
    use minimpi::World;

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
            let mut scene = Scene::new("frame", (40, 24), which, Color::BLACK, vec![plot]);
            (0..2)
                .map(|step| {
                    let range = Cell::new(None);
                    let png = scene.frame(comm, step, Some((grid, &values)), &range);
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
}
