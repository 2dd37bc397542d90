//! One in situ frame, as `catalyst` and `libsim` configure it: one
//! [`global_range`], each plot drawn and composited over it and
//! depth-merged where its rows lie, one collective [`PngEncoder`] file.
//! A rank without the field is an empty block: it draws nothing and
//! still joins every collective, so no rank waits on it.

use std::path::PathBuf;

use datamodel::Structured;
use minimpi::Comm;

use crate::camera::Camera;
use crate::color::{Color, Colormap};
use crate::composite::{merge, Compositor};
use crate::framebuffer::Framebuffer;
use crate::pipeline::{
    global_range, pseudocolor_slice_bands, shaded_isosurface_bands, IsosurfaceRender, SliceRender,
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
}

/// A frame's configuration, and what it keeps between frames: the
/// encoder's tables and, with `keep_frame`, the buffer this rank holds.
pub struct Scene {
    image: (usize, usize),
    compositor: Compositor,
    background: Color,
    plots: Vec<Plot>,
    /// Rank 0 writes each frame to `<dir>/<prefix>_<step>.png` here.
    pub output: Option<PathBuf>,
    prefix: &'static str,
    keep_frame: bool,
    canvas: Option<Framebuffer>,
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
        keep_frame: bool,
    ) -> Self {
        Scene {
            image,
            compositor,
            background,
            plots,
            output: None,
            prefix,
            keep_frame,
            canvas: None,
            encoder: PngEncoder::default(),
        }
    }

    /// One frame of `field` — this rank's block and its point values, or
    /// `None`. Collective; rank 0 gets the PNG and whether writing it to
    /// `output` failed.
    pub fn frame(
        &mut self,
        comm: &Comm,
        step: u64,
        field: Option<(Structured<'_>, &[f64])>,
    ) -> Option<(Vec<u8>, Result<(), String>)> {
        let (lo, hi) = global_range(comm, field.map_or(&[][..], |(_, values)| values));
        let ((width, height), compositor) = (self.image, self.compositor);
        let mut kept = self.canvas.take();
        let mut held = self.plots.iter().filter_map(|plot| {
            let kept = kept.take();
            let Some((grid, values)) = field else {
                return merge(comm, Framebuffer::recycle(kept, width, height), compositor);
            };
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
                    pseudocolor_slice_bands(comm, local, global, values, &cfg, (lo, hi), kept)
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
                    shaded_isosurface_bands(comm, local, values, &cfg, (lo, hi), kept)
                }
            }
        });
        // Each later plot is merged in where this rank's rows lie: only
        // what it drew there is final, and only that can show.
        let owned = compositor.owned_rows(comm.size(), comm.rank(), height);
        let mut image = held.next();
        if let Some(acc) = &mut image {
            held.for_each(|fb| acc.merge(&fb.into_patch(owned.clone())));
        }
        // No plot: a rank that owns rows still owes the encode them.
        if image.is_none() && !owned.is_empty() {
            image = Some(Framebuffer::recycle(kept, width, height));
        }
        let png = self.encoder.encode(
            comm,
            self.image,
            image.as_ref(),
            compositor,
            self.background,
        );
        if self.keep_frame {
            self.canvas = image;
        }
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
