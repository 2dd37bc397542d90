//! The Libsim render engine and its SENSEI analysis adaptor.

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use minimpi::Comm;
use render::camera::Camera;
use render::color::{Color, Colormap};
use render::composite::Compositor;
use render::deflate::Mode;
use render::framebuffer::Framebuffer;
use render::pipeline::{
    global_range, pseudocolor_slice_bands, shaded_isosurface_bands, IsosurfaceRender, SliceRender,
};
use render::png::PngEncoder;
use sensei::{AnalysisAdaptor, Association, DataAdaptor, Steering};

use crate::session::{Plot, Session};

/// Libsim's compositing family: a direct-send fan-in tree.
pub const COMPOSITOR: Compositor = Compositor::DirectSendTree(8);

/// Shared handle to the most recent PNG (rank 0 only).
pub type PngHandle = Arc<Mutex<Option<Vec<u8>>>>;

/// SENSEI analysis adaptor running a Libsim session.
pub struct LibsimAnalysis {
    session: Session,
    output_dir: Option<PathBuf>,
    last_png: PngHandle,
    renders: u64,
    /// Measured one-time startup cost (the per-rank config check).
    startup_seconds: f64,
    /// Pending failure reports, drained by the bridge.
    failures: Vec<String>,
    reported_missing: bool,
    reported_write: bool,
    /// The encoder's tables, faulted in once. The frame itself is not
    /// kept: Catalyst's stays resident through this render, and a
    /// second kept image puts the peak a fifth over the two transient
    /// ones' (CHANGES.md, PR 23).
    encoder: PngEncoder,
}

impl LibsimAnalysis {
    /// Start Libsim with a session. Performs the per-rank runtime
    /// configuration check — a real filesystem metadata operation, the
    /// behavior whose aggregate cost Fig. 5 reports at 45K ranks.
    pub fn new(session: Session, config_path: &Path) -> Self {
        let t0 = probe::time::now_seconds();
        // VisIt checks for a .visitrc / runtime config per rank.
        let _ = std::fs::metadata(config_path);
        let startup_seconds = (probe::time::now_seconds() - t0).max(0.0);
        LibsimAnalysis {
            encoder: PngEncoder::default(),
            session,
            output_dir: None,
            last_png: Arc::new(Mutex::new(None)),
            renders: 0,
            startup_seconds,
            failures: Vec::new(),
            reported_missing: false,
            reported_write: false,
        }
    }

    /// Write `libsim_<step>.png` files into `dir` (rank 0).
    pub fn with_output_dir(mut self, dir: PathBuf) -> Self {
        self.output_dir = Some(dir);
        self
    }

    /// Handle to the latest PNG bytes (rank 0).
    pub fn png_handle(&self) -> PngHandle {
        Arc::clone(&self.last_png)
    }

    /// Number of render invocations so far.
    pub fn renders(&self) -> u64 {
        self.renders
    }

    /// Measured startup (config check) seconds on this rank.
    pub fn startup_seconds(&self) -> f64 {
        self.startup_seconds
    }

    /// Draw one plot and composite it up to the gather: the buffer this
    /// rank still holds, final in the rows [`COMPOSITOR`] leaves it.
    fn render_plot(
        &mut self,
        plot: &Plot,
        data: &dyn DataAdaptor,
        comm: &Comm,
    ) -> Option<Framebuffer> {
        let (w, h) = self.session.image;
        let (Plot::Pseudocolor { array, .. } | Plot::Isosurface { array, .. }) = plot;
        let mut mesh = data.mesh();
        if let Err(err) = data.add_array(&mut mesh, Association::Point, array) {
            if !self.reported_missing {
                self.reported_missing = true;
                self.failures.push(err.to_string());
            }
            return None;
        }
        // Sanitizer: hold a publish window while Libsim renders from
        // the simulation's zero-copy arrays.
        let _publish = datamodel::publish_dataset(&mesh, "libsim");
        let views = match sensei::analysis::leaf_views(&mesh, Association::Point, array) {
            Ok(views) => views,
            Err(err) => {
                self.failures.push(format!("libsim: {err}"));
                return None;
            }
        };
        // The first structured leaf carrying the array.
        let (grid, values) = views.iter().find_map(|v| Some((v.geometry?, &v.values)))?;
        let (local, global) = (grid.extent, grid.global_extent);
        match plot {
            Plot::Pseudocolor { axis, index, .. } => {
                // Clamp the requested plane into the domain.
                let idx = (*index).clamp(global.lo[*axis], global.hi[*axis]);
                let cfg = SliceRender {
                    axis: *axis,
                    global_index: idx,
                    width: w,
                    height: h,
                    compositor: COMPOSITOR,
                    cmap: Colormap::viridis(),
                };
                pseudocolor_slice_bands(comm, &local, &global, values, &cfg, None)
            }
            Plot::Isosurface { levels, .. } => {
                let (spacing, origin) = (grid.spacing, grid.origin);
                // Levels are fractions of the global range.
                let (glo, ghi) = global_range(comm, values);
                let isovalues: Vec<f64> = levels.iter().map(|f| glo + f * (ghi - glo)).collect();
                // Camera looks at the domain center from outside.
                let gd = global.point_dims();
                let center = [
                    origin[0] + (gd[0] - 1) as f64 * spacing[0] / 2.0,
                    origin[1] + (gd[1] - 1) as f64 * spacing[1] / 2.0,
                    origin[2] + (gd[2] - 1) as f64 * spacing[2] / 2.0,
                ];
                let size = (gd[0] as f64 * spacing[0])
                    .max(gd[1] as f64 * spacing[1])
                    .max(gd[2] as f64 * spacing[2]);
                let eye = [
                    center[0] + 1.2 * size,
                    center[1] + 0.9 * size,
                    center[2] - 2.0 * size,
                ];
                let cfg = IsosurfaceRender {
                    isovalues,
                    camera: Camera::look_at(eye, center, [0.0, 1.0, 0.0], 0.8),
                    width: w,
                    height: h,
                    compositor: COMPOSITOR,
                    cmap: Colormap::cool_warm(),
                    origin,
                    spacing,
                };
                shaded_isosurface_bands(comm, &local, values, &cfg, None)
            }
        }
    }
}

impl AnalysisAdaptor for LibsimAnalysis {
    fn name(&self) -> &str {
        "libsim"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        if !data.step().is_multiple_of(self.session.frequency) {
            return Steering::Continue;
        }
        self.renders += 1;
        // Composite all plots of the session into one image: each plot
        // is drawn and composited on its own, and the results are
        // depth-merged where they lie — the same compositor and size
        // leave every plot's finished rows on the same ranks, and the
        // rows a buffer holds besides are never encoded.
        let plots = self.session.plots.clone();
        let mut held = plots
            .iter()
            .filter_map(|plot| self.render_plot(plot, data, comm));
        let mut image = held.next();
        if let Some(acc) = &mut image {
            held.for_each(|fb| acc.composite_from(&fb));
        }
        // No plot drew on rank 0 (none could read its array): it still
        // owes the encode its rows, as background.
        let (w, h) = self.session.image;
        if image.is_none() && comm.rank() == 0 {
            image = Some(Framebuffer::new(w, h));
        }
        let png = self.encoder.encode(
            comm,
            (w, h),
            image.as_ref(),
            COMPOSITOR,
            Color::BLACK,
            Mode::Fixed,
        );
        if let Some(png) = png {
            if let Some(dir) = &self.output_dir {
                let path = dir.join(format!("libsim_{:05}.png", data.step()));
                if let Err(e) = std::fs::write(&path, &png) {
                    if !self.reported_write {
                        self.reported_write = true;
                        self.failures
                            .push(format!("failed to write {}: {e}", path.display()));
                    }
                }
            }
            *self.last_png.lock() = Some(png);
        }
        Steering::Continue
    }

    fn take_failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{partition_extent, DataArray, DataSet, Extent, ImageData};
    use minimpi::World;
    use render::png::decode_rgb;

    fn adaptor(comm: &Comm, step: u64) -> sensei::InMemoryAdaptor {
        let global = Extent::whole([9, 9, 9]);
        let dims = datamodel::dims_create(comm.size());
        let local = partition_extent(&global, dims, comm.rank());
        let mut g = ImageData::new(local, global);
        let c = 4.0;
        let vals: Vec<f64> = local
            .iter_points()
            .map(|p| {
                let dx = p[0] as f64 - c;
                let dy = p[1] as f64 - c;
                let dz = p[2] as f64 - c;
                (dx * dx + dy * dy + dz * dz).sqrt()
            })
            .collect();
        g.add_point_array(DataArray::owned("data", 1, vals));
        sensei::InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    fn small_session(freq: u64) -> Session {
        Session::parse(&format!(
            "image 48 48\nfrequency {freq}\nplot pseudocolor data axis=z index=4\nplot isosurface data levels=0.5\n"
        ))
        .unwrap()
    }

    #[test]
    fn session_renders_combined_png() {
        World::run(4, |comm| {
            let mut a = LibsimAnalysis::new(small_session(1), Path::new("/nonexistent/.visitrc"));
            let png = a.png_handle();
            a.execute(&adaptor(comm, 0), comm);
            if comm.rank() == 0 {
                let bytes = png.lock().clone().expect("png");
                let (w, h, rgb) = decode_rgb(&bytes).unwrap();
                assert_eq!((w, h), (48, 48));
                // Slice paints the full frame; no pure-background-only image.
                assert!(rgb.chunks(3).any(|p| p != [0, 0, 0]));
            }
        });
    }

    #[test]
    fn failed_write_is_reported_once_and_the_png_kept() {
        World::run(2, |comm| {
            let analysis = LibsimAnalysis::new(small_session(1), Path::new("/nonexistent"))
                .with_output_dir("/nonexistent/libsim-out".into());
            let png = analysis.png_handle();
            let mut bridge = sensei::Bridge::new();
            bridge.register(Box::new(analysis));
            for step in 0..3 {
                bridge.execute(&adaptor(comm, step), comm);
            }
            let reports = bridge.failure_reports();
            if comm.rank() == 0 {
                assert!(decode_rgb(png.lock().as_ref().expect("png in memory")).is_ok());
                assert_eq!(reports.len(), 1, "{reports:?}");
                let text = reports[0].to_string();
                assert!(text.contains("failed to write") && text.contains("libsim_00000.png"));
            } else {
                assert!(reports.is_empty(), "only the writing rank reports");
            }
        });
    }

    #[test]
    fn session_nobody_can_draw_still_encodes_a_blank_frame() {
        // No rank has the array: no plot composites, every rank still
        // reaches the encode, and rank 0's file is background.
        World::run(3, |comm| {
            let session =
                Session::parse("image 20 12\nplot pseudocolor absent axis=z index=4\n").unwrap();
            let mut a = LibsimAnalysis::new(session, Path::new("/nonexistent"));
            let png = a.png_handle();
            a.execute(&adaptor(comm, 0), comm);
            assert_eq!(a.take_failures().len(), 1);
            if comm.rank() == 0 {
                let (w, h, rgb) = decode_rgb(png.lock().as_ref().expect("png")).unwrap();
                assert_eq!((w, h), (20, 12));
                assert!(rgb.iter().all(|&b| b == 0), "black background only");
            } else {
                assert!(png.lock().is_none());
            }
        });
    }

    #[test]
    fn frequency_five_renders_one_in_five() {
        World::run(2, |comm| {
            let mut a = LibsimAnalysis::new(small_session(5), Path::new("/nonexistent/.visitrc"));
            for s in 0..10 {
                a.execute(&adaptor(comm, s), comm);
            }
            assert_eq!(a.renders(), 2);
        });
    }

    #[test]
    fn startup_performs_config_check() {
        World::run(1, |_comm| {
            let a = LibsimAnalysis::new(small_session(1), Path::new("/nonexistent/.visitrc"));
            assert!(a.startup_seconds() >= 0.0);
            assert!(a.startup_seconds() < 0.5, "a single stat is fast");
        });
    }

    #[test]
    fn isosurface_only_session_covers_fewer_pixels_than_slice() {
        World::run(2, |comm| {
            let slice_png = {
                let s =
                    Session::parse("image 40 40\nplot pseudocolor data axis=z index=4\n").unwrap();
                let mut a = LibsimAnalysis::new(s, Path::new("/nonexistent"));
                let h = a.png_handle();
                a.execute(&adaptor(comm, 0), comm);
                if comm.rank() == 0 {
                    h.lock().clone()
                } else {
                    None
                }
            };
            let iso_png = {
                let s = Session::parse("image 40 40\nplot isosurface data levels=0.4\n").unwrap();
                let mut a = LibsimAnalysis::new(s, Path::new("/nonexistent"));
                let h = a.png_handle();
                a.execute(&adaptor(comm, 0), comm);
                if comm.rank() == 0 {
                    h.lock().clone()
                } else {
                    None
                }
            };
            if comm.rank() == 0 {
                let count_nonblack = |png: &[u8]| {
                    let (_, _, rgb) = decode_rgb(png).unwrap();
                    rgb.chunks(3).filter(|p| *p != [0, 0, 0]).count()
                };
                let s = count_nonblack(&slice_png.unwrap());
                let i = count_nonblack(&iso_png.unwrap());
                assert!(s > i, "slice covers frame ({s}) > isosurface ({i})");
                assert!(i > 0, "isosurface rendered something");
            }
        });
    }
}
