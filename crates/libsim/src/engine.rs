//! The Libsim render engine and its SENSEI analysis adaptor: one
//! configuration of `render::scene::Scene`.

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use minimpi::Comm;
use render::color::{Color, Colormap};
use render::composite::Compositor;
use render::scene::{self, Leaf, Scene};
use sensei::analysis::{LeafView, ReportOnce};
use sensei::{AnalysisAdaptor, Association, DataAdaptor, Steering};

use crate::session::{Plot, Session};

/// Libsim's compositing family: a direct-send fan-in tree.
pub const COMPOSITOR: Compositor = Compositor::DirectSendTree(8);

/// Shared handle to the most recent PNG (rank 0 only).
pub type PngHandle = Arc<Mutex<Option<Vec<u8>>>>;

/// SENSEI analysis adaptor running a Libsim session.
pub struct LibsimAnalysis {
    /// The array the session's plots draw.
    array: String,
    frequency: u64,
    scene: Scene,
    last_png: PngHandle,
    failures: ReportOnce,
}

impl LibsimAnalysis {
    /// Start Libsim with a session. Performs the per-rank runtime
    /// configuration check — a real filesystem metadata operation, the
    /// behavior whose aggregate cost Fig. 5 reports at 45K ranks.
    ///
    /// The session becomes a direct-send scene over black: slices in
    /// viridis, isosurfaces in cool–warm, of one array, the first
    /// plot's; a plot of another array is reported and left out.
    pub fn new(session: Session, config_path: &Path) -> Self {
        // VisIt checks for a .visitrc / runtime config per rank.
        let _ = std::fs::metadata(config_path);
        let (mut failures, mut plots) = (ReportOnce::default(), Vec::new());
        let array = session.plots.first().map_or("", Plot::array).to_owned();
        for plot in session.plots {
            plots.push(match plot {
                _ if plot.array() != array => {
                    failures.report(format!("libsim: left out a plot of `{}`", plot.array()));
                    continue;
                }
                Plot::Pseudocolor { axis, index, .. } => {
                    let cmap = Colormap::viridis();
                    scene::Plot::Slice { axis, index, cmap }
                }
                Plot::Isosurface { levels, .. } => {
                    let cmap = Colormap::cool_warm();
                    scene::Plot::Isosurface { levels, cmap }
                }
            });
        }
        let image = session.image;
        let scene = Scene::new("libsim", image, COMPOSITOR, Color::BLACK, plots);
        LibsimAnalysis {
            array,
            frequency: session.frequency,
            scene,
            last_png: Arc::new(Mutex::new(None)),
            failures,
        }
    }

    /// Write `libsim_<step>.png` files into `dir` (rank 0).
    pub fn with_output_dir(mut self, dir: PathBuf) -> Self {
        self.scene.output = Some(dir);
        self
    }

    /// Handle to the latest PNG bytes (rank 0).
    pub fn png_handle(&self) -> PngHandle {
        Arc::clone(&self.last_png)
    }
}

impl AnalysisAdaptor for LibsimAnalysis {
    fn name(&self) -> &str {
        "libsim"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let step = data.step();
        if step.is_multiple_of(self.frequency) {
            let field = data.field(Association::Point, &self.array);
            let (mesh, views) = field.blocks_or(&mut self.failures);
            let _publish = mesh.map(|mesh| datamodel::publish_dataset(mesh, "libsim"));
            let block = views.iter().find_map(LeafView::block);
            let block = block.map(|(grid, values)| (Leaf::Structured(grid), values));
            let frame = self.scene.frame(comm, step, block, field.range());
            if let Some((png, written)) = frame {
                written.unwrap_or_else(|e| self.failures.report(e));
                *self.last_png.lock() = Some(png);
            }
        }
        Steering::Continue
    }

    fn take_failures(&mut self) -> Vec<String> {
        self.failures.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{partition_extent, DataArray, DataSet, Extent, ImageData};
    use minimpi::World;
    use render::png::decode_rgb;

    /// This rank's block of a 9³ grid: the distance from its centre,
    /// as array `name`.
    fn block(comm: &Comm, step: u64, name: &str) -> sensei::InMemoryAdaptor {
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
        g.add_point_array(DataArray::owned(name, 1, vals));
        sensei::InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    fn adaptor(comm: &Comm, step: u64) -> sensei::InMemoryAdaptor {
        block(comm, step, "data")
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
        // No rank has the array: no plot draws, every rank still
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
    fn rank_without_the_array_still_reaches_every_collective() {
        // Rank 2 names its array differently. The range, both plots'
        // merges and the encode are collective: the run finishes (a
        // deadlock would abort it), rank 0 has its file every step, and
        // the rank says once what it lacked.
        let out = minimpi::World::run(4, |comm| {
            let analysis = LibsimAnalysis::new(small_session(1), Path::new("/nonexistent"));
            let png = analysis.png_handle();
            let mut bridge = sensei::Bridge::new();
            bridge.register(Box::new(analysis));
            for step in 0..3 {
                let name = if comm.rank() == 2 { "other" } else { "data" };
                *png.lock() = None;
                bridge.execute(&block(comm, step, name), comm);
                if comm.rank() == 0 {
                    let bytes = png.lock().clone().expect("a file every step");
                    assert_eq!(decode_rgb(&bytes).map(|d| (d.0, d.1)), Ok((48, 48)));
                }
            }
            bridge.failure_reports().len()
        });
        assert_eq!(
            out,
            [0, 0, 1, 0],
            "one report, on the rank that lacks the array"
        );
    }

    #[test]
    fn a_plot_of_another_array_is_reported_and_left_out() {
        World::run(2, |comm| {
            let run = |text: &str| {
                let session = Session::parse(text).unwrap();
                let mut a = LibsimAnalysis::new(session, Path::new("/nonexistent"));
                a.execute(&adaptor(comm, 0), comm);
                let png = a.png_handle().lock().take();
                (a.take_failures(), png)
            };
            let slice = "image 40 40\nplot pseudocolor data axis=z index=4\n";
            let (reports, both) = run(&format!("{slice}plot isosurface vort levels=0.5\n"));
            let (none, alone) = run(slice);
            assert_eq!(reports.len(), 1, "{reports:?}");
            assert!(reports[0].contains("`vort`"), "{}", reports[0]);
            assert!(none.is_empty());
            assert_eq!(both, alone, "the slice alone");
        });
    }

    #[test]
    fn frequency_five_renders_one_in_five() {
        World::run(2, |comm| {
            let mut a = LibsimAnalysis::new(small_session(5), Path::new("/nonexistent/.visitrc"));
            let png = a.png_handle();
            let mut frames = 0;
            for s in 0..10 {
                a.execute(&adaptor(comm, s), comm);
                frames += usize::from(png.lock().take().is_some());
            }
            if comm.rank() == 0 {
                assert_eq!(frames, 2, "steps 0 and 5 only");
            }
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
