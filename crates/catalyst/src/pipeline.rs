//! The Catalyst slice pipeline and its SENSEI analysis adaptor.

use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

use datamodel::Extent;
use minimpi::Comm;
use render::color::{Color, Colormap};
use render::composite::Compositor;
use render::deflate::Mode;
use render::framebuffer::Framebuffer;
use render::pipeline::{pseudocolor_slice_bands, SliceRender};
use render::png::PngEncoder;
use sensei::{AnalysisAdaptor, Association, DataAdaptor, Steering};

/// Where rendered images go.
#[derive(Clone, Debug, PartialEq)]
pub enum SliceOutput {
    /// Keep only the most recent PNG bytes in memory (tests, staging).
    InMemory,
    /// Write `slice_<step>.png` files into the directory.
    Directory(PathBuf),
}

/// Configuration of a Catalyst slice extract + render.
#[derive(Clone, Debug)]
pub struct SlicePipeline {
    /// Point array to pseudocolor.
    pub array: String,
    /// Sliced axis.
    pub axis: usize,
    /// Global point index of the plane.
    pub global_index: i64,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// PNG compression mode (`Fixed` = real zlib; `Stored` reproduces
    /// the paper's skip-the-compression ablation).
    pub png_mode: Mode,
    /// Output placement.
    pub output: SliceOutput,
    /// Render every `frequency`-th step (1 = every step).
    pub frequency: u64,
}

impl SlicePipeline {
    /// A pipeline with the paper's Catalyst defaults: 1920×1080, real
    /// compression, every step, in-memory output.
    pub fn new(array: impl Into<String>, axis: usize, global_index: i64) -> Self {
        SlicePipeline {
            array: array.into(),
            axis,
            global_index,
            width: crate::DEFAULT_IMAGE.0,
            height: crate::DEFAULT_IMAGE.1,
            png_mode: Mode::Fixed,
            output: SliceOutput::InMemory,
            frequency: 1,
        }
    }
}

/// Shared handle to the most recent PNG (rank 0 only).
pub type PngHandle = Arc<Mutex<Option<Vec<u8>>>>;

/// SENSEI analysis adaptor driving the Catalyst slice pipeline.
pub struct CatalystSliceAnalysis {
    pipeline: SlicePipeline,
    last_png: PngHandle,
    images_written: u64,
    failures: Vec<String>,
    reported_missing: bool,
    reported_write: bool,
    /// Last frame's buffer, where this rank still holds it, and the
    /// encoder's tables: faulted in once, not every step.
    canvas: Option<Framebuffer>,
    encoder: PngEncoder,
}

impl CatalystSliceAnalysis {
    /// Wrap a pipeline.
    pub fn new(pipeline: SlicePipeline) -> Self {
        assert!(pipeline.frequency >= 1, "frequency must be at least 1");
        CatalystSliceAnalysis {
            pipeline,
            last_png: Arc::new(Mutex::new(None)),
            images_written: 0,
            failures: Vec::new(),
            reported_missing: false,
            reported_write: false,
            canvas: None,
            encoder: PngEncoder::default(),
        }
    }

    /// Handle to the latest PNG bytes (filled on rank 0).
    pub fn png_handle(&self) -> PngHandle {
        Arc::clone(&self.last_png)
    }

    /// Number of images produced so far (on rank 0).
    pub fn images_written(&self) -> u64 {
        self.images_written
    }
}

impl AnalysisAdaptor for CatalystSliceAnalysis {
    fn name(&self) -> &str {
        "catalyst-slice"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        if !data.step().is_multiple_of(self.pipeline.frequency) {
            return Steering::Continue;
        }
        let cfg = self.render_config();
        let array = &self.pipeline.array;
        let mut mesh = data.mesh();
        if let Err(err) = data.add_array(&mut mesh, Association::Point, array) {
            if !self.reported_missing {
                self.reported_missing = true;
                self.failures.push(err.to_string());
            }
        }
        // Sanitizer: the render reads the simulation's arrays in place;
        // hold a publish window while it does.
        let _publish = datamodel::publish_dataset(&mesh, "catalyst");
        // Space-checked read: a device-resident array reaching a
        // host-side render surfaces as a failure, not a quiet copy.
        let views =
            sensei::analysis::leaf_views(&mesh, Association::Point, array).unwrap_or_else(|err| {
                self.failures.push(format!("catalyst-slice: {err}"));
                Vec::new()
            });
        let field = views
            .iter()
            .find_map(|v| Some((v.geometry?, &v.values[..])));
        // A rank without the array still renders — an empty block (kept
        // tiny; the values are never sampled because the local extent
        // is degenerate) — and encodes: both are collective, and the
        // other ranks would hang on it.
        let (local, global, values) = field.map_or_else(
            || {
                let global = mesh
                    .leaves()
                    .find_map(|l| l.structured())
                    .map_or(Extent::new([0, 0, 0], [1, 1, 1]), |g| g.global_extent);
                (Extent::new([0, 0, 0], [0, 0, 0]), global, &[0.0][..])
            },
            |(grid, values)| (grid.extent, grid.global_extent, values),
        );
        self.canvas =
            pseudocolor_slice_bands(comm, &local, &global, values, &cfg, self.canvas.take());
        // Every rank deflates the band of scanlines it holds; rank 0
        // gets the file.
        let png = self.encoder.encode(
            comm,
            (cfg.width, cfg.height),
            self.canvas.as_ref(),
            cfg.compositor,
            Color::WHITE,
            self.pipeline.png_mode,
        );
        if let Some(png) = png {
            if let SliceOutput::Directory(dir) = &self.pipeline.output {
                let path = dir.join(format!("slice_{:05}.png", data.step()));
                if let Err(e) = std::fs::write(&path, &png) {
                    if !self.reported_write {
                        self.reported_write = true;
                        self.failures
                            .push(format!("failed to write {}: {e}", path.display()));
                    }
                }
            }
            *self.last_png.lock() = Some(png);
            self.images_written += 1;
        }
        Steering::Continue
    }

    fn take_failures(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}

impl CatalystSliceAnalysis {
    fn render_config(&self) -> SliceRender {
        SliceRender {
            axis: self.pipeline.axis,
            global_index: self.pipeline.global_index,
            width: self.pipeline.width,
            height: self.pipeline.height,
            compositor: Compositor::BinarySwap,
            cmap: Colormap::cool_warm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{partition_extent, DataArray, DataSet, ImageData};
    use minimpi::World;
    use render::png::decode_rgb;
    use sensei::{Bridge, InMemoryAdaptor};

    fn adaptor(comm: &Comm, step: u64) -> InMemoryAdaptor {
        let global = Extent::whole([9, 9, 9]);
        let dims = datamodel::dims_create(comm.size());
        let local = partition_extent(&global, dims, comm.rank());
        let mut g = ImageData::new(local, global);
        let vals: Vec<f64> = local.iter_points().map(|p| (p[0] + p[1]) as f64).collect();
        g.add_point_array(DataArray::owned("data", 1, vals));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    #[test]
    fn produces_decodable_png_on_root() {
        World::run(4, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 40;
            pipe.height = 30;
            let analysis = CatalystSliceAnalysis::new(pipe);
            let png = analysis.png_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(analysis));
            bridge.execute(&adaptor(comm, 0), comm);
            if comm.rank() == 0 {
                let bytes = png.lock().clone().expect("png on root");
                let (w, h, rgb) = decode_rgb(&bytes).expect("valid png");
                assert_eq!((w, h), (40, 30));
                // Pseudocolored plane: not all pixels identical.
                assert!(rgb.chunks(3).any(|p| p != &rgb[0..3]));
            } else {
                assert!(png.lock().is_none());
            }
        });
    }

    #[test]
    fn frequency_skips_steps() {
        World::run(2, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 16;
            pipe.height = 16;
            pipe.frequency = 5;
            let mut analysis = CatalystSliceAnalysis::new(pipe);
            for s in 0..10 {
                analysis.execute(&adaptor(comm, s), comm);
            }
            if comm.rank() == 0 {
                assert_eq!(analysis.images_written(), 2, "steps 0 and 5 only");
            }
        });
    }

    #[test]
    fn writes_files_when_directed() {
        World::run(2, |comm| {
            let dir = std::env::temp_dir().join(format!(
                "catalyst_test_{}_{}",
                std::process::id(),
                comm.rank()
            ));
            // Only rank 0 writes; both configure the same dir path.
            let shared = std::env::temp_dir().join(format!("catalyst_test_{}", std::process::id()));
            let _ = std::fs::create_dir_all(&shared);
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 16;
            pipe.height = 16;
            pipe.output = SliceOutput::Directory(shared.clone());
            let mut analysis = CatalystSliceAnalysis::new(pipe);
            analysis.execute(&adaptor(comm, 3), comm);
            comm.barrier();
            if comm.rank() == 0 {
                let f = shared.join("slice_00003.png");
                let bytes = std::fs::read(&f).expect("file written");
                assert!(decode_rgb(&bytes).is_ok());
                let _ = std::fs::remove_dir_all(&shared);
            }
            let _ = dir;
        });
    }

    #[test]
    fn rank_without_the_array_still_reaches_render_and_encode() {
        // Rank 2 names its array differently. Render and encode are
        // collective: the run finishes (the watchdog would end it
        // otherwise), rank 0 has its file every step, and the rank says
        // once what it lacked.
        let out = minimpi::WorldBuilder::new(4)
            .watchdog(std::time::Duration::from_secs(5))
            .run(|comm| {
                let mut pipe = SlicePipeline::new("data", 2, 4);
                (pipe.width, pipe.height) = (40, 30);
                let analysis = CatalystSliceAnalysis::new(pipe);
                let png = analysis.png_handle();
                let mut bridge = Bridge::new();
                bridge.register(Box::new(analysis));
                for step in 0..3 {
                    let mut data = adaptor(comm, step);
                    if comm.rank() == 2 {
                        let global = Extent::whole([9, 9, 9]);
                        let dims = datamodel::dims_create(comm.size());
                        let local = partition_extent(&global, dims, 2);
                        let mut g = ImageData::new(local, global);
                        let n = local.iter_points().count();
                        g.add_point_array(DataArray::owned("other", 1, vec![0.0; n]));
                        data = InMemoryAdaptor::new(DataSet::Image(g), step as f64, step);
                    }
                    *png.lock() = None;
                    bridge.execute(&data, comm);
                    if comm.rank() == 0 {
                        let bytes = png.lock().clone().expect("a file every step");
                        assert_eq!(decode_rgb(&bytes).map(|d| (d.0, d.1)), Ok((40, 30)));
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
    fn failed_write_is_reported_once_and_the_png_kept() {
        World::run(2, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            (pipe.width, pipe.height) = (16, 16);
            pipe.output = SliceOutput::Directory("/nonexistent/catalyst-out".into());
            let analysis = CatalystSliceAnalysis::new(pipe);
            let png = analysis.png_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(analysis));
            for step in 0..3 {
                bridge.execute(&adaptor(comm, step), comm);
            }
            let reports = bridge.failure_reports();
            if comm.rank() == 0 {
                assert!(decode_rgb(png.lock().as_ref().expect("png in memory")).is_ok());
                assert_eq!(reports.len(), 1, "{reports:?}");
                let text = reports[0].to_string();
                assert!(text.contains("failed to write") && text.contains("slice_00000.png"));
            } else {
                assert!(reports.is_empty(), "only the writing rank reports");
            }
        });
    }

    #[test]
    fn stored_mode_is_larger_than_fixed() {
        World::run(1, |comm| {
            let mut sizes = Vec::new();
            for mode in [Mode::Fixed, Mode::Stored] {
                let mut pipe = SlicePipeline::new("data", 2, 4);
                pipe.width = 64;
                pipe.height = 64;
                pipe.png_mode = mode;
                let mut analysis = CatalystSliceAnalysis::new(pipe);
                analysis.execute(&adaptor(comm, 0), comm);
                sizes.push(analysis.png_handle().lock().as_ref().unwrap().len());
            }
            assert!(
                sizes[0] < sizes[1],
                "fixed {} < stored {}",
                sizes[0],
                sizes[1]
            );
        });
    }
}
