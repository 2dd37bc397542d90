//! The Catalyst slice pipeline and its SENSEI analysis adaptor: one
//! configuration of `render::scene::Scene`.

use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

use minimpi::Comm;
use render::color::{Color, Colormap};
use render::composite::Compositor::BinarySwap;
use render::scene::{Leaf, Plot, Scene};
use sensei::analysis::{LeafView, ReportOnce};
use sensei::{AnalysisAdaptor, Association, DataAdaptor, Steering};

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
    /// Rank 0 writes `slice_<step>.png` files into this directory; the
    /// latest PNG is kept in memory either way.
    pub output: Option<PathBuf>,
    /// Render every `frequency`-th step (1 = every step).
    pub frequency: u64,
}

impl SlicePipeline {
    /// A pipeline with the paper's Catalyst defaults: 1920×1080, every
    /// step, in-memory output.
    pub fn new(array: impl Into<String>, axis: usize, global_index: i64) -> Self {
        SlicePipeline {
            array: array.into(),
            axis,
            global_index,
            width: crate::DEFAULT_IMAGE.0,
            height: crate::DEFAULT_IMAGE.1,
            output: None,
            frequency: 1,
        }
    }
}

/// Shared handle to the most recent PNG (rank 0 only).
pub type PngHandle = Arc<Mutex<Option<Vec<u8>>>>;

/// SENSEI analysis adaptor driving the Catalyst slice pipeline.
pub struct CatalystSliceAnalysis {
    pipeline: SlicePipeline,
    scene: Scene,
    last_png: PngHandle,
    failures: ReportOnce,
}

impl CatalystSliceAnalysis {
    /// Wrap a pipeline: a binary-swap scene of one cool–warm slice over
    /// white.
    pub fn new(pipeline: SlicePipeline) -> Self {
        assert!(pipeline.frequency >= 1, "frequency must be at least 1");
        let (axis, index, cmap) = (pipeline.axis, pipeline.global_index, Colormap::cool_warm());
        let image = (pipeline.width, pipeline.height);
        let plots = vec![Plot::Slice { axis, index, cmap }];
        let mut scene = Scene::new("slice", image, BinarySwap, Color::WHITE, plots);
        scene.output.clone_from(&pipeline.output);
        CatalystSliceAnalysis {
            pipeline,
            scene,
            last_png: Arc::new(Mutex::new(None)),
            failures: ReportOnce::default(),
        }
    }

    /// Handle to the latest PNG bytes (filled on rank 0).
    pub fn png_handle(&self) -> PngHandle {
        Arc::clone(&self.last_png)
    }
}

impl AnalysisAdaptor for CatalystSliceAnalysis {
    fn name(&self) -> &str {
        "catalyst-slice"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let step = data.step();
        if step.is_multiple_of(self.pipeline.frequency) {
            let field = data.field(Association::Point, &self.pipeline.array);
            let (mesh, views) = field.blocks_or(&mut self.failures);
            let _publish = mesh.map(|mesh| datamodel::publish_dataset(mesh, "catalyst"));
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
    use sensei::{Bridge, InMemoryAdaptor};

    /// This rank's block of a 9³ grid carrying `f` of each point as
    /// array `name`.
    fn block(comm: &Comm, step: u64, name: &str, f: fn([i64; 3]) -> f64) -> InMemoryAdaptor {
        let global = Extent::whole([9, 9, 9]);
        let dims = datamodel::dims_create(comm.size());
        let local = partition_extent(&global, dims, comm.rank());
        let mut g = ImageData::new(local, global);
        g.add_point_array(DataArray::owned(
            name,
            1,
            local.iter_points().map(f).collect(),
        ));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    fn adaptor(comm: &Comm, step: u64) -> InMemoryAdaptor {
        block(comm, step, "data", |p| (p[0] + p[1]) as f64)
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
            let png = analysis.png_handle();
            let mut frames = 0;
            for s in 0..10 {
                analysis.execute(&adaptor(comm, s), comm);
                frames += usize::from(png.lock().take().is_some());
            }
            if comm.rank() == 0 {
                assert_eq!(frames, 2, "steps 0 and 5 only");
            }
        });
    }

    #[test]
    fn writes_files_when_directed() {
        World::run(2, |comm| {
            // Only rank 0 writes; both configure the same dir path.
            let shared = std::env::temp_dir().join(format!("catalyst_test_{}", std::process::id()));
            let _ = std::fs::create_dir_all(&shared);
            let mut pipe = SlicePipeline::new("data", 2, 4);
            pipe.width = 16;
            pipe.height = 16;
            pipe.output = Some(shared.clone());
            let mut analysis = CatalystSliceAnalysis::new(pipe);
            analysis.execute(&adaptor(comm, 3), comm);
            comm.barrier();
            if comm.rank() == 0 {
                let f = shared.join("slice_00003.png");
                let bytes = std::fs::read(&f).expect("file written");
                assert!(decode_rgb(&bytes).is_ok());
                let _ = std::fs::remove_dir_all(&shared);
            }
        });
    }

    #[test]
    fn rank_without_the_array_still_reaches_render_and_encode() {
        // Rank 2 names its array differently. Render and encode are
        // collective: the run finishes (a deadlock would abort it),
        // rank 0 has its file every step, and the rank says once what it
        // lacked.
        let out = minimpi::World::run(4, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            (pipe.width, pipe.height) = (40, 30);
            let analysis = CatalystSliceAnalysis::new(pipe);
            let png = analysis.png_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(analysis));
            for step in 0..3 {
                let name = if comm.rank() == 2 { "other" } else { "data" };
                *png.lock() = None;
                bridge.execute(&block(comm, step, name, |p| (p[0] + p[1]) as f64), comm);
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
    fn rank_without_the_array_leaves_the_colour_scale_alone() {
        // The scale is the range of the ranks that have the field: rank
        // 2 lacking it leaves its quarter of the plane white and every
        // other pixel the colour it has when all ranks have the field.
        let run = |lacking: usize| {
            World::run(4, move |comm| {
                let mut pipe = SlicePipeline::new("data", 2, 4);
                (pipe.width, pipe.height) = (40, 30);
                let mut analysis = CatalystSliceAnalysis::new(pipe);
                let name = if comm.rank() == lacking {
                    "other"
                } else {
                    "data"
                };
                let data = block(comm, 0, name, |p| 10.0 + (p[0] + p[1]) as f64);
                analysis.execute(&data, comm);
                let png = analysis.png_handle().lock().take();
                png
            })
            .swap_remove(0)
            .and_then(|png| decode_rgb(&png).ok())
            .expect("a file on rank 0")
            .2
        };
        let (all, some) = (run(usize::MAX), run(2));
        let pixels = |rgb: &[u8]| {
            rgb.chunks(3)
                .map(|p| [p[0], p[1], p[2]])
                .collect::<Vec<_>>()
        };
        let (all, some) = (pixels(&all), pixels(&some));
        let drawn: Vec<usize> = (0..some.len()).filter(|&i| some[i] != [255; 3]).collect();
        assert_eq!(drawn.len(), 40 * 30 * 3 / 4, "three ranks' quarters");
        let recoloured = drawn.iter().filter(|&&i| some[i] != all[i]).count();
        assert_eq!(
            recoloured,
            0,
            "{recoloured} of {} drawn pixels recoloured",
            drawn.len()
        );
    }

    #[test]
    fn failed_write_is_reported_once_and_the_png_kept() {
        World::run(2, |comm| {
            let mut pipe = SlicePipeline::new("data", 2, 4);
            (pipe.width, pipe.height) = (16, 16);
            pipe.output = Some("/nonexistent/catalyst-out".into());
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
}
