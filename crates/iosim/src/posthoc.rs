//! The post hoc analysis workflow (Fig. 11): a reader group *smaller*
//! than the writer group (the paper uses 10%) reads each timestep's
//! pieces back, reassembles blocks, and runs SENSEI analyses — the same
//! analyses that ran in situ, which is the point of the comparison.

use std::path::{Path, PathBuf};

use datamodel::{DataArray, DataSet, ImageData, MultiBlock};
use minimpi::Comm;
use sensei::{AnalysisAdaptor, Bridge, InMemoryAdaptor};

use crate::vtkio::read_piece;

/// Wall-clock decomposition of a post hoc run — the read/process/write
/// stacked bars of Fig. 11.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PosthocReport {
    /// Seconds spent reading pieces from storage.
    pub read_seconds: f64,
    /// Seconds spent in analysis execution.
    pub process_seconds: f64,
    /// Seconds spent writing result artifacts.
    pub write_seconds: f64,
    /// Steps processed.
    pub steps: u64,
    /// Bytes read from storage by this rank.
    pub bytes_read: u64,
}

/// Run the post hoc workflow over `comm` (the **reader** communicator):
/// for each step in `0..steps`, read the pieces of writers assigned to
/// this reader (round-robin over `writers`), reassemble, and execute the
/// analyses. Results land wherever the analyses put them; a small
/// results artifact is written to `results_path` by rank 0 to account
/// for the "write" bar.
pub fn posthoc_analysis(
    comm: &Comm,
    dir: &Path,
    steps: u64,
    writers: usize,
    analyses: Vec<Box<dyn AnalysisAdaptor>>,
    results_path: Option<PathBuf>,
) -> (Bridge, PosthocReport) {
    let mut bridge = Bridge::new();
    for a in analyses {
        bridge.register(a);
    }
    let mut report = PosthocReport::default();
    let my_writers: Vec<usize> = (comm.rank()..writers).step_by(comm.size()).collect();

    for step in 0..steps {
        // Read phase.
        let t0 = probe::time::Wall::now();
        let mut blocks = MultiBlock::with_slots(my_writers.len());
        for (slot, &w) in my_writers.iter().enumerate() {
            let piece = read_piece(dir, step, w)
                .unwrap_or_else(|e| panic!("posthoc: reading step {step} rank {w}: {e}"));
            let mut g =
                ImageData::new(piece.extent, piece.global).with_geometry([0.0; 3], piece.spacing);
            for (name, data) in piece.arrays {
                report.bytes_read += data.len() as u64 * 8;
                g.add_point_array(DataArray::owned(name, 1, data));
            }
            blocks.set(slot, DataSet::Image(g));
        }
        report.read_seconds += t0.elapsed().as_secs_f64();

        // Process phase.
        let t1 = probe::time::Wall::now();
        let adaptor = InMemoryAdaptor::new(DataSet::Multi(blocks), step as f64, step);
        bridge.execute(&adaptor, comm);
        report.process_seconds += t1.elapsed().as_secs_f64();
        report.steps += 1;
    }
    bridge.finalize(comm);

    // Write phase: a small results artifact from rank 0.
    if comm.rank() == 0 {
        if let Some(path) = results_path {
            let t2 = probe::time::Wall::now();
            let text = format!(
                "posthoc steps={} readers={} writers={}\n",
                steps,
                comm.size(),
                writers
            );
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("posthoc: writing results: {e}");
            }
            report.write_seconds += t2.elapsed().as_secs_f64();
        }
    }
    (bridge, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vtkio::{write_manifest, write_piece, Piece};
    use datamodel::{partition_extent, Extent};
    use minimpi::World;
    use sensei::analysis::histogram::HistogramAnalysis;

    /// Write a 10-writer dataset of `steps` steps, value = global x.
    fn write_dataset(dir: &Path, steps: u64, writers: usize) {
        let global = Extent::whole([writers * 2 + 1, 3, 3]);
        for step in 0..steps {
            let mut extents = Vec::new();
            for w in 0..writers {
                let local = partition_extent(&global, [writers, 1, 1], w);
                extents.push(local);
                let piece = Piece {
                    extent: local,
                    global,
                    spacing: [1.0; 3],
                    arrays: vec![(
                        "data".to_string(),
                        local
                            .iter_points()
                            .map(|p| p[0] as f64 + step as f64)
                            .collect(),
                    )],
                };
                write_piece(dir, step, w, &piece).unwrap();
            }
            write_manifest(dir, step, &extents).unwrap();
        }
    }

    #[test]
    fn ten_percent_readers_reassemble_and_analyze() {
        let dir = std::env::temp_dir().join(format!("posthoc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let writers = 10usize;
        write_dataset(&dir, 3, writers);
        let d2 = dir.clone();
        // 1 reader = 10% of 10 writers.
        World::run(1, move |comm| {
            let hist = HistogramAnalysis::new("data", 8);
            let handle = hist.results_handle();
            let (bridge, report) = posthoc_analysis(
                comm,
                &d2,
                3,
                writers,
                vec![Box::new(hist)],
                Some(d2.join("results.txt")),
            );
            assert_eq!(bridge.steps(), 3);
            assert_eq!(report.steps, 3);
            assert!(report.read_seconds > 0.0);
            assert!(report.bytes_read > 0);
            let r = handle.lock().clone().expect("histogram");
            // Global grid 21×3×3; pieces overlap on shared planes:
            // 10 pieces of 3×3×3 = 270 values per step.
            assert_eq!(r.counts.iter().sum::<u64>(), 270);
            assert!(d2.join("results.txt").exists());
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiple_readers_split_the_writers() {
        let dir = std::env::temp_dir().join(format!("posthoc_multi_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_dataset(&dir, 2, 6);
        let d2 = dir.clone();
        World::run(2, move |comm| {
            let hist = HistogramAnalysis::new("data", 4);
            let handle = hist.results_handle();
            let (_, report) = posthoc_analysis(comm, &d2, 2, 6, vec![Box::new(hist)], None);
            // Each of 2 readers reads 3 of the 6 writers' pieces.
            assert_eq!(report.bytes_read, 2 * 3 * 27 * 8);
            if comm.rank() == 0 {
                let r = handle.lock().clone().unwrap();
                assert_eq!(r.counts.iter().sum::<u64>(), 6 * 27);
            }
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn posthoc_equals_insitu_result() {
        // The central equivalence: the histogram computed post hoc over
        // the files matches the histogram computed in situ.
        let dir = std::env::temp_dir().join(format!("posthoc_eq_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_dataset(&dir, 1, 4);
        let d2 = dir.clone();

        let posthoc = World::run(1, move |comm| {
            let hist = HistogramAnalysis::new("data", 8);
            let handle = hist.results_handle();
            posthoc_analysis(comm, &d2, 1, 4, vec![Box::new(hist)], None);
            let result = handle.lock().clone();
            result.unwrap()
        });

        let insitu = World::run(4, move |comm| {
            let global = Extent::whole([9, 3, 3]);
            let local = partition_extent(&global, [4, 1, 1], comm.rank());
            let mut g = ImageData::new(local, global);
            g.add_point_array(DataArray::owned(
                "data",
                1,
                local.iter_points().map(|p| p[0] as f64).collect(),
            ));
            let mut hist = HistogramAnalysis::new("data", 8);
            let handle = hist.results_handle();
            use sensei::AnalysisAdaptor as _;
            hist.execute(
                &sensei::InMemoryAdaptor::new(DataSet::Image(g), 0.0, 0),
                comm,
            );
            if comm.rank() == 0 {
                handle.lock().clone()
            } else {
                None
            }
        });
        let insitu_hist = insitu[0].clone().unwrap();
        assert_eq!(posthoc[0].counts, insitu_hist.counts);
        assert_eq!(posthoc[0].min, insitu_hist.min);
        assert_eq!(posthoc[0].max, insitu_hist.max);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
