//! The post hoc analysis workflow (Fig. 11): a reader group *smaller*
//! than the writer group (the paper uses 10%) reads each timestep's
//! pieces back and runs SENSEI analyses over them — the same analyses
//! that ran in situ, which is the point of the comparison. A piece is
//! a BP-lite step, so a reader's pieces become a data adaptor the way a
//! staging endpoint's received steps do ([`round_adaptor`]).

use std::path::{Path, PathBuf};

use adios::staging::round_adaptor;
use adios::BpFile;
use minimpi::Comm;
use sensei::{AnalysisAdaptor, Bridge, RunReport};

use crate::vtkio::piece_path;

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
    /// Payload bytes read from storage by this rank.
    pub bytes_read: u64,
}

/// Run the post hoc workflow over `comm` (the **reader** communicator):
/// for each step in `0..steps`, read the pieces of writers assigned to
/// this reader (round-robin over `writers`) and execute the analyses
/// over them. Results land wherever the analyses put them; a small
/// results artifact is written to `results_path` by rank 0 to account
/// for the "write" bar.
///
/// A piece that is missing or does not decode is recorded as a failure
/// (in the bridge's reports and the returned [`RunReport`]) and left
/// out of its step; the reader still joins every collective.
pub fn posthoc_analysis(
    comm: &Comm,
    dir: &Path,
    steps: u64,
    writers: usize,
    analyses: Vec<Box<dyn AnalysisAdaptor>>,
    results_path: Option<PathBuf>,
) -> (Bridge, RunReport, PosthocReport) {
    let mut bridge = Bridge::new();
    for a in analyses {
        bridge.register(a);
    }
    let mut report = PosthocReport::default();
    let my_writers: Vec<usize> = (comm.rank()..writers).step_by(comm.size()).collect();

    for step in 0..steps {
        // Read phase.
        let t0 = probe::time::Wall::now();
        let mut pieces = Vec::with_capacity(my_writers.len());
        for &w in &my_writers {
            match BpFile::read_all(&piece_path(dir, step, w)) {
                Ok(read) => pieces.extend(read.into_iter().map(|piece| (w, piece))),
                Err(e) => bridge.record_failure(format!(
                    "posthoc: piece of step {step} from writer {w}: {e}"
                )),
            }
        }
        report.bytes_read += pieces
            .iter()
            .map(|(_, piece)| piece.payload_bytes() as u64)
            .sum::<u64>();
        report.read_seconds += t0.elapsed().as_secs_f64();

        // Process phase.
        let t1 = probe::time::Wall::now();
        bridge.execute(&round_adaptor(&pieces), comm);
        report.process_seconds += t1.elapsed().as_secs_f64();
        report.steps += 1;
    }
    let run = bridge.finalize(comm);

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
    (bridge, run, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vtkio::write_manifest;
    use adios::staging::try_adaptor_to_step;
    use datamodel::{partition_extent, DataArray, DataSet, Extent, ImageData};
    use minimpi::World;
    use sensei::analysis::histogram::HistogramAnalysis;
    use sensei::InMemoryAdaptor;

    /// Writer `w`'s block of a `writers`-writer grid at `step`, value =
    /// global x + step.
    fn block(step: u64, writers: usize, w: usize) -> InMemoryAdaptor {
        let global = Extent::whole([writers * 2 + 1, 3, 3]);
        let local = partition_extent(&global, [writers, 1, 1], w);
        let mut g = ImageData::new(local, global);
        let values = local.iter_points().map(|p| p[0] as f64 + step as f64);
        g.add_point_array(DataArray::owned("data", 1, values.collect()));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    /// Write a `writers`-writer dataset of `steps` steps.
    fn write_dataset(dir: &Path, steps: u64, writers: usize) {
        for step in 0..steps {
            let mut extents = Vec::new();
            for w in 0..writers {
                let piece = try_adaptor_to_step(&block(step, writers, w)).unwrap();
                let global = Extent::whole([writers * 2 + 1, 3, 3]);
                extents.push(partition_extent(&global, [writers, 1, 1], w));
                BpFile::append(&piece_path(dir, step, w), &piece).unwrap();
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
            let (bridge, run, report) = posthoc_analysis(
                comm,
                &d2,
                3,
                writers,
                vec![Box::new(hist)],
                Some(d2.join("results.txt")),
            );
            assert_eq!(bridge.steps(), 3);
            assert!(run.failures.is_empty());
            assert_eq!(report.steps, 3);
            assert!(report.read_seconds > 0.0);
            assert!(report.bytes_read > 0);
            let r = handle.lock().clone().expect("histogram");
            // Global grid 21×3×3; pieces overlap on shared planes:
            // 10 pieces of 3×3×3 = 270 values per step.
            assert_eq!(r.counts.iter().sum::<u64>(), 270);
            assert_eq!(r.step, 2);
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
            let (_, _, report) = posthoc_analysis(comm, &d2, 2, 6, vec![Box::new(hist)], None);
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
    fn a_bad_piece_is_a_failure_report_not_a_panic() {
        // Writer 0's piece is cut inside its payload and writer 3's is
        // missing: each reader records its own, still runs the step
        // with the pieces it has, and the histogram covers writers 1
        // and 2.
        let dir = std::env::temp_dir().join(format!("posthoc_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_dataset(&dir, 1, 4);
        let cut = piece_path(&dir, 0, 0);
        let raw = std::fs::read(&cut).unwrap();
        std::fs::write(&cut, &raw[..raw.len() - 5]).unwrap();
        std::fs::remove_file(piece_path(&dir, 0, 3)).unwrap();
        let d2 = dir.clone();
        World::run(2, move |comm| {
            let hist = HistogramAnalysis::new("data", 4);
            let handle = hist.results_handle();
            let (bridge, run, report) =
                posthoc_analysis(comm, &d2, 1, 4, vec![Box::new(hist)], None);
            assert_eq!(bridge.steps(), 1);
            assert_eq!(report.bytes_read, 27 * 8, "one good piece a reader");
            let mine = bridge.failure_reports();
            assert_eq!(mine.len(), 1, "{mine:?}");
            let text = mine[0].to_string();
            let expect = ["corrupt BP data", "BP I/O error"][comm.rank()];
            assert!(text.contains(expect), "{text}");
            if comm.rank() == 0 {
                let kinds: Vec<_> = run
                    .failures
                    .iter()
                    .map(|f| (f.rank, f.kind.as_str()))
                    .collect();
                assert_eq!(kinds, [(0, "other"), (1, "other")]);
                let r = handle.lock().clone().unwrap();
                assert_eq!(r.counts.iter().sum::<u64>(), 2 * 27);
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
            let mut hist = HistogramAnalysis::new("data", 8);
            let handle = hist.results_handle();
            hist.execute(&block(0, 4, comm.rank()), comm);
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
