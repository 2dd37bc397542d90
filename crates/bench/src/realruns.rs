//! Real (threaded) measurements at workstation scale. These validate
//! the shapes the models assert — zero-copy overhead, the zlib ablation,
//! the VTK-vs-collective ordering, the staging penalty — and are also
//! the bodies of the criterion benches.

use probe::time::Wall;

use datamodel::Extent;
use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::AnalysisAdaptor as _;
use sensei::Bridge;

/// Seconds of wall clock for `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Wall::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Fig. 3 in real mode: run the miniapp + autocorrelation twice — once
/// via direct subroutine calls, once through the SENSEI bridge — and
/// return `(original_seconds, sensei_seconds)`.
pub fn measure_sensei_overhead(ranks: usize, grid: usize, steps: usize) -> (f64, f64) {
    let deck = format_deck(&demo_oscillators());
    let run = |use_bridge: bool| -> f64 {
        let deck = deck.clone();
        let times = World::run(ranks, move |comm| {
            let cfg = SimConfig {
                grid: [grid, grid, grid],
                steps,
                ..SimConfig::default()
            };
            let root_deck = if comm.rank() == 0 {
                Some(deck.as_str())
            } else {
                None
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            let t0 = Wall::now();
            if use_bridge {
                let mut bridge = Bridge::new();
                bridge.register(Box::new(Autocorrelation::new("data", 4, 4)));
                for _ in 0..steps {
                    sim.step(comm);
                    bridge.execute(&OscillatorAdaptor::new(&sim), comm);
                }
                bridge.finalize(comm);
            } else {
                let mut ac = Autocorrelation::new("data", 4, 4);
                for _ in 0..steps {
                    sim.step(comm);
                    ac.execute(&OscillatorAdaptor::new(&sim), comm);
                }
                ac.finalize(comm);
            }
            t0.elapsed().as_secs_f64()
        });
        times.into_iter().fold(0.0, f64::max)
    };
    (run(false), run(true))
}

/// Table 1 in real mode: write one step of a block-decomposed field via
/// file-per-rank and via the collective shared file; return
/// `(vtk_seconds, collective_seconds)`.
pub fn measure_write_paths(ranks: usize, grid: usize, dir: &std::path::Path) -> (f64, f64) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let dir_a = dir.to_path_buf();
    let dir_b = dir.to_path_buf();
    let vtk = World::run(ranks, move |comm| {
        let global = Extent::whole([grid, grid, grid]);
        let dims = datamodel::dims_create(comm.size());
        let local = datamodel::partition_extent(&global, dims, comm.rank());
        let values: Vec<f64> = local.iter_points().map(|p| p[0] as f64).collect();
        let t0 = Wall::now();
        let piece = iosim::Piece {
            extent: local,
            global,
            spacing: [1.0; 3],
            arrays: vec![("data".to_string(), values)],
        };
        iosim::write_piece(&dir_a, 0, comm.rank(), &piece).expect("write piece");
        comm.barrier();
        t0.elapsed().as_secs_f64()
    })
    .into_iter()
    .fold(0.0, f64::max);

    let coll = World::run(ranks, move |comm| {
        let global = Extent::whole([grid, grid, grid]);
        let dims = datamodel::dims_create(comm.size());
        let local = datamodel::partition_extent(&global, dims, comm.rank());
        let values: Vec<f64> = local.iter_points().map(|p| p[0] as f64).collect();
        let t0 = Wall::now();
        iosim::collective_write(comm, &dir_b.join("shared.bin"), &local, &global, &values, 2)
            .expect("collective write");
        t0.elapsed().as_secs_f64()
    })
    .into_iter()
    .fold(0.0, f64::max);
    (vtk, coll)
}

/// Table 2's zlib ablation in real mode: PNG-encode a rendered-image
/// pattern with and without real compression; return
/// `(fixed_seconds, stored_seconds, fixed_bytes, stored_bytes)`.
///
/// The pattern mixes banded pseudocolor regions with smooth gradients —
/// like a real slice render: partially compressible, so the LZ77 +
/// Huffman pass does real work while still shrinking the output.
pub fn measure_png_ablation(width: usize, height: usize) -> (f64, f64, usize, usize) {
    let rgb = pseudocolor_like_image(width, height);
    let (t_fixed, png_fixed) =
        time(|| render::png::encode_rgb(width, height, &rgb, render::deflate::Mode::Fixed));
    let (t_stored, png_stored) =
        time(|| render::png::encode_rgb(width, height, &rgb, render::deflate::Mode::Stored));
    (t_fixed, t_stored, png_fixed.len(), png_stored.len())
}

/// A synthetic render: colormap bands plus smooth per-pixel shading.
pub fn pseudocolor_like_image(width: usize, height: usize) -> Vec<u8> {
    let mut rgb = Vec::with_capacity(width * height * 3);
    for y in 0..height {
        for x in 0..width {
            let band = (((x / 16) + (y / 16)) % 13) as u8;
            let shade = ((x * 255) / width.max(1)) as u8;
            rgb.extend_from_slice(&[band * 19, shade, 255 - band * 11]);
        }
    }
    rgb
}

/// §4.1.4 in real mode: per-step wall time of an inline histogram vs the
/// same histogram at a FlexPath endpoint (writers + endpoints on this
/// machine). Returns `(inline_seconds, staged_seconds)` per step.
pub fn measure_staging_penalty(writers: usize, grid: usize, steps: usize) -> (f64, f64) {
    use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
    use adios::{pair, BrokerConfig, Role, StagingBroker};
    use sensei::analysis::histogram::HistogramAnalysis;

    let deck = format_deck(&demo_oscillators());

    // Inline: writers alone run sim + histogram.
    let deck1 = deck.clone();
    let inline = World::run(writers, move |comm| {
        let cfg = SimConfig {
            grid: [grid, grid, grid],
            steps,
            ..SimConfig::default()
        };
        let root_deck = if comm.rank() == 0 {
            Some(deck1.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root_deck);
        let mut hist = HistogramAnalysis::new("data", 32);
        let t0 = Wall::now();
        for _ in 0..steps {
            sim.step(comm);
            hist.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        t0.elapsed().as_secs_f64() / steps as f64
    })
    .into_iter()
    .fold(0.0, f64::max);

    // Staged: writers ship to endpoints that run the histogram.
    let staged = World::run(writers * 2, move |world| match pair(world, writers) {
        Role::Writer { sub, writer } => {
            let cfg = SimConfig {
                grid: [grid, grid, grid],
                steps,
                ..SimConfig::default()
            };
            let root_deck = if sub.rank() == 0 {
                Some(deck.as_str())
            } else {
                None
            };
            let mut sim = Simulation::new(&sub, cfg, root_deck);
            let mut ship = AdiosWriterAnalysis::new(writer);
            let t0 = Wall::now();
            for _ in 0..steps {
                sim.step(&sub);
                ship.execute(&OscillatorAdaptor::new(&sim), world);
            }
            ship.finalize(world);
            Some(t0.elapsed().as_secs_f64() / steps as f64)
        }
        Role::Endpoint { sub, mut reader } => {
            let hist = HistogramAnalysis::new("data", 32);
            let broker = StagingBroker::new(BrokerConfig::default());
            run_endpoint_with_broker(world, &sub, &mut reader, vec![Box::new(hist)], &broker);
            None
        }
    })
    .into_iter()
    .flatten()
    .fold(0.0, f64::max);
    (inline, staged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensei_overhead_is_small_in_real_mode() {
        // The headline zero-copy claim, measured for real: the bridge
        // path costs within noise of the direct path.
        let (original, sensei) = measure_sensei_overhead(2, 16, 6);
        assert!(original > 0.0 && sensei > 0.0);
        // Generous bound: thread-scheduling noise at this tiny scale can
        // reach tens of percent; catch only gross regressions.
        assert!(
            sensei < original * 2.0 + 0.05,
            "bridge {sensei} vs direct {original}"
        );
    }

    #[test]
    fn png_ablation_shape_matches_table2_discussion() {
        // At PHASTA's IS2 image size the LZ77+Huffman work dominates the
        // extra memcpy of stored mode.
        let (fixed, stored, nf, ns) = measure_png_ablation(2900, 725);
        assert!(
            fixed > stored,
            "compression costs time: {fixed} vs {stored}"
        );
        assert!(nf < ns, "…and saves bytes: {nf} vs {ns}");
    }

    #[test]
    fn write_paths_produce_files() {
        let dir = std::env::temp_dir().join(format!("realruns_io_{}", std::process::id()));
        let (vtk, coll) = measure_write_paths(2, 12, &dir);
        assert!(vtk > 0.0 && coll > 0.0);
        assert!(dir.join("shared.bin").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staging_runs_to_completion() {
        let (inline, staged) = measure_staging_penalty(2, 12, 4);
        assert!(inline > 0.0);
        assert!(staged > 0.0);
    }
}
