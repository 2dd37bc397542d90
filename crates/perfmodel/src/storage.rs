//! Parallel-filesystem cost models: the post hoc side of the paper's
//! comparison (Table 1, Figs. 10–11) and the science apps' plot-file
//! writes.

use crate::machine::MachineSpec;
use crate::noise::SeededNoise;

/// One timestep's file-per-rank write (the paper's "multi-file VTK I/O"):
/// every rank creates one file, so the metadata server's create
/// throughput dominates; the streaming term rides the aggregate
/// bandwidth. Cori's create rates are solved from Table 1's VTK column.
pub fn file_per_rank_write(m: &MachineSpec, files: usize, total_bytes: f64) -> f64 {
    let create = files as f64 / m.mds_create_rate.eval(files as f64);
    let stream = total_bytes / m.fs_agg_bw;
    create + stream
}

/// One timestep's collective shared-file write (the paper's "vanilla
/// MPI-IO" with `MPI_File_write_all` and recommended striping): stripe
/// lock serialization caps effective bandwidth regardless of writer
/// count. Cori's bandwidth is solved from Table 1's MPI-IO column.
pub fn collective_write(m: &MachineSpec, total_bytes: f64) -> f64 {
    total_bytes / m.fs_collective_bw
}

/// Post hoc read of `total_bytes` by `readers` ranks (the paper uses 10%
/// of the write concurrency). Aggregate bandwidth is the lesser of the
/// readers' summed streams and the shared-system cap; `noise` applies the
/// Lofstead-style interference factor that makes Fig. 11's bars so
/// variable.
pub fn posthoc_read(
    m: &MachineSpec,
    readers: usize,
    total_bytes: f64,
    noise: &mut SeededNoise,
) -> f64 {
    assert!(readers > 0, "need at least one reader");
    let agg = (readers as f64 * m.fs_read_bw_per_reader).min(m.fs_read_agg_cap);
    (total_bytes / agg) * noise.lognormal_factor(m.io_noise_sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GB;

    fn cori() -> MachineSpec {
        MachineSpec::cori_haswell()
    }

    #[test]
    fn read_noise_is_multiplicative_and_seeded() {
        let m = cori();
        let mut n1 = SeededNoise::new(3);
        let mut n2 = SeededNoise::new(3);
        let a = posthoc_read(&m, 82, 200.0 * GB, &mut n1);
        let b = posthoc_read(&m, 82, 200.0 * GB, &mut n2);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn read_aggregate_cap_binds_at_scale() {
        let m = cori();
        let noise = SeededNoise::new(0);
        // With 4545 readers the per-reader sum exceeds the cap, so time
        // is bytes/cap-shaped: doubling readers doesn't halve time.
        let t1 = posthoc_read(&m, 4545, 12.3e12, &mut SeededNoise::new(1));
        let t2 = posthoc_read(&m, 9090, 12.3e12, &mut SeededNoise::new(1));
        assert!((t1 - t2).abs() / t1 < 0.01, "cap should bind: {t1} vs {t2}");
        let _ = noise;
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn zero_readers_panics() {
        let m = cori();
        posthoc_read(&m, 0, 1.0, &mut SeededNoise::new(0));
    }
}
