//! MPI-IO-style collective shared-file writes: the
//! `MPI_Type_create_subarray` + `MPI_File_set_view` +
//! `MPI_File_write_all` pattern of Table 1, implemented as real
//! two-phase collective buffering:
//!
//! 1. the global row-major file space is split into contiguous k-slabs,
//!    one per **aggregator** rank (collective buffering nodes);
//! 2. every rank routes the parts of its block falling in each slab to
//!    that slab's aggregator;
//! 3. aggregators assemble their slab and issue one positioned write.
//!
//! The resulting file is a dense row-major `f64` array of the global
//! extent — byte-identical regardless of the writer decomposition.

use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use datamodel::Extent;
use minimpi::Comm;

const TAG_ROUTE: u32 = 0x10C0_0001;

/// Which ranks aggregate: evenly spaced, `naggr` of them.
fn aggregator_ranks(p: usize, naggr: usize) -> Vec<usize> {
    (0..naggr).map(|a| a * p / naggr).collect()
}

/// The k-slab owned by aggregator `a` of `naggr`: global k-plane range
/// `[lo, hi)`.
fn slab(a: usize, naggr: usize, nk: usize) -> (usize, usize) {
    (a * nk / naggr, (a + 1) * nk / naggr)
}

/// Collectively write `values` (point data over `local`, row-major,
/// k slowest) into one shared dense file of the `global` extent.
/// Collective over `comm`; every rank must call it. `naggr` aggregators
/// perform the file writes (clamped to the communicator size).
pub fn collective_write(
    comm: &Comm,
    path: &Path,
    local: &Extent,
    global: &Extent,
    values: &[f64],
    naggr: usize,
) -> std::io::Result<()> {
    assert_eq!(values.len(), local.num_points(), "values sized to extent");
    let p = comm.size();
    let naggr = naggr.clamp(1, p);
    let aggs = aggregator_ranks(p, naggr);
    let gd = global.point_dims();
    let me = comm.rank();

    // Phase 1: route my rows to slab owners. A "row" is a contiguous x
    // run at fixed (j, k) — contiguous in the file too.
    let ld = local.point_dims();
    for (a, &agg) in aggs.iter().enumerate() {
        let (klo, khi) = slab(a, naggr, gd[2]);
        // Rows of mine whose global k falls in [klo, khi).
        let mut rows: Vec<(u64, Vec<f64>)> = Vec::new();
        for kz in 0..ld[2] {
            let gk = (local.lo[2] + kz as i64) as usize;
            if gk < klo || gk >= khi {
                continue;
            }
            for jy in 0..ld[1] {
                let gj = (local.lo[1] + jy as i64) as usize;
                let row_start = (kz * ld[1] + jy) * ld[0];
                let row = values[row_start..row_start + ld[0]].to_vec();
                let file_elem = ((gk * gd[1] + gj) * gd[0]) as u64 + local.lo[0] as u64;
                rows.push((file_elem, row));
            }
        }
        comm.send(agg, TAG_ROUTE, rows);
    }

    // Phase 2: aggregators assemble and write their slab.
    if let Some(a) = aggs.iter().position(|&r| r == me) {
        let (klo, khi) = slab(a, naggr, gd[2]);
        let plane = gd[0] * gd[1];
        let slab_elems = (khi - klo) * plane;
        let slab_base = (klo * plane) as u64;
        let mut buf = vec![0.0f64; slab_elems];
        for _ in 0..p {
            let (_src, rows): (usize, Vec<(u64, Vec<f64>)>) = comm.recv_any(TAG_ROUTE);
            for (file_elem, row) in rows {
                let off = (file_elem - slab_base) as usize;
                buf[off..off + row.len()].copy_from_slice(&row);
            }
        }
        if slab_elems > 0 {
            // Aggregators seek into a shared file; never truncate it.
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .truncate(false)
                .write(true)
                .open(path)?;
            f.seek(SeekFrom::Start(slab_base * 8))?;
            let mut bytes = Vec::with_capacity(slab_elems * 8);
            for v in &buf {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            f.write_all(&bytes)?;
        }
    }
    // File-system-level completion barrier (MPI_File_close semantics).
    comm.barrier();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{dims_create, partition_extent};
    use minimpi::World;

    /// The shared file read back as the dense global array it holds.
    fn read_global(path: &Path, global: &Extent) -> Vec<f64> {
        let raw = std::fs::read(path).unwrap();
        assert_eq!(raw.len(), global.num_points() * 8, "file size");
        raw.as_chunks::<8>()
            .0
            .iter()
            .map(|&c| f64::from_le_bytes(c))
            .collect()
    }

    fn field(p: [i64; 3]) -> f64 {
        (p[0] + 100 * p[1] + 10_000 * p[2]) as f64
    }

    fn run_collective(p: usize, naggr: usize, dims: [usize; 3]) -> Vec<f64> {
        let path = std::env::temp_dir().join(format!(
            "collective_{}_{p}_{naggr}_{}x{}x{}.bin",
            std::process::id(),
            dims[0],
            dims[1],
            dims[2]
        ));
        let _ = std::fs::remove_file(&path);
        let path2 = path.clone();
        World::run(p, move |comm| {
            let global = Extent::whole(dims);
            let pd = dims_create(comm.size());
            let local = partition_extent(&global, pd, comm.rank());
            let values: Vec<f64> = local.iter_points().map(field).collect();
            collective_write(comm, &path2, &local, &global, &values, naggr).unwrap();
        });
        let global = Extent::whole(dims);
        let out = read_global(&path, &global);
        std::fs::remove_file(&path).unwrap();
        out
    }

    #[test]
    fn file_matches_global_field() {
        let dims = [9, 6, 5];
        let out = run_collective(4, 2, dims);
        let global = Extent::whole(dims);
        for (i, p) in global.iter_points().enumerate() {
            assert_eq!(out[i], field(p), "element {i} at {p:?}");
        }
    }

    #[test]
    fn decomposition_and_aggregator_invariance() {
        let dims = [8, 8, 8];
        let reference = run_collective(1, 1, dims);
        for (p, naggr) in [(2usize, 1usize), (4, 2), (8, 3), (6, 6)] {
            let out = run_collective(p, naggr, dims);
            assert_eq!(out, reference, "p={p} naggr={naggr}");
        }
    }

    #[test]
    fn more_aggregators_than_ranks_is_clamped() {
        let dims = [5, 5, 5];
        let out = run_collective(2, 99, dims);
        assert_eq!(out.len(), 125);
    }
}
