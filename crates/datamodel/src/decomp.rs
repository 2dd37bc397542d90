//! Regular block decomposition of structured grids across ranks —
//! the "partitioned between the processes using regular decomposition" of
//! the oscillator miniapp (§3.3).

use crate::extent::Extent;

/// Factor `p` ranks into a near-cubic 3D process grid, like
/// `MPI_Dims_create`: the product of the dims equals `p` and the dims are
/// as balanced as possible, in non-increasing order.
pub fn dims_create(p: usize) -> [usize; 3] {
    assert!(p > 0, "cannot decompose over zero ranks");
    let mut best = [p, 1, 1];
    let mut best_spread = p - 1;
    // Enumerate factor triples a*b*c = p with a <= b <= c.
    let mut a = 1;
    while a * a * a <= p {
        if p.is_multiple_of(a) {
            let rest = p / a;
            let mut b = a;
            while b * b <= rest {
                if rest.is_multiple_of(b) {
                    let c = rest / b;
                    let spread = c - a;
                    if spread < best_spread {
                        best_spread = spread;
                        best = [c, b, a];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Split a global point extent into `dims` blocks per axis and return the
/// block owned by rank `rank` (row-major rank order: x fastest).
///
/// Blocks partition the **cells**: adjacent blocks share a face of points
/// (each block's point extent overlaps its +axis neighbor by one plane),
/// matching VTK's structured-piece convention.
pub fn partition_extent(global: &Extent, dims: [usize; 3], rank: usize) -> Extent {
    let p = dims[0] * dims[1] * dims[2];
    assert!(rank < p, "rank {rank} out of range for {dims:?}");
    let coords = [
        rank % dims[0],
        (rank / dims[0]) % dims[1],
        rank / (dims[0] * dims[1]),
    ];
    let mut lo = [0i64; 3];
    let mut hi = [0i64; 3];
    for a in 0..3 {
        let cells = global.cell_dims()[a].max(1);
        assert!(
            dims[a] <= cells,
            "axis {a}: cannot split {cells} cells across {} ranks",
            dims[a]
        );
        let base = cells / dims[a];
        let extra = cells % dims[a];
        // First `extra` blocks take one extra cell.
        let my_cells = base + usize::from(coords[a] < extra);
        let start = coords[a] * base + coords[a].min(extra);
        lo[a] = global.lo[a] + start as i64;
        hi[a] = lo[a] + my_cells as i64; // +1 point plane shared with neighbor
        hi[a] = hi[a].min(global.hi[a]);
    }
    Extent::new(lo, hi)
}

/// Ghost flags marking the point planes a block *duplicates* from its
/// lower-axis neighbours.
///
/// [`partition_extent`] partitions cells, so adjacent blocks share a
/// point plane: the plane at `local.lo[a]` is owned by the `-a`
/// neighbour whenever the block does not touch the global lower
/// boundary on that axis. Point-associated analyses that fold every
/// tuple (histograms, moments) would count those planes once per
/// adjacent block — making their results depend on the decomposition —
/// unless the producer marks them with the VTK duplicate-ghost
/// convention ([`crate::GHOST_ARRAY_NAME`]).
///
/// Returns one flag per point in `local.iter_points()` order:
/// [`crate::attributes::GHOST_DUPLICATE`] on duplicated planes, 0 elsewhere. The
/// non-ghost points of all blocks of a decomposition tile the global
/// extent exactly once. A block that duplicates no plane (its `lo` is
/// the global `lo` on every axis) has no ghost, and gets no flags:
/// readers take an absent ghost array as every tuple kept.
///
/// The flags are filled a row (fixed `j`, `k`) at a time: a row on a
/// shared low `y` or `z` face is all ghost, and any other row has at
/// most its first point flagged, when the low `x` face is shared.
pub fn duplicate_point_ghosts(local: &Extent, global: &Extent) -> Option<Vec<u8>> {
    let shared = [0, 1, 2].map(|a| local.lo[a] > global.lo[a]);
    if shared == [false; 3] {
        return None;
    }
    let [nx, ny, nz] = local.point_dims();
    let mut flags = vec![0; nx * ny * nz];
    for (r, row) in flags.chunks_exact_mut(nx).enumerate() {
        let (j, k) = (r % ny, r / ny);
        if (shared[1] && j == 0) || (shared[2] && k == 0) {
            row.fill(crate::attributes::GHOST_DUPLICATE);
        } else if shared[0] {
            row[0] = crate::attributes::GHOST_DUPLICATE;
        }
    }
    Some(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_create_balanced() {
        assert_eq!(dims_create(1), [1, 1, 1]);
        assert_eq!(dims_create(8), [2, 2, 2]);
        assert_eq!(dims_create(64), [4, 4, 4]);
        assert_eq!(dims_create(12), [3, 2, 2]);
        let d = dims_create(7); // prime
        assert_eq!(d.iter().product::<usize>(), 7);
    }

    #[test]
    fn dims_product_always_p() {
        for p in 1..200 {
            let d = dims_create(p);
            assert_eq!(d.iter().product::<usize>(), p, "p={p}");
            assert!(d[0] >= d[1] && d[1] >= d[2]);
        }
    }

    #[test]
    fn partition_covers_all_cells_once() {
        let global = Extent::whole([17, 13, 9]);
        let dims = [4, 3, 2];
        let p: usize = dims.iter().product();
        let mut cell_owner = vec![0usize; global.num_cells()];
        let gc = global.cell_dims();
        for rank in 0..p {
            let e = partition_extent(&global, dims, rank);
            // Cells of block = points minus the shared upper plane.
            for k in e.lo[2]..e.hi[2] {
                for j in e.lo[1]..e.hi[1] {
                    for i in e.lo[0]..e.hi[0] {
                        let idx = ((k as usize) * gc[1] + j as usize) * gc[0] + i as usize;
                        cell_owner[idx] += 1;
                    }
                }
            }
        }
        assert!(
            cell_owner.iter().all(|&c| c == 1),
            "every cell owned exactly once"
        );
    }

    #[test]
    fn neighbors_share_point_plane() {
        let global = Extent::whole([11, 11, 11]);
        let dims = [2, 1, 1];
        let a = partition_extent(&global, dims, 0);
        let b = partition_extent(&global, dims, 1);
        assert_eq!(a.hi[0], b.lo[0], "blocks share a point plane on x");
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_ranks_per_axis_panics() {
        let global = Extent::whole([3, 3, 3]); // 2 cells per axis
        let _ = partition_extent(&global, [5, 1, 1], 0);
    }

    #[test]
    fn single_block_has_no_duplicate_ghosts() {
        let global = Extent::whole([9, 7, 5]);
        assert_eq!(duplicate_point_ghosts(&global, &global), None);
    }

    #[test]
    fn non_ghost_points_tile_the_global_extent_once() {
        let global = Extent::whole([17, 13, 9]);
        for dims in [[1, 1, 1], [4, 1, 1], [2, 2, 1], [4, 3, 2]] {
            let p: usize = dims.iter().product();
            let mut owner = vec![0usize; global.num_points()];
            for rank in 0..p {
                let local = partition_extent(&global, dims, rank);
                let flags = duplicate_point_ghosts(&local, &global)
                    .unwrap_or_else(|| vec![0; local.num_points()]);
                for (pt, &f) in local.iter_points().zip(&flags) {
                    if f == 0 {
                        owner[global.linear_index(pt)] += 1;
                    }
                }
            }
            assert!(
                owner.iter().all(|&c| c == 1),
                "dims {dims:?}: every point owned exactly once"
            );
        }
    }

    /// The per-point definition the row fill must reproduce: none for a
    /// block with no shared face.
    fn per_point_ghosts(local: &Extent, global: &Extent) -> Option<Vec<u8>> {
        let shared: Vec<usize> = (0..3).filter(|&a| local.lo[a] > global.lo[a]).collect();
        if shared.is_empty() {
            return None;
        }
        let flags = local
            .iter_points()
            .map(|p| {
                if shared.iter().any(|&a| p[a] == local.lo[a]) {
                    crate::attributes::GHOST_DUPLICATE
                } else {
                    0
                }
            })
            .collect();
        Some(flags)
    }

    #[test]
    fn row_fill_matches_the_per_point_flags() {
        for global in [
            Extent::whole([17, 13, 9]),
            Extent::whole([9, 9, 9]),
            Extent::whole([33, 5, 4]),
            Extent::new([-3, 2, 5], [12, 9, 11]),
        ] {
            for p in 1..=8 {
                let dims = dims_create(p);
                for rank in 0..p {
                    let local = partition_extent(&global, dims, rank);
                    assert_eq!(
                        duplicate_point_ghosts(&local, &global),
                        per_point_ghosts(&local, &global),
                        "{global:?} over {dims:?}, rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_planes_are_marked_on_the_low_side() {
        let global = Extent::whole([11, 11, 11]);
        let b = partition_extent(&global, [2, 1, 1], 1);
        let flags = duplicate_point_ghosts(&b, &global).expect("rank 1 shares a plane");
        for (pt, &f) in b.iter_points().zip(&flags) {
            assert_eq!(
                f != 0,
                pt[0] == b.lo[0],
                "only the shared lo-x plane is a ghost"
            );
        }
    }
}
