//! The pre-blocking streaming loops, kept verbatim as the oracle for the
//! kept-run kernels of [`HistogramAnalysis`](super::HistogramAnalysis):
//! one sequential fold and one scatter, each with a branch per ghost
//! flag. Their `(min, max, count)` and bin counts are the contract.

use crate::analysis::{ghost_at, LeafView};

/// Pass 1: one sequential `(min, max, count)` fold.
pub(super) fn range(values: &[f64], ghosts: Option<&[u8]>) -> (f64, f64, u64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0u64;
    for (i, &v) in values.iter().enumerate() {
        if ghost_at(ghosts, i) {
            continue;
        }
        lo = lo.min(v);
        hi = hi.max(v);
        n += 1;
    }
    (lo, hi, n)
}

/// Pass 2: bin each non-ghost value straight into the count vector.
pub(super) fn bin(
    values: &[f64],
    ghosts: Option<&[u8]>,
    glo: f64,
    inv_w: f64,
    last: usize,
    c: &mut [u64],
) {
    for (i, &v) in values.iter().enumerate() {
        if ghost_at(ghosts, i) {
            continue;
        }
        c[(((v - glo) * inv_w) as usize).min(last)] += 1;
    }
}

/// Both passes over one rank's views, binned over the rank's own range
/// (no reduction): `(min, max, counts)`.
pub(in crate::analysis) fn local_histogram(
    views: &[LeafView],
    bins: usize,
) -> (f64, f64, Vec<u64>) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for view in views {
        let (vlo, vhi, _) = range(&view.values, view.ghosts.as_deref());
        lo = lo.min(vlo);
        hi = hi.max(vhi);
    }
    let mut counts = vec![0u64; bins];
    if hi > lo {
        let inv_w = bins as f64 / (hi - lo);
        for view in views {
            let ghosts = view.ghosts.as_deref();
            bin(&view.values, ghosts, lo, inv_w, bins - 1, &mut counts);
        }
    }
    (lo, hi, counts)
}
