//! The histogram analysis of §3.3: two global reductions find the data
//! range, each rank bins its local values, and the bins reduce to root.
//! The only extra storage is proportional to the bin count.
//!
//! Both local passes *stream* over the simulation's buffers on the rank
//! thread: each leaf's values are read in place through a zero-copy
//! borrowed slice (never gathered into a temporary), and ghosts are
//! skipped by walking the leaf's maximal runs of kept values
//! (`LeafView::kept_runs`), the walk the autocorrelation makes, so no
//! value's ghost byte is tested in the loops that read the values.
//!
//! Pass 1 folds each run through eight independent select lanes
//! (`if v < lo { v } else { lo }`), which ignore `NaN` as `f64::min`
//! does and compile to packed `min`/`max`; the kept count is the sum
//! of the run lengths. Pass 2 bins each run in blocks of 256: a
//! branch-free pre-pass clamps `(v - glo) · inv_w` to `[0, last]`
//! (`NaN` → 0) and truncates it, the same bin as the saturating cast,
//! and the indices scatter into eight sub-histograms kept between
//! steps, so back-to-back hits on one bin do not serialise on one
//! counter. Both are result-identical to the pre-blocking streaming
//! loops, kept as the `cfg(test)` oracle `histogram/reference.rs` (the
//! range equal as numbers: which zero a `±0` extreme carries follows
//! the lanes, as it follows the decomposition); the property test pins
//! kernels == reference through `LeafView`s.
//!
//! The two range reductions of §3.3 are fused into one `(min, max)`
//! pair reduce, and the bin reduction is one binomial-tree
//! [`Comm::allreduce_vec`].

use minimpi::Comm;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::adaptor::{Association, DataAdaptor};
use crate::analysis::{AnalysisAdaptor, LeafView, ReportOnce, Steering};
use datamodel::MemoryFootprint;

/// The result available on rank 0 after each execute.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramResult {
    /// Global minimum of the field.
    pub min: f64,
    /// Global maximum of the field.
    pub max: f64,
    /// Per-bin global counts.
    pub counts: Vec<u64>,
    /// Timestep the histogram was computed at.
    pub step: u64,
}

impl HistogramResult {
    /// The inclusive value range of bin `b`.
    pub fn bin_range(&self, b: usize) -> (f64, f64) {
        let w = (self.max - self.min) / self.counts.len() as f64;
        (self.min + b as f64 * w, self.min + (b + 1) as f64 * w)
    }
}

/// Shared handle to the most recent result (populated on rank 0).
pub(crate) type ResultsHandle = Arc<Mutex<Option<HistogramResult>>>;

/// Histogram analysis adaptor.
pub struct HistogramAnalysis {
    array: String,
    assoc: Association,
    bins: usize,
    results: ResultsHandle,
    failures: ReportOnce,
    /// Pass 2's sub-histograms, `LANES × bins` counters kept between
    /// steps (zero outside [`bin`]).
    lanes: Vec<u32>,
}

impl HistogramAnalysis {
    /// Histogram of the named **point** array with `bins` bins.
    pub fn new(array: impl Into<String>, bins: usize) -> Self {
        Self::with_association(array, Association::Point, bins)
    }

    /// Histogram with an explicit association.
    pub(crate) fn with_association(
        array: impl Into<String>,
        assoc: Association,
        bins: usize,
    ) -> Self {
        assert!(bins > 0, "need at least one bin");
        HistogramAnalysis {
            array: array.into(),
            assoc,
            bins,
            results: Arc::new(Mutex::new(None)),
            failures: ReportOnce::default(),
            lanes: vec![0; LANES * bins],
        }
    }

    /// A handle through which rank 0 can read each step's result.
    pub fn results_handle(&self) -> ResultsHandle {
        Arc::clone(&self.results)
    }
}

/// Independent accumulators each pass keeps: pass 1's `(min, max)`
/// lanes and pass 2's sub-histograms.
const LANES: usize = 8;

/// Values pass 2 turns into bin indices before scattering them.
const BLOCK: usize = 256;

/// Pass 1 over every leaf's kept runs: `(min, max, kept count)`. Each
/// run folds through `LANES` independent select lanes, which compile
/// to packed `min`/`max`; like `f64::min`/`max` they skip `NaN`, since
/// `NaN < lo` is false. The lanes merge in a fixed order.
fn range(views: &[LeafView]) -> (f64, f64, u64) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut n = 0u64;
    for view in views {
        for (start, len) in view.kept_runs() {
            let mut fold = |vs: &[f64]| {
                for ((lo, hi), &v) in lo.iter_mut().zip(&mut hi).zip(vs) {
                    *lo = if v < *lo { v } else { *lo };
                    *hi = if v > *hi { v } else { *hi };
                }
            };
            let (octets, rest) = view.values[start..start + len].as_chunks::<LANES>();
            octets.iter().for_each(|vs| fold(vs));
            fold(rest);
            n += len as u64;
        }
    }
    (
        lo.into_iter().fold(f64::INFINITY, f64::min),
        hi.into_iter().fold(f64::NEG_INFINITY, f64::max),
        n,
    )
}

/// Pass 2 over every leaf's kept runs, adding into `counts`. A run is
/// binned `BLOCK` values at a time: a branch-free pre-pass clamps
/// `(v - glo) · inv_w` to `[0, last]` (`NaN` → 0) and truncates it,
/// which is the bin of the saturating `as usize` cast followed by
/// `.min(last)`; the indices then scatter into `LANES` sub-histograms,
/// so back-to-back hits on one bin do not serialise on one counter.
/// `lanes` holds `LANES × counts.len()` zeros on entry and on return:
/// they fold into `counts` in a fixed order before any can wrap.
fn bin(views: &[LeafView], glo: f64, inv_w: f64, lanes: &mut [u32], counts: &mut [u64]) {
    let bins = counts.len();
    assert!(bins <= i32::MAX as usize, "bin indices must fit an i32");
    let last = (bins - 1) as f64;
    let fold = |lanes: &mut [u32], counts: &mut [u64]| {
        for lane in lanes.chunks_exact_mut(bins) {
            for (c, l) in counts.iter_mut().zip(lane) {
                *c += u64::from(std::mem::take(l));
            }
        }
    };
    // Values scattered since the last fold bound every lane's counts.
    let mut pending = 0usize;
    let mut idx = [0u32; BLOCK];
    for view in views {
        for (start, len) in view.kept_runs() {
            for block in view.values[start..start + len].chunks(BLOCK) {
                if pending > (u32::MAX as usize) - BLOCK {
                    fold(lanes, counts);
                    pending = 0;
                }
                pending += block.len();
                let idx = &mut idx[..block.len()];
                for (i, &v) in idx.iter_mut().zip(block) {
                    let x = (v - glo) * inv_w;
                    let x = if x > 0.0 { x } else { 0.0 };
                    let x = if x < last { x } else { last };
                    // SAFETY: the two selects above make `x` finite and
                    // in `[0, last]`, NaN included, and `last < i32::MAX`
                    // by the assert on `bins`, so its truncation fits an
                    // `i32`.
                    *i = unsafe { x.to_int_unchecked::<i32>() } as u32;
                }
                let mut scatter = |is: &[u32]| {
                    for (l, &i) in is.iter().enumerate() {
                        lanes[l * bins + i as usize] += 1;
                    }
                };
                let (octets, rest) = idx.as_chunks::<LANES>();
                octets.iter().for_each(|is| scatter(is));
                scatter(rest);
            }
        }
    }
    fold(lanes, counts);
}

impl AnalysisAdaptor for HistogramAnalysis {
    fn name(&self) -> &str {
        "histogram"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let probe = comm.probe();
        let field = data.field(self.assoc, &self.array);
        // Borrowed vs. owned bytes of this step's analysis mesh: the
        // zero-copy story as numbers.
        match field.mesh() {
            Ok(mesh) if probe.is_enabled() => {
                let owned = mesh.heap_bytes(false);
                let total = mesh.heap_bytes(true);
                probe.gauge_max(probe::GAUGE_DATASET_OWNED, owned as u64);
                probe.gauge_max(probe::GAUGE_DATASET_SHARED, (total - owned) as u64);
            }
            _ => {}
        }
        // A field this rank lacks — or one its memory space cannot
        // reach — yields zero views, but the collectives below still
        // run: every rank must reach the reductions. The typed cause is
        // reported once.
        let views = field.views_or(&mut self.failures);

        // Pass 1: streaming local min/max + count over the borrowed
        // values' kept runs. Nothing is materialized.
        let (lo, hi, local_n) = {
            let _pass1 = probe.span("per-step/histogram/pass1");
            range(&views)
        };
        // The two global reductions of §3.3 fused into one (min, max)
        // pair: identical values, half the collective latency — the
        // range phase was the highest-variance span in the seed's
        // run report.
        let (glo, ghi) = {
            let _range = probe.span("per-step/histogram/range");
            comm.allreduce_scalar((lo, hi), |a: (f64, f64), b| (a.0.min(b.0), a.1.max(b.1)))
        };

        // Pass 2: streaming local binning, every leaf into the step's
        // one count vector.
        let mut counts = vec![0u64; self.bins];
        {
            let _pass2 = probe.span("per-step/histogram/pass2");
            if ghi > glo {
                let inv_w = self.bins as f64 / (ghi - glo);
                bin(&views, glo, inv_w, &mut self.lanes, &mut counts);
            } else if glo.is_finite() {
                // Degenerate range: everything in bin 0.
                counts[0] = local_n;
            }
        }

        // Every rank pays O(bins) traffic, and only root retains the
        // result.
        let counts = {
            let _reduce = probe.span("per-step/histogram/reduce");
            comm.allreduce_vec(counts, |a, b| a + b)
        };
        if comm.rank() == 0 {
            *self.results.lock() = Some(HistogramResult {
                min: glo,
                max: ghi,
                counts,
                step: data.step(),
            });
        }
        Steering::Continue
    }

    fn take_failures(&mut self) -> Vec<String> {
        self.failures.take()
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
pub(super) use reference::local_histogram;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::InMemoryAdaptor;
    use datamodel::{DataArray, DataSet, Extent, ImageData};
    use minimpi::World;

    fn adaptor_with(rank: usize, values: Vec<f64>) -> InMemoryAdaptor {
        let n = values.len();
        let e = Extent::whole([n, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned("data", 1, values));
        InMemoryAdaptor::new(DataSet::Image(g), rank as f64, 7)
    }

    #[test]
    fn uniform_values_fill_bins_evenly() {
        World::run(4, |comm| {
            // Global values 0..16 across 4 ranks, 4 bins → 4 per bin.
            let vals: Vec<f64> = (0..4).map(|i| (comm.rank() * 4 + i) as f64).collect();
            let mut h = HistogramAnalysis::new("data", 4);
            let res = h.results_handle();
            let a = adaptor_with(comm.rank(), vals);
            assert!(h.execute(&a, comm).should_continue());
            if comm.rank() == 0 {
                let r = res.lock().clone().unwrap();
                assert_eq!(r.min, 0.0);
                assert_eq!(r.max, 15.0);
                assert_eq!(r.counts.iter().sum::<u64>(), 16);
                assert_eq!(r.step, 7);
                // Even spread: 4 per bin.
                assert!(r.counts.iter().all(|&c| c == 4), "{:?}", r.counts);
            } else {
                assert!(res.lock().is_none(), "non-root holds no result");
            }
        });
    }

    #[test]
    fn degenerate_constant_field() {
        World::run(2, |comm| {
            let mut h = HistogramAnalysis::new("data", 8);
            let res = h.results_handle();
            let a = adaptor_with(comm.rank(), vec![5.0; 10]);
            h.execute(&a, comm);
            if comm.rank() == 0 {
                let r = res.lock().clone().unwrap();
                assert_eq!(r.min, 5.0);
                assert_eq!(r.max, 5.0);
                assert_eq!(r.counts[0], 20);
                assert_eq!(r.counts[1..].iter().sum::<u64>(), 0);
            }
        });
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        World::run(1, |comm| {
            let mut h = HistogramAnalysis::new("data", 4);
            let res = h.results_handle();
            let a = adaptor_with(0, vec![0.0, 1.0, 2.0, 4.0]);
            h.execute(&a, comm);
            let r = res.lock().clone().unwrap();
            assert_eq!(*r.counts.last().unwrap(), 1);
            assert_eq!(r.counts.iter().sum::<u64>(), 4);
        });
    }

    #[test]
    fn unknown_array_is_harmless() {
        World::run(2, |comm| {
            let mut h = HistogramAnalysis::new("missing", 4);
            let a = adaptor_with(comm.rank(), vec![1.0]);
            assert!(h.execute(&a, comm).should_continue());
            assert!(h.execute(&a, comm).should_continue());
            if comm.rank() == 0 {
                let r = h.results_handle().lock().clone().unwrap();
                assert_eq!(r.counts.iter().sum::<u64>(), 0);
            }
            // The missing array surfaces as one typed failure report,
            // not one per step.
            let fails = h.take_failures();
            assert_eq!(fails.len(), 1, "{fails:?}");
            assert!(
                fails[0].contains("unknown point array 'missing'"),
                "{fails:?}"
            );
            assert!(h.take_failures().is_empty(), "drained");
        });
    }

    #[test]
    fn ghost_tuples_are_excluded() {
        World::run(1, |comm| {
            let e = Extent::whole([4, 1, 1]);
            let mut g = ImageData::new(e, e);
            g.add_point_array(DataArray::owned("data", 1, vec![1.0, 2.0, 3.0, 4.0]));
            g.add_point_array(DataArray::owned(
                datamodel::GHOST_ARRAY_NAME,
                1,
                vec![0u8, 1, 1, 0],
            ));
            let a = InMemoryAdaptor::new(DataSet::Image(g), 0.0, 0);
            let mut h = HistogramAnalysis::new("data", 2);
            let res = h.results_handle();
            h.execute(&a, comm);
            let r = res.lock().clone().unwrap();
            assert_eq!(r.counts.iter().sum::<u64>(), 2, "ghosts blanked");
            assert_eq!(r.min, 1.0);
            assert_eq!(r.max, 4.0);
        });
    }

    #[test]
    fn shared_field_is_streamed_without_copy() {
        World::run(1, |comm| {
            let field = std::sync::Arc::new((0..256).map(|i| i as f64).collect::<Vec<_>>());
            let e = Extent::whole([256, 1, 1]);
            let mut g = ImageData::new(e, e);
            g.add_point_array(DataArray::shared("data", 1, std::sync::Arc::clone(&field)));
            let a = InMemoryAdaptor::new(DataSet::Image(g), 0.0, 0);
            let before = std::sync::Arc::strong_count(&field);
            let mut h = HistogramAnalysis::new("data", 8);
            h.execute(&a, comm);
            // The analysis borrowed the simulation buffer in place: no
            // lingering references, no materialized value vector.
            assert_eq!(std::sync::Arc::strong_count(&field), before);
            let r = h.results_handle().lock().clone().unwrap();
            assert_eq!(r.counts.iter().sum::<u64>(), 256);
            assert_eq!(r.counts, vec![32; 8]);
        });
    }

    #[test]
    fn bin_range_covers_span() {
        let r = HistogramResult {
            min: 0.0,
            max: 10.0,
            counts: vec![0; 5],
            step: 0,
        };
        assert_eq!(r.bin_range(0), (0.0, 2.0));
        assert_eq!(r.bin_range(4), (8.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = HistogramAnalysis::new("data", 0);
    }

    /// The ghost flags of a property-test leaf of `n` values: none,
    /// every `k`-th value, `k` leading and `k` trailing values,
    /// alternating kept and ghost runs of `k`, or all ghost.
    fn ghost_pattern(pattern: usize, n: usize, k: usize) -> Option<Vec<u8>> {
        let flag = |i: usize| match pattern {
            1 => i.is_multiple_of(k),
            2 => i < k || i + k >= n,
            3 => (i / k) % 2 == 1,
            4 => true,
            _ => false,
        };
        (pattern != 0).then(|| (0..n).map(|i| u8::from(flag(i))).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The kept-run kernels are indistinguishable from the reference
        /// streaming loops, driven through `LeafView`s as `execute`
        /// drives them: NaN / ±0 / ±∞ specials, every ghost pattern of
        /// [`ghost_pattern`] (leaf `j` of a step takes pattern
        /// `pattern + j`, so a step mixes them), runs shorter than the
        /// lanes and longer than a block, 1–96 bins. Min and max are
        /// compared as numbers: which zero a `±0` extreme carries
        /// follows the lane order, as it follows the decomposition.
        #[test]
        fn prop_blocked_matches_reference(
            n in 1usize..1200,
            seed in proptest::prelude::any::<u32>(),
            bins in 1usize..97,
            pattern in 0usize..5,
            k in 1usize..8,
            long in 0usize..2,
            leaves in 1usize..4,
        ) {
            let vals: Vec<f64> = (0..n)
                .map(|i| {
                    let x = (seed as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((i as u64).wrapping_mul(2862933555777941757));
                    // Mostly finite values with specials sprinkled in.
                    match x % 17 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -0.0,
                        4 => 0.0,
                        _ => ((x >> 16) as f64) / 1e13 - 1600.0,
                    }
                })
                .collect();
            let cuts: Vec<usize> = (0..=leaves).map(|j| j * n / leaves).collect();
            // Runs of 1–7 values, or of 100–700 across blocks.
            let k = if long == 1 { 100 * k } else { k };
            let flags: Vec<Option<Vec<u8>>> = cuts
                .windows(2)
                .enumerate()
                .map(|(j, w)| ghost_pattern((pattern + j) % 5, w[1] - w[0], k))
                .collect();
            let views: Vec<LeafView> = cuts
                .windows(2)
                .zip(&flags)
                .map(|(w, g)| LeafView {
                    values: std::borrow::Cow::Borrowed(&vals[w[0]..w[1]]),
                    ghosts: g.as_deref().map(std::borrow::Cow::Borrowed),
                    geometry: None,
                })
                .collect();
            let want = views.iter().fold(
                (f64::INFINITY, f64::NEG_INFINITY, 0),
                |(lo, hi, kept), v| {
                    let (vlo, vhi, vn) = reference::range(&v.values, v.ghosts.as_deref());
                    (lo.min(vlo), hi.max(vhi), kept + vn)
                },
            );
            proptest::prop_assert_eq!(range(&views), want);
            // Bin over the finite part of the range, as `execute` would
            // over a finite global range; out-of-range values clamp.
            let (glo, ghi) = (want.0.max(-1600.0), want.1.min(1600.0));
            if ghi > glo {
                let inv_w = bins as f64 / (ghi - glo);
                let mut want = vec![0u64; bins];
                for v in &views {
                    let ghosts = v.ghosts.as_deref();
                    reference::bin(&v.values, ghosts, glo, inv_w, bins - 1, &mut want);
                }
                // Twice through the same lanes: they come back zeroed.
                let mut lanes = vec![0u32; LANES * bins];
                for _ in 0..2 {
                    let mut got = vec![0u64; bins];
                    bin(&views, glo, inv_w, &mut lanes, &mut got);
                    proptest::prop_assert_eq!(&got, &want, "bins={} pattern={}", bins, pattern);
                    proptest::prop_assert!(lanes.iter().all(|&l| l == 0));
                }
            }
        }
    }
}
