//! The histogram analysis of §3.3: two global reductions find the data
//! range, each rank bins its local values, and the bins reduce to root.
//! The only extra storage is proportional to the bin count.
//!
//! Both local passes *stream* over the simulation's buffers on the rank
//! thread: each leaf's values are read in place through a zero-copy
//! borrowed slice (never gathered into a temporary). The state is one
//! `(min, max, count)` triple for pass 1 and one bin vector for pass 2,
//! so storage stays proportional to the bin count, independent of the
//! field size.
//!
//! The local passes run a **lane-unrolled kernel**: pass 1 folds values
//! through four independent accumulator lanes (breaking the sequential
//! `min`/`max` dependency chain so LLVM can pipeline or vectorize it),
//! with ghost flags applied branchlessly as identity elements; pass 2
//! scatters into four independent sub-histograms so back-to-back
//! increments of one hot bin stop serializing on store-to-load
//! forwarding. Both are result-identical to the pre-blocking streaming
//! loops, kept as the `cfg(test)` oracle `histogram/reference.rs`; the
//! property tests pin blocked == reference on arbitrary values.
//!
//! The two range reductions of §3.3 are fused into one `(min, max)`
//! pair reduce, and the bin reduction is one binomial-tree
//! [`Comm::allreduce_vec`].

use minimpi::Comm;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::adaptor::{Association, DataAdaptor};
use crate::analysis::{leaf_views, populated_mesh, AnalysisAdaptor, ReportOnce, Steering};
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
pub type ResultsHandle = Arc<Mutex<Option<HistogramResult>>>;

/// Histogram analysis adaptor.
pub struct HistogramAnalysis {
    array: String,
    assoc: Association,
    bins: usize,
    results: ResultsHandle,
    failures: ReportOnce,
    pending: Option<PendingHistogram>,
}

/// State carried from the communicator-free local phase to the
/// sync-point phase. Owns the step's analysis mesh: pass 2 needs the
/// values again once the global range is known, and in offload mode
/// the two phases run on different threads at different times.
struct PendingHistogram {
    mesh: datamodel::DataSet,
    lo: f64,
    hi: f64,
    local_n: u64,
    step: u64,
}

impl HistogramAnalysis {
    /// Histogram of the named **point** array with `bins` bins.
    pub fn new(array: impl Into<String>, bins: usize) -> Self {
        Self::with_association(array, Association::Point, bins)
    }

    /// Histogram with an explicit association.
    pub fn with_association(array: impl Into<String>, assoc: Association, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        HistogramAnalysis {
            array: array.into(),
            assoc,
            bins,
            results: Arc::new(Mutex::new(None)),
            failures: ReportOnce::default(),
            pending: None,
        }
    }

    /// A handle through which rank 0 can read each step's result.
    pub fn results_handle(&self) -> ResultsHandle {
        Arc::clone(&self.results)
    }
}

/// Blocked pass-1 kernel: four independent accumulator lanes break the
/// sequential `min`/`max` dependency chain, and ghost flags are applied
/// branchlessly by substituting each lane's identity element (`+∞` for
/// the min lane, `-∞` for the max lane) — exactly equivalent to
/// skipping the value, since `x.min(+∞) == x` and `x.max(-∞) == x` for
/// every `x` including `NaN`-ignoring folds. The final lane merge is
/// fixed-order.
fn blocked_range(values: &[f64], ghosts: Option<&[u8]>) -> (f64, f64, u64) {
    let mut mn = [f64::INFINITY; 4];
    let mut mx = [f64::NEG_INFINITY; 4];
    let mut n = 0u64;
    match ghosts {
        None => {
            let mut lanes = values.chunks_exact(4);
            for vs in &mut lanes {
                for l in 0..4 {
                    mn[l] = mn[l].min(vs[l]);
                    mx[l] = mx[l].max(vs[l]);
                }
            }
            for &v in lanes.remainder() {
                mn[0] = mn[0].min(v);
                mx[0] = mx[0].max(v);
            }
            n = values.len() as u64;
        }
        Some(g) => {
            let mut lanes = values.chunks_exact(4);
            let mut glanes = g.chunks_exact(4);
            for (vs, gs) in (&mut lanes).zip(&mut glanes) {
                for l in 0..4 {
                    let keep = gs[l] == 0;
                    mn[l] = mn[l].min(if keep { vs[l] } else { f64::INFINITY });
                    mx[l] = mx[l].max(if keep { vs[l] } else { f64::NEG_INFINITY });
                    n += u64::from(keep);
                }
            }
            for (&v, &gv) in lanes.remainder().iter().zip(glanes.remainder()) {
                let keep = gv == 0;
                mn[0] = mn[0].min(if keep { v } else { f64::INFINITY });
                mx[0] = mx[0].max(if keep { v } else { f64::NEG_INFINITY });
                n += u64::from(keep);
            }
        }
    }
    (
        mn[0].min(mn[1]).min(mn[2]).min(mn[3]),
        mx[0].max(mx[1]).max(mx[2]).max(mx[3]),
        n,
    )
}

/// Blocked pass-2 kernel: four independent sub-histogram lanes break
/// the increment dependency chain — when consecutive values land in the
/// same bin, a single count vector serializes on store-to-load
/// forwarding, while four lanes let the cast/clamp/increment chains
/// overlap (the same trick as the pass-1 lanes). Ghosts are masked
/// branchlessly (`+= 0` for a ghost is the integer identity, equivalent
/// to skipping), the saturating float→int cast matches the reference
/// cast exactly (`NaN → 0`, out-of-range clamps), and the lanes are
/// merged into `c` with exact integer adds in fixed order — so the
/// split changes nothing observable.
fn blocked_bin(
    values: &[f64],
    ghosts: Option<&[u8]>,
    glo: f64,
    inv_w: f64,
    last: usize,
    c: &mut [u64],
) {
    let bins = c.len();
    let idx = |v: f64| (((v - glo) * inv_w) as usize).min(last);
    let mut lanes = vec![0u64; bins * 4];
    let (a01, a23) = lanes.split_at_mut(bins * 2);
    let (l0, l1) = a01.split_at_mut(bins);
    let (l2, l3) = a23.split_at_mut(bins);
    match ghosts {
        None => {
            let mut quads = values.chunks_exact(4);
            for vs in &mut quads {
                l0[idx(vs[0])] += 1;
                l1[idx(vs[1])] += 1;
                l2[idx(vs[2])] += 1;
                l3[idx(vs[3])] += 1;
            }
            for &v in quads.remainder() {
                l0[idx(v)] += 1;
            }
        }
        Some(g) => {
            let mut quads = values.chunks_exact(4);
            let mut gquads = g.chunks_exact(4);
            for (vs, gs) in (&mut quads).zip(&mut gquads) {
                l0[idx(vs[0])] += u64::from(gs[0] == 0);
                l1[idx(vs[1])] += u64::from(gs[1] == 0);
                l2[idx(vs[2])] += u64::from(gs[2] == 0);
                l3[idx(vs[3])] += u64::from(gs[3] == 0);
            }
            for (&v, &gv) in quads.remainder().iter().zip(gquads.remainder()) {
                l0[idx(v)] += u64::from(gv == 0);
            }
        }
    }
    for (dst, ((&a, &b), (&d, &e))) in c
        .iter_mut()
        .zip(l0.iter().zip(l1.iter()).zip(l2.iter().zip(l3.iter())))
    {
        *dst += a + b + d + e;
    }
}

impl AnalysisAdaptor for HistogramAnalysis {
    fn name(&self) -> &str {
        "histogram"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        // The synchronous path *is* the offload split run back-to-back,
        // so device-offloaded and host in situ results are bitwise
        // identical by construction.
        self.execute_local(data, &comm.probe());
        self.complete(comm)
    }

    fn supports_offload(&self) -> bool {
        true
    }

    fn execute_local(&mut self, data: &dyn DataAdaptor, probe: &probe::Probe) {
        // The typed cause of a missing array is reported once.
        let mesh = populated_mesh(data, self.assoc, &self.array).unwrap_or_else(|err| {
            self.failures.report(err);
            data.mesh()
        });
        if probe.is_enabled() {
            // Borrowed vs. owned bytes of this step's analysis mesh: the
            // zero-copy story as numbers.
            let owned = mesh.heap_bytes(false);
            let total = mesh.heap_bytes(true);
            probe.gauge_max(probe::GAUGE_DATASET_OWNED, owned as u64);
            probe.gauge_max(probe::GAUGE_DATASET_SHARED, (total - owned) as u64);
        }
        // A mesh without the array — or with one this thread's memory
        // space cannot reach — yields zero views, but the pending state
        // (and hence the sync-point collectives) still runs: every rank
        // must reach `complete`'s reductions.
        let views = leaf_views(&mesh, self.assoc, &self.array).unwrap_or_else(|err| {
            self.failures.report(err);
            Vec::new()
        });

        // Pass 1: streaming local min/max + count. Nothing is
        // materialized: each leaf folds its borrowed values into a
        // (min, max, count) triple through the blocked kernel.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut local_n = 0u64;
        {
            let _pass1 = probe.span("per-step/histogram/pass1");
            for view in &views {
                let (vlo, vhi, vn) = blocked_range(&view.values, view.ghosts.as_deref());
                lo = lo.min(vlo);
                hi = hi.max(vhi);
                local_n += vn;
            }
        }
        drop(views);
        // Pass 2 needs the values again once the global range is known,
        // so the mesh (zero-copy views of the step's buffers — or, in
        // offload mode, of the device payload) rides along.
        self.pending = Some(PendingHistogram {
            mesh,
            lo,
            hi,
            local_n,
            step: data.step(),
        });
    }

    fn complete(&mut self, comm: &Comm) -> Steering {
        let probe = comm.probe();
        let Some(PendingHistogram {
            mesh,
            lo,
            hi,
            local_n,
            step,
        }) = self.pending.take()
        else {
            return Steering::Continue;
        };
        // An unreadable field was reported by the local phase.
        let views = leaf_views(&mesh, self.assoc, &self.array).unwrap_or_default();
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
                let last = self.bins - 1;
                for view in &views {
                    let ghosts = view.ghosts.as_deref();
                    blocked_bin(&view.values, ghosts, glo, inv_w, last, &mut counts);
                }
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
                step,
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The lane-unrolled kernels are indistinguishable from the
        /// reference streaming loops on arbitrary values — including
        /// NaN / ±0 / ±∞ specials, ghost masks, lengths that exercise
        /// the 4-lane remainder.
        #[test]
        fn prop_blocked_matches_reference(
            n in 1usize..1200,
            seed in proptest::prelude::any::<u32>(),
            bins in 1usize..96,
            ghost_stride in 0usize..5,
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
            let flags: Vec<u8> = (0..n).map(|i| u8::from(i % ghost_stride.max(1) == 0)).collect();
            let ghosts = (ghost_stride > 0).then_some(&flags[..]);
            let (lo, hi, kept) = reference::range(&vals, ghosts);
            proptest::prop_assert_eq!(blocked_range(&vals, ghosts), (lo, hi, kept));
            // Bin over the finite part of the range, as `complete` would
            // over a finite global range; out-of-range values clamp.
            let (glo, ghi) = (lo.max(-1600.0), hi.min(1600.0));
            if ghi > glo {
                let inv_w = bins as f64 / (ghi - glo);
                let (mut want, mut got) = (vec![0u64; bins], vec![0u64; bins]);
                reference::bin(&vals, ghosts, glo, inv_w, bins - 1, &mut want);
                blocked_bin(&vals, ghosts, glo, inv_w, bins - 1, &mut got);
                proptest::prop_assert_eq!(got, want, "bins={} stride={}", bins, ghost_stride);
            }
        }
    }
}
