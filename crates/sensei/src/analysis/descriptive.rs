//! Descriptive statistics analysis: count/mean/variance/extrema in one
//! pass plus a single vector allreduce — a second lightweight analysis
//! pattern (BSP with a final small reduction) used by tests, examples,
//! and the GLEAN endpoint.

use minimpi::Comm;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::adaptor::{Association, DataAdaptor};
use crate::analysis::{AnalysisAdaptor, LeafView, ReportOnce, Steering};

/// Moments and extrema of a field at one step, identical on all ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Number of (non-ghost) values.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Timestep.
    pub step: u64,
}

/// Shared handle to the latest stats (available on **every** rank, since
/// the reduction is an allreduce).
pub(crate) type ResultsHandle = Arc<Mutex<Option<Stats>>>;

/// Descriptive-statistics analysis adaptor.
pub struct DescriptiveStats {
    array: String,
    assoc: Association,
    results: ResultsHandle,
    failures: ReportOnce,
}

impl DescriptiveStats {
    /// Stats of the named point array.
    pub fn new(array: impl Into<String>) -> Self {
        Self::with_association(array, Association::Point)
    }

    /// Stats with an explicit association.
    pub(crate) fn with_association(array: impl Into<String>, assoc: Association) -> Self {
        DescriptiveStats {
            array: array.into(),
            assoc,
            results: Arc::new(Mutex::new(None)),
            failures: ReportOnce::default(),
        }
    }

    /// A handle to each step's result.
    pub fn results_handle(&self) -> ResultsHandle {
        Arc::clone(&self.results)
    }
}

impl AnalysisAdaptor for DescriptiveStats {
    fn name(&self) -> &str {
        "descriptive-stats"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        // Local partials: [count, sum, sum_sq, min, max].
        let mut count = 0.0f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        // An unreadable field contributes nothing, but the partials
        // still go to the allreduce: every rank reaches it.
        match data.field(self.assoc, &self.array).views() {
            Ok(views) => {
                for (_, v) in views.iter().flat_map(LeafView::kept) {
                    count += 1.0;
                    sum += v;
                    sum_sq += v * v;
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            Err(err) => self.failures.report(err),
        }
        let step = data.step();
        let merged = comm.allreduce(vec![count, sum, sum_sq, lo, hi], |a, b| {
            vec![
                a[0] + b[0],
                a[1] + b[1],
                a[2] + b[2],
                a[3].min(b[3]),
                a[4].max(b[4]),
            ]
        });
        let n = merged[0];
        let stats = if n > 0.0 {
            let mean = merged[1] / n;
            Stats {
                count: n as u64,
                mean,
                variance: (merged[2] / n - mean * mean).max(0.0),
                min: merged[3],
                max: merged[4],
                step,
            }
        } else {
            Stats {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                min: f64::NAN,
                max: f64::NAN,
                step,
            }
        };
        *self.results.lock() = Some(stats);
        Steering::Continue
    }

    fn take_failures(&mut self) -> Vec<String> {
        self.failures.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::InMemoryAdaptor;
    use datamodel::{DataArray, DataSet, Extent, ImageData};
    use minimpi::World;

    fn adaptor(values: Vec<f64>) -> InMemoryAdaptor {
        let n = values.len();
        let e = Extent::whole([n, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned("data", 1, values));
        InMemoryAdaptor::new(DataSet::Image(g), 0.0, 11)
    }

    #[test]
    fn global_moments_across_ranks() {
        World::run(4, |comm| {
            // Rank r holds [r, r] → global values 0,0,1,1,2,2,3,3.
            let mut d = DescriptiveStats::new("data");
            let res = d.results_handle();
            d.execute(&adaptor(vec![comm.rank() as f64; 2]), comm);
            let s = (*res.lock()).unwrap();
            assert_eq!(s.count, 8);
            assert_eq!(s.mean, 1.5);
            assert_eq!(s.min, 0.0);
            assert_eq!(s.max, 3.0);
            assert!((s.variance - 1.25).abs() < 1e-12);
            assert_eq!(s.step, 11);
        });
    }

    #[test]
    fn result_identical_on_every_rank() {
        let outs = World::run(3, |comm| {
            let mut d = DescriptiveStats::new("data");
            let res = d.results_handle();
            d.execute(&adaptor(vec![comm.rank() as f64 * 2.0]), comm);
            let s = (*res.lock()).unwrap();
            (s.mean, s.min, s.max)
        });
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_field_yields_zero_count() {
        World::run(2, |comm| {
            let mut d = DescriptiveStats::new("missing");
            let res = d.results_handle();
            d.execute(&adaptor(vec![1.0]), comm);
            let s = (*res.lock()).unwrap();
            assert_eq!(s.count, 0);
            assert!(s.min.is_nan());
        });
    }

    #[test]
    fn variance_of_constant_is_zero() {
        World::run(2, |comm| {
            let mut d = DescriptiveStats::new("data");
            let res = d.results_handle();
            d.execute(&adaptor(vec![7.0; 5]), comm);
            assert_eq!((*res.lock()).unwrap().variance, 0.0);
        });
    }
}
