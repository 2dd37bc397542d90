//! Analysis adaptors: the consumer-side half of the SENSEI interface.
//!
//! An analysis adaptor wraps anything that consumes simulation data — a
//! few-line statistic or an entire infrastructure (the `catalyst`,
//! `libsim`, `adios`, and `glean` crates each implement this trait).
//! Because the paper treats infrastructures *as analyses under SENSEI*,
//! coupling a simulation to all of them requires only adding adaptors to
//! the bridge.

pub mod autocorrelation;
pub mod descriptive;
pub mod histogram;

use std::borrow::Cow;

use crate::adaptor::{Association, DataAdaptor};
use datamodel::AccessError;
use minimpi::Comm;

/// The verdict an analysis returns from [`AnalysisAdaptor::execute`]:
/// the computational-steering hook, now carrying *why* a stop was
/// requested instead of a bare `false`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Steering {
    /// Keep simulating.
    Continue,
    /// Request that the simulation stop.
    Stop {
        /// Human-readable cause ("threshold crossed at step 12", …).
        reason: String,
    },
}

impl Steering {
    /// Shorthand for [`Steering::Stop`] with the given reason.
    pub fn stop(reason: impl Into<String>) -> Self {
        Steering::Stop {
            reason: reason.into(),
        }
    }

    /// `true` unless this verdict requests a stop.
    pub fn should_continue(&self) -> bool {
        matches!(self, Steering::Continue)
    }
}

/// The analysis-side adaptor contract.
pub trait AnalysisAdaptor: Send {
    /// Short identifier used in timing reports ("histogram",
    /// "catalyst-slice", …).
    fn name(&self) -> &str;

    /// Consume the current step's data. Returns a [`Steering`] verdict;
    /// analyses that never steer return [`Steering::Continue`].
    ///
    /// Collective: every rank of `comm` calls `execute` each time the
    /// bridge runs.
    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering;

    /// One-time teardown; global reductions that produce final results
    /// (e.g. the autocorrelation top-k) happen here.
    fn finalize(&mut self, _comm: &Comm) {}

    /// Drain non-fatal failure reports accumulated since the last call
    /// (e.g. an array the adaptor could not provide, a writer lost in
    /// transit). The bridge drains this after every `execute` and
    /// `finalize` and folds the strings into its failure log, so
    /// degraded pipelines surface without each analysis holding a
    /// bridge handle. Default: no failures.
    fn take_failures(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Drain *typed* failure reports. Like
    /// [`take_failures`](AnalysisAdaptor::take_failures) but for
    /// adaptors that can say exactly what broke (an evicted query
    /// client, a dead steering peer) instead of flattening the
    /// forensics into a string — the bridge records these under their
    /// own `kind` tag rather than as `analysis` failures. Default: no
    /// reports.
    fn take_failure_reports(&mut self) -> Vec<crate::failure::FailureReport> {
        Vec::new()
    }
}

/// One populated leaf's scalar field as analyses and infrastructures
/// read it: values in element order, ghost flags when the leaf has
/// them, and the leaf's structured geometry when it has one. `Borrowed`
/// is the path simulation data takes — no element materializes
/// anywhere; a non-`f64` or multi-component field (or an exotically
/// typed ghost array) is widened once into the `Owned` side and then
/// runs the same kernels.
#[derive(Clone)]
pub struct LeafView<'a> {
    /// Component 0 of the field, widened to `f64`.
    pub values: Cow<'a, [f64]>,
    /// The leaf's ghost flags (nonzero = ghost), one per value.
    pub ghosts: Option<Cow<'a, [u8]>>,
    /// [`datamodel::DataSet::structured`] of the leaf.
    pub geometry: Option<datamodel::Structured<'a>>,
}

impl LeafView<'_> {
    /// The leaf's structured geometry and its values, where it has one:
    /// the block an infrastructure draws or ships.
    pub fn block(&self) -> Option<(datamodel::Structured<'_>, &[f64])> {
        Some((self.geometry?, &self.values))
    }

    /// The non-ghost values with their tuple index, in element order.
    pub fn kept(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let ghosts = self.ghosts.as_deref();
        let values = self.values.iter().copied().enumerate();
        values.filter(move |&(t, _)| !ghost_at(ghosts, t))
    }

    /// The maximal runs of non-ghost tuples as `(start, len)`, in
    /// element order: the whole leaf when it carries no flags.
    pub(crate) fn kept_runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.values.len();
        let ghosts = self.ghosts.as_deref().map(|g| &g[..n]);
        let mut at = 0;
        std::iter::from_fn(move || {
            let (start, len) = match ghosts {
                None => (at, n - at),
                Some(g) => {
                    let start = at + g[at..].iter().position(|&flag| flag == 0)?;
                    (start, first_ghost(&g[start..]).unwrap_or(n - start))
                }
            };
            at = start + len;
            (len > 0).then_some((start, len))
        })
    }
}

/// Index of the first nonzero flag, found eight flags at a time: a
/// word is one compare, and its first nonzero flag is its trailing
/// zero bits / 8. A `position` over bytes is a scalar loop (0.6 ms a
/// megabyte), which a block cut into one run per grid row would pay
/// on every run.
fn first_ghost(flags: &[u8]) -> Option<usize> {
    let (words, tail) = flags.as_chunks::<8>();
    match words.iter().position(|w| u64::from_ne_bytes(*w) != 0) {
        Some(w) => Some(8 * w + u64::from_le_bytes(words[w]).trailing_zeros() as usize / 8),
        None => Some(8 * words.len() + tail.iter().position(|&flag| flag != 0)?),
    }
}

/// Is tuple `i` a ghost, given a leaf's borrowed ghost flags?
pub(crate) fn ghost_at(ghosts: Option<&[u8]>, i: usize) -> bool {
    ghosts.is_some_and(|g| g[i] != 0)
}

/// View every leaf of `mesh` carrying the named array, from the calling
/// thread's execution space. Leaves without the array are skipped; an
/// array the thread cannot reach is a typed [`AccessError`], never a
/// quiet cross-space read. Views borrow the mesh, so the caller streams
/// the simulation's buffers in place (inside whatever
/// [`datamodel::publish_dataset`] window it holds over `mesh`).
pub fn leaf_views<'a>(
    mesh: &'a datamodel::DataSet,
    assoc: Association,
    array: &str,
) -> Result<Vec<LeafView<'a>>, AccessError> {
    let exec = datamodel::current_space();
    let mut out = Vec::new();
    for leaf in mesh.leaves() {
        let attrs = match assoc {
            Association::Point => leaf.point_data(),
            Association::Cell => leaf.cell_data(),
        };
        let Some((attrs, arr)) = attrs.and_then(|a| Some((a, a.get(array)?))) else {
            continue;
        };
        let ghosts = match attrs.ghosts() {
            None => None,
            Some(g) => Some(match g.component_slice_in::<u8>(0, exec) {
                Ok(flags) => Cow::Borrowed(flags),
                Err(_) => g
                    .values_in(0, exec)?
                    .iter()
                    .map(|&v| u8::from(v != 0.0))
                    .collect(),
            }),
        };
        out.push(LeafView {
            values: arr.values_in(0, exec)?,
            ghosts,
            geometry: leaf.structured(),
        });
    }
    Ok(out)
}

/// Why an analysis could not do its work (missing array, wrong memory
/// space, a file it could not write): kept for
/// [`AnalysisAdaptor::take_failures`] the first time only — the same
/// cause every step would flood the failure log.
#[derive(Default)]
pub struct ReportOnce {
    pending: Vec<String>,
    reported: bool,
}

impl ReportOnce {
    /// Keep `cause` if it is the first one.
    pub fn report(&mut self, cause: impl std::fmt::Display) {
        if !std::mem::replace(&mut self.reported, true) {
            self.pending.push(cause.to_string());
        }
    }

    /// Drain what was kept, for [`AnalysisAdaptor::take_failures`].
    pub fn take(&mut self) -> Vec<String> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::autocorrelation::Autocorrelation;
    use super::descriptive::DescriptiveStats;
    use super::histogram::HistogramAnalysis;
    use super::*;
    use crate::{Bridge, InMemoryAdaptor};
    use datamodel::{DataArray, DataSet, Extent, ImageData, MemorySpace};
    use minimpi::World;

    /// One step of a rank-dependent integer signal, stored pre-widened
    /// to `f64`, as `i32`, or as component 0 of a 3-component AoS array.
    fn deck(storage: usize, ghosted: bool, rank: usize, step: u64) -> InMemoryAdaptor {
        let n = 203;
        let ints = (0..n).map(|i| ((i * 37 + rank * 11 + step as usize * 5) % 101) as i32 - 50);
        let field = match storage {
            0 => DataArray::owned("data", 1, ints.map(f64::from).collect()),
            1 => DataArray::owned("data", 1, ints.collect()),
            _ => DataArray::owned(
                "data",
                3,
                ints.flat_map(|v| [f64::from(v), -1e9, 1e9]).collect(),
            ),
        };
        let e = Extent::whole([n, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(field);
        if ghosted {
            let flags: Vec<u8> = (0..n).map(|i| u8::from(i % 7 == 0)).collect();
            g.add_point_array(DataArray::owned(datamodel::GHOST_ARRAY_NAME, 1, flags));
        }
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    /// Every built-in analysis over five steps of `deck`, and the
    /// histogram's reference kernels over each step's local views; each
    /// rank's results printed with round-tripping float formatting, so
    /// equal strings are equal bits.
    fn results(storage: usize, ghosted: bool, ranks: usize) -> Vec<String> {
        World::run(ranks, move |comm| {
            let hist = HistogramAnalysis::new("data", 16);
            let auto = Autocorrelation::new("data", 3, 4);
            let stats = DescriptiveStats::new("data");
            let (hh, ha, hs) = (
                hist.results_handle(),
                auto.results_handle(),
                stats.results_handle(),
            );
            let mut bridge = Bridge::new();
            bridge.register(Box::new(hist));
            bridge.register(Box::new(auto));
            bridge.register(Box::new(stats));
            let mut reference = Vec::new();
            for step in 0..5 {
                let data = deck(storage, ghosted, comm.rank(), step);
                let field = data.field(Association::Point, "data");
                reference.push(histogram::local_histogram(&field.views().unwrap(), 16));
                bridge.execute(&data, comm);
            }
            bridge.finalize(comm);
            assert!(bridge.failure_reports().is_empty());
            format!(
                "{:?} {:?} {:?} {:?}",
                hh.lock(),
                reference,
                ha.lock(),
                hs.lock()
            )
        })
    }

    /// The runs are the maximal stretches of `kept()`: every nonzero
    /// flag value is a ghost, whatever byte of a word it sits in, and
    /// the tail past the last whole word is searched too.
    #[test]
    fn kept_runs_are_the_maximal_stretches_of_kept_tuples() {
        for n in [1, 7, 8, 9, 63, 64, 65, 200] {
            for stride in [1, 2, 3, 8, 9, 64, 65, 1000] {
                for flag in [1u8, 2, 0x80, 0xff] {
                    let values = vec![0.0; n];
                    let flags: Vec<u8> = (0..n)
                        .map(|i| if (i + 3) % stride == 0 { flag } else { 0 })
                        .collect();
                    let view = LeafView {
                        values: Cow::Borrowed(&values),
                        ghosts: Some(Cow::Borrowed(&flags)),
                        geometry: None,
                    };
                    let mut want: Vec<(usize, usize)> = Vec::new();
                    for (t, _) in view.kept() {
                        match want.last_mut() {
                            Some((start, len)) if *start + *len == t => *len += 1,
                            _ => want.push((t, 1)),
                        }
                    }
                    let got: Vec<_> = view.kept_runs().collect();
                    assert_eq!(got, want, "n {n} stride {stride} flag {flag:#x}");
                }
            }
        }
    }

    #[test]
    fn widened_fields_match_prewidened_f64_bitwise() {
        for (ranks, ghosted) in [(1, false), (1, true), (2, false), (2, true)] {
            let expect = results(0, ghosted, ranks);
            assert!(expect[0].contains("counts"), "{}", expect[0]);
            for storage in [1, 2] {
                assert_eq!(
                    results(storage, ghosted, ranks),
                    expect,
                    "storage {storage}"
                );
            }
        }
    }

    #[test]
    fn wrong_space_field_is_one_reported_failure_and_the_run_completes() {
        World::run(2, |comm| {
            let e = Extent::whole([8, 1, 1]);
            let mut g = ImageData::new(e, e);
            let field = DataArray::owned("data", 1, vec![1.0f64; 8]);
            g.add_point_array(field.with_space(MemorySpace::DeviceSim(0)));
            let data = InMemoryAdaptor::new(DataSet::Image(g), 0.0, 0);
            let mut hist = HistogramAnalysis::new("data", 4);
            for _ in 0..3 {
                assert!(hist.execute(&data, comm).should_continue());
            }
            let failures = hist.take_failures();
            assert_eq!(failures.len(), 1, "{failures:?}");
            let text = &failures[0];
            assert!(text.contains("device0") && text.contains("host"), "{text}");
            if comm.rank() == 0 {
                let r = hist
                    .results_handle()
                    .lock()
                    .clone()
                    .expect("collectives ran");
                assert_eq!(r.counts.iter().sum::<u64>(), 0, "nothing was read");
            }
        });
    }
}
