//! The in situ bridge: the single integration point a simulation calls.
//!
//! A typical instrumentation (§3.2): build a bridge and [`register`]
//! analysis adaptors during simulation initialization; call
//! [`Bridge::execute`] once per timestep with the data adaptor; call
//! [`Bridge::finalize`] at shutdown. The bridge times every analysis
//! phase as an `initialize/…`, `per-step/…` or `finalize/…` probe span
//! and — when given a live [`probe::Probe`] — feeds the rest of the
//! cross-rank observability layer, producing the one-time vs. per-step
//! decomposition and the per-rank min/mean/max/stddev breakdowns the
//! paper's figures report.
//!
//! [`register`]: Bridge::register

use std::collections::BTreeSet;

use minimpi::Comm;
use probe::{GaugeStat, Probe, RunReport, Snapshot};

use crate::adaptor::{AdaptorError, Association, DataAdaptor};
use crate::analysis::{AnalysisAdaptor, Steering};
use crate::failure::FailureReport;
use crate::field::{Field, Memo};
use probe::FailureEntry;

/// The bridge between a simulation and its enabled analyses.
pub struct Bridge {
    /// Each analysis with its `per-step/<name>` span label.
    analyses: Vec<(Box<dyn AnalysisAdaptor>, String)>,
    steps: u64,
    finalized: bool,
    failures: Vec<FailureReport>,
    seen_failures: BTreeSet<String>,
    /// The caller's probe (off by default): lent to the communicator.
    probe: Probe,
    /// Where analysis phases are timed: `probe` when it is enabled,
    /// otherwise a private recorder nobody else sees, so an un-probed
    /// bridge still reports its phases while collectives stay
    /// uninstrumented.
    phases: Probe,
}

impl Default for Bridge {
    fn default() -> Self {
        Self::new()
    }
}

/// Pending analysis registration returned by [`Bridge::register`].
///
/// The registration commits when this guard drops, so the plain call
/// `bridge.register(analysis);` registers immediately, while builder
/// methods refine it first:
///
/// ```
/// # use sensei::analysis::histogram::HistogramAnalysis;
/// # let mut bridge = sensei::bridge::Bridge::new();
/// # let adaptor = Box::new(HistogramAnalysis::new("data", 8));
/// # let measured_seconds = 0.25;
/// bridge.register(adaptor).init_cost(measured_seconds);
/// ```
pub struct Registration<'b> {
    bridge: &'b mut Bridge,
    analysis: Option<Box<dyn AnalysisAdaptor>>,
    init_seconds: f64,
}

impl Registration<'_> {
    /// Record `seconds` as the analysis's one-time construction cost
    /// (infrastructures with heavyweight startup pass their measured
    /// init time here so Fig. 5 can report it). Default: 0.
    pub fn init_cost(mut self, seconds: f64) -> Self {
        self.init_seconds = seconds;
        self
    }
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        if let Some(analysis) = self.analysis.take() {
            let label = format!("initialize/{}", analysis.name());
            self.bridge.phases.record_span(&label, self.init_seconds);
            let per_step = format!("per-step/{}", analysis.name());
            self.bridge.analyses.push((analysis, per_step));
        }
    }
}

impl Bridge {
    /// An empty bridge (no analyses enabled — per-step overhead is then
    /// limited to one trivially cheap adaptor call, the paper's
    /// "Baseline" configuration). Probing starts disabled; every
    /// instrumentation point is a no-op branch.
    pub fn new() -> Self {
        Self::with_probe(probe::off())
    }

    /// A bridge recording through the given probe (pass
    /// [`probe::enabled()`] to collect spans, counters, and gauges).
    pub fn with_probe(probe: Probe) -> Self {
        let phases = if probe.is_enabled() {
            probe.clone()
        } else {
            probe::enabled()
        };
        Bridge {
            analyses: Vec::new(),
            steps: 0,
            finalized: false,
            failures: Vec::new(),
            seen_failures: BTreeSet::new(),
            probe,
            phases,
        }
    }

    /// The bridge's probe handle (off by default).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Register an analysis adaptor. The returned guard commits on drop;
    /// chain [`Registration::init_cost`] to attach a measured one-time
    /// construction cost before it does.
    ///
    /// # Panics
    /// Panics if called after [`Bridge::finalize`].
    pub fn register(&mut self, analysis: Box<dyn AnalysisAdaptor>) -> Registration<'_> {
        assert!(!self.finalized, "bridge already finalized");
        Registration {
            bridge: self,
            analysis: Some(analysis),
            init_seconds: 0.0,
        }
    }

    /// Number of registered analyses.
    pub fn num_analyses(&self) -> usize {
        self.analyses.len()
    }

    /// Pass the current step's data to every analysis, returning the
    /// aggregate [`Steering`] verdict: [`Steering::Stop`] if any
    /// analysis requested a stop (first stopper's reason wins).
    ///
    /// # Panics
    /// Panics if called after [`Bridge::finalize`].
    pub fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        assert!(!self.finalized, "bridge already finalized");
        // Lend the probe to the communicator so collective traffic
        // driven by the analyses lands in the same report.
        if self.probe.is_enabled() && !comm.probe().is_enabled() {
            comm.attach_probe(self.probe.clone());
        }
        let bridge_probe = self.probe.clone();
        let _bridge_span = bridge_probe.span("per-step/bridge");
        self.steps += 1;
        // Sanitizer: the bridge is the zero-copy staging boundary — for
        // the rest of this step every analysis (and through them the
        // endpoints) reads the adaptor's arrays in place. Hold one
        // publish window over everything the adaptor can stage, closing
        // it only after release_data(). Guarded so the extra full_mesh
        // materialization costs nothing when the sanitizer is off.
        let _publish = if sanitizer::active() {
            Some(datamodel::publish_dataset(&data.full_mesh(), "bridge"))
        } else {
            None
        };
        let mut stop: Option<String> = None;
        {
            // The step's fields, shared by its analyses and dropped
            // before release_data(): no share of the step's buffers
            // outlives execute.
            let memo = Memo::default();
            let step = Step { data, memo: &memo };
            for (analysis, label) in &mut self.analyses {
                let verdict = timed(&self.phases, label, || analysis.execute(&step, comm));
                drain_failures(
                    &mut self.failures,
                    &mut self.seen_failures,
                    analysis.as_mut(),
                );
                if let Steering::Stop { reason } = verdict {
                    stop.get_or_insert(reason);
                }
            }
        }
        data.release_data();
        match stop {
            Some(reason) => Steering::Stop { reason },
            None => Steering::Continue,
        }
    }

    /// Finalize every analysis and build the run's observability report.
    ///
    /// Collective: each rank folds its timing table, probe spans,
    /// counters, and memory gauges into a local [`Snapshot`]; snapshots
    /// gather to rank 0, which aggregates min/mean/max/stddev and
    /// rank-of-extremum per label. Non-root ranks aggregate their own
    /// snapshot only (their report still carries full local detail).
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn finalize(&mut self, comm: &Comm) -> RunReport {
        assert!(!self.finalized, "bridge already finalized");
        self.finalized = true;
        // Sanitizer: by finalize, every zero-copy publish window must
        // have closed — an endpoint still holding a staged view here
        // is a leak (reported per window, with the opening clock).
        sanitizer::check_view_leaks("Bridge::finalize");
        for (analysis, _) in &mut self.analyses {
            let label = format!("finalize/{}", analysis.name());
            timed(&self.phases, &label, || analysis.finalize(comm));
            drain_failures(
                &mut self.failures,
                &mut self.seen_failures,
                analysis.as_mut(),
            );
        }
        // Analyses had their chance to discharge protocol obligations
        // (GLEAN closes its drain's hand-off in its finalize);
        // anything this rank still holds open is a leak.
        sanitizer::check_obligations("Bridge::finalize");
        let snap = self.local_snapshot();
        let tagged: Vec<FailureEntry> = self
            .failures
            .iter()
            .map(|f| FailureEntry {
                rank: comm.rank(),
                kind: f.kind().to_string(),
                detail: f.to_string(),
            })
            .collect();
        match comm.gather(0, (snap.clone(), tagged.clone())) {
            Some(gathered) => {
                let mut snaps = Vec::with_capacity(gathered.len());
                let mut failures = Vec::new();
                for (s, f) in gathered {
                    snaps.push(s);
                    failures.extend(f);
                }
                RunReport::build(comm.size(), self.steps, failures, &snaps)
            }
            None => RunReport::build(comm.size(), self.steps, tagged, std::slice::from_ref(&snap)),
        }
    }

    /// This rank's observability snapshot: the `initialize/…`,
    /// `per-step/…`, `finalize/…` phase spans next to whatever else the
    /// probe recorded, plus the allocation high-water gauge.
    fn local_snapshot(&self) -> Snapshot {
        let mut snap = self.phases.snapshot();
        // The allocation high-water mark is a process-global gauge;
        // other concurrently running worlds bleed into it. Skip it on
        // virtual-time (deterministically scheduled) ranks, where
        // reports must be byte-identical across same-seed runs.
        if !probe::time::is_virtual() {
            let peak = probe::alloc::peak_bytes() as u64;
            if peak > 0 {
                set_gauge(&mut snap, probe::GAUGE_ALLOC_PEAK, peak);
            }
        }
        snap
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Record a non-fatal infrastructure failure (e.g. a writer lost in
    /// transit whose stream degraded to end-of-stream). Accepts anything
    /// convertible to [`FailureReport`] — the endpoint crates provide
    /// `From` impls for their record types (dead writers),
    /// and plain strings become [`FailureReport::Other`].
    /// The run continues; the report is surfaced so a degraded pipeline
    /// is never mistaken for a healthy one. Duplicates collapse to one.
    pub fn record_failure(&mut self, report: impl Into<FailureReport>) {
        let report = report.into();
        let key = report.to_string();
        if self.seen_failures.insert(key) {
            self.failures.push(report);
        }
    }

    /// Failure reports recorded during the run (empty = healthy).
    pub fn failure_reports(&self) -> &[FailureReport] {
        &self.failures
    }
}

/// The data adaptor as a step's analyses see it: the adaptor itself,
/// but one [`Field`] per `(association, array)` for the whole step.
struct Step<'m> {
    data: &'m dyn DataAdaptor,
    memo: &'m Memo<'m>,
}

impl DataAdaptor for Step<'_> {
    fn time(&self) -> f64 {
        self.data.time()
    }

    fn step(&self) -> u64 {
        self.data.step()
    }

    fn mesh(&self) -> datamodel::DataSet {
        self.data.mesh()
    }

    fn array_names(&self, assoc: Association) -> Vec<String> {
        self.data.array_names(assoc)
    }

    fn add_array(
        &self,
        mesh: &mut datamodel::DataSet,
        assoc: Association,
        name: &str,
    ) -> Result<(), AdaptorError> {
        self.data.add_array(mesh, assoc, name)
    }

    fn field(&self, assoc: Association, array: &str) -> Field<'_> {
        self.memo.field(self.data, assoc, array)
    }
}

/// Run `f` as one `label` span of `recorder`. Reads [`probe::time`],
/// so scheduled (virtual-time) ranks record deterministic durations.
fn timed<T>(recorder: &Probe, label: &str, f: impl FnOnce() -> T) -> T {
    let _span = recorder.span(label);
    f()
}

/// Move whatever `analysis` reported since the last drain into
/// `failures`: plain strings first (wrapped as
/// [`FailureReport::Analysis`]), then typed reports. `seen` collapses
/// repeats of the same rendered report to one.
fn drain_failures(
    failures: &mut Vec<FailureReport>,
    seen: &mut BTreeSet<String>,
    analysis: &mut dyn AnalysisAdaptor,
) {
    let plain: Vec<FailureReport> = analysis
        .take_failures()
        .into_iter()
        .map(|detail| FailureReport::Analysis {
            analysis: analysis.name().to_string(),
            detail,
        })
        .collect();
    for report in plain.into_iter().chain(analysis.take_failure_reports()) {
        if seen.insert(report.to_string()) {
            failures.push(report);
        }
    }
}

/// Raise (or insert) a gauge in a snapshot, keeping name order.
fn set_gauge(snap: &mut Snapshot, name: &str, value: u64) {
    match snap.gauges.binary_search_by(|g| g.name.as_str().cmp(name)) {
        Ok(i) => snap.gauges[i].max = snap.gauges[i].max.max(value),
        Err(i) => snap.gauges.insert(
            i,
            GaugeStat {
                name: name.to_string(),
                max: value,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::{Association, InMemoryAdaptor};
    use crate::analysis::descriptive::DescriptiveStats;
    use crate::analysis::histogram::HistogramAnalysis;
    use datamodel::{DataArray, DataSet, Extent, ImageData};
    use minimpi::World;

    fn adaptor(step: u64) -> InMemoryAdaptor {
        let e = Extent::whole([4, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned("data", 1, vec![1.0, 2.0, 3.0, 4.0]));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    #[test]
    fn bridge_runs_multiple_analyses_per_step() {
        World::run(2, |comm| {
            let hist = HistogramAnalysis::new("data", 4);
            let hist_res = hist.results_handle();
            let stats = DescriptiveStats::new("data");
            let stats_res = stats.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(hist));
            bridge.register(Box::new(stats));
            assert_eq!(bridge.num_analyses(), 2);

            for s in 0..3 {
                assert!(bridge.execute(&adaptor(s), comm).should_continue());
            }
            let report = bridge.finalize(comm);

            assert_eq!(bridge.steps(), 3);
            assert_eq!(report.steps, 3);
            assert_eq!(report.ranks, 2);
            if comm.rank() == 0 {
                assert!(hist_res.lock().is_some());
            }
            assert!(stats_res.lock().is_some());
            // The report carries 3 per-step samples per analysis and
            // rank; non-root aggregates its own snapshot only.
            let seen_ranks = if comm.rank() == 0 { comm.size() } else { 1 } as u64;
            for label in ["per-step/histogram", "per-step/descriptive-stats"] {
                let phase = report.phase(label).expect("phase present");
                assert_eq!(phase.samples, 3 * seen_ranks, "{label}");
                assert!(phase.max_s >= phase.min_s);
            }
            let fin = report.phase("finalize/histogram").expect("finalize timed");
            assert_eq!(fin.samples, seen_ranks);
        });
    }

    #[test]
    fn empty_bridge_is_near_free() {
        World::run(1, |comm| {
            let mut bridge = Bridge::new();
            let t0 = probe::time::Wall::now();
            for s in 0..1000 {
                bridge.execute(&adaptor(s), comm);
            }
            // 1000 baseline bridge calls complete in far under a second:
            // the "almost nonexistent" instrumentation overhead claim,
            // with the probe layer compiled in but switched off.
            assert!(t0.elapsed().as_secs_f64() < 1.0);
        });
    }

    #[test]
    fn steering_stop_propagates_with_reason() {
        struct StopAfter(u64);
        impl AnalysisAdaptor for StopAfter {
            fn name(&self) -> &str {
                "stopper"
            }
            fn execute(&mut self, data: &dyn DataAdaptor, _comm: &Comm) -> Steering {
                if data.step() < self.0 {
                    Steering::Continue
                } else {
                    Steering::stop(format!("step budget {} exhausted", self.0))
                }
            }
        }
        World::run(1, |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(StopAfter(2)));
            assert!(bridge.execute(&adaptor(0), comm).should_continue());
            assert!(bridge.execute(&adaptor(1), comm).should_continue());
            let verdict = bridge.execute(&adaptor(2), comm);
            assert_eq!(verdict, Steering::stop("step budget 2 exhausted"));
        });
    }

    // A steering analysis whose client is lost on one rank keeps every
    // verdict `Continue`: the run goes to completion, and the loss is
    // one typed entry of rank 0's report, from the rank that saw it.
    #[test]
    fn a_lost_steering_client_degrades_to_run_to_completion() {
        struct Steer {
            lost: bool,
        }
        impl AnalysisAdaptor for Steer {
            fn name(&self) -> &str {
                "steer"
            }
            fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
                self.lost |= comm.rank() == 1 && data.step() == 1;
                Steering::Continue
            }
            fn take_failure_reports(&mut self) -> Vec<FailureReport> {
                if std::mem::take(&mut self.lost) {
                    vec!["steering client 7 lost; running to completion".into()]
                } else {
                    Vec::new()
                }
            }
        }
        let reports = World::run(2, |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(Steer { lost: false }));
            for s in 0..4 {
                assert!(bridge.execute(&adaptor(s), comm).should_continue());
            }
            bridge.finalize(comm)
        });
        let report = &reports[0];
        assert_eq!(report.steps, 4);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert_eq!(report.failures[0].rank, 1);
        assert_eq!(report.failures[0].kind, "other");
        assert!(report.failures[0].detail.contains("steering client 7"));
    }

    #[test]
    fn analysis_failures_drain_into_the_report() {
        struct Flaky;
        impl AnalysisAdaptor for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn execute(&mut self, _data: &dyn DataAdaptor, _comm: &Comm) -> Steering {
                Steering::Continue
            }
            fn take_failures(&mut self) -> Vec<String> {
                vec!["lost connection".to_string()]
            }
        }
        World::run(1, |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(Flaky));
            for s in 0..3 {
                bridge.execute(&adaptor(s), comm);
            }
            // The same failure every step collapses to one report.
            let failures = bridge.failure_reports();
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].kind(), "analysis");
            assert_eq!(failures[0].to_string(), "flaky: lost connection");
            let report = bridge.finalize(comm);
            assert_eq!(report.failures.len(), 1);
            assert_eq!(report.failures[0].rank, 0);
            assert_eq!(report.failures[0].kind, "analysis");
            assert_eq!(report.failures[0].detail, "flaky: lost connection");
        });
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn execute_after_finalize_panics() {
        World::run(1, |comm| {
            let mut bridge = Bridge::new();
            bridge.finalize(comm);
            bridge.execute(&adaptor(0), comm);
        });
    }

    #[test]
    fn init_cost_recording() {
        World::run(1, |comm| {
            let mut bridge = Bridge::new();
            bridge
                .register(Box::new(DescriptiveStats::with_association(
                    "data",
                    Association::Point,
                )))
                .init_cost(1.25);
            let report = bridge.finalize(comm);
            let init = report.phase("initialize/descriptive-stats").unwrap();
            assert_eq!((init.samples, init.max_s), (1, 1.25));
        });
    }

    #[test]
    fn probed_bridge_reports_spans_and_collective_counters() {
        World::run(4, |comm| {
            let mut bridge = Bridge::with_probe(probe::enabled());
            bridge.register(Box::new(DescriptiveStats::new("data")));
            for s in 0..5 {
                bridge.execute(&adaptor(s), comm);
            }
            let report = bridge.finalize(comm);
            // The bridge span wraps every step on every rank. Rank 0
            // aggregates the gathered snapshots; other ranks see their
            // own snapshot only.
            let bspan = report.phase("per-step/bridge").expect("bridge span");
            // Descriptive stats allreduce (reduce + bcast) each step:
            // the counters flowed from the communicator into the report.
            let c = report.counter("minimpi/reduce").expect("reduce counted");
            if comm.rank() == 0 {
                assert_eq!(bspan.ranks, comm.size());
                assert_eq!(bspan.samples, 5 * comm.size() as u64);
                assert_eq!(c.calls, 5 * comm.size() as u64);
                assert!(c.bytes > 0, "reduce moved bytes");
            } else {
                assert_eq!(bspan.ranks, 1);
                assert_eq!(bspan.samples, 5);
                assert_eq!(c.calls, 5);
            }
        });
    }

    #[test]
    fn unprobed_finalize_still_reports_timings() {
        World::run(2, |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(DescriptiveStats::new("data")));
            bridge.execute(&adaptor(0), comm);
            let report = bridge.finalize(comm);
            assert!(report.phase("per-step/descriptive-stats").is_some());
            assert!(report.phase("initialize/descriptive-stats").is_some());
            // No probe → no collective counters, but timings survive.
            assert!(report.counter("minimpi/reduce").is_none());
            assert!(!comm.probe().is_enabled(), "private recorder is never lent");
        });
    }
}
