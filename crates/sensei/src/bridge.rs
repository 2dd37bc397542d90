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
use std::sync::mpsc;
use std::sync::Arc;

use datamodel::MemorySpace;
use minimpi::Comm;
use probe::time::Wall;
use probe::{GaugeStat, Probe, RunReport, Snapshot};

use crate::adaptor::DataAdaptor;
use crate::analysis::{AnalysisAdaptor, Steering};
use crate::failure::FailureReport;
use probe::FailureEntry;

/// Gauge name for the offload executor's measured overlap efficiency,
/// in permille: `1000 ×` (device busy seconds hidden behind the
/// advancing simulation) / (total device busy seconds). Absent when
/// offload never ran; skipped on virtual-time ranks, where reports
/// must stay byte-identical across same-seed runs.
pub const GAUGE_OVERLAP_PERMILLE: &str = "offload/overlap_permille";

/// Counter name for explicit host→device payload transfers (one call
/// per published window snapshot; bytes = attribute payload moved).
pub const COUNTER_H2D: &str = "space/h2d";

/// Which analysis asked the simulation to stop, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StopInfo {
    /// Name of the analysis whose verdict was [`Steering::Stop`].
    pub analysis: String,
    /// The reason it gave.
    pub reason: String,
}

/// The bridge between a simulation and its enabled analyses.
///
/// Slots are `None` only while an analysis is in flight on an offload
/// worker; every slot is resident again after each sync point.
pub struct Bridge {
    analyses: Vec<Option<Box<dyn AnalysisAdaptor>>>,
    steps: u64,
    finalized: bool,
    failures: Vec<FailureReport>,
    seen_failures: BTreeSet<String>,
    /// The caller's probe (off by default): lent to the communicator
    /// and to offload workers.
    probe: Probe,
    /// Where analysis phases are timed: `probe` when it is enabled,
    /// otherwise a private recorder nobody else sees, so an un-probed
    /// bridge still reports its phases while collectives stay
    /// uninstrumented.
    phases: Probe,
    stopped: Option<StopInfo>,
    offload: Option<OffloadExec>,
    /// `(busy, hidden)` seconds recorded when the executor shut down.
    overlap: Option<(f64, f64)>,
}

/// Configuration of the asynchronous analysis offload executor
/// ([`Bridge::enable_offload`]).
#[derive(Clone, Copy, Debug)]
pub struct OffloadConfig {
    /// Simulated device ([`MemorySpace::DeviceSim`]) the per-step
    /// payload snapshots are transferred to.
    pub device: u32,
    /// Device worker threads; offloaded analyses round-robin across
    /// them. At least 1.
    pub workers: usize,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            device: 0,
            workers: 2,
        }
    }
}

/// One job handed to a device worker: the analysis box, a device-space
/// snapshot of the step's publish window, and a dedicated reply lane.
struct Job {
    analysis: Box<dyn AnalysisAdaptor>,
    payload: Arc<datamodel::DataSet>,
    time: f64,
    step: u64,
    probe: Probe,
    reply: mpsc::Sender<Done>,
}

/// A worker's reply: the analysis back (with its pending state filled
/// in) plus how long the local phase kept the device busy.
struct Done {
    analysis: Box<dyn AnalysisAdaptor>,
    busy_seconds: f64,
}

/// A dispatched-but-not-yet-synced analysis, in dispatch order (which
/// every rank shares, so `complete`'s collectives stay aligned).
struct InFlight {
    index: usize,
    name: String,
    reply: mpsc::Receiver<Done>,
}

/// The executor: worker threads, the double-buffered device payload
/// slots, and the running overlap tally.
struct OffloadExec {
    cfg: OffloadConfig,
    jobs: Vec<mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next: usize,
    in_flight: Vec<InFlight>,
    /// Sanitizer obligation id for the live worker pool: opened at
    /// `enable_offload`, discharged at `shutdown_offload`. `None` when
    /// the sanitizer is off.
    obligation: Option<u64>,
    /// Double-buffered payload slots: the window being analyzed and
    /// the window being filled coexist; older ones are dropped.
    slots: [Option<Arc<datamodel::DataSet>>; 2],
    busy_seconds: f64,
    hidden_seconds: f64,
}

/// Device worker loop: enter the device's memory space, run the
/// communicator-free local phase against the snapshot payload, and
/// send the analysis back. Exits when the bridge drops its sender.
fn worker_loop(rx: mpsc::Receiver<Job>, device: u32) {
    while let Ok(job) = rx.recv() {
        let _space = datamodel::enter_space(MemorySpace::DeviceSim(device));
        let t0 = Wall::now();
        let mut analysis = job.analysis;
        let adaptor =
            crate::adaptor::InMemoryAdaptor::new((*job.payload).clone(), job.time, job.step);
        analysis.execute_local(&adaptor, &job.probe);
        let busy_seconds = t0.elapsed().as_secs_f64();
        job.probe
            .record_span("per-step/offload/worker", busy_seconds);
        let _ = job.reply.send(Done {
            analysis,
            busy_seconds,
        });
    }
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
            self.bridge.analyses.push(Some(analysis));
        }
    }
}

impl Bridge {
    /// An empty bridge (no analyses enabled — per-step overhead is then
    /// limited to one trivially cheap adaptor call, the paper's
    /// "Baseline" configuration). Probing starts disabled; every
    /// instrumentation point is a no-op branch.
    pub fn new() -> Self {
        Self::with_probe(Probe::off())
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
            stopped: None,
            offload: None,
            overlap: None,
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
    /// analysis requested a stop (first stopper's reason wins; see
    /// [`Bridge::stop_info`] for who it was).
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
        let mut stop: Option<StopInfo> = None;
        // Sync point: collect last step's offloaded verdicts (one step
        // late by design) before running this step's analyses.
        self.drain_offload(comm, &mut stop);
        let offloading = self.offload.is_some();
        for i in 0..self.analyses.len() {
            let Some(analysis) = self.analyses[i].as_mut() else {
                continue;
            };
            if offloading && analysis.supports_offload() {
                continue; // dispatched below, after the sync analyses ran
            }
            let label = format!("per-step/{}", analysis.name());
            let verdict = timed(&self.phases, &label, || analysis.execute(data, comm));
            drain_failures(
                &mut self.failures,
                &mut self.seen_failures,
                analysis.as_mut(),
            );
            if let Steering::Stop { reason } = verdict {
                stop.get_or_insert_with(|| StopInfo {
                    analysis: analysis.name().to_string(),
                    reason,
                });
            }
        }
        self.dispatch_offload(data);
        data.release_data();
        match stop {
            Some(info) => {
                let reason = info.reason.clone();
                self.stopped = Some(info);
                Steering::Stop { reason }
            }
            None => Steering::Continue,
        }
    }

    /// Who requested the most recent stop (set once any execute returns
    /// [`Steering::Stop`]; `None` while the run is healthy).
    pub fn stop_info(&self) -> Option<&StopInfo> {
        self.stopped.as_ref()
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
        // Last sync point: land any still-in-flight offloaded verdicts
        // before tearing the executor down.
        let mut stop: Option<StopInfo> = None;
        self.drain_offload(comm, &mut stop);
        // Ordering contract (pinned by `last_step_offloaded_verdict_…`
        // in the test suite): the offload executor's one-step-late
        // verdict window must be fully drained — steering verdicts
        // folded into `stopped`, worker failures recorded — *before*
        // the failure list is tagged and gathered below, or the final
        // RunReport would silently miss the last step's steering.
        assert!(
            self.offload.as_ref().is_none_or(|e| e.in_flight.is_empty()),
            "offloaded analyses still in flight at finalize"
        );
        if self.stopped.is_none() {
            self.stopped = stop;
        }
        self.shutdown_offload();
        self.finalized = true;
        // Sanitizer: by finalize, every zero-copy publish window must
        // have closed — an endpoint still holding a staged view here
        // is a leak (reported per window, with the opening clock).
        sanitizer::check_view_leaks("Bridge::finalize");
        for slot in &mut self.analyses {
            let Some(analysis) = slot.as_mut() else {
                continue;
            };
            let label = format!("finalize/{}", analysis.name());
            timed(&self.phases, &label, || analysis.finalize(comm));
            drain_failures(
                &mut self.failures,
                &mut self.seen_failures,
                analysis.as_mut(),
            );
        }
        // Analyses had their chance to discharge protocol obligations
        // (query servers close client registrations in their finalize);
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
    /// `From` impls for their record types (dead writers, evictions),
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

    /// Turn on the asynchronous offload executor: analyses that report
    /// [`AnalysisAdaptor::supports_offload`] run their communicator-free
    /// local phase on device worker threads against a device-space
    /// snapshot of the publish window, overlapping with the advancing
    /// simulation. Their [`AnalysisAdaptor::complete`] verdicts are
    /// collected at the next sync point (the following
    /// [`Bridge::execute`] or [`Bridge::finalize`]), so steering
    /// arrives one step late — the documented offload latency trade.
    ///
    /// # Panics
    /// Panics after [`Bridge::finalize`], or if `workers` is 0.
    pub fn enable_offload(&mut self, cfg: OffloadConfig) {
        assert!(!self.finalized, "bridge already finalized");
        assert!(cfg.workers >= 1, "offload needs at least one worker");
        if self.offload.is_some() {
            return;
        }
        let mut jobs = Vec::with_capacity(cfg.workers);
        let mut handles = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = mpsc::channel::<Job>();
            let device = cfg.device;
            handles.push(std::thread::spawn(move || worker_loop(rx, device)));
            jobs.push(tx);
        }
        let obligation = sanitizer::open_obligation(
            "offload-workers",
            &format!("offload pool ({} workers)", cfg.workers),
        );
        self.offload = Some(OffloadExec {
            cfg,
            jobs,
            handles,
            next: 0,
            in_flight: Vec::new(),
            obligation,
            slots: [None, None],
            busy_seconds: 0.0,
            hidden_seconds: 0.0,
        });
    }

    /// Whether the offload executor is currently running.
    pub fn offload_enabled(&self) -> bool {
        self.offload.is_some()
    }

    /// Measured overlap efficiency so far: the fraction of device busy
    /// time hidden behind the advancing simulation (1.0 = every device
    /// second overlapped; 0.0 = fully synchronous). `None` until the
    /// executor has finished at least one job.
    pub fn overlap_efficiency(&self) -> Option<f64> {
        let (busy, hidden) = match &self.offload {
            Some(exec) => (exec.busy_seconds, exec.hidden_seconds),
            None => self.overlap?,
        };
        (busy > 0.0).then(|| hidden / busy)
    }

    /// Sync point: block for every in-flight analysis, run its
    /// `complete` phase on the rank thread (collectives allowed here —
    /// in-flight order is dispatch order, identical on every rank), and
    /// put the analysis back in its slot. Time spent blocking is the
    /// *exposed* portion of that job's device time; the remainder was
    /// hidden behind the simulation.
    fn drain_offload(&mut self, comm: &Comm, stop: &mut Option<StopInfo>) {
        let Some(exec) = self.offload.as_mut() else {
            return;
        };
        let device = exec.cfg.device;
        let in_flight = std::mem::take(&mut exec.in_flight);
        if in_flight.is_empty() {
            return;
        }
        let mut busy = 0.0;
        let mut hidden = 0.0;
        for flight in in_flight {
            let wait = Wall::now();
            let done = match flight.reply.recv() {
                Ok(done) => done,
                Err(_) => {
                    // A worker died mid-job (panicked analysis). The
                    // slot stays empty; degrade loudly, not silently.
                    self.record_failure(format!(
                        "offload: worker lost before returning '{}'",
                        flight.name
                    ));
                    continue;
                }
            };
            let waited = wait.elapsed().as_secs_f64();
            busy += done.busy_seconds;
            hidden += (done.busy_seconds - waited).max(0.0);
            let mut analysis = done.analysis;
            // Completion still reads device-resident pending state.
            let verdict = {
                let _device = datamodel::enter_space(MemorySpace::DeviceSim(device));
                let label = format!("per-step/{}", flight.name);
                timed(&self.phases, &label, || analysis.complete(comm))
            };
            drain_failures(
                &mut self.failures,
                &mut self.seen_failures,
                analysis.as_mut(),
            );
            if let Steering::Stop { reason } = verdict {
                stop.get_or_insert_with(|| StopInfo {
                    analysis: flight.name.clone(),
                    reason,
                });
            }
            self.analyses[flight.index] = Some(analysis);
        }
        if let Some(exec) = self.offload.as_mut() {
            exec.busy_seconds += busy;
            exec.hidden_seconds += hidden;
        }
    }

    /// Dispatch every offload-capable analysis against a device-space
    /// snapshot of this step's publish window. One snapshot (one
    /// explicit host→device transfer) is shared by all jobs; the
    /// double-buffered slot keeps it alive while the next step's fills.
    fn dispatch_offload(&mut self, data: &dyn DataAdaptor) {
        let Some(exec) = self.offload.as_ref() else {
            return;
        };
        let todo: Vec<usize> = (0..self.analyses.len())
            .filter(|&i| {
                self.analyses[i]
                    .as_ref()
                    .is_some_and(|a| a.supports_offload())
            })
            .collect();
        if todo.is_empty() {
            return;
        }
        let device = exec.cfg.device;
        let lanes = exec.jobs.clone();
        let mut next = exec.next;
        let payload = {
            let _h2d = self.probe.span("per-step/offload/h2d");
            Arc::new(data.full_mesh().snapshot_in(MemorySpace::DeviceSim(device)))
        };
        self.probe
            .bulk(COUNTER_H2D, 1, 1, payload.payload_bytes() as u64);
        let mut in_flight = Vec::with_capacity(todo.len());
        let time = data.time();
        let step = data.step();
        for index in todo {
            let Some(analysis) = self.analyses[index].take() else {
                continue;
            };
            let name = analysis.name().to_string();
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                analysis,
                payload: Arc::clone(&payload),
                time,
                step,
                probe: self.probe.clone(),
                reply: reply_tx,
            };
            let lane = next % lanes.len();
            next += 1;
            match lanes[lane].send(job) {
                Ok(()) => in_flight.push(InFlight {
                    index,
                    name,
                    reply: reply_rx,
                }),
                Err(mpsc::SendError(job)) => {
                    // Worker gone: keep the analysis resident and fall
                    // back to running it synchronously next step.
                    self.record_failure(format!(
                        "offload: worker lane {lane} closed; '{name}' kept on host"
                    ));
                    self.analyses[index] = Some(job.analysis);
                }
            }
        }
        if let Some(exec) = self.offload.as_mut() {
            exec.next = next;
            exec.in_flight.extend(in_flight);
            exec.slots[(self.steps % 2) as usize] = Some(payload);
        }
    }

    /// Stop the executor: record the final overlap tallies, close the
    /// job lanes (workers exit their recv loop), and join the threads.
    fn shutdown_offload(&mut self) {
        let Some(exec) = self.offload.take() else {
            return;
        };
        debug_assert!(exec.in_flight.is_empty(), "drain before shutdown");
        // Skip the gauge on virtual-time ranks: wall-clock overlap is
        // nondeterministic and reports must stay byte-identical there.
        if exec.busy_seconds > 0.0 && !probe::time::is_virtual() {
            let permille = ((exec.hidden_seconds / exec.busy_seconds) * 1000.0).round() as u64;
            self.probe.gauge_max(GAUGE_OVERLAP_PERMILLE, permille);
        }
        self.overlap = Some((exec.busy_seconds, exec.hidden_seconds));
        drop(exec.jobs);
        for handle in exec.handles {
            let _ = handle.join();
        }
        sanitizer::close_obligation(exec.obligation);
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
            let t0 = std::time::Instant::now();
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
    fn offload_matches_synchronous_execution_bitwise() {
        World::run(4, |comm| {
            // Synchronous reference pipeline.
            let hist = HistogramAnalysis::new("data", 8);
            let href = hist.results_handle();
            let stats = DescriptiveStats::new("data");
            let sref = stats.results_handle();
            let mut sync = Bridge::new();
            sync.register(Box::new(hist));
            sync.register(Box::new(stats));

            // The same pipeline, offloaded to simulated-device workers.
            let hist = HistogramAnalysis::new("data", 8);
            let hoff = hist.results_handle();
            let stats = DescriptiveStats::new("data");
            let soff = stats.results_handle();
            let mut off = Bridge::with_probe(probe::enabled());
            off.register(Box::new(hist));
            off.register(Box::new(stats));
            off.enable_offload(OffloadConfig::default());
            assert!(off.offload_enabled());

            for s in 0..4 {
                assert!(sync.execute(&adaptor(s), comm).should_continue());
                assert!(off.execute(&adaptor(s), comm).should_continue());
            }
            sync.finalize(comm);
            off.finalize(comm);
            assert!(!off.offload_enabled());

            // The offload split is the synchronous path run on another
            // thread: results are bitwise identical, not merely close.
            assert_eq!(*href.lock(), *hoff.lock());
            assert_eq!(*sref.lock(), *soff.lock());
            // One host→device snapshot per published step, nothing more.
            let snap = off.probe().snapshot();
            let h2d = snap
                .counters
                .iter()
                .find(|c| c.name == COUNTER_H2D)
                .expect("h2d counted");
            let payload = adaptor(0).full_mesh().payload_bytes() as u64;
            assert_eq!((h2d.calls, h2d.bytes), (4, 4 * payload));
            let eff = off.overlap_efficiency().expect("device did work");
            assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");
        });
    }

    #[test]
    fn offloaded_stop_arrives_at_the_next_sync_point() {
        struct DeferredStop {
            seen: Option<u64>,
        }
        impl AnalysisAdaptor for DeferredStop {
            fn name(&self) -> &str {
                "deferred-stopper"
            }
            fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
                self.execute_local(data, &comm.probe());
                self.complete(comm)
            }
            fn supports_offload(&self) -> bool {
                true
            }
            fn execute_local(&mut self, data: &dyn DataAdaptor, _probe: &probe::Probe) {
                self.seen = Some(data.step());
            }
            fn complete(&mut self, _comm: &Comm) -> Steering {
                match self.seen.take() {
                    Some(s) if s >= 1 => Steering::stop(format!("step {s} over budget")),
                    _ => Steering::Continue,
                }
            }
        }
        World::run(1, |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(DeferredStop { seen: None }));
            bridge.enable_offload(OffloadConfig {
                device: 1,
                workers: 1,
            });
            // Step 0 dispatches; no verdict yet.
            assert!(bridge.execute(&adaptor(0), comm).should_continue());
            // Step 1 syncs step 0 (Continue) and dispatches step 1.
            assert!(bridge.execute(&adaptor(1), comm).should_continue());
            // Step 2 syncs step 1, whose verdict was Stop: delivered here,
            // one step late — the documented offload latency trade.
            let verdict = bridge.execute(&adaptor(2), comm);
            assert_eq!(verdict, Steering::stop("step 1 over budget"));
            let info = bridge.stop_info().expect("stopper identified");
            assert_eq!(info.analysis, "deferred-stopper");
            bridge.finalize(comm);
        });
    }

    #[test]
    fn last_step_offloaded_verdict_drains_before_the_final_gather() {
        // Regression pin for the finalize ordering contract: a steering
        // verdict issued by the *last* dispatched step lives in the
        // offload executor's one-step-late window when finalize runs,
        // and must be drained into `stopped` / the failure log before
        // the RunReport gather — not lost in shutdown.
        struct LastStepStop {
            seen: Option<u64>,
            last: u64,
        }
        impl AnalysisAdaptor for LastStepStop {
            fn name(&self) -> &str {
                "last-step-stopper"
            }
            fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
                self.execute_local(data, &comm.probe());
                self.complete(comm)
            }
            fn supports_offload(&self) -> bool {
                true
            }
            fn execute_local(&mut self, data: &dyn DataAdaptor, _probe: &probe::Probe) {
                self.seen = Some(data.step());
            }
            fn complete(&mut self, _comm: &Comm) -> Steering {
                match self.seen.take() {
                    Some(s) if s == self.last => Steering::stop(format!("stop pinned at step {s}")),
                    _ => Steering::Continue,
                }
            }
            fn take_failure_reports(&mut self) -> Vec<FailureReport> {
                Vec::new()
            }
        }
        World::run(2, |comm| {
            let mut bridge = Bridge::new();
            bridge.register(Box::new(LastStepStop {
                seen: None,
                last: 2,
            }));
            bridge.enable_offload(OffloadConfig {
                device: 1,
                workers: 1,
            });
            // Three steps; step 2's verdict is still in flight when the
            // loop ends, so only finalize's drain can deliver it.
            for s in 0..3 {
                assert!(bridge.execute(&adaptor(s), comm).should_continue());
            }
            assert!(bridge.stop_info().is_none(), "verdict must not be early");
            let report = bridge.finalize(comm);
            let info = bridge.stop_info().expect("last-step verdict drained");
            assert_eq!(info.analysis, "last-step-stopper");
            assert_eq!(info.reason, "stop pinned at step 2");
            // The gather ran *after* the drain: the report reflects all
            // three steps and the executor is fully shut down.
            assert!(!bridge.offload_enabled());
            assert_eq!(report.steps, 3);
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
            assert!(bridge.stop_info().is_none());
            assert!(bridge.execute(&adaptor(1), comm).should_continue());
            let verdict = bridge.execute(&adaptor(2), comm);
            assert_eq!(verdict, Steering::stop("step budget 2 exhausted"));
            let info = bridge.stop_info().expect("stopper identified");
            assert_eq!(info.analysis, "stopper");
            assert_eq!(info.reason, "step budget 2 exhausted");
        });
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
