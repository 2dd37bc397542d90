//! Traced mode: spans recorded from the benchmark's own files, around
//! the calls into each layer.
//!
//! Every rank is one thread, so the recorder is thread-local: the rank
//! closure installs it, the decorators ([`Timed`], [`TimedAdaptor`]) and
//! the harness loop open spans on it, and the closure takes the spans
//! out when the round ends. Spans stay in memory until the run is over.
//! With no recorder installed (the untraced run) [`span`] reads no clock.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use datamodel::DataSet;
use minimpi::Comm;
use sensei::{AdaptorError, AnalysisAdaptor, Association, DataAdaptor, FailureReport, Steering};

/// Step label of spans outside the step loop (set-up, finalize).
pub const NO_STEP: i64 = -1;

/// One layer call: what ran, when, and which span caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the process's first span.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    pub rank: usize,
    pub step: i64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct Recorder {
    rank: usize,
    step: i64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn now_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Start recording on this thread as `rank`.
pub fn install(rank: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            step: NO_STEP,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Label the spans that follow with `step` ([`NO_STEP`] outside the loop).
pub fn set_step(step: i64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.step = step;
        }
    });
}

/// Stop recording and hand back this thread's spans.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span; a no-op without a recorder.
pub fn span(name: &'static str) -> Guard {
    span_at(name, None)
}

/// Open a span, labelling it with `fallback_step` when the harness loop
/// has set no step (the in transit endpoint, whose loop is the
/// program's own).
fn span_at(name: &'static str, fallback_step: Option<i64>) -> Guard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return Guard(None);
        };
        let id = rec.spans.len();
        let step = match (rec.step, fallback_step) {
            (NO_STEP, Some(step)) => step,
            (step, _) => step,
        };
        rec.spans.push(Span {
            name,
            start_us: now_us(),
            end_us: f64::NAN,
            parent: rec.open.last().copied(),
            rank: rec.rank,
            step,
        });
        rec.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end = now_us();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_us = end;
                // Guards are scoped, so spans close innermost first.
                rec.open.pop();
            }
        });
    }
}

/// Times an analysis from outside: one span per `execute`.
pub struct Timed<A> {
    span: &'static str,
    pub inner: A,
}

impl<A> Timed<A> {
    pub fn new(span: &'static str, inner: A) -> Self {
        Timed { span, inner }
    }
}

impl<A: AnalysisAdaptor> AnalysisAdaptor for Timed<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let _span = span_at(self.span, Some(data.step() as i64 - 1));
        self.inner.execute(data, comm)
    }

    fn finalize(&mut self, comm: &Comm) {
        self.inner.finalize(comm)
    }

    fn take_failures(&mut self) -> Vec<String> {
        self.inner.take_failures()
    }

    fn take_failure_reports(&mut self) -> Vec<FailureReport> {
        self.inner.take_failure_reports()
    }
}

/// Span name of the decorated data adaptor's calls.
pub const ADAPTOR: &str = "sensei.adaptor";

/// Times the simulation-side adaptor from outside: one span per
/// `mesh`, `add_array` and `release_data`.
pub struct TimedAdaptor<D>(pub D);

impl<D: DataAdaptor> DataAdaptor for TimedAdaptor<D> {
    fn time(&self) -> f64 {
        self.0.time()
    }

    fn step(&self) -> u64 {
        self.0.step()
    }

    fn mesh(&self) -> DataSet {
        let _span = span(ADAPTOR);
        self.0.mesh()
    }

    fn array_names(&self, assoc: Association) -> Vec<String> {
        self.0.array_names(assoc)
    }

    fn add_array(
        &self,
        mesh: &mut DataSet,
        assoc: Association,
        name: &str,
    ) -> Result<(), AdaptorError> {
        let _span = span(ADAPTOR);
        self.0.add_array(mesh, assoc, name)
    }

    fn release_data(&self) {
        let _span = span(ADAPTOR);
        self.0.release_data()
    }
}

/// Each span's self time: its duration minus the part its child spans
/// cover. `spans` is one rank's list (parents index into it).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_us();
        }
    }
    own
}

/// Per step, the largest over ranks of the time each rank spent in
/// spans called `name` (`own` selects self time), in microseconds.
/// Lockstep ranks wait for the slowest, so the maximum is what a step
/// pays for the layer.
pub fn per_step_us(ranks: &[&[Span]], name: &str, steps: usize, own: bool) -> Vec<f64> {
    let mut out = vec![0.0f64; steps];
    for spans in ranks {
        let times = if own {
            self_times_us(spans)
        } else {
            spans.iter().map(Span::duration_us).collect()
        };
        let mut mine = vec![0.0f64; steps];
        for (s, us) in spans.iter().zip(times) {
            if s.name == name && s.step >= 0 && (s.step as usize) < steps {
                mine[s.step as usize] += us;
            }
        }
        for (o, m) in out.iter_mut().zip(mine) {
            *o = o.max(m);
        }
    }
    out
}

/// The longest span called `name` outside the step loop over all ranks,
/// in microseconds (0 when the layer never ran).
pub fn outside_steps_us(ranks: &[&[Span]], name: &str) -> f64 {
    ranks
        .iter()
        .copied()
        .flatten()
        .filter(|s| s.name == name && s.step == NO_STEP)
        .map(Span::duration_us)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        install(3);
        set_step(0);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_step(NO_STEP);
        drop(span("after"));
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].rank, spans[1].step), (3, 0));
        assert_eq!(spans[2].step, NO_STEP);
        let own = self_times_us(&spans);
        assert!((own[0] - (spans[0].duration_us() - spans[1].duration_us())).abs() < 1e-9);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        // Recorder gone: spans are no-ops and nothing accumulates.
        drop(span("ignored"));
        assert!(take().is_empty());
    }

    #[test]
    fn per_step_takes_the_slowest_rank() {
        let mk = |rank, step, start: f64, end: f64| Span {
            name: "layer",
            start_us: start,
            end_us: end,
            parent: None,
            rank,
            step,
        };
        let rank0 = [mk(0, 0, 0.0, 5.0), mk(0, 1, 10.0, 11.0)];
        let rank1 = [
            mk(1, 0, 0.0, 2.0),
            mk(1, 1, 10.0, 14.0),
            mk(1, NO_STEP, 20.0, 29.0),
        ];
        let ranks = [&rank0[..], &rank1[..]];
        assert_eq!(per_step_us(&ranks, "layer", 2, false), vec![5.0, 4.0]);
        assert_eq!(outside_steps_us(&ranks, "layer"), 9.0);
        assert_eq!(outside_steps_us(&ranks, "absent"), 0.0);
    }
}
