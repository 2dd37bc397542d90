//! Cross-rank observability: the measurement layer behind the paper's
//! per-rank cost decompositions and memory-overhead tables.
//!
//! The crate sits at the bottom of the workspace (its only dependency
//! is the in-tree `parking_lot` lock shim) so every layer — the MPI
//! substrate included — can hold a [`Probe`] without dependency
//! cycles. A probe is a cheap cloneable handle in one of two states:
//!
//! * [`off`]: a `const` no-op handle. Every recording method starts
//!   with a branch on `None` and inlines away — the default path a
//!   simulation pays when nobody asked for measurements.
//! * [`enabled`]: a shared recorder of hierarchical **spans**
//!   (`"per-step/histogram/reduce"`-style slash paths), **counters**
//!   (calls / messages / bytes per label), and high-water **gauges**.
//!
//! A rank extracts its local [`Snapshot`] at finalize; snapshots
//! gathered from every rank aggregate (min / mean / max / stddev and
//! rank-of-extremum per label) into a [`RunReport`], which serializes
//! to JSON without serde (see [`report`]).

pub mod alloc;
mod json;
mod report;
pub mod time;

pub use json::Json;
pub use report::{
    aggregate, Aggregates, CounterAgg, FailureEntry, GaugeAgg, PhaseAgg, RankMemory, RunReport,
};

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Gauge name for the per-rank allocation high-water mark (bytes).
pub const GAUGE_ALLOC_PEAK: &str = "mem/alloc_peak_bytes";
/// Gauge name for bytes a rank's analysis meshes own outright.
pub const GAUGE_DATASET_OWNED: &str = "mem/dataset_owned_bytes";
/// Gauge name for bytes a rank's analysis meshes borrow from the
/// simulation (zero-copy shared buffers).
pub const GAUGE_DATASET_SHARED: &str = "mem/dataset_shared_bytes";

/// Namespaced instrumentation keys.
///
/// Every counter and gauge in the workspace lives on a slash path
/// (`"staging/on_wire"`, `"mem/allocs"`, …). Building
/// those paths with ad-hoc `format!` calls at each site let the same
/// metric drift into different spellings between recording and
/// reporting; these helpers are the single place the shape is
/// defined. The output is byte-identical to the historical keys, so
/// existing `RunReport`s and checked-in baselines keep their labels.
pub mod key {

    /// A crate-wide metric: `"namespace/metric"`.
    pub fn of(namespace: &str, metric: &str) -> String {
        format!("{namespace}/{metric}")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // The exact strings below appear in checked-in baseline
        // reports; the helper must reproduce them byte-for-byte.
        #[test]
        fn keys_match_the_historical_spellings() {
            assert_eq!(of("staging", "on_wire"), "staging/on_wire");
            assert_eq!(of("staging", "off_wire"), "staging/off_wire");
            assert_eq!(of("minimpi", "reduce"), "minimpi/reduce");
        }
    }
}

/// Online mean/variance accumulator (Welford) with range tracking.
#[derive(Clone, Copy, Debug, Default)]
struct Welford {
    count: u64,
    total: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.total += x;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Population standard deviation (0 for fewer than two samples).
    fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0).sqrt()
        }
    }
}

/// Per-label message/byte tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counter {
    calls: u64,
    messages: u64,
    bytes: u64,
}

#[derive(Default)]
struct State {
    spans: BTreeMap<String, Welford>,
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, u64>,
}

/// The recorder behind an enabled probe. Interior state sits behind a
/// mutex so the handle stays `Send + Sync` (bridges and communicators
/// holding probes cross thread-join boundaries); within a rank the
/// lock is uncontended.
#[derive(Default)]
struct Inner {
    state: Mutex<State>,
}

/// A cloneable observability handle: either a `const` no-op ([`off`])
/// or a shared recorder ([`enabled`]).
#[derive(Clone, Default)]
pub struct Probe(Option<Arc<Inner>>);

/// The no-op probe: every recording method is a single branch that the
/// optimizer removes. This is the default everywhere.
pub const fn off() -> Probe {
    Probe(None)
}

/// A live probe that records spans, counters, and gauges.
pub fn enabled() -> Probe {
    Probe(Some(Arc::new(Inner::default())))
}

impl Probe {
    /// Alias for [`off`].
    pub const fn off() -> Self {
        off()
    }

    /// Alias for [`enabled`].
    pub fn enabled() -> Self {
        enabled()
    }

    /// Is this handle recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Start a RAII span; its elapsed time (on the thread's active
    /// [`time`] source) records under `path` on drop. Paths are
    /// slash-separated hierarchies such as
    /// `"per-step/histogram/reduce"`.
    #[inline]
    pub fn span<'p>(&'p self, path: &'p str) -> Span<'p> {
        Span {
            probe: self,
            path,
            start: self.0.as_ref().map(|_| time::now_seconds()),
        }
    }

    /// Record one `seconds` sample under the span `path`.
    #[inline]
    pub fn record_span(&self, path: &str, seconds: f64) {
        if let Some(inner) = &self.0 {
            let mut state = inner.state.lock();
            match state.spans.get_mut(path) {
                Some(w) => w.push(seconds),
                None => {
                    let mut w = Welford::default();
                    w.push(seconds);
                    state.spans.insert(path.to_string(), w);
                }
            }
        }
    }

    /// Count one invocation under the counter `name` (e.g. one
    /// collective call, independent of how many messages it moved).
    #[inline]
    pub fn call(&self, name: &str) {
        if let Some(inner) = &self.0 {
            let mut state = inner.state.lock();
            bump(&mut state, name, |c| c.calls += 1);
        }
    }

    /// Count one message of `bytes` under the counter `name`.
    #[inline]
    pub fn message(&self, name: &str, bytes: u64) {
        if let Some(inner) = &self.0 {
            let mut state = inner.state.lock();
            bump(&mut state, name, |c| {
                c.messages += 1;
                c.bytes += bytes;
            });
        }
    }

    /// Bulk counter update: `calls` invocations moving `messages`
    /// messages of `bytes` total under `name`, in one lock
    /// acquisition: a kernel's per-step term counts record once, not
    /// once per term.
    #[inline]
    pub fn bulk(&self, name: &str, calls: u64, messages: u64, bytes: u64) {
        if let Some(inner) = &self.0 {
            let mut state = inner.state.lock();
            bump(&mut state, name, |c| {
                c.calls += calls;
                c.messages += messages;
                c.bytes += bytes;
            });
        }
    }

    /// Raise the high-water gauge `name` to at least `value`.
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(inner) = &self.0 {
            let mut state = inner.state.lock();
            match state.gauges.get_mut(name) {
                Some(g) => *g = (*g).max(value),
                None => {
                    state.gauges.insert(name.to_string(), value);
                }
            }
        }
    }

    /// This handle's recordings as plain data (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.0 else {
            return Snapshot::default();
        };
        let state = inner.state.lock();
        Snapshot {
            spans: state
                .spans
                .iter()
                .map(|(label, w)| SpanStat {
                    label: label.clone(),
                    count: w.count,
                    total: w.total,
                    min: w.min,
                    max: w.max,
                    mean: w.mean,
                    stddev: w.stddev(),
                })
                .collect(),
            counters: state
                .counters
                .iter()
                .map(|(name, c)| CounterStat {
                    name: name.clone(),
                    calls: c.calls,
                    messages: c.messages,
                    bytes: c.bytes,
                })
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(name, &max)| GaugeStat {
                    name: name.clone(),
                    max,
                })
                .collect(),
        }
    }
}

/// Apply `f` to the counter `name`, created on first use; only that
/// first use allocates its key.
fn bump(state: &mut State, name: &str, f: impl FnOnce(&mut Counter)) {
    match state.counters.get_mut(name) {
        Some(c) => f(c),
        None => f(state.counters.entry(name.to_string()).or_default()),
    }
}

/// RAII timer returned by [`Probe::span`]; records on drop. Holds no
/// allocation and reads no clock when the probe is off.
pub struct Span<'p> {
    probe: &'p Probe,
    path: &'p str,
    start: Option<f64>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.probe
                .record_span(self.path, (time::now_seconds() - t0).max(0.0));
        }
    }
}

/// Per-label timing statistics of one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStat {
    /// Slash-separated span path.
    pub label: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples, seconds.
    pub total: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Mean sample.
    pub mean: f64,
    /// Population standard deviation over samples.
    pub stddev: f64,
}

/// Per-label counter totals of one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name (e.g. `"minimpi/bcast"`).
    pub name: String,
    /// Operation invocations.
    pub calls: u64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent (estimated for type-erased payloads).
    pub bytes: u64,
}

/// One high-water gauge of one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeStat {
    /// Gauge name (e.g. [`GAUGE_ALLOC_PEAK`]).
    pub name: String,
    /// Largest value observed.
    pub max: u64,
}

/// Everything one rank recorded, as plain data (gatherable across
/// ranks). Entries are sorted by label/name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Span timing stats.
    pub spans: Vec<SpanStat>,
    /// Counter totals.
    pub counters: Vec<CounterStat>,
    /// Gauge high-water marks.
    pub gauges: Vec<GaugeStat>,
}

impl Snapshot {
    /// Gauge value by name, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_records_nothing() {
        let p = off();
        assert!(!p.is_enabled());
        {
            let _s = p.span("per-step/x");
        }
        p.call("c");
        p.message("c", 100);
        p.gauge_max("g", 5);
        assert_eq!(p.snapshot(), Snapshot::default());
    }

    #[test]
    fn enabled_probe_accumulates() {
        let p = enabled();
        p.record_span("per-step/a", 1.0);
        p.record_span("per-step/a", 3.0);
        p.call("minimpi/bcast");
        p.message("minimpi/bcast", 64);
        p.message("minimpi/bcast", 36);
        p.gauge_max("mem/x", 10);
        p.gauge_max("mem/x", 4);
        let s = p.snapshot();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].count, 2);
        assert_eq!(s.spans[0].total, 4.0);
        assert_eq!(s.spans[0].min, 1.0);
        assert_eq!(s.spans[0].max, 3.0);
        assert_eq!(s.spans[0].mean, 2.0);
        assert_eq!(s.spans[0].stddev, 1.0);
        assert_eq!(
            s.counters,
            vec![CounterStat {
                name: "minimpi/bcast".into(),
                calls: 1,
                messages: 2,
                bytes: 100,
            }]
        );
        assert_eq!(s.gauge("mem/x"), Some(10));
        assert_eq!(s.gauge("mem/missing"), None);
    }

    #[test]
    fn bulk_updates_one_counter_in_one_shot() {
        let p = enabled();
        p.bulk("sim/terms", 1, 1000, 8000);
        p.bulk("sim/terms", 1, 500, 4000);
        let s = p.snapshot();
        assert_eq!(
            s.counters,
            vec![CounterStat {
                name: "sim/terms".into(),
                calls: 2,
                messages: 1500,
                bytes: 12000,
            }]
        );
        // Disabled probe: still a no-op.
        off().bulk("x", 1, 1, 1);
    }

    #[test]
    fn clones_share_state() {
        let p = enabled();
        let q = p.clone();
        q.call("c");
        assert_eq!(p.snapshot().counters[0].calls, 1);
    }

    #[test]
    fn span_guard_measures_elapsed() {
        let p = enabled();
        {
            let _s = p.span("per-step/sleep");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let s = p.snapshot();
        assert_eq!(s.spans[0].label, "per-step/sleep");
        assert!(s.spans[0].total >= 0.004);
    }
}
