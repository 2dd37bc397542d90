//! The time-dependent autocorrelation analysis of §3.3.
//!
//! For a signal `f(x)` and integer delay `t`, computes
//! `Σₛ f(x, s) · f(x, s − t')` for every retained delay `t' ∈ 1..=t`,
//! keeping per-cell circular buffers of the last `t` values and running
//! correlations — two buffers of size `O(t·N³)`, exactly the memory
//! profile the paper studies. At finalize, a global reduction finds the
//! top-k correlations per delay; for periodic oscillators those peaks
//! sit at the oscillator centers.
//!
//! Per-step updates *stream* on the rank thread: each leaf's values are
//! read in place through zero-copy borrowed slices (no temporary vector)
//! and its non-ghost cells, ghost flags or not, run one update loop.

use minimpi::Comm;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::adaptor::{Association, DataAdaptor};
use crate::analysis::{
    leaf_views, populated_mesh, AnalysisAdaptor, LeafView, ReportOnce, Steering,
};

/// Gauge name for the autocorrelation history/correlation buffers
/// (the `O(t·N³)` storage the paper's Fig. 4 studies).
pub const GAUGE_BUFFER_BYTES: &str = "mem/autocorrelation_buffer_bytes";

/// One candidate: correlation value and global cell id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Peak {
    /// Accumulated correlation.
    pub value: f64,
    /// Global cell identifier.
    pub cell: u64,
}

/// Final result on rank 0: `peaks[lag - 1]` holds the global top-k for
/// that delay, strongest first.
pub type AutocorrelationResult = Vec<Vec<Peak>>;

/// Shared handle to the finalize result.
pub type ResultsHandle = Arc<Mutex<Option<AutocorrelationResult>>>;

/// Autocorrelation analysis adaptor.
pub struct Autocorrelation {
    array: String,
    window: usize,
    k: usize,
    /// Circular value history, `cells × window`, lazily sized.
    history: Vec<f64>,
    /// Running correlations, `cells × window`.
    corr: Vec<f64>,
    cells: usize,
    steps_seen: u64,
    /// Global id per local cell, captured on first execute.
    ids: Vec<u64>,
    results: ResultsHandle,
    failures: ReportOnce,
}

impl Autocorrelation {
    /// Track the named point array over a `window`-step delay range,
    /// reporting the global top-`k` peaks per delay at finalize.
    pub fn new(array: impl Into<String>, window: usize, k: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(k > 0, "k must be positive");
        Autocorrelation {
            array: array.into(),
            window,
            k,
            history: Vec::new(),
            corr: Vec::new(),
            cells: 0,
            steps_seen: 0,
            ids: Vec::new(),
            results: Arc::new(Mutex::new(None)),
            failures: ReportOnce::default(),
        }
    }

    /// A handle through which rank 0 reads the finalize result.
    pub fn results_handle(&self) -> ResultsHandle {
        Arc::clone(&self.results)
    }

    /// Heap bytes held by the two circular buffers (the paper's memory
    /// subject for Fig. 4).
    pub fn buffer_bytes(&self) -> usize {
        (self.history.capacity() + self.corr.capacity()) * 8
    }

    /// First-step setup: count the non-ghost cells, capture their global
    /// ids — the global structured linear index on structured leaves (so
    /// peaks name true grid cells), the local index otherwise — and size
    /// the two circular buffers.
    fn capture_layout(&mut self, views: &[LeafView]) {
        let mut ids = Vec::new();
        for view in views {
            ids.extend(view.kept().map(|(t, _)| match &view.geometry {
                Some(g) => g.global_extent.linear_index(g.extent.point_at(t)) as u64,
                None => t as u64,
            }));
        }
        self.cells = ids.len();
        self.ids = ids;
        self.history = vec![0.0; self.cells * self.window];
        self.corr = vec![0.0; self.cells * self.window];
    }

    /// Update one cell's circular history and running correlations.
    fn update_cell(&mut self, cell: usize, v: f64, s: u64) {
        let w = self.window as u64;
        let base = cell * self.window;
        let max_lag = s.min(w);
        for lag in 1..=max_lag {
            let past = self.history[base + ((s - lag) % w) as usize];
            self.corr[base + (lag - 1) as usize] += v * past;
        }
        self.history[base + (s % w) as usize] = v;
    }
}

impl AnalysisAdaptor for Autocorrelation {
    fn name(&self) -> &str {
        "autocorrelation"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        // The per-step update is already communicator-free (the final
        // reduction lives in `finalize`), so the synchronous path is
        // the offload split run back-to-back.
        self.execute_local(data, &comm.probe());
        self.complete(comm)
    }

    fn supports_offload(&self) -> bool {
        true
    }

    fn execute_local(&mut self, data: &dyn DataAdaptor, probe: &probe::Probe) {
        let _update = probe.span("per-step/autocorrelation/update");
        // An unreadable field (missing array, wrong memory space) skips
        // the step; the typed cause is reported once.
        let mesh = match populated_mesh(data, Association::Point, &self.array) {
            Ok(mesh) => mesh,
            Err(err) => return self.failures.report(err),
        };
        let views = match leaf_views(&mesh, Association::Point, &self.array) {
            Ok(views) => views,
            Err(err) => return self.failures.report(err),
        };
        let incoming: usize = views
            .iter()
            .map(|view| match &view.ghosts {
                None => view.values.len(),
                Some(_) => view.kept().count(),
            })
            .sum();
        if incoming == 0 {
            return;
        }
        if self.cells == 0 {
            self.capture_layout(&views);
        }
        assert_eq!(
            incoming, self.cells,
            "autocorrelation: cell count changed mid-run"
        );

        // The value→cell mapping is the running count of kept tuples
        // across leaves, in element order.
        let s = self.steps_seen;
        let mut offset = 0usize;
        for view in &views {
            for (_, v) in view.kept() {
                self.update_cell(offset, v, s);
                offset += 1;
            }
        }
        debug_assert_eq!(offset, self.cells);
        self.steps_seen += 1;
        probe.gauge_max(GAUGE_BUFFER_BYTES, self.buffer_bytes() as u64);
    }

    fn finalize(&mut self, comm: &Comm) {
        let probe = comm.probe();
        let _reduce = probe.span("finalize/autocorrelation/reduce");
        // Local top-k per lag (§3.3's final global reduction)…
        let mut local: Vec<Vec<Peak>> = Vec::with_capacity(self.window);
        for lag in 0..self.window {
            let mut peaks: Vec<Peak> = (0..self.cells)
                .map(|i| Peak {
                    value: self.corr[i * self.window + lag],
                    cell: self.ids.get(i).copied().unwrap_or(i as u64),
                })
                .collect();
            peaks.sort_by(|a, b| b.value.total_cmp(&a.value));
            peaks.truncate(self.k);
            local.push(peaks);
        }
        // …merged up a binomial tree, re-truncating to k at every level:
        // O(k·window·log p) data movement instead of gathering every
        // rank's candidates to root.
        let k = self.k;
        let merged = comm.reduce(0, local, move |mut a, b| {
            for (lag, peaks) in b.into_iter().enumerate() {
                a[lag].extend(peaks);
                a[lag].sort_by(|x, y| y.value.total_cmp(&x.value));
                a[lag].truncate(k);
            }
            a
        });
        if let Some(global) = merged {
            *self.results.lock() = Some(global);
        }
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

    fn adaptor(values: Vec<f64>, step: u64) -> InMemoryAdaptor {
        let n = values.len();
        let e = Extent::whole([n, 1, 1]);
        let mut g = ImageData::new(e, e);
        g.add_point_array(DataArray::owned("data", 1, values));
        InMemoryAdaptor::new(DataSet::Image(g), step as f64, step)
    }

    #[test]
    fn constant_signal_accumulates_linear_correlation() {
        World::run(1, |comm| {
            let mut ac = Autocorrelation::new("data", 2, 1);
            let res = ac.results_handle();
            for s in 0..5 {
                ac.execute(&adaptor(vec![2.0, 0.0], s), comm);
            }
            ac.finalize(comm);
            let r = res.lock().clone().unwrap();
            // Lag 1: steps 1..4 contribute 2*2 = 4 each → 16.
            assert_eq!(r[0][0].value, 16.0);
            assert_eq!(r[0][0].cell, 0, "constant cell is the peak");
            // Lag 2: steps 2..4 → 12.
            assert_eq!(r[1][0].value, 12.0);
        });
    }

    #[test]
    fn periodic_signal_peaks_at_its_period() {
        World::run(1, |comm| {
            // Period-4 signal: correlation at lag 4 ≫ lag 2 (anti-phase).
            let mut ac = Autocorrelation::new("data", 4, 1);
            let res = ac.results_handle();
            for s in 0..64u64 {
                let v = (std::f64::consts::TAU * s as f64 / 4.0).cos();
                ac.execute(&adaptor(vec![v], s), comm);
            }
            ac.finalize(comm);
            let r = res.lock().clone().unwrap();
            let lag2 = r[1][0].value;
            let lag4 = r[3][0].value;
            assert!(lag4 > 10.0, "lag-4 correlation strong: {lag4}");
            assert!(lag2 < -10.0, "lag-2 anti-correlated: {lag2}");
        });
    }

    #[test]
    fn identifies_oscillating_cell_across_ranks() {
        World::run(4, |comm| {
            // Only rank 2's cell oscillates; others are silent.
            let mut ac = Autocorrelation::new("data", 3, 2);
            let res = ac.results_handle();
            for s in 0..30u64 {
                let v = if comm.rank() == 2 {
                    (s as f64 * 0.7).sin() * 3.0
                } else {
                    0.0
                };
                // 4-cell global grid; each rank holds one cell.
                let e = Extent::whole([5, 2, 2]);
                let local = datamodel::partition_extent(&e, [4, 1, 1], comm.rank());
                let mut g = ImageData::new(local, e);
                let vals = vec![v; g.num_points()];
                g.add_point_array(DataArray::owned("data", 1, vals));
                let a = InMemoryAdaptor::new(DataSet::Image(g), s as f64, s);
                ac.execute(&a, comm);
            }
            ac.finalize(comm);
            if comm.rank() == 0 {
                let r = res.lock().clone().unwrap();
                // Top lag-1 peaks must be rank 2's cells. Rank 2 owns
                // global x ∈ [2..=3] (shared planes) of the 5×2×2 grid.
                let e = Extent::whole([5, 2, 2]);
                let rank2 = datamodel::partition_extent(&e, [4, 1, 1], 2);
                for p in &r[0] {
                    let pt = e.point_at(p.cell as usize);
                    assert!(rank2.contains(pt), "peak {pt:?} inside rank 2's block");
                }
            }
        });
    }

    /// Points per leaf of the two-leaf signal below.
    const LEAVES: [usize; 2] = [23, 14];

    fn signal(leaf: usize, i: usize, s: u64) -> f64 {
        ((i as f64 * 0.31 + leaf as f64 + s as f64) * 1.7).sin()
    }

    /// Step `s` of the two-leaf signal; `flag` fills each leaf's ghost
    /// array, `None` attaches none.
    fn leaves(s: u64, flag: Option<fn(usize) -> u8>) -> InMemoryAdaptor {
        let mut blocks = datamodel::MultiBlock::new();
        for (leaf, n) in LEAVES.into_iter().enumerate() {
            let e = Extent::whole([n, 1, 1]);
            let mut g = ImageData::new(e, e);
            let vals: Vec<f64> = (0..n).map(|i| signal(leaf, i, s)).collect();
            g.add_point_array(DataArray::owned("data", 1, vals));
            if let Some(flag) = flag {
                let flags: Vec<u8> = (0..n).map(flag).collect();
                g.add_point_array(DataArray::owned(datamodel::GHOST_ARRAY_NAME, 1, flags));
            }
            blocks.push(DataSet::Image(g));
        }
        InMemoryAdaptor::new(DataSet::Multi(blocks), s as f64, s)
    }

    #[test]
    fn ghost_free_and_zero_flag_leaves_agree_bitwise() {
        World::run(1, |comm| {
            let (window, steps) = (4usize, 20u64);
            let mut plain = Autocorrelation::new("data", window, 3);
            let mut zeroed = Autocorrelation::new("data", window, 3);
            let mut flagged = Autocorrelation::new("data", window, 3);
            for s in 0..steps {
                plain.execute(&leaves(s, None), comm);
                zeroed.execute(&leaves(s, Some(|_| 0)), comm);
                flagged.execute(&leaves(s, Some(|i| u8::from(i % 3 == 0))), comm);
            }
            assert_eq!(plain.cells, LEAVES.iter().sum::<usize>());
            assert_eq!(plain.corr, zeroed.corr);
            assert_eq!(plain.history, zeroed.history);

            // Hand-rolled per-cell reference that skips every third tuple.
            let kept: Vec<(usize, usize)> = LEAVES
                .into_iter()
                .enumerate()
                .flat_map(|(leaf, n)| (0..n).filter(|i| i % 3 != 0).map(move |i| (leaf, i)))
                .collect();
            let mut corr = vec![0.0f64; kept.len() * window];
            let mut history = vec![0.0f64; kept.len() * window];
            for s in 0..steps {
                for (c, &(leaf, i)) in kept.iter().enumerate() {
                    for lag in 1..=s.min(window as u64) {
                        corr[c * window + lag as usize - 1] +=
                            signal(leaf, i, s) * signal(leaf, i, s - lag);
                    }
                    history[c * window + s as usize % window] = signal(leaf, i, s);
                }
            }
            assert_eq!(flagged.corr, corr);
            assert_eq!(flagged.history, history);

            let [plain, zeroed, flagged] = [plain, zeroed, flagged].map(|mut ac| {
                ac.finalize(comm);
                let peaks = ac.results_handle().lock().clone();
                peaks.expect("one rank is the root")
            });
            assert_eq!(plain, zeroed);
            for (lag, peaks) in flagged.iter().enumerate() {
                // A peak names its tuple's index in its own leaf's extent.
                let mut expect: Vec<Peak> = kept
                    .iter()
                    .enumerate()
                    .map(|(c, &(_, i))| Peak {
                        value: corr[c * window + lag],
                        cell: i as u64,
                    })
                    .collect();
                expect.sort_by(|a, b| b.value.total_cmp(&a.value));
                expect.truncate(3);
                assert_eq!(peaks, &expect, "lag {}", lag + 1);
            }
        });
    }

    #[test]
    fn buffers_are_two_window_sized_arrays() {
        World::run(1, |comm| {
            let mut ac = Autocorrelation::new("data", 10, 1);
            ac.execute(&adaptor(vec![1.0; 100], 0), comm);
            // Two buffers × 100 cells × 10 lags × 8 bytes.
            assert_eq!(ac.buffer_bytes(), 2 * 100 * 10 * 8);
        });
    }

    #[test]
    fn short_runs_have_partial_lags() {
        World::run(1, |comm| {
            let mut ac = Autocorrelation::new("data", 5, 1);
            let res = ac.results_handle();
            ac.execute(&adaptor(vec![3.0], 0), comm);
            ac.execute(&adaptor(vec![3.0], 1), comm);
            ac.finalize(comm);
            let r = res.lock().clone().unwrap();
            assert_eq!(r[0][0].value, 9.0, "one lag-1 product");
            assert_eq!(r[1][0].value, 0.0, "lag 2 never reachable");
            assert_eq!(r.len(), 5);
        });
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = Autocorrelation::new("data", 0, 1);
    }
}
