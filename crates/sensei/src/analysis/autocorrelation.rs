//! The time-dependent autocorrelation analysis of §3.3.
//!
//! For a signal `f(x)` and integer delay `t`, computes
//! `Σₛ f(x, s) · f(x, s − t')` for every retained delay `t' ∈ 1..=t`,
//! keeping the last `t` values of every cell and the running
//! correlations — two buffers of size `O(t·N³)`, exactly the memory
//! profile the paper studies. At finalize, a global reduction finds the
//! top-k correlations per delay; for periodic oscillators those peaks
//! sit at the oscillator centers.
//!
//! Both buffers are lag-major: `history` is `window` rows, one per
//! circular slot, and `corr` is `window` rows, one per delay, each one
//! value per non-ghost cell. A step reads each leaf's values in place
//! through zero-copy borrowed slices and is, per maximal run of
//! non-ghost tuples, one unit-stride `corr[lag] += values ·
//! history[past(lag)]` per delay and one copy into the current slot's
//! row. The run table is also the mesh's identity: a step whose table
//! differs from the first populated step's is refused, not folded
//! into the wrong cells. Finalize keeps the best `k` of each `corr`
//! row in a `k`-entry buffer under one order (value descending, then
//! cell id ascending), the order the cross-rank merge uses too, and
//! evaluates global cell ids for the winners only.

use minimpi::Comm;
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::adaptor::{Association, DataAdaptor};
use crate::analysis::{
    leaf_views, populated_mesh, AnalysisAdaptor, LeafView, ReportOnce, Steering,
};
use datamodel::Extent;

/// Gauge name for the autocorrelation history/correlation buffers
/// (the `O(t·N³)` storage the paper's Fig. 4 studies).
pub const GAUGE_BUFFER_BYTES: &str = "mem/autocorrelation_buffer_bytes";

/// Cells a step updates for all delays before moving on: the block's
/// values and its slot row stay in cache across the `window` lag rows.
const BLOCK: usize = 4096;

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

/// `count` maximal runs of `len` non-ghost tuples of leaf `leaf`, run
/// `i` starting at tuple `start + i · stride`. A ghost plane across the
/// fastest axis cuts a block into one run per grid row; strided, that
/// is one entry instead of thousands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Runs {
    leaf: usize,
    start: usize,
    len: usize,
    stride: usize,
    count: usize,
}

/// The run table of a step's leaves, in element order. Equal tables
/// mean the same tuples of the same leaves are non-ghost: the greedy
/// folding below is a function of the run sequence and loses none of it.
fn run_table(views: &[LeafView]) -> Vec<Runs> {
    let mut table: Vec<Runs> = Vec::new();
    for (leaf, view) in views.iter().enumerate() {
        for (start, len) in view.kept_runs() {
            if let Some(last) = table.last_mut() {
                if last.leaf == leaf && last.len == len {
                    if last.count == 1 {
                        last.stride = start - last.start;
                    }
                    if start == last.start + last.count * last.stride {
                        last.count += 1;
                        continue;
                    }
                }
            }
            table.push(Runs {
                leaf,
                start,
                len,
                stride: 0,
                count: 1,
            });
        }
    }
    table
}

/// `(cells, runs)` a table covers.
fn table_size(table: &[Runs]) -> (usize, usize) {
    table.iter().fold((0, 0), |(cells, runs), r| {
        (cells + r.len * r.count, runs + r.count)
    })
}

/// The one order peaks are ranked in, on a rank and across ranks:
/// value descending by `total_cmp`, then cell id ascending. A total
/// order, so the top `k` do not depend on how candidates were grouped
/// into leaves, ranks or reduction-tree levels.
fn peak_order(a: &Peak, b: &Peak) -> Ordering {
    b.value.total_cmp(&a.value).then(a.cell.cmp(&b.cell))
}

/// Keep the best `k` of `best ∪ more`.
fn merge_peaks(best: &mut Vec<Peak>, more: impl IntoIterator<Item = Peak>, k: usize) {
    best.extend(more);
    best.sort_by(peak_order);
    best.truncate(k);
}

/// Autocorrelation analysis adaptor.
pub struct Autocorrelation {
    array: String,
    window: usize,
    k: usize,
    /// Circular value history: `window` slot rows of `cells` values,
    /// lazily sized.
    history: Vec<f64>,
    /// Running correlations: `window` lag rows of `cells` values.
    corr: Vec<f64>,
    cells: usize,
    steps_seen: u64,
    /// The first populated step's run table: row offset → leaf tuple.
    runs: Vec<Runs>,
    /// `(extent, global extent)` of each structured leaf of that step,
    /// from which finalize names a winning tuple's global cell.
    extents: Vec<Option<(Extent, Extent)>>,
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
            runs: Vec::new(),
            extents: Vec::new(),
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

    /// First-step setup: adopt the step's run table as the layout, keep
    /// each structured leaf's extents for the global ids, and size the
    /// two buffers to the non-ghost cells.
    fn capture_layout(&mut self, table: Vec<Runs>, views: &[LeafView]) {
        self.cells = table_size(&table).0;
        self.runs = table;
        self.extents = views
            .iter()
            .map(|view| view.geometry.as_ref().map(|g| (g.extent, g.global_extent)))
            .collect();
        self.history = vec![0.0; self.cells * self.window];
        self.corr = vec![0.0; self.cells * self.window];
    }

    /// One step of every cell: `corr[lag] += values · history[past(lag)]`
    /// for each delay the run has reached, then the values into the
    /// current slot's row — per `(cell, lag)` the same additions in the
    /// same step order as a per-cell loop makes.
    fn update(&mut self, views: &[LeafView]) {
        let (cells, w, s) = (self.cells, self.window as u64, self.steps_seen);
        let slot = (s % w) as usize;
        // Slot row holding the value `lag` steps back, `lag = 1..`.
        let pasts: Vec<usize> = (1..=s.min(w)).map(|lag| ((s - lag) % w) as usize).collect();
        let mut at = 0;
        for runs in &self.runs {
            let values = &views[runs.leaf].values;
            for i in 0..runs.count {
                let run = &values[runs.start + i * runs.stride..][..runs.len];
                for block in run.chunks(BLOCK) {
                    for (lag, &past) in pasts.iter().enumerate() {
                        let corr = &mut self.corr[lag * cells + at..][..block.len()];
                        let history = &self.history[past * cells + at..][..block.len()];
                        for ((c, v), h) in corr.iter_mut().zip(block).zip(history) {
                            *c += v * h;
                        }
                    }
                    self.history[slot * cells + at..][..block.len()].copy_from_slice(block);
                    at += block.len();
                }
            }
        }
        debug_assert_eq!(at, cells);
    }

    /// Global id of a leaf's tuple: the global structured linear index
    /// on structured leaves (so peaks name true grid cells), the tuple
    /// index otherwise. Increasing in `tuple` within a leaf either way.
    fn cell_id(&self, leaf: usize, tuple: usize) -> u64 {
        match &self.extents[leaf] {
            Some((extent, global)) => global.linear_index(extent.point_at(tuple)) as u64,
            None => tuple as u64,
        }
    }

    /// This rank's best `k` of delay `lag + 1`: one pass over the
    /// `corr` row, no copy of it.
    fn local_peaks(&self, lag: usize) -> Vec<Peak> {
        let k = self.k;
        let row = &self.corr[lag * self.cells..][..self.cells];
        let mut best: Vec<Peak> = Vec::new();
        // Best `(value, tuple)` of one table entry, strongest first.
        // Ids grow with the tuple inside a leaf, so there an equal
        // value later on never displaces one already held.
        let mut top: Vec<(f64, usize)> = Vec::new();
        let mut at = 0;
        for runs in &self.runs {
            top.clear();
            for i in 0..runs.count {
                let start = runs.start + i * runs.stride;
                for (j, &value) in row[at..][..runs.len].iter().enumerate() {
                    if top.len() == k {
                        if value.total_cmp(&top[k - 1].0) != Ordering::Greater {
                            continue;
                        }
                        top.pop();
                    }
                    let rank = top.partition_point(|held| held.0.total_cmp(&value).is_ge());
                    top.insert(rank, (value, start + j));
                }
                at += runs.len;
            }
            let ids = top.iter().map(|&(value, tuple)| Peak {
                value,
                cell: self.cell_id(runs.leaf, tuple),
            });
            merge_peaks(&mut best, ids, k);
        }
        best
    }
}

impl AnalysisAdaptor for Autocorrelation {
    fn name(&self) -> &str {
        "autocorrelation"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, comm: &Comm) -> Steering {
        let probe = comm.probe();
        let _update = probe.span("per-step/autocorrelation/update");
        // An unreadable field (missing array, wrong memory space) skips
        // the step; the typed cause is reported once.
        let mesh = match populated_mesh(data, Association::Point, &self.array) {
            Ok(mesh) => mesh,
            Err(err) => {
                self.failures.report(err);
                return Steering::Continue;
            }
        };
        let views = match leaf_views(&mesh, Association::Point, &self.array) {
            Ok(views) => views,
            Err(err) => {
                self.failures.report(err);
                return Steering::Continue;
            }
        };
        let table = run_table(&views);
        if table.is_empty() {
            return Steering::Continue;
        }
        if self.cells == 0 {
            self.capture_layout(table, &views);
        } else if table != self.runs {
            // Also skipped, with nothing touched: the rows are indexed
            // by the captured table. No collective runs per step, so a
            // rank that skips cannot hang the others.
            let (cells, runs) = table_size(&table);
            self.failures.report(format_args!(
                "autocorrelation: mesh layout changed mid-run (captured {} cells in {} runs, \
                 step {} has {cells} cells in {runs} runs)",
                self.cells,
                table_size(&self.runs).1,
                data.step(),
            ));
            return Steering::Continue;
        }
        self.update(&views);
        self.steps_seen += 1;
        probe.gauge_max(GAUGE_BUFFER_BYTES, self.buffer_bytes() as u64);
        Steering::Continue
    }

    fn finalize(&mut self, comm: &Comm) {
        let probe = comm.probe();
        let _reduce = probe.span("finalize/autocorrelation/reduce");
        // Local top-k per lag (§3.3's final global reduction)…
        let local: Vec<Vec<Peak>> = (0..self.window).map(|lag| self.local_peaks(lag)).collect();
        // …merged up a binomial tree, re-truncating to k at every level:
        // O(k·window·log p) data movement instead of gathering every
        // rank's candidates to root.
        let k = self.k;
        let merged = comm.reduce(0, local, move |mut a, b| {
            for (best, more) in a.iter_mut().zip(b) {
                merge_peaks(best, more, k);
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
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;
    use crate::adaptor::InMemoryAdaptor;
    use crate::Bridge;
    use datamodel::{
        dims_create, duplicate_point_ghosts, partition_extent, DataArray, DataSet, ImageData,
        MultiBlock, GHOST_ARRAY_NAME,
    };
    use minimpi::{SchedPolicy, World, WorldBuilder};

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
        let mut blocks = MultiBlock::new();
        for (leaf, n) in LEAVES.into_iter().enumerate() {
            let e = Extent::whole([n, 1, 1]);
            let mut g = ImageData::new(e, e);
            let vals: Vec<f64> = (0..n).map(|i| signal(leaf, i, s)).collect();
            g.add_point_array(DataArray::owned("data", 1, vals));
            if let Some(flag) = flag {
                let flags: Vec<u8> = (0..n).map(flag).collect();
                g.add_point_array(DataArray::owned(GHOST_ARRAY_NAME, 1, flags));
            }
            blocks.push(DataSet::Image(g));
        }
        InMemoryAdaptor::new(DataSet::Multi(blocks), s as f64, s)
    }

    /// A lag-major `window × cells` buffer as the cell-major
    /// `cells × window` one the per-cell kernels keep.
    fn cell_major(rows: &[f64], cells: usize) -> Vec<f64> {
        let window = rows.len().checked_div(cells).unwrap_or(0);
        (0..cells * window)
            .map(|i| rows[(i % window) * cells + i / window])
            .collect()
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
            assert_eq!(cell_major(&flagged.corr, kept.len()), corr);
            assert_eq!(cell_major(&flagged.history, kept.len()), history);

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

    /// Step `s` of a 7×5×3 block with ghost flags from `ghost(i, j, k)`.
    fn flagged_block(s: u64, ghost: impl Fn(usize, usize, usize) -> bool) -> DataSet {
        let e = Extent::whole([7, 5, 3]);
        let mut g = ImageData::new(e, e);
        let values: Vec<f64> = (0..105).map(|t| signal(0, t, s)).collect();
        g.add_point_array(DataArray::owned("data", 1, values));
        let flags: Vec<u8> = (0..105)
            .map(|t| u8::from(ghost(t % 7, t / 7 % 5, t / 35)))
            .collect();
        g.add_point_array(DataArray::owned(GHOST_ARRAY_NAME, 1, flags));
        DataSet::Image(g)
    }

    #[test]
    fn run_table_folds_a_ghost_plane_into_strided_entries() {
        let table =
            |mesh: &DataSet| run_table(&leaf_views(mesh, Association::Point, "data").unwrap());
        let entry = |start, len, stride, count| Runs {
            leaf: 0,
            start,
            len,
            stride,
            count,
        };
        // No ghost, or a plane across the slowest axis: one run.
        assert_eq!(
            table(&flagged_block(0, |_, _, _| false)),
            [entry(0, 105, 0, 1)]
        );
        assert_eq!(
            table(&flagged_block(0, |_, _, k| k == 0)),
            [entry(35, 70, 0, 1)]
        );
        // Across the fastest axis: one run per grid row, one entry.
        let x_plane = table(&flagged_block(0, |i, _, _| i == 0));
        assert_eq!(x_plane, [entry(1, 6, 7, 15)]);
        assert_eq!(table_size(&x_plane), (90, 15));
        // x and y planes together: one entry per z slab.
        assert_eq!(
            table(&flagged_block(0, |i, j, _| i == 0 || j == 0)),
            [entry(8, 6, 7, 4), entry(43, 6, 7, 4), entry(78, 6, 7, 4)]
        );
        // Equal lengths at unequal distances do not fold.
        assert_eq!(
            table(&flagged_block(0, |i, j, k| (j, k) != (0, 0) || [1, 3, 6].contains(&i))),
            [entry(0, 1, 2, 2), entry(4, 2, 0, 1)]
        );
        // Nothing kept: no entry, and the step is a no-op.
        assert!(table(&flagged_block(0, |_, _, _| true)).is_empty());
    }

    /// Steps `0..steps` of a one-leaf signal through a bridge, with
    /// `bad` (if any) slipped in before step 3; returns the peaks and
    /// the bridge's failure log.
    fn run_with_intruder(bad: Option<DataSet>) -> (AutocorrelationResult, Vec<String>) {
        let out = World::run(1, move |comm| {
            let ac = Autocorrelation::new("data", 3, 4);
            let res = ac.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(ac));
            for s in 0..8u64 {
                if let (3, Some(bad)) = (s, &bad) {
                    for _ in 0..2 {
                        let intruder = InMemoryAdaptor::new(bad.clone(), 2.5, 99);
                        assert!(bridge.execute(&intruder, comm).should_continue());
                    }
                }
                let mesh = flagged_block(s, |i, _, _| i == 0);
                bridge.execute(&InMemoryAdaptor::new(mesh, s as f64, s), comm);
            }
            bridge.finalize(comm);
            let log = bridge.failure_reports().iter().map(|f| f.to_string());
            let peaks = res.lock().clone().expect("one rank is the root");
            (peaks, log.collect::<Vec<_>>())
        });
        out.into_iter().next().expect("one rank")
    }

    #[test]
    fn a_changed_layout_is_one_reported_failure_and_the_step_is_skipped() {
        let (clean, log) = run_with_intruder(None);
        assert!(log.is_empty(), "{log:?}");
        // Fewer cells; and the same 90 cells with the ghost plane moved
        // from x = 0 to x = 6, which a count comparison lets through.
        let shrunk = flagged_block(99, |i, j, _| i == 0 || j == 0);
        let moved = flagged_block(99, |i, _, _| i == 6);
        for (bad, seen) in [
            (shrunk, "72 cells in 12 runs"),
            (moved, "90 cells in 15 runs"),
        ] {
            let (peaks, log) = run_with_intruder(Some(bad));
            assert_eq!(peaks, clean, "the refused steps left no trace");
            assert_eq!(log.len(), 1, "reported once for two bad steps: {log:?}");
            let expect = format!(
                "autocorrelation: mesh layout changed mid-run \
                 (captured 90 cells in 15 runs, step 99 has {seen})"
            );
            assert!(log[0].contains(&expect), "{}", log[0]);
        }
    }

    /// The value of global point `p` at step `s`: three classes of
    /// points, bit-equal within a class, so that every rank boundary
    /// has equal values on both sides and every top-k is all ties.
    fn tied(p: [i64; 3], s: u64) -> f64 {
        let class = (p[0] + 2 * p[1] + p[2]) % 3;
        (1.0 + class as f64) * (0.9 * s as f64 + class as f64).cos()
    }

    /// The peaks of the tied field on `ranks` ranks under `sched`.
    fn tied_peaks(ranks: usize, sched: SchedPolicy) -> AutocorrelationResult {
        let out = WorldBuilder::new(ranks).sched(sched).run(|comm| {
            let global = Extent::whole([9, 8, 5]);
            let local = partition_extent(&global, dims_create(comm.size()), comm.rank());
            let mut ac = Autocorrelation::new("data", 3, 6);
            let res = ac.results_handle();
            for s in 0..7u64 {
                let mut g = ImageData::new(local, global);
                let values: Vec<f64> = local.iter_points().map(|p| tied(p, s)).collect();
                g.add_point_array(DataArray::owned("data", 1, values));
                let flags = duplicate_point_ghosts(&local, &global);
                g.add_point_array(DataArray::owned(GHOST_ARRAY_NAME, 1, flags));
                ac.execute(&InMemoryAdaptor::new(DataSet::Image(g), s as f64, s), comm);
            }
            ac.finalize(comm);
            let peaks = res.lock().clone();
            peaks
        });
        out.into_iter().flatten().next().expect("root's peaks")
    }

    #[test]
    fn tied_peaks_do_not_depend_on_the_decomposition() {
        let one = tied_peaks(1, SchedPolicy::Seeded(1));
        for (lag, peaks) in one.iter().enumerate() {
            assert_eq!(peaks.len(), 6);
            assert!(
                peaks
                    .windows(2)
                    .all(|w| w[0].value.to_bits() == w[1].value.to_bits() && w[0].cell < w[1].cell),
                "lag {}: one class, ascending global ids: {peaks:?}",
                lag + 1
            );
        }
        for (ranks, seed) in [(2, 1), (4, 1), (4, 2016)] {
            assert_eq!(
                tied_peaks(ranks, SchedPolicy::Seeded(seed)),
                one,
                "{ranks} ranks, seed {seed}"
            );
        }
    }

    /// A deterministic value stream with the IEEE specials sprinkled
    /// in; `palette > 0` draws from that many distinct values instead,
    /// so that products tie heavily.
    fn deck_value(seed: u32, palette: usize, i: usize, s: u64) -> f64 {
        let x = (seed as u64 ^ (s << 40))
            .wrapping_mul(6364136223846793005)
            .wrapping_add((i as u64 + 1).wrapping_mul(2862933555777941757));
        let x = x ^ (x >> 29);
        if palette > 0 {
            return (x % palette as u64) as f64 - 1.0;
        }
        match x % 19 {
            // The hardware's own default NaN: with two NaN *payloads*
            // in play, which one `NaN + NaN` keeps is the compiler's
            // operand order, in the oracle as much as in the kernel.
            0 => std::hint::black_box(f64::INFINITY) * std::hint::black_box(0.0),
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => ((x >> 16) as f64) / 1e13 - 900.0,
        }
    }

    /// Step `s` of a deck of `rows.len()` leaves: leaf `l` is `rows[l]`
    /// grid rows of `nx` points, stacked along y in one global extent
    /// (so global ids grow with the kept-cell index, which makes the
    /// oracle's stable sort the product's order). Ghost patterns:
    /// 0 no flags, 1 all-zero flags, 2 every third tuple, 3 the leading
    /// x plane, 4 leaf 0 all ghost, 5 the last tuple only, 6 the
    /// leading y row.
    fn deck(
        nx: usize,
        rows: &[usize],
        pattern: usize,
        seed: u32,
        palette: usize,
        s: u64,
    ) -> DataSet {
        let total: usize = rows.iter().sum();
        let global = Extent::new([0, 0, 0], [nx as i64 - 1, total as i64 - 1, 0]);
        let mut blocks = MultiBlock::new();
        let mut y0 = 0;
        for (leaf, &ny) in rows.iter().enumerate() {
            let extent = Extent::new([0, y0 as i64, 0], [nx as i64 - 1, (y0 + ny) as i64 - 1, 0]);
            let n = nx * ny;
            let mut g = ImageData::new(extent, global);
            let first = y0 * nx;
            let values: Vec<f64> = (0..n)
                .map(|t| deck_value(seed, palette, first + t, s))
                .collect();
            g.add_point_array(DataArray::owned("data", 1, values));
            if pattern > 0 {
                let flags = (0..n).map(|t| match pattern {
                    2 => t % 3 == 0,
                    3 => t % nx == 0 && nx > 1,
                    4 => leaf == 0 && rows.len() > 1,
                    5 => t == n - 1 && n > 1,
                    6 => t < nx && ny > 1,
                    _ => false,
                });
                let flags: Vec<u8> = flags.map(u8::from).collect();
                g.add_point_array(DataArray::owned(GHOST_ARRAY_NAME, 1, flags));
            }
            blocks.push(DataSet::Image(g));
            y0 += ny;
        }
        DataSet::Multi(blocks)
    }

    /// An `Autocorrelation::new("data", window, k)` after one step per
    /// mesh on a one-rank world.
    fn run_steps(window: usize, k: usize, meshes: Vec<DataSet>) -> Autocorrelation {
        let mut ranks = World::run(1, move |comm| {
            let mut ac = Autocorrelation::new("data", window, k);
            for (s, mesh) in meshes.iter().enumerate() {
                let s = s as u64;
                ac.execute(&InMemoryAdaptor::new(mesh.clone(), s as f64, s), comm);
            }
            ac
        });
        ranks.pop().expect("one rank")
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn peak_bits(peaks: &[Peak]) -> Vec<(u64, u64)> {
        peaks.iter().map(|p| (p.value.to_bits(), p.cell)).collect()
    }

    proptest::proptest! {
        /// The lag-major blocked kernel and the bounded selection are
        /// the per-cell oracle bit for bit — `corr`, every history
        /// slot, the peaks — through the partial-lag start-up, across
        /// leaves, under every ghost pattern, past the block boundary
        /// and over the IEEE specials.
        #[test]
        fn prop_kernel_and_selection_match_the_per_cell_oracle(
            window in 1usize..7,
            steps_per_window in 0usize..4,
            extra_steps in 0usize..6,
            nx in 1usize..48,
            rows in proptest::collection::vec(1usize..130, 1..4),
            pattern in 0usize..7,
            palette in 0usize..4,
            k in 1usize..12,
            seed in proptest::prelude::any::<u32>(),
        ) {
            let steps = (steps_per_window * window + extra_steps).min(3 * window) as u64;
            let mut oracle = Reference::new(window, k);
            let meshes: Vec<DataSet> =
                (0..steps).map(|s| deck(nx, &rows, pattern, seed, palette, s)).collect();
            for mesh in &meshes {
                oracle.step(&leaf_views(mesh, Association::Point, "data").unwrap());
            }
            let mut ac = run_steps(window, k, meshes);
            assert!(ac.take_failures().is_empty());
            assert_eq!(ac.cells, oracle.cells);
            assert_eq!(bits(&cell_major(&ac.corr, ac.cells)), bits(&oracle.corr));
            assert_eq!(bits(&cell_major(&ac.history, ac.cells)), bits(&oracle.history));
            for (lag, expect) in oracle.local_peaks().iter().enumerate() {
                assert_eq!(peak_bits(&ac.local_peaks(lag)), peak_bits(expect), "lag {}", lag + 1);
            }
        }

        /// On leaves whose ids restart (each its own global extent, so
        /// the id is the tuple), with values from a palette of three, the selection
        /// is the full sort by (value descending, id ascending) cut to `k`, for `k`
        /// below, at and beyond the cell count.
        #[test]
        fn prop_selection_is_the_sort_under_the_one_comparator(
            sizes in proptest::collection::vec(1usize..40, 1..4),
            ghost_stride in 0usize..4,
            seed in proptest::prelude::any::<u32>(),
        ) {
            let mesh = |s: u64| {
                let mut blocks = MultiBlock::new();
                for (leaf, &n) in sizes.iter().enumerate() {
                    let values: Vec<f64> =
                        (0..n).map(|t| deck_value(seed, 3, leaf * 64 + t, s)).collect();
                    let e = Extent::whole([n, 1, 1]);
                    let mut g = ImageData::new(e, e);
                    g.add_point_array(DataArray::owned("data", 1, values));
                    if ghost_stride > 1 {
                        let flags: Vec<u8> = (0..n).map(|t| u8::from(t % ghost_stride == 1)).collect();
                        g.add_point_array(DataArray::owned(GHOST_ARRAY_NAME, 1, flags));
                    }
                    blocks.push(DataSet::Image(g));
                }
                DataSet::Multi(blocks)
            };
            // Tuple 0 of every leaf is kept, so there is always a cell.
            let first = mesh(0);
            let views = leaf_views(&first, Association::Point, "data").unwrap();
            let ids: Vec<u64> = views
                .iter()
                .flat_map(|view| view.kept().map(|(t, _)| t as u64).collect::<Vec<_>>())
                .collect();
            let cells = ids.len();
            for k in [1, (cells - 1).max(1), cells, cells + 5] {
                let mut ac = run_steps(2, k, (0..4).map(mesh).collect());
                assert!(ac.take_failures().is_empty());
                for lag in 0..2 {
                    let row = &ac.corr[lag * cells..][..cells];
                    let mut expect: Vec<Peak> =
                        row.iter().zip(&ids).map(|(&value, &cell)| Peak { value, cell }).collect();
                    expect.sort_by(|a, b| b.value.total_cmp(&a.value).then(a.cell.cmp(&b.cell)));
                    expect.truncate(k);
                    assert_eq!(peak_bits(&ac.local_peaks(lag)), peak_bits(&expect), "k {k}");
                }
            }
        }
    }
}
