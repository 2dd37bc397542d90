//! The parent per-cell kernel and full-sort finalize, kept verbatim as
//! the bit-identity oracle for [`Autocorrelation`](super::Autocorrelation):
//! two cell-major `cells × window` buffers walked a cell at a time with
//! a modulo per delay, a stored id per cell, and at finalize a
//! `Vec<Peak>` of every cell per delay, stably sorted by value and cut
//! to `k`. Slow and allocation-heavy, which is why it left product
//! code; its `corr`, `history` and (where ids grow with the cell index,
//! so that its stable sort is the product's order) its peaks are the
//! contract.

use super::Peak;
use crate::analysis::LeafView;

pub(super) struct Reference {
    window: usize,
    k: usize,
    /// Circular value history, `cells × window`, lazily sized.
    pub(super) history: Vec<f64>,
    /// Running correlations, `cells × window`.
    pub(super) corr: Vec<f64>,
    pub(super) cells: usize,
    steps_seen: u64,
    /// Global id per local cell, captured on first execute.
    ids: Vec<u64>,
}

impl Reference {
    pub(super) fn new(window: usize, k: usize) -> Self {
        Reference {
            window,
            k,
            history: Vec::new(),
            corr: Vec::new(),
            cells: 0,
            steps_seen: 0,
            ids: Vec::new(),
        }
    }

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

    /// One step over already-read leaf views (the parent's
    /// `execute` after its `leaf_views` call).
    pub(super) fn step(&mut self, views: &[LeafView]) {
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
            self.capture_layout(views);
        }
        assert_eq!(
            incoming, self.cells,
            "autocorrelation: cell count changed mid-run"
        );

        // The value→cell mapping is the running count of kept tuples
        // across leaves, in element order.
        let s = self.steps_seen;
        let mut offset = 0usize;
        for view in views {
            for (_, v) in view.kept() {
                self.update_cell(offset, v, s);
                offset += 1;
            }
        }
        debug_assert_eq!(offset, self.cells);
        self.steps_seen += 1;
    }

    /// The parent's local top-k per lag.
    pub(super) fn local_peaks(&self) -> Vec<Vec<Peak>> {
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
        local
    }
}
