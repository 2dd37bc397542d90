//! The time-stepping simulation: fills a block-decomposed structured
//! grid with convolved oscillator values.
//!
//! The per-step fill is the miniapp half of the paper's hot path. A
//! rank is one thread, and [`Simulation::step`] fills the rank's block
//! with a kernel that skips exactly the terms that cannot change a
//! cell: the spatial Gaussian underflows to exactly `+0.0` beyond
//! [`Oscillator::support_radius`], so each **culled** oscillator only
//! touches cells inside its influence box — `O(cells + Σ support
//! volumes)` instead of `O(cells × oscillators)` — and inside the box a
//! term below half an ulp of a cell that already holds `|v| ≥ 2⁻⁴⁰` (a
//! narrow oscillator's tail on a wide one's value) is skipped too. A
//! **dense** one, which no cell of the block can skip (a wide one),
//! skips that machinery instead, fused two at a time into one pass. The
//! field stays **bitwise identical** to the naive all-pairs kernel
//! ([`Simulation::step_naive`], kept as the property-test and benchmark
//! reference); the step reports its evaluated and skipped terms as the
//! probe counter `sim/terms`, and a warm step allocates nothing.

use std::sync::{Arc, OnceLock};

use datamodel::{dims_create, partition_extent, Extent};
use minimpi::Comm;

use crate::osc::{parse_deck, Oscillator};

/// Simulation configuration (the user-specified parameters of §3.3:
/// grid dimensions, time resolution, duration).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Global grid points per axis.
    pub grid: [usize; 3],
    /// Physical domain size (the grid spans `[0, domain]³`).
    pub domain: [f64; 3],
    /// Timestep size.
    pub dt: f64,
    /// Number of timesteps.
    pub steps: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            grid: [32, 32, 32],
            domain: [1.0, 1.0, 1.0],
            dt: 0.01,
            steps: 100,
        }
    }
}

/// Per-rank simulation state.
pub struct Simulation {
    config: SimConfig,
    /// The oscillator set, shared by the zero-copy deck broadcast.
    oscillators: Arc<Vec<Oscillator>>,
    /// Local (block) extent.
    local: Extent,
    /// Global extent.
    global: Extent,
    /// Grid spacing per axis.
    spacing: [f64; 3],
    /// The field, shared so the data adaptor can view it zero-copy.
    field: Arc<Vec<f64>>,
    /// The `vtkGhostType` flags of `local` within `global`, which never
    /// change: computed by the first adaptor an analysis asks for them,
    /// shared by every adaptor after it, never computed if none asks;
    /// none for a block that duplicates no plane.
    ghosts: Arc<OnceLock<Option<Arc<Vec<u8>>>>>,
    /// The kernel's `dx²` row tables, one per oscillator of a fused pair.
    tables: [Vec<f64>; 2],
    step: u64,
    time: f64,
}

impl Simulation {
    /// Set up the simulation: the deck text is read on rank 0 and
    /// broadcast, the global grid is partitioned by regular
    /// decomposition, and the local field allocated.
    ///
    /// The parsed deck is broadcast as an `Arc` ([`Comm::bcast`]), so
    /// every rank of a node shares one allocation instead of
    /// deep-copying the deck along the broadcast tree.
    ///
    /// # Panics
    /// On every rank, with the same `bad deck: …` message, if rank 0
    /// supplies no deck or one that does not parse: the parse outcome is
    /// what rank 0 broadcasts, so no rank waits for a deck that never
    /// comes.
    pub fn new(comm: &Comm, config: SimConfig, deck_on_root: Option<&str>) -> Self {
        // Root parses and broadcasts the oscillator set (§3.3: "read and
        // broadcast from the root process").
        let outcome = if comm.rank() == 0 {
            let parsed = match deck_on_root {
                Some(deck) => parse_deck(deck).map(Arc::new).map_err(|e| e.to_string()),
                None => Err("rank 0 must supply the oscillator deck".to_string()),
            };
            comm.bcast(0, Some(Arc::new(parsed)))
        } else {
            comm.bcast(0, None)
        };
        let oscillators = match &*outcome {
            Ok(oscillators) => Arc::clone(oscillators),
            Err(e) => panic!("bad deck: {e}"),
        };
        assert!(!oscillators.is_empty(), "need at least one oscillator");

        let global = Extent::whole(config.grid);
        let dims = dims_create(comm.size());
        let local = partition_extent(&global, dims, comm.rank());
        let spacing = [
            config.domain[0] / (config.grid[0].max(2) - 1) as f64,
            config.domain[1] / (config.grid[1].max(2) - 1) as f64,
            config.domain[2] / (config.grid[2].max(2) - 1) as f64,
        ];
        let field = Arc::new(vec![0.0; local.num_points()]);
        Simulation {
            config,
            oscillators,
            local,
            global,
            spacing,
            field,
            ghosts: Arc::default(),
            tables: [(); 2].map(|_| Vec::with_capacity(local.point_dims()[0])),
            step: 0,
            time: 0.0,
        }
    }

    /// Advance one timestep with the culled kernel; the field is bitwise
    /// identical to [`Simulation::step_naive`]'s.
    ///
    /// Counts the step's `cells × oscillators` terms under the probe
    /// counter `sim/terms`: one call per step, `messages` = terms
    /// evaluated, `bytes` = terms skipped.
    pub fn step(&mut self, comm: &Comm) {
        let probe = comm.probe();
        let _span = probe.span("per-step/sim/kernel");
        self.time = self.step as f64 * self.config.dt;
        // `make_mut` reuses the allocation when no analysis holds a view
        // (the steady state: adaptors release between steps); if a view
        // is still alive this copies rather than corrupting it.
        let field = Arc::make_mut(&mut self.field);
        let (t, block, spacing, deck) = (self.time, self.local, self.spacing, &self.oscillators);
        let terms = deck.iter().map(|o| Term::new(o, t, block, spacing));
        let evaluated = fill_culled(block, field, terms, &mut self.tables);
        let terms = (field.len() * self.oscillators.len()) as u64;
        probe.bulk("sim/terms", 1, evaluated, terms - evaluated);
        self.step += 1;
    }

    /// Advance one timestep with the naive all-pairs kernel: every cell
    /// evaluates every oscillator, serially.
    ///
    /// Kept as the reference implementation: property tests assert the
    /// culled kernel reproduces this bitwise, and the hot-path benchmark
    /// measures its speedup against it.
    pub fn step_naive(&mut self, comm: &Comm) {
        let probe = comm.probe();
        let _span = probe.span("per-step/sim/kernel");
        self.time = self.step as f64 * self.config.dt;
        let t = self.time;
        let oscillators: &[Oscillator] = &self.oscillators;
        let spacing = self.spacing;
        let local = self.local;
        let field = Arc::make_mut(&mut self.field);
        for (out, p) in field.iter_mut().zip(local.iter_points()) {
            let pos = [
                p[0] as f64 * spacing[0],
                p[1] as f64 * spacing[1],
                p[2] as f64 * spacing[2],
            ];
            let mut v = 0.0;
            for o in oscillators {
                v += o.contribution(pos, t);
            }
            *out = v;
        }
        self.step += 1;
    }

    /// Zero-copy handle to the current field.
    pub fn field(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.field)
    }

    /// The cell the adaptors share the ghost flags through.
    pub(crate) fn ghost_cell(&self) -> Arc<OnceLock<Option<Arc<Vec<u8>>>>> {
        Arc::clone(&self.ghosts)
    }

    /// Local block extent.
    pub fn local_extent(&self) -> Extent {
        self.local
    }

    /// Global extent.
    pub fn global_extent(&self) -> Extent {
        self.global
    }

    /// Grid spacing.
    pub fn spacing(&self) -> [f64; 3] {
        self.spacing
    }

    /// Completed steps.
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Physical time of the last computed step.
    pub(crate) fn current_time(&self) -> f64 {
        self.time
    }

    /// Configured total steps.
    pub fn total_steps(&self) -> usize {
        self.config.steps
    }
}

/// The size floor: a cell holding `|v| ≥ 2⁻⁴⁰` is where terms are
/// culled by magnitude.
const SKIP_FLOOR: f64 = 1.0 / (1u64 << 40) as f64;

/// `2^(−40 − 54)`: half the smallest gap next to any `|v| ≥ SKIP_FLOOR`
/// (the gap below a power of two `2ᵉ` is `2^(e−53)`), so a term of
/// magnitude below it rounds back to `v`.
const SKIP_BELOW: f64 = SKIP_FLOOR / (1u64 << 54) as f64;

/// Slack, in the exponent, on the magnitude threshold: covers libm's
/// ≤ 1 ulp in `ln` and `exp` and the rounded sum, product and division
/// (together under 1e-12 for exponents below 746).
const MARGIN: f64 = 1e-9;

/// `exp(−x)` stays normal for `x` below this (`−ln f64::MIN_POSITIVE ≈
/// 708.4`), so its error is relative and [`MARGIN`] covers it; past the
/// threshold a subnormal result is off by at most `|amp|·2⁻¹⁰⁷⁴`, far
/// under that margin for any amplitude this admits.
const NORMAL_EXP_LIMIT: f64 = 708.0;

/// Fill one block of the field with the deck's terms, each classed for
/// this step and block ([`Term::new`]); returns the number evaluated.
/// Consecutive **dense** terms are fused two at a time, a lone one
/// alone ([`fill_dense`]); the rest are **culled** ([`fill_box`]). A
/// deck that starts dense writes `0.0 + terms` over the block in its
/// first pass, the naive kernel's own sum; any other starts from zeros.
fn fill_culled<'a>(
    block: Extent,
    out: &mut [f64],
    terms: impl Iterator<Item = Term<'a>>,
    tables: &mut [Vec<f64>; 2],
) -> u64 {
    debug_assert_eq!(out.len(), block.num_points());
    let mut terms = terms.peekable();
    let mut fresh = terms.peek().is_some_and(|a| a.dense);
    if !fresh {
        out.fill(0.0);
    }
    let mut evaluated = 0;
    while let Some(a) = terms.next() {
        evaluated += if a.dense {
            let b = terms.next_if(|b| b.dense);
            fill_dense(block, out, (a, b), fresh, tables)
        } else {
            fill_box(block, out, a, &mut tables[0])
        };
        fresh = false;
    }
    evaluated
}

/// One oscillator at the step's time, hoisted for a block: `amp` and
/// `denom` are the exact values [`Oscillator::contribution`] computes,
/// so [`Term::at`] reproduces it bit for bit.
#[derive(Clone, Copy)]
struct Term<'a> {
    o: &'a Oscillator,
    spacing: [f64; 3],
    amp: f64,
    denom: f64,
    cutoff: f64,
    skip_from: f64,
    dense: bool,
}

impl<'a> Term<'a> {
    /// Dense when culling cannot be trusted (a non-finite amplitude,
    /// whose `∞ · 0` must stay NaN, or an underflowed denominator) or
    /// when the block's farthest corner, `(max dx² + max dy²) + max dz²`
    /// over each axis's two ends, is nearer than [`skip_d2`]: `dx` is
    /// monotone along an axis and rounding is monotone, so that bounds
    /// every cell's computed `d²`.
    fn new(o: &'a Oscillator, t: f64, block: Extent, spacing: [f64; 3]) -> Self {
        let amp = o.value_at(t);
        let denom = 2.0 * o.radius * o.radius;
        let cutoff = o.cutoff_d2();
        let mut a = Term {
            o,
            spacing,
            amp,
            denom,
            cutoff,
            skip_from: skip_d2(amp, denom, cutoff),
            dense: false,
        };
        let far = |x| f64::max(a.square(x, block.lo[x]), a.square(x, block.hi[x]));
        a.dense = !(amp.is_finite() && cutoff > 0.0) || (far(0) + far(1)) + far(2) < a.skip_from;
        a
    }

    fn at(&self, d2: f64) -> f64 {
        self.amp * (-d2 / self.denom).exp()
    }

    /// `(i·h − c)²` along `axis`, the naive kernel's own expression.
    fn square(&self, axis: usize, i: i64) -> f64 {
        let d = i as f64 * self.spacing[axis] - self.o.center[axis];
        d * d
    }

    /// Refill `table` with `dx²` for `i` in `lo..=hi`, once a pass, for
    /// every row; a cell still sums `(dx² + dy²) + dz²`, bit for bit.
    fn row_table(&self, lo: i64, hi: i64, table: &mut Vec<f64>) {
        table.clear();
        table.extend((lo..=hi).map(|i| self.square(0, i)));
    }

    /// Inclusive index range of the points within the block along
    /// `axis` whose coordinate can lie inside the support, widened by one
    /// point so float rounding can never shrink it. Falls back to the
    /// block's range whenever the bound arithmetic is not trustworthy
    /// (non-positive spacing, or non-finite bounds).
    fn range(&self, block: Extent, axis: usize) -> (i64, i64) {
        let (lo, hi, sp) = (block.lo[axis], block.hi[axis], self.spacing[axis]);
        if sp.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !self.cutoff.is_finite() {
            return (lo, hi);
        }
        let r = self.cutoff.sqrt();
        let a = (self.o.center[axis] - r) / sp - 1.0;
        let b = (self.o.center[axis] + r) / sp + 1.0;
        if !a.is_finite() || !b.is_finite() {
            return (lo, hi);
        }
        // `as i64` saturates, so astronomically wide supports clamp safely.
        ((a.floor() as i64).max(lo), (b.ceil() as i64).min(hi))
    }
}

/// Add a dense oscillator `a`, or the pair `a` then `b`, to every cell
/// in one pass (over a block not yet filled if `fresh`), with the
/// pair's constants and `dy²`, `dz²` in scalar locals.
fn fill_dense(
    block: Extent,
    out: &mut [f64],
    (a, b): (Term, Option<Term>),
    fresh: bool,
    [ta, tb]: &mut [Vec<f64>; 2],
) -> u64 {
    let [nx, ny, _] = block.point_dims();
    let start = |cell: &f64| if fresh { 0.0 } else { *cell };
    a.row_table(block.lo[0], block.hi[0], ta);
    if let Some(b) = b {
        b.row_table(block.lo[0], block.hi[0], tb);
    }
    for (r, row) in out.chunks_exact_mut(nx).enumerate() {
        let (j, k) = (block.lo[1] + (r % ny) as i64, block.lo[2] + (r / ny) as i64);
        let (ya, za) = (a.square(1, j), a.square(2, k));
        if let Some(b) = b {
            let (yb, zb) = (b.square(1, j), b.square(2, k));
            for ((cell, &xa), &xb) in row.iter_mut().zip(ta.iter()).zip(tb.iter()) {
                let v = start(cell) + a.at((xa + ya) + za);
                *cell = v + b.at((xb + yb) + zb);
            }
        } else {
            for (cell, &xa) in row.iter_mut().zip(ta.iter()) {
                *cell = start(cell) + a.at((xa + ya) + za);
            }
        }
    }
    (out.len() * (1 + usize::from(b.is_some()))) as u64
}

/// Add a culled oscillator to the block clipped to its influence box,
/// skipping only the terms that cannot change a cell (DESIGN §6 rule
/// 1): exact zeros past `cutoff_d2`, and past [`skip_d2`] a term under
/// half an ulp of a cell holding `|v| ≥` [`SKIP_FLOOR`], a cell or a
/// whole row at a time. Debug builds evaluate every skipped term and
/// assert it leaves the cell's bits as they were.
fn fill_box(block: Extent, out: &mut [f64], a: Term, dx2: &mut Vec<f64>) -> u64 {
    let d = block.point_dims();
    let [(ilo, ihi), (jlo, jhi), (klo, khi)] = [0, 1, 2].map(|axis| a.range(block, axis));
    if ilo > ihi || jlo > jhi || klo > khi {
        return 0; // influence box misses this block entirely
    }
    let skips = |d2: f64, v: f64| d2 >= a.skip_from && (d2 >= a.cutoff || v.abs() >= SKIP_FLOOR);
    a.row_table(ilo, ihi, dx2);
    let min_dx2 = dx2.iter().copied().fold(f64::INFINITY, f64::min);
    let mut evaluated = 0;
    for k in klo..=khi {
        let (dz2, krow) = (a.square(2, k), (k - block.lo[2]) as usize * d[1]);
        for j in jlo..=jhi {
            let dy2 = a.square(1, j);
            let start = (krow + (j - block.lo[1]) as usize) * d[0] + (ilo - block.lo[0]) as usize;
            let row = &mut out[start..start + dx2.len()];
            let nearest = min_dx2 + dy2 + dz2;
            if nearest >= a.skip_from && (nearest >= a.cutoff || above_floor(row)) {
                if cfg!(debug_assertions) {
                    for (&v, &dxx) in row.iter().zip(dx2.iter()) {
                        assert_unchanged(v, a.at(dxx + dy2 + dz2));
                    }
                }
                continue;
            }
            for (cell, &dxx) in row.iter_mut().zip(dx2.iter()) {
                let d2 = dxx + dy2 + dz2;
                if skips(d2, *cell) {
                    if cfg!(debug_assertions) {
                        assert_unchanged(*cell, a.at(d2));
                    }
                    continue;
                }
                *cell += a.at(d2);
                evaluated += 1;
            }
        }
    }
    evaluated
}

/// The squared distance from which an oscillator's term `amp ·
/// exp(−d²/denom)` is below [`SKIP_BELOW`]: `denom · (94 ln 2 +
/// ln|amp| + MARGIN)`, capped at the exact-zero `cutoff`. When the bound
/// cannot be trusted — a subnormal denominator, or an amplitude so large
/// that `exp` would have to go subnormal — only the exact zeros are
/// skipped (`cutoff`). `amp == 0` gives `−∞`: every term is a zero.
fn skip_d2(amp: f64, denom: f64, cutoff: f64) -> f64 {
    let x = amp.abs().ln() - SKIP_BELOW.ln() + MARGIN;
    if denom.is_normal() && x < NORMAL_EXP_LIMIT {
        (denom * x).min(cutoff)
    } else {
        cutoff
    }
}

/// Does every cell of `row` hold `|v| ≥ SKIP_FLOOR` (NaN does not)? One
/// branch-free pass the compiler vectorises.
fn above_floor(row: &[f64]) -> bool {
    row.iter()
        .fold(true, |all, v| all & (v.abs() >= SKIP_FLOOR))
}

/// Debug builds' proof of every skip: adding the skipped term `y` to the
/// cell `v` gives `v`, bit for bit.
fn assert_unchanged(v: f64, y: f64) {
    debug_assert_eq!(
        (v + y).to_bits(),
        v.to_bits(),
        "skipped a term {y:e} that changes the cell {v:e}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::{format_deck, OscillatorKind};
    use minimpi::World;

    fn deck() -> String {
        format_deck(&crate::demo_oscillators())
    }

    /// A deck of small-radius oscillators whose supports cover only a
    /// fraction of the unit cube — the case culling exists for.
    fn sparse_deck(n: usize) -> String {
        let oscillators: Vec<Oscillator> = (0..n)
            .map(|i| Oscillator {
                kind: match i % 3 {
                    0 => OscillatorKind::Periodic,
                    1 => OscillatorKind::Damped,
                    _ => OscillatorKind::Decaying,
                },
                center: [
                    (i as f64 * 0.37).fract(),
                    (i as f64 * 0.61).fract(),
                    (i as f64 * 0.83).fract(),
                ],
                radius: 0.004 + (i % 5) as f64 * 0.001,
                omega: 1.0 + i as f64,
                zeta: 0.1 * (i % 4) as f64,
            })
            .collect();
        format_deck(&oscillators)
    }

    #[test]
    fn broadcast_gives_every_rank_the_deck() {
        let d = deck();
        World::run(4, move |comm| {
            let root_deck = if comm.rank() == 0 {
                Some(d.as_str())
            } else {
                None
            };
            let sim = Simulation::new(comm, SimConfig::default(), root_deck);
            assert_eq!(sim.oscillators.len(), 3);
        });
    }

    #[test]
    fn blocks_partition_the_global_grid() {
        let d = deck();
        World::run(8, move |comm| {
            let root_deck = if comm.rank() == 0 {
                Some(d.as_str())
            } else {
                None
            };
            let sim = Simulation::new(comm, SimConfig::default(), root_deck);
            let total_cells: usize =
                comm.allreduce_scalar(sim.local_extent().num_cells(), |a, b| a + b);
            assert_eq!(total_cells, sim.global_extent().num_cells());
        });
    }

    #[test]
    fn field_matches_analytic_sum() {
        let d = deck();
        World::run(2, move |comm| {
            let root_deck = if comm.rank() == 0 {
                Some(d.as_str())
            } else {
                None
            };
            let cfg = SimConfig {
                grid: [8, 8, 8],
                steps: 3,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            sim.step(comm);
            sim.step(comm);
            // After 2 steps, time = dt (time of the last computed step).
            let t = sim.current_time();
            assert_eq!(t, 0.01);
            let field = sim.field();
            let local = sim.local_extent();
            let sp = sim.spacing();
            for (i, p) in local.iter_points().enumerate() {
                let pos = [
                    p[0] as f64 * sp[0],
                    p[1] as f64 * sp[1],
                    p[2] as f64 * sp[2],
                ];
                let expect: f64 = sim.oscillators.iter().map(|o| o.contribution(pos, t)).sum();
                assert!((field[i] - expect).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn zero_copy_view_survives_step_without_corruption() {
        let d = deck();
        World::run(1, move |comm| {
            let root_deck = Some(d.as_str());
            let cfg = SimConfig {
                grid: [4, 4, 4],
                steps: 2,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            sim.step(comm);
            let view = sim.field();
            let snapshot: Vec<f64> = view.as_ref().clone();
            sim.step(comm); // copies because `view` is alive
            assert_eq!(&snapshot, view.as_ref(), "held view is immutable");
        });
    }

    #[test]
    fn deterministic_across_rank_counts() {
        // The same global field regardless of decomposition: compare the
        // value at a fixed global point between 1-rank and 4-rank runs.
        let d = deck();
        let probe = [3i64, 5, 2];
        let d1 = d.clone();
        let v1 = World::run(1, move |comm| {
            let cfg = SimConfig {
                grid: [8, 8, 8],
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, Some(d1.as_str()));
            sim.step(comm);
            sim.field()[sim.local_extent().linear_index(probe)]
        });
        let v4 = World::run(4, move |comm| {
            let root_deck = if comm.rank() == 0 {
                Some(d.as_str())
            } else {
                None
            };
            let cfg = SimConfig {
                grid: [8, 8, 8],
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            sim.step(comm);
            if sim.local_extent().contains(probe) {
                Some(sim.field()[sim.local_extent().linear_index(probe)])
            } else {
                None
            }
        });
        let hits: Vec<f64> = v4.into_iter().flatten().collect();
        assert!(!hits.is_empty());
        for h in hits {
            assert_eq!(h, v1[0]);
        }
    }

    fn osc(kind: OscillatorKind, center: [f64; 3], radius: f64, omega: f64) -> Oscillator {
        Oscillator {
            kind,
            center,
            radius,
            omega,
            zeta: 0.1,
        }
    }

    /// The benchmark deck's shape: 2 wide oscillators (support past the
    /// domain diagonal) and 7 narrow ones, each with its point reflection
    /// through the domain centre — `(wide, narrow)`.
    fn wide_and_narrow() -> (Vec<Oscillator>, Vec<Oscillator>) {
        use OscillatorKind::*;
        let wide = vec![
            osc(Periodic, [0.3, 0.6, 0.4], 0.2, 9.0),
            osc(Damped, [0.7, 0.35, 0.55], 0.17, 14.0),
        ];
        let mut narrow = Vec::new();
        for i in 0..7 {
            let c = [
                0.3 + 0.05 * i as f64,
                0.35 + 0.04 * i as f64,
                0.62 - 0.045 * i as f64,
            ];
            let r = 0.004 + 0.00033 * i as f64;
            let kind = [Periodic, Damped, Decaying][i % 3];
            narrow.push(osc(kind, c, r, 7.0 + i as f64));
            narrow.push(osc(kind, c.map(|x| 1.0 - x), r, 7.0 + i as f64));
        }
        (wide, narrow)
    }

    /// Terms of the block at the sim's current time that are not exact
    /// zeros: what a kernel skipping only those evaluates.
    fn nonzero_terms(sim: &Simulation) -> u64 {
        let (t, sp) = (sim.current_time(), sim.spacing());
        let mut n = 0;
        for o in sim.oscillators.iter() {
            let cullable = o.value_at(t).is_finite() && o.cutoff_d2() > 0.0;
            for p in sim.local_extent().iter_points() {
                let [dx, dy, dz] = [0, 1, 2].map(|a| p[a] as f64 * sp[a] - o.center[a]);
                let d2 = dx * dx + dy * dy + dz * dz;
                n += u64::from(!cullable || d2 < o.cutoff_d2());
            }
        }
        n
    }

    /// `(calls, evaluated, skipped)` of this rank's `sim/terms` so far.
    fn terms(comm: &Comm) -> (u64, u64, u64) {
        let snapshot = comm.probe().snapshot();
        let c = snapshot.counters.iter().find(|c| c.name == "sim/terms");
        c.map_or((0, 0, 0), |c| (c.calls, c.messages, c.bytes))
    }

    /// Steps the naive and the culled kernel side by side on `ranks`
    /// ranks, asserting bit-equal fields after every step. Returns,
    /// summed over ranks and steps, the terms the culled kernel evaluated
    /// (its `sim/terms` counter) and [`nonzero_terms`].
    fn against_naive(
        deck: &[Oscillator],
        grid: [usize; 3],
        dt: f64,
        steps: usize,
        ranks: usize,
    ) -> (u64, u64) {
        let text = format_deck(deck);
        let per_rank = World::run(ranks, move |comm| {
            comm.attach_probe(probe::enabled());
            let cfg = SimConfig {
                grid,
                dt,
                ..SimConfig::default()
            };
            let root = (comm.rank() == 0).then_some(text.as_str());
            let mut naive = Simulation::new(comm, cfg.clone(), root);
            let mut culled = Simulation::new(comm, cfg, root);
            let mut nonzero = 0;
            for step in 0..steps {
                naive.step_naive(comm);
                culled.step(comm);
                let bits =
                    |s: &Simulation| s.field().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&naive) == bits(&culled),
                    "step {step}: culled diverged from naive"
                );
                nonzero += nonzero_terms(&culled);
            }
            let (calls, evaluated, skipped) = terms(comm);
            let all = culled.field().len() * culled.oscillators.len() * steps;
            assert_eq!((calls, evaluated + skipped), (steps as u64, all as u64));
            (evaluated, nonzero)
        });
        per_rank
            .into_iter()
            .fold((0, 0), |(a, b), (e, n)| (a + e, b + n))
    }

    #[test]
    fn culled_kernel_is_bitwise_identical_to_naive() {
        // The tentpole contract: culling must reproduce the all-pairs
        // kernel bit for bit — on the dense demo deck (supports cover the
        // domain) and a sparse deck (most oscillator/cell pairs culled).
        for text in [deck(), sparse_deck(40)] {
            let deck = crate::osc::parse_deck(&text).unwrap();
            for ranks in [1, 2, 4] {
                against_naive(&deck, [17, 13, 11], 0.01, 4, ranks);
            }
        }
        // The benchmark's shape, and narrow oscillators both before and
        // after the wide ones: the narrow tails that land on wide values
        // are culled by size, and that path must have run.
        let (wide, narrow) = wide_and_narrow();
        let before_and_after: Vec<Oscillator> = [&narrow[..7], &wide[..], &narrow[7..]].concat();
        for deck in [[wide.clone(), narrow.clone()].concat(), before_and_after] {
            for ranks in [1, 2, 4] {
                let (evaluated, nonzero) = against_naive(&deck, [32, 32, 32], 0.01, 3, ranks);
                assert!(
                    evaluated < nonzero,
                    "no term culled by size: {evaluated} of {nonzero}"
                );
            }
        }
        // Dense runs of 1, 2 and 3 at the front, between culled
        // oscillators and at the end: fused pairs, a lone one, and a
        // first pass that writes the block.
        let w = [
            wide[0],
            wide[1],
            osc(OscillatorKind::Decaying, [0.45, 0.5, 0.6], 0.19, 2.0),
        ];
        let n = &narrow[..3];
        let runs: [Vec<Oscillator>; 5] = [
            [&w[..], n].concat(),
            [n, &w[..1]].concat(),
            [&n[..1], &w[..1], &n[1..], &w[1..]].concat(),
            [&w[..2], n, &w[2..], &n[..1]].concat(),
            [&n[..1], &w[..2], &n[1..2], &w[2..], &n[2..]].concat(),
        ];
        for deck in &runs {
            let wide: Vec<bool> = deck.iter().map(|o| o.radius > 0.1).collect();
            assert_eq!(dense(deck, [12, 11, 10], 1, 0.0), [wide]);
            for ranks in [1, 2, 4] {
                against_naive(deck, [12, 11, 10], 0.01, 3, ranks);
            }
        }
        // A wide oscillator dense on the block around it and culled on
        // the block beyond (split along x at 2 and 4 ranks).
        let half = osc(OscillatorKind::Periodic, [0.25, 0.5, 0.5], 0.08, 5.0);
        let deck = [&w[..1], &[half], n, &w[1..]].concat();
        assert_eq!(
            dense(&[half], [16, 16, 16], 4, 0.0),
            [[true], [false], [true], [false]]
        );
        for ranks in [1, 2, 4] {
            against_naive(&deck, [16, 16, 16], 0.01, 3, ranks);
        }
        // Amplitudes that fade from dense to culled inside a dense run,
        // and one that overflows to +∞ inside another (step 24 on).
        let fading = osc(OscillatorKind::Decaying, [0.5, 0.5, 0.5], 0.2, 300.0);
        let growing = osc(OscillatorKind::Decaying, [0.4, 0.5, 0.5], 0.2, -3000.0);
        assert_eq!(dense(&[fading], [10, 10, 10], 2, 0.0), [[true]; 2]);
        assert_eq!(dense(&[fading], [10, 10, 10], 2, 0.2), [[false]; 2]);
        assert!(growing.value_at(0.23).is_finite() && growing.value_at(0.24).is_infinite());
        let deck = [
            &w[..1],
            &[fading],
            &w[1..2],
            n,
            &w[..1],
            &[growing],
            &w[1..],
        ]
        .concat();
        for ranks in [1, 2, 4] {
            against_naive(&deck, [10, 10, 10], 0.01, 26, ranks);
        }
    }

    /// Whether each oscillator of `deck` is dense on each rank's block at
    /// time `t`.
    fn dense(deck: &[Oscillator], grid: [usize; 3], ranks: usize, t: f64) -> Vec<Vec<bool>> {
        let text = format_deck(deck);
        World::run(ranks, move |comm| {
            let cfg = SimConfig {
                grid,
                ..SimConfig::default()
            };
            let sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(text.as_str()));
            sim.oscillators
                .iter()
                .map(|o| Term::new(o, t, sim.local, sim.spacing).dense)
                .collect()
        })
    }

    #[test]
    fn terms_are_counted_step_by_step_as_before() {
        // `sim/terms` (evaluated, skipped) of each step on the benchmark's
        // shape at 32³ over 2 ranks, rank by rank: the counts of the
        // kernel that ran every oscillator through the culling machinery.
        let (wide, narrow) = wide_and_narrow();
        let text = format_deck(&[wide, narrow].concat());
        let per_rank = World::run(2, move |comm| {
            comm.attach_probe(probe::enabled());
            let root = (comm.rank() == 0).then_some(text.as_str());
            let mut sim = Simulation::new(comm, SimConfig::default(), root);
            let mut last = (0, 0);
            (0..4)
                .map(|_| {
                    sim.step(comm);
                    let (_, evaluated, skipped) = terms(comm);
                    let step = (evaluated - last.0, skipped - last.1);
                    last = (evaluated, skipped);
                    step
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(
            per_rank,
            [
                [
                    (35023, 243505),
                    (35023, 243505),
                    (35021, 243507),
                    (35021, 243507)
                ],
                [
                    (32940, 229204),
                    (32940, 229204),
                    (32938, 229206),
                    (32938, 229206)
                ],
            ]
        );
    }

    #[test]
    fn near_zero_cells_take_every_term() {
        // All-narrow, overlapping, between the grid points of a coarse
        // grid: every cell holds at most a far tail, below the floor, so
        // only exact zeros may be skipped.
        let deck: Vec<Oscillator> = (0..6)
            .map(|i| {
                let c = 0.5 + 0.004 * i as f64 + 1.0 / 14.0;
                osc(
                    OscillatorKind::Periodic,
                    [c, c, 0.07],
                    0.006,
                    3.0 + i as f64,
                )
            })
            .collect();
        let (evaluated, nonzero) = against_naive(&deck, [8, 8, 8], 0.01, 3, 2);
        assert!(nonzero > 0);
        assert_eq!(evaluated, nonzero);
    }

    #[test]
    fn amplitudes_through_subnormal_zero_and_infinity() {
        // Decaying amplitudes that pass through subnormal (step 24,
        // exponent 720) to exactly zero (step 25 on), and one that
        // overflows to +∞ (step 24 on), which disables culling for that
        // oscillator and spreads ∞ and NaN through the field.
        let (wide, narrow) = wide_and_narrow();
        let fading = osc(OscillatorKind::Decaying, [0.5, 0.45, 0.5], 0.005, 3000.0);
        let growing = osc(OscillatorKind::Decaying, [0.52, 0.5, 0.4], 0.004, -3000.0);
        let deck = [
            &wide[..1],
            &[fading],
            &narrow[..4],
            &[growing],
            &wide[1..],
            &narrow[4..],
        ]
        .concat();
        against_naive(&deck, [24, 24, 24], 0.01, 28, 2);
    }

    #[test]
    fn half_gap_rule_is_exact_and_strict() {
        assert_eq!(SKIP_FLOOR, 2f64.powi(-40));
        assert_eq!(SKIP_BELOW, 2f64.powi(-94));
        // The rule in the term's own terms; the kernel applies it as
        // `d² ≥ skip_d2` (next test: that keeps `|y|` below SKIP_BELOW).
        let skips = |v: f64, y: f64| v.abs() >= SKIP_FLOOR && y.abs() < SKIP_BELOW;
        for e in [-40, -39, -1, 0, 1, 52, 1023] {
            for v in [2f64.powi(e), -2f64.powi(e)] {
                // At a power of two the gap toward zero is the smaller
                // one; half of it is at least SKIP_BELOW.
                let half = 2f64.powi(e - 54);
                assert!(half >= SKIP_BELOW);
                // A term toward zero just under half that gap: exact.
                let under = -v.signum() * half.next_down();
                assert_eq!((v + under).to_bits(), v.to_bits(), "v = 2^{e}");
                assert_eq!(skips(v, under), e == -40);
                // Exactly half: the strict rule evaluates it.
                assert!(!skips(v, -v.signum() * half), "v = 2^{e}");
            }
        }
        // Why strict: just under the floor the mantissa is odd, and a
        // term of exactly half its gap rounds away from `v`.
        let odd = SKIP_FLOOR.next_down();
        assert_eq!(odd.next_up() - odd, 2.0 * SKIP_BELOW);
        assert_ne!((odd - SKIP_BELOW).to_bits(), odd.to_bits());
        assert!(!skips(odd, SKIP_BELOW.next_down()));
    }

    #[test]
    fn skip_threshold_bounds_the_term_tightly() {
        for r in [0.004, 0.2, 1.0, 100.0] {
            let o = osc(OscillatorKind::Periodic, [0.0; 3], r, 1.0);
            let denom = 2.0 * r * r;
            let cutoff = o.cutoff_d2();
            for amp in [
                1.0,
                -1.0,
                0.5,
                1e-3,
                1.5 * SKIP_BELOW,
                1e-200,
                5e-324,
                1e250,
            ] {
                let d2 = skip_d2(amp, denom, cutoff);
                let y = |d2: f64| (amp * (-d2 / denom).exp()).abs();
                if d2 <= 0.0 {
                    assert!(y(0.0) < SKIP_BELOW, "amp {amp:e}");
                    continue;
                }
                assert!(d2 < cutoff, "amp {amp:e} r {r}");
                assert!(
                    y(d2) < SKIP_BELOW && y(d2.next_up()) < SKIP_BELOW,
                    "amp {amp:e} r {r}"
                );
                assert!(y(d2) > 0.99 * SKIP_BELOW, "amp {amp:e} r {r}: not tight");
            }
            assert_eq!(skip_d2(0.0, denom, cutoff), f64::NEG_INFINITY);
            // `exp` would have to go subnormal: exact zeros only.
            assert_eq!(skip_d2(1e300, denom, cutoff), cutoff);
            assert_eq!(skip_d2(1.0, 1e-310, cutoff), cutoff);
        }
    }

    #[test]
    fn support_box_misses_far_oscillator() {
        // An oscillator far outside the domain with a tiny radius must
        // contribute exactly zero everywhere — and bitwise-match naive.
        let o = Oscillator {
            kind: OscillatorKind::Periodic,
            center: [50.0, 50.0, 50.0],
            radius: 0.01,
            omega: 3.0,
            zeta: 0.0,
        };
        let text = format_deck(&[o]);
        World::run(1, move |comm| {
            let cfg = SimConfig {
                grid: [8, 8, 8],
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, Some(text.as_str()));
            sim.step(comm);
            assert!(sim.field().iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    #[should_panic(expected = "rank 0 must supply")]
    fn missing_deck_on_root_panics() {
        World::run(1, |comm| {
            let _ = Simulation::new(comm, SimConfig::default(), None);
        });
    }
}
