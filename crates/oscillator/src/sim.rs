//! The time-stepping simulation: fills a block-decomposed structured
//! grid with convolved oscillator values.
//!
//! The per-step fill is the miniapp half of the paper's hot path. A
//! rank is one thread, and [`Simulation::step`] fills the rank's block
//! with **per-oscillator AABB support culling**. Culling exploits the
//! fact that the spatial Gaussian underflows to exactly `+0.0` beyond
//! [`Oscillator::support_radius`], so each oscillator only touches cells
//! inside its influence box — `O(cells + Σ support volumes)` instead of
//! `O(cells × oscillators)` — while staying **bitwise identical** to the
//! naive all-pairs kernel ([`Simulation::step_naive`], kept as the
//! property-test and benchmark reference).

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
    /// Synchronize ranks after every step (off in the paper's runs).
    pub sync_every_step: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            grid: [32, 32, 32],
            domain: [1.0, 1.0, 1.0],
            dt: 0.01,
            steps: 100,
            sync_every_step: false,
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
    /// read by every adaptor after it, never computed if none asks.
    ghosts: Arc<OnceLock<Vec<u8>>>,
    step: u64,
    time: f64,
}

impl Simulation {
    /// Set up the simulation: the deck text is read on rank 0 and
    /// broadcast, the global grid is partitioned by regular
    /// decomposition, and the local field allocated.
    ///
    /// The parsed deck moves through [`Comm::bcast_arc`], so every rank
    /// of a node shares one allocation instead of deep-copying the deck
    /// along the broadcast tree.
    pub fn new(comm: &Comm, config: SimConfig, deck_on_root: Option<&str>) -> Self {
        // Root parses and broadcasts the oscillator set (§3.3: "read and
        // broadcast from the root process").
        let oscillators = if comm.rank() == 0 {
            let deck = deck_on_root.expect("rank 0 must supply the oscillator deck");
            let parsed = parse_deck(deck).unwrap_or_else(|e| panic!("bad deck: {e}"));
            comm.bcast_arc(0, Some(Arc::new(parsed)))
        } else {
            comm.bcast_arc(0, None)
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
            step: 0,
            time: 0.0,
        }
    }

    /// Advance one timestep with the support-culled kernel; the field is
    /// bitwise identical to [`Simulation::step_naive`]'s.
    pub fn step(&mut self, comm: &Comm) {
        let probe = comm.probe();
        let _span = probe.span("per-step/sim/kernel");
        self.time = self.step as f64 * self.config.dt;
        // `make_mut` reuses the allocation when no analysis holds a view
        // (the steady state: adaptors release between steps); if a view
        // is still alive this copies rather than corrupting it.
        let field = Arc::make_mut(&mut self.field);
        fill_culled(
            self.local,
            field,
            &self.oscillators,
            self.spacing,
            self.time,
        );
        self.step += 1;
        if self.config.sync_every_step {
            comm.barrier();
        }
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
        if self.config.sync_every_step {
            comm.barrier();
        }
    }

    /// Zero-copy handle to the current field.
    pub fn field(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.field)
    }

    /// The cell the adaptors share the ghost flags through.
    pub(crate) fn ghost_cell(&self) -> Arc<OnceLock<Vec<u8>>> {
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
    pub fn current_time(&self) -> f64 {
        self.time
    }

    /// Configured total steps.
    pub fn total_steps(&self) -> usize {
        self.config.steps
    }

    /// The oscillator set (after broadcast; identical on all ranks).
    pub fn oscillators(&self) -> &[Oscillator] {
        &self.oscillators
    }

    /// Retarget oscillator `index`: move its center and retune its
    /// frequency, effective from the next `step` call. This is the
    /// write-back steering surface — every rank must apply the same
    /// retarget at the same step boundary (the deck is replicated, not
    /// distributed), which interactive sessions guarantee by scripting
    /// commands against the bridge step counter. Returns `false` when
    /// `index` is out of range (the command is ignored).
    pub fn retarget_oscillator(&mut self, index: usize, center: [f64; 3], omega: f64) -> bool {
        let deck = Arc::make_mut(&mut self.oscillators);
        match deck.get_mut(index) {
            Some(o) => {
                o.center = center;
                o.omega = omega;
                true
            }
            None => false,
        }
    }
}

/// Fill one block of the field with the support-culled kernel.
///
/// For each oscillator (in deck order, so per-cell accumulation order
/// matches the naive kernel) the block is clipped to the oscillator's
/// axis-aligned influence box, and inside the box each cell applies the
/// exact-underflow gate: contributions with `d² >= cutoff_d2` are
/// skipped because the Gaussian is exactly `+0.0` there. Skipped terms
/// are `±0.0` adds, which cannot change an accumulator that is never
/// `-0.0` (it starts at `+0.0`, and IEEE addition only yields `-0.0`
/// from two negative zeros) — hence bitwise identity with the naive sum.
///
/// Degenerate oscillators (non-finite amplitude at `t`, or a radius so
/// small the Gaussian denominator underflows) disable culling for that
/// oscillator and fall back to evaluating every cell, preserving the
/// naive kernel's NaN propagation.
///
/// The innermost loop runs over a precomputed `dx²` row table: `dx`
/// depends only on `i`, so it is squared once per oscillator in a
/// straight-line pass LLVM can unroll and vectorize, then reused across
/// every `(j, k)` row of the influence box. The distance is still
/// summed as `(dx² + dy²) + dz²` — the naive kernel's exact evaluation
/// order — so the table changes nothing bitwise; it only removes the
/// per-cell index→coordinate conversion and multiply from the loop
/// that pays for the `exp`.
fn fill_culled(
    block: Extent,
    out: &mut [f64],
    oscillators: &[Oscillator],
    spacing: [f64; 3],
    t: f64,
) {
    debug_assert_eq!(out.len(), block.num_points());
    out.fill(0.0);
    let d = block.point_dims();
    // One reusable row table per call; `clear` keeps the allocation warm
    // across oscillators.
    let mut dx2 = Vec::with_capacity(d[0]);
    for o in oscillators {
        // Hoisted invariants: `amp` and `denom` are the exact values
        // `contribution` computes internally, so `amp * (-d2/denom).exp()`
        // reproduces it bit for bit.
        let amp = o.value_at(t);
        let denom = 2.0 * o.radius * o.radius;
        let cutoff = o.cutoff_d2();
        let cullable = amp.is_finite() && cutoff > 0.0;
        let (ilo, ihi) = axis_range(
            block.lo[0],
            block.hi[0],
            o.center[0],
            spacing[0],
            cutoff,
            cullable,
        );
        let (jlo, jhi) = axis_range(
            block.lo[1],
            block.hi[1],
            o.center[1],
            spacing[1],
            cutoff,
            cullable,
        );
        let (klo, khi) = axis_range(
            block.lo[2],
            block.hi[2],
            o.center[2],
            spacing[2],
            cutoff,
            cullable,
        );
        if ilo > ihi || jlo > jhi || klo > khi {
            continue; // influence box misses this block entirely
        }
        dx2.clear();
        dx2.extend((ilo..=ihi).map(|i| {
            let dx = i as f64 * spacing[0] - o.center[0];
            dx * dx
        }));
        for k in klo..=khi {
            let dz = k as f64 * spacing[2] - o.center[2];
            let dz2 = dz * dz;
            let krow = (k - block.lo[2]) as usize * d[1];
            for j in jlo..=jhi {
                let dy = j as f64 * spacing[1] - o.center[1];
                let dy2 = dy * dy;
                let jrow = (krow + (j - block.lo[1]) as usize) * d[0];
                let row = &mut out[jrow + (ilo - block.lo[0]) as usize..];
                for (cell, &dxx) in row.iter_mut().zip(&dx2) {
                    let d2 = dxx + dy2 + dz2;
                    if cullable && d2 >= cutoff {
                        continue; // Gaussian underflowed: exactly ±0.0
                    }
                    *cell += amp * (-d2 / denom).exp();
                }
            }
        }
    }
}

/// Inclusive index range of points within `[lo, hi]` whose coordinate
/// can lie inside the oscillator's support along one axis, widened by
/// one point so float rounding can never shrink the true support. Falls
/// back to the full range whenever the bound arithmetic is not
/// trustworthy (culling disabled, non-positive spacing, or non-finite
/// bounds).
fn axis_range(lo: i64, hi: i64, center: f64, sp: f64, cutoff: f64, cullable: bool) -> (i64, i64) {
    if !cullable || sp.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !cutoff.is_finite()
    {
        return (lo, hi);
    }
    let r = cutoff.sqrt();
    let a = (center - r) / sp - 1.0;
    let b = (center + r) / sp + 1.0;
    if !a.is_finite() || !b.is_finite() {
        return (lo, hi);
    }
    // `as i64` saturates, so astronomically wide supports clamp safely.
    ((a.floor() as i64).max(lo), (b.ceil() as i64).min(hi))
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
            assert_eq!(sim.oscillators().len(), 3);
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
                let expect: f64 = sim
                    .oscillators()
                    .iter()
                    .map(|o| o.contribution(pos, t))
                    .sum();
                assert!((field[i] - expect).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn retarget_moves_an_oscillator_and_changes_the_field() {
        let d = deck();
        World::run(2, move |comm| {
            let root_deck = if comm.rank() == 0 {
                Some(d.as_str())
            } else {
                None
            };
            let cfg = SimConfig {
                grid: [8, 8, 8],
                steps: 4,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            sim.step(comm);
            let before = sim.field().as_slice().to_vec();
            assert!(!sim.retarget_oscillator(99, [0.5; 3], 2.0));
            assert!(sim.retarget_oscillator(0, [0.9, 0.1, 0.9], 7.0));
            assert_eq!(sim.oscillators()[0].center, [0.9, 0.1, 0.9]);
            assert_eq!(sim.oscillators()[0].omega, 7.0);
            sim.step(comm);
            // The retargeted deck must produce the analytic field of the
            // *new* deck, identically on every rank.
            let t = sim.current_time();
            let field = sim.field();
            let local = sim.local_extent();
            let sp = sim.spacing();
            let mut differs = false;
            for (i, p) in local.iter_points().enumerate() {
                let pos = [
                    p[0] as f64 * sp[0],
                    p[1] as f64 * sp[1],
                    p[2] as f64 * sp[2],
                ];
                let expect: f64 = sim
                    .oscillators()
                    .iter()
                    .map(|o| o.contribution(pos, t))
                    .sum();
                assert!((field[i] - expect).abs() < 1e-12);
                if field[i] != before[i] {
                    differs = true;
                }
            }
            let any = comm.allreduce_scalar(u8::from(differs), |a, b| a.max(b));
            assert_eq!(any, 1, "retarget must actually change the field");
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

    #[test]
    fn culled_kernel_is_bitwise_identical_to_naive() {
        // The tentpole contract: support culling must reproduce the
        // all-pairs kernel bit for bit — on the dense demo deck (supports
        // cover the domain) and a sparse deck (most oscillator/cell pairs
        // culled).
        for deck_text in [deck(), sparse_deck(40)] {
            World::run(2, move |comm| {
                let cfg = SimConfig {
                    grid: [17, 13, 11],
                    ..SimConfig::default()
                };
                let root = if comm.rank() == 0 {
                    Some(deck_text.as_str())
                } else {
                    None
                };
                let mut naive = Simulation::new(comm, cfg.clone(), root);
                let mut culled = Simulation::new(comm, cfg, root);
                for _ in 0..4 {
                    naive.step_naive(comm);
                    culled.step(comm);
                    assert_eq!(
                        naive.field().as_ref(),
                        culled.field().as_ref(),
                        "culled diverged from naive"
                    );
                }
            });
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
