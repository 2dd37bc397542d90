//! AVF-LESLIE proxy: a temporally-evolving planar mixing layer (TML) on
//! a Cartesian grid (§4.2.2).
//!
//! Two fluid layers slide past one another (`u = U·tanh(y/δ)`); seeded
//! perturbations roll the shear layer up toward turbulence. The solver
//! is a simple explicit advection–diffusion update — a physics *proxy*,
//! not a compressible LES — but its data layout, halo exchange, derived
//! vorticity field, and ghost-blanked SENSEI adaptor match what the
//! paper's instrumentation touches.
//!
//! Decomposition is 1D slabs along z with one ghost plane per side,
//! exchanged over real `minimpi` point-to-point messages; z is periodic
//! (so every rank has two neighbors), x is periodic in-stencil, and y
//! uses one-sided differences at the free-stream boundaries.

use std::sync::{Arc, OnceLock};

use datamodel::{DataArray, DataSet, Extent, ImageData, GHOST_ARRAY_NAME};
use minimpi::Comm;
use sensei::{AdaptorError, Association, DataAdaptor};

const TAG_HALO_UP: u32 = 0x1E51_0001;
const TAG_HALO_DN: u32 = 0x1E51_0002;

/// Configuration of the TML problem.
#[derive(Clone, Debug)]
pub struct LeslieConfig {
    /// Global grid points per axis (z must be divisible across ranks).
    pub grid: [usize; 3],
    /// Domain size (the paper uses 4π × 4π × 2π).
    pub domain: [f64; 3],
    /// Free-stream speed of each layer (±U).
    pub u0: f64,
    /// Shear-layer thickness.
    pub delta: f64,
    /// Perturbation amplitude.
    pub epsilon: f64,
    /// Kinematic viscosity.
    pub nu: f64,
    /// Timestep.
    pub dt: f64,
}

impl Default for LeslieConfig {
    fn default() -> Self {
        let tau = std::f64::consts::TAU;
        LeslieConfig {
            grid: [33, 33, 17],
            domain: [2.0 * tau, 2.0 * tau, tau],
            u0: 1.0,
            delta: 0.5,
            epsilon: 0.05,
            nu: 5e-3,
            dt: 5e-3,
        }
    }
}

/// Per-rank TML state. Fields are stored over the **ghosted** local
/// extent (one extra z-plane per side) in shared buffers so the adaptor
/// views them zero-copy.
pub struct Leslie {
    config: LeslieConfig,
    /// Ghosted local extent (z grown by 1 each side, wrapping).
    ghosted_dims: [usize; 3],
    /// Interior z planes: `ghosted k ∈ 1..=nz_local`.
    nz_local: usize,
    /// Global z offset of the first interior plane.
    z_offset: usize,
    spacing: [f64; 3],
    u: Arc<Vec<f64>>,
    v: Arc<Vec<f64>>,
    w: Arc<Vec<f64>>,
    /// The ghost flags every step's adaptor shares, built on the first
    /// request: the ghost planes never move.
    ghosts: Arc<OnceLock<Arc<Vec<u8>>>>,
    step: u64,
}

impl Leslie {
    /// Initialize the TML (§4.2.2's initial flow field): hyperbolic-
    /// tangent shear plus deterministic sinusoidal perturbations.
    pub fn new(comm: &Comm, config: LeslieConfig) -> Self {
        let p = comm.size();
        let [nx, ny, nz] = config.grid;
        assert!(
            nz % p == 0,
            "global z planes ({nz}) must divide evenly across {p} ranks"
        );
        let nz_local = nz / p;
        assert!(nz_local >= 1, "each rank needs at least one z plane");
        let z_offset = comm.rank() * nz_local;
        let spacing = [
            config.domain[0] / nx as f64,
            config.domain[1] / (ny - 1) as f64,
            config.domain[2] / nz as f64,
        ];
        let ghosted_dims = [nx, ny, nz_local + 2];
        let n = nx * ny * (nz_local + 2);
        let (mut u, mut v, mut w) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let tau = std::f64::consts::TAU;
        for kz in 0..nz_local + 2 {
            // Global plane of this ghosted k (wrapping).
            let gz = (z_offset + nz + kz - 1) % nz;
            let z = gz as f64 * spacing[2];
            for jy in 0..ny {
                let y = jy as f64 * spacing[1] - config.domain[1] / 2.0;
                let shear = config.u0 * (y / config.delta).tanh();
                let envelope = (-y * y / (2.0 * config.delta * config.delta)).exp();
                for ix in 0..nx {
                    let x = ix as f64 * spacing[0];
                    let i = (kz * ny + jy) * nx + ix;
                    u[i] = shear
                        + config.epsilon
                            * envelope
                            * ((2.0 * tau * x / config.domain[0]).sin()
                                + 0.5 * (2.0 * tau * z / config.domain[2]).cos());
                    v[i] = config.epsilon
                        * envelope
                        * (tau * x / config.domain[0]).cos()
                        * (tau * z / config.domain[2]).sin();
                    w[i] = 0.5 * config.epsilon * envelope * (tau * x / config.domain[0]).sin();
                }
            }
        }
        Leslie {
            config,
            ghosted_dims,
            nz_local,
            z_offset,
            spacing,
            u: Arc::new(u),
            v: Arc::new(v),
            w: Arc::new(w),
            ghosts: Arc::default(),
            step: 0,
        }
    }

    /// One explicit advection–diffusion update of (u, v, w), then halo
    /// exchange of the ghost z-planes.
    pub fn step(&mut self, comm: &Comm) {
        let [nx, ny, _] = self.ghosted_dims;
        let dt = self.config.dt;
        let nu = self.config.nu;
        let [dx, dy, dz] = self.spacing;

        let u0 = Arc::clone(&self.u);
        let v0 = Arc::clone(&self.v);
        let w0 = Arc::clone(&self.w);
        let get = |f: &[f64], i: usize, j: usize, k: usize| f[(k * ny + j) * nx + i];
        // Periodic x; clamped y; interior z only (ghosts provide k±1).
        let xm = |i: usize| (i + nx - 1) % nx;
        let xp = |i: usize| (i + 1) % nx;
        let ym = |j: usize| j.saturating_sub(1);
        let yp = |j: usize| (j + 1).min(ny - 1);

        let update = |f0: &[f64]| -> Vec<f64> {
            let mut out = f0.to_vec();
            for k in 1..=self.nz_local {
                for j in 0..ny {
                    for i in 0..nx {
                        let c = get(f0, i, j, k);
                        let fxm = get(f0, xm(i), j, k);
                        let fxp = get(f0, xp(i), j, k);
                        let fym = get(f0, i, ym(j), k);
                        let fyp = get(f0, i, yp(j), k);
                        let fzm = get(f0, i, j, k - 1);
                        let fzp = get(f0, i, j, k + 1);
                        let uu = get(&u0, i, j, k);
                        let vv = get(&v0, i, j, k);
                        let ww = get(&w0, i, j, k);
                        let adv = uu * (fxp - fxm) / (2.0 * dx)
                            + vv * (fyp - fym) / (2.0 * dy)
                            + ww * (fzp - fzm) / (2.0 * dz);
                        let lap = (fxp - 2.0 * c + fxm) / (dx * dx)
                            + (fyp - 2.0 * c + fym) / (dy * dy)
                            + (fzp - 2.0 * c + fzm) / (dz * dz);
                        out[(k * ny + j) * nx + i] = c + dt * (nu * lap - adv);
                    }
                }
            }
            out
        };
        let (nu_, nv_, nw_) = (update(&u0), update(&v0), update(&w0));
        self.u = Arc::new(nu_);
        self.v = Arc::new(nv_);
        self.w = Arc::new(nw_);
        self.exchange_halos(comm);
        self.step += 1;
    }

    /// Exchange ghost z-planes with the periodic z neighbors.
    fn exchange_halos(&mut self, comm: &Comm) {
        let p = comm.size();
        let me = comm.rank();
        let up = (me + 1) % p;
        let down = (me + p - 1) % p;
        let [nx, ny, _] = self.ghosted_dims;
        let plane = nx * ny;
        for (field, tag_base) in [(0usize, 0u32), (1, 4), (2, 8)] {
            let buf = match field {
                0 => Arc::clone(&self.u),
                1 => Arc::clone(&self.v),
                _ => Arc::clone(&self.w),
            };
            // My top interior plane goes up; bottom interior goes down.
            let top: Vec<f64> = buf[self.nz_local * plane..(self.nz_local + 1) * plane].to_vec();
            let bottom: Vec<f64> = buf[plane..2 * plane].to_vec();
            comm.send(up, TAG_HALO_UP + tag_base, top);
            comm.send(down, TAG_HALO_DN + tag_base, bottom);
            let from_down: Vec<f64> = comm.recv(down, TAG_HALO_UP + tag_base);
            let from_up: Vec<f64> = comm.recv(up, TAG_HALO_DN + tag_base);
            let target = match field {
                0 => &mut self.u,
                1 => &mut self.v,
                _ => &mut self.w,
            };
            let inner = Arc::make_mut(target);
            inner[..plane].copy_from_slice(&from_down);
            let last = (self.nz_local + 1) * plane;
            inner[last..last + plane].copy_from_slice(&from_up);
        }
    }

    /// Vorticity magnitude `|∇×u|` over the ghosted local grid — the
    /// derived field the SENSEI adaptor computes (§4.2.2).
    pub(crate) fn vorticity_magnitude(&self) -> Vec<f64> {
        let [nx, ny, nzg] = self.ghosted_dims;
        let [dx, dy, dz] = self.spacing;
        let get = |f: &[f64], i: usize, j: usize, k: usize| f[(k * ny + j) * nx + i];
        let mut out = vec![0.0; nx * ny * nzg];
        let xm = |i: usize| (i + nx - 1) % nx;
        let xp = |i: usize| (i + 1) % nx;
        for k in 1..nzg - 1 {
            for j in 0..ny {
                let jm = j.saturating_sub(1);
                let jp = (j + 1).min(ny - 1);
                for i in 0..nx {
                    let dwdy = (get(&self.w, i, jp, k) - get(&self.w, i, jm, k)) / (2.0 * dy);
                    let dvdz = (get(&self.v, i, j, k + 1) - get(&self.v, i, j, k - 1)) / (2.0 * dz);
                    let dudz = (get(&self.u, i, j, k + 1) - get(&self.u, i, j, k - 1)) / (2.0 * dz);
                    let dwdx = (get(&self.w, xp(i), j, k) - get(&self.w, xm(i), j, k)) / (2.0 * dx);
                    let dvdx = (get(&self.v, xp(i), j, k) - get(&self.v, xm(i), j, k)) / (2.0 * dx);
                    let dudy = (get(&self.u, i, jp, k) - get(&self.u, i, jm, k)) / (2.0 * dy);
                    let ox = dwdy - dvdz;
                    let oy = dudz - dwdx;
                    let oz = dvdx - dudy;
                    out[(k * ny + j) * nx + i] = (ox * ox + oy * oy + oz * oz).sqrt();
                }
            }
        }
        out
    }

    /// Domain-summed kinetic energy over interior points (diagnostic).
    pub fn kinetic_energy(&self, comm: &Comm) -> f64 {
        let [nx, ny, _] = self.ghosted_dims;
        let mut ke = 0.0;
        for k in 1..=self.nz_local {
            for j in 0..ny {
                for i in 0..nx {
                    let n = (k * ny + j) * nx + i;
                    ke += 0.5
                        * (self.u[n] * self.u[n] + self.v[n] * self.v[n] + self.w[n] * self.w[n]);
                }
            }
        }
        comm.allreduce_scalar(ke, |a, b| a + b)
    }

    /// Completed steps.
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Grid spacing.
    pub fn spacing(&self) -> [f64; 3] {
        self.spacing
    }
}

/// SENSEI data adaptor for the TML: exposes the velocity components
/// zero-copy over the **ghosted** grid, computes vorticity magnitude once
/// a step, and marks ghost planes via the `vtkGhostType` convention so
/// analyses blank them.
pub struct LeslieAdaptor {
    u: Arc<Vec<f64>>,
    v: Arc<Vec<f64>>,
    w: Arc<Vec<f64>>,
    vorticity: Arc<Vec<f64>>,
    ghosted_extent: Extent,
    global_extent: Extent,
    ghosts: Arc<OnceLock<Arc<Vec<u8>>>>,
    spacing: [f64; 3],
    step: u64,
    dt: f64,
}

/// The point arrays a LESLIE block lists.
const POINT_ARRAYS: [&str; 5] = ["u", "v", "w", "vorticity", GHOST_ARRAY_NAME];

impl LeslieAdaptor {
    /// Snapshot the solver state. Velocity views are zero-copy; the
    /// derived vorticity costs one stencil pass (the <0.5 s adaptor
    /// floor of Fig. 16), shared by every attach of the step.
    pub fn new(sim: &Leslie) -> Self {
        let [nx, ny, nzg] = sim.ghosted_dims;
        let gz = sim.config.grid[2];
        // Ghosted extent in global z index space (lo may be -1: ghost of
        // the wrapped neighbor).
        let lo_z = sim.z_offset as i64 - 1;
        let ghosted_extent = Extent::new(
            [0, 0, lo_z],
            [nx as i64 - 1, ny as i64 - 1, lo_z + nzg as i64 - 1],
        );
        let global_extent = Extent::new([0, 0, -1], [nx as i64 - 1, ny as i64 - 1, gz as i64]);
        LeslieAdaptor {
            u: sim.u.clone(),
            v: sim.v.clone(),
            w: sim.w.clone(),
            vorticity: Arc::new(sim.vorticity_magnitude()),
            ghosted_extent,
            global_extent,
            ghosts: Arc::clone(&sim.ghosts),
            spacing: sim.spacing,
            step: sim.step,
            dt: sim.config.dt,
        }
    }

    /// The ghost flags, built by the first request of the run: the
    /// bottom and top z-planes are ghosts.
    fn ghosts(&self) -> &Arc<Vec<u8>> {
        self.ghosts.get_or_init(|| {
            let [nx, ny, _] = self.ghosted_extent.point_dims();
            let (n, plane) = (self.ghosted_extent.num_points(), nx * ny);
            let mut ghosts = vec![0u8; n];
            ghosts[..plane].fill(1);
            ghosts[n - plane..].fill(1);
            Arc::new(ghosts)
        })
    }

    /// The named point array, a view of the step's buffer or the run's
    /// flags; none for a name not in [`POINT_ARRAYS`].
    fn point_array(&self, name: &str) -> Option<DataArray> {
        let array = match name {
            "u" => DataArray::shared("u", 1, Arc::clone(&self.u)),
            "v" => DataArray::shared("v", 1, Arc::clone(&self.v)),
            "w" => DataArray::shared("w", 1, Arc::clone(&self.w)),
            "vorticity" => DataArray::shared("vorticity", 1, Arc::clone(&self.vorticity)),
            GHOST_ARRAY_NAME => DataArray::shared(GHOST_ARRAY_NAME, 1, Arc::clone(self.ghosts())),
            _ => return None,
        };
        // Every LESLIE field is host-resident; declaring the space at
        // the publish boundary is what lets device-side consumers be
        // forced through an explicit transfer.
        Some(array.with_space(datamodel::MemorySpace::Host))
    }
}

impl DataAdaptor for LeslieAdaptor {
    fn time(&self) -> f64 {
        self.step as f64 * self.dt
    }

    fn step(&self) -> u64 {
        self.step
    }

    fn mesh(&self) -> DataSet {
        DataSet::Image(
            ImageData::new(self.ghosted_extent, self.global_extent)
                .with_geometry([0.0; 3], self.spacing),
        )
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
        let layout = "LESLIE produces a structured grid";
        let refused = || AdaptorError::classify(name, assoc, [&POINT_ARRAYS, &[]], layout);
        let (Association::Point, DataSet::Image(g)) = (assoc, mesh) else {
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
    use sensei::analysis::descriptive::DescriptiveStats;
    use sensei::analysis::AnalysisAdaptor as _;

    fn small() -> LeslieConfig {
        LeslieConfig {
            grid: [16, 17, 8],
            ..LeslieConfig::default()
        }
    }

    #[test]
    fn shear_profile_initialized() {
        World::run(1, |comm| {
            let sim = Leslie::new(comm, small());
            let [nx, ny, _] = sim.ghosted_dims;
            // Bottom of the layer flows −u0-ish, top +u0-ish.
            let lo = sim.u[2 * ny * nx + 3];
            let hi = sim.u[(2 * ny + ny - 1) * nx + 3];
            assert!(lo < -0.8, "bottom stream {lo}");
            assert!(hi > 0.8, "top stream {hi}");
        });
    }

    #[test]
    fn halo_planes_match_neighbors_after_step() {
        World::run(2, |comm| {
            let mut sim = Leslie::new(comm, small());
            sim.step(comm);
            sim.step(comm);
            // Gather every rank's interior boundary planes and ghosts.
            let [nx, ny, _] = sim.ghosted_dims;
            let plane = nx * ny;
            let interior_top: Vec<f64> =
                sim.u[sim.nz_local * plane..(sim.nz_local + 1) * plane].to_vec();
            let ghost_bottom: Vec<f64> = sim.u[..plane].to_vec();
            let tops = comm.allgather(interior_top);
            let ghosts = comm.allgather(ghost_bottom);
            let p = comm.size();
            for (r, ghost) in ghosts.iter().enumerate() {
                let below = (r + p - 1) % p;
                assert_eq!(
                    *ghost, tops[below],
                    "rank {r}'s bottom ghost = rank {below}'s top interior"
                );
            }
        });
    }

    #[test]
    fn decomposition_invariance_of_energy() {
        let e1 = World::run(1, |comm| {
            let mut sim = Leslie::new(comm, small());
            for _ in 0..3 {
                sim.step(comm);
            }
            sim.kinetic_energy(comm)
        });
        let e2 = World::run(2, |comm| {
            let mut sim = Leslie::new(comm, small());
            for _ in 0..3 {
                sim.step(comm);
            }
            sim.kinetic_energy(comm)
        });
        let rel = (e1[0] - e2[0]).abs() / e1[0];
        assert!(rel < 1e-12, "E(1 rank)={} E(2 ranks)={}", e1[0], e2[0]);
    }

    #[test]
    fn vorticity_peaks_in_the_shear_layer() {
        World::run(1, |comm| {
            let sim = Leslie::new(comm, small());
            let vort = sim.vorticity_magnitude();
            let [nx, ny, _] = sim.ghosted_dims;
            let mid_j = ny / 2;
            let edge_j = 1;
            let at = |j: usize| vort[(2 * ny + j) * nx + 3];
            assert!(
                at(mid_j) > 4.0 * at(edge_j).max(1e-9),
                "layer center {} ≫ free stream {}",
                at(mid_j),
                at(edge_j)
            );
        });
    }

    #[test]
    fn mixing_layer_thickens_over_time() {
        // The TML's defining evolution: the shear layer spreads (viscous
        // diffusion plus perturbation stirring widen the tanh profile).
        World::run(1, |comm| {
            // Elevated viscosity so the spreading is visible in a short
            // test run.
            let mut sim = Leslie::new(
                comm,
                LeslieConfig {
                    nu: 0.05,
                    ..small()
                },
            );
            let [nx, ny, _] = sim.ghosted_dims;
            // Momentum-thickness proxy: ∫ (1 − ū²/U²) dy over the mean
            // (x,z-averaged) streamwise profile.
            let thickness = |s: &Leslie| -> f64 {
                let mut th = 0.0;
                for j in 0..ny {
                    let mut mean = 0.0;
                    let mut count = 0.0;
                    for k in 1..=s.nz_local {
                        for i in 0..nx {
                            mean += s.u[(k * ny + j) * nx + i];
                            count += 1.0;
                        }
                    }
                    let ubar = mean / count;
                    th += 1.0 - (ubar * ubar).min(1.0);
                }
                th
            };
            let t0 = thickness(&sim);
            for _ in 0..60 {
                sim.step(comm);
            }
            let t1 = thickness(&sim);
            assert!(t1 > 1.02 * t0, "layer thickened: {t0} → {t1}");
        });
    }

    #[test]
    fn adaptor_blanks_ghosts_and_shares_velocity() {
        World::run(2, |comm| {
            let sim = Leslie::new(comm, small());
            let adaptor = LeslieAdaptor::new(&sim);
            let mesh = adaptor.full_mesh();
            let arr = mesh
                .point_data()
                .expect("leslie adaptor publishes point data")
                .get("u")
                .expect("leslie adaptor publishes velocity component u");
            assert!(arr.is_zero_copy(), "velocity views are zero-copy");
            // Ghost-aware analysis counts only interior points.
            let mut stats = DescriptiveStats::new("vorticity");
            let handle = stats.results_handle();
            stats.execute(&adaptor, comm);
            let s = (*handle.lock()).unwrap();
            let [nx, ny, _] = sim.ghosted_dims;
            let interior = nx * ny * sim.nz_local * comm.size();
            assert_eq!(s.count as usize, interior, "ghost planes excluded");
        });
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_grid_rejected() {
        World::run(3, |comm| {
            let _ = Leslie::new(comm, small()); // 8 z-planes on 3 ranks
        });
    }
}
