//! PHASTA proxy: an unstructured tetrahedral flow solver around a
//! vertical tail with a tunable synthetic jet (§4.2.1).
//!
//! The mesh is a Kuhn-tetrahedralized lattice over the flow domain,
//! slab-decomposed along x. The solver proxy relaxes nodal velocity
//! toward a potential-like flow around the tail while a synthetic jet —
//! whose **frequency and amplitude are reconfigurable between steps**,
//! the live-steering capability §4.2.1 highlights — injects an
//! oscillating crossflow at the tail root.
//!
//! The SENSEI adaptor reproduces the paper's copy semantics exactly:
//! nodal coordinates and fields map **zero-copy** (shared buffers);
//! the VTK connectivity is a **full copy** made once, on the first mesh
//! request of the run, and shared by every later mesh.

use std::sync::{Arc, OnceLock};

use datamodel::{Buffer, CellType, DataArray, DataSet, UnstructuredGrid};
use minimpi::Comm;
use sensei::{AdaptorError, Association, DataAdaptor};

/// Configuration of the tail-flow problem.
#[derive(Clone, Debug)]
pub struct PhastaConfig {
    /// Structured lattice nodes per axis (tetrahedralized 6:1).
    pub lattice: [usize; 3],
    /// Domain size.
    pub domain: [f64; 3],
    /// Free-stream velocity (+x).
    pub u_infinity: f64,
    /// Synthetic-jet amplitude (live-tunable).
    pub jet_amplitude: f64,
    /// Synthetic-jet frequency (live-tunable).
    pub jet_frequency: f64,
    /// Relaxation rate of the solver proxy.
    pub relax: f64,
    /// Timestep.
    pub dt: f64,
}

impl Default for PhastaConfig {
    fn default() -> Self {
        PhastaConfig {
            lattice: [17, 13, 13],
            domain: [2.0, 1.0, 1.0],
            u_infinity: 1.0,
            jet_amplitude: 0.3,
            jet_frequency: 8.0,
            relax: 0.15,
            dt: 0.01,
        }
    }
}

/// The tail geometry: a thin vertical fin in the middle of the domain.
fn inside_tail(p: [f64; 3], domain: [f64; 3]) -> bool {
    let cx = domain[0] * 0.45;
    let half_chord = domain[0] * 0.12;
    let thickness = domain[1] * 0.04;
    let height = domain[2] * 0.6;
    (p[0] - cx).abs() < half_chord * (1.0 - (p[2] / height).min(1.0) * 0.6)
        && (p[1] - domain[1] * 0.5).abs() < thickness
        && p[2] < height
}

/// Per-rank PHASTA state: a slab of the tetrahedral mesh plus shared
/// nodal buffers.
pub struct Phasta {
    config: PhastaConfig,
    /// Nodal coordinates (3 SoA buffers, zero-copy shareable).
    coords: [Arc<Vec<f64>>; 3],
    /// Velocity components (SoA, zero-copy shareable).
    velocity: [Arc<Vec<f64>>; 3],
    /// Tet connectivity (local node indices), the solver's own.
    connectivity: Arc<Vec<i64>>,
    /// The slab's VTK cells, which every step's adaptor shares: see
    /// [`PhastaAdaptor::grid`].
    cells: Arc<OnceLock<UnstructuredGrid>>,
    /// Nodes flagged inside the tail (no-slip).
    solid: Vec<bool>,
    /// Node-to-node adjacency (from tets), for the relaxation stencil.
    neighbors: Vec<Vec<u32>>,
    /// Local lattice dims.
    local_nodes: [usize; 3],
    step: u64,
}

impl Phasta {
    /// Build the rank-local mesh slab and initial flow.
    pub fn new(comm: &Comm, config: PhastaConfig) -> Self {
        let [gx, gy, gz] = config.lattice;
        let p = comm.size();
        assert!(gx >= 2 * p, "need at least two x-planes of cells per rank");
        // Slab decomposition over x lattice cells, sharing planes.
        let cells_x = gx - 1;
        let base = cells_x / p;
        let extra = cells_x % p;
        let my_cells = base + usize::from(comm.rank() < extra);
        let x_offset = comm.rank() * base + comm.rank().min(extra);
        let nx = my_cells + 1;
        let local_nodes = [nx, gy, gz];
        let nodes = [gx, gy, gz];
        let spacing: [f64; 3] = std::array::from_fn(|a| config.domain[a] / (nodes[a] - 1) as f64);

        let nn = nx * gy * gz;
        let node = |i: usize, j: usize, k: usize| (k * gy + j) * nx + i;
        let mut xs = Vec::with_capacity(nn);
        let mut ys = Vec::with_capacity(nn);
        let mut zs = Vec::with_capacity(nn);
        let mut solid = Vec::with_capacity(nn);
        for k in 0..gz {
            for j in 0..gy {
                for i in 0..nx {
                    let pos = [
                        (x_offset + i) as f64 * spacing[0],
                        j as f64 * spacing[1],
                        k as f64 * spacing[2],
                    ];
                    xs.push(pos[0]);
                    ys.push(pos[1]);
                    zs.push(pos[2]);
                    solid.push(inside_tail(pos, config.domain));
                }
            }
        }

        // Kuhn 6-tet split of every lattice cell.
        const TETS: [[usize; 4]; 6] = [
            [0, 1, 3, 7],
            [0, 1, 5, 7],
            [0, 2, 3, 7],
            [0, 2, 6, 7],
            [0, 4, 5, 7],
            [0, 4, 6, 7],
        ];
        let mut connectivity = Vec::with_capacity((nx - 1) * (gy - 1) * (gz - 1) * 24);
        for k in 0..gz - 1 {
            for j in 0..gy - 1 {
                for i in 0..nx - 1 {
                    let corner =
                        |c: usize| node(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1)) as i64;
                    for t in &TETS {
                        for &c in t {
                            connectivity.push(corner(c));
                        }
                    }
                }
            }
        }

        // Node adjacency from tet edges.
        let _ = x_offset; // slab origin folded into the coordinates above
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); nn];
        for tet in connectivity.chunks(4) {
            for a in 0..4 {
                for b in 0..4 {
                    if a != b {
                        let na = tet[a] as usize;
                        let nb = tet[b] as u32;
                        if !neighbors[na].contains(&nb) {
                            neighbors[na].push(nb);
                        }
                    }
                }
            }
        }

        // Initial flow: free stream, zero in the solid.
        let mut u = vec![config.u_infinity; nn];
        let (v, w) = (vec![0.0; nn], vec![0.0; nn]);
        for (n, &s) in solid.iter().enumerate() {
            if s {
                u[n] = 0.0;
            }
        }
        Phasta {
            config,
            coords: [Arc::new(xs), Arc::new(ys), Arc::new(zs)],
            velocity: [Arc::new(u), Arc::new(v), Arc::new(w)],
            connectivity: Arc::new(connectivity),
            cells: Arc::default(),
            solid,
            neighbors,
            local_nodes,
            step: 0,
        }
    }

    /// Retune the synthetic jet between steps — the live problem
    /// redefinition loop of §4.2.1 ("the frequency and the amplitude of
    /// the flow control can be manipulated interactively").
    pub fn set_jet(&mut self, amplitude: f64, frequency: f64) {
        self.config.jet_amplitude = amplitude;
        self.config.jet_frequency = frequency;
    }

    /// One relaxation step with jet forcing, then shared-plane averaging
    /// with the x neighbors.
    pub fn step(&mut self, comm: &Comm) {
        let t = self.step as f64 * self.config.dt;
        let nn = self.solid.len();
        let relax = self.config.relax;
        let jet = self.config.jet_amplitude * (self.config.jet_frequency * t).sin();
        let domain = self.config.domain;
        let (xs, ys, zs) = (&self.coords[0], &self.coords[1], &self.coords[2]);

        let mut new_vel: [Vec<f64>; 3] = [
            self.velocity[0].as_ref().clone(),
            self.velocity[1].as_ref().clone(),
            self.velocity[2].as_ref().clone(),
        ];
        for n in 0..nn {
            if self.solid[n] {
                for comp in new_vel.iter_mut() {
                    comp[n] = 0.0;
                }
                continue;
            }
            // Relax toward the neighborhood mean (smoothing proxy for
            // the implicit solve) plus free-stream recovery.
            for (c, comp) in new_vel.iter_mut().enumerate() {
                let mut mean = 0.0;
                for &nb in &self.neighbors[n] {
                    mean += self.velocity[c][nb as usize];
                }
                let mean = if self.neighbors[n].is_empty() {
                    self.velocity[c][n]
                } else {
                    mean / self.neighbors[n].len() as f64
                };
                let target = if c == 0 { self.config.u_infinity } else { 0.0 };
                comp[n] = self.velocity[c][n]
                    + relax * (mean - self.velocity[c][n])
                    + 0.02 * relax * (target - self.velocity[c][n]);
            }
            // Jet forcing near the tail root.
            let pos = [xs[n], ys[n], zs[n]];
            let jet_center = [domain[0] * 0.45, domain[1] * 0.5, 0.05 * domain[2]];
            let d2 = (pos[0] - jet_center[0]).powi(2)
                + (pos[1] - jet_center[1]).powi(2)
                + (pos[2] - jet_center[2]).powi(2);
            let influence = (-d2 / 0.01).exp();
            new_vel[1][n] += jet * influence;
        }

        // Average the shared x-planes with neighbors (continuity across
        // the slab decomposition).
        self.exchange_shared_planes(comm, &mut new_vel);
        self.velocity = [
            Arc::new(std::mem::take(&mut new_vel[0])),
            Arc::new(std::mem::take(&mut new_vel[1])),
            Arc::new(std::mem::take(&mut new_vel[2])),
        ];
        self.step += 1;
    }

    fn exchange_shared_planes(&self, comm: &Comm, vel: &mut [Vec<f64>; 3]) {
        const TAG_L: u32 = 0x0FA5_0001;
        const TAG_R: u32 = 0x0FA5_0002;
        let me = comm.rank();
        let p = comm.size();
        let [nx, gy, gz] = self.local_nodes;
        let plane_nodes: Vec<usize> = (0..gz)
            .flat_map(|k| (0..gy).map(move |j| (k * gy + j) * nx))
            .collect();
        let right_nodes: Vec<usize> = plane_nodes.iter().map(|n| n + nx - 1).collect();
        for (c, vc) in vel.iter_mut().enumerate() {
            let tag_off = c as u32 * 16;
            if me + 1 < p {
                let outgoing: Vec<f64> = right_nodes.iter().map(|&n| vc[n]).collect();
                comm.send(me + 1, TAG_R + tag_off, outgoing);
            }
            if me > 0 {
                let outgoing: Vec<f64> = plane_nodes.iter().map(|&n| vc[n]).collect();
                comm.send(me - 1, TAG_L + tag_off, outgoing);
                let theirs: Vec<f64> = comm.recv(me - 1, TAG_R + tag_off);
                for (i, &n) in plane_nodes.iter().enumerate() {
                    vc[n] = 0.5 * (vc[n] + theirs[i]);
                }
            }
            if me + 1 < p {
                let theirs: Vec<f64> = comm.recv(me + 1, TAG_L + tag_off);
                for (i, &n) in right_nodes.iter().enumerate() {
                    vc[n] = 0.5 * (vc[n] + theirs[i]);
                }
            }
        }
    }

    /// Local tet count.
    pub(crate) fn num_tets(&self) -> usize {
        self.connectivity.len() / 4
    }

    /// Global element count (collective).
    pub fn total_tets(&self, comm: &Comm) -> usize {
        comm.allreduce_scalar(self.num_tets(), |a, b| a + b)
    }

    /// Completed steps.
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Maximum |v| (crossflow) component over local fluid nodes — the
    /// jet's observable effect.
    pub fn max_crossflow(&self) -> f64 {
        self.velocity[1]
            .iter()
            .zip(&self.solid)
            .filter(|(_, &s)| !s)
            .map(|(v, _)| v.abs())
            .fold(0.0, f64::max)
    }
}

/// SENSEI data adaptor for PHASTA: coordinates and velocity are
/// zero-copy SoA views, velocity magnitude is derived on demand, and the
/// VTK cells are the run's one copy of the solver's connectivity.
pub struct PhastaAdaptor {
    coords: [Arc<Vec<f64>>; 3],
    velocity: [Arc<Vec<f64>>; 3],
    connectivity: Arc<Vec<i64>>,
    cells: Arc<OnceLock<UnstructuredGrid>>,
    step: u64,
    dt: f64,
}

/// The point arrays a PHASTA slab lists.
const POINT_ARRAYS: [&str; 2] = ["velocity", "velmag"];

/// Three SoA components as views of the solver's buffers.
fn views(xyz: &[Arc<Vec<f64>>; 3]) -> Vec<Buffer<f64>> {
    Vec::from(xyz.each_ref().map(|c| Buffer::Shared(Arc::clone(c))))
}

impl PhastaAdaptor {
    /// Snapshot the solver state (O(1): every buffer is shared).
    pub fn new(sim: &Phasta) -> Self {
        PhastaAdaptor {
            coords: sim.coords.each_ref().map(Arc::clone),
            velocity: sim.velocity.each_ref().map(Arc::clone),
            connectivity: Arc::clone(&sim.connectivity),
            cells: Arc::clone(&sim.cells),
            step: sim.step,
            dt: sim.config.dt,
        }
    }

    /// The mesh: the nodal coordinates in place, and the slab's VTK
    /// cells. Those are the one real copy in the PHASTA coupling
    /// (§4.2.1): the solver's connectivity, copied and checked as VTK
    /// cells by the run's first mesh request. The simulation keeps that
    /// first mesh (the coordinates never move), so every later mesh is
    /// a clone of it that shares its points, connectivity, offsets and
    /// cell types.
    fn grid(&self) -> UnstructuredGrid {
        let cells = self.cells.get_or_init(|| {
            let points = DataArray::soa("points", views(&self.coords));
            let n_tets = self.connectivity.len() / 4;
            let offsets = (0..=n_tets).map(|c| c * 4).collect();
            let types = vec![CellType::Tetra; n_tets];
            UnstructuredGrid::new(points, self.connectivity.to_vec(), offsets, types)
        });
        cells.clone()
    }

    /// The named point array: the velocity in place, or its magnitude,
    /// derived here; none for a name not in [`POINT_ARRAYS`].
    fn point_array(&self, name: &str) -> Option<DataArray> {
        let [u, v, w] = &self.velocity;
        match name {
            // Zero-copy SoA borrow of the solver's host buffers; the
            // explicit space keeps device consumers honest.
            "velocity" => {
                let array = DataArray::soa("velocity", views(&self.velocity));
                Some(array.with_space(datamodel::MemorySpace::Host))
            }
            "velmag" => {
                let speed = |i: usize| (u[i] * u[i] + v[i] * v[i] + w[i] * w[i]).sqrt();
                let mags = (0..u.len()).map(speed).collect();
                Some(DataArray::owned("velmag", 1, mags))
            }
            _ => None,
        }
    }
}

impl DataAdaptor for PhastaAdaptor {
    fn time(&self) -> f64 {
        self.step as f64 * self.dt
    }

    fn step(&self) -> u64 {
        self.step
    }

    fn mesh(&self) -> DataSet {
        DataSet::Unstructured(self.grid())
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
        let layout = "PHASTA produces an unstructured mesh";
        let refused = || AdaptorError::classify(name, assoc, [&POINT_ARRAYS, &[]], layout);
        let (Association::Point, DataSet::Unstructured(g)) = (assoc, mesh) else {
            return Err(refused());
        };
        g.add_point_array(self.point_array(name).ok_or_else(refused)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::MemoryFootprint;
    use minimpi::World;

    fn small() -> PhastaConfig {
        PhastaConfig {
            lattice: [13, 9, 9],
            ..PhastaConfig::default()
        }
    }

    #[test]
    fn mesh_counts_are_consistent() {
        World::run(2, |comm| {
            let sim = Phasta::new(comm, small());
            // 6 tets per lattice cell.
            let [gx, gy, gz] = [13usize, 9, 9];
            let total = sim.total_tets(comm);
            assert_eq!(total, (gx - 1) * (gy - 1) * (gz - 1) * 6);
            assert!(!sim.solid.is_empty());
        });
    }

    #[test]
    fn tail_enforces_no_slip() {
        World::run(1, |comm| {
            let mut sim = Phasta::new(comm, small());
            for _ in 0..5 {
                sim.step(comm);
            }
            for n in 0..sim.solid.len() {
                if sim.solid[n] {
                    let v = sim.velocity.each_ref().map(|c| c[n]);
                    assert_eq!(v, [0.0; 3], "node {n} in the tail");
                }
            }
            // The tail exists in this lattice.
            assert!(sim.solid.iter().any(|&s| s), "tail occupies some nodes");
        });
    }

    #[test]
    fn jet_amplitude_controls_crossflow() {
        World::run(1, |comm| {
            let run = |amp: f64| {
                let mut sim = Phasta::new(
                    comm,
                    PhastaConfig {
                        jet_amplitude: amp,
                        ..small()
                    },
                );
                for _ in 0..10 {
                    sim.step(comm);
                }
                sim.max_crossflow()
            };
            let weak = run(0.05);
            let strong = run(0.6);
            assert!(
                strong > 2.0 * weak,
                "stronger jet ⇒ stronger crossflow ({weak} vs {strong})"
            );
        });
    }

    #[test]
    fn live_retuning_takes_effect() {
        World::run(1, |comm| {
            let mut sim = Phasta::new(
                comm,
                PhastaConfig {
                    jet_amplitude: 0.0,
                    ..small()
                },
            );
            for _ in 0..5 {
                sim.step(comm);
            }
            let quiet = sim.max_crossflow();
            sim.set_jet(0.8, 12.0); // steer mid-run
            for _ in 0..10 {
                sim.step(comm);
            }
            let loud = sim.max_crossflow();
            assert!(loud > quiet + 0.01, "retuned jet visible: {quiet} → {loud}");
        });
    }

    #[test]
    fn adaptor_copy_semantics_match_paper() {
        World::run(1, |comm| {
            let mut sim = Phasta::new(comm, small());
            let adaptor = PhastaAdaptor::new(&sim);
            let mesh = adaptor.full_mesh();
            let DataSet::Unstructured(g) = &mesh else {
                panic!("unstructured mesh")
            };
            // Coordinates and velocity: zero-copy.
            assert!(g.points.is_zero_copy(), "nodal coordinates shared");
            assert!(
                g.point_data.get("velocity").unwrap().is_zero_copy(),
                "field arrays shared"
            );
            // Connectivity: a real copy, distinct storage.
            assert_eq!(g.connectivity.len(), sim.connectivity.len());
            assert_ne!(
                g.connectivity.as_ptr(),
                sim.connectivity.as_ptr(),
                "connectivity is a full copy"
            );
            // The memory gauges' split: the solver's coordinates and
            // velocity are the shared bytes; the cells, the derived
            // `velmag` and the names are owned, the cells counted in
            // full by every mesh that shares the one copy.
            let bytes = |c: &Arc<Vec<f64>>| c.capacity() * 8;
            let shared: usize = sim.coords.iter().chain(&sim.velocity).map(bytes).sum();
            let cells = g.connectivity.capacity() * 8
                + g.offsets.capacity() * std::mem::size_of::<usize>()
                + g.cell_types.capacity();
            let velmag = g.point_data.get("velmag").unwrap().num_tuples() * 8;
            let names: usize = ["points", "velocity", "velmag"].map(str::len).iter().sum();
            let owned = mesh.heap_bytes(false);
            assert_eq!(mesh.heap_bytes(true) - owned, shared, "shared bytes");
            assert_eq!(owned, cells + velmag + names, "owned bytes");
            assert_eq!(adaptor.mesh().heap_bytes(false), cells + "points".len());
            // Made once: a second mesh, and a later step's adaptor's,
            // share the first one's cells.
            let cells = |mesh: DataSet| match mesh {
                DataSet::Unstructured(g) => [
                    g.connectivity.as_ptr() as usize,
                    g.offsets.as_ptr() as usize,
                    g.cell_types.as_ptr() as usize,
                ],
                _ => panic!("unstructured mesh"),
            };
            let first = cells(mesh.clone());
            assert_eq!(cells(adaptor.mesh()), first, "a second mesh() call");
            sim.step(comm);
            assert_eq!(
                cells(PhastaAdaptor::new(&sim).mesh()),
                first,
                "a later step"
            );
            assert_ne!(first[0], sim.connectivity.as_ptr() as usize);
        });
    }

    #[test]
    fn shared_planes_agree_across_ranks() {
        World::run(2, |comm| {
            let mut sim = Phasta::new(comm, small());
            for _ in 0..3 {
                sim.step(comm);
            }
            // Rank 0's right plane equals rank 1's left plane after the
            // averaging exchange.
            let [nx, gy, gz] = sim.local_nodes;
            let vals: Vec<f64> = if comm.rank() == 0 {
                (0..gz)
                    .flat_map(|k| (0..gy).map(move |j| (k * gy + j) * nx + nx - 1))
                    .map(|n| sim.velocity[0][n])
                    .collect()
            } else {
                (0..gz)
                    .flat_map(|k| (0..gy).map(move |j| (k * gy + j) * nx))
                    .map(|n| sim.velocity[0][n])
                    .collect()
            };
            let all = comm.allgather(vals);
            assert_eq!(all[0], all[1], "shared plane is single-valued");
        });
    }

    #[test]
    fn a_cut_through_the_tail_covers_the_domain() {
        // The plane y = 0.5 spans the whole x–z face of the domain on
        // both slabs (2 × 1): its frame over the mesh's bounds is drawn
        // at every pixel, none left at the background.
        use render::composite::Compositor::BinarySwap;
        use render::scene::{Leaf, Plot, Scene};
        use render::{Color, Colormap};
        use sensei::analysis::leaf_views;
        use std::cell::Cell;
        let files = World::run(2, |comm| {
            let sim = Phasta::new(comm, small());
            let mesh = PhastaAdaptor::new(&sim).full_mesh();
            let views = leaf_views(&mesh, Association::Point, "velmag").unwrap();
            let DataSet::Unstructured(g) = &mesh else {
                panic!("unstructured mesh")
            };
            let plot = Plot::Cut {
                axis: 1,
                at: 0.5,
                cmap: Colormap::cool_warm(),
            };
            let (swap, magenta) = (BinarySwap, Color::rgb(255, 0, 255));
            let scene = Scene::new("cut", (64, 32), swap, magenta, vec![plot]);
            let leaf = (Leaf::Unstructured(g), &views[0].values[..]);
            let png = scene.frame(comm, 0, Some(leaf), &Cell::new(None));
            png.map(|(png, _)| png)
        });
        let png = files[0].clone().expect("rank 0's file");
        let (w, h, rgb) = render::png::decode_rgb(&png).expect("a file");
        assert_eq!((w, h), (64, 32));
        let background = rgb.chunks(3).filter(|c| *c == [255, 0, 255]).count();
        assert_eq!(background, 0, "the cut covers the 2 × 1 face");
    }
}
