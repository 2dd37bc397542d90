//! SENSEI data adaptor for the oscillator miniapp: a zero-copy,
//! lazily-constructed view of the simulation's structured field.

use std::sync::{Arc, OnceLock};

use datamodel::{duplicate_point_ghosts, DataArray, DataSet, Extent, ImageData, GHOST_ARRAY_NAME};
use sensei::{AdaptorError, Association, DataAdaptor};

use crate::sim::Simulation;

/// Zero-copy adaptor over one timestep of the simulation.
///
/// Construction costs two `Arc` clones and a handful of scalars — this is
/// the overhead the paper measures as "almost nonexistent" (§3.2). The
/// field array is attached lazily and shares the simulation's buffer;
/// the ghost flags are built once per simulation and shared the same way,
/// on the blocks that have a ghost.
pub struct OscillatorAdaptor {
    field: Arc<Vec<f64>>,
    ghosts: Arc<OnceLock<Option<Arc<Vec<u8>>>>>,
    local: Extent,
    global: Extent,
    spacing: [f64; 3],
    time: f64,
    step: u64,
}

impl OscillatorAdaptor {
    /// Snapshot the simulation's current state (O(1)).
    pub fn new(sim: &Simulation) -> Self {
        OscillatorAdaptor {
            field: sim.field(),
            ghosts: sim.ghost_cell(),
            local: sim.local_extent(),
            global: sim.global_extent(),
            spacing: sim.spacing(),
            time: sim.current_time(),
            step: sim.current_step(),
        }
    }

    fn grid(&self) -> ImageData {
        ImageData::new(self.local, self.global).with_geometry([0.0; 3], self.spacing)
    }

    /// The block's ghost flags, built on first demand and kept by the
    /// simulation: none when the block duplicates no plane.
    fn ghosts(&self) -> Option<&Arc<Vec<u8>>> {
        self.ghosts
            .get_or_init(|| duplicate_point_ghosts(&self.local, &self.global).map(Arc::new))
            .as_ref()
    }
}

impl DataAdaptor for OscillatorAdaptor {
    fn time(&self) -> f64 {
        self.time
    }

    fn step(&self) -> u64 {
        self.step
    }

    fn mesh(&self) -> DataSet {
        DataSet::Image(self.grid())
    }

    fn array_names(&self, assoc: Association) -> Vec<String> {
        match assoc {
            Association::Point => std::iter::once("data")
                .chain(self.ghosts().map(|_| GHOST_ARRAY_NAME))
                .map(str::to_string)
                .collect(),
            Association::Cell => Vec::new(),
        }
    }

    fn add_array(
        &self,
        mesh: &mut DataSet,
        assoc: Association,
        name: &str,
    ) -> Result<(), AdaptorError> {
        // A block with no ghost has no flags to attach.
        let flags = (name == GHOST_ARRAY_NAME).then(|| self.ghosts()).flatten();
        if name != "data" && flags.is_none() {
            return Err(AdaptorError::UnknownArray {
                name: name.to_string(),
                assoc,
            });
        }
        if assoc != Association::Point {
            return Err(AdaptorError::WrongAssociation {
                name: name.to_string(),
                requested: assoc,
                available: Association::Point,
            });
        }
        let DataSet::Image(g) = mesh else {
            return Err(AdaptorError::LayoutUnsupported {
                name: name.to_string(),
                detail: "oscillator produces a single structured grid".to_string(),
            });
        };
        if let Some(flags) = flags {
            // Neighbouring blocks share a point plane (partition_extent
            // splits cells); mark the duplicated planes so point
            // analyses stay decomposition-invariant. The extents never
            // change, so the flags are computed once per simulation and
            // every step's array is a view of them, host-resident like
            // the field. Inserting them is also what arms the
            // sanitizer's ghost-write checks on the sibling zero-copy
            // arrays.
            g.add_point_array(
                DataArray::shared(GHOST_ARRAY_NAME, 1, Arc::clone(flags))
                    .with_space(datamodel::MemorySpace::Host),
            );
        } else {
            // The simulation's field lives in host RAM; declare the
            // residency so space-checked consumers know where the
            // zero-copy borrow is valid.
            g.add_point_array(
                DataArray::shared("data", 1, Arc::clone(&self.field))
                    .with_space(datamodel::MemorySpace::Host),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::format_deck;
    use crate::sim::SimConfig;
    use minimpi::World;
    use sensei::analysis::histogram::HistogramAnalysis;
    use sensei::analysis::AnalysisAdaptor as _;
    use sensei::Bridge;

    fn run_sim(comm: &minimpi::Comm, grid: usize) -> Simulation {
        let deck = format_deck(&crate::demo_oscillators());
        let root_deck = if comm.rank() == 0 { Some(deck) } else { None };
        let cfg = SimConfig {
            grid: [grid, grid, grid],
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, root_deck.as_deref());
        sim.step(comm);
        sim
    }

    #[test]
    fn adaptor_is_zero_copy() {
        World::run(2, |comm| {
            let sim = run_sim(comm, 8);
            let adaptor = OscillatorAdaptor::new(&sim);
            let mesh = adaptor.full_mesh();
            let arr = mesh.point_data().unwrap().get("data").unwrap();
            assert!(arr.is_zero_copy(), "field attached without copying");
            assert_eq!(arr.num_tuples(), sim.local_extent().num_points());
        });
    }

    #[test]
    fn ghost_array_is_built_once_and_only_on_demand() {
        World::run(2, |comm| {
            let mut sim = run_sim(comm, 8);
            // Field-only requests never build the flags.
            let adaptor = OscillatorAdaptor::new(&sim);
            let mut mesh = adaptor.mesh();
            adaptor
                .add_array(&mut mesh, Association::Point, "data")
                .unwrap();
            assert!(sim.ghost_cell().get().is_none(), "nobody asked yet");

            // The flags an adaptor hands out, and where they live.
            let flags_of = |sim: &Simulation| {
                let mesh = OscillatorAdaptor::new(sim).full_mesh();
                let ghosts = mesh.point_data().unwrap().ghosts()?;
                assert!(ghosts.is_zero_copy(), "a view, not a copy");
                let flags = ghosts.as_slice_in::<u8>(ghosts.space()).unwrap();
                Some((flags.to_vec(), flags.as_ptr()))
            };
            let first = flags_of(&sim);
            let want = duplicate_point_ghosts(&sim.local_extent(), &sim.global_extent());
            // Split along x, rank 0's block duplicates no plane: it
            // lists, attaches and builds no flags.
            assert_eq!(want.is_some(), comm.rank() == 1);
            let built = sim.ghost_cell().get().expect("decided on demand").clone();
            assert_eq!(first.clone().map(|(flags, _)| flags), want);
            assert_eq!(
                first.as_ref().map(|&(_, at)| at),
                built.as_ref().map(|flags| flags.as_ptr()),
                "the cached flags themselves"
            );
            // A later step's adaptor shares the same cached flags.
            sim.step(comm);
            assert_eq!(flags_of(&sim), first);
        });
    }

    #[test]
    fn adaptor_construction_is_cheap() {
        World::run(1, |comm| {
            let sim = run_sim(comm, 32);
            let t0 = probe::time::Wall::now();
            for _ in 0..10_000 {
                let a = OscillatorAdaptor::new(&sim);
                std::hint::black_box(a.step());
            }
            // 10 000 constructions in well under 100 ms.
            assert!(t0.elapsed().as_millis() < 100);
        });
    }

    #[test]
    fn histogram_through_bridge_counts_every_point() {
        World::run(4, |comm| {
            let sim = run_sim(comm, 9);
            let hist = HistogramAnalysis::new("data", 16);
            let res = hist.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(hist));
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            // Shared planes are ghost-marked, so the histogram counts
            // each global point exactly once — independent of the
            // decomposition.
            let total = sim.global_extent().num_points();
            if comm.rank() == 0 {
                let h = res.lock().clone().unwrap();
                assert_eq!(h.counts.iter().sum::<u64>() as usize, total);
            }
        });
    }

    #[test]
    fn subroutine_call_equals_bridge_call() {
        // The Fig. 3 comparison in miniature: running the analysis via a
        // direct subroutine call and via the SENSEI bridge produce
        // identical results.
        World::run(2, |comm| {
            let sim = run_sim(comm, 8);

            let mut direct = HistogramAnalysis::new("data", 8);
            let direct_res = direct.results_handle();
            direct.execute(&OscillatorAdaptor::new(&sim), comm);

            let bridged = HistogramAnalysis::new("data", 8);
            let bridged_res = bridged.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(bridged));
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);

            if comm.rank() == 0 {
                assert_eq!(*direct_res.lock(), *bridged_res.lock());
            }
        });
    }

    #[test]
    fn wrong_array_requests_refused() {
        World::run(1, |comm| {
            let sim = run_sim(comm, 4);
            let a = OscillatorAdaptor::new(&sim);
            let mut mesh = a.mesh();
            let wrong = a.add_array(&mut mesh, Association::Cell, "data");
            assert!(matches!(
                wrong,
                Err(sensei::AdaptorError::WrongAssociation { .. })
            ));
            let unknown = a.add_array(&mut mesh, Association::Point, "velocity");
            assert!(matches!(
                unknown,
                Err(sensei::AdaptorError::UnknownArray { .. })
            ));
        });
    }
}
