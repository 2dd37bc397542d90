//! In-transit fidelity: the histogram computed at a staging endpoint
//! must equal the in situ histogram **bitwise** — same counts, same
//! extrema, same step — on ghosted, multi-leaf data. This pins down the
//! staging data model end to end: per-leaf geometry, scalar-type (u8
//! ghost) preservation on the wire, and exact f64 payload transport.
//!
//! Both paths use the same per-rank partition (2 in situ ranks vs
//! 2 writers feeding 2 endpoints), so the collective reduction trees
//! match shape and the comparison is exact, not approximate.

use adios::staging::{run_endpoint_with_broker, try_adaptor_to_step};
use adios::{pair, BrokerConfig, Role, StagingBroker};
use datamodel::{DataArray, DataSet, Extent, ImageData, MultiBlock, GHOST_ARRAY_NAME};
use minimpi::World;
use science::{Leslie, LeslieAdaptor, LeslieConfig};
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::{AnalysisAdaptor as _, InMemoryAdaptor};

const BINS: usize = 8;

fn leslie_config() -> LeslieConfig {
    LeslieConfig {
        grid: [16, 17, 8],
        ..LeslieConfig::default()
    }
}

/// AVF-LESLIE's ghosted vorticity field, analyzed in situ on 2 ranks
/// and in transit through 2 writers + 2 endpoints: bitwise equal.
#[test]
fn leslie_histogram_matches_in_situ_bitwise() {
    const STEPS: u64 = 3;

    // Path 1: in situ. The ghost z-planes are blanked by the analysis.
    let insitu = World::run(2, |comm| {
        let mut sim = Leslie::new(comm, leslie_config());
        let mut h = HistogramAnalysis::new("vorticity", BINS);
        let res = h.results_handle();
        for _ in 0..STEPS {
            sim.step(comm);
            h.execute(&LeslieAdaptor::new(&sim), comm);
        }
        let out = res.lock().clone();
        out
    })
    .remove(0)
    .expect("in situ histogram");

    // Path 2: in transit. The writers run the identical simulation on
    // their subgroup; every step crosses the staging transport (u8
    // ghosts and f64 vorticity serialized) before the endpoints analyze.
    let intransit = World::run(4, |world| match pair(world, 2) {
        Role::Writer { sub, mut writer } => {
            let mut sim = Leslie::new(&sub, leslie_config());
            for _ in 0..STEPS {
                sim.step(&sub);
                writer.advance(world);
                writer.write(
                    world,
                    &try_adaptor_to_step(&LeslieAdaptor::new(&sim))
                        .expect("host-resident data marshals"),
                );
            }
            writer.close(world);
            None
        }
        Role::Endpoint { sub, mut reader } => {
            let h = HistogramAnalysis::new("vorticity", BINS);
            let res = h.results_handle();
            let (bridge, _report) = run_endpoint_with_broker(
                world,
                &sub,
                &mut reader,
                vec![Box::new(h)],
                &StagingBroker::new(BrokerConfig::default()),
            );
            assert_eq!(bridge.steps(), STEPS);
            assert!(bridge.failure_reports().is_empty(), "healthy run");
            let out = res.lock().clone();
            out
        }
    })
    .into_iter()
    .flatten()
    .next()
    .expect("in transit histogram");

    assert_bitwise_equal(&insitu, &intransit);
    assert_eq!(insitu.step, STEPS, "last step analyzed");
}

/// A rank carrying two mesh leaves, each with its own ghost mask whose
/// ghost points hold poison values: the ghosts must stay recognizable
/// (u8) across the wire and the per-leaf blocks must not collapse, or
/// the endpoint histogram diverges from in situ.
#[test]
fn multi_leaf_ghosted_deck_matches_in_situ_bitwise() {
    // Rank r carries leaves 2r and 2r+1; leaf L is the x-slab
    // [2L, 2L+1] of a global 8x3x3 grid. The upper x-plane of each leaf
    // is ghost, poisoned with a value that would shift the histogram
    // range if it ever leaked past the mask.
    fn deck(rank: usize, step: u64) -> InMemoryAdaptor {
        let global = Extent::whole([8, 3, 3]);
        let mut mb = MultiBlock::new();
        for leaf in [2 * rank, 2 * rank + 1] {
            let local = Extent::new([2 * leaf as i64, 0, 0], [2 * leaf as i64 + 1, 2, 2]);
            let mut g = ImageData::new(local, global);
            let mut vals = Vec::new();
            let mut ghosts = Vec::new();
            for p in local.iter_points() {
                let ghost = p[0] == 2 * leaf as i64 + 1;
                ghosts.push(u8::from(ghost));
                vals.push(if ghost {
                    1e9
                } else {
                    (p[0] * 7 + p[1] * 3 + p[2]) as f64 + step as f64
                });
            }
            g.add_point_array(DataArray::owned("data", 1, vals));
            g.add_point_array(DataArray::owned(GHOST_ARRAY_NAME, 1, ghosts));
            mb.push(DataSet::Image(g));
        }
        InMemoryAdaptor::new(DataSet::Multi(mb), step as f64, step)
    }

    let insitu = World::run(2, |comm| {
        let mut h = HistogramAnalysis::new("data", BINS);
        let res = h.results_handle();
        for s in 0..2u64 {
            h.execute(&deck(comm.rank(), s), comm);
        }
        let out = res.lock().clone();
        out
    })
    .remove(0)
    .expect("in situ histogram");

    let intransit = World::run(4, |world| match pair(world, 2) {
        Role::Writer { mut writer, .. } => {
            for s in 0..2u64 {
                writer.advance(world);
                writer.write(
                    world,
                    &try_adaptor_to_step(&deck(world.rank(), s))
                        .expect("host-resident data marshals"),
                );
            }
            writer.close(world);
            None
        }
        Role::Endpoint { sub, mut reader } => {
            let h = HistogramAnalysis::new("data", BINS);
            let res = h.results_handle();
            run_endpoint_with_broker(
                world,
                &sub,
                &mut reader,
                vec![Box::new(h)],
                &StagingBroker::new(BrokerConfig::default()),
            );
            let out = res.lock().clone();
            out
        }
    })
    .into_iter()
    .flatten()
    .next()
    .expect("in transit histogram");

    assert_bitwise_equal(&insitu, &intransit);
    // 4 leaves x (2x3x3 points - 3x3 ghost plane) survive the mask.
    assert_eq!(insitu.counts.iter().sum::<u64>(), 36);
    assert!(insitu.max < 1e9, "poison values never entered the range");
}

fn assert_bitwise_equal(a: &HistogramResult, b: &HistogramResult) {
    assert_eq!(a.counts, b.counts, "bin counts");
    assert_eq!(a.min.to_bits(), b.min.to_bits(), "min bitwise");
    assert_eq!(a.max.to_bits(), b.max.to_bits(), "max bitwise");
    assert_eq!(a.step, b.step, "step");
}
