//! Stress and consistency tests: heavier rank counts, interleaved
//! collectives, repeated staging sessions, and determinism guarantees
//! that the figure regenerations rely on.

use minimpi::World;

/// Collectives stay correct under interleaving pressure on a wide
/// communicator (16 ranks, hundreds of operations).
#[test]
fn collective_storm_16_ranks() {
    World::run(16, |comm| {
        for round in 0..50u64 {
            let sum = comm.allreduce_scalar(comm.rank() as u64 + round, |a, b| a + b);
            assert_eq!(sum, (0..16).sum::<u64>() + 16 * round);
            let root = (round % 16) as usize;
            let payload = if comm.rank() == root {
                Some(vec![round; 100])
            } else {
                None
            };
            let got = comm.bcast(root, payload);
            assert_eq!(got.len(), 100);
            assert_eq!(got[0], round);
            let gathered = comm.gather(root, comm.rank() * 2);
            if comm.rank() == root {
                let g = gathered.unwrap();
                assert_eq!(g, (0..16).map(|r| r * 2).collect::<Vec<_>>());
            }
            let prefix = comm.scan(1u64, |a, b| a + b);
            assert_eq!(prefix, comm.rank() as u64 + 1);
        }
    });
}

/// Nested splits: split the world, then split the halves, and verify
/// every level communicates independently.
#[test]
fn nested_communicator_splits() {
    World::run(8, |comm| {
        let half = comm.split((comm.rank() / 4) as u32, comm.rank() as u32);
        assert_eq!(half.size(), 4);
        let quarter = half.split((half.rank() / 2) as u32, half.rank() as u32);
        assert_eq!(quarter.size(), 2);
        // Sums at each level.
        let world_sum = comm.allreduce_scalar(1u32, |a, b| a + b);
        let half_sum = half.allreduce_scalar(1u32, |a, b| a + b);
        let quarter_sum = quarter.allreduce_scalar(1u32, |a, b| a + b);
        assert_eq!((world_sum, half_sum, quarter_sum), (8, 4, 2));
        // Messages on one level don't leak to another.
        if quarter.rank() == 0 {
            quarter.send(1, 77, comm.rank());
        } else {
            let from: usize = quarter.recv(0, 77);
            assert_eq!(from + 1, comm.rank(), "partner is the world neighbor");
        }
    });
}

/// Repeated FlexPath sessions in one process: connect, stream, close,
/// reconnect (the dynamic disconnect/reconnect §4.1.4 mentions).
#[test]
fn staging_reconnect_cycles() {
    use adios::bp::{BpStep, BpVar};
    use adios::{pair, Role};
    World::run(2, |world| {
        for cycle in 0..3u64 {
            match pair(world, 1) {
                Role::Writer { mut writer, .. } => {
                    for s in 0..2u64 {
                        writer.advance(world);
                        let mut step = BpStep::new(cycle * 10 + s, 0.0);
                        step.vars.push(BpVar::new(
                            "x",
                            [1, 1, 1],
                            [0, 0, 0],
                            [1, 1, 1],
                            vec![cycle as f64],
                        ));
                        writer.write(world, &step);
                    }
                    writer.close(world);
                }
                Role::Endpoint { mut reader, .. } => {
                    let mut seen = 0;
                    while let Some(steps) = reader.begin_step(world) {
                        assert_eq!(steps[0].1.var("x").unwrap().data, vec![cycle as f64].into());
                        reader.end_step(world, steps);
                        seen += 1;
                    }
                    assert_eq!(seen, 2, "cycle {cycle}");
                }
            }
        }
    });
}

/// The modeled experiments are bit-for-bit deterministic: the seeded
/// noise source yields identical sequences, so regenerated figures
/// reproduce exactly run to run.
#[test]
fn figure_regeneration_is_deterministic() {
    use perfmodel::{storage, MachineSpec, SeededNoise};
    let m = MachineSpec::cori_haswell();
    let run = || {
        let mut noise = SeededNoise::new(0x5C16);
        (0..9)
            .map(|i| storage::posthoc_read(&m, 82 + i, 1e12, &mut noise))
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(), run());
}

/// Large payload movement: a 64 MB buffer moves through p2p, bcast and
/// the compositor without corruption.
#[test]
fn large_buffer_integrity() {
    World::run(2, |comm| {
        let big: Vec<u64> = (0..(8 << 20)).collect(); // 64 MB
        if comm.rank() == 0 {
            let checksum: u64 = big.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            comm.send(1, 9, big);
            let back: u64 = comm.recv(1, 10);
            assert_eq!(back, checksum);
        } else {
            let got: Vec<u64> = comm.recv(0, 9);
            assert_eq!(got.len(), 8 << 20);
            assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64));
            comm.send(0, 10, got.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
        }
    });
}
