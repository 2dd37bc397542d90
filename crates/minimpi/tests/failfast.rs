//! Failure-mode coverage for the fail-fast layer: collective-order
//! verification, recv deadlines, the deadlock rule (a world aborts as
//! soon as no live rank can run), and injected transport faults. At the paper's target scale a silent hang is the
//! worst possible failure mode — each test here pins down that a specific
//! misuse or fault produces a *diagnostic* error instead.

use std::time::Duration;

use minimpi::{Error, FaultHandle, World, WorldBuilder};
use probe::time::Wall;

/// Milliseconds scaled by `MINIMPI_TEST_TIME_SCALE` (default 1).
///
/// Every timing in this file — recv deadlines, injected delays, and the
/// bounds asserted against them — goes through this
/// helper, so a slow or loaded machine can export e.g.
/// `MINIMPI_TEST_TIME_SCALE=4` and stretch all of them together: the
/// ratios the assertions rely on are preserved, the flake window is not.
fn scaled(ms: u64) -> Duration {
    static SCALE: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    let s = *SCALE.get_or_init(|| {
        std::env::var("MINIMPI_TEST_TIME_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|s| s.is_finite() && *s > 0.0)
            .unwrap_or(1.0)
    });
    Duration::from_nanos((ms as f64 * 1e6 * s) as u64)
}

/// Rank 0 enters a broadcast while rank 1 enters a scan: the scan's
/// upstream receive sees Bcast traffic where Scan traffic is due and
/// panics with the per-rank diagnostic instead of deadlocking.
#[test]
#[should_panic(expected = "collective mismatch")]
fn mismatched_collective_kinds_panic() {
    World::run(2, |comm| {
        if comm.rank() == 0 {
            // Root of a bcast only sends, so rank 0 exits cleanly.
            let _ = comm.bcast(0, Some(7u32));
        } else {
            // Scan waits on rank 0, which is in a different collective.
            let _ = comm.scan(1u32, |a, b| a + b);
        }
    });
}

#[test]
fn recv_deadline_fires_instead_of_hanging() {
    World::run(2, |comm| {
        if comm.rank() == 1 {
            // Nobody ever sends tag 9: the deadline must fire.
            let t0 = Wall::now();
            let got: minimpi::Result<(usize, u64)> = comm.recv_deadline(0, 9, scaled(50));
            match got {
                Err(Error::DeadlineExceeded { src, waited, .. }) => {
                    assert_eq!(src, 0);
                    assert!(waited >= scaled(50));
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            assert!(t0.elapsed() < scaled(5_000), "deadline overshot");
        }
        // A message that does arrive is still delivered under a deadline.
        if comm.rank() == 0 {
            comm.send(1, 8, 42u64);
        } else {
            let (from, v): (usize, u64) = comm
                .recv_deadline(0, 8, scaled(5_000))
                .expect("message was sent");
            assert_eq!((from, v), (0, 42));
        }
    });
}

#[test]
fn deadline_error_reports_pending_queue() {
    World::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 77, 1u8); // queued but never asked for
        } else {
            let err = comm
                .recv_deadline::<u8>(0, 99, scaled(100))
                .expect_err("tag 99 is never sent");
            let text = err.to_string();
            assert!(text.contains("user:99"), "missing awaited tag: {text}");
            assert!(
                text.contains("from 0: user:77"),
                "missing pending dump: {text}"
            );
        }
    });
}

/// Two ranks each wait for a message the other never sends: the world
/// must convert the hang into a panic carrying the per-rank dump.
#[test]
fn deadlock_aborts_with_rank_dump() {
    let result = std::panic::catch_unwind(|| {
        World::run(2, |comm| {
            // Cross traffic on the wrong tags stays unmatched in each
            // mailbox, so the report can show what each rank *did*
            // receive.
            comm.send(1 - comm.rank(), 10 + comm.rank() as u32, 1u8);
            let _: u8 = comm.recv(1 - comm.rank(), 55);
        });
    });
    let text = panic_text(result.expect_err("deadlocked world must panic"));
    assert!(text.contains("deadlock detected"), "got: {text}");
    assert!(text.contains("world rank 0"), "missing rank dump: {text}");
    assert!(text.contains("user:55"), "missing awaited tag: {text}");
    assert!(text.contains("pending"), "missing pending dump: {text}");
}

/// Rank 1 waits for a message from rank 0, which has returned: no
/// message can ever come, so the world ends at once and the report names
/// the awaited rank as finished.
#[test]
fn a_wait_on_a_finished_rank_ends_at_once() {
    let t0 = Wall::now();
    let result = std::panic::catch_unwind(|| {
        World::run(2, |comm| {
            if comm.rank() == 1 {
                let _: u8 = comm.recv(0, 1);
            }
        });
    });
    let text = panic_text(result.expect_err("a wait on a finished rank must panic"));
    assert!(
        t0.elapsed() < scaled(1_000),
        "took {:?}: {text}",
        t0.elapsed()
    );
    assert!(text.contains("deadlock detected"), "got: {text}");
    assert!(
        text.contains("world rank 1: rank 1/2 waiting for src 0 (finished), tag user:1"),
        "the awaited rank is not named finished: {text}"
    );
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

#[test]
fn fault_dropped_link_loses_messages_and_counts_them() {
    let faults = FaultHandle::new();
    faults.drop_link(0, 1);
    let handle = faults.clone();
    World::run(2, |_| ()); // sanity: a clean world first
    WorldBuilder::new(2).fault_handle(handle).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, 1u8);
            comm.send(1, 6, 2u8);
            comm.send(0, 5, 3u8); // self link unaffected
            let v: u8 = comm.recv(0, 5);
            assert_eq!(v, 3);
        } else {
            let got: minimpi::Result<(usize, u8)> = comm.recv_deadline(0, 5, scaled(50));
            assert!(got.is_err(), "dropped message was delivered");
        }
    });
    assert_eq!(faults.dropped(), 2);
}

#[test]
fn fault_heal_restores_the_link() {
    let faults = FaultHandle::new();
    faults.drop_link(0, 1);
    let handle = faults.clone();
    let probe = faults.clone();
    WorldBuilder::new(2).fault_handle(handle).run(move |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, 1u8); // dropped
            probe.heal();
            comm.send(1, 2, 2u8); // delivered
        } else {
            let v: u8 = comm.recv(0, 2);
            assert_eq!(v, 2);
            assert!(
                comm.recv_deadline::<u8>(0, 1, scaled(50)).is_err(),
                "pre-heal message resurfaced"
            );
        }
    });
    assert_eq!(faults.dropped(), 1);
}

#[test]
fn fault_delay_link_slows_delivery() {
    let faults = FaultHandle::new();
    faults.delay_link(0, 1, scaled(40));
    WorldBuilder::new(2).fault_handle(faults).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, 9u8);
        } else {
            let t0 = Wall::now();
            let v: u8 = comm.recv(0, 3);
            assert_eq!(v, 9);
            assert!(
                t0.elapsed() >= scaled(25),
                "delay fault did not slow the link: {:?}",
                t0.elapsed()
            );
        }
    });
}

/// An isolated rank is mute in both directions; peers see timeouts, not
/// hangs, and the isolated rank's own sends vanish.
#[test]
fn fault_isolated_rank_goes_dark() {
    let faults = FaultHandle::new();
    faults.isolate(1);
    WorldBuilder::new(3)
        .fault_handle(faults.clone())
        .run(|comm| {
            match comm.rank() {
                0 => {
                    comm.send(1, 4, 1u8); // into the void
                    comm.send(2, 4, 2u8); // healthy path
                }
                1 => {
                    comm.send(2, 4, 3u8); // also dropped
                    assert!(comm.recv_deadline::<u8>(0, 4, scaled(50)).is_err());
                }
                _ => {
                    let (from, v): (usize, u8) = comm
                        .recv_deadline(minimpi::ANY_SOURCE, 4, scaled(5_000))
                        .expect("healthy path delivers");
                    assert_eq!((from, v), (0, 2));
                    assert!(comm.recv_deadline::<u8>(1, 4, scaled(50)).is_err());
                }
            }
        });
    assert_eq!(faults.dropped(), 2);
}
