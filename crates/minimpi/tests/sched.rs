//! Integration tests for the deterministic scheduler: seed
//! reproducibility, virtual-time deadlines, exact deadlock detection,
//! systematic interleaving search with [`minimpi::Checker`], and trace
//! replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use minimpi::sched::{DecisionKind, DecisionRecord, Event};
use minimpi::{
    Checker, FaultHandle, Guide, LivenessSpec, SchedPolicy, Trace, TraceCell, World, WorldBuilder,
};

/// Run a small mixed workload (p2p + ANY_SOURCE + collectives) under a
/// seed and return (per-rank results, delivery trace).
fn seeded_workload(seed: u64, size: usize) -> (Vec<u64>, Trace) {
    let cell = TraceCell::new();
    let out = WorldBuilder::new(size)
        .sched(SchedPolicy::Seeded(seed))
        .trace_cell(&cell)
        .run(move |comm| {
            // Fan-in with ANY_SOURCE: the match order is a scheduler
            // decision.
            let mut gathered = 0u64;
            if comm.rank() == 0 {
                for _ in 1..comm.size() {
                    let (src, v): (usize, u64) = comm.recv_any(7);
                    assert_eq!(v, src as u64 * 3);
                    gathered += v;
                }
            } else {
                comm.send(0, 7, comm.rank() as u64 * 3);
            }
            // Collectives still agree under serialized execution.
            let total = comm.allreduce_scalar(comm.rank() as u64, |a, b| a + b);
            let expect: u64 = (0..comm.size() as u64).sum();
            assert_eq!(total, expect);
            comm.barrier();
            gathered + total
        });
    (out, cell.take().expect("trace deposited"))
}

#[test]
fn same_seed_same_trace() {
    for size in [1, 4, 8] {
        let (out_a, trace_a) = seeded_workload(42, size);
        let (out_b, trace_b) = seeded_workload(42, size);
        assert_eq!(out_a, out_b);
        assert_eq!(trace_a, trace_b, "seed 42 must replay byte-identically");
        assert_eq!(trace_a.to_json(), trace_b.to_json());
        assert_eq!(trace_a.seed, Some(42));
        if size > 1 {
            assert!(!trace_a.events.is_empty());
        }
    }
}

#[test]
fn different_seeds_explore_different_interleavings() {
    // Not guaranteed for any single pair, but across 8 seeds on a
    // 4-rank fan-in at least two schedules must differ.
    let traces: Vec<Trace> = (0..8).map(|s| seeded_workload(s, 4).1).collect();
    assert!(
        traces.iter().any(|t| *t != traces[0]),
        "8 seeds produced the identical schedule — the policy is not seeded"
    );
    // And every one of them computed the right answer (checked inside
    // the workload's asserts).
}

#[test]
fn replay_reproduces_a_recorded_run() {
    let (_, trace) = seeded_workload(7, 4);
    let cell = TraceCell::new();
    let replayed = WorldBuilder::new(4)
        .sched(SchedPolicy::Replay(trace.clone()))
        .trace_cell(&cell)
        .run(move |comm| {
            let mut gathered = 0u64;
            if comm.rank() == 0 {
                for _ in 1..comm.size() {
                    let (_, v): (usize, u64) = comm.recv_any(7);
                    gathered += v;
                }
            } else {
                comm.send(0, 7, comm.rank() as u64 * 3);
            }
            let total = comm.allreduce_scalar(comm.rank() as u64, |a, b| a + b);
            comm.barrier();
            gathered + total
        });
    assert_eq!(replayed, vec![24, 6, 6, 6]);
    assert_eq!(
        cell.take().expect("trace").events,
        trace.events,
        "replay must regenerate the recorded event stream"
    );
}

#[test]
fn replay_divergence_is_detected() {
    let (_, trace) = seeded_workload(7, 2);
    let err = std::panic::catch_unwind(|| {
        WorldBuilder::new(2)
            .sched(SchedPolicy::Replay(trace))
            .run(|comm| {
                // A different program than the one recorded: extra
                // traffic diverges from the trace.
                if comm.rank() == 0 {
                    comm.send(1, 99, 1u8);
                } else {
                    let _: u8 = comm.recv(0, 99);
                }
            })
    })
    .expect_err("divergent replay must panic");
    let msg = minimpi::sched::panic_text(&*err);
    assert!(msg.contains("replay diverged"), "got: {msg}");
}

/// A fan-in on `size` ranks under `policy`, counting rank 0's
/// completed matches into `matched`: (the panic text, if any, and the
/// trace the world deposited).
fn fanin_under(
    size: usize,
    policy: SchedPolicy,
    matched: &Arc<AtomicUsize>,
) -> (Option<String>, Trace) {
    let cell = TraceCell::new();
    let counter = Arc::clone(matched);
    let run = std::panic::catch_unwind(|| {
        WorldBuilder::new(size)
            .sched(policy)
            .trace_cell(&cell)
            .run(move |comm| {
                if comm.rank() == 0 {
                    for _ in 1..comm.size() {
                        let _: (usize, u64) = comm.recv_any(7);
                        counter.fetch_add(1, Ordering::SeqCst);
                    }
                } else {
                    comm.send(0, 7, comm.rank() as u64);
                }
            })
    });
    let msg = run.err().map(|err| minimpi::sched::panic_text(&*err));
    (msg, cell.take().expect("trace deposited"))
}

/// Replay a 3-rank fan-in recorded under the guided default schedule,
/// with the event of the first decision `edit` returns a replacement
/// for swapped out. The replay must abort at that event, naming the
/// recorded event and the decision's enabled values, and the deciding
/// rank must panic there: nothing is recorded past it, and rank 0
/// completed only the matches recorded before it.
fn diverge_at_one_decision(edit: impl Fn(&DecisionRecord, &Event) -> Option<Event>) {
    let guide = Guide::new(Vec::new());
    let log = guide.log();
    let (msg, mut trace) = fanin_under(3, SchedPolicy::Guided(guide), &Arc::default());
    assert_eq!(msg, None, "the recorded run is clean");
    let (records, _) = log.take();
    let (record, event) = records
        .iter()
        .find_map(|r| Some((r, edit(r, &trace.events[r.trace_pos])?)))
        .expect("the fan-in has a decision to edit");
    let at = record.trace_pos;
    trace.events[at] = event.clone();

    let matched = Arc::new(AtomicUsize::new(0));
    let (msg, replayed) = fanin_under(3, SchedPolicy::Replay(trace.clone()), &matched);
    let msg = msg.expect("a divergent replay aborts");
    assert!(
        msg.contains(&format!("replay diverged at event {at}")),
        "got: {msg}"
    );
    assert!(msg.contains(&format!("[{event}]")), "got: {msg}");
    assert!(msg.contains(&format!("{:?}", record.enabled)), "got: {msg}");
    assert!(replayed.events.len() <= at + 1, "recorded past event {at}");
    assert_eq!(replayed.events[..at], trace.events[..at]);
    let before = trace.events[..at]
        .iter()
        .filter(|e| matches!(e, Event::Match { .. }));
    assert_eq!(matched.load(Ordering::SeqCst), before.count());
}

#[test]
fn replay_divergence_at_a_run_decision() {
    // A run decision made while rank 0 is blocked in its fan-in, edited
    // to grant a slot that is not runnable.
    diverge_at_one_decision(|r, _| {
        let idle = (0..3).find(|slot| !r.enabled.contains(slot))?;
        (r.kind == DecisionKind::Run).then_some(Event::Run { slot: idle })
    });
}

#[test]
fn replay_divergence_at_a_match_decision() {
    // A match decision edited to name a source with no matching
    // envelope in the mailbox.
    diverge_at_one_decision(|r, event| {
        let absent = (1..3).find(|src| !r.enabled.contains(src))?;
        let &Event::Match { slot, tag, .. } = event else {
            return None;
        };
        Some(Event::Match {
            slot,
            src: absent,
            tag,
        })
    });
}

#[test]
fn virtual_deadline_fires_without_wall_clock_waiting() {
    let t0 = probe::time::Wall::now();
    // A 60-second deadline that must resolve instantly in virtual time:
    // nobody ever sends, so quiescence fires the deadline.
    WorldBuilder::new(2)
        .sched(SchedPolicy::Seeded(3))
        .run(|comm| {
            if comm.rank() == 0 {
                let got: minimpi::Result<(usize, u64)> =
                    comm.recv_deadline(1, 5, Duration::from_secs(60));
                let err = got.expect_err("no sender: deadline must fire");
                assert!(err.to_string().contains("deadline exceeded"));
            }
        });
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "virtual deadline must not consume wall-clock time"
    );
}

#[test]
fn injected_delay_advances_virtual_clock_not_wall_clock() {
    let faults = FaultHandle::new();
    faults.delay_link(0, 1, Duration::from_secs(30));
    let t0 = probe::time::Wall::now();
    WorldBuilder::new(2)
        .fault_handle(faults)
        .sched(SchedPolicy::Seeded(11))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, 77u64);
            } else {
                let v: u64 = comm.recv(0, 2);
                assert_eq!(v, 77);
            }
        });
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "30s injected delay must be virtual under the scheduler"
    );
}

#[test]
fn exact_deadlock_report_names_every_blocked_rank() {
    let err = std::panic::catch_unwind(|| {
        WorldBuilder::new(2)
            .sched(SchedPolicy::Seeded(5))
            .run(|comm| {
                // Classic cross wait: both ranks receive first.
                let peer = 1 - comm.rank();
                let _: u8 = comm.recv(peer, 55);
                comm.send(peer, 55, 1u8);
            })
    })
    .expect_err("cross wait must be reported as deadlock");
    let msg = minimpi::sched::panic_text(&*err);
    assert!(msg.contains("deadlock detected"), "got: {msg}");
    assert!(msg.contains("seed 5"), "report must carry the seed: {msg}");
    assert!(msg.contains("world rank 0"), "got: {msg}");
    assert!(msg.contains("world rank 1"), "got: {msg}");
    assert!(msg.contains("user:55"), "got: {msg}");
}

#[test]
fn deadlock_is_deterministic_across_runs() {
    let report = |seed: u64| -> String {
        let err = std::panic::catch_unwind(|| {
            WorldBuilder::new(3)
                .sched(SchedPolicy::Seeded(seed))
                .run(|comm| {
                    // Rank 2 never sends: 0 and 1 starve after a round
                    // of real traffic.
                    if comm.rank() == 0 {
                        comm.send(1, 9, 1u32);
                        let _: u32 = comm.recv(2, 9);
                    } else if comm.rank() == 1 {
                        let _: u32 = comm.recv(0, 9);
                        let _: u32 = comm.recv(2, 9);
                    }
                })
        })
        .expect_err("starvation must deadlock");
        minimpi::sched::panic_text(&*err)
    };
    assert_eq!(report(13), report(13), "same seed, same deadlock report");
}

/// The deliberately reintroduced ordering bug the checker must find: a
/// fan-in that *assumes* `ANY_SOURCE` matches in rank order. Correct
/// under some interleavings, wrong under others — invisible to a single
/// happy-path run, found by systematic search, reproduced by replay.
fn rank_order_assuming_fanin(comm: &minimpi::Comm) {
    if comm.rank() == 0 {
        let mut order = Vec::new();
        for _ in 1..comm.size() {
            let (src, _): (usize, u64) = comm.recv_any(21);
            order.push(src);
        }
        let sorted: Vec<usize> = (1..comm.size()).collect();
        assert_eq!(order, sorted, "fan-in arrived out of rank order");
    } else {
        comm.send(0, 21, comm.rank() as u64);
    }
    comm.barrier();
}

/// A fan-in that assumes the highest rank is never matched first: only
/// one of the `p - 1` first-match alternatives fails.
fn highest_rank_never_first(comm: &minimpi::Comm) {
    if comm.rank() == 0 {
        let p = comm.size();
        let (first, _): (usize, u64) = comm.recv_any(23);
        assert_ne!(first, p - 1, "highest rank matched first");
        for _ in 2..p {
            let _: (usize, u64) = comm.recv_any(23);
        }
    } else {
        comm.send(0, 23, comm.rank() as u64);
    }
}

/// The checker finds `bug` on `size` ranks within eight schedules, the
/// minimized trace replays bitwise, and the trace survives its JSON
/// wire form and fails the same way under [`SchedPolicy::Replay`] —
/// deterministically, every time.
fn found_within_eight_schedules_and_replayed(size: usize, bug: fn(&minimpi::Comm), expect: &str) {
    let report = Checker::new().max_schedules(8).run(size, bug);
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "{size} ranks: `{expect}` not found in {} schedules",
            report.stats.schedules_explored
        )
    });
    assert!(
        failure.message.contains(expect),
        "{size} ranks: wrong failure: {}",
        failure.message
    );
    assert!(
        failure.replayed_bitwise,
        "{size} ranks: the minimized trace must replay bitwise"
    );
    assert!(!failure.trace.events.is_empty());

    let wire = failure.trace.to_json();
    let trace = Trace::from_json(&wire).expect("trace parses");
    for _ in 0..2 {
        let err = std::panic::catch_unwind(|| {
            WorldBuilder::new(size)
                .sched(SchedPolicy::Replay(trace.clone()))
                .liveness(LivenessSpec::default())
                .run(bug)
        })
        .expect_err("replaying the failing trace must fail again");
        let msg = minimpi::sched::panic_text(&*err);
        assert!(msg.contains(expect), "{size} ranks: got: {msg}");
    }
}

#[test]
fn checker_finds_the_planted_ordering_bug_and_replay_reproduces_it() {
    for size in [3, 6, 8] {
        found_within_eight_schedules_and_replayed(
            size,
            rank_order_assuming_fanin,
            "out of rank order",
        );
    }
}

#[test]
fn checker_finds_the_highest_rank_matched_first() {
    for size in [3, 6, 8] {
        found_within_eight_schedules_and_replayed(
            size,
            highest_rank_never_first,
            "highest rank matched first",
        );
    }
}

#[test]
fn checker_passes_clean_programs_and_respects_budget() {
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    let report = Checker::new().max_schedules(5).run(4, move |comm| {
        // An order-tolerant fan-in: more schedules than the budget.
        if comm.rank() == 0 {
            counter.fetch_add(1, Ordering::SeqCst);
            let total: u64 = (1..comm.size()).map(|_| comm.recv_any::<u64>(1).1).sum();
            assert_eq!(total, 6);
        } else {
            comm.send(0, 1, comm.rank() as u64);
        }
        comm.barrier();
    });
    assert!(
        report.failure.is_none(),
        "clean program must pass exploration"
    );
    assert!(
        report.stats.budget_exhausted,
        "the tree outgrows five schedules"
    );
    assert!(
        report.stats.schedules_explored <= 5,
        "max_schedules bounds the search"
    );
    assert_eq!(
        runs.load(Ordering::SeqCst) as u64,
        report.stats.schedules_explored,
        "one world per explored schedule"
    );
}

#[test]
fn checker_permutes_fault_sites() {
    // With a dropped link, whether the victim's deadline error or the
    // peer's progress happens first is schedule-dependent; exploration
    // with a fault handle must still terminate and pass a tolerant
    // program.
    let report = Checker::new().max_schedules(8).run_with(
        2,
        |b| {
            let faults = FaultHandle::new();
            faults.drop_link(0, 1);
            b.fault_handle(faults)
        },
        |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 9u8);
            } else {
                let got: minimpi::Result<(usize, u8)> =
                    comm.recv_deadline(0, 4, Duration::from_secs(60));
                assert!(got.is_err(), "dropped link must starve the receive");
            }
        },
    );
    assert!(
        report.failure.is_none(),
        "{:?}",
        report.failure.map(|f| f.message)
    );
    assert!(!report.stats.budget_exhausted, "the tree completes");
}

#[test]
fn seeded_split_and_collectives_agree_with_os_run() {
    let work = |comm: &minimpi::Comm| -> u64 {
        let sub = comm.split((comm.rank() % 2) as u32, comm.rank() as u32);
        sub.allreduce_scalar(comm.rank() as u64, |a, b| a + b)
    };
    let os = World::run(4, work);
    let seeded = WorldBuilder::new(4).sched(SchedPolicy::Seeded(9)).run(work);
    assert_eq!(os, seeded, "scheduling policy must not change results");
}

#[test]
fn wtime_is_deterministic_under_seeds() {
    let stamps = |seed: u64| -> Vec<u64> {
        WorldBuilder::new(2)
            .sched(SchedPolicy::Seeded(seed))
            .run(|comm| {
                comm.barrier();
                let t = comm.wtime();
                comm.barrier();
                t.to_bits()
            })
    };
    assert_eq!(stamps(4), stamps(4), "virtual wtime must be reproducible");
}

/// FNV-1a (64-bit) of `text`: a digest that is the same on every
/// platform and build.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned workload: an `ANY_SOURCE` fan-in, allreduce, bcast,
/// barrier, gather, allgather, and one `ANY_SOURCE` pair.
fn pinned_workload(comm: &minimpi::Comm) -> u64 {
    let (rank, size) = (comm.rank(), comm.size());
    let mut got = 0u64;
    if rank == 0 {
        for _ in 1..size {
            let (src, v): (usize, u64) = comm.recv_any(31);
            assert_eq!(v, src as u64 * 5);
            got += v;
        }
    } else {
        comm.send(0, 31, rank as u64 * 5);
    }
    let total = comm.allreduce_scalar(rank as u64, |a, b| a + b);
    let root = size - 1;
    let b = comm.bcast(root, (rank == root).then_some(total * 2));
    comm.barrier();
    let gathered = comm.gather(0, rank as u64).map_or(0, |g| g.iter().sum());
    let all: u64 = comm.allgather(rank as u64 + b).iter().sum();
    if rank == 1 {
        comm.send(0, 32, all);
    } else if rank == 0 {
        let echo: u64 = comm.recv(minimpi::ANY_SOURCE, 32);
        assert_eq!(echo, all);
    }
    got + gathered + all
}

/// A schedule is part of the program's behaviour: a seeded trace, a
/// deadlock report, a guided run's decision log and the checker's
/// verdict on the planted fan-in bug must read the same at every
/// commit that does not mean to change them. Each row is the FNV-1a
/// digest of those texts, in order.
#[test]
fn seeded_schedules_are_pinned() {
    let mut rows = Vec::new();
    for size in [2, 3, 6] {
        let mut text = String::new();
        for seed in 0..40 {
            let cell = TraceCell::new();
            WorldBuilder::new(size)
                .sched(SchedPolicy::Seeded(seed))
                .trace_cell(&cell)
                .run(pinned_workload);
            text += &cell.take().expect("trace deposited").to_json();
            text.push('\n');
        }
        rows.push(fnv1a(&text));
    }

    let mut text = String::new();
    for seed in 0..40 {
        let cell = TraceCell::new();
        let err = std::panic::catch_unwind(|| {
            WorldBuilder::new(3)
                .sched(SchedPolicy::Seeded(seed))
                .trace_cell(&cell)
                .run(|comm| {
                    // Rank 2 answers only one of rank 0's two receives.
                    if comm.rank() == 0 {
                        comm.send(1, 9, 1u32);
                        let _: (usize, u32) = comm.recv_any(9);
                        let _: u32 = comm.recv(2, 9);
                    } else if comm.rank() == 1 {
                        let _: u32 = comm.recv(0, 9);
                        comm.send(0, 9, 2u32);
                        let _: u32 = comm.recv(2, 9);
                    } else {
                        comm.send(0, 9, 3u32);
                    }
                })
        })
        .expect_err("rank 2 sends once: the world deadlocks");
        text += &minimpi::sched::panic_text(&*err);
        text += &cell.take().expect("trace deposited").to_json();
        text.push('\n');
    }
    rows.push(fnv1a(&text));

    let mut text = String::new();
    for prefix in [vec![], vec![1], vec![2, 0], vec![0, 2, 1, 1]] {
        let guide = Guide::new(prefix);
        let log = guide.log();
        let cell = TraceCell::new();
        WorldBuilder::new(3)
            .sched(SchedPolicy::Guided(guide))
            .trace_cell(&cell)
            .run(pinned_workload);
        text += &format!("{:?}", log.take());
        text += &cell.take().expect("trace deposited").to_json();
        text.push('\n');
    }
    rows.push(fnv1a(&text));

    let mut text = String::new();
    for size in [3, 6] {
        let report = Checker::new()
            .max_schedules(8)
            .run(size, rank_order_assuming_fanin);
        let failure = report.failure.expect("the planted bug is found");
        text += &format!("{:?} {:?}", failure.prefix, report.stats);
        text += &failure.trace.to_json();
        text.push('\n');
    }
    rows.push(fnv1a(&text));

    assert_eq!(
        rows,
        [
            0x449f_e9b8_7f79_d9fd,
            0xeb68_ba19_6584_b733,
            0x8c68_e890_2ff6_fd36,
            0x9b67_ebfa_34fd_0386,
            0x0dff_4d62_7553_8dea,
            0x2bba_1a76_ba33_1001,
        ],
        "{rows:#x?}"
    );
}
