//! Systematic checker unit coverage: guided scheduling, DPOR
//! reduction vs the exhaustive baseline, liveness thresholds, and the
//! ddmin shrinker + bitwise replay pipeline. The cross-crate protocol
//! corpus lives in the workspace-level `tests/modelcheck_planted.rs`.

use minimpi::sched::yield_point;
use minimpi::{
    Checker, Comm, Guide, LivenessSpec, SchedPolicy, TraceCell, WorldBuilder, ANY_SOURCE,
};

/// Three ranks whose sends to rank 0 carry *distinct* tags: every
/// interleaving of the two sends is observably equivalent, so DPOR
/// should collapse the schedule tree while exhaustive enumeration
/// walks every co-enabled ordering.
fn independent_sends(comm: &Comm) {
    match comm.rank() {
        0 => {
            let a: u64 = comm.recv(1, 11);
            let b: u64 = comm.recv(2, 22);
            assert_eq!(a + b, 30);
        }
        r => comm.send(0, 11 * r as u32, (r * 10) as u64),
    }
}

/// Rank 0 receives two `ANY_SOURCE` messages under one tag and asserts
/// they arrive in rank order — a schedule-dependent planted bug that
/// only fires when rank 2's message is matched first.
fn rank_order_assumption(comm: &Comm) {
    match comm.rank() {
        0 => {
            let first: u64 = comm.recv(ANY_SOURCE, 7);
            let second: u64 = comm.recv(ANY_SOURCE, 7);
            assert!(
                first <= second,
                "planted: results assumed to arrive in rank order ({first} then {second})"
            );
        }
        r => comm.send(0, 7, r as u64),
    }
}

#[test]
fn guided_world_runs_clean_and_records_decisions() {
    let guide = Guide::new(Vec::new());
    let log = guide.log();
    let cell = TraceCell::new();
    WorldBuilder::new(3)
        .sched(SchedPolicy::Guided(guide))
        .trace_cell(&cell)
        .run(independent_sends);
    let (records, divergences) = log.take();
    assert_eq!(divergences, 0);
    assert!(
        records.iter().any(|r| r.enabled.len() > 1),
        "a 3-rank world must hit at least one real scheduling choice"
    );
    let trace = cell.take().expect("trace deposited");
    assert_eq!(trace.seed, None);
    assert!(!trace.events.is_empty());
    // Decisions point into the trace.
    for r in &records {
        assert!(r.trace_pos <= trace.events.len());
        assert!(r.enabled.contains(&r.chosen));
    }
}

#[test]
fn guided_prefix_forces_the_first_run_decision() {
    for forced in 0..3usize {
        let guide = Guide::new(vec![forced]);
        let log = guide.log();
        WorldBuilder::new(3)
            .sched(SchedPolicy::Guided(guide))
            .run(independent_sends);
        let (records, divergences) = log.take();
        assert_eq!(divergences, 0, "slot {forced} is enabled at the start");
        assert_eq!(records[0].chosen, forced);
    }
}

#[test]
fn systematic_explores_strictly_fewer_schedules_than_exhaustive() {
    let dpor = Checker::new()
        .max_schedules(10_000)
        .run(3, independent_sends);
    let exhaustive = Checker::new()
        .max_schedules(10_000)
        .exhaustive()
        .run(3, independent_sends);
    assert!(dpor.failure.is_none(), "scenario is clean");
    assert!(exhaustive.failure.is_none(), "scenario is clean");
    assert!(
        !dpor.stats.budget_exhausted && !exhaustive.stats.budget_exhausted,
        "both trees must complete inside the budget for a fair comparison"
    );
    assert!(
        dpor.stats.schedules_explored < exhaustive.stats.schedules_explored,
        "DPOR ({}) must beat exhaustive ({})",
        dpor.stats.schedules_explored,
        exhaustive.stats.schedules_explored
    );
    assert!(
        dpor.stats.pruned_independent > 0,
        "the reduction must actually prune: {:?}",
        dpor.stats
    );
    assert!(dpor.stats.pruning_ratio() > 0.0);
    // The exact counts: a change that moves one is a change to the
    // search, not to its bookkeeping.
    for (stats, want) in [
        (&dpor.stats, [1, 0, 8, 0]),
        (&exhaustive.stats, [44, 6, 0, 6]),
    ] {
        let got = [
            stats.schedules_explored,
            stats.pruned_by_sleep_set,
            stats.pruned_independent,
            stats.max_backtrack_depth,
        ];
        assert_eq!(got, want, "{stats:?}");
        assert_eq!(
            (stats.divergent_runs, stats.shrink_runs),
            (0, 0),
            "{stats:?}"
        );
    }
}

#[test]
fn checker_finds_the_any_source_ordering_bug_and_replays_it_bitwise() {
    let report = Checker::new()
        .max_schedules(256)
        .run(3, rank_order_assumption);
    let failure = report
        .failure
        .expect("the planted ordering bug must be found");
    assert!(
        failure.message.contains("planted: results assumed"),
        "unexpected failure: {}",
        failure.message
    );
    assert!(
        failure.replayed_bitwise,
        "shrunk trace must reproduce the failure bitwise under Replay"
    );
    assert!(
        failure.prefix.len() <= failure.original_choices,
        "shrinking never grows the prefix"
    );
    // The minimized trace replays the failure through the public
    // Replay policy too (what a developer does with the artifact).
    let cell = TraceCell::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        WorldBuilder::new(3)
            .sched(SchedPolicy::Replay(failure.trace.clone()))
            .liveness(LivenessSpec::default())
            .trace_cell(&cell)
            .run(rank_order_assumption);
    }));
    let payload = outcome.expect_err("replay must reproduce the panic");
    let message = minimpi::sched::panic_text(&*payload);
    assert!(message.contains("planted: results assumed"), "{message}");
    let replayed = cell.take().expect("replay trace");
    assert_eq!(replayed.events, failure.trace.events, "bitwise replay");
}

#[test]
fn decision_budget_reports_starvation_with_progress_dump() {
    // Rank 1 sends one request and waits for an answer rank 0 never
    // sends; ranks 0 and 2 ping-pong forever. Under the fair default
    // policy rank 1 is *scheduled* but cannot progress: classified as
    // starvation when the decision budget trips.
    let report = Checker::new()
        .max_schedules(1)
        .liveness(LivenessSpec {
            max_decisions: 400,
            spin_limit: 0,
            starvation_window: 100,
        })
        .run(3, |comm| match comm.rank() {
            1 => {
                comm.send(0, 5, 1u64);
                let _: u64 = comm.recv(0, 6);
            }
            r => {
                let peer = 2 - r; // 0 <-> 2
                loop {
                    if r == 0 {
                        comm.send(peer, 9, 0u64);
                        let _: u64 = comm.recv(peer, 9);
                    } else {
                        let _: u64 = comm.recv(peer, 9);
                        comm.send(peer, 9, 0u64);
                    }
                }
            }
        });
    let failure = report.failure.expect("budget breach is a finding");
    assert!(
        failure.message.contains("starvation: world rank(s) [1]"),
        "classification names the starved rank: {}",
        failure.message
    );
    assert!(failure.message.contains("last progress at decision"));
    assert!(failure.replayed_bitwise, "liveness aborts replay bitwise");
}

#[test]
fn spin_limit_reports_livelock_at_yield_points() {
    // Rank 0 spins at a yield point waiting for a flag rank 1 will
    // never set — the backpressure-publisher shape.
    let report = Checker::new()
        .max_schedules(1)
        .liveness(LivenessSpec {
            max_decisions: 10_000,
            spin_limit: 50,
            starvation_window: 0,
        })
        .run(2, |comm| {
            if comm.rank() == 0 {
                loop {
                    // Never-satisfied condition; each turn is a spin.
                    yield_point();
                }
            } else {
                let _: u64 = comm.recv(0, 1);
            }
        });
    let failure = report.failure.expect("spin limit breach is a finding");
    assert!(
        failure.message.contains("livelock: world rank 0 spun"),
        "{}",
        failure.message
    );
    assert!(failure.replayed_bitwise);
}

#[test]
fn deterministic_deadlock_is_found_shrunk_and_replayed() {
    // Classic cross-wait: both ranks receive before sending.
    let report = Checker::new().max_schedules(4).run(2, |comm| {
        let peer = 1 - comm.rank();
        let _: u64 = comm.recv(peer, 3);
        comm.send(peer, 3, 0u64);
    });
    let failure = report.failure.expect("deadlock found");
    assert!(
        failure.message.contains("deterministic deadlock detected"),
        "{}",
        failure.message
    );
    assert!(failure.replayed_bitwise);
    assert!(
        failure.prefix.is_empty(),
        "a schedule-independent deadlock shrinks to the empty prefix"
    );
}

#[test]
fn clean_scenarios_produce_no_findings_and_terminate() {
    let report = Checker::new().max_schedules(10_000).run(3, |comm| {
        let sum = comm.allreduce_scalar(comm.rank() as u64, |a, b| a + b);
        assert_eq!(sum, 3);
    });
    assert!(report.failure.is_none());
    assert!(!report.stats.budget_exhausted);
    assert!(report.stats.schedules_explored >= 1);
}

#[test]
fn checker_exports_probe_gauges() {
    let probe = probe::enabled();
    let report = Checker::new()
        .max_schedules(64)
        .probe(probe.clone())
        .run(3, independent_sends);
    assert!(report.failure.is_none());
    let snap = probe.snapshot();
    assert_eq!(
        snap.gauge("modelcheck/schedules"),
        Some(report.stats.schedules_explored)
    );
    assert!(snap.gauge("modelcheck/backtrack_depth_max").is_some());
    assert!(snap.gauge("modelcheck/pruned_permille").is_some());
}
