//! Interleaving fuzzer for the substrate's riskiest surfaces: the
//! collectives (mixed algorithms + `ANY_SOURCE` fan-in) and the
//! ADIOS/FlexPath staging transport. `minimpi::Explorer` reruns each
//! scenario under consecutive scheduler seeds until a time budget is
//! spent; every run asserts schedule-independent invariants, so any
//! panic is a real ordering bug.
//!
//! ```text
//! EXPLORE_BUDGET_SECS=60 cargo run --release --example explore_fuzz
//! ```
//!
//! On failure the offending delivery trace is written to
//! `results/failing_trace_<seed>.json` (CI uploads it as an artifact)
//! and the process exits nonzero. Replay it exactly with
//! `WorldBuilder::sched(SchedPolicy::Replay(Trace::from_json(..)))` —
//! see DESIGN.md §9.
//!
//! Every scenario also runs in race-hunting mode
//! ([`Explorer::sanitize`]): each run carries a happens-before
//! sanitizer session, so a schedule that makes a zero-copy publish
//! race or leaks a message fails with the same replayable trace that
//! a deadlock or invariant panic would — sanitizer traces land next
//! to deadlock traces in `results/`.
//!
//! After the seeded sweep, the same scenarios run under the
//! *systematic* checker ([`minimpi::Checker`]): DPOR-reduced schedule
//! exploration at a reduced rank count, with liveness thresholds and
//! the obligation registry armed. Failures come back minimized (ddmin
//! over the forced-choice prefix) and bitwise-replay-verified, written
//! to `results/minimized_trace_<scenario>.json`. Budget knobs:
//! `EXPLORE_SCHEDULES` switches the seeded sweep from a wall budget to
//! a fixed run count (deterministic CI), `MODELCHECK_SCHEDULES` caps
//! the systematic schedule tree (default 64).

use std::sync::Arc;
use std::time::Duration;

use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, BrokerConfig, Role, StagingBroker};
use datamodel::{DataArray, DataSet, Extent, ImageData};
use minimpi::{CheckFailure, Checker, Comm, ExploreBudget, ExploreFailure, Explorer};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::analysis::AnalysisAdaptor;

const RANKS: usize = 6;
const RANKS_SYSTEMATIC: usize = 3;
const GRID: [usize; 3] = [9, 9, 9];
const STEPS: usize = 2;
const BINS: usize = 16;

/// Mixed collectives with an `ANY_SOURCE` fan-in between them — the
/// matching choice the scheduler randomizes hardest. Every invariant
/// below must hold under *any* interleaving.
fn collectives_scenario(comm: &Comm) {
    let r = comm.rank();
    let p = comm.size();

    let sum = comm.allreduce_scalar(r as u64 + 1, |a, b| a + b);
    assert_eq!(sum, (p * (p + 1) / 2) as u64, "allreduce sum");

    let v = comm.allreduce_vec(vec![r as u64; 7], |a, b| a + b);
    let expect = (p * (p - 1) / 2) as u64;
    assert!(v.iter().all(|&x| x == expect), "vector element sums");

    // Fan-in on ANY_SOURCE: arrival order is the fuzzed dimension; the
    // accumulated total must not depend on it.
    if r == 0 {
        let mut total = 0u64;
        let mut seen = vec![false; p];
        for _ in 1..p {
            let (from, x) = comm.recv_any::<u64>(7);
            assert!(!seen[from], "duplicate delivery from {from}");
            seen[from] = true;
            total += x;
        }
        assert_eq!(total, (1..p as u64).sum::<u64>(), "fan-in total");
    } else {
        comm.send(0, 7, r as u64);
    }

    let scan = comm.scan(1u64, |a, b| a + b);
    assert_eq!(scan, r as u64 + 1, "inclusive scan");

    // Split into odd/even halves and run a collective in each,
    // exercising concurrent sub-communicators.
    let sub = comm.split((r % 2) as u32, r as u32);
    let members = comm.allreduce_scalar(1usize, |a, b| a + b);
    assert_eq!(members, p);
    let peak = sub.allreduce_scalar(r, usize::max);
    let expect_peak = if r.is_multiple_of(2) {
        ((p - 1) / 2) * 2
    } else {
        ((p - 2) / 2) * 2 + 1
    };
    assert_eq!(peak, expect_peak, "sub-communicator max");

    // A late straggler message must still be matchable after the
    // collectives completed (no cross-talk into collective tags).
    if r == 1 {
        comm.send(0, 99, 0xABu8);
    }
    if r == 0 {
        let (from, got): (usize, u8) = comm.recv_any(99);
        assert_eq!((from, got), (1, 0xAB));
    }
    comm.barrier();
}

/// FlexPath staging round trip: writers ship an oscillator deck, the
/// endpoint group runs a histogram in transit. The handshake (advance /
/// back-pressure / end-of-stream) is the most order-sensitive protocol
/// in the repo; the invariant is that every grid point is counted once
/// regardless of how the scheduler orders the two groups.
fn staging_scenario(comm: &Comm, deck: &str) {
    let writers = comm.size() / 2;
    match pair(comm, writers) {
        Role::Writer { sub, writer } => {
            let cfg = SimConfig {
                grid: GRID,
                steps: STEPS,
                ..SimConfig::default()
            };
            let root_deck = if sub.rank() == 0 { Some(deck) } else { None };
            let mut sim = Simulation::new(&sub, cfg, root_deck);
            let mut ship = AdiosWriterAnalysis::new(writer);
            for _ in 0..STEPS {
                sim.step(&sub);
                ship.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            ship.finalize(comm);
        }
        Role::Endpoint { sub, mut reader } => {
            let hist = HistogramAnalysis::new("data", BINS);
            let results = hist.results_handle();
            let analyses: Vec<Box<dyn AnalysisAdaptor>> = vec![Box::new(hist)];
            let broker = StagingBroker::new(BrokerConfig::default());
            let (bridge, _report) =
                run_endpoint_with_broker(comm, &sub, &mut reader, analyses, &broker);
            assert_eq!(bridge.steps(), STEPS as u64, "endpoint saw every step");
            if sub.rank() == 0 {
                let r = results.lock().clone().expect("endpoint histogram");
                let counted: u64 = r.counts.iter().sum();
                let points = (GRID[0] * GRID[1] * GRID[2]) as u64;
                assert_eq!(counted, points, "histogram counts every point once");
                assert!(r.min <= r.max, "histogram range is ordered");
            }
        }
    }
}

/// Zero-copy publish discipline under fuzzing: each rank stages its
/// shared field to an endpoint-shaped window, exchanges halo-style
/// messages, and only mutates the field after the window closed and
/// the neighbor's ack arrived. Correct by construction — so any
/// sanitizer finding here is a schedule the happens-before edges do
/// not actually cover, i.e. a real race.
fn publish_scenario(comm: &Comm) {
    let r = comm.rank();
    let p = comm.size();
    let whole = Extent::whole([4, 4, 1]);
    let mut img = ImageData::new(whole, whole);
    let n = img.num_points();
    img.point_data
        .insert(DataArray::shared("u", 1, Arc::new(vec![r as f64; n])));
    let mut data = DataSet::Image(img);

    for step in 0..2u64 {
        // Stage the field; the guard models an endpoint holding
        // zero-copy views for the duration of the marshal.
        let guard = datamodel::publish_dataset(&data, "fuzz");
        // Endpoint-side read while staged (reads are always safe).
        if let DataSet::Image(g) = &data {
            let arr = g.point_data.get("u").expect("field present");
            let _sum: f64 = (0..arr.num_tuples()).map(|t| arr.get(t, 0)).sum();
        }
        drop(guard);
        // Message edge to the neighbor: the recv merges the sender's
        // clock, ordering the sender's release before our next write.
        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        comm.send(next, 40 + step as u32, r as u64);
        let _ = comm.recv::<u64>(prev, 40 + step as u32);
        // Mutate only after our own release and the neighbor's ack.
        if let DataSet::Image(g) = &mut data {
            let arr = g.point_data.get_mut("u").expect("field present");
            arr.set(0, 0, step as f64);
        }
    }
    comm.barrier();
}

fn report(scenario: &str, failure: &ExploreFailure) {
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/failing_trace_{}.json", failure.seed);
    std::fs::write(&path, failure.trace.to_json()).expect("write trace");
    eprintln!(
        "FAIL [{scenario}] seed {}: {}",
        failure.seed, failure.message
    );
    eprintln!("  delivery trace written to {path}");
    eprintln!("  replay: WorldBuilder::sched(SchedPolicy::Replay(Trace::from_json(&json)))");
}

fn report_minimized(scenario: &str, failure: &CheckFailure) {
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/minimized_trace_{scenario}.json");
    std::fs::write(&path, failure.trace.to_json()).expect("write trace");
    eprintln!("FAIL [systematic {scenario}]: {}", failure.message);
    eprintln!(
        "  minimized schedule: {} forced choice(s), down from {}; bitwise replay verified: {}",
        failure.prefix.len(),
        failure.original_choices,
        failure.replayed_bitwise
    );
    eprintln!("  minimized delivery trace written to {path}");
}

/// One systematic leg: DPOR exploration with the sanitizer armed,
/// wall-capped to its share of the budget. Prints the exploration
/// stats either way; returns whether the scenario failed.
fn run_systematic<F>(name: &str, size: usize, slice: Duration, budget: usize, f: F) -> bool
where
    F: Fn(&Comm) + Send + Sync + 'static,
{
    let report = Checker::new()
        .max_schedules(budget)
        .wall_cap(slice)
        .sanitize()
        .run(size, f);
    let s = &report.stats;
    println!(
        "systematic {name}: {} schedule(s), pruning ratio {:.2} \
         (sleep-set {}, independent {}), max backtrack depth {}{}",
        s.schedules_explored,
        s.pruning_ratio(),
        s.pruned_by_sleep_set,
        s.pruned_independent,
        s.max_backtrack_depth,
        if s.budget_exhausted {
            ", budget exhausted"
        } else {
            ""
        },
    );
    match &report.failure {
        None => {
            println!("systematic {name}: clean");
            false
        }
        Some(failure) => {
            report_minimized(name, failure);
            true
        }
    }
}

fn main() {
    let budget_secs: f64 = std::env::var("EXPLORE_BUDGET_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or(60.0);
    // Three scenarios share the budget; Explorer always runs each at
    // least once even when the slice rounds down to nothing.
    let slice = Duration::from_secs_f64(budget_secs / 3.0);
    let base_seed = std::env::var("EXPLORE_BASE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    // A fixed run count makes the seeded sweep deterministic (CI);
    // the default wall budget adapts coverage to the machine.
    let seeded_budget = match std::env::var("EXPLORE_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(n) => ExploreBudget::Schedules(n),
        None => ExploreBudget::Wall(slice),
    };
    let modelcheck_schedules: usize = std::env::var("MODELCHECK_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    println!(
        "explore_fuzz: {budget_secs:.0}s budget, base seed {base_seed}, {RANKS} ranks per \
         seeded world, {RANKS_SYSTEMATIC} per systematic world ({modelcheck_schedules} \
         schedules max)"
    );

    let mut failed = false;

    let explorer = Explorer::new(base_seed).budget(seeded_budget).sanitize();
    match explorer.run(RANKS, collectives_scenario) {
        None => println!("collectives scenario: clean"),
        Some(f) => {
            report("collectives", &f);
            failed = true;
        }
    }

    let deck = format_deck(&demo_oscillators());
    let explorer = Explorer::new(base_seed).budget(seeded_budget).sanitize();
    match explorer.run(RANKS, {
        let deck = deck.clone();
        move |comm| staging_scenario(comm, &deck)
    }) {
        None => println!("staging scenario: clean"),
        Some(f) => {
            report("staging", &f);
            failed = true;
        }
    }

    let explorer = Explorer::new(base_seed).budget(seeded_budget).sanitize();
    match explorer.run(RANKS, publish_scenario) {
        None => println!("zero-copy publish scenario: clean"),
        Some(f) => {
            report("publish", &f);
            failed = true;
        }
    }

    // Systematic side: the same scenarios under DPOR exploration at a
    // reduced rank count (the schedule tree grows with world size; the
    // reduction, not brute force, is what covers the orderings).
    failed |= run_systematic(
        "collectives",
        RANKS_SYSTEMATIC,
        slice,
        modelcheck_schedules,
        collectives_scenario,
    );
    failed |= run_systematic("staging", 2, slice, modelcheck_schedules, move |comm| {
        staging_scenario(comm, &deck)
    });
    failed |= run_systematic(
        "publish",
        RANKS_SYSTEMATIC,
        slice,
        modelcheck_schedules,
        publish_scenario,
    );

    if failed {
        std::process::exit(1);
    }
    println!("explore_fuzz: all scenarios clean within budget");
}
