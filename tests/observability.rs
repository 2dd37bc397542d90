//! The observability layer end to end: aggregation determinism across
//! rank counts, bitwise non-perturbation of analysis results by the
//! probes, and JSON round-tripping of a real bridge run's report.

use minimpi::World;
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::autocorrelation::{Autocorrelation, AutocorrelationResult};
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::{Bridge, Probe, RunReport};

const STEPS: usize = 4;
const GRID: usize = 9;

/// One probed run: oscillator + histogram + autocorrelation on `ranks`
/// thread-backed ranks, returning rank 0's aggregated report.
fn probed_run(ranks: usize) -> RunReport {
    let deck = format_deck(&demo_oscillators());
    World::run(ranks, move |comm| {
        let cfg = SimConfig {
            grid: [GRID, GRID, GRID],
            steps: STEPS,
            ..SimConfig::default()
        };
        let root_deck = if comm.rank() == 0 {
            Some(deck.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root_deck);
        let mut bridge = Bridge::with_probe(Probe::enabled());
        comm.attach_probe(bridge.probe().clone());
        bridge.register(Box::new(HistogramAnalysis::new("data", 16)));
        bridge.register(Box::new(Autocorrelation::new("data", 3, 4)));
        for _ in 0..STEPS {
            sim.step(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        bridge.finalize(comm)
    })
    .remove(0)
}

/// The *shape* of the report — which phases exist, which counters exist
/// — is a property of the code paths, not of the rank count. Counter
/// names are recorded at collective entry (before any small-world fast
/// path), so even 1 rank reports the same instrument set as 8.
#[test]
fn aggregation_is_deterministic_across_rank_counts() {
    let reports: Vec<RunReport> = [1usize, 4, 8].iter().map(|&r| probed_run(r)).collect();

    let labels: Vec<Vec<String>> = reports
        .iter()
        .map(|r| r.phases.iter().map(|p| p.label.clone()).collect())
        .collect();
    assert_eq!(labels[0], labels[1], "1 vs 4 ranks: same span labels");
    assert_eq!(labels[1], labels[2], "4 vs 8 ranks: same span labels");

    let counters: Vec<Vec<String>> = reports
        .iter()
        .map(|r| r.counters.iter().map(|c| c.name.clone()).collect())
        .collect();
    assert_eq!(counters[0], counters[1], "1 vs 4 ranks: same counters");
    assert_eq!(counters[1], counters[2], "4 vs 8 ranks: same counters");

    for (report, &ranks) in reports.iter().zip(&[1usize, 4, 8]) {
        assert_eq!(report.ranks, ranks);
        assert_eq!(report.steps, STEPS as u64);
        assert_eq!(report.memory.len(), ranks, "one memory row per rank");
        let hist = report.phase("per-step/histogram").expect("histogram phase");
        assert_eq!(hist.samples, (STEPS * ranks) as u64);
        assert!(hist.min_s <= hist.mean_s && hist.mean_s <= hist.max_s);
    }
}

/// Run the same sim + analyses with the probe enabled and disabled; the
/// histogram and autocorrelation outputs must match bitwise — the
/// observability layer observes, it never perturbs.
#[test]
fn probes_do_not_perturb_results_bitwise() {
    fn run(probed: bool) -> (HistogramResult, AutocorrelationResult) {
        let deck = format_deck(&demo_oscillators());
        World::run(4, move |comm| {
            let cfg = SimConfig {
                grid: [GRID, GRID, GRID],
                steps: STEPS,
                ..SimConfig::default()
            };
            let root_deck = if comm.rank() == 0 {
                Some(deck.as_str())
            } else {
                None
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            let hist = HistogramAnalysis::new("data", 16);
            let hist_res = hist.results_handle();
            let ac = Autocorrelation::new("data", 3, 4);
            let ac_res = ac.results_handle();
            let mut bridge = if probed {
                let b = Bridge::with_probe(Probe::enabled());
                comm.attach_probe(b.probe().clone());
                b
            } else {
                Bridge::new()
            };
            bridge.register(Box::new(hist));
            bridge.register(Box::new(ac));
            for _ in 0..STEPS {
                sim.step(comm);
                bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            bridge.finalize(comm);
            if comm.rank() == 0 {
                Some((
                    hist_res.lock().clone().expect("histogram"),
                    ac_res.lock().clone().expect("autocorrelation"),
                ))
            } else {
                None
            }
        })
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 results")
    }

    let (h_off, ac_off) = run(false);
    let (h_on, ac_on) = run(true);

    assert_eq!(h_off.counts, h_on.counts, "histogram bins bitwise");
    assert_eq!(h_off.min.to_bits(), h_on.min.to_bits(), "min bitwise");
    assert_eq!(h_off.max.to_bits(), h_on.max.to_bits(), "max bitwise");
    assert_eq!(ac_off.len(), ac_on.len(), "one peak list per delay");
    for (a, b) in ac_off.iter().zip(&ac_on) {
        for (pa, pb) in a.iter().zip(b) {
            assert_eq!(pa.cell, pb.cell, "peak cell");
            assert_eq!(pa.value.to_bits(), pb.value.to_bits(), "peak value bitwise");
        }
    }
}

/// Every analysis phase is timed once, by the bridge, whether or not
/// the caller handed it a probe: the same `initialize/`, `per-step/`,
/// `finalize/` labels, one sample per rank per call: a span an analysis
/// opened under the bridge's label would double that count.
#[test]
fn probed_and_unprobed_bridges_report_the_same_phases() {
    const RANKS: usize = 2;
    fn run(probed: bool) -> Vec<(String, u64)> {
        let deck = format_deck(&demo_oscillators());
        let report = World::run(RANKS, move |comm| {
            let cfg = SimConfig {
                grid: [GRID, GRID, GRID],
                steps: STEPS,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck.as_str()));
            let mut bridge = if probed {
                Bridge::with_probe(Probe::enabled())
            } else {
                Bridge::new()
            };
            bridge
                .register(Box::new(HistogramAnalysis::new("data", 16)))
                .init_cost(0.25);
            bridge.register(Box::new(Autocorrelation::new("data", 3, 4)));
            for _ in 0..STEPS {
                sim.step(comm);
                bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            assert_eq!(
                comm.probe().is_enabled(),
                probed,
                "only a caller's probe is lent"
            );
            bridge.finalize(comm)
        })
        .remove(0);
        let top_level = |label: &str| label.matches('/').count() == 1 && label != "per-step/bridge";
        report
            .phases
            .iter()
            .filter(|p| top_level(&p.label))
            .map(|p| (p.label.clone(), p.samples))
            .collect()
    }

    let unprobed = run(false);
    assert_eq!(unprobed, run(true));
    let labels: Vec<&str> = unprobed.iter().map(|(l, _)| l.as_str()).collect();
    let expect: Vec<String> = ["finalize", "initialize", "per-step"]
        .iter()
        .flat_map(|phase| ["autocorrelation", "histogram"].map(|name| format!("{phase}/{name}")))
        .collect();
    assert_eq!(labels, expect);
    for (label, samples) in &unprobed {
        let calls = if label.starts_with("per-step/") {
            STEPS
        } else {
            1
        };
        assert_eq!(*samples, (calls * RANKS) as u64, "{label}");
    }
}

/// A report from a real instrumented run survives the serde-free JSON
/// writer and parser unchanged.
#[test]
fn run_report_round_trips_through_json() {
    let report = probed_run(4);
    let json = report.to_json();
    let back = RunReport::from_json(&json).expect("parse run report");
    assert_eq!(report, back, "report == parse(to_json(report))");
    // And the round trip is a fixed point.
    assert_eq!(json, back.to_json());
}

/// A render step's frames report their stages as product spans: a
/// Catalyst and a Libsim frame on each of two ranks record the range,
/// the plots' drawing, their compositing and the encode once a frame.
#[test]
fn render_frames_report_their_four_stages() {
    const RANKS: usize = 2;
    let deck = format_deck(&demo_oscillators());
    let report = World::run(RANKS, move |comm| {
        let cfg = SimConfig {
            grid: [GRID, GRID, GRID],
            steps: 1,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck.as_str()));
        let mut bridge = Bridge::with_probe(Probe::enabled());
        comm.attach_probe(bridge.probe().clone());
        let mut pipeline = catalyst::SlicePipeline::new("data", 2, 4);
        (pipeline.width, pipeline.height) = (64, 48);
        bridge.register(Box::new(catalyst::CatalystSliceAnalysis::new(pipeline)));
        let session =
            libsim::Session::parse("image 64 64\nplot pseudocolor data axis=z index=4\n").unwrap();
        let nowhere = std::path::Path::new("/nonexistent");
        bridge.register(Box::new(libsim::LibsimAnalysis::new(session, nowhere)));
        sim.step(comm);
        bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        bridge.finalize(comm)
    })
    .remove(0);
    for stage in ["range", "draw", "composite", "encode"] {
        let label = format!("per-step/render/{stage}");
        let phase = report.phase(&label).expect("the stage is a span");
        assert_eq!(
            (phase.ranks, phase.samples),
            (RANKS, 2 * RANKS as u64),
            "{label}"
        );
    }
}

/// The autocorrelation's finalize reports its local selection and its
/// cross-rank merge as two spans, one sample a rank each.
#[test]
fn autocorrelation_finalize_reports_select_and_reduce() {
    const RANKS: usize = 2;
    let report = probed_run(RANKS);
    for stage in ["select", "reduce"] {
        let label = format!("finalize/autocorrelation/{stage}");
        let phase = report.phase(&label).expect("the stage is a span");
        assert_eq!(
            (phase.ranks, phase.samples),
            (RANKS, RANKS as u64),
            "{label}"
        );
    }
}
