//! The per-step in situ hot path, measured end to end on real code:
//! simulation step (naive all-pairs vs culled) and the happens-before
//! sanitizer's overhead on a whole bridge run. The step section races
//! the shipped kernel against the reference the tests also compare it
//! with.
//!
//! Every recorded number is a **median of N timed rounds after warmup
//! rounds** ([`median_of`]); the seed report's single-shot methodology
//! produced artifacts like a negative sanitizer overhead (the baseline
//! leg paid the process warmup) and a sub-1.0 "speedup" on a
//! single-core host that was pure run-to-run noise.
//!
//! `perfgate` runs these on a sparse oscillator deck — many
//! small-radius oscillators whose supports cover a small fraction of the
//! domain, the regime support culling exists for — and writes
//! `BENCH_hotpath.fresh.json` with wall times and speedups.

use std::sync::Arc;

use probe::time::Wall;

use minimpi::{SchedPolicy, World, WorldBuilder};
use oscillator::{
    format_deck, Oscillator, OscillatorAdaptor, OscillatorKind, SimConfig, Simulation,
};
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::{Bridge, Probe, RunReport};

/// Warmup rounds discarded before timing starts.
pub const WARMUP_ROUNDS: usize = 1;
/// Timed rounds; odd, so the median is an actual sample.
pub const TIMED_ROUNDS: usize = 5;

/// Run `f` `warmup` untimed times, then `rounds` timed times, and return
/// the median of the timed samples. `f` returns its own measured
/// seconds, so per-round setup (world spawn, deck parse) stays outside
/// the measurement.
pub fn median_of(warmup: usize, rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    for _ in 0..warmup {
        let _ = f();
    }
    let mut xs: Vec<f64> = (0..rounds.max(1)).map(|_| f()).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs[xs.len() / 2]
}

/// A sparse deck: `n` small-radius oscillators scattered over the unit
/// cube. Support radius ≈ 38.6 × radius, so at radius ≈ 0.005 each
/// oscillator touches a few percent of the cells instead of all of them.
pub fn sparse_deck(n: usize) -> String {
    let oscillators: Vec<Oscillator> = (0..n)
        .map(|i| Oscillator {
            kind: match i % 3 {
                0 => OscillatorKind::Periodic,
                1 => OscillatorKind::Damped,
                _ => OscillatorKind::Decaying,
            },
            center: [
                (i as f64 * 0.377).fract(),
                (i as f64 * 0.617).fract(),
                (i as f64 * 0.839).fract(),
            ],
            radius: 0.004 + (i % 5) as f64 * 0.0008,
            omega: 1.0 + (i % 7) as f64,
            zeta: 0.08 * (i % 4) as f64,
        })
        .collect();
    format_deck(&oscillators)
}

/// One measured section: seconds for the baseline and optimized paths.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    pub baseline_s: f64,
    pub optimized_s: f64,
}

impl Section {
    /// Baseline time over optimized time.
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.optimized_s
    }
}

/// The full hot-path report.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    pub grid: [usize; 3],
    pub oscillators: usize,
    pub steps: usize,
    pub warmup_rounds: usize,
    pub timed_rounds: usize,
    /// Step loop: naive all-pairs kernel vs the culled kernel.
    pub step: Section,
    /// Sanitizer overhead: the same seeded oscillator + histogram
    /// bridge run on 8 ranks with the happens-before sanitizer off
    /// (baseline) vs on (optimized field holds the sanitized time, so
    /// `speedup()` < 1 reads as the overhead factor).
    pub sanitizer: Section,
    pub sanitizer_ranks: usize,
    /// The disabled path is bitwise-identical: rank 0's histogram from
    /// a sanitizer-off seeded run equals the sanitizer-on one.
    pub sanitizer_bitwise_identical: bool,
    /// Cross-rank observability report of an instrumented bridge run
    /// over the same deck: per-phase min/mean/max/stddev, collective
    /// message/byte counters, per-rank memory high-water.
    pub run_report: RunReport,
}

impl HotpathReport {
    /// Serialize as pretty-printed JSON (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"config\": {{\"grid\": [{}, {}, {}], \"oscillators\": {}, \"steps\": {}, \"warmup_rounds\": {}, \"timed_rounds\": {}}},\n",
            self.grid[0], self.grid[1], self.grid[2], self.oscillators, self.steps,
            self.warmup_rounds, self.timed_rounds
        ));
        s.push_str(&format!(
            "  \"step\": {{\"naive_s\": {:.6}, \"culled_s\": {:.6}, \"speedup\": {:.2}}},\n",
            self.step.baseline_s,
            self.step.optimized_s,
            self.step.speedup()
        ));
        s.push_str(&format!(
            "  \"sanitizer\": {{\"ranks\": {}, \"off_s\": {:.6}, \"on_s\": {:.6}, \"overhead_pct\": {:.2}, \"bitwise_identical\": {}}},\n",
            self.sanitizer_ranks,
            self.sanitizer.baseline_s,
            self.sanitizer.optimized_s,
            (self.sanitizer.optimized_s / self.sanitizer.baseline_s - 1.0) * 100.0,
            self.sanitizer_bitwise_identical
        ));
        s.push_str(&format!(
            "  \"run_report\": {}\n",
            self.run_report.to_json()
        ));
        s.push_str("}\n");
        s
    }
}

/// One probed bridge run — sim + histogram over `steps` on `ranks`
/// thread-backed ranks — returning rank 0's aggregated `RunReport` (the
/// per-phase breakdown embedded in `BENCH_hotpath.json`).
pub fn probed_run(deck: &str, grid: [usize; 3], steps: usize, ranks: usize) -> RunReport {
    let deck = deck.to_string();
    World::run(ranks, move |comm| {
        let cfg = SimConfig {
            grid,
            steps,
            ..SimConfig::default()
        };
        let root_deck = if comm.rank() == 0 {
            Some(deck.as_str())
        } else {
            None
        };
        let mut sim = Simulation::new(comm, cfg, root_deck);
        let mut bridge = Bridge::with_probe(Probe::enabled());
        bridge.register(Box::new(HistogramAnalysis::new("data", 64)));
        for _ in 0..steps {
            sim.step(comm);
            bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        }
        bridge.finalize(comm)
    })
    .remove(0)
}

/// Time `steps` simulation steps through `step_fn` on a single rank.
fn time_steps(
    deck: &str,
    grid: [usize; 3],
    steps: usize,
    step_fn: impl Fn(&mut Simulation, &minimpi::Comm) + Send + Sync + 'static,
) -> f64 {
    let deck = deck.to_string();
    World::run(1, move |comm| {
        let cfg = SimConfig {
            grid,
            steps,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, cfg, Some(deck.as_str()));
        let t0 = Wall::now();
        for _ in 0..steps {
            step_fn(&mut sim, comm);
        }
        t0.elapsed().as_secs_f64()
    })
    .remove(0)
}

/// One seeded oscillator + histogram bridge run on `ranks` ranks,
/// optionally with a happens-before sanitizer session installed
/// (`Mode::Collect`, asserted clean). Returns the wall time and rank
/// 0's histogram — the seeded schedule makes the histogram a bitwise
/// witness that the sanitizer never perturbs results.
fn time_sanitized_run(
    deck: &str,
    grid: [usize; 3],
    steps: usize,
    ranks: usize,
    sanitize: bool,
) -> (f64, sensei::analysis::histogram::HistogramResult) {
    let deck = deck.to_string();
    let mut builder = WorldBuilder::new(ranks).sched(SchedPolicy::Seeded(7));
    let session = sanitize.then(|| sanitizer::Session::new(ranks, sanitizer::Mode::Collect));
    if let Some(session) = &session {
        builder = builder.sanitizer(Arc::clone(session));
    }
    let t0 = Wall::now();
    let hist = builder
        .run(move |comm| {
            let cfg = SimConfig {
                grid,
                steps,
                ..SimConfig::default()
            };
            let root_deck = if comm.rank() == 0 {
                Some(deck.as_str())
            } else {
                None
            };
            let mut sim = Simulation::new(comm, cfg, root_deck);
            let hist = HistogramAnalysis::new("data", 64);
            let results = hist.results_handle();
            let mut bridge = Bridge::new();
            bridge.register(Box::new(hist));
            for _ in 0..steps {
                sim.step(comm);
                bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            bridge.finalize(comm);
            let hist = results.lock().take();
            hist
        })
        .remove(0)
        .expect("rank 0 histogram present");
    let elapsed = t0.elapsed().as_secs_f64();
    if let Some(session) = &session {
        let findings = session.findings();
        assert!(
            findings.is_empty(),
            "hot path must be sanitizer-clean, got: {:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }
    (elapsed, hist)
}

/// Run the full hot-path measurement.
pub fn run(grid: [usize; 3], oscillators: usize, steps: usize) -> HotpathReport {
    let deck = sparse_deck(oscillators);

    // The naive all-pairs loop is by far the slowest leg; fewer timed
    // rounds keep the suite's wall clock sane without giving up the
    // median (3 samples still reject a one-off outlier).
    let naive = median_of(WARMUP_ROUNDS, 3, || {
        time_steps(&deck, grid, steps, |sim, comm| sim.step_naive(comm))
    });
    let culled = median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
        time_steps(&deck, grid, steps, |sim, comm| sim.step(comm))
    });

    let san_ranks = 8;
    let (san_off, hist_off) = {
        let mut hist = None;
        let s = median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
            let (s, h) = time_sanitized_run(&deck, grid, steps, san_ranks, false);
            hist = Some(h);
            s
        });
        (s, hist.expect("sanitizer-off run happened"))
    };
    let (san_on, hist_on) = {
        let mut hist = None;
        let s = median_of(WARMUP_ROUNDS, TIMED_ROUNDS, || {
            let (s, h) = time_sanitized_run(&deck, grid, steps, san_ranks, true);
            hist = Some(h);
            s
        });
        (s, hist.expect("sanitizer-on run happened"))
    };

    let run_report = probed_run(&deck, grid, steps, 4);

    HotpathReport {
        grid,
        oscillators,
        steps,
        warmup_rounds: WARMUP_ROUNDS,
        timed_rounds: TIMED_ROUNDS,
        step: Section {
            baseline_s: naive,
            optimized_s: culled,
        },
        sanitizer: Section {
            baseline_s: san_off,
            optimized_s: san_on,
        },
        sanitizer_ranks: san_ranks,
        sanitizer_bitwise_identical: hist_off == hist_on,
        run_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfgate::{gate, TOLERANCE};

    #[test]
    fn report_measures_and_serializes() {
        let r = run([8, 8, 8], 4, 2);
        let doc = probe::Json::parse(&r.to_json()).expect("well-formed JSON");
        let gated = gate("hotpath", &doc, &doc, TOLERANCE);
        assert!(gated.passed(), "{:?}", gated.failures);
    }
}
