//! Offload-executor microbench: the overlap the perf gate tracks for
//! the async analysis offload path.
//!
//! The offload executor snapshots the published mesh into device space
//! and runs the analyses on workers overlapping the next simulation
//! step. The gated number is `overlap.efficiency`: worker-busy seconds
//! hidden behind the simulation over total busy seconds
//! (`Bridge::overlap_efficiency`; 1.0 = the analyses were free, 0.0 =
//! no overlap at all). That offloading leaves the results bitwise
//! unchanged and moves exactly one snapshot a step is asserted exactly
//! by `sensei::bridge`'s own tests.

use minimpi::{SchedPolicy, WorldBuilder};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::histogram::HistogramAnalysis;
use sensei::{Bridge, OffloadConfig};

/// Ranks per measured world.
pub const RANKS: usize = 4;
/// Per-rank oscillator grid.
pub const GRID: [usize; 3] = [40, 40, 40];
/// Steps per run.
pub const STEPS: usize = 8;
/// Histogram bins.
pub const BINS: usize = 64;
/// Warmup worlds before the timed ones.
pub const WARMUP_ROUNDS: usize = 1;
/// Timed worlds; the report keeps the median efficiency.
pub const TIMED_ROUNDS: usize = 3;

/// Drive the golden oscillator deck through offloaded histogram +
/// autocorrelation under one seed; rank 0's overlap efficiency.
fn world_run() -> f64 {
    let deck = format_deck(&demo_oscillators());
    let out = WorldBuilder::new(RANKS)
        .sched(SchedPolicy::Seeded(1))
        .run(move |comm| {
            let cfg = SimConfig {
                grid: GRID,
                steps: STEPS,
                ..SimConfig::default()
            };
            let root = if comm.rank() == 0 {
                Some(deck.as_str())
            } else {
                None
            };
            let mut sim = Simulation::new(comm, cfg, root);
            // Probed, as the baseline was recorded: the instrumented
            // collectives lengthen the window the workers hide behind
            // (on a 2-vCPU host, ten unprobed runs read 0.83–0.95,
            // ten probed ones 0.95–0.99).
            let mut bridge = Bridge::with_probe(probe::enabled());
            bridge.register(Box::new(HistogramAnalysis::new("data", BINS)));
            bridge.register(Box::new(Autocorrelation::new("data", 3, 8)));
            bridge.enable_offload(OffloadConfig::default());
            for _ in 0..STEPS {
                sim.step(comm);
                bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            bridge.finalize(comm);
            bridge.overlap_efficiency()
        });
    out[0].unwrap_or(0.0)
}

/// The measured offload report.
#[derive(Clone, Debug)]
pub struct OffloadReport {
    /// Rank 0's measured overlap efficiency (hidden / busy), median of
    /// the timed rounds.
    pub efficiency: f64,
}

impl OffloadReport {
    /// Serialize in the flat one-line-per-section layout the perf gate
    /// parses.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"config\": {{\"ranks\": {RANKS}, \"grid\": [{}, {}, {}], \"steps\": {STEPS}, \
             \"bins\": {BINS}, \"warmup_rounds\": {WARMUP_ROUNDS}, \
             \"timed_rounds\": {TIMED_ROUNDS}}},\n",
            GRID[0], GRID[1], GRID[2]
        ));
        s.push_str(&format!(
            "  \"overlap\": {{\"efficiency\": {:.4}}}\n",
            self.efficiency
        ));
        s.push_str("}\n");
        s
    }
}

/// Measure: warmup worlds, then the median efficiency of the timed ones.
pub fn run() -> OffloadReport {
    for _ in 0..WARMUP_ROUNDS {
        world_run();
    }
    let mut timed: Vec<f64> = (0..TIMED_ROUNDS).map(|_| world_run()).collect();
    timed.sort_by(f64::total_cmp);
    OffloadReport {
        efficiency: timed[TIMED_ROUNDS / 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfgate::{gate, TOLERANCE};

    #[test]
    fn report_measures_and_serializes() {
        let r = run();
        assert!(
            r.efficiency > 0.0 && r.efficiency <= 1.0,
            "overlap efficiency in (0, 1]: {}",
            r.efficiency
        );
        let doc = probe::Json::parse(&r.to_json()).expect("well-formed JSON");
        let gated = gate("offload", &doc, &doc, TOLERANCE);
        assert!(gated.passed(), "{:?}", gated.failures);
    }
}
