//! Offload-executor microbench: the dimensionless metrics the perf
//! gate tracks for the async analysis offload path (ISSUE 8).
//!
//! The measured comparison is the paper's central trade: synchronous
//! in situ analysis blocks the simulation for the full analysis cost,
//! while the offload executor snapshots the published mesh into
//! device space and runs the analyses on workers overlapping the next
//! simulation step. The gated numbers:
//!
//! * `overlap.efficiency` — worker-busy seconds hidden behind the
//!   simulation over total busy seconds (`Bridge::overlap_efficiency`;
//!   1.0 = the analyses were free, 0.0 = no overlap at all);
//! * `transfer.bytes_ratio` — H2D transfer bytes over the ideal
//!   `steps × Σ_ranks mesh_payload` (1.0 = exactly one device snapshot
//!   per published step; growth means a double-copy crept in);
//! * `results.bitwise_identical` — the offloaded histogram and
//!   autocorrelation artifacts equal the synchronous host run's,
//!   bit for bit (correctness fact, gated outright).

use minimpi::{SchedPolicy, WorldBuilder};
use oscillator::{demo_oscillators, osc::format_deck, OscillatorAdaptor, SimConfig, Simulation};
use probe::time::Wall;
use sensei::analysis::autocorrelation::{Autocorrelation, AutocorrelationResult};
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::{Bridge, DataAdaptor as _, OffloadConfig};

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
/// Timed worlds; the report keeps the median wall time.
pub const TIMED_ROUNDS: usize = 3;

/// What one world run produces: rank 0's analysis artifacts plus the
/// run's measured costs.
struct RunOutcome {
    hist: HistogramResult,
    ac: AutocorrelationResult,
    /// Max over ranks of the step-loop wall seconds.
    loop_s: f64,
    /// Rank 0's `Bridge::overlap_efficiency` (None when synchronous).
    efficiency: Option<f64>,
    /// `space/h2d` bytes summed over ranks (0 when synchronous).
    h2d_bytes: u64,
    /// `steps × Σ_ranks full-mesh payload bytes` — the ideal transfer.
    ideal_bytes: u64,
}

/// Drive the golden oscillator deck through histogram +
/// autocorrelation under one seed, synchronously or offloaded.
fn world_run(offload: bool) -> RunOutcome {
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
            let hist = HistogramAnalysis::new("data", BINS);
            let hist_res = hist.results_handle();
            let ac = Autocorrelation::new("data", 3, 8);
            let ac_res = ac.results_handle();
            let mut bridge = Bridge::with_probe(probe::enabled());
            bridge.register(Box::new(hist));
            bridge.register(Box::new(ac));
            if offload {
                bridge.enable_offload(OffloadConfig::default());
            }
            let per_rank_payload = OscillatorAdaptor::new(&sim).full_mesh().payload_bytes() as u64;
            let t0 = Wall::now();
            for _ in 0..STEPS {
                sim.step(comm);
                bridge.execute(&OscillatorAdaptor::new(&sim), comm);
            }
            let report = bridge.finalize(comm);
            let loop_s = t0.elapsed().as_secs_f64();
            let loop_max = comm.allreduce_scalar(loop_s.to_bits(), |a, b| {
                if f64::from_bits(a) >= f64::from_bits(b) {
                    a
                } else {
                    b
                }
            });
            let ideal = comm.allreduce_scalar(per_rank_payload, |a, b| a + b) * STEPS as u64;
            if comm.rank() == 0 {
                Some(RunOutcome {
                    hist: hist_res.lock().clone().expect("histogram"),
                    ac: ac_res.lock().clone().expect("autocorrelation"),
                    loop_s: f64::from_bits(loop_max),
                    efficiency: bridge.overlap_efficiency(),
                    h2d_bytes: report
                        .counter(sensei::bridge::COUNTER_H2D)
                        .map(|c| c.bytes)
                        .unwrap_or(0),
                    ideal_bytes: ideal,
                })
            } else {
                None
            }
        });
    out.into_iter().flatten().next().expect("rank 0 outcome")
}

/// The measured offload report; every gated entry is dimensionless.
#[derive(Clone, Debug)]
pub struct OffloadReport {
    /// Synchronous step-loop wall seconds (median of timed rounds).
    pub sync_s: f64,
    /// Offloaded step-loop wall seconds (median of timed rounds).
    pub offload_s: f64,
    /// Rank 0's measured overlap efficiency (hidden / busy).
    pub efficiency: f64,
    /// H2D transfer bytes summed over ranks, one timed round.
    pub h2d_bytes: u64,
    /// Ideal transfer: `steps × Σ_ranks mesh_payload` bytes.
    pub ideal_bytes: u64,
    /// Offloaded artifacts equal the synchronous run's, bit for bit.
    pub bitwise_identical: bool,
}

impl OffloadReport {
    /// Synchronous loop over the offloaded loop (>1 = overlap paid off).
    pub fn step_speedup(&self) -> f64 {
        self.sync_s / self.offload_s
    }

    /// Measured H2D bytes over the ideal one-snapshot-per-step cost.
    pub fn transfer_ratio(&self) -> f64 {
        self.h2d_bytes as f64 / self.ideal_bytes as f64
    }

    /// Serialize in the flat one-line-per-section layout the perf gate
    /// parses (same conventions as `BENCH_hotpath.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"config\": {{\"ranks\": {RANKS}, \"grid\": [{}, {}, {}], \"steps\": {STEPS}, \
             \"bins\": {BINS}, \"warmup_rounds\": {WARMUP_ROUNDS}, \
             \"timed_rounds\": {TIMED_ROUNDS}}},\n",
            GRID[0], GRID[1], GRID[2]
        ));
        s.push_str(&format!(
            "  \"overlap\": {{\"sync_s\": {:.6}, \"offload_s\": {:.6}, \"step_speedup\": {:.3}, \
             \"efficiency\": {:.4}}},\n",
            self.sync_s,
            self.offload_s,
            self.step_speedup(),
            self.efficiency
        ));
        s.push_str(&format!(
            "  \"transfer\": {{\"h2d_bytes\": {}, \"ideal_bytes\": {}, \"bytes_ratio\": {:.4}}},\n",
            self.h2d_bytes,
            self.ideal_bytes,
            self.transfer_ratio()
        ));
        s.push_str(&format!(
            "  \"results\": {{\"bitwise_identical\": {}}}\n",
            self.bitwise_identical
        ));
        s.push('}');
        s.push('\n');
        s
    }
}

/// Measure everything: warmup + timed rounds of both modes, medians of
/// the wall times, last offloaded round's efficiency and transfer.
pub fn run() -> OffloadReport {
    for _ in 0..WARMUP_ROUNDS {
        let _ = world_run(false);
        let _ = world_run(true);
    }
    let mut sync_walls = Vec::new();
    let mut offload_walls = Vec::new();
    let mut sync_last = None;
    let mut offload_last = None;
    for _ in 0..TIMED_ROUNDS {
        let s = world_run(false);
        sync_walls.push(s.loop_s);
        sync_last = Some(s);
        let o = world_run(true);
        offload_walls.push(o.loop_s);
        offload_last = Some(o);
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let sync = sync_last.expect("timed sync round");
    let off = offload_last.expect("timed offload round");
    OffloadReport {
        sync_s: median(sync_walls),
        offload_s: median(offload_walls),
        efficiency: off.efficiency.unwrap_or(0.0),
        h2d_bytes: off.h2d_bytes,
        ideal_bytes: off.ideal_bytes,
        bitwise_identical: sync.hist == off.hist && sync.ac == off.ac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfgate::{gate, TOLERANCE};

    #[test]
    fn report_measures_and_serializes() {
        let r = run();
        assert!(r.sync_s > 0.0 && r.offload_s > 0.0);
        assert!(
            r.efficiency > 0.0 && r.efficiency <= 1.0,
            "overlap efficiency in (0, 1]: {}",
            r.efficiency
        );
        assert!(r.bitwise_identical, "offload must not change results");
        // One device snapshot per published step, nothing more: the
        // measured bytes match the ideal exactly (same code computes
        // both sides, so this is a double-copy tripwire, not a timing).
        assert_eq!(r.h2d_bytes, r.ideal_bytes);
        let doc = probe::Json::parse(&r.to_json()).expect("well-formed JSON");
        let gated = gate("offload", &doc, &doc, TOLERANCE);
        assert!(gated.passed(), "{:?}", gated.failures);
    }
}
