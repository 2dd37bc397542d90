//! One fresh child process: one measured round, then the set-up cycles,
//! then a report to the parent on the last line of stdout.
//!
//! Per-process level shifts (memory layout, host state) survive any
//! run length, so a run is several children and every number is taken
//! across them; a child itself does nothing twice in one address space
//! except the set-up cycles, which need repeating to be measurable.

use std::sync::Arc;

use probe::Json;
use sensei::analysis::histogram::HistogramResult;

use crate::jsonx::{self, hex, num, nums, obj, opt, text, texts};
use crate::trace::{self, Span};
use crate::workloads::{run_round, RankOut, Round, Shape, Workload, SIM_RANKS};
use crate::{deck, env, stats, verify};

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub grid: usize,
    pub steps: usize,
    /// Set-up cycles after the measured round.
    pub cycles: usize,
    pub traced: bool,
}

/// What a child tells its parent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub steps: usize,
    /// World spawn to world teardown of the measured round.
    pub time_to_solution_s: f64,
    /// Entry of the rank closure to the first step, slowest rank.
    pub setup_first_s: f64,
    /// Per step, the slowest simulation rank's step + execute.
    pub step_walls_ms: Vec<f64>,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// `VmHWM` when the measured round has torn down.
    pub peak_rss_mb: f64,
    /// Wall time of each complete set-up cycle (a one-step round).
    pub cycles_s: Vec<f64>,
    pub digest: verify::Digest,
    /// Field digest after the one step of the first set-up cycle.
    pub first_field: Option<u64>,
    /// Per-layer values this child's spans and counters give.
    pub layers: Vec<(String, f64)>,
    /// Self time per span name on the blocking rank, ms over the round.
    pub self_times_ms: Vec<(String, f64)>,
    /// The round's spans as `[name, rank, step, parent, start_us,
    /// end_us]` rows, for the trace file.
    pub spans: Vec<Json>,
}

/// Run the child's work.
pub fn run(args: &ChildArgs) -> ChildReport {
    if args.traced {
        crate::alloc::track();
    }
    let deck = Arc::new(deck::deck_text(args.seed));
    let shape = Shape {
        grid: args.grid,
        steps: args.steps,
        traced: args.traced,
    };
    let (user0, sys0) = env::process_cpu();
    let round = run_round(args.workload, &deck, shape);
    let (user1, sys1) = env::process_cpu();
    let peak_rss_mb = env::peak_rss_mb();

    let sim_ranks = &round.ranks[..SIM_RANKS];
    let step_walls_ms: Vec<f64> = (0..args.steps)
        .map(|s| {
            stats::max(
                &sim_ranks
                    .iter()
                    .map(|r| r.step_walls[s])
                    .collect::<Vec<_>>(),
            ) * 1e3
        })
        .collect();
    let mut report = ChildReport {
        steps: args.steps,
        time_to_solution_s: round.wall_s,
        setup_first_s: stats::max(&round.ranks.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        step_walls_ms,
        cpu_user_s: user1 - user0,
        cpu_sys_s: sys1 - sys0,
        peak_rss_mb,
        digest: verify::digest(args.workload, shape, &round.ranks),
        ..ChildReport::default()
    };
    if args.traced {
        layers_from_round(&round, args.steps, &mut report);
    }
    drop(round);

    let cycle = Shape {
        steps: 1,
        traced: false,
        ..shape
    };
    for i in 0..args.cycles {
        let round = run_round(args.workload, &deck, cycle);
        report.cycles_s.push(round.wall_s);
        if i == 0 {
            let digest = verify::digest(args.workload, cycle, &round.ranks);
            report.first_field = Some(digest.field);
            report.digest.local_errors.extend(
                digest
                    .local_errors
                    .into_iter()
                    .map(|e| format!("set-up cycle: {e}")),
            );
        }
    }
    report
}

fn counter_sum(ranks: &[RankOut], pick: impl Fn(&(String, u64, u64)) -> u64) -> f64 {
    ranks
        .iter()
        .flat_map(|r| &r.counters)
        // The harness's own skew barrier is not the program's traffic.
        .filter(|c| c.0.starts_with("minimpi/") && c.0 != "minimpi/barrier")
        .map(pick)
        .sum::<u64>() as f64
}

fn gauge_max(ranks: &[RankOut], name: &str) -> f64 {
    ranks
        .iter()
        .flat_map(|r| &r.gauges)
        .filter(|g| g.0 == name)
        .map(|g| g.1)
        .max()
        .unwrap_or(0) as f64
}

/// The per-layer values a traced round gives: span medians (per step,
/// slowest rank), the program's own counters and gauges, and the layer
/// self-time table of the blocking rank.
fn layers_from_round(round: &Round, steps: usize, report: &mut ChildReport) {
    let ranks: Vec<&[Span]> = round.ranks.iter().map(|r| &r.spans[..]).collect();
    let n = steps as f64;
    let step_ms =
        |name: &str, own: bool| stats::median(&trace::per_step_us(&ranks, name, steps, own)) / 1e3;
    let writers: Vec<_> = round.ranks.iter().filter_map(|r| r.writer).collect();
    let per_step_ms = |pick: fn(&crate::workloads::WriterStats) -> f64| {
        writers.iter().map(pick).fold(0.0, f64::max) / n * 1e3
    };
    let shared = gauge_max(&round.ranks, probe::GAUGE_DATASET_SHARED);
    let owned = gauge_max(&round.ranks, probe::GAUGE_DATASET_OWNED);

    // The blocking rank: the one whose steps took longest in total.
    let step_total = |spans: &[Span]| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == "step")
            .map(Span::duration_us)
            .sum()
    };
    let blocking = ranks
        .iter()
        .copied()
        .max_by(|a, b| step_total(a).total_cmp(&step_total(b)))
        .expect("a round has ranks");
    let total_us = step_total(blocking);
    let mut self_times: Vec<(String, f64)> = Vec::new();
    for (span, own_us) in blocking.iter().zip(trace::self_times_us(blocking)) {
        if span.step < 0 {
            continue;
        }
        match self_times.iter_mut().find(|(name, _)| name == span.name) {
            Some((_, total)) => *total += own_us / 1e3,
            None => self_times.push((span.name.to_string(), own_us / 1e3)),
        }
    }
    let self_ms = |name: &str| {
        self_times
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ms)| *ms)
    };
    let share = |ms: f64| {
        if total_us > 0.0 {
            100.0 * ms * 1e3 / total_us
        } else {
            0.0
        }
    };

    report.layers = vec![
        ("oscillator.step_ms", step_ms("oscillator.step", false)),
        ("oscillator.share_pct", share(self_ms("oscillator.step"))),
        (
            "oscillator.new_ms",
            trace::outside_steps_us(&ranks, "oscillator.new") / 1e3,
        ),
        ("sensei.execute_ms", step_ms("sensei.execute", false)),
        (
            "sensei.bridge_self_us",
            step_ms("sensei.execute", true) * 1e3,
        ),
        ("sensei.adaptor_us", step_ms(trace::ADAPTOR, false) * 1e3),
        ("sensei.histogram_ms", step_ms("sensei.histogram", false)),
        (
            "sensei.autocorrelation_ms",
            step_ms("sensei.autocorrelation", false),
        ),
        (
            "sensei.histogram_endpoint_ms",
            step_ms("sensei.histogram_endpoint", false),
        ),
        (
            "sensei.finalize_ms",
            trace::outside_steps_us(&ranks, "sensei.finalize") / 1e3,
        ),
        ("minimpi.skew_wait_ms", step_ms("minimpi.skew_wait", false)),
        (
            "minimpi.msgs_per_step",
            counter_sum(&round.ranks, |c| c.1) / n,
        ),
        (
            "minimpi.bytes_per_step",
            counter_sum(&round.ranks, |c| c.2) / n,
        ),
        ("datamodel.shared_bytes", shared),
        ("datamodel.owned_bytes", owned),
        (
            "datamodel.zero_copy_pct",
            if shared + owned > 0.0 {
                100.0 * shared / (shared + owned)
            } else {
                0.0
            },
        ),
        ("catalyst.execute_ms", step_ms("catalyst.execute", false)),
        ("libsim.execute_ms", step_ms("libsim.execute", false)),
        ("adios.write_ms", per_step_ms(|w| w.write_s)),
        ("adios.advance_wait_ms", per_step_ms(|w| w.advance_s)),
        (
            "adios.bytes_per_step",
            writers.iter().map(|w| w.bytes_shipped).sum::<usize>() as f64 / n,
        ),
        (
            "adios.endpoint_step_ms",
            round
                .ranks
                .iter()
                .map(|r| r.endpoint_cpu_s)
                .fold(0.0, f64::max)
                / n
                * 1e3,
        ),
        (
            "probe.alloc_peak_mb",
            round
                .ranks
                .iter()
                .map(|r| r.alloc_peak_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1e6,
        ),
        ("run.residual_pct", share(self_ms("step"))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    report.self_times_ms = self_times;
    report.spans = ranks
        .iter()
        .copied()
        .flatten()
        .map(|s| {
            Json::Arr(vec![
                text(s.name),
                num(s.rank as f64),
                num(s.step as f64),
                s.parent.map_or(Json::Null, |p| num(p as f64)),
                num(s.start_us),
                num(s.end_us),
            ])
        })
        .collect();
}

fn histogram_to_json(h: &HistogramResult) -> Json {
    obj([
        ("min", hex(h.min.to_bits())),
        ("max", hex(h.max.to_bits())),
        (
            "counts",
            nums(&h.counts.iter().map(|&c| c as f64).collect::<Vec<_>>()),
        ),
        ("step", num(h.step as f64)),
    ])
}

fn histogram_from_json(json: &Json) -> Result<HistogramResult, String> {
    let bits = |key| jsonx::get_hex(json, key)?.ok_or_else(|| format!("missing '{key}'"));
    Ok(HistogramResult {
        min: f64::from_bits(bits("min")?),
        max: f64::from_bits(bits("max")?),
        counts: jsonx::get_nums(json, "counts")?
            .into_iter()
            .map(|c| c as u64)
            .collect(),
        step: jsonx::get_f64(json, "step")? as u64,
    })
}

fn map_to_json(map: &[(String, f64)]) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
}

impl ChildReport {
    pub fn to_json(&self) -> Json {
        obj([
            ("steps", num(self.steps as f64)),
            ("time_to_solution_s", num(self.time_to_solution_s)),
            ("setup_first_s", num(self.setup_first_s)),
            ("step_walls_ms", nums(&self.step_walls_ms)),
            ("cpu_user_s", num(self.cpu_user_s)),
            ("cpu_sys_s", num(self.cpu_sys_s)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            ("cycles_s", nums(&self.cycles_s)),
            ("field", hex(self.digest.field)),
            ("first_field", opt(self.first_field.map(hex))),
            (
                "histogram",
                opt(self.digest.histogram.as_ref().map(histogram_to_json)),
            ),
            ("catalyst_png", opt(self.digest.catalyst_png.map(hex))),
            ("errors", texts(&self.digest.local_errors)),
            ("layers", map_to_json(&self.layers)),
            ("self_times_ms", map_to_json(&self.self_times_ms)),
            ("spans", Json::Arr(self.spans.clone())),
        ])
    }

    pub fn from_json(json: &Json) -> Result<ChildReport, String> {
        Ok(ChildReport {
            steps: jsonx::get_f64(json, "steps")? as usize,
            time_to_solution_s: jsonx::get_f64(json, "time_to_solution_s")?,
            setup_first_s: jsonx::get_f64(json, "setup_first_s")?,
            step_walls_ms: jsonx::get_nums(json, "step_walls_ms")?,
            cpu_user_s: jsonx::get_f64(json, "cpu_user_s")?,
            cpu_sys_s: jsonx::get_f64(json, "cpu_sys_s")?,
            peak_rss_mb: jsonx::get_f64(json, "peak_rss_mb")?,
            cycles_s: jsonx::get_nums(json, "cycles_s")?,
            digest: verify::Digest {
                field: jsonx::get_hex(json, "field")?.ok_or("missing 'field'")?,
                histogram: match json.get("histogram") {
                    None | Some(Json::Null) => None,
                    Some(h) => Some(histogram_from_json(h)?),
                },
                catalyst_png: jsonx::get_hex(json, "catalyst_png")?,
                local_errors: jsonx::get_texts(json, "errors")?,
            },
            first_field: jsonx::get_hex(json, "first_field")?,
            layers: jsonx::get_map(json, "layers")?,
            self_times_ms: jsonx::get_map(json, "self_times_ms")?,
            spans: json
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or("missing 'spans'")?
                .to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_json_line() {
        let report = ChildReport {
            steps: 3,
            time_to_solution_s: 1.25,
            setup_first_s: 0.031,
            step_walls_ms: vec![20.5, 19.25, 21.0],
            cpu_user_s: 2.0,
            cpu_sys_s: 0.25,
            peak_rss_mb: 123.5,
            cycles_s: vec![0.06, 0.07],
            digest: verify::Digest {
                field: 0xDEAD_BEEF_0123_4567,
                histogram: Some(HistogramResult {
                    min: -0.1,
                    max: 1.0 / 3.0,
                    counts: vec![1, 2, 3],
                    step: 3,
                }),
                catalyst_png: Some(u64::MAX),
                local_errors: vec!["a \"quoted\" problem".to_string()],
            },
            first_field: None,
            layers: vec![("oscillator.step_ms".to_string(), 19.5)],
            self_times_ms: vec![("step".to_string(), 0.5)],
            spans: vec![Json::Arr(vec![
                text("oscillator.step"),
                num(1.0),
                num(2.0),
                Json::Null,
                num(1.5),
                num(9.0),
            ])],
        };
        let line = jsonx::line(&report.to_json());
        assert!(!line.contains('\n'));
        let back = ChildReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
