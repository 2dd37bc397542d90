//! `repeat`: does the benchmark agree with itself?
//!
//! Runs every workload `runs` times in each of `sets` sets, the sets
//! interleaved (A B A B …) so that drift of the machine lands on all
//! of them, and compares the sets the way the driver compares two
//! builds of one commit. Run `r` of every set uses seed `seed + r`, as
//! the driver gives every run of a set another seed. Per workload and
//! end-to-end metric it prints each set's median and quartiles, the gap
//! between the set medians, the spread inside a set, and the metric's
//! bound. A row is outside when the gap between the set medians exceeds
//! the bound, when (except for `setup_s`, as in the driver's rule) a
//! set's interquartile range over its median does, or when a set's
//! (max − min) / median exceeds [`WITHIN_SET_LIMIT`].

use probe::Json;

use crate::jsonx::{self, num, nums, obj, text};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::run::{self, RunConfig, OUT_DIR};
use crate::stats;
use crate::workloads::Workload;

/// Largest (max − min) / median a set may show in any metric.
pub const WITHIN_SET_LIMIT: f64 = 0.10;

pub struct RepeatConfig {
    pub sets: usize,
    pub runs: usize,
    /// Seed of every set's first run.
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub workloads: Vec<Workload>,
}

/// Is a row inside its limits, given the widest gap between set
/// medians, IQR / median and (max − min) / median of its sets?
fn inside(metric: &EndToEnd, gap: f64, iqr: f64, within: f64) -> bool {
    // `setup_s`'s quartiles are not gated by the driver, its gap is.
    gap <= metric.bound
        && (metric.name == "setup_s" || iqr <= metric.bound)
        && within <= WITHIN_SET_LIMIT
}

/// Run the sets and report; `Ok(true)` when every gap and spread is
/// inside its limit.
pub fn repeat(cfg: &RepeatConfig) -> Result<bool, String> {
    // values[set][workload][metric] = one value per run
    let mut values =
        vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; cfg.workloads.len()]; cfg.sets];
    let mut environment = Json::Null;
    // What each run of a workload took.
    let mut walls = vec![Vec::<f64>::new(); cfg.workloads.len()];
    for r in 0..cfg.runs {
        for (set, values) in values.iter_mut().enumerate() {
            for (w, &workload) in cfg.workloads.iter().enumerate() {
                let outcome = run::run(&RunConfig {
                    workload,
                    seed: cfg.seed + r as u64,
                    seconds: cfg.seconds,
                    traced: false,
                    tiny: cfg.tiny,
                })?;
                if !outcome.correct {
                    return Err(format!(
                        "{}: verification failed: {:?}",
                        workload.name(),
                        outcome.errors
                    ));
                }
                for (m, metric) in outcome.metrics.iter().enumerate() {
                    values[w][m].push(metric.value);
                }
                walls[w].push(outcome.wall_s);
                environment = outcome.environment;
                eprintln!(
                    "run {r} set {set} {} done in {:.1} s",
                    workload.name(),
                    outcome.wall_s
                );
            }
        }
    }

    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<18} {:<19} {:>10} {:>7} {:>7} {:>7} {:>6}",
        "workload", "metric", "median[0]", "gap%", "within%", "iqr%", "bound%"
    );
    for (w, workload) in cfg.workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let sets: Vec<&Vec<f64>> = values.iter().map(|set| &set[w][m]).collect();
            let medians: Vec<f64> = sets.iter().map(|v| stats::median(v)).collect();
            let quartiles: Vec<(f64, f64)> = sets
                .iter()
                .map(|v| {
                    if v.len() >= 2 {
                        stats::quartiles(v)
                    } else {
                        (v[0], v[0])
                    }
                })
                .collect();
            let gap = medians
                .iter()
                .map(|m| (m - medians[0]).abs() / medians[0])
                .fold(0.0, f64::max);
            // The driver's rule: a later median may not be worse than
            // the first by more than the bound.
            let sign = if metric.better == "lower" { 1.0 } else { -1.0 };
            let worse = medians
                .iter()
                .map(|m| sign * (m - medians[0]) / medians[0])
                .fold(0.0, f64::max);
            let within: Vec<f64> = sets
                .iter()
                .zip(&medians)
                .map(|(v, med)| (stats::max(v) - stats::min(v)) / med)
                .collect();
            let iqr: Vec<f64> = quartiles
                .iter()
                .zip(&medians)
                .map(|((q1, q3), med)| (q3 - q1) / med)
                .collect();
            let row_ok = inside(metric, gap, stats::max(&iqr), stats::max(&within));
            ok &= row_ok;
            println!(
                "{:<18} {:<19} {:>10.4} {:>7.2} {:>7.2} {:>7.2} {:>6.1}{}",
                workload.name(),
                metric.name,
                medians[0],
                100.0 * gap,
                100.0 * stats::max(&within),
                100.0 * stats::max(&iqr),
                100.0 * metric.bound,
                if row_ok { "" } else { "  <-- outside" }
            );
            rows.push(obj([
                ("workload", text(workload.name())),
                ("metric", text(metric.name)),
                ("unit", text(metric.unit)),
                ("bound", num(metric.bound)),
                ("medians", nums(&medians)),
                (
                    "quartiles",
                    Json::Arr(quartiles.iter().map(|&(a, b)| nums(&[a, b])).collect()),
                ),
                ("gap", num(gap)),
                ("later_set_worse_by", num(worse)),
                ("within_set_spread", nums(&within)),
                ("iqr_over_median", nums(&iqr)),
                ("values", Json::Arr(sets.iter().map(|v| nums(v)).collect())),
                ("ok", Json::Bool(row_ok)),
            ]));
        }
    }
    let report = obj([
        ("environment", environment),
        ("sets", num(cfg.sets as f64)),
        ("runs_per_set", num(cfg.runs as f64)),
        ("first_seed", num(cfg.seed as f64)),
        ("within_set_limit", num(WITHIN_SET_LIMIT)),
        ("ok", Json::Bool(ok)),
        (
            "run_wall_s",
            Json::Obj(
                cfg.workloads
                    .iter()
                    .zip(&walls)
                    .map(|(w, v)| (w.name().to_string(), nums(v)))
                    .collect(),
            ),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    let path = format!("{OUT_DIR}/repeatability-{}.json", cfg.seed);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, jsonx::line(&report) + "\n"))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "written to {path}; {}",
        if ok { "agrees" } else { "DISAGREES" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_is_judged_by_gap_quartiles_and_within_set_spread() {
        let step = END_TO_END.iter().find(|m| m.name == "step_ms_p10").unwrap();
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(inside(step, 0.02, 0.05, 0.09));
        assert!(!inside(step, step.bound + 0.01, 0.05, 0.09));
        assert!(!inside(step, 0.02, step.bound + 0.01, 0.09));
        assert!(!inside(step, 0.02, 0.05, WITHIN_SET_LIMIT + 0.01));
        // The set-up time's quartiles are printed, not judged.
        assert!(inside(setup, 0.02, setup.bound + 0.01, 0.09));
        assert!(!inside(setup, setup.bound + 0.01, 0.05, 0.09));
    }
}
