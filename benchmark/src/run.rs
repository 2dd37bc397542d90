//! One run of one workload: fresh child processes, the reference, and
//! the numbers taken across the children.
//!
//! Untraced, a run is [`CHILDREN`] children of one short round each,
//! followed in every child by [`CYCLES`] set-up cycles; each number is
//! the undisturbed figure across the children (a low quantile of the
//! pooled samples, or the best child). Traced, three untraced and two
//! traced children alternate — the untraced ones give the tracing
//! overhead and the `run.*` rows — no set-up cycles run, and the parent
//! makes the direct layer calls its workload is the home of afterwards.

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use probe::Json;

use crate::child::ChildReport;
use crate::jsonx::{self, num, obj, text};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Shape, Workload, SIM_RANKS};
use crate::{deck, env, layers, stats, verify};

/// Fresh processes per untraced run.
pub const CHILDREN: usize = 5;
/// Set-up cycles per child.
pub const CYCLES: usize = 7;
/// Grid points per axis (2.1 Mcell, 16.8 MB per field: below 4× the
/// last-level cache, so no bandwidth figure is derived from it).
pub const GRID: usize = 128;
/// Where traced runs and `repeat` leave their files.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the run measures on the reference machine: the rounds
    /// and set-up cycles of its [`CHILDREN`] children together.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke-test size: 16³, 2 steps, one child (and one traced one).
    pub tiny: bool,
}

/// How a run is carried out.
pub struct Plan {
    pub shape: Shape,
    /// One entry per child: is it traced?
    pub children: Vec<bool>,
    pub cycles: usize,
}

pub fn plan(cfg: &RunConfig) -> Plan {
    let (grid, steps) = if cfg.tiny {
        (16, 2)
    } else {
        let round = cfg.seconds / CHILDREN as f64 - CYCLES as f64 * cfg.workload.nominal_setup_s();
        let steps = (cfg.workload.nominal_steps_per_second() * round).round() as usize;
        (GRID, steps.max(2))
    };
    let children = match (cfg.traced, cfg.tiny) {
        (false, false) => vec![false; CHILDREN],
        (false, true) => vec![false],
        // Untraced and traced alternate, so drift hits both alike.
        (true, false) => (0..CHILDREN).map(|i| i % 2 == 1).collect(),
        (true, true) => vec![false, true],
    };
    Plan {
        shape: Shape {
            grid,
            steps,
            traced: false,
        },
        children,
        cycles: match (cfg.traced, cfg.tiny) {
            (true, _) => 0,
            (false, true) => 1,
            (false, false) => CYCLES,
        },
    }
}

/// A metric; end-to-end ones carry the number of samples behind them.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

pub struct Outcome {
    pub correct: bool,
    /// Steps attempted in the measured rounds.
    pub attempted: u64,
    /// Steps of rounds whose outputs failed verification or that
    /// produced a failure report.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
    /// Self time per layer on the blocking rank (traced runs), ms.
    pub self_times_ms: Vec<(String, f64)>,
    /// Machine, commit and run shape.
    pub environment: Json,
    /// What the whole run took: reference, children, direct calls.
    pub wall_s: f64,
}

fn spawn_child(cfg: &RunConfig, plan: &Plan, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--grid", &plan.shape.grid.to_string()])
        .args(["--steps", &plan.shape.steps.to_string()])
        .args(["--cycles", &plan.cycles.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        // The sanitizer is a separate configuration with its own cost.
        .env_remove("SENSEI_SANITIZER")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    ChildReport::from_json(&Json::parse(last)?)
}

fn environment(cfg: &RunConfig, plan: &Plan) -> Json {
    env::record(vec![
        ("workload".to_string(), text(cfg.workload.name())),
        ("seed".to_string(), num(cfg.seed as f64)),
        ("grid".to_string(), num(plan.shape.grid as f64)),
        ("ranks".to_string(), num(cfg.workload.world_ranks() as f64)),
        ("threads_per_rank".to_string(), num(1.0)),
        ("steps_per_child".to_string(), num(plan.shape.steps as f64)),
        ("children".to_string(), num(plan.children.len() as f64)),
        (
            "traced_children".to_string(),
            num(plan.children.iter().filter(|&&t| t).count() as f64),
        ),
        (
            "setup_cycles_per_child".to_string(),
            num(plan.cycles as f64),
        ),
    ])
}

/// A round in which every segment — set-up, each step, finalize and
/// teardown — ran as fast as the fastest of its tries, one try per
/// child: `(whole round, its steps alone)` in seconds. The steps of a
/// round are the same work in every child, so the fastest try of a
/// segment is that segment undisturbed.
fn best_of_children_s(children: &[&ChildReport]) -> (f64, f64) {
    let of = |f: &dyn Fn(&ChildReport) -> f64| {
        stats::min(&children.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let steps_s = (0..children[0].steps)
        .map(|i| of(&|c| c.step_walls_ms[i]))
        .sum::<f64>()
        / 1e3;
    let rest = |c: &ChildReport| {
        c.time_to_solution_s - c.setup_first_s - c.step_walls_ms.iter().sum::<f64>() / 1e3
    };
    (of(&|c| c.setup_first_s) + steps_s + of(&rest), steps_s)
}

fn end_to_end(plan: &Plan, children: &[&ChildReport]) -> Vec<Metric> {
    let cells = (plan.shape.grid as f64).powi(3);
    let steps: Vec<f64> = children
        .iter()
        .flat_map(|c| c.step_walls_ms.iter().copied())
        .collect();
    let cycles: Vec<f64> = children
        .iter()
        .flat_map(|c| c.cycles_s.iter().copied())
        .collect();
    let (round_s, round_steps_s) = best_of_children_s(children);
    let cpu: Vec<f64> = children
        .iter()
        .map(|c| c.cpu_user_s + c.cpu_sys_s)
        .collect();
    let rss: Vec<f64> = children.iter().map(|c| c.peak_rss_mb).collect();
    let values = [
        (round_s, children.len()),
        (stats::undisturbed(&cycles), cycles.len()),
        (stats::undisturbed(&steps), steps.len()),
        (
            cells * plan.shape.steps as f64 / round_steps_s / 1e6,
            steps.len(),
        ),
        (stats::min(&cpu), children.len()),
        (stats::min(&rss), children.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric {
            name: m.name,
            value,
            unit: m.unit,
            samples: Some(samples),
        })
        .collect()
}

fn per_layer(
    untraced: &[&ChildReport],
    traced: &[&ChildReport],
    direct: &layers::Direct,
) -> Vec<Metric> {
    let mut values: Vec<(String, f64)> = Vec::new();
    // Span and counter rows: the median over the traced children.
    for (name, _) in &traced[0].layers {
        let per_child: Vec<f64> = traced
            .iter()
            .filter_map(|c| c.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        values.push((name.clone(), stats::median(&per_child)));
    }
    values.extend(direct.layers.iter().map(|&(n, v)| (n.to_string(), v)));
    let get = |values: &[(String, f64)], name: &str| {
        values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let of = |set: &[&ChildReport], f: &dyn Fn(&ChildReport) -> f64| {
        stats::median(&set.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let tts = |c: &ChildReport| c.time_to_solution_s;
    let pooled: Vec<f64> = untraced
        .iter()
        .flat_map(|c| c.step_walls_ms.iter().copied())
        .collect();
    let (tail_pct, tail_ms) = stats::tail(&pooled);
    let step_2rank = get(&values, "oscillator.step_ms");
    let step_1rank = get(&values, "oscillator.step_ms_1rank");
    values.extend(
        [
            (
                "oscillator.parallel_eff",
                if step_2rank > 0.0 {
                    step_1rank / (SIM_RANKS as f64 * step_2rank)
                } else {
                    0.0
                },
            ),
            (
                "probe.trace_overhead_pct",
                100.0 * (of(traced, &tts) / of(untraced, &tts) - 1.0),
            ),
            ("run.step_ms_p50", stats::median(&pooled)),
            ("run.step_ms_tail", tail_ms),
            ("run.step_tail_pct", tail_pct),
            ("run.step_samples", pooled.len() as f64),
            ("run.first_step_ms", of(untraced, &|c| c.step_walls_ms[0])),
            (
                "run.setup_first_ms",
                of(untraced, &|c| c.setup_first_s * 1e3),
            ),
            ("run.sys_cpu_s", of(untraced, &|c| c.cpu_sys_s)),
            (
                "run.cpu_per_wall",
                of(untraced, &|c| {
                    (c.cpu_user_s + c.cpu_sys_s) / c.time_to_solution_s
                }),
            ),
            (
                "run.insitu_overhead_pct",
                100.0 * (stats::undisturbed(&pooled) / direct.baseline_step_ms - 1.0),
            ),
        ]
        .map(|(n, v)| (n.to_string(), v)),
    );
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: get(&values, m.name),
            unit: m.unit,
            samples: None,
        })
        .collect()
}

fn write_trace(cfg: &RunConfig, environment: &Json, traced: &[(usize, &ChildReport)]) {
    let children = traced
        .iter()
        .map(|(index, c)| {
            obj([
                ("child", num(*index as f64)),
                (
                    "self_times_ms",
                    Json::Obj(
                        c.self_times_ms
                            .iter()
                            .map(|(k, v)| (k.clone(), num(*v)))
                            .collect(),
                    ),
                ),
                ("spans", Json::Arr(c.spans.clone())),
            ])
        })
        .collect();
    let trace = obj([
        ("environment", environment.clone()),
        (
            "span_columns",
            jsonx::texts(
                &["name", "rank", "step", "parent", "start_us", "end_us"].map(str::to_string),
            ),
        ),
        ("children", Json::Arr(children)),
    ]);
    let path = format!("{OUT_DIR}/trace-{}.json", cfg.workload.name());
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, jsonx::line(&trace)));
    match written {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Run the workload once.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let start = Instant::now();
    let plan = plan(cfg);
    let deck = Arc::new(deck::deck_text(cfg.seed));
    let reference = verify::reference(cfg.workload, &deck, plan.shape);

    let mut reports = Vec::with_capacity(plan.children.len());
    for &traced in &plan.children {
        reports.push((traced, spawn_child(cfg, &plan, traced)?));
    }
    let environment = environment(cfg, &plan);

    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (index, (_, report)) in reports.iter().enumerate() {
        let mut mine = verify::compare(cfg.workload, &reference, &report.digest);
        if report
            .first_field
            .is_some_and(|f| f != reference.first_field)
        {
            mine.push("first-step field differs from one-rank step_naive".to_string());
        }
        attempted += report.steps as u64;
        if !mine.is_empty() {
            // A round's outputs are checked once it ends, so any of its
            // steps may be the one that went wrong.
            failed += report.steps as u64;
        }
        errors.extend(mine.into_iter().map(|e| format!("child {index}: {e}")));
    }

    let untraced: Vec<&ChildReport> = reports.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<(usize, &ChildReport)> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.0)
        .map(|(i, r)| (i, &r.1))
        .collect();
    let (metrics, self_times_ms) = if cfg.traced {
        let direct = layers::measure(cfg.workload, &deck, plan.shape.grid);
        write_trace(cfg, &environment, &traced);
        let traced: Vec<&ChildReport> = traced.iter().map(|t| t.1).collect();
        (
            per_layer(&untraced, &traced, &direct),
            traced[0].self_times_ms.clone(),
        )
    } else {
        (end_to_end(&plan, &untraced), Vec::new())
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        errors,
        self_times_ms,
        environment,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj([("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })
            .collect();
        jsonx::line(&obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// Every metric by name, with unit and sample count.
    pub fn print(&self, workload: Workload) {
        println!("{}: {}", workload.name(), workload.why());
        println!("  {}", jsonx::line(&self.environment));
        for m in &self.metrics {
            let note = match (m.samples, PER_LAYER.iter().find(|l| l.name == m.name)) {
                (Some(n), _) => format!("n={n}"),
                (None, Some(layer)) => format!("{} is better -> {}", layer.better, layer.moves),
                (None, None) => String::new(),
            };
            println!("  {:<30} {:>14.4} {:<8} {note}", m.name, m.value, m.unit);
        }
        if !self.self_times_ms.is_empty() {
            let total: f64 = self.self_times_ms.iter().map(|(_, ms)| ms).sum();
            println!("  self time per layer on the blocking rank (first traced child):");
            for (name, ms) in &self.self_times_ms {
                let label = if name == "step" {
                    "(no layer span)"
                } else {
                    name
                };
                println!(
                    "    {label:<28} {ms:>12.3} ms {:>6.2} %",
                    100.0 * ms / total
                );
            }
        }
        println!(
            "  ops={} failed={} correct={} wall={:.1}s",
            self.attempted, self.failed, self.correct, self.wall_s
        );
        for e in &self.errors {
            println!("  VERIFICATION: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_cover_the_rounds_and_the_cycles() {
        for workload in Workload::ALL {
            let plan = plan(&RunConfig {
                workload,
                seed: 1,
                seconds: 20.0,
                traced: false,
                tiny: false,
            });
            let child_s = plan.shape.steps as f64 / workload.nominal_steps_per_second()
                + plan.cycles as f64 * workload.nominal_setup_s();
            assert_eq!(plan.children.len(), CHILDREN);
            assert!((child_s * CHILDREN as f64 - 20.0).abs() < 1.0, "{child_s}");
        }
    }
}
