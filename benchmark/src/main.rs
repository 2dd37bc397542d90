//! The repository's benchmark: the oscillator miniapp driven through
//! four of the paper's configurations, end to end and layer by layer.
//! See `README.md` beside this package and `BENCHMARK.json` above it.
//!
//! ```text
//! sensei-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sensei-benchmark all    [--seed n] [--seconds s] [--trace 0|1]
//! sensei-benchmark repeat [--sets 2] [--runs 5] [--seed n] [--seconds s]
//! ```
//!
//! The first form is the driver's: it runs one workload and prints the
//! result object on the last line of stdout. `--tiny` shrinks any form
//! to a smoke test; `--force` overrides the core-count guard.

mod alloc;
mod child;
mod deck;
mod env;
mod jsonx;
mod layers;
mod metrics;
mod repeat;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

use run::RunConfig;
use workloads::{Workload, SIM_RANKS};

/// The seed used when none is given (the paper's year); `78` is the
/// second seed acceptance runs use.
const DEFAULT_SEED: u64 = 2016;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// `--key value` options and bare `--flag`s after an optional command.
struct Args {
    command: Option<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        const FLAGS: [&str; 2] = ["--tiny", "--force"];
        let mut raw = raw.peekable();
        let command = raw.next_if(|a| !a.starts_with("--"));
        let mut options = Vec::new();
        while let Some(key) = raw.next() {
            if !key.starts_with("--") {
                return Err(format!("unexpected argument '{key}'"));
            }
            let value = if FLAGS.contains(&key.as_str()) {
                None
            } else {
                Some(raw.next().ok_or_else(|| format!("{key} needs a value"))?)
            };
            options.push((key, value));
        }
        Ok(Args { command, options })
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.iter().find(|(k, _)| k == key) {
            Some((_, Some(v))) => v.parse().map_err(|_| format!("bad value for {key}: '{v}'")),
            _ => Ok(default),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.options.iter().find(|(k, _)| k == "--workload") {
            Some((_, Some(name))) => Workload::from_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload '{name}'")),
            _ => Ok(None),
        }
    }
}

/// Two fully busy rank threads on fewer cores measure the scheduler.
/// The guard counts the simulation ranks, not `world_ranks()`: the in
/// transit endpoint is a third thread, but it works while the writers
/// are blocked on its acknowledgement, so at most two threads are busy
/// at a time (`run.cpu_per_wall` stays below 2 there).
fn guard_cores(args: &Args) -> Result<(), String> {
    let nproc = env::nproc();
    if SIM_RANKS > nproc && !args.flag("--force") {
        return Err(format!(
            "{SIM_RANKS} ranks x 1 thread need {SIM_RANKS} cores, this machine has {nproc}; \
             pass --force to measure anyway"
        ));
    }
    Ok(())
}

fn main_checked() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let seed = args.value("--seed", DEFAULT_SEED)?;
    let seconds = args.value("--seconds", DEFAULT_SECONDS)?;
    let tiny = args.flag("--tiny");
    let traced = args.value::<u8>("--trace", 0)? != 0;
    let config = |workload| RunConfig {
        workload,
        seed,
        seconds,
        traced,
        tiny,
    };
    match args.command.as_deref() {
        Some("child") => {
            let report = child::run(&child::ChildArgs {
                workload: args.workload()?.ok_or("child needs --workload")?,
                seed,
                grid: args.value("--grid", run::GRID)?,
                steps: args.value("--steps", 2)?,
                cycles: args.value("--cycles", 0)?,
                traced,
            });
            println!("{}", jsonx::line(&report.to_json()));
            Ok(true)
        }
        None => {
            guard_cores(&args)?;
            let workload = args.workload()?.ok_or("--workload <name> is required")?;
            let outcome = run::run(&config(workload))?;
            outcome.print(workload);
            println!("{}", outcome.result_line());
            Ok(true)
        }
        Some("all") => {
            guard_cores(&args)?;
            let (mut correct, mut wall_s) = (true, 0.0);
            for workload in Workload::ALL {
                let outcome = run::run(&config(workload))?;
                outcome.print(workload);
                correct &= outcome.correct;
                wall_s += outcome.wall_s;
            }
            println!("all: correct={correct} wall={wall_s:.1}s");
            Ok(correct)
        }
        Some("repeat") => {
            guard_cores(&args)?;
            repeat::repeat(&repeat::RepeatConfig {
                sets: args.value("--sets", 2)?,
                runs: args.value("--runs", 5)?,
                seed,
                seconds,
                tiny,
                workloads: args
                    .workload()?
                    .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]),
            })
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match main_checked() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("sensei-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
