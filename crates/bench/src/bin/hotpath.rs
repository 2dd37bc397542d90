//! Measure the per-step in situ hot path and write `BENCH_hotpath.json`.
//!
//! Usage: `cargo run --release -p bench --bin hotpath [-- --out PATH]`
//!
//! Runs the sparse-deck step loop (naive vs support-culled vs
//! culled+threads), the streaming histogram (reference vs blocked
//! kernel), and a sanitizer-off vs sanitizer-on bridge run, then writes
//! the timings and speedups as JSON. On a single-core host
//! the step-loop win comes from support culling alone; with more cores
//! the threaded kernel stacks on top.

use bench::hotpath;

fn main() {
    let mut out = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out = p,
                None => {
                    eprintln!("--out needs a path");
                    eprintln!("usage: hotpath [--out PATH]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: hotpath [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let grid = [64, 64, 64];
    let oscillators = 48;
    let steps = 8;
    let threads = 0; // 0 = every available core

    eprintln!(
        "hotpath: grid {grid:?}, {oscillators} oscillators, {steps} steps, threads {threads} (0 = all cores)"
    );
    let report = hotpath::run(grid, oscillators, steps, threads);
    let json = report.to_json();
    print!("{json}");
    std::fs::write(&out, &json).expect("write report");
    eprintln!(
        "hotpath: step speedup {:.2}x (naive {:.3}s -> culled+threads {:.3}s), wrote {out}",
        report.step.speedup(),
        report.step.baseline_s,
        report.step.optimized_s
    );
}
