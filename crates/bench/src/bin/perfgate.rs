//! Rerun the hot-path suite and gate it against the checked-in baseline.
//!
//! Usage:
//!   cargo run --release -p bench --features track-alloc --bin perfgate \
//!     [-- --baseline PATH] [--out PATH] [--tolerance PCT]
//!
//! Loads the dimensionless metrics (speedups, sanitizer overhead) from
//! the baseline JSON, measures them fresh with the same warmup + median-of-N methodology,
//! and exits non-zero if any metric regressed past the tolerance. The
//! fresh report is always written to `--out` so CI can upload it as an
//! artifact when the gate fails.

use bench::{brokerbench, hotpath, offloadbench, perfgate, querybench};

const USAGE: &str = "usage: perfgate [--baseline PATH] [--out PATH] [--tolerance PCT] \
                     [--broker-baseline PATH] [--broker-out PATH] \
                     [--offload-baseline PATH] [--offload-out PATH] \
                     [--query-baseline PATH] [--query-out PATH]";

fn main() {
    let mut baseline_path = String::from("BENCH_hotpath.json");
    let mut out = String::from("BENCH_hotpath.fresh.json");
    let mut broker_baseline_path = String::from("BENCH_broker.json");
    let mut broker_out = String::from("BENCH_broker.fresh.json");
    let mut offload_baseline_path = String::from("BENCH_offload.json");
    let mut offload_out = String::from("BENCH_offload.fresh.json");
    let mut query_baseline_path = String::from("BENCH_query.json");
    let mut query_out = String::from("BENCH_query.fresh.json");
    let mut tolerance = perfgate::DEFAULT_TOLERANCE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                eprintln!("{USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline" => baseline_path = take("--baseline"),
            "--out" => out = take("--out"),
            "--broker-baseline" => broker_baseline_path = take("--broker-baseline"),
            "--broker-out" => broker_out = take("--broker-out"),
            "--offload-baseline" => offload_baseline_path = take("--offload-baseline"),
            "--offload-out" => offload_out = take("--offload-out"),
            "--query-baseline" => query_baseline_path = take("--query-baseline"),
            "--query-out" => query_out = take("--query-out"),
            "--tolerance" => {
                tolerance = take("--tolerance")
                    .parse::<f64>()
                    .map(|pct| pct / 100.0)
                    .unwrap_or_else(|e| {
                        eprintln!("--tolerance must be a percentage: {e}");
                        std::process::exit(2);
                    })
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let doc = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let baseline = perfgate::Metrics::from_json(&doc).unwrap_or_else(|e| {
        eprintln!("perfgate: {e} — regenerate it with the hotpath binary");
        std::process::exit(2);
    });

    // The same configuration the baseline was recorded with.
    let (grid, oscillators, steps, threads) = ([64, 64, 64], 48, 8, 0);
    eprintln!(
        "perfgate: measuring grid {grid:?}, {oscillators} oscillators, {steps} steps \
         (tolerance {:.0}%)",
        tolerance * 100.0
    );
    let report = hotpath::run(grid, oscillators, steps, threads);
    std::fs::write(&out, report.to_json()).expect("write fresh report");
    let fresh = perfgate::Metrics::from_report(&report);

    let result = perfgate::gate(&baseline, &fresh, tolerance);

    // The broker fan-out metrics gate alongside the hot paths.
    let broker_doc = std::fs::read_to_string(&broker_baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read broker baseline {broker_baseline_path}: {e}");
        std::process::exit(2);
    });
    let broker_baseline = perfgate::BrokerMetrics::from_json(&broker_doc).unwrap_or_else(|e| {
        eprintln!("perfgate: {e} — regenerate it with the brokerbench binary");
        std::process::exit(2);
    });
    eprintln!(
        "perfgate: measuring broker fan-out ({} subscribers, {} steps)",
        brokerbench::SUBSCRIBERS,
        brokerbench::STEPS
    );
    let broker_report = brokerbench::run();
    std::fs::write(&broker_out, broker_report.to_json()).expect("write fresh broker report");
    let broker_fresh = perfgate::BrokerMetrics::from_report(&broker_report);
    let broker_result = perfgate::gate_broker(&broker_baseline, &broker_fresh, tolerance);

    // The async-offload metrics gate alongside the hot paths too.
    let offload_doc = std::fs::read_to_string(&offload_baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read offload baseline {offload_baseline_path}: {e}");
        std::process::exit(2);
    });
    let offload_baseline = perfgate::OffloadMetrics::from_json(&offload_doc).unwrap_or_else(|e| {
        eprintln!("perfgate: {e} — regenerate it with the offloadbench binary");
        std::process::exit(2);
    });
    eprintln!(
        "perfgate: measuring analysis offload ({} ranks, {} steps)",
        offloadbench::RANKS,
        offloadbench::STEPS
    );
    let offload_report = offloadbench::run();
    std::fs::write(&offload_out, offload_report.to_json()).expect("write fresh offload report");
    let offload_fresh = perfgate::OffloadMetrics::from_report(&offload_report);
    let offload_result = perfgate::gate_offload(&offload_baseline, &offload_fresh, tolerance);

    // The interactive-query fan-out metrics gate alongside the rest.
    let query_doc = std::fs::read_to_string(&query_baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read query baseline {query_baseline_path}: {e}");
        std::process::exit(2);
    });
    let query_baseline = perfgate::QueryMetrics::from_json(&query_doc).unwrap_or_else(|e| {
        eprintln!("perfgate: {e} — regenerate it with the querybench binary");
        std::process::exit(2);
    });
    eprintln!(
        "perfgate: measuring query fan-out ({} clients, {} steps)",
        querybench::CLIENTS,
        querybench::STEPS
    );
    let query_report = querybench::run();
    std::fs::write(&query_out, query_report.to_json()).expect("write fresh query report");
    let query_fresh = perfgate::QueryMetrics::from_report(&query_report);
    let query_result = perfgate::gate_query(&query_baseline, &query_fresh, tolerance);

    let checked = result.checked.len()
        + broker_result.checked.len()
        + offload_result.checked.len()
        + query_result.checked.len();
    let failures: Vec<&String> = result
        .failures
        .iter()
        .chain(broker_result.failures.iter())
        .chain(offload_result.failures.iter())
        .chain(query_result.failures.iter())
        .collect();
    for line in result
        .checked
        .iter()
        .chain(broker_result.checked.iter())
        .chain(offload_result.checked.iter())
        .chain(query_result.checked.iter())
    {
        eprintln!("perfgate: {line}");
    }
    if failures.is_empty() {
        eprintln!("perfgate: PASS ({checked} metrics checked)");
    } else {
        for f in &failures {
            eprintln!("perfgate: FAIL — {f}");
        }
        eprintln!(
            "perfgate: {} of {checked} metrics regressed; fresh reports at {out}, {broker_out}, \
             {offload_out}, and {query_out}",
            failures.len(),
        );
        std::process::exit(1);
    }
}
