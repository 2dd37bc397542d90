//! Rerun every gated suite and hold it against its checked-in baseline.
//!
//! Usage (from the repo root; takes no arguments):
//!   cargo run --release -p bench --bin perfgate
//!
//! For each suite in `perfgate::SUITES`: measure, write the document to
//! `BENCH_<suite>.fresh.json`, and gate its `perfgate::GATED` rows
//! against `BENCH_<suite>.json`. Exits non-zero if any row failed. The
//! fresh documents are always written — CI uploads them when the gate
//! fails, and `cp BENCH_<suite>.fresh.json BENCH_<suite>.json`
//! regenerates a baseline.

use bench::perfgate::{gate, SUITES, TOLERANCE};
use probe::Json;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: perfgate  (no arguments; run from the repo root)");
        std::process::exit(2);
    }
    let (mut checked, mut failures) = (Vec::new(), Vec::new());
    for (suite, run) in SUITES {
        eprintln!("perfgate: measuring {suite}");
        let text = run();
        std::fs::write(format!("BENCH_{suite}.fresh.json"), &text).expect("write fresh report");
        let fresh = Json::parse(&text).expect("suites write well-formed JSON");
        // An unreadable baseline gates as an empty document: every row
        // of the suite fails by name and the remaining suites still run.
        let path = format!("BENCH_{suite}.json");
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|doc| Json::parse(&doc))
            .unwrap_or_else(|e| {
                eprintln!("perfgate: cannot read baseline {path}: {e}");
                Json::Null
            });
        let report = gate(suite, &baseline, &fresh, TOLERANCE);
        checked.extend(report.checked);
        failures.extend(report.failures);
    }
    for line in &checked {
        eprintln!("perfgate: {line}");
    }
    if failures.is_empty() {
        eprintln!("perfgate: PASS ({} metrics checked)", checked.len());
        return;
    }
    for f in &failures {
        eprintln!("perfgate: FAIL — {f}");
    }
    eprintln!(
        "perfgate: {} of {} metrics failed (tolerance {:.0}%); fresh reports at BENCH_*.fresh.json",
        failures.len(),
        checked.len(),
        TOLERANCE * 100.0
    );
    std::process::exit(1);
}
