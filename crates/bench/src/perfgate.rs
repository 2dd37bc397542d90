//! The performance regression gate over `BENCH_hotpath.json`.
//!
//! CI reruns the hot-path suite and compares the fresh numbers against
//! the checked-in baseline. Absolute seconds do not transfer between
//! machines, so the gate compares the **dimensionless** metrics — the
//! speedups of each optimized path over its in-tree reference kernel
//! and the sanitizer overhead percentage — which only regress when the
//! code gets slower relative to itself. A fresh speedup more than the
//! tolerance below the recorded one fails the gate.

use crate::hotpath::HotpathReport;

/// Default allowed relative regression (15%).
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// The gated subset of the hot-path report: every entry is a ratio or a
/// percentage, portable across machines of different absolute speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metrics {
    /// Naive step loop over culled+threaded.
    pub step_speedup: f64,
    /// Reference histogram kernel over the blocked kernel.
    pub histogram_speedup: f64,
    /// Sanitizer-on time over sanitizer-off, as a percentage.
    pub sanitizer_overhead_pct: f64,
}

impl Metrics {
    /// Extract the gated metrics from a freshly measured report.
    pub fn from_report(r: &HotpathReport) -> Metrics {
        Metrics {
            step_speedup: r.step.speedup(),
            histogram_speedup: r.histogram.speedup(),
            sanitizer_overhead_pct: (r.sanitizer.optimized_s / r.sanitizer.baseline_s - 1.0)
                * 100.0,
        }
    }

    /// Extract the gated metrics from a `BENCH_hotpath.json` document
    /// (the exact format [`HotpathReport::to_json`] writes; this is not
    /// a general JSON parser).
    pub fn from_json(doc: &str) -> Result<Metrics, String> {
        let sect = |name: &str, key: &str| -> Result<f64, String> {
            section(doc, name)
                .and_then(|body| field(body, key))
                .ok_or_else(|| format!("baseline is missing \"{name}\".\"{key}\""))
        };
        Ok(Metrics {
            step_speedup: sect("step", "speedup")?,
            histogram_speedup: sect("histogram", "speedup")?,
            sanitizer_overhead_pct: sect("sanitizer", "overhead_pct")?,
        })
    }
}

/// The gated subset of the broker fan-out report (`BENCH_broker.json`):
/// a copy-vs-share speedup, a fairness ratio, and two invariants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrokerMetrics {
    /// Per-consumer deep-copy fan-out over the Arc-shared broker path.
    pub fanout_speedup: f64,
    /// min/max messages delivered across subscribers (1.0 = fair).
    pub fairness: f64,
    /// A stalled consumer was evicted within its deadline.
    pub eviction_works: bool,
    /// The probed queue high-water stayed within the configured depth.
    pub queue_bounded: bool,
}

impl BrokerMetrics {
    /// Extract the gated metrics from a freshly measured broker report.
    pub fn from_report(r: &crate::brokerbench::BrokerReport) -> BrokerMetrics {
        BrokerMetrics {
            fanout_speedup: r.fanout_speedup(),
            fairness: r.fairness,
            eviction_works: r.eviction_works,
            queue_bounded: r.queue_bounded,
        }
    }

    /// Extract the gated metrics from a `BENCH_broker.json` document
    /// (the exact format `BrokerReport::to_json` writes).
    pub fn from_json(doc: &str) -> Result<BrokerMetrics, String> {
        let sect = |name: &str, key: &str| -> Result<f64, String> {
            section(doc, name)
                .and_then(|body| field(body, key))
                .ok_or_else(|| format!("broker baseline is missing \"{name}\".\"{key}\""))
        };
        let flag = |name: &str, key: &str| -> bool {
            section(doc, name).is_some_and(|b| b.contains(&format!("\"{key}\": true")))
        };
        Ok(BrokerMetrics {
            fanout_speedup: sect("fanout", "speedup")?,
            fairness: sect("fairness", "min_over_max_delivered")?,
            eviction_works: flag("robustness", "eviction_works"),
            queue_bounded: flag("robustness", "queue_bounded"),
        })
    }
}

/// The gated subset of the offload report (`BENCH_offload.json`): the
/// measured overlap efficiency, the H2D transfer-bytes ratio, and the
/// bitwise-results invariant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffloadMetrics {
    /// Worker-busy seconds hidden behind the simulation over total
    /// busy seconds (0 = no overlap, 1 = analyses fully hidden).
    pub efficiency: f64,
    /// H2D bytes over the ideal one-snapshot-per-step transfer.
    pub transfer_ratio: f64,
    /// Offloaded artifacts equal the synchronous host run's.
    pub bitwise_identical: bool,
}

impl OffloadMetrics {
    /// Extract the gated metrics from a freshly measured offload report.
    pub fn from_report(r: &crate::offloadbench::OffloadReport) -> OffloadMetrics {
        OffloadMetrics {
            efficiency: r.efficiency,
            transfer_ratio: r.transfer_ratio(),
            bitwise_identical: r.bitwise_identical,
        }
    }

    /// Extract the gated metrics from a `BENCH_offload.json` document
    /// (the exact format `OffloadReport::to_json` writes).
    pub fn from_json(doc: &str) -> Result<OffloadMetrics, String> {
        let sect = |name: &str, key: &str| -> Result<f64, String> {
            section(doc, name)
                .and_then(|body| field(body, key))
                .ok_or_else(|| format!("offload baseline is missing \"{name}\".\"{key}\""))
        };
        Ok(OffloadMetrics {
            efficiency: sect("overlap", "efficiency")?,
            transfer_ratio: sect("transfer", "bytes_ratio")?,
            bitwise_identical: section(doc, "results")
                .is_some_and(|b| b.contains("\"bitwise_identical\": true")),
        })
    }
}

/// Gate the offload metrics: efficiency must stay positive and may
/// drop at most `tolerance` (absolute) below the baseline; the
/// transfer ratio may grow at most `tolerance` (relative) above the
/// baseline — a jump means a second copy crept into the snapshot
/// path; bitwise identity must hold outright.
pub fn gate_offload(
    baseline: &OffloadMetrics,
    fresh: &OffloadMetrics,
    tolerance: f64,
) -> GateReport {
    let mut report = GateReport::default();
    let floor = (baseline.efficiency - tolerance).max(0.0);
    report.checked.push(format!(
        "offload overlap efficiency: baseline {:.3}, fresh {:.3}, floor {floor:.3}",
        baseline.efficiency, fresh.efficiency
    ));
    if fresh.efficiency <= 0.0 {
        report
            .failures
            .push("offload hides no simulation time: overlap efficiency is 0".into());
    } else if fresh.efficiency < floor {
        report.failures.push(format!(
            "offload overlap efficiency regressed: {:.3} < {floor:.3} (baseline {:.3})",
            fresh.efficiency, baseline.efficiency
        ));
    }
    let ceil = baseline.transfer_ratio * (1.0 + tolerance);
    report.checked.push(format!(
        "offload transfer ratio: baseline {:.3}, fresh {:.3}, ceiling {ceil:.3}",
        baseline.transfer_ratio, fresh.transfer_ratio
    ));
    if fresh.transfer_ratio > ceil {
        report.failures.push(format!(
            "offload transfer bytes grew: ratio {:.3} > {ceil:.3} — an extra cross-space \
             copy entered the snapshot path",
            fresh.transfer_ratio
        ));
    }
    report.checked.push(format!(
        "offload results bitwise identical: {}",
        fresh.bitwise_identical
    ));
    if !fresh.bitwise_identical {
        report
            .failures
            .push("offloaded analysis results diverged from the synchronous host run".into());
    }
    report
}

/// Gate the broker metrics: the fan-out speedup may drop at most
/// `tolerance` below the baseline, fairness may not fall below the
/// baseline minus the tolerance, and the two robustness invariants must
/// hold outright (they are correctness facts, not timings).
pub fn gate_broker(baseline: &BrokerMetrics, fresh: &BrokerMetrics, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let floor = baseline.fanout_speedup * (1.0 - tolerance);
    report.checked.push(format!(
        "broker fanout speedup: baseline {:.2}, fresh {:.2}, floor {floor:.2}",
        baseline.fanout_speedup, fresh.fanout_speedup
    ));
    if fresh.fanout_speedup < floor {
        report.failures.push(format!(
            "broker fanout speedup regressed: {:.2} < {floor:.2} (baseline {:.2}, tolerance {:.0}%)",
            fresh.fanout_speedup,
            baseline.fanout_speedup,
            tolerance * 100.0
        ));
    }
    let fair_floor = (baseline.fairness - tolerance).max(0.0);
    report.checked.push(format!(
        "broker fairness: baseline {:.3}, fresh {:.3}, floor {fair_floor:.3}",
        baseline.fairness, fresh.fairness
    ));
    if fresh.fairness < fair_floor {
        report.failures.push(format!(
            "broker fairness regressed: {:.3} < {fair_floor:.3}",
            fresh.fairness
        ));
    }
    report.checked.push(format!(
        "broker robustness: eviction_works {}, queue_bounded {}",
        fresh.eviction_works, fresh.queue_bounded
    ));
    if !fresh.eviction_works {
        report
            .failures
            .push("broker eviction no longer fires for a stalled consumer".into());
    }
    if !fresh.queue_bounded {
        report
            .failures
            .push("broker queue high-water exceeded the configured depth".into());
    }
    report
}

/// The gated subset of the interactive-query report
/// (`BENCH_query.json`): an evaluate-once-vs-per-client speedup, a
/// fairness ratio, and two invariants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryMetrics {
    /// Re-evaluate-per-client fan-out over the evaluate-once broker
    /// path.
    pub serve_speedup: f64,
    /// min/max responses delivered across clients (1.0 = fair).
    pub fairness: f64,
    /// A non-polling client was evicted within its deadline.
    pub eviction_works: bool,
    /// The probed queue high-water stayed within the configured depth.
    pub queue_bounded: bool,
}

impl QueryMetrics {
    /// Extract the gated metrics from a freshly measured query report.
    pub fn from_report(r: &crate::querybench::QueryReport) -> QueryMetrics {
        QueryMetrics {
            serve_speedup: r.serve_speedup(),
            fairness: r.fairness,
            eviction_works: r.eviction_works,
            queue_bounded: r.queue_bounded,
        }
    }

    /// Extract the gated metrics from a `BENCH_query.json` document
    /// (the exact format `QueryReport::to_json` writes).
    pub fn from_json(doc: &str) -> Result<QueryMetrics, String> {
        let sect = |name: &str, key: &str| -> Result<f64, String> {
            section(doc, name)
                .and_then(|body| field(body, key))
                .ok_or_else(|| format!("query baseline is missing \"{name}\".\"{key}\""))
        };
        let flag = |name: &str, key: &str| -> bool {
            section(doc, name).is_some_and(|b| b.contains(&format!("\"{key}\": true")))
        };
        Ok(QueryMetrics {
            serve_speedup: sect("serve", "speedup")?,
            fairness: sect("fairness", "min_over_max_delivered")?,
            eviction_works: flag("robustness", "eviction_works"),
            queue_bounded: flag("robustness", "queue_bounded"),
        })
    }
}

/// Gate the query metrics: the serve speedup may drop at most
/// `tolerance` below the baseline, fairness may not fall below the
/// baseline minus the tolerance, and the two robustness invariants
/// must hold outright (they are correctness facts, not timings).
pub fn gate_query(baseline: &QueryMetrics, fresh: &QueryMetrics, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let floor = baseline.serve_speedup * (1.0 - tolerance);
    report.checked.push(format!(
        "query serve speedup: baseline {:.2}, fresh {:.2}, floor {floor:.2}",
        baseline.serve_speedup, fresh.serve_speedup
    ));
    if fresh.serve_speedup < floor {
        report.failures.push(format!(
            "query serve speedup regressed: {:.2} < {floor:.2} (baseline {:.2}, tolerance {:.0}%)",
            fresh.serve_speedup,
            baseline.serve_speedup,
            tolerance * 100.0
        ));
    }
    let fair_floor = (baseline.fairness - tolerance).max(0.0);
    report.checked.push(format!(
        "query fairness: baseline {:.3}, fresh {:.3}, floor {fair_floor:.3}",
        baseline.fairness, fresh.fairness
    ));
    if fresh.fairness < fair_floor {
        report.failures.push(format!(
            "query fairness regressed: {:.3} < {fair_floor:.3}",
            fresh.fairness
        ));
    }
    report.checked.push(format!(
        "query robustness: eviction_works {}, queue_bounded {}",
        fresh.eviction_works, fresh.queue_bounded
    ));
    if !fresh.eviction_works {
        report
            .failures
            .push("query eviction no longer fires for a client that stops polling".into());
    }
    if !fresh.queue_bounded {
        report
            .failures
            .push("query response queue high-water exceeded the configured depth".into());
    }
    report
}

/// The body of a flat (single-line, brace-free) JSON section.
fn section<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let start = doc.find(&key)? + key.len();
    let rest = &doc[start..];
    let open = rest.find('{')?;
    let close = rest[open..].find('}')? + open;
    Some(&rest[open + 1..close])
}

/// A numeric field inside a section body.
fn field(body: &str, key: &str) -> Option<f64> {
    let k = format!("\"{key}\":");
    let start = body.find(&k)? + k.len();
    parse_number(&body[start..])
}

fn parse_number(rest: &str) -> Option<f64> {
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The outcome of one gate evaluation.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Human-readable description of every metric that regressed.
    pub failures: Vec<String>,
    /// One line per metric checked (for the CI log).
    pub checked: Vec<String>,
}

impl GateReport {
    /// Did every metric pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare fresh metrics against the baseline with a relative
/// `tolerance` (0.15 = a fresh speedup may be at most 15% below the
/// recorded one). Returns every regression found, not just the first.
pub fn gate(baseline: &Metrics, fresh: &Metrics, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let mut ratio = |name: &str, base: f64, now: f64| {
        let floor = base * (1.0 - tolerance);
        report.checked.push(format!(
            "{name}: baseline {base:.2}, fresh {now:.2}, floor {floor:.2}"
        ));
        if now < floor {
            report.failures.push(format!(
                "{name} regressed: {now:.2} < {floor:.2} (baseline {base:.2}, tolerance {:.0}%)",
                tolerance * 100.0
            ));
        }
    };
    ratio("step speedup", baseline.step_speedup, fresh.step_speedup);
    ratio(
        "histogram speedup",
        baseline.histogram_speedup,
        fresh.histogram_speedup,
    );

    // Sanitizer overhead is additive, not a speedup: allow the baseline
    // overhead (clamped at 0 — a negative record was the old
    // methodology bug) plus the tolerance in percentage points.
    let ceil = baseline.sanitizer_overhead_pct.max(0.0) + tolerance * 100.0;
    report.checked.push(format!(
        "sanitizer overhead: baseline {:.2}%, fresh {:.2}%, ceiling {ceil:.2}%",
        baseline.sanitizer_overhead_pct, fresh.sanitizer_overhead_pct
    ));
    if fresh.sanitizer_overhead_pct > ceil {
        report.failures.push(format!(
            "sanitizer overhead regressed: {:.2}% > {ceil:.2}%",
            fresh.sanitizer_overhead_pct
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        Metrics {
            step_speedup: 21.0,
            histogram_speedup: 1.4,
            sanitizer_overhead_pct: 4.0,
        }
    }

    #[test]
    fn unchanged_metrics_pass() {
        let m = sample();
        let r = gate(&m, &m, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.checked.len(), 3);
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let base = sample();
        let mut fresh = base;
        fresh.step_speedup *= 0.90; // -10%, inside the 15% band
        fresh.histogram_speedup *= 0.95;
        fresh.sanitizer_overhead_pct += 5.0;
        assert!(gate(&base, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn planted_20pct_slowdown_fails_each_metric() {
        // The acceptance check: a 20% regression must demonstrably trip
        // the default 15% gate — on every ratio metric independently.
        let base = sample();
        for plant in 0..2 {
            let mut fresh = base;
            let slot: &mut f64 = match plant {
                0 => &mut fresh.step_speedup,
                _ => &mut fresh.histogram_speedup,
            };
            *slot *= 0.80; // a 20% slowdown of the optimized path
            let r = gate(&base, &fresh, DEFAULT_TOLERANCE);
            assert_eq!(r.failures.len(), 1, "plant {plant}: {:?}", r.failures);
        }
    }

    #[test]
    fn sanitizer_overhead_blowup_fails() {
        let base = sample();
        let mut fresh = base;
        fresh.sanitizer_overhead_pct = 25.0; // > 4% + 15 points
        let r = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("sanitizer"));
    }

    fn broker_sample() -> BrokerMetrics {
        BrokerMetrics {
            fanout_speedup: 20.0,
            fairness: 1.0,
            eviction_works: true,
            queue_bounded: true,
        }
    }

    #[test]
    fn broker_gate_passes_unchanged_and_fails_regressions() {
        let base = broker_sample();
        assert!(gate_broker(&base, &base, DEFAULT_TOLERANCE).passed());

        let mut fresh = base;
        fresh.fanout_speedup *= 0.80; // 20% slowdown trips the 15% gate
        let r = gate_broker(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("fanout"));

        let mut fresh = base;
        fresh.fairness = 0.5;
        let r = gate_broker(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("fairness"));

        let mut fresh = base;
        fresh.eviction_works = false;
        fresh.queue_bounded = false;
        let r = gate_broker(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 2);
    }

    #[test]
    fn broker_metrics_parse_from_generated_json() {
        let doc = crate::brokerbench::BrokerReport {
            clone_fanout_s: 0.040,
            broker_fanout_s: 0.002,
            fairness: 1.0,
            eviction_works: true,
            queue_bounded: true,
        }
        .to_json();
        let m = BrokerMetrics::from_json(&doc).expect("parse");
        assert_eq!(m.fanout_speedup, 20.0);
        assert_eq!(m.fairness, 1.0);
        assert!(m.eviction_works && m.queue_bounded);
        let err = BrokerMetrics::from_json("{}").unwrap_err();
        assert!(err.contains("fanout"), "{err}");
    }

    fn query_sample() -> QueryMetrics {
        QueryMetrics {
            serve_speedup: 12.0,
            fairness: 1.0,
            eviction_works: true,
            queue_bounded: true,
        }
    }

    #[test]
    fn query_gate_passes_unchanged_and_fails_regressions() {
        let base = query_sample();
        assert!(gate_query(&base, &base, DEFAULT_TOLERANCE).passed());

        let mut fresh = base;
        fresh.serve_speedup *= 0.80; // 20% slowdown trips the 15% gate
        let r = gate_query(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("serve speedup"));

        let mut fresh = base;
        fresh.fairness = 0.5;
        let r = gate_query(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("fairness"));

        let mut fresh = base;
        fresh.eviction_works = false;
        fresh.queue_bounded = false;
        let r = gate_query(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 2);
    }

    #[test]
    fn query_metrics_parse_from_generated_json() {
        let doc = crate::querybench::QueryReport {
            per_client_s: 0.024,
            shared_s: 0.002,
            fairness: 1.0,
            eviction_works: true,
            queue_bounded: true,
        }
        .to_json();
        let m = QueryMetrics::from_json(&doc).expect("parse");
        assert_eq!(m.serve_speedup, 12.0);
        assert_eq!(m.fairness, 1.0);
        assert!(m.eviction_works && m.queue_bounded);
        let err = QueryMetrics::from_json("{}").unwrap_err();
        assert!(err.contains("serve"), "{err}");
    }

    fn offload_sample() -> OffloadMetrics {
        OffloadMetrics {
            efficiency: 0.85,
            transfer_ratio: 1.0,
            bitwise_identical: true,
        }
    }

    #[test]
    fn offload_gate_passes_unchanged_and_fails_regressions() {
        let base = offload_sample();
        assert!(gate_offload(&base, &base, DEFAULT_TOLERANCE).passed());

        let mut fresh = base;
        fresh.efficiency = 0.0;
        let r = gate_offload(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("hides no simulation time"));

        let mut fresh = base;
        fresh.efficiency = 0.5; // below 0.85 - 0.15
        let r = gate_offload(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("efficiency regressed"));

        let mut fresh = base;
        fresh.transfer_ratio = 2.0; // a second copy appeared
        let r = gate_offload(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("transfer bytes grew"));

        let mut fresh = base;
        fresh.bitwise_identical = false;
        let r = gate_offload(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("diverged"));
    }

    #[test]
    fn offload_metrics_parse_from_generated_json() {
        let doc = crate::offloadbench::OffloadReport {
            sync_s: 0.100,
            offload_s: 0.060,
            efficiency: 0.85,
            h2d_bytes: 4096,
            ideal_bytes: 4096,
            bitwise_identical: true,
        }
        .to_json();
        let m = OffloadMetrics::from_json(&doc).expect("parse");
        assert_eq!(m.efficiency, 0.85);
        assert_eq!(m.transfer_ratio, 1.0);
        assert!(m.bitwise_identical);
        let err = OffloadMetrics::from_json("{}").unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn metrics_parse_from_generated_json() {
        let doc = r#"{
  "config": {"grid": [64, 64, 64], "oscillators": 48, "steps": 8, "threads": 0, "warmup_rounds": 1, "timed_rounds": 5},
  "step": {"naive_s": 1.500000, "culled_serial_s": 0.070000, "culled_threaded_s": 0.070000, "speedup": 21.43},
  "histogram": {"bins": 64, "reference_s": 0.022000, "blocked_s": 0.015000, "speedup": 1.47},
  "sanitizer": {"ranks": 8, "off_s": 0.120000, "on_s": 0.126000, "overhead_pct": 5.00, "bitwise_identical": true}
}
"#;
        let m = Metrics::from_json(doc).expect("parse");
        assert_eq!(m.step_speedup, 21.43);
        assert_eq!(m.histogram_speedup, 1.47);
        assert_eq!(m.sanitizer_overhead_pct, 5.00);
        // A document in the old (pre-methodology-fix) format fails with
        // a diagnostic rather than gating against garbage.
        let err = Metrics::from_json("{\"step\": {\"speedup\": 1.0}}").unwrap_err();
        assert!(err.contains("histogram"), "{err}");
    }
}
