//! The performance regression gate over the four `BENCH_<suite>.json`
//! baselines.
//!
//! CI reruns every suite and compares the fresh document against the
//! checked-in one. Absolute seconds do not transfer between machines,
//! so only **dimensionless** entries are gated — speedups of a shipped
//! path over its in-tree reference, ratios, percentages — plus
//! invariants that must hold outright. [`GATED`] is the whole policy:
//! one row per gated entry. Baseline and fresh run are both read
//! through [`probe::Json`] and the same `section.key` lookup, so a
//! renamed key fails the gate instead of silently ungating a metric.

use probe::Json;

use crate::{brokerbench, hotpath, offloadbench, querybench};
use Rule::{AbsFloor, Holds, RatioCeiling, RatioFloor};

/// Allowed regression: relative for the ratio rules, absolute for
/// [`Rule::AbsFloor`].
pub const TOLERANCE: f64 = 0.15;

/// How a fresh value is held against its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A speedup: fresh ≥ base·(1 − tol).
    RatioFloor,
    /// A cost ratio: fresh ≤ base·(1 + tol).
    RatioCeiling,
    /// A share in [0, 1]: fresh > 0 and fresh ≥ max(base − tol, 0).
    AbsFloor,
    /// A correctness fact, not a timing: fresh is `true`.
    Holds,
}

/// One gated entry: `section.key` of `BENCH_<suite>.json`.
#[derive(Clone, Copy, Debug)]
pub struct Gated {
    pub suite: &'static str,
    pub section: &'static str,
    pub key: &'static str,
    pub rule: Rule,
}

const fn row(suite: &'static str, section: &'static str, key: &'static str, rule: Rule) -> Gated {
    Gated {
        suite,
        section,
        key,
        rule,
    }
}

/// Every gated entry. A new gated metric is one row here.
pub const GATED: &[Gated] = &[
    row("hotpath", "step", "speedup", RatioFloor),
    row("hotpath", "sanitizer", "bitwise_identical", Holds),
    row("broker", "fanout", "speedup", RatioFloor),
    row("broker", "fairness", "min_over_max_delivered", AbsFloor),
    row("broker", "robustness", "eviction_works", Holds),
    row("broker", "robustness", "queue_bounded", Holds),
    row("offload", "overlap", "efficiency", AbsFloor),
    row("offload", "transfer", "bytes_ratio", RatioCeiling),
    row("offload", "results", "bitwise_identical", Holds),
    row("query", "serve", "speedup", RatioFloor),
    row("query", "fairness", "min_over_max_delivered", AbsFloor),
    row("query", "robustness", "eviction_works", Holds),
    row("query", "robustness", "queue_bounded", Holds),
];

/// The suites, each with the run that produces its `BENCH_<suite>.json`
/// document — in the configuration the checked-in baselines were
/// recorded with.
#[allow(clippy::type_complexity)] // a two-column table; an alias would only rename it
pub const SUITES: [(&str, fn() -> String); 4] = [
    // 64³ grid, 48 sparse oscillators, 8 steps.
    ("hotpath", || hotpath::run([64, 64, 64], 48, 8).to_json()),
    ("broker", || brokerbench::run().to_json()),
    ("offload", || offloadbench::run().to_json()),
    ("query", || querybench::run().to_json()),
];

impl Rule {
    /// Did `fresh` pass against `base`, and the line that says why.
    /// `None` when either value has the wrong JSON type for the rule.
    fn apply(self, base: &Json, fresh: &Json, tol: f64) -> Option<(bool, String)> {
        if let (Rule::Holds, Json::Bool(_), Json::Bool(now)) = (self, base, fresh) {
            return Some((*now, format!("holds: {now}")));
        }
        let (base, now) = (base.as_f64()?, fresh.as_f64()?);
        let (floor, bound) = match self {
            Rule::RatioFloor => (true, base * (1.0 - tol)),
            Rule::RatioCeiling => (false, base * (1.0 + tol)),
            Rule::AbsFloor => (true, (base - tol).max(0.0)),
            Rule::Holds => return None, // numbers where booleans belong
        };
        let ok = if floor { now >= bound } else { now <= bound };
        let ok = ok && (self != Rule::AbsFloor || now > 0.0);
        let word = if floor { "floor" } else { "ceiling" };
        Some((
            ok,
            format!("baseline {base:.4}, fresh {now:.4}, {word} {bound:.4}"),
        ))
    }
}

/// The outcome of one gate evaluation.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// One line per row that failed.
    pub failures: Vec<String>,
    /// One line per row checked (for the CI log).
    pub checked: Vec<String>,
}

impl GateReport {
    /// Did every row pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn lookup<'a>(doc: &'a Json, row: &Gated) -> Option<&'a Json> {
    doc.get(row.section)?.get(row.key)
}

/// Hold every [`GATED`] row of `suite` in `fresh` against `baseline`.
/// A row missing (or of the wrong type) in either document fails by
/// name; every failure is reported, not just the first.
pub fn gate(suite: &str, baseline: &Json, fresh: &Json, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for row in GATED.iter().filter(|r| r.suite == suite) {
        let (ok, detail) = match (lookup(baseline, row), lookup(fresh, row)) {
            (None, _) => (false, "missing from the baseline".to_string()),
            (_, None) => (false, "missing from the fresh run".to_string()),
            (Some(base), Some(now)) => row
                .rule
                .apply(base, now, tolerance)
                .unwrap_or_else(|| (false, format!("not a value {:?} can read", row.rule))),
        };
        let line = format!("{suite} {}.{}: {detail}", row.section, row.key);
        if !ok {
            report.failures.push(line.clone());
        }
        report.checked.push(line);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value the row's rule passes against itself.
    fn sample(rule: Rule) -> Json {
        match rule {
            Rule::RatioFloor => Json::Num(20.0),
            Rule::RatioCeiling | Rule::AbsFloor => Json::Num(1.0),
            Rule::Holds => Json::Bool(true),
        }
    }

    /// A value just past the tolerance on the failing side.
    fn violation(rule: Rule) -> Json {
        match rule {
            Rule::RatioFloor => Json::Num(20.0 * 0.80),
            Rule::AbsFloor => Json::Num(0.80),
            Rule::RatioCeiling => Json::Num(1.20),
            Rule::Holds => Json::Bool(false),
        }
    }

    /// `suite`'s document built from its `GATED` rows, with row
    /// `plant.0` replaced by `plant.1` (`None` drops the key).
    fn doc(suite: &str, plant: Option<(usize, Option<Json>)>) -> Json {
        let mut sections: Vec<(String, Json)> = Vec::new();
        for (i, row) in GATED.iter().enumerate().filter(|(_, r)| r.suite == suite) {
            let value = match &plant {
                Some((at, v)) if *at == i => v.clone(),
                _ => Some(sample(row.rule)),
            };
            let Some(value) = value else { continue };
            let member = (row.key.to_string(), value);
            match sections.iter_mut().find(|(s, _)| s == row.section) {
                Some((_, Json::Obj(members))) => members.push(member),
                _ => sections.push((row.section.to_string(), Json::Obj(vec![member]))),
            }
        }
        Json::Obj(sections)
    }

    fn name(row: &Gated) -> String {
        format!("{} {}.{}", row.suite, row.section, row.key)
    }

    #[test]
    fn unchanged_documents_pass_every_row() {
        let mut checked = 0;
        for (suite, _) in SUITES {
            let d = doc(suite, None);
            let r = gate(suite, &d, &d, TOLERANCE);
            assert!(r.passed(), "{:?}", r.failures);
            checked += r.checked.len();
        }
        assert_eq!(checked, GATED.len());
    }

    #[test]
    fn a_20pct_violation_of_one_row_fails_exactly_that_row() {
        for (i, row) in GATED.iter().enumerate() {
            let fresh = doc(row.suite, Some((i, Some(violation(row.rule)))));
            let r = gate(row.suite, &doc(row.suite, None), &fresh, TOLERANCE);
            assert_eq!(r.failures.len(), 1, "{}: {:?}", name(row), r.failures);
            assert!(r.failures[0].starts_with(&name(row)), "{:?}", r.failures);
        }
    }

    #[test]
    fn a_row_missing_from_either_document_fails_by_name() {
        for (i, row) in GATED.iter().enumerate() {
            let (whole, holed) = (doc(row.suite, None), doc(row.suite, Some((i, None))));
            for (baseline, fresh) in [(&whole, &holed), (&holed, &whole)] {
                let r = gate(row.suite, baseline, fresh, TOLERANCE);
                assert_eq!(r.failures.len(), 1, "{}: {:?}", name(row), r.failures);
                assert!(r.failures[0].starts_with(&name(row)), "{:?}", r.failures);
                assert!(r.failures[0].contains("missing"), "{:?}", r.failures);
            }
        }
    }

    #[test]
    fn zero_overlap_efficiency_fails_even_against_a_zero_baseline() {
        let at = GATED
            .iter()
            .position(|r| r.suite == "offload" && r.key == "efficiency")
            .expect("row");
        let zero = doc("offload", Some((at, Some(Json::Num(0.0)))));
        let r = gate("offload", &zero, &zero, TOLERANCE);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].starts_with("offload overlap.efficiency"));
    }

    #[test]
    fn every_gated_row_resolves_in_the_checked_in_baselines() {
        for (suite, _) in SUITES {
            let path = format!("{}/../../BENCH_{suite}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect(&path);
            let baseline = Json::parse(&text).expect(&path);
            let r = gate(suite, &baseline, &baseline, TOLERANCE);
            assert!(r.passed(), "{path}: {:?}", r.failures);
        }
    }
}
