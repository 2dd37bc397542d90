//! The performance regression gate over the checked-in
//! `BENCH_<suite>.json` baselines.
//!
//! CI reruns every suite and compares the fresh document against the
//! checked-in one. Absolute seconds do not transfer between machines,
//! so only **dimensionless shares** are gated, and only those whose
//! run-to-run spread fits inside [`TOLERANCE`]: a row that reads below
//! its floor in ten back-to-back runs of unchanged code is a coin flip,
//! not a gate. Correctness facts (bitwise results, exact byte counts,
//! evictions, queue bounds, fair dispatch) are exact assertions in the
//! tests beside the code they describe, not rows here. [`GATED`] is the
//! whole policy: one row per gated entry. Baseline and fresh run are
//! both read through [`probe::Json`] and the same `section.key` lookup,
//! so a renamed key fails the gate instead of silently ungating a
//! metric.

use probe::Json;

use crate::offloadbench;

/// Allowed regression of a gated share, absolute.
pub const TOLERANCE: f64 = 0.15;

/// One gated entry: `section.key` of `BENCH_<suite>.json`, a share in
/// [0, 1] held to fresh > 0 and fresh ≥ max(baseline − tolerance, 0).
#[derive(Clone, Copy, Debug)]
pub struct Gated {
    pub suite: &'static str,
    pub section: &'static str,
    pub key: &'static str,
}

/// Every gated entry. A new row lands only once ten back-to-back runs
/// of unchanged code all read inside its floor.
pub const GATED: &[Gated] = &[Gated {
    suite: "offload",
    section: "overlap",
    key: "efficiency",
}];

/// The suites, each with the run that produces its `BENCH_<suite>.json`
/// document — in the configuration the checked-in baselines were
/// recorded with.
#[allow(clippy::type_complexity)] // a two-column table; an alias would only rename it
pub const SUITES: [(&str, fn() -> String); 1] = [("offload", || offloadbench::run().to_json())];

/// Did `fresh` pass against `base`, and the line that says why. `None`
/// when either value is not a number.
fn check(base: &Json, fresh: &Json, tol: f64) -> Option<(bool, String)> {
    let (base, now) = (base.as_f64()?, fresh.as_f64()?);
    let floor = (base - tol).max(0.0);
    Some((
        now > 0.0 && now >= floor,
        format!("baseline {base:.4}, fresh {now:.4}, floor {floor:.4}"),
    ))
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
/// A row missing (or not a number) in either document fails by name;
/// every failure is reported, not just the first.
pub fn gate(suite: &str, baseline: &Json, fresh: &Json, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for row in GATED.iter().filter(|r| r.suite == suite) {
        let (ok, detail) = match (lookup(baseline, row), lookup(fresh, row)) {
            (None, _) => (false, "missing from the baseline".to_string()),
            (_, None) => (false, "missing from the fresh run".to_string()),
            (Some(base), Some(now)) => {
                check(base, now, tolerance).unwrap_or_else(|| (false, "not a number".to_string()))
            }
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

    /// `suite`'s document built from its `GATED` rows, each reading 1.0,
    /// with row `plant.0` replaced by `plant.1` (`None` drops the key).
    fn doc(suite: &str, plant: Option<(usize, Option<Json>)>) -> Json {
        let mut sections: Vec<(String, Json)> = Vec::new();
        for (i, row) in GATED.iter().enumerate().filter(|(_, r)| r.suite == suite) {
            let value = match &plant {
                Some((at, v)) if *at == i => v.clone(),
                _ => Some(Json::Num(1.0)),
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
    fn a_violation_past_the_tolerance_fails_exactly_that_row() {
        for (i, row) in GATED.iter().enumerate() {
            let cases = [
                (Json::Num(0.86), false),
                (Json::Num(0.84), true),
                (Json::Bool(true), true),
            ];
            for (value, fails) in cases {
                let fresh = doc(row.suite, Some((i, Some(value))));
                let r = gate(row.suite, &doc(row.suite, None), &fresh, TOLERANCE);
                assert_eq!(r.failures.len(), fails as usize, "{}: {r:?}", name(row));
                assert!(r.checked[0].starts_with(&name(row)), "{r:?}");
            }
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
        let zero = doc("offload", Some((0, Some(Json::Num(0.0)))));
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
