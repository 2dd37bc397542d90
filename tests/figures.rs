//! The paper's printed numbers, each checked once. Every numeric cell of
//! every table `experiments` regenerates (`bench::ALL_EXPERIMENTS`) is a
//! line of `tests/golden/figures.tsv`, and the file is compared byte for
//! byte, so a change that moves any figure fails naming its lines.
//!
//! A line is tab-separated: figure, row (the row's label cells), column,
//! the cell as the table prints it, the paper's value, a role and the
//! cell's relative error against the paper's value. The role is `fitted`
//! where a `perfmodel` constant is solved from that value, so its error
//! reads 0 at print precision, `predicted` for any other value the paper
//! prints, and `-` where it prints none. The paper's values are [`PAPER`],
//! each with its source.
//!
//! After the cells, each prose claim the paper makes about a figure is a
//! `shape` line: the quantity, its value and the claim. The claims, and
//! the fitted errors of 0, are checked here whatever the file says, so a
//! regeneration cannot hide a broken one. Last, each range the paper
//! prints is a `range` line: the quantity, its value, the range, and in
//! the error column the value's signed distance outside the range,
//! relative to the nearer bound (0 inside it). A range line is compared
//! with the rest of the file and never fails on its value. When a change
//! moves a cell on purpose, regenerate with `scripts/regen_goldens.sh`
//! (equivalently `GOLDEN_REGEN=1 cargo test --test figures`) and commit
//! its diff.

use std::fmt::Write as _;

use bench::{run_experiment, ALL_EXPERIMENTS};
use Claim::{Above, Below, Within};

/// The columns of counts that name a row rather than measure it. A row
/// is named by its cells in these columns and by its words (a cell that
/// is not a number, other than `-`, which stands for a cell left out).
const LABELS: [&str; 6] = ["cores", "cells/core", "writers", "readers", "ranks", "step"];

/// The values the paper prints: figure, row, column, the value in the
/// cell's unit, its role (`fitted` where a `perfmodel` constant is solved
/// from it) and where the paper prints it.
#[rustfmt::skip]
const PAPER: [(&str, &str, &str, f64, &str, &str); 31] = [
    ("fig5", "Libsim-slice 45440", "analysis init", 3.5, "fitted", "Fig. 5 discussion: Libsim's init ≈3.5 s at 45K"),
    ("fig10", "6496", "write/sim ratio", 4.0, "predicted", "Fig. 10 discussion: writes about four times a step at 6K"),
    ("fig10", "45440", "write/sim ratio", 20.0, "fitted", "Fig. 10 discussion: writes about 20× a step at 45K"),
    ("table1", "812", "size", 2.0, "predicted", "Table 1"),
    ("table1", "6496", "size", 16.0, "predicted", "Table 1"),
    ("table1", "45440", "size", 123.0, "predicted", "Table 1"),
    ("table1", "812", "VTK I/O (s)", 0.12, "fitted", "Table 1"),
    ("table1", "6496", "VTK I/O (s)", 0.67, "fitted", "Table 1"),
    ("table1", "45440", "VTK I/O (s)", 9.05, "fitted", "Table 1"),
    ("table1", "812", "MPI-IO (s)", 0.40, "predicted", "Table 1"),
    ("table1", "6496", "MPI-IO (s)", 3.17, "predicted", "Table 1"),
    ("table1", "45440", "MPI-IO (s)", 22.87, "fitted", "Table 1"),
    ("table2", "IS1 262144 800x200", "in situ one-time", 1.76, "predicted", "Table 2"),
    ("table2", "IS2 262144 2900x725", "in situ one-time", 1.07, "predicted", "Table 2"),
    ("table2", "IS3 1048576 2900x725", "in situ one-time", 1.93, "predicted", "Table 2"),
    ("table2", "IS1 262144 800x200", "in situ per step", 1.40, "fitted", "Table 2"),
    ("table2", "IS2 262144 2900x725", "in situ per step", 5.24, "fitted", "Table 2"),
    ("table2", "IS3 1048576 2900x725", "in situ per step", 5.62, "predicted", "Table 2"),
    ("table2", "IS1 262144 800x200", "total", 1051.0, "fitted", "Table 2"),
    ("table2", "IS2 262144 2900x725", "total", 962.0, "fitted", "Table 2"),
    ("table2", "IS3 1048576 2900x725", "total", 653.0, "fitted", "Table 2"),
    ("table2", "IS1 262144 800x200", "% in situ", 8.2, "predicted", "Table 2"),
    ("table2", "IS2 262144 2900x725", "% in situ", 33.0, "predicted", "Table 2"),
    ("table2", "IS3 1048576 2900x725", "% in situ", 13.0, "predicted", "Table 2"),
    ("fig16", "write 11-variable volume write", "sensei cost", 24.0, "predicted", "Fig. 16 discussion: a ≈24 s volume write"),
    ("fig17", "1024^3 512", "solver/step", 67.5, "fitted", "§4.2.3: 45 min over 40 steps"),
    ("fig17", "2048^3 4096", "solver/step", 90.0, "fitted", "§4.2.3: 1 h over 40 steps"),
    ("fig17", "4096^3 32768", "solver/step", 202.5, "fitted", "§4.2.3: 2 h 15 min over 40 steps"),
    ("fig17", "1024^3 512", "plotfile write", 17.0, "fitted", "§4.2.3"),
    ("fig17", "2048^3 4096", "plotfile write", 80.0, "fitted", "§4.2.3"),
    ("fig17", "4096^3 32768", "plotfile write", 312.0, "fitted", "§4.2.3"),
];

/// One numeric cell of a regenerated table.
struct Cell {
    figure: &'static str,
    row: String,
    column: String,
    text: String,
    value: f64,
}

impl Cell {
    fn key(&self) -> (&str, &str, &str) {
        (self.figure, &self.row, &self.column)
    }
}

/// Every numeric cell of every experiment, in table order.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for &figure in ALL_EXPERIMENTS {
        let t = run_experiment(figure).unwrap();
        let label = |c: usize| LABELS.contains(&t.headers[c].as_str());
        for cells in &t.rows {
            let word = |c: &usize| number(&cells[*c]).is_none() && cells[*c] != "-";
            let names = (0..cells.len()).filter(|c| label(*c) || word(c));
            let row = names
                .map(|c| cells[c].as_str())
                .collect::<Vec<_>>()
                .join(" ");
            for (c, text) in cells.iter().enumerate() {
                if let (false, Some(value)) = (label(c), number(text)) {
                    let (row, column, text) = (row.clone(), t.headers[c].clone(), text.clone());
                    out.push(Cell {
                        figure,
                        row,
                        column,
                        text,
                        value,
                    });
                }
            }
        }
    }
    out
}

/// A cell's number: its first word, where that parses (a unit may follow).
fn number(cell: &str) -> Option<f64> {
    cell.split(' ').next()?.parse().ok()
}

/// The cell's error against `paper`, the paper's value first printed as
/// the cell is, so a cell solved from it reads exactly 0.
fn error(cell: &Cell, paper: f64) -> f64 {
    let decimals = cell.text.split(' ').next().unwrap().split('.').nth(1);
    let at_print = format!("{paper:.*}", decimals.map_or(0, str::len));
    (cell.value - at_print.parse::<f64>().unwrap()) / paper
}

/// A claim about a quantity, and how it reads in the golden.
enum Claim {
    Below(f64),
    Above(f64),
    Within(f64, f64),
}

impl Claim {
    fn holds(&self, v: f64) -> bool {
        match *self {
            Claim::Below(b) => v < b,
            Claim::Above(b) => v > b,
            Claim::Within(lo, hi) => (lo..=hi).contains(&v),
        }
    }

    fn text(&self) -> String {
        match self {
            Claim::Below(b) => format!("< {b}"),
            Claim::Above(b) => format!("> {b}"),
            Claim::Within(lo, hi) => format!("in [{lo}, {hi}]"),
        }
    }
}

/// The values of `column` of `figure` in the rows `pick` keeps.
fn values(cells: &[Cell], figure: &str, column: &str, pick: impl Fn(&str) -> bool) -> Vec<f64> {
    let of = |c: &&Cell| c.figure == figure && c.column == column && pick(&c.row);
    let out: Vec<f64> = cells.iter().filter(of).map(|c| c.value).collect();
    assert!(!out.is_empty(), "no {figure} cell of {column}");
    out
}

/// The one value of `column` in `figure`'s row `row`.
fn one(cells: &[Cell], figure: &str, row: &str, column: &str) -> f64 {
    let v = values(cells, figure, column, |r| r == row);
    assert_eq!(v.len(), 1, "{figure} {row} {column}");
    v[0]
}

fn max(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::MIN, f64::max)
}

fn min(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::MAX, f64::min)
}

/// The paper's prose claims: figure, quantity, its value, the claim.
#[rustfmt::skip]
fn shapes(c: &[Cell]) -> Vec<(&'static str, &'static str, f64, Claim)> {
    let all = |_: &str| true;
    let ratios = |a: Vec<f64>, b: Vec<f64>| a.iter().zip(b).map(|(a, b)| a / b).collect();
    let stats = |r: &str| r.starts_with("Histogram ") || r.starts_with("Autocorrelation ");
    let in_situ = |r: &str| r.ends_with(" 45440") && !r.starts_with("PostHoc");
    let renders = |r: &str| r.ends_with(" adaptor+libsim");
    let quiet = |r: &str| r.ends_with(" adaptor only");
    let per_step = |run| one(c, "table2", run, "in situ per step");
    let is1 = per_step("IS1 262144 800x200");
    let is2 = per_step("IS2 262144 2900x725");
    let is3 = per_step("IS3 1048576 2900x725");
    let speedup = |cores| one(c, "fig15", cores, "speedup vs 8K");
    let cori = one(c, "fig9", "45440", "init (cori)");
    let hist = |fig, row| one(c, fig, row, "total");
    let analyses = [values(c, "fig17", "histogram/step", all), values(c, "fig17", "slice/step", all)];
    vec![
        ("fig3", "max overhead %", max(values(c, "fig3", "overhead %", all)), Below(0.1)),
        ("fig4", "max overhead %", max(values(c, "fig4", "overhead %", all)), Below(2.0)),
        ("fig5", "Autocorrelation finalize at 45440 (s)",
            one(c, "fig5", "Autocorrelation 45440", "finalize"), Within(0.1, 5.0)),
        ("fig6", "max histogram or autocorrelation step / simulation step",
            max(ratios(values(c, "fig6", "analysis", stats), values(c, "fig6", "simulation", stats))),
            Below(0.2)),
        ("fig9", "Cori / Titan reader init at 45440",
            cori / one(c, "fig9", "45440", "init (titan)"), Above(10.0)),
        ("fig9", "Cori reader init at 45440 (s)", cori, Above(5.0)),
        ("fig10", "write/sim ratio at 812", one(c, "fig10", "812", "write/sim ratio"), Below(0.6)),
        ("table1", "min MPI-IO / VTK I/O",
            min(ratios(values(c, "table1", "MPI-IO (s)", all), values(c, "table1", "VTK I/O (s)", all))),
            Above(1.0)),
        ("fig11", "post hoc histogram total at 4544 readers / Fig. 12 in situ at 45440",
            hist("fig11", "histogram 4544") / hist("fig12", "Histogram 45440"), Above(3.0)),
        ("fig12", "max in situ total / PostHoc-writes total at 45440",
            max(values(c, "fig12", "total", in_situ)) / hist("fig12", "PostHoc-writes 45440"),
            Below(1.0)),
        ("table2", "IS2 / IS1 per step", is2 / is1, Above(2.5)),
        ("table2", "|IS3 - IS2| / IS2 per step", (is3 - is2).abs() / is2, Below(0.15)),
        ("fig15", "speedup at 16384", speedup("16384"), Above(1.75)),
        ("fig15", "speedup 65536 -> 131072", speedup("131072") / speedup("65536"), Below(1.5)),
        ("fig16", "min render step (s)", min(values(c, "fig16", "sensei cost", renders)), Within(6.0, 9.5)),
        ("fig16", "max render step (s)", max(values(c, "fig16", "sensei cost", renders)), Within(6.0, 9.5)),
        ("fig16", "max quiet step (s)", max(values(c, "fig16", "sensei cost", quiet)), Below(0.5)),
        ("fig17", "max analysis step (s)", max(analyses.concat()), Below(1.0)),
        ("fig17", "min solver step (s)", min(values(c, "fig17", "solver/step", all)), Above(50.0)),
    ]
}

/// The ranges the paper prints: figure, quantity, its value, the range.
/// A value outside its range is a deviation the golden states, not a
/// failure.
#[rustfmt::skip]
fn ranges(c: &[Cell]) -> Vec<(&'static str, &'static str, f64, (f64, f64))> {
    let all = |_: &str| true;
    let total = |fig, row| one(c, fig, row, "total");
    vec![
        ("fig11", "post hoc histogram total at 4544 readers / Fig. 12 in situ at 45440",
            total("fig11", "histogram 4544") / total("fig12", "Histogram 45440"), (5.0, 10.0)),
        ("fig15", "max in situ amortized/step (s)",
            max(values(c, "fig15", "insitu amortized/step", all)), (1.0, 1.5)),
        ("fig16", "volume write / render step",
            one(c, "fig16", "ratio write / render step", "sensei cost"), (3.0, 4.0)),
    ]
}

/// `v` to four significant digits.
fn sig4(v: f64) -> String {
    let decimals = (3.0 - v.abs().log10().floor()).clamp(0.0, 15.0) as usize;
    format!("{v:.decimals$}")
        .parse::<f64>()
        .unwrap()
        .to_string()
}

#[test]
fn every_paper_number_matches_the_golden_table() {
    let cells = cells();
    let mut text = String::new();
    let mut put = |line: [&str; 7]| writeln!(text, "{}", line.join("\t")).unwrap();
    put(["figure", "row", "column", "cell", "paper", "role", "error"]);
    let mut broken = String::new();
    for cell in &cells {
        let (figure, row, column) = cell.key();
        let (paper, role, err) = match PAPER.iter().find(|p| (p.0, p.1, p.2) == cell.key()) {
            None => ("-".into(), "-", "-".into()),
            Some(&(.., value, role, source)) => {
                let err = error(cell, value);
                if role == "fitted" && err != 0.0 {
                    let text = &cell.text;
                    let line =
                        format!("fitted {row} {column} reads {text}, not {value} ({source})");
                    writeln!(broken, "{line}").unwrap();
                }
                let err = match err {
                    0.0 => "0".into(),
                    _ => format!("{:+.2}%", 100.0 * err),
                };
                (value.to_string(), role, err)
            }
        };
        put([figure, row, column, &cell.text, &paper, role, &err]);
    }
    for (figure, row, column, ..) in PAPER {
        if !cells.iter().any(|c| c.key() == (figure, row, column)) {
            writeln!(
                broken,
                "the paper value of {figure} {row} {column} names no cell"
            )
            .unwrap();
        }
    }
    for (figure, quantity, value, claim) in shapes(&cells) {
        let (value, claim_text) = (sig4(value), claim.text());
        if !claim.holds(value.parse().unwrap()) {
            writeln!(broken, "{figure}: {quantity} = {value}, not {claim_text}").unwrap();
        }
        put([
            figure,
            "shape",
            quantity,
            &value,
            &claim_text,
            "shape",
            "holds",
        ]);
    }
    for (figure, quantity, value, (lo, hi)) in ranges(&cells) {
        let value = sig4(value);
        let v: f64 = value.parse().unwrap();
        let err = match v {
            v if v < lo => format!("{:+.2}%", 100.0 * (v - lo) / lo),
            v if v > hi => format!("{:+.2}%", 100.0 * (v - hi) / hi),
            _ => "0".into(),
        };
        let range = format!("in [{lo}, {hi}]");
        put([figure, "range", quantity, &value, &range, "range", &err]);
    }
    assert!(
        broken.is_empty(),
        "the paper's numbers do not hold:\n{broken}"
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures.tsv");
    if std::env::var("GOLDEN_REGEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &text).unwrap();
        return eprintln!("regenerated {}", path.display());
    }
    let regen = "run scripts/regen_goldens.sh";
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}; {regen}"));
    let only = |a: &str, b: &str, sign: char| -> String {
        let lines = a.lines().filter(|l| !b.lines().any(|m| m == *l));
        lines.map(|l| format!("{sign} {l}\n")).collect()
    };
    let (gone, new) = (only(&golden, &text, '-'), only(&text, &golden, '+'));
    let moved = "the regenerated figures moved (- the golden, + this build)";
    assert!(
        text == golden,
        "{moved}; if on purpose, {regen}\n{gone}{new}"
    );
}

#[test]
fn every_experiment_yields_a_table() {
    for id in ALL_EXPERIMENTS {
        let t = run_experiment(id).unwrap_or_else(|| panic!("missing {id}"));
        assert!(!t.rows.is_empty(), "{id} has no rows");
        assert!(!t.headers.is_empty(), "{id} has no headers");
    }
    assert!(run_experiment("fig99").is_none());
}
