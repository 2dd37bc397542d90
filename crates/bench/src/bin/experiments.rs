//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments all            # every table/figure, printed + CSV
//! experiments fig6 table2    # a subset
//! experiments images         # render Figs. 13/14/18 as PNGs
//! experiments validate       # small-scale real-mode validation runs
//! experiments --out results  # choose the output directory
//! ```

use std::path::PathBuf;

use bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results");
    let mut requests: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: experiments [--out DIR] [all|validate|images|{}]",
                    ALL_EXPERIMENTS.join("|")
                );
                return;
            }
            other => requests.push(other.to_string()),
        }
    }
    if requests.is_empty() {
        requests.push("all".to_string());
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let mut ids: Vec<String> = Vec::new();
    for r in &requests {
        match r.as_str() {
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "images" => {
                println!("rendering image figures into {} …", out_dir.display());
                for p in bench::images::render_all(&out_dir) {
                    println!("  wrote {}", p.display());
                }
            }
            "validate" => validate(),
            other => ids.push(other.to_string()),
        }
    }

    for id in ids {
        match run_experiment(&id) {
            Some(table) => {
                println!("{}", table.to_text());
                let csv_path = out_dir.join(format!("{id}.csv"));
                std::fs::write(&csv_path, table.to_csv()).expect("write csv");
                println!("(csv: {})\n", csv_path.display());
            }
            None => {
                eprintln!("unknown experiment '{id}' (try --help)");
                std::process::exit(2);
            }
        }
    }
}

/// Small-scale real-mode validation: measure on this machine the shapes
/// the models assert at paper scale.
fn validate() {
    println!("== real-mode validation (this machine, thread-backed ranks) ==");
    let dir = std::env::temp_dir().join(format!("sensei_validate_{}", std::process::id()));
    let (vtk, coll) = bench::realruns::measure_write_paths(4, 32, &dir);
    println!("write paths (4 ranks, 32^3): file-per-rank {vtk:.4}s, collective {coll:.4}s");
    let _ = std::fs::remove_dir_all(&dir);

    let (fixed, stored, nf, ns) = bench::realruns::measure_png_ablation(2900, 725);
    println!(
        "png 2900x725: zlib(fixed) {fixed:.3}s → {nf} B; stored {stored:.3}s → {ns} B \
         (Table 2's compression ablation, with this encoder)"
    );
}
