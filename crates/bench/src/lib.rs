//! # bench — the benchmark harness regenerating the paper's evaluation
//!
//! Every table and figure of the SC16 paper has a regeneration function
//! here, composed from the calibrated `perfmodel` cost models (paper
//! scale) and, where a workload fits on a workstation, real threaded
//! runs for validation. The `experiments` binary prints the same rows
//! the paper reports; the `perfgate` binary reruns the offload overlap
//! suite against the checked-in `BENCH_offload.json`; the miniapp's
//! per-layer timings live in the `benchmark/` package.

pub mod figures;
pub mod images;
pub mod offloadbench;
pub mod perfgate;
pub mod realruns;
pub mod table;

pub use table::Table;

/// All experiment identifiers, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "fig11", "fig12",
    "table2", "fig15", "fig16", "fig17",
];

/// Regenerate one experiment by id.
pub fn run_experiment(id: &str) -> Option<Table> {
    match id {
        "fig3" => Some(figures::fig3()),
        "fig4" => Some(figures::fig4()),
        "fig5" => Some(figures::fig5()),
        "fig6" => Some(figures::fig6()),
        "fig7" => Some(figures::fig7()),
        "fig8" => Some(figures::fig8()),
        "fig9" => Some(figures::fig9()),
        "fig10" => Some(figures::fig10()),
        "table1" => Some(figures::table1()),
        "fig11" => Some(figures::fig11()),
        "fig12" => Some(figures::fig12()),
        "table2" => Some(figures::table2()),
        "fig15" => Some(figures::fig15()),
        "fig16" => Some(figures::fig16()),
        "fig17" => Some(figures::fig17()),
        _ => None,
    }
}
