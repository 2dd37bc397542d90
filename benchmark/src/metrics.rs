//! The declared metrics: one row per metric, the same rows
//! `BENCHMARK.json` lists. A run emits exactly these names.

/// An end-to-end metric: what a user of the system sees. Measured only
/// with tracing off. Every timing is the *undisturbed* figure — a low
/// quantile or a best-of-children — because this machine's noise is
/// one-sided (see [`crate::stats::undisturbed`]); medians and tails are
/// per-layer rows.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    /// Three times the widest interquartile range over median that ten
    /// runs of any workload showed for the metric on this machine
    /// (`results/bounds-sizing-300.json`), rounded up to a twentieth and
    /// capped at the contract's 0.25: a change must move a metric by
    /// more than identical code does before the gate calls it one.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "time_to_solution_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p10",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "mcells_per_s",
        unit: "Mcell/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// A per-layer metric, from the traced run; informational, not gated.
/// A layer that is idle in a workload reads 0 there, and so does a
/// direct probe (`crate::layers`) outside the workload that is its home.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 49] = [
    layer("oscillator.step_ms", "ms", "lower", "step_ms_p10, mcells_per_s on sim-baseline; its share elsewhere"),
    layer("oscillator.share_pct", "%", "lower", "how much of a step a faster kernel can save, per workload"),
    layer("oscillator.new_ms", "ms", "lower", "setup_s everywhere"),
    layer("oscillator.step_ms_1rank", "ms", "lower", "mcells_per_s on sim-baseline (same grid on one rank)"),
    layer("oscillator.parallel_eff", "ratio", "higher", "mcells_per_s on sim-baseline"),
    layer("sensei.execute_ms", "ms", "lower", "step_ms_p10 on stats-insitu, render-insitu"),
    layer("sensei.bridge_self_us", "us", "lower", "step_ms_p10 on sim-baseline; must stay ~0"),
    layer("sensei.adaptor_us", "us", "lower", "step_ms_p10 on stats-insitu"),
    layer("sensei.histogram_ms", "ms", "lower", "step_ms_p10 on stats-insitu"),
    layer("sensei.autocorrelation_ms", "ms", "lower", "step_ms_p10 on stats-insitu"),
    layer("sensei.histogram_endpoint_ms", "ms", "lower", "step_ms_p10, cpu_s on intransit-staging"),
    layer("sensei.finalize_ms", "ms", "lower", "time_to_solution_s on stats-insitu"),
    layer("sensei.register_us", "us", "lower", "setup_s (probed on stats-insitu)"),
    layer("minimpi.skew_wait_ms", "ms", "lower", "step_ms_p10 on stats-insitu, render-insitu (skew, not transfer)"),
    layer("minimpi.allreduce_us", "us", "lower", "step_ms_p10 on stats-insitu"),
    layer("minimpi.p2p_mb_per_s", "MB/s", "higher", "step_ms_p10 on intransit-staging (probed there) and render-insitu"),
    layer("minimpi.msgs_per_step", "count", "lower", "cpu_s on intransit-staging (exact count)"),
    layer("minimpi.bytes_per_step", "B", "lower", "cpu_s on intransit-staging (exact count)"),
    layer("minimpi.world_spawn_ms", "ms", "lower", "setup_s (probed on sim-baseline)"),
    layer("datamodel.shared_bytes", "B", "higher", "peak_rss_mb on stats-insitu (zero-copy views)"),
    layer("datamodel.owned_bytes", "B", "lower", "peak_rss_mb on intransit-staging (endpoint copies)"),
    layer("datamodel.zero_copy_pct", "%", "higher", "peak_rss_mb"),
    layer("catalyst.execute_ms", "ms", "lower", "step_ms_p10 on render-insitu"),
    layer("libsim.execute_ms", "ms", "lower", "step_ms_p10 on render-insitu"),
    layer("render.slice_ms", "ms", "lower", "step_ms_p10 on render-insitu"),
    layer("render.composite_ms", "ms", "lower", "step_ms_p10 on render-insitu"),
    layer("render.png_ms", "ms", "lower", "step_ms_p10, cpu_s on render-insitu"),
    layer("render.png_bytes", "B", "lower", "step_ms_p10 on render-insitu"),
    layer("adios.marshal_ms", "ms", "lower", "step_ms_p10, peak_rss_mb on intransit-staging"),
    layer("adios.encode_ms", "ms", "lower", "step_ms_p10 on intransit-staging"),
    layer("adios.decode_ms", "ms", "lower", "step_ms_p10, peak_rss_mb on intransit-staging"),
    layer("adios.write_ms", "ms", "lower", "step_ms_p10 on intransit-staging"),
    layer("adios.advance_wait_ms", "ms", "lower", "step_ms_p10 on intransit-staging (writer blocked on endpoint)"),
    layer("adios.bytes_per_step", "B", "lower", "step_ms_p10 on intransit-staging (exact count)"),
    layer("adios.endpoint_step_ms", "ms", "lower", "cpu_s on intransit-staging; step_ms_p10 once above advance_wait"),
    layer("adios.broker_publish_us", "us", "lower", "step_ms_p10 on intransit-staging (zero subscribers: free)"),
    layer("adios.pair_ms", "ms", "lower", "setup_s on intransit-staging"),
    layer("probe.alloc_peak_mb", "MB", "lower", "peak_rss_mb"),
    layer("probe.trace_overhead_pct", "%", "lower", "none: traced vs untraced time_to_solution_s"),
    layer("run.step_ms_p50", "ms", "lower", "the median behind step_ms_p10: what a step took with the machine's disturbances in"),
    layer("run.step_ms_tail", "ms", "lower", "the tail of step_ms_p10's distribution"),
    layer("run.step_tail_pct", "%", "higher", "which percentile run.step_ms_tail is"),
    layer("run.step_samples", "count", "higher", "samples behind step_ms_p10"),
    layer("run.first_step_ms", "ms", "lower", "setup_s (lazy initialisation)"),
    layer("run.setup_first_ms", "ms", "lower", "setup_s, time_to_solution_s"),
    layer("run.sys_cpu_s", "s", "lower", "cpu_s"),
    layer("run.cpu_per_wall", "ratio", "higher", "~1.0 on render-insitu = serial; 2.0 = both ranks busy"),
    layer("run.insitu_overhead_pct", "%", "lower", "step_ms_p10 vs sim-baseline per step (the paper's headline)"),
    layer("run.residual_pct", "%", "lower", "share of the traced step no layer span covers"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use probe::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` must declare exactly what the code emits.
    #[test]
    fn benchmark_json_declares_the_same_rows() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let json = Json::parse(&text).expect("valid JSON");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|row| {
                    let Json::Obj(members) = row else {
                        panic!("{key} rows are objects")
                    };
                    assert_eq!(members.len(), fields.len(), "{key}: exactly {fields:?}");
                    fields
                        .iter()
                        .map(|f| match row.get(f) {
                            Some(Json::Str(s)) => s.clone(),
                            Some(Json::Num(n)) => n.to_string(),
                            other => panic!("{key}.{f}: {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let workloads: Vec<Vec<String>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_string(), w.why().to_string()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.to_string(),
                    m.bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| vec![m.name.to_string(), m.unit.to_string(), m.better.to_string()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), per_layer);
        let Json::Obj(top) = &json else {
            panic!("top level is an object")
        };
        let mut keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
