//! Cross-rank aggregation and the machine-readable run report.
//!
//! Per-rank [`Snapshot`]s gather (over the host's collectives — this
//! crate stays transport-free) and [`aggregate`] reduces them: for
//! every span label the per-rank **totals** summarize to min / mean /
//! max / stddev with the rank holding each extremum, counters sum, and
//! gauges keep their per-rank spread. [`RunReport`] packages the
//! aggregates with run shape and failure reports, and round-trips
//! through serde-free JSON ([`RunReport::to_json`] /
//! [`RunReport::from_json`]).

use crate::json::Json;
use crate::{Snapshot, GAUGE_ALLOC_PEAK, GAUGE_DATASET_OWNED, GAUGE_DATASET_SHARED};

/// Format tag written into every report.
pub const SCHEMA: &str = "sensei-runreport-v2";

/// One non-fatal failure in the run, as a single machine-readable
/// shape: which rank reported it, a stable kind tag (`"dead-writer"`,
/// `"slow-drain"`, `"analysis"`, …), and the human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureEntry {
    /// Rank that recorded the failure.
    pub rank: usize,
    /// Stable machine-readable kind tag.
    pub kind: String,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for FailureEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {}: [{}] {}", self.rank, self.kind, self.detail)
    }
}

/// Cross-rank statistics for one span label, over per-rank totals.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseAgg {
    /// Slash-separated span path (`"per-step/histogram"`).
    pub label: String,
    /// Ranks that recorded this label.
    pub ranks: usize,
    /// Total samples across those ranks.
    pub samples: u64,
    /// Smallest per-rank total, seconds.
    pub min_s: f64,
    /// Mean per-rank total, seconds.
    pub mean_s: f64,
    /// Largest per-rank total, seconds.
    pub max_s: f64,
    /// Population stddev of per-rank totals, seconds.
    pub stddev_s: f64,
    /// Rank holding the smallest total.
    pub min_rank: usize,
    /// Rank holding the largest total.
    pub max_rank: usize,
}

/// Cross-rank totals for one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterAgg {
    /// Counter name (`"minimpi/bcast"`).
    pub name: String,
    /// Invocations summed over ranks.
    pub calls: u64,
    /// Messages summed over ranks.
    pub messages: u64,
    /// Bytes summed over ranks.
    pub bytes: u64,
}

/// Cross-rank spread of one high-water gauge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeAgg {
    /// Gauge name.
    pub name: String,
    /// Smallest per-rank high-water mark.
    pub min: u64,
    /// Largest per-rank high-water mark.
    pub max: u64,
    /// Rank holding the smallest mark.
    pub min_rank: usize,
    /// Rank holding the largest mark.
    pub max_rank: usize,
}

/// Per-rank memory high-water marks (the paper's memory-overhead
/// subject), pulled from the well-known `mem/*` gauges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankMemory {
    /// Rank index.
    pub rank: usize,
    /// Allocation high-water of the rank thread, bytes (0 when the
    /// tracking allocator is not installed).
    pub alloc_peak_bytes: u64,
    /// Bytes analysis meshes owned outright.
    pub dataset_owned_bytes: u64,
    /// Bytes analysis meshes borrowed zero-copy from the simulation.
    pub dataset_shared_bytes: u64,
}

/// The output of [`aggregate`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregates {
    /// Per-label cross-rank phase statistics, sorted by label.
    pub phases: Vec<PhaseAgg>,
    /// Per-name counter totals, sorted by name.
    pub counters: Vec<CounterAgg>,
    /// Per-name gauge spreads, sorted by name.
    pub gauges: Vec<GaugeAgg>,
    /// Per-rank memory table, one row per snapshot.
    pub memory: Vec<RankMemory>,
}

/// Reduce rank-ordered snapshots (`snapshots[r]` from rank `r`) to
/// cross-rank statistics. Pure and deterministic: the same snapshots
/// aggregate to the same report on any rank or host.
pub fn aggregate(snapshots: &[Snapshot]) -> Aggregates {
    let mut phases: Vec<PhaseAgg> = Vec::new();
    let mut counters: Vec<CounterAgg> = Vec::new();
    let mut gauges: Vec<GaugeAgg> = Vec::new();

    for (rank, snap) in snapshots.iter().enumerate() {
        for span in &snap.spans {
            let total = span.total;
            match phases.binary_search_by(|p| p.label.as_str().cmp(&span.label)) {
                Ok(i) => {
                    let p = &mut phases[i];
                    p.samples += span.count;
                    // Welford over per-rank totals; m2 is rebuilt below.
                    if total < p.min_s {
                        p.min_s = total;
                        p.min_rank = rank;
                    }
                    if total > p.max_s {
                        p.max_s = total;
                        p.max_rank = rank;
                    }
                    p.mean_s += total; // running sum until the final pass
                    p.ranks += 1;
                }
                Err(i) => phases.insert(
                    i,
                    PhaseAgg {
                        label: span.label.clone(),
                        ranks: 1,
                        samples: span.count,
                        min_s: total,
                        mean_s: total,
                        max_s: total,
                        stddev_s: 0.0,
                        min_rank: rank,
                        max_rank: rank,
                    },
                ),
            }
        }
        for c in &snap.counters {
            match counters.binary_search_by(|x| x.name.as_str().cmp(&c.name)) {
                Ok(i) => {
                    counters[i].calls += c.calls;
                    counters[i].messages += c.messages;
                    counters[i].bytes += c.bytes;
                }
                Err(i) => counters.insert(
                    i,
                    CounterAgg {
                        name: c.name.clone(),
                        calls: c.calls,
                        messages: c.messages,
                        bytes: c.bytes,
                    },
                ),
            }
        }
        for g in &snap.gauges {
            match gauges.binary_search_by(|x| x.name.as_str().cmp(&g.name)) {
                Ok(i) => {
                    let a = &mut gauges[i];
                    if g.max < a.min {
                        a.min = g.max;
                        a.min_rank = rank;
                    }
                    if g.max > a.max {
                        a.max = g.max;
                        a.max_rank = rank;
                    }
                }
                Err(i) => gauges.insert(
                    i,
                    GaugeAgg {
                        name: g.name.clone(),
                        min: g.max,
                        max: g.max,
                        min_rank: rank,
                        max_rank: rank,
                    },
                ),
            }
        }
    }

    // Second pass: turn the running total in `mean_s` into the mean and
    // compute the stddev of per-rank totals.
    for p in &mut phases {
        let n = p.ranks as f64;
        let mean = p.mean_s / n;
        let mut m2 = 0.0;
        for snap in snapshots {
            if let Some(span) = snap.spans.iter().find(|s| s.label == p.label) {
                let d = span.total - mean;
                m2 += d * d;
            }
        }
        p.mean_s = mean;
        p.stddev_s = if p.ranks < 2 { 0.0 } else { (m2 / n).sqrt() };
    }

    let memory = snapshots
        .iter()
        .enumerate()
        .map(|(rank, snap)| RankMemory {
            rank,
            alloc_peak_bytes: snap.gauge(GAUGE_ALLOC_PEAK).unwrap_or(0),
            dataset_owned_bytes: snap.gauge(GAUGE_DATASET_OWNED).unwrap_or(0),
            dataset_shared_bytes: snap.gauge(GAUGE_DATASET_SHARED).unwrap_or(0),
        })
        .collect();

    Aggregates {
        phases,
        counters,
        gauges,
        memory,
    }
}

/// The machine-readable record of one instrumented run: run shape,
/// non-fatal failure reports, and cross-rank aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Communicator size the bridge ran on.
    pub ranks: usize,
    /// Bridge steps executed.
    pub steps: u64,
    /// Non-fatal failure reports (empty = healthy run).
    pub failures: Vec<FailureEntry>,
    /// Per-label cross-rank phase statistics.
    pub phases: Vec<PhaseAgg>,
    /// Per-collective (and staging) counter totals.
    pub counters: Vec<CounterAgg>,
    /// Gauge spreads.
    pub gauges: Vec<GaugeAgg>,
    /// Per-rank memory high-water table.
    pub memory: Vec<RankMemory>,
}

impl RunReport {
    /// Build a report from rank-ordered snapshots.
    pub fn build(
        ranks: usize,
        steps: u64,
        failures: Vec<FailureEntry>,
        snapshots: &[Snapshot],
    ) -> Self {
        let agg = aggregate(snapshots);
        RunReport {
            ranks,
            steps,
            failures,
            phases: agg.phases,
            counters: agg.counters,
            gauges: agg.gauges,
            memory: agg.memory,
        }
    }

    /// Phase statistics by exact label.
    pub fn phase(&self, label: &str) -> Option<&PhaseAgg> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// Counter totals by exact name.
    pub fn counter(&self, name: &str) -> Option<&CounterAgg> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Serialize to JSON (no external dependencies).
    pub fn to_json(&self) -> String {
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("label".into(), Json::Str(p.label.clone())),
                        ("ranks".into(), Json::Num(p.ranks as f64)),
                        ("samples".into(), Json::Num(p.samples as f64)),
                        ("min_s".into(), Json::Num(p.min_s)),
                        ("mean_s".into(), Json::Num(p.mean_s)),
                        ("max_s".into(), Json::Num(p.max_s)),
                        ("stddev_s".into(), Json::Num(p.stddev_s)),
                        ("min_rank".into(), Json::Num(p.min_rank as f64)),
                        ("max_rank".into(), Json::Num(p.max_rank as f64)),
                    ])
                })
                .collect(),
        );
        let counters = Json::Arr(
            self.counters
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(c.name.clone())),
                        ("calls".into(), Json::Num(c.calls as f64)),
                        ("messages".into(), Json::Num(c.messages as f64)),
                        ("bytes".into(), Json::Num(c.bytes as f64)),
                    ])
                })
                .collect(),
        );
        let gauges = Json::Arr(
            self.gauges
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(g.name.clone())),
                        ("min".into(), Json::Num(g.min as f64)),
                        ("max".into(), Json::Num(g.max as f64)),
                        ("min_rank".into(), Json::Num(g.min_rank as f64)),
                        ("max_rank".into(), Json::Num(g.max_rank as f64)),
                    ])
                })
                .collect(),
        );
        let memory = Json::Arr(
            self.memory
                .iter()
                .map(|m| {
                    Json::Obj(vec![
                        ("rank".into(), Json::Num(m.rank as f64)),
                        (
                            "alloc_peak_bytes".into(),
                            Json::Num(m.alloc_peak_bytes as f64),
                        ),
                        (
                            "dataset_owned_bytes".into(),
                            Json::Num(m.dataset_owned_bytes as f64),
                        ),
                        (
                            "dataset_shared_bytes".into(),
                            Json::Num(m.dataset_shared_bytes as f64),
                        ),
                    ])
                })
                .collect(),
        );
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("ranks".into(), Json::Num(self.ranks as f64)),
            ("steps".into(), Json::Num(self.steps as f64)),
            (
                "failures".into(),
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("rank".into(), Json::Num(f.rank as f64)),
                                ("kind".into(), Json::Str(f.kind.clone())),
                                ("detail".into(), Json::Str(f.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("phases".into(), phases),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("memory".into(), memory),
        ]);
        doc.to_string()
    }

    /// Parse a report previously written by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let need_u64 = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field '{key}'"))
        };
        let need_f64 = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number field '{key}'"))
        };
        let need_str = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let arr = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array field '{key}'"))
        };

        let mut report = RunReport {
            ranks: need_u64(&doc, "ranks")? as usize,
            steps: need_u64(&doc, "steps")?,
            ..RunReport::default()
        };
        for f in arr("failures")? {
            report.failures.push(FailureEntry {
                rank: need_u64(f, "rank")? as usize,
                kind: need_str(f, "kind")?,
                detail: need_str(f, "detail")?,
            });
        }
        for p in arr("phases")? {
            report.phases.push(PhaseAgg {
                label: need_str(p, "label")?,
                ranks: need_u64(p, "ranks")? as usize,
                samples: need_u64(p, "samples")?,
                min_s: need_f64(p, "min_s")?,
                mean_s: need_f64(p, "mean_s")?,
                max_s: need_f64(p, "max_s")?,
                stddev_s: need_f64(p, "stddev_s")?,
                min_rank: need_u64(p, "min_rank")? as usize,
                max_rank: need_u64(p, "max_rank")? as usize,
            });
        }
        for c in arr("counters")? {
            report.counters.push(CounterAgg {
                name: need_str(c, "name")?,
                calls: need_u64(c, "calls")?,
                messages: need_u64(c, "messages")?,
                bytes: need_u64(c, "bytes")?,
            });
        }
        for g in arr("gauges")? {
            report.gauges.push(GaugeAgg {
                name: need_str(g, "name")?,
                min: need_u64(g, "min")?,
                max: need_u64(g, "max")?,
                min_rank: need_u64(g, "min_rank")? as usize,
                max_rank: need_u64(g, "max_rank")? as usize,
            });
        }
        for m in arr("memory")? {
            report.memory.push(RankMemory {
                rank: need_u64(m, "rank")? as usize,
                alloc_peak_bytes: need_u64(m, "alloc_peak_bytes")?,
                dataset_owned_bytes: need_u64(m, "dataset_owned_bytes")?,
                dataset_shared_bytes: need_u64(m, "dataset_shared_bytes")?,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterStat, GaugeStat};

    fn rank_snapshot(seed: f64) -> Snapshot {
        let p = crate::enabled();
        p.record_span("per-step/histogram", seed);
        p.record_span("per-step/histogram", seed * 2.0);
        let mut s = p.snapshot();
        s.counters.push(CounterStat {
            name: "minimpi/bcast".into(),
            calls: 2,
            messages: 3,
            bytes: 100,
        });
        s.gauges.push(GaugeStat {
            name: GAUGE_ALLOC_PEAK.into(),
            max: (seed * 1000.0) as u64,
        });
        s
    }

    #[test]
    fn aggregate_tracks_extrema_and_ranks() {
        let snaps = [rank_snapshot(1.0), rank_snapshot(3.0), rank_snapshot(2.0)];
        let agg = aggregate(&snaps);
        assert_eq!(agg.phases.len(), 1);
        let p = &agg.phases[0];
        // Per-rank totals: 3.0, 9.0, 6.0.
        assert_eq!(p.ranks, 3);
        assert_eq!(p.samples, 6);
        assert_eq!(p.min_s, 3.0);
        assert_eq!(p.max_s, 9.0);
        assert_eq!(p.mean_s, 6.0);
        assert_eq!(p.min_rank, 0);
        assert_eq!(p.max_rank, 1);
        assert!((p.stddev_s - (6.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(agg.counters[0].calls, 6);
        assert_eq!(agg.counters[0].bytes, 300);
        assert_eq!(agg.memory.len(), 3);
        assert_eq!(agg.memory[1].alloc_peak_bytes, 3000);
        assert_eq!(agg.gauges[0].min_rank, 0);
        assert_eq!(agg.gauges[0].max_rank, 1);
    }

    #[test]
    fn single_rank_has_zero_spread() {
        let agg = aggregate(&[rank_snapshot(2.0)]);
        assert_eq!(agg.phases[0].stddev_s, 0.0);
        assert_eq!(agg.phases[0].min_s, agg.phases[0].max_s);
    }

    #[test]
    fn report_json_round_trips() {
        let snaps = [rank_snapshot(1.0), rank_snapshot(4.0)];
        let report = RunReport::build(
            2,
            7,
            vec![FailureEntry {
                rank: 1,
                kind: "dead-writer".into(),
                detail: "writer 1: lost in transit \"mid-step\"".into(),
            }],
            &snaps,
        );
        let text = report.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_accessors() {
        let report = RunReport::build(1, 1, vec![], &[rank_snapshot(1.0)]);
        assert!(report.phase("per-step/histogram").is_some());
        assert!(report.phase("per-step/missing").is_none());
        assert_eq!(report.counter("minimpi/bcast").unwrap().messages, 3);
    }

    #[test]
    fn from_json_rejects_other_documents() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("[1,2]").is_err());
        assert!(RunReport::from_json("{\"schema\": \"other\"}").is_err());
    }
}
