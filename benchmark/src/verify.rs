//! Output verification, outside every timed region.
//!
//! A child digests what its round produced (final field, last
//! histogram, last PNGs); the parent computes the reference once per
//! run — on one rank, with the program's own reference kernel
//! (`Simulation::step_naive`) — and compares every child against it.

use std::sync::Arc;

use catalyst::{CatalystSliceAnalysis, SlicePipeline};
use datamodel::{DataArray, DataSet, Extent, ImageData};
use minimpi::World;
use oscillator::{SimConfig, Simulation};
use render::png::decode_rgb;
use sensei::analysis::histogram::HistogramResult;
use sensei::{AnalysisAdaptor, InMemoryAdaptor};

use crate::deck::mix64;
use crate::workloads::{
    RankOut, Shape, Workload, BINS, CATALYST_IMAGE, DT, LIBSIM_IMAGE, SLICE_AXIS,
};

/// Digest of a block of the field that does not depend on how the grid
/// was split: a wrapping sum over the block's *owned* points of a mix
/// of the global point index and the value's bits. Blocks share their
/// lower boundary planes with the neighbour below, which owns them.
pub fn block_digest(local: &Extent, global: &Extent, values: &[f64]) -> u64 {
    assert_eq!(values.len(), local.num_points());
    let mut sum = 0u64;
    for (p, v) in local.iter_points().zip(values) {
        let duplicated = (0..3).any(|a| p[a] == local.lo[a] && local.lo[a] > global.lo[a]);
        if !duplicated {
            sum = sum.wrapping_add(mix64(global.linear_index(p) as u64 ^ mix64(v.to_bits())));
        }
    }
    sum
}

/// FNV-1a, for PNG bytes.
pub fn bytes_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What one child's round produced, reduced to what the parent compares.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Digest {
    pub field: u64,
    pub histogram: Option<HistogramResult>,
    pub catalyst_png: Option<u64>,
    /// Problems the child can see without a reference.
    pub local_errors: Vec<String>,
}

fn check_png(label: &str, png: Option<&Vec<u8>>, size: (usize, usize), errors: &mut Vec<String>) {
    match png.map(|bytes| decode_rgb(bytes)) {
        Some(Ok((w, h, _))) if (w, h) == size => {}
        Some(Ok((w, h, _))) => errors.push(format!("{label} PNG is {w}x{h}, configured {size:?}")),
        Some(Err(e)) => errors.push(format!("{label} PNG does not decode: {e:?}")),
        None => errors.push(format!("{label} produced no PNG")),
    }
}

/// Reduce a round's outputs and run the checks that need no reference.
pub fn digest(workload: Workload, shape: Shape, ranks: &[RankOut]) -> Digest {
    let global = Extent::whole([shape.grid; 3]);
    let mut errors = Vec::new();
    let mut field = 0u64;
    for out in ranks {
        if let Some((local, values)) = &out.block {
            field = field.wrapping_add(block_digest(local, &global, values));
        }
        for failure in &out.failures {
            errors.push(format!("failure report: {failure}"));
        }
    }
    let histogram = ranks.iter().find_map(|r| r.histogram.clone());
    match workload {
        Workload::SimBaseline => {}
        Workload::StatsInsitu => {
            let delays = ranks.iter().find_map(|r| r.autocorrelation_delays);
            if delays != Some(crate::workloads::AUTOCORRELATION.0) {
                errors.push(format!("autocorrelation reported {delays:?} delays"));
            }
        }
        Workload::RenderInsitu => {
            check_png(
                "catalyst",
                ranks[0].catalyst_png.as_ref(),
                CATALYST_IMAGE,
                &mut errors,
            );
            check_png(
                "libsim",
                ranks[0].libsim_png.as_ref(),
                LIBSIM_IMAGE,
                &mut errors,
            );
        }
        Workload::IntransitStaging => {
            let endpoint_steps: u64 = ranks.iter().map(|r| r.bridge_steps).sum();
            if endpoint_steps != shape.steps as u64 {
                errors.push(format!(
                    "endpoint ran {endpoint_steps} of {} steps",
                    shape.steps
                ));
            }
            for out in ranks {
                let (Some(w), Some((local, _))) = (out.writer, &out.block) else {
                    continue;
                };
                // Every step must have gone out whole; the field's
                // payload alone is the block's points × 8 bytes.
                if w.bytes_shipped != w.step_bytes * shape.steps
                    || w.step_bytes < local.num_points() * 8
                {
                    errors.push(format!(
                        "writer shipped {} bytes, computed {} × {} steps",
                        w.bytes_shipped, w.step_bytes, shape.steps
                    ));
                }
            }
        }
    }
    if matches!(workload, Workload::StatsInsitu | Workload::IntransitStaging) {
        match &histogram {
            Some(h) if h.step != shape.steps as u64 => {
                errors.push(format!("last histogram is of step {}", h.step))
            }
            Some(h) if h.counts.iter().sum::<u64>() != global.num_points() as u64 => {
                errors.push("histogram counts do not sum to the cell count".to_string())
            }
            Some(_) => {}
            None => errors.push("no histogram result".to_string()),
        }
    }
    Digest {
        field,
        histogram,
        catalyst_png: ranks[0].catalyst_png.as_deref().map(bytes_digest),
        local_errors: errors,
    }
}

/// The expected outputs of a round, from a one-rank run of the
/// reference kernel.
pub struct Reference {
    /// Field digest after the first step.
    pub first_field: u64,
    /// Field digest after the last step.
    pub final_field: u64,
    pub histogram: HistogramResult,
    /// Catalyst's PNG of the final field, rendered on one rank.
    pub catalyst_png: Option<u64>,
}

/// Harness-side recount of the histogram over the whole final field.
fn recount(values: &[f64], step: u64) -> HistogramResult {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut counts = vec![0u64; BINS];
    if max > min {
        let inv_w = BINS as f64 / (max - min);
        for &v in values {
            counts[(((v - min) * inv_w) as usize).min(BINS - 1)] += 1;
        }
    } else {
        counts[0] = values.len() as u64;
    }
    HistogramResult {
        min,
        max,
        counts,
        step,
    }
}

/// Compute the reference for `shape` on one rank.
///
/// The field of step `n` depends only on the time `(n-1)·dt`, so the
/// reference takes two naive steps: one at time 0 (the first step of
/// every round) and one with `dt' = (steps-1)·dt`, whose second step
/// lands on exactly the last step's time (`1.0 × dt'` is exact).
pub fn reference(workload: Workload, deck: &Arc<String>, shape: Shape) -> Reference {
    let deck = Arc::clone(deck);
    let global = Extent::whole([shape.grid; 3]);
    let with_png = workload == Workload::RenderInsitu;
    World::run(1, move |comm| {
        let config = SimConfig {
            grid: [shape.grid; 3],
            dt: (shape.steps - 1) as f64 * DT,
            steps: 2,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(comm, config, Some(&deck));
        sim.step_naive(comm);
        let first_field = block_digest(&global, &global, &sim.field());
        if shape.steps > 1 {
            sim.step_naive(comm);
        }
        let field = sim.field();
        let catalyst_png = with_png.then(|| {
            let mut grid = ImageData::new(global, global);
            grid.add_point_array(DataArray::shared("data", 1, Arc::clone(&field)));
            let pipeline = SlicePipeline::new("data", SLICE_AXIS, (shape.grid / 2) as i64);
            let mut analysis = CatalystSliceAnalysis::new(pipeline);
            analysis.execute(&InMemoryAdaptor::new(DataSet::Image(grid), 0.0, 0), comm);
            let png = analysis.png_handle().lock().clone().unwrap_or_default();
            bytes_digest(&png)
        });
        Reference {
            first_field,
            final_field: block_digest(&global, &global, &field),
            histogram: recount(&field, shape.steps as u64),
            catalyst_png,
        }
    })
    .pop()
    .expect("one rank")
}

/// Compare one child's digest with the reference; returns what differs.
pub fn compare(workload: Workload, reference: &Reference, digest: &Digest) -> Vec<String> {
    let mut errors = digest.local_errors.clone();
    if digest.field != reference.final_field {
        errors.push("final field differs from the one-rank step_naive reference".to_string());
    }
    if matches!(workload, Workload::StatsInsitu | Workload::IntransitStaging)
        && digest.histogram.as_ref() != Some(&reference.histogram)
    {
        errors.push("histogram differs from the recount of the reference field".to_string());
    }
    if workload == Workload::RenderInsitu && digest.catalyst_png != reference.catalyst_png {
        errors.push("Catalyst PNG differs from the one-rank render".to_string());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::partition_extent;

    #[test]
    fn block_digest_is_independent_of_the_split() {
        let global = Extent::whole([9, 7, 5]);
        let value = |p: [i64; 3]| (p[0] * 100 + p[1] * 10 + p[2]) as f64 * 0.5;
        let whole: Vec<f64> = global.iter_points().map(value).collect();
        let want = block_digest(&global, &global, &whole);
        for dims in [[2, 1, 1], [1, 3, 1], [2, 2, 2]] {
            let mut got = 0u64;
            for rank in 0..dims.iter().product() {
                let local = partition_extent(&global, dims, rank);
                let values: Vec<f64> = local.iter_points().map(value).collect();
                got = got.wrapping_add(block_digest(&local, &global, &values));
            }
            assert_eq!(got, want, "{dims:?}");
        }
        let mut changed = whole.clone();
        changed[17] = -changed[17];
        assert_ne!(block_digest(&global, &global, &changed), want);
    }

    #[test]
    fn recount_fills_every_point_into_a_bin() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = recount(&values, 3);
        assert_eq!((h.min, h.max, h.step), (0.0, 999.0, 3));
        assert_eq!(h.counts.iter().sum::<u64>(), 1000);
        assert_eq!(h.counts.len(), BINS);
    }
}
