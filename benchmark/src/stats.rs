//! Order statistics used for every reported number.

/// Median (mean of the two middle values for even counts). 0 for no
/// samples, so an idle layer reports 0 rather than aborting the run.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The undisturbed level of a repeated timing: its 10th percentile
/// (nearest rank below). Neighbours on the host only ever slow this
/// machine down, in plateaus of +20–60 % that last seconds to minutes,
/// so the low end of a timing's distribution is what the code costs and
/// the rest is what the neighbours cost; a tenth (not the minimum)
/// keeps a few lucky samples from setting the figure. 0 for no samples.
pub fn undisturbed(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 10]
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the driver applies to
/// ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative or above one when `j` was clamped: Python extrapolates.
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`. With fewer than eleven samples no
/// percentile qualifies and the median is returned as `(50, median)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 11 {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    (100.0 * (k + 1) as f64 / n as f64, v[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn undisturbed_is_the_tenth_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(undisturbed(&v), 11.0);
        // Nine tenths of the samples disturbed: still the quiet level.
        for x in v.iter_mut().skip(11) {
            *x *= 1.5;
        }
        assert_eq!(undisturbed(&v), 11.0);
        assert_eq!(undisturbed(&[3.0, 2.0]), 2.0);
        assert_eq!(undisturbed(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Eleven samples: only the minimum has ten beyond it.
        let (pct, value) = tail(&v[..11]);
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // Too few samples for any tail: the median, labelled as such.
        assert_eq!(tail(&v[..10]), (50.0, 5.5));
    }
}
