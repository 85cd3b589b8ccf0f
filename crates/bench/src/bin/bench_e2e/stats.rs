//! Order statistics over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance driver
//! computes from the same values; keeping the two identical means the spread
//! this tool prints is the spread the driver judges.

/// Sorted copy of `values` (NaNs would poison every statistic; the harness
/// never produces them, and they sort last if it ever does).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)` by the exclusive method; both equal the single value (or 0)
/// when fewer than two samples exist.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// every bound is compared against. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / med).abs()
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, so the reported tail is never one outlier; `None`
/// when even p75 does not (fewer than 40 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In per-mille, so that 100 samples at p90 are exactly ten beyond it.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Summary of one timing distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    /// `(percentile, value)` of [`highest_supported_percentile`].
    pub tail: Option<(f64, f64)>,
    pub sum: f64,
}

impl Dist {
    pub fn of(values: &[f64]) -> Dist {
        let v = sorted(values);
        Dist {
            n: v.len(),
            p50: percentile(&v, 50.0),
            p95: percentile(&v, 95.0),
            tail: highest_supported_percentile(v.len()).map(|p| (p, percentile(&v, p))),
            sum: v.iter().sum(),
        }
    }
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        let d = Dist::of(&(1..=200).map(f64::from).collect::<Vec<_>>());
        assert_eq!((d.n, d.p50, d.p95), (200, 100.0, 190.0));
        assert_eq!(d.tail, Some((95.0, 190.0)));
    }
}
