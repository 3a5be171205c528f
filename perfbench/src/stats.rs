//! Order statistics over timing samples.

/// Percentiles a report may name, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Sort ascending; infinities (failed operations) sort last.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank percentile `p` (0-100] of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// offset keeps `99.99% of 100000` from rounding up past 99990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-7).ceil() as usize).clamp(1, n)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

/// The highest percentile of the ladder with at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Mean of the samples between the first and third quartiles (by
/// nearest rank), or 0 for no samples.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let xs = sorted(xs.to_vec());
    let mid = &xs[rank(xs.len(), 25.0) - 1..rank(xs.len(), 75.0)];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(50_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_sort_beyond_every_finite_sample() {
        let xs = sorted(vec![f64::INFINITY, 2.0, 1.0, f64::INFINITY]);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), f64::INFINITY);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        // Ranks 2..=6 of 8 stay: 1, 2, 3, 4, 5.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.0
        );
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
