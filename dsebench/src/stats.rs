//! Percentile math and per-slice medians.

/// Tail percentiles the report may name, highest first.
const TAILS: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // Integer hundredths of a percent, so 99.9 % of 10,000 is exactly 9,990.
    let q = (q * 100.0).round() as usize;
    (q * n).div_ceil(10_000).clamp(1, n)
}

/// The nearest-rank percentile `q` of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Quantile `p` (0 to 1) of unsorted values, interpolating linearly
/// between the two nearest ranks.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of unsorted values (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the middle half of unsorted values: robust to outliers
/// like a median, but it keeps every digit of the samples it averages.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    let middle = &v[lo..hi];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Latency samples split into equal time slices of the measured window, so
/// that a burst of host interference spoils a slice instead of the run.
#[derive(Debug, Clone)]
pub struct Sliced {
    slices: Vec<Vec<f64>>,
}

impl Sliced {
    pub fn new(slices: usize) -> Sliced {
        Sliced {
            slices: vec![Vec::new(); slices],
        }
    }

    pub fn push(&mut self, slice: usize, value: f64) {
        self.slices[slice].push(value);
    }

    /// Samples over all slices.
    pub fn count(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Samples in the smallest slice (the count each per-slice percentile
    /// rests on, at least).
    pub fn min_slice(&self) -> usize {
        self.slices.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Percentile `q` of each non-empty slice, in slice order.
    pub fn per_slice(&self, q: f64) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let mut s = s.clone();
                s.sort_by(f64::total_cmp);
                percentile(&s, q)
            })
            .collect()
    }

    /// The median over non-empty slices of the per-slice percentile `q`,
    /// or `None` when no slice has samples. A tail the program adds in
    /// most seconds shows; a burst of host interference confined to a
    /// few seconds does not.
    pub fn median_across_slices(&self, q: f64) -> Option<f64> {
        let per_slice = self.per_slice(q);
        (!per_slice.is_empty()).then(|| median(&per_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_distribution() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 99.9), 999.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
    }

    #[test]
    fn highest_tail_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(999), Some(95.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert_eq!(highest_tail(100_000), Some(99.99));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(20), Some(50.0));
        assert_eq!(highest_tail(19), None);
        for n in [20, 57, 999, 1000, 4321, 10_000, 123_456] {
            let q = highest_tail(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn sliced_median_shows_a_tail_in_most_slices() {
        let mut s = Sliced::new(5);
        for slice in 0..5 {
            for i in 1..=1000 {
                // Slices 0, 2 and 4 carry a slow 2% tail.
                let slow = slice % 2 == 0 && i > 980;
                s.push(slice, if slow { 5000.0 } else { f64::from(i) });
            }
        }
        assert_eq!(s.median_across_slices(99.0), Some(5000.0));
        assert_eq!(s.median_across_slices(50.0), Some(500.0));
    }

    #[test]
    fn sliced_median_ignores_one_bad_slice() {
        let mut s = Sliced::new(5);
        for slice in 0..5 {
            for i in 1..=1000 {
                let spike = if slice == 2 { 100.0 } else { 1.0 };
                s.push(slice, f64::from(i) * spike);
            }
        }
        assert_eq!(s.count(), 5000);
        assert_eq!(s.min_slice(), 1000);
        assert_eq!(s.median_across_slices(99.0), Some(990.0));
        assert_eq!(s.median_across_slices(50.0), Some(500.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.25), 20.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 1000.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }
}
