//! Order statistics used for every timing the benchmark reports.

/// Median of `values` (mean of the two middle samples for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond
/// it, as `(value, percentile)`. With fewer than 2 × `TAIL_BEYOND` + 1
/// samples no percentile above the median qualifies, and the median is
/// returned (percentile 50).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    if n < 2 * TAIL_BEYOND + 1 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Exactly TAIL_BEYOND samples are larger than v[n - 1 - TAIL_BEYOND].
    let idx = n - 1 - TAIL_BEYOND;
    (v[idx], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
}

/// Arithmetic mean (zero when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled deterministically so the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.rotate_left(n / 3);
        v
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&ramp(21)), 11.0);
        assert_eq!(median(&ramp(41)), 21.0);
        assert_eq!(median(&ramp(5000)), 2500.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in [21usize, 41, 5000] {
            let v = ramp(n);
            let (value, pct) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert!((pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
        // n = 21 -> p52, n = 41 -> p75, n = 5000 -> p99.8.
        assert_eq!(tail(&ramp(21)).0, 11.0);
        assert_eq!(tail(&ramp(41)).0, 31.0);
        assert_eq!(tail(&ramp(5000)).0, 4990.0);
        assert!((tail(&ramp(41)).1 - 75.6).abs() < 0.1);
        assert!((tail(&ramp(5000)).1 - 99.8).abs() < 1e-9);
    }

    #[test]
    fn tail_of_few_samples_is_the_median() {
        assert_eq!(tail(&ramp(5)), (3.0, 50.0));
        assert_eq!(tail(&ramp(20)), (10.5, 50.0));
    }
}
