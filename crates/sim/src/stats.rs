//! Measurement utilities: sample histograms collected under virtual time.

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::SimDuration;

/// A reservoir of raw duration samples with summary statistics.
///
/// Samples are stored exactly (the evaluation microbenchmarks need true
/// percentiles and bimodality detection, not bucketed approximations); a
/// configurable cap bounds memory for very long runs.
///
/// # Examples
///
/// ```
/// use dex_sim::{Histogram, SimDuration};
///
/// let h = Histogram::new();
/// h.record(SimDuration::from_micros(10));
/// h.record(SimDuration::from_micros(30));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean().as_nanos(), 20_000);
/// ```
#[derive(Clone)]
pub struct Histogram {
    inner: Rc<RefCell<HistInner>>,
}

struct HistInner {
    samples: Vec<u64>,
    /// Whether `samples` is currently sorted ascending. Percentile
    /// queries sort in place and set this; `record`
    /// clears it. Avoids the old clone-and-sort on every query.
    sorted: bool,
    cap: usize,
    dropped: u64,
    sum: u128,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a histogram retaining up to 1M raw samples.
    pub fn new() -> Self {
        Self::with_sample_cap(1 << 20)
    }

    /// Creates a histogram retaining at most `cap` raw samples (summary
    /// statistics remain exact; percentiles become approximate past the
    /// cap).
    pub fn with_sample_cap(cap: usize) -> Self {
        Histogram {
            inner: Rc::new(RefCell::new(HistInner {
                samples: Vec::new(),
                sorted: true,
                cap,
                dropped: 0,
                sum: 0,
                count: 0,
                min: u64::MAX,
                max: 0,
            })),
        }
    }

    /// Records one sample.
    pub fn record(&self, d: SimDuration) {
        let n = d.as_nanos();
        let mut inner = self.inner.borrow_mut();
        inner.sum += n as u128;
        inner.count += 1;
        inner.min = inner.min.min(n);
        inner.max = inner.max.max(n);
        if inner.samples.len() < inner.cap {
            // Appending keeps a sorted vector sorted only when the new
            // sample is ≥ the current tail; otherwise the cache goes
            // stale and the next percentile query re-sorts.
            if inner.sorted && inner.samples.last().is_some_and(|&last| n < last) {
                inner.sorted = false;
            }
            inner.samples.push(n);
        } else {
            inner.dropped += 1;
        }
    }

    /// Samples discarded once the retention cap was reached. When this
    /// is non-zero, [`Histogram::percentile`] and
    /// [`Histogram::split_at`] cover only the first `cap` samples;
    /// `count`/`mean`/`min`/`max` remain exact.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.borrow().count
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> SimDuration {
        let inner = self.inner.borrow();
        if inner.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((inner.sum / inner.count as u128) as u64)
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        let inner = self.inner.borrow();
        if inner.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(inner.min)
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.inner.borrow().max)
    }

    /// The `p`-th percentile (0.0–100.0) over retained samples.
    ///
    /// When [`Histogram::dropped`] is non-zero the percentile is
    /// computed over the retained prefix only (the first `cap` samples
    /// recorded), not the full population.
    ///
    /// Sorts the retained samples **in place** the first
    /// time after a record; repeated queries reuse the sorted cache, so
    /// a report that asks for p50/p95/p99 sorts once, not three times.
    pub fn percentile(&self, p: f64) -> SimDuration {
        let mut inner = self.inner.borrow_mut();
        if inner.samples.is_empty() {
            return SimDuration::ZERO;
        }
        if !inner.sorted {
            inner.samples.sort_unstable();
            inner.sorted = true;
        }
        let n = inner.samples.len();
        let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
        SimDuration::from_nanos(inner.samples[rank.min(n - 1)])
    }

    /// Splits samples at `threshold` and returns
    /// `(count_below, mean_below, count_at_or_above, mean_at_or_above)` —
    /// used to report the bimodal fault-handling cost of §V-D.
    pub fn split_at(&self, threshold: SimDuration) -> (u64, SimDuration, u64, SimDuration) {
        let inner = self.inner.borrow();
        let t = threshold.as_nanos();
        let (mut cb, mut sb, mut ca, mut sa) = (0u64, 0u128, 0u64, 0u128);
        for &s in &inner.samples {
            if s < t {
                cb += 1;
                sb += s as u128;
            } else {
                ca += 1;
                sa += s as u128;
            }
        }
        let mean = |sum: u128, count: u64| {
            if count == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos((sum / count as u128) as u64)
            }
        };
        (cb, mean(sb, cb), ca, mean(sa, ca))
    }

    /// A copy of the retained raw samples (nanoseconds). Order is
    /// unspecified: percentile queries may have sorted the reservoir in
    /// place.
    pub fn samples(&self) -> Vec<u64> {
        self.inner.borrow().samples.clone()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
    }

    #[test]
    fn summary_statistics_are_exact() {
        let h = Histogram::new();
        for n in [10, 20, 30, 40] {
            h.record(us(n));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), us(25));
        assert_eq!(h.min(), us(10));
        assert_eq!(h.max(), us(40));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let h = Histogram::new();
        for n in 1..=100 {
            h.record(us(n));
        }
        assert_eq!(h.percentile(0.0), us(1));
        assert_eq!(h.percentile(100.0), us(100));
        let median = h.percentile(50.0).as_nanos();
        assert!((50_000..=51_000).contains(&median), "median {median}");
    }

    #[test]
    fn split_detects_bimodal_distribution() {
        let h = Histogram::new();
        for _ in 0..30 {
            h.record(us(19)); // fast path
        }
        for _ in 0..70 {
            h.record(us(159)); // retry path
        }
        let (fast_n, fast_mean, slow_n, slow_mean) = h.split_at(us(50));
        assert_eq!((fast_n, slow_n), (30, 70));
        assert_eq!(fast_mean, us(19));
        assert_eq!(slow_mean, us(159));
    }

    #[test]
    fn sample_cap_keeps_summary_exact() {
        let h = Histogram::with_sample_cap(10);
        for n in 1..=100 {
            h.record(us(n));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), SimDuration::from_nanos(50_500));
        assert_eq!(h.samples().len(), 10);
        assert_eq!(h.dropped(), 90);
    }

    #[test]
    fn percentile_cache_invalidates_on_record() {
        let h = Histogram::new();
        for n in [30, 10, 20] {
            h.record(us(n));
        }
        assert_eq!(h.percentile(100.0), us(30));
        // A new minimum after a sorted query must be observed.
        h.record(us(1));
        assert_eq!(h.percentile(0.0), us(1));
        assert_eq!(h.percentile(100.0), us(30));
        // An in-order append keeps the cache valid; still correct.
        h.record(us(40));
        assert_eq!(h.percentile(100.0), us(40));
    }
}
