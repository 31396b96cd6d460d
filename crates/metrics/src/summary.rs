//! Welford online mean/variance with min/max tracking.


/// Numerically stable streaming summary of a scalar sample stream.
///
/// Uses Welford's algorithm, so the variance stays accurate even when the
/// mean is large relative to the spread (e.g. power readings around 100 W
/// with ±2 W noise).
#[derive(Debug, Clone, Default)]
pub struct OnlineSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineSummary {
    /// Empty summary.
    pub fn new() -> Self {
        OnlineSummary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one sample. Non-finite samples are rejected with a panic:
    /// a NaN entering a power/latency summary means the simulation itself
    /// is broken and must not be silently absorbed.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample: {x}");
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel reduction), using
    /// Chan et al.'s pairwise update.
    pub fn merge(&mut self, other: &OnlineSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (0.0 with fewer than 2 samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Coefficient of variation (std dev / mean); 0 when mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_defaults() {
        let s = OnlineSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineSummary::new();
        s.record(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineSummary::new();
        for &x in &xs {
            s.record(x);
        }
        let (mean, var) = naive_stats(&xs);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 31.0).abs() < 1e-12);
    }

    #[test]
    fn stable_for_large_offset() {
        // Classic catastrophic-cancellation case for the naive formula.
        let mut s = OnlineSummary::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            s.record(x);
        }
        assert!((s.variance() - 22.5).abs() < 1e-6, "var={}", s.variance());
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn rejects_nan() {
        OnlineSummary::new().record(f64::NAN);
    }

    #[test]
    fn cv_zero_mean() {
        let mut s = OnlineSummary::new();
        s.record(1.0);
        s.record(-1.0);
        assert_eq!(s.cv(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_merge_equals_sequential(
            a in proptest::collection::vec(-1e6f64..1e6, 0..50),
            b in proptest::collection::vec(-1e6f64..1e6, 0..50),
        ) {
            let mut merged = OnlineSummary::new();
            let mut left = OnlineSummary::new();
            let mut right = OnlineSummary::new();
            for &x in &a { merged.record(x); left.record(x); }
            for &x in &b { merged.record(x); right.record(x); }
            left.merge(&right);
            prop_assert_eq!(left.count(), merged.count());
            prop_assert!((left.mean() - merged.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - merged.variance()).abs() < 1e-3);
        }

        #[test]
        fn prop_mean_bounded_by_min_max(xs in proptest::collection::vec(-1e9f64..1e9, 1..100)) {
            let mut s = OnlineSummary::new();
            for &x in &xs { s.record(x); }
            let m = s.mean();
            prop_assert!(m >= s.min().unwrap() - 1e-6);
            prop_assert!(m <= s.max().unwrap() + 1e-6);
            prop_assert!(s.variance() >= 0.0);
        }
    }
}
