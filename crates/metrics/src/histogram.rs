//! Log-binned latency histogram with bounded relative error.
//!
//! Latency distributions in the paper span three orders of magnitude
//! (sub-millisecond service times to multi-hundred-millisecond throttled
//! tails), so a linear-bin histogram is either huge or inaccurate at one
//! end. We use geometric bins: values in `[min_value, max_value]` are
//! mapped to `bins_per_decade` logarithmic buckets per factor-of-ten,
//! giving a constant relative quantile error of about
//! `10^(1/bins_per_decade) - 1` (≈ 3.6 % with the default 64/decade).

use crate::summary::OnlineSummary;

/// Streaming histogram over positive values with geometric bins.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    min_value: f64,
    bins_per_decade: f64,
    counts: Vec<u64>,
    underflow: u64,
    summary: OnlineSummary,
}

impl LatencyHistogram {
    /// Histogram for values in `[min_value, max_value]` with
    /// `bins_per_decade` buckets per decade. Values below `min_value`
    /// count in a dedicated underflow bucket (reported as `min_value`);
    /// values above `max_value` clamp to the last bucket.
    pub(crate) fn new(min_value: f64, max_value: f64, bins_per_decade: u32) -> Self {
        assert!(min_value > 0.0 && max_value > min_value);
        assert!(bins_per_decade > 0);
        let decades = (max_value / min_value).log10();
        let nbins = (decades * bins_per_decade as f64).ceil() as usize + 1;
        LatencyHistogram {
            min_value,
            bins_per_decade: bins_per_decade as f64,
            counts: vec![0; nbins],
            underflow: 0,
            summary: OnlineSummary::new(),
        }
    }

    /// A histogram suited to response times in seconds: 10 µs – 1000 s.
    pub fn for_latency_secs() -> Self {
        LatencyHistogram::new(1e-5, 1e3, 64)
    }

    #[inline]
    fn bin_of(&self, x: f64) -> Option<usize> {
        if x < self.min_value {
            return None;
        }
        let idx = ((x / self.min_value).log10() * self.bins_per_decade) as usize;
        Some(idx.min(self.counts.len() - 1))
    }

    #[inline]
    fn bin_value(&self, idx: usize) -> f64 {
        // Geometric midpoint of the bucket.
        self.min_value * 10f64.powf((idx as f64 + 0.5) / self.bins_per_decade)
    }

    /// Record one sample. Panics on non-finite or negative values.
    pub fn record(&mut self, x: f64) {
        self.record_bin(x);
        self.summary.record(x);
    }

    /// Record one sample in the bins only, for a caller that keeps the
    /// exact-moments summary itself and installs it with
    /// [`Self::set_summary`] before reading anything but the bins.
    /// Panics on non-finite or negative values.
    pub fn record_bin(&mut self, x: f64) {
        assert!(x.is_finite() && x >= 0.0, "invalid histogram sample: {x}");
        match self.bin_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Replace the exact-moments summary wholesale, keeping the bin
    /// counts. The sharded cluster engine merges per-shard histograms
    /// (bin counts are `u64` sums, associative in any order) but folds
    /// the floating-point summary separately in a fixed global node
    /// order so reports stay byte-identical across shard layouts; this
    /// installs that canonical fold. The caller must pass a summary
    /// describing exactly the samples in the bins.
    pub fn set_summary(&mut self, summary: OnlineSummary) {
        debug_assert_eq!(
            summary.count(),
            self.counts.iter().sum::<u64>() + self.underflow,
            "summary does not describe the binned samples"
        );
        self.summary = summary;
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "geometry mismatch");
        assert_eq!(self.min_value, other.min_value, "geometry mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.summary.merge(&other.summary);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean of all recorded samples (tracked outside the bins).
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Exact minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.summary.min()
    }

    /// Exact maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.summary.max()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), approximated to the bucket's
    /// relative error. Returns `None` when empty.
    ///
    /// Quantiles are clamped to the exact observed `[min, max]` so that
    /// e.g. `quantile(1.0)` never exceeds the true maximum.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let n = self.count();
        if n == 0 {
            return None;
        }
        // Rank of the target sample, 1-based, nearest-rank definition.
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        let raw = if rank <= seen {
            self.min_value
        } else {
            let mut val = self.bin_value(self.counts.len() - 1);
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    val = self.bin_value(i);
                    break;
                }
            }
            val
        };
        let (lo, hi) = self.summary.min().zip(self.summary.max())?;
        Some(raw.clamp(lo, hi))
    }

    /// Median shorthand.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 90th / 95th / 99th percentile shorthands used throughout the paper.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }
    /// 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }
    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Iterate non-empty buckets as `(representative_value, count)`.
    #[cfg(test)]
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let under = (self.underflow > 0).then_some((self.min_value, self.underflow));
        under.into_iter().chain(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (self.bin_value(i), c)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::for_latency_secs();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::for_latency_secs();
        h.record(0.1);
        assert_eq!(h.count(), 1);
        let m = h.median().unwrap();
        assert!((m - 0.1).abs() / 0.1 < 0.05, "median {m}");
        // Clamping makes extreme quantiles exact.
        assert_eq!(h.quantile(1.0), Some(0.1));
        assert_eq!(h.quantile(0.0), Some(0.1));
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LatencyHistogram::new(1e-3, 1e3, 64);
        let mut values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-3).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let approx = h.quantile(q).unwrap();
            let exact = exact_quantile(&values, q);
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.05, "q={q}: approx={approx} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn underflow_counted() {
        let mut h = LatencyHistogram::new(1.0, 100.0, 16);
        h.record(0.01);
        h.record(50.0);
        assert_eq!(h.count(), 2);
        // Rank 1 lands in the underflow bucket, which is reported at the
        // histogram floor (min_value), the documented resolution limit.
        assert_eq!(h.quantile(0.25), Some(1.0));
        // The exact minimum is still tracked outside the bins.
        assert_eq!(h.min(), Some(0.01));
    }

    #[test]
    fn overflow_clamps() {
        let mut h = LatencyHistogram::new(1.0, 10.0, 16);
        h.record(1e6);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(1e6));
        // Bucket value is clamped up to the observed max.
        assert_eq!(h.quantile(1.0), Some(1e6));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::for_latency_secs();
        for v in [0.010, 0.020, 0.030] {
            h.record(v);
        }
        assert!((h.mean() - 0.020).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_combined() {
        let mut a = LatencyHistogram::for_latency_secs();
        let mut b = LatencyHistogram::for_latency_secs();
        let mut c = LatencyHistogram::for_latency_secs();
        for i in 1..=100 {
            let v = i as f64 * 1e-3;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.quantile(0.9), c.quantile(0.9));
        assert!((a.mean() - c.mean()).abs() < 1e-12);
    }

    #[test]
    fn buckets_iterate_in_order() {
        let mut h = LatencyHistogram::new(1.0, 1000.0, 8);
        h.record(2.0);
        h.record(200.0);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert!(buckets[0].0 < buckets[1].0);
        assert_eq!(buckets.iter().map(|b| b.1).sum::<u64>(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid histogram sample")]
    fn rejects_negative() {
        LatencyHistogram::for_latency_secs().record(-1.0);
    }

    proptest! {
        #[test]
        fn prop_quantiles_monotone(values in proptest::collection::vec(1e-4f64..1e2, 1..500)) {
            let mut h = LatencyHistogram::for_latency_secs();
            for &v in &values { h.record(v); }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
            let mut prev = f64::NEG_INFINITY;
            for &q in &qs {
                let v = h.quantile(q).unwrap();
                prop_assert!(v >= prev, "quantile({q})={v} < {prev}");
                prev = v;
            }
        }

        #[test]
        fn prop_quantile_relative_error(values in proptest::collection::vec(1e-4f64..1e2, 10..500)) {
            let mut h = LatencyHistogram::for_latency_secs();
            let mut sorted = values.clone();
            for &v in &values { h.record(v); }
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.5, 0.9] {
                let approx = h.quantile(q).unwrap();
                let exact = exact_quantile(&sorted, q);
                prop_assert!((approx - exact).abs() / exact < 0.05,
                    "q={} approx={} exact={}", q, approx, exact);
            }
        }

        #[test]
        fn prop_count_conserved(values in proptest::collection::vec(0f64..1e3, 0..300)) {
            let mut h = LatencyHistogram::new(0.1, 100.0, 16);
            for &v in &values { h.record(v); }
            prop_assert_eq!(h.count(), values.len() as u64);
            let bucket_total: u64 = h.buckets().map(|(_, c)| c).sum();
            prop_assert_eq!(bucket_total, values.len() as u64);
        }
    }
}
