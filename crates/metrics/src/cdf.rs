//! Exact empirical CDFs.
//!
//! The paper plots power CDFs constantly (Figs 4b, 5a, 10). Sample counts
//! there are modest (one reading per second over minutes), so exact CDFs
//! from stored samples are affordable and avoid binning artifacts in the
//! plots the harness regenerates.


/// An exact empirical cumulative distribution function.
///
/// Samples are accumulated unsorted; the CDF is materialized lazily on
/// first query and invalidated on the next insert.
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Ecdf {
    /// Empty CDF.
    pub(crate) fn new() -> Self {
        Ecdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Build directly from samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut e = Ecdf::new();
        for s in samples {
            e.record(s);
        }
        e
    }

    /// Add a sample. Panics on non-finite input.
    pub(crate) fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample: {x}");
        self.samples.push(x);
        self.sorted = false;
    }

    /// True when empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// `P(X <= x)`: fraction of samples at or below `x`.
    pub(crate) fn cdf(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        // partition_point gives the count of samples <= x.
        let cnt = self.samples.partition_point(|&s| s <= x);
        cnt as f64 / self.samples.len() as f64
    }

    /// Evaluate the CDF on `points` evenly spaced values across
    /// `[lo, hi]`, returning `(x, P(X<=x))` pairs — the series the
    /// experiment harness prints for every CDF figure.
    pub fn curve(&mut self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2 && hi > lo);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.cdf(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_cdf_is_zero() {
        let mut e = Ecdf::new();
        assert_eq!(e.cdf(10.0), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn simple_fractions() {
        let mut e = Ecdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn duplicates_handled() {
        let mut e = Ecdf::from_samples([5.0, 5.0, 5.0]);
        assert_eq!(e.cdf(4.9), 0.0);
        assert_eq!(e.cdf(5.0), 1.0);
    }

    #[test]
    fn interleaved_insert_query() {
        let mut e = Ecdf::new();
        e.record(2.0);
        assert_eq!(e.cdf(2.0), 1.0);
        e.record(1.0);
        assert_eq!(e.cdf(1.5), 0.5);
        e.record(3.0);
        assert!((e.cdf(2.5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_and_bounded() {
        let mut e = Ecdf::from_samples((1..=100).map(|i| i as f64));
        let curve = e.curve(0.0, 120.0, 25);
        assert_eq!(curve.len(), 25);
        let mut prev = -1.0;
        for &(_, p) in &curve {
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev);
            prev = p;
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(xs in proptest::collection::vec(-100f64..100.0, 1..200),
                             probes in proptest::collection::vec(-150f64..150.0, 2..20)) {
            let mut e = Ecdf::from_samples(xs);
            let mut sorted_probes = probes.clone();
            sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for &p in &sorted_probes {
                let v = e.cdf(p);
                prop_assert!(v >= prev);
                prop_assert!((0.0..=1.0).contains(&v));
                prev = v;
            }
        }
    }
}
