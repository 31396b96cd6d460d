//! Alibaba-cluster-trace-shaped utilization traces.
//!
//! The paper drives its evaluation with the Alibaba cluster trace
//! (cluster-trace-v2017: ~1.3 k machines, 12 hours of container CPU
//! utilization). The trace is not redistributable inside this repository,
//! so we provide two equivalent inputs (DESIGN.md, substitution table):
//!
//! [`UtilizationTrace::synthesize`] is a generator matched to the
//! published statistics of the trace: mean CPU utilization in the
//! 30–40 % band, a mild intra-day (half-diurnal) swing across the 12 h
//! window, AR(1)-correlated noise, heavy-tailed per-machine baselines,
//! and occasional correlated bursts.
//!
//! The output is the cluster-aggregate
//! utilization as a step function of time, which the normal-user model
//! turns into a request arrival rate.

use simcore::rng::SimRng;
use simcore::{SimDuration, SimTime};

/// Configuration for the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct AlibabaTraceConfig {
    /// Number of machines aggregated.
    pub machines: usize,
    /// Total trace span.
    pub duration: SimDuration,
    /// Sampling interval.
    pub interval: SimDuration,
    /// Cluster mean utilization target, `(0, 1)`.
    pub mean_util: f64,
    /// Peak-to-mean swing of the intra-day pattern, e.g. 0.35.
    pub diurnal_amplitude: f64,
    /// AR(1) coefficient of the per-interval noise, `[0, 1)`.
    pub noise_ar1: f64,
    /// Std-dev of the noise innovations.
    pub noise_sigma: f64,
    /// Per-interval probability of a correlated burst.
    pub burst_prob: f64,
    /// Multiplicative burst magnitude (added fraction of mean).
    pub burst_magnitude: f64,
    /// Master seed.
    pub seed: u64,
}

impl AlibabaTraceConfig {
    /// The paper's setting: 1.3 k machines over 12 hours, 30 s samples.
    #[cfg(test)]
    pub(crate) fn paper_default() -> Self {
        AlibabaTraceConfig {
            machines: 1300,
            duration: SimDuration::from_secs(12 * 3600),
            interval: SimDuration::from_secs(30),
            mean_util: 0.35,
            diurnal_amplitude: 0.35,
            noise_ar1: 0.8,
            noise_sigma: 0.03,
            burst_prob: 0.01,
            burst_magnitude: 0.25,
            seed: 2019,
        }
    }

    /// A small, fast variant for unit tests and examples: 40 machines,
    /// 10 minutes, 1 s samples.
    pub fn small(seed: u64) -> Self {
        AlibabaTraceConfig {
            machines: 40,
            duration: SimDuration::from_secs(600),
            interval: SimDuration::from_secs(1),
            mean_util: 0.35,
            diurnal_amplitude: 0.3,
            noise_ar1: 0.7,
            noise_sigma: 0.04,
            burst_prob: 0.02,
            burst_magnitude: 0.3,
            seed,
        }
    }
}

/// A cluster-aggregate utilization step function in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct UtilizationTrace {
    interval: SimDuration,
    values: Vec<f64>,
    /// The interval read last, as `[from, to)` µs, and its value: a
    /// forward-moving clock reads one interval many times in a row.
    current: (u64, u64, f64),
}

impl UtilizationTrace {
    /// Wrap raw interval values (each clamped into `[0, 1]`).
    #[cfg(test)]
    pub(crate) fn from_values(interval: SimDuration, values: Vec<f64>) -> Self {
        assert!(!interval.is_zero() && !values.is_empty());
        Self::new(
            interval,
            values.into_iter().map(|v| v.clamp(0.0, 1.0)).collect(),
        )
    }

    fn new(interval: SimDuration, values: Vec<f64>) -> Self {
        UtilizationTrace {
            interval,
            current: (0, interval.as_micros(), values[0]),
            values,
        }
    }

    /// Generate a synthetic trace with the published Alibaba shape.
    pub fn synthesize(config: &AlibabaTraceConfig) -> Self {
        let intervals = (config.duration / config.interval).max(1) as usize;
        let mut rng = SimRng::new(config.seed);

        // Heavy-tailed per-machine baselines around the target mean:
        // most machines modest, a few hot (log-normal, then rescaled).
        let mut baselines: Vec<f64> = (0..config.machines)
            .map(|_| (0.25 * rng.standard_normal()).exp())
            .collect();
        let base_mean: f64 = baselines.iter().sum::<f64>() / baselines.len() as f64;
        for b in &mut baselines {
            *b *= config.mean_util / base_mean;
        }

        // Cluster-level AR(1) noise and bursts (correlated across
        // machines — load is driven by shared external demand).
        let mut values = Vec::with_capacity(intervals);
        let mut noise = 0.0f64;
        let mut burst_left = 0usize;
        for i in 0..intervals {
            let phase = i as f64 / intervals as f64;
            // Half a diurnal cycle over a 12 h window: trough → peak.
            let diurnal = 1.0 + config.diurnal_amplitude * (std::f64::consts::PI * phase).sin();
            noise = config.noise_ar1 * noise + config.noise_sigma * rng.standard_normal();
            if burst_left == 0 && rng.unit_f64() < config.burst_prob {
                burst_left = 2 + rng.below(8) as usize;
            }
            let burst = if burst_left > 0 {
                burst_left -= 1;
                config.burst_magnitude
            } else {
                0.0
            };
            let mean_machine: f64 = baselines.iter().sum::<f64>() / baselines.len() as f64;
            let util = mean_machine * diurnal * (1.0 + noise + burst);
            values.push(util.clamp(0.0, 1.0));
        }
        Self::new(config.interval, values)
    }

    /// Number of intervals.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Total span covered.
    #[cfg(test)]
    pub(crate) fn duration(&self) -> SimDuration {
        self.interval * self.values.len() as u64
    }

    /// Utilization at time `t` (wraps around for simulations longer than
    /// the trace — a 12 h trace tiles a multi-day run). A time inside the
    /// interval read last costs two comparisons; any other time, two
    /// divisions.
    pub(crate) fn value_at(&mut self, t: SimTime) -> f64 {
        let us = t.as_micros();
        let (from, to, value) = self.current;
        if from <= us && us < to {
            return value;
        }
        let step = self.interval.as_micros();
        let k = us / step;
        let from = k * step;
        let value = self.values[k as usize % self.values.len()];
        self.current = (from, from.saturating_add(step), value);
        value
    }

    /// Trace mean.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Trace peak.
    #[cfg(test)]
    pub(crate) fn peak(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }

    /// Raw values (read-only).
    #[cfg(test)]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_mean_matches_target() {
        let t = UtilizationTrace::synthesize(&AlibabaTraceConfig::paper_default());
        assert_eq!(t.len(), 1440);
        let mean = t.mean();
        // Diurnal factor averages ~1 + 2A/π; verify the mean lands in the
        // published 30–50 % band.
        assert!((0.30..=0.50).contains(&mean), "mean={mean}");
        assert!(t.peak() <= 1.0);
        assert!(t.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = UtilizationTrace::synthesize(&AlibabaTraceConfig::small(7));
        let b = UtilizationTrace::synthesize(&AlibabaTraceConfig::small(7));
        assert_eq!(a.values(), b.values());
        let c = UtilizationTrace::synthesize(&AlibabaTraceConfig::small(8));
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn diurnal_shape_present() {
        let t = UtilizationTrace::synthesize(&AlibabaTraceConfig::paper_default());
        // Mid-trace (phase π/2) should on average exceed the edges.
        let n = t.len();
        let edge: f64 = t.values()[..n / 8].iter().sum::<f64>() / (n / 8) as f64;
        let mid: f64 =
            t.values()[3 * n / 8..5 * n / 8].iter().sum::<f64>() / (n / 4) as f64;
        assert!(mid > edge * 1.1, "mid={mid} edge={edge}");
    }

    #[test]
    fn synthetic_noise_is_temporally_correlated() {
        // DESIGN.md claims the generator matches the trace's
        // autocorrelation (AR(1) noise): verify lag-1 autocorrelation of
        // the detrended series is strongly positive and decays by lag 8.
        let t = UtilizationTrace::synthesize(&AlibabaTraceConfig::paper_default());
        let v = t.values();
        let n = v.len();
        // Detrend with a centered moving average (kills the diurnal).
        let w = 31;
        let detrended: Vec<f64> = (w..n - w)
            .map(|i| {
                let local: f64 = v[i - w..=i + w].iter().sum::<f64>() / (2 * w + 1) as f64;
                v[i] - local
            })
            .collect();
        let mean = detrended.iter().sum::<f64>() / detrended.len() as f64;
        let var: f64 = detrended.iter().map(|x| (x - mean).powi(2)).sum();
        let acf = |lag: usize| -> f64 {
            let m = detrended.len() - lag;
            let cov: f64 = (0..m)
                .map(|i| (detrended[i] - mean) * (detrended[i + lag] - mean))
                .sum();
            cov / var
        };
        let r1 = acf(1);
        let r8 = acf(8);
        assert!(r1 > 0.4, "lag-1 autocorrelation too weak: {r1}");
        assert!(r8 < r1, "autocorrelation must decay: r1={r1} r8={r8}");
    }

    #[test]
    fn value_at_wraps() {
        let mut tr = UtilizationTrace::from_values(
            SimDuration::from_secs(10),
            vec![0.1, 0.2, 0.3],
        );
        assert_eq!(tr.value_at(SimTime::from_secs(0)), 0.1);
        assert_eq!(tr.value_at(SimTime::from_secs(15)), 0.2);
        assert_eq!(tr.value_at(SimTime::from_secs(29)), 0.3);
        assert_eq!(tr.value_at(SimTime::from_secs(30)), 0.1); // wrap
        assert_eq!(tr.duration(), SimDuration::from_secs(30));
    }

    #[test]
    fn cached_interval_matches_a_fresh_lookup() {
        // Forward runs inside one interval, jumps forward and back, wraps
        // and the last representable instant: every read equals the
        // division formula.
        let mut tr = UtilizationTrace::from_values(
            SimDuration::from_millis(7),
            (0..13).map(|i| f64::from(i) / 13.0).collect(),
        );
        let step = 7_000u64;
        let fresh = |us: u64| (us / step) as usize % 13;
        let mut rng = SimRng::new(3);
        let mut us = 0u64;
        for k in 0..20_000u64 {
            us = match k % 100 {
                0 => rng.below(1 << 40),
                1 => us.saturating_sub(rng.below(3 * step)),
                2 => u64::MAX - rng.below(2 * step),
                _ => us.saturating_add(rng.below(step / 3)),
            };
            let want = tr.values()[fresh(us)];
            assert_eq!(tr.value_at(SimTime::from_micros(us)), want, "at {us} µs");
        }
    }

    #[test]
    fn from_values_clamps() {
        let tr = UtilizationTrace::from_values(SimDuration::from_secs(1), vec![-0.5, 1.5]);
        assert_eq!(tr.values(), &[0.0, 1.0]);
    }
}
