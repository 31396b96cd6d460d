//! Time-stamped series and time-weighted step functions.
//!
//! Two recorders:
//!
//! * [`TimeSeries`] — plain `(t, value)` samples, for plotting traces
//!   (Fig 3 power profiles, Fig 18 battery capacity).
//! * `TimeWeighted` — a right-continuous step function with exact
//!   time-weighted integrals. Server power is a step
//!   function of simulation events (arrivals, completions, DVFS
//!   transitions), so integrating it exactly — rather than sampling —
//!   makes energy accounting immune to the sampling interval.

use simcore::SimTime;

/// A plain time-stamped sample series (append-only, non-decreasing time).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a sample. Panics if `t` precedes the last sample.
    pub fn record(&mut self, t: SimTime, value: f64) {
        assert!(value.is_finite(), "non-finite sample: {value}");
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time went backwards: {t} < {last}");
        }
        self.points.push((t, value));
    }

    /// Number of samples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Largest sample value.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Smallest sample value.
    pub fn min_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Downsample to at most `max_points` by keeping every k-th sample
    /// (always keeping the last). Used when exporting long traces to CSV.
    pub fn thin(&self, max_points: usize) -> Vec<(SimTime, f64)> {
        assert!(max_points >= 2);
        let n = self.points.len();
        if n <= max_points {
            return self.points.clone();
        }
        let stride = n.div_ceil(max_points);
        let mut out: Vec<_> = self.points.iter().step_by(stride).copied().collect();
        if out.last() != self.points.last() {
            out.push(*self.points.last().expect("non-empty"));
        }
        out
    }
}

/// A right-continuous step function of time with exact integration.
///
/// `set(t, v)` declares that the signal holds value `v` from `t` until the
/// next `set`. Integrals are exact sums of `value × dwell-time`.
#[derive(Debug, Clone)]
pub(crate) struct TimeWeighted {
    current: f64,
    since: SimTime,
    /// Running integral of value·dt in (value-unit × seconds).
    integral: f64,
}

impl TimeWeighted {
    /// Start a step function holding `initial` from time `start`.
    pub(crate) fn new(start: SimTime, initial: f64) -> Self {
        assert!(initial.is_finite());
        TimeWeighted {
            current: initial,
            since: start,
            integral: 0.0,
        }
    }

    /// Change the held value at time `t`. Panics if `t` precedes the last
    /// change.
    pub(crate) fn set(&mut self, t: SimTime, value: f64) {
        assert!(value.is_finite(), "non-finite value: {value}");
        let dwell = t.since(self.since); // panics if time went backwards
        self.integral += self.current * dwell.as_secs_f64();
        self.current = value;
        self.since = t;
    }

    /// Integral of the signal from `start` through `t` (value-unit × s).
    pub(crate) fn integral_until(&self, t: SimTime) -> f64 {
        let dwell = t.since(self.since);
        self.integral + self.current * dwell.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn timeseries_basics() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 1.0);
        ts.record(s(1), 3.0);
        ts.record(s(1), 2.0); // same timestamp is fine
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max_value(), Some(3.0));
        assert_eq!(ts.min_value(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn timeseries_rejects_backwards() {
        let mut ts = TimeSeries::new();
        ts.record(s(2), 1.0);
        ts.record(s(1), 1.0);
    }

    #[test]
    fn thin_keeps_endpoints() {
        let mut ts = TimeSeries::new();
        for i in 0..100 {
            ts.record(s(i), i as f64);
        }
        let thinned = ts.thin(10);
        assert!(thinned.len() <= 11);
        assert_eq!(thinned[0], (s(0), 0.0));
        assert_eq!(*thinned.last().unwrap(), (s(99), 99.0));
    }

    #[test]
    fn thin_noop_when_short() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 1.0);
        assert_eq!(ts.thin(10).len(), 1);
    }

    #[test]
    fn step_integral_exact() {
        let mut tw = TimeWeighted::new(s(0), 100.0);
        tw.set(s(10), 50.0); // 100 W for 10 s = 1000 J
        tw.set(s(30), 200.0); // 50 W for 20 s = 1000 J
        // 200 W for 5 s = 1000 J
        assert!((tw.integral_until(s(35)) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_steps() {
        let mut tw = TimeWeighted::new(s(0), 5.0);
        tw.set(s(0), 7.0); // instantaneous re-set at the same instant
        tw.set(s(1), 0.0);
        assert!((tw.integral_until(s(1)) - 7.0).abs() < 1e-9);
    }
}
