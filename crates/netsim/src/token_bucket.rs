//! Token buckets: classic packets-per-second, and the paper's
//! power-denominated variant.
//!
//! The `Token` baseline (Table 2) is "a modified network traffic
//! controlling algorithm to ensure power limits": tokens refill at the
//! *power budget* (joules per second) and each admitted request consumes
//! its estimated energy. When an attack inflates per-request energy, the
//! bucket starves and the NLB sheds load — which holds power but, as the
//! paper observes, "abandons more than 60 % of the packages".

use crate::error::ConfigError;
use simcore::SimTime;

/// Classic token bucket: `rate` tokens/s refill, capacity `burst`.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: SimTime,
    admitted: u64,
    denied: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/s with capacity `burst`,
    /// starting full. Panics on out-of-range parameters; use
    /// [`TokenBucket::try_new`] to handle them as errors.
    #[cfg(test)]
    pub(crate) fn new(start: SimTime, rate: f64, burst: f64) -> Self {
        Self::try_new(start, rate, burst).expect("invalid TokenBucket parameters")
    }

    /// Fallible constructor: rejects non-positive or non-finite rate and
    /// burst with a typed [`ConfigError`].
    pub(crate) fn try_new(start: SimTime, rate: f64, burst: f64) -> Result<Self, ConfigError> {
        for (field, value) in [("rate", rate), ("burst", burst)] {
            if value <= 0.0 || !value.is_finite() {
                return Err(ConfigError::Parameter {
                    component: "TokenBucket",
                    field,
                    value,
                });
            }
        }
        Ok(TokenBucket {
            rate,
            burst,
            tokens: burst,
            last_refill: start,
            admitted: 0,
            denied: 0,
        })
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
    }

    /// Try to take `cost` tokens at `now`.
    pub(crate) fn try_consume(&mut self, now: SimTime, cost: f64) -> bool {
        assert!(cost >= 0.0);
        self.refill(now);
        if self.tokens >= cost {
            self.tokens -= cost;
            self.admitted += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub(crate) fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Requests admitted so far.
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests denied so far.
    pub(crate) fn denied(&self) -> u64 {
        self.denied
    }

    /// Fraction of offered requests denied.
    pub(crate) fn denial_rate(&self) -> f64 {
        let total = self.admitted + self.denied;
        if total == 0 {
            0.0
        } else {
            self.denied as f64 / total as f64
        }
    }
}

/// Power-denominated token bucket: tokens are joules; each request's cost
/// is its estimated energy at the node.
///
/// The refill rate is the *dynamic* power budget: supply minus the idle
/// floor the cluster burns regardless of admission decisions.
#[derive(Debug, Clone)]
pub struct PowerTokenBucket {
    inner: TokenBucket,
}

impl PowerTokenBucket {
    /// Bucket refilling at `dynamic_budget_w` joules/s, able to burst one
    /// `burst_seconds`-worth of budget. Panics on out-of-range
    /// parameters; use `PowerTokenBucket::try_new` to handle them.
    pub fn new(start: SimTime, dynamic_budget_w: f64, burst_seconds: f64) -> Self {
        Self::try_new(start, dynamic_budget_w, burst_seconds)
            .expect("invalid PowerTokenBucket parameters")
    }

    /// Fallible constructor: rejects non-positive budget or burst window.
    pub(crate) fn try_new(
        start: SimTime,
        dynamic_budget_w: f64,
        burst_seconds: f64,
    ) -> Result<Self, ConfigError> {
        if burst_seconds <= 0.0 || !burst_seconds.is_finite() {
            return Err(ConfigError::Parameter {
                component: "PowerTokenBucket",
                field: "burst_seconds",
                value: burst_seconds,
            });
        }
        Ok(PowerTokenBucket {
            inner: TokenBucket::try_new(start, dynamic_budget_w, dynamic_budget_w * burst_seconds)?,
        })
    }

    /// Admit a request whose execution is estimated to cost
    /// `energy_estimate_j` joules of dynamic energy.
    pub fn admit(&mut self, now: SimTime, energy_estimate_j: f64) -> bool {
        self.inner.try_consume(now, energy_estimate_j)
    }

    /// Fraction of offered requests denied — the paper's ">60 % of
    /// packages abandoned" metric for the Token baseline.
    pub fn denial_rate(&self) -> f64 {
        self.inner.denial_rate()
    }

    /// Joules currently banked.
    pub fn available_j(&mut self, now: SimTime) -> f64 {
        self.inner.available(now)
    }

    /// Requests denied.
    pub fn denied(&self) -> u64 {
        self.inner.denied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_parameters_are_typed_errors() {
        assert_eq!(
            TokenBucket::try_new(SimTime::ZERO, 0.0, 5.0).unwrap_err(),
            ConfigError::Parameter {
                component: "TokenBucket",
                field: "rate",
                value: 0.0,
            }
        );
        assert!(TokenBucket::try_new(SimTime::ZERO, 10.0, -1.0).is_err());
        assert!(TokenBucket::try_new(SimTime::ZERO, f64::NAN, 1.0).is_err());
        assert_eq!(
            PowerTokenBucket::try_new(SimTime::ZERO, 100.0, 0.0).unwrap_err(),
            ConfigError::Parameter {
                component: "PowerTokenBucket",
                field: "burst_seconds",
                value: 0.0,
            }
        );
        // A zero budget propagates from the inner bucket.
        assert!(PowerTokenBucket::try_new(SimTime::ZERO, 0.0, 1.0).is_err());
    }
    use proptest::prelude::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn starts_full_and_drains() {
        let mut tb = TokenBucket::new(ms(0), 10.0, 5.0);
        for _ in 0..5 {
            assert!(tb.try_consume(ms(0), 1.0));
        }
        assert!(!tb.try_consume(ms(0), 1.0));
        assert_eq!(tb.admitted(), 5);
        assert_eq!(tb.denied(), 1);
    }

    #[test]
    fn refills_over_time() {
        let mut tb = TokenBucket::new(ms(0), 10.0, 5.0);
        while tb.try_consume(ms(0), 1.0) {}
        // 10 tokens/s → after 300 ms, 3 tokens.
        assert!(tb.try_consume(ms(300), 3.0));
        assert!(!tb.try_consume(ms(300), 0.5));
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut tb = TokenBucket::new(ms(0), 10.0, 5.0);
        assert!((tb.available(SimTime::from_secs(100)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_always_admits() {
        let mut tb = TokenBucket::new(ms(0), 1.0, 1.0);
        tb.try_consume(ms(0), 1.0);
        assert!(tb.try_consume(ms(0), 0.0));
    }

    #[test]
    fn denial_rate_tracks() {
        let mut tb = TokenBucket::new(ms(0), 1.0, 2.0);
        tb.try_consume(ms(0), 1.0);
        tb.try_consume(ms(0), 1.0);
        tb.try_consume(ms(0), 1.0);
        tb.try_consume(ms(0), 1.0);
        assert!((tb.denial_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn power_bucket_starves_under_expensive_requests() {
        // 60 W dynamic budget, 1 s burst. Cheap requests (1 J) flow at
        // 60/s; expensive attack requests (30 J) starve the bucket.
        let mut pb = PowerTokenBucket::new(ms(0), 60.0, 1.0);
        let mut admitted_cheap = 0;
        for i in 0..100 {
            if pb.admit(ms(i * 10), 1.0) {
                admitted_cheap += 1;
            }
        }
        assert_eq!(admitted_cheap, 100); // 1 J every 10 ms < 60 W

        let mut pb = PowerTokenBucket::new(ms(0), 60.0, 1.0);
        let mut admitted_exp = 0;
        for i in 0..100 {
            if pb.admit(ms(i * 10), 30.0) {
                admitted_exp += 1;
            }
        }
        // 30 J every 10 ms = 3 kW demand on a 60 W budget → ~2 % + burst.
        assert!(admitted_exp < 10, "admitted {admitted_exp}");
        assert!(pb.denial_rate() > 0.6, "denial {}", pb.denial_rate());
    }

    proptest! {
        /// Admitted energy never exceeds budget × elapsed + burst.
        #[test]
        fn prop_power_conservation(
            costs in proptest::collection::vec(0.1f64..50.0, 1..200),
            gap_ms in 1u64..50,
        ) {
            let budget = 100.0;
            let burst_s = 0.5;
            let mut pb = PowerTokenBucket::new(ms(0), budget, burst_s);
            let mut admitted_j = 0.0;
            let mut t = 0u64;
            for &c in &costs {
                if pb.admit(ms(t), c) {
                    admitted_j += c;
                }
                t += gap_ms;
            }
            let elapsed_s = t as f64 / 1000.0;
            prop_assert!(admitted_j <= budget * elapsed_s + budget * burst_s + 1e-6,
                "admitted {} J over {} s", admitted_j, elapsed_s);
        }

        /// Token count never negative, never above burst.
        #[test]
        fn prop_tokens_bounded(ops in proptest::collection::vec((0.0f64..20.0, 0u64..1000), 1..100)) {
            let mut tb = TokenBucket::new(ms(0), 50.0, 10.0);
            let mut t = 0u64;
            for (cost, dt) in ops {
                t += dt;
                tb.try_consume(ms(t), cost);
                let avail = tb.available(ms(t));
                prop_assert!((-1e-9..=10.0 + 1e-9).contains(&avail));
            }
        }
    }
}
