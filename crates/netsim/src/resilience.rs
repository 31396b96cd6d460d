//! End-to-end request resilience: bounded retry with exponential
//! backoff + jitter, and per-pool circuit breakers.
//!
//! The paper's headline failure mode is a breaker trip that takes a
//! whole pool of servers offline mid-flood. Without a failure-handling
//! path the NLB keeps forwarding into the dead pool and the load is
//! silently dropped; with one, a tripped rack degrades tail latency
//! instead of goodput. This module holds the policy pieces, all of them
//! deterministic:
//!
//! * [`RetryConfig`] — the configuration knobs: attempt budget, client
//!   timeout (failure-detection delay for silently lost requests),
//!   exponential backoff base/cap, jitter fraction, and the circuit
//!   breaker's failure threshold + cooldown.
//! * `CircuitBreaker` — the classic closed → open → half-open state
//!   machine. Open short-circuits dispatch into a failing pool; after
//!   the cooldown a half-open probe decides between re-close and
//!   re-open.
//! * [`PoolBreakers`] — one breaker per backend pool (the sharded
//!   engine aligns pools with shard node ranges, i.e. "racks").
//!
//! Jitter draws come from a dedicated RNG stream
//! ([`simcore::rng::streams::RETRY`]) handed in by the engine, so
//! enabling retries never perturbs arrivals, faults, or the attacker.

use crate::error::ConfigError;
use simcore::rng::SimRng;
use simcore::{SimDuration, SimTime};

/// Retry / circuit-breaker policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Total delivery attempts per request, including the first
    /// (≥ 1; `1` disables retries — failures are immediately final).
    pub max_attempts: u8,
    /// Client-side failure-detection delay: how long after a silent
    /// loss (crash, black-holed dispatch) the client notices and the
    /// retry clock starts (> 0).
    pub timeout: SimDuration,
    /// First backoff interval; doubles per attempt (> 0).
    pub backoff_base: SimDuration,
    /// Backoff ceiling (≥ `backoff_base`).
    pub backoff_cap: SimDuration,
    /// Jitter fraction in `[0, 1]`: the backoff is scaled by
    /// `1 − jitter + jitter·u` with `u` uniform in `[0, 1)`. Zero means
    /// fully deterministic backoff (no RNG draw at all).
    pub jitter: f64,
    /// How long an open breaker blocks a pool before a half-open probe;
    /// `ZERO` disables circuit breaking entirely.
    pub breaker_cooldown: SimDuration,
    /// Consecutive dispatch failures that open a pool's breaker (≥ 1).
    pub breaker_failure_threshold: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            timeout: SimDuration::from_millis(250),
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(2),
            jitter: 0.5,
            breaker_cooldown: SimDuration::from_secs(10),
            breaker_failure_threshold: 8,
        }
    }
}

impl RetryConfig {
    /// Check every knob, returning a typed error naming the field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts < 1 {
            return Err(ConfigError::Parameter {
                component: "RetryConfig",
                field: "max_attempts",
                value: self.max_attempts as f64,
            });
        }
        if self.timeout <= SimDuration::ZERO {
            return Err(ConfigError::Parameter {
                component: "RetryConfig",
                field: "timeout",
                value: self.timeout.as_secs_f64(),
            });
        }
        if self.backoff_base <= SimDuration::ZERO {
            return Err(ConfigError::Parameter {
                component: "RetryConfig",
                field: "backoff_base",
                value: self.backoff_base.as_secs_f64(),
            });
        }
        if self.backoff_cap < self.backoff_base {
            return Err(ConfigError::Parameter {
                component: "RetryConfig",
                field: "backoff_cap",
                value: self.backoff_cap.as_secs_f64(),
            });
        }
        if !(0.0..=1.0).contains(&self.jitter) || !self.jitter.is_finite() {
            return Err(ConfigError::Parameter {
                component: "RetryConfig",
                field: "jitter",
                value: self.jitter,
            });
        }
        if self.breaker_failure_threshold < 1 {
            return Err(ConfigError::Parameter {
                component: "RetryConfig",
                field: "breaker_failure_threshold",
                value: self.breaker_failure_threshold as f64,
            });
        }
        Ok(())
    }

    /// True when the circuit breaker is configured on.
    pub fn breaker_enabled(&self) -> bool {
        self.breaker_cooldown > SimDuration::ZERO
    }

    /// Backoff before re-dispatching a request whose attempt number
    /// `failed_attempt` (0-based, i.e. [`crate::request::Request::attempt`])
    /// just failed: `min(base · 2^failed_attempt, cap)` scaled by the
    /// jitter factor. With `jitter == 0` no randomness is consumed.
    pub fn backoff(&self, failed_attempt: u8, rng: &mut SimRng) -> SimDuration {
        let base = self.backoff_base.as_secs_f64();
        let cap = self.backoff_cap.as_secs_f64();
        let raw = (base * 2f64.powi(failed_attempt as i32)).min(cap);
        let scale = if self.jitter > 0.0 {
            1.0 - self.jitter + self.jitter * rng.unit_f64()
        } else {
            1.0
        };
        SimDuration::from_secs_f64(raw * scale)
    }
}

/// Circuit breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CircuitState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: dispatch into the pool is blocked until the instant.
    Open {
        /// When the cooldown elapses and a half-open probe is allowed.
        until: SimTime,
    },
    /// Cooldown elapsed: requests flow as probes; the first failure
    /// re-opens, the first success re-closes.
    HalfOpen,
}

/// One pool's circuit breaker: closed → open on consecutive failures,
/// half-open probe after the cooldown, re-close on probe success.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: CircuitState,
    cooldown: SimDuration,
    threshold: u32,
    consecutive_failures: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// Breaker opening after `threshold` consecutive failures, blocking
    /// for `cooldown` before probing.
    pub(crate) fn new(threshold: u32, cooldown: SimDuration) -> Self {
        assert!(threshold >= 1, "breaker threshold must be >= 1");
        CircuitBreaker {
            state: CircuitState::Closed,
            cooldown,
            threshold,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// Current state (the open → half-open edge is taken lazily by
    /// [`Self::allows`]).
    #[cfg(test)]
    pub(crate) fn state(&self) -> CircuitState {
        self.state
    }

    /// Times this breaker opened.
    pub(crate) fn trips(&self) -> u64 {
        self.trips
    }

    /// Record a dispatch failure against the pool.
    pub(crate) fn on_failure(&mut self, now: SimTime) {
        match self.state {
            CircuitState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.open(now);
                }
            }
            CircuitState::HalfOpen => self.open(now),
            CircuitState::Open { .. } => {}
        }
    }

    /// Record a successful completion from the pool.
    pub(crate) fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == CircuitState::HalfOpen {
            self.state = CircuitState::Closed;
        }
    }

    /// Whether dispatch into the pool is allowed at `now`. An open
    /// breaker past its cooldown transitions to half-open and allows
    /// the probe through.
    pub(crate) fn allows(&mut self, now: SimTime) -> bool {
        match self.state {
            CircuitState::Closed | CircuitState::HalfOpen => true,
            CircuitState::Open { until } => {
                if now >= until {
                    self.state = CircuitState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Non-mutating peek used when scanning for an alternate pool: true
    /// when [`Self::allows`] would return false.
    pub(crate) fn blocked(&self, now: SimTime) -> bool {
        matches!(self.state, CircuitState::Open { until } if now < until)
    }

    fn open(&mut self, now: SimTime) {
        self.state = CircuitState::Open {
            until: now + self.cooldown,
        };
        self.consecutive_failures = 0;
        self.trips += 1;
    }
}

/// One circuit breaker per backend pool.
#[derive(Debug, Clone)]
pub struct PoolBreakers {
    breakers: Vec<CircuitBreaker>,
}

impl PoolBreakers {
    /// `n_pools` breakers sharing one threshold/cooldown.
    pub fn new(n_pools: usize, threshold: u32, cooldown: SimDuration) -> Self {
        PoolBreakers {
            breakers: (0..n_pools)
                .map(|_| CircuitBreaker::new(threshold, cooldown))
                .collect(),
        }
    }

    /// Number of pools.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.breakers.len()
    }

    /// Record a dispatch failure against `pool`.
    pub fn on_failure(&mut self, pool: usize, now: SimTime) {
        self.breakers[pool].on_failure(now);
    }

    /// Record a successful completion from `pool`.
    pub fn on_success(&mut self, pool: usize) {
        self.breakers[pool].on_success();
    }

    /// Whether dispatch into `pool` is allowed (may take the
    /// open → half-open edge).
    pub fn allows(&mut self, pool: usize, now: SimTime) -> bool {
        self.breakers[pool].allows(now)
    }

    /// Non-mutating block check for alternate-pool scans.
    pub fn blocked(&self, pool: usize, now: SimTime) -> bool {
        self.breakers[pool].blocked(now)
    }

    /// A pool's breaker, for inspection.
    #[cfg(test)]
    pub(crate) fn breaker(&self, pool: usize) -> &CircuitBreaker {
        &self.breakers[pool]
    }

    /// Total trips across all pools.
    pub fn trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn default_config_validates() {
        assert!(RetryConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases: Vec<(RetryConfig, &str)> = vec![
            (
                RetryConfig {
                    max_attempts: 0,
                    ..RetryConfig::default()
                },
                "max_attempts",
            ),
            (
                RetryConfig {
                    timeout: SimDuration::ZERO,
                    ..RetryConfig::default()
                },
                "timeout",
            ),
            (
                RetryConfig {
                    backoff_base: SimDuration::ZERO,
                    ..RetryConfig::default()
                },
                "backoff_base",
            ),
            (
                RetryConfig {
                    backoff_base: SimDuration::from_secs(5),
                    backoff_cap: SimDuration::from_secs(1),
                    ..RetryConfig::default()
                },
                "backoff_cap",
            ),
            (
                RetryConfig {
                    jitter: 1.5,
                    ..RetryConfig::default()
                },
                "jitter",
            ),
            (
                RetryConfig {
                    breaker_failure_threshold: 0,
                    ..RetryConfig::default()
                },
                "breaker_failure_threshold",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().unwrap_err();
            let msg = format!("{err}");
            assert!(
                msg.contains("RetryConfig") && msg.contains(field),
                "expected message naming {field}, got: {msg}"
            );
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let cfg = RetryConfig {
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_millis(350),
            jitter: 0.0,
            ..RetryConfig::default()
        };
        let mut rng = SimRng::new(1);
        assert_eq!(cfg.backoff(0, &mut rng), SimDuration::from_millis(100));
        assert_eq!(cfg.backoff(1, &mut rng), SimDuration::from_millis(200));
        assert_eq!(cfg.backoff(2, &mut rng), SimDuration::from_millis(350));
        assert_eq!(cfg.backoff(6, &mut rng), SimDuration::from_millis(350));
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let cfg = RetryConfig {
            jitter: 0.0,
            ..RetryConfig::default()
        };
        let mut rng = SimRng::new(9);
        let reference = SimRng::new(9);
        let _ = cfg.backoff(0, &mut rng);
        assert_eq!(rng, reference, "jitter-free backoff drew from the rng");
    }

    #[test]
    fn jitter_bounds_the_scale() {
        let cfg = RetryConfig {
            backoff_base: SimDuration::from_secs(1),
            backoff_cap: SimDuration::from_secs(1),
            jitter: 0.5,
            ..RetryConfig::default()
        };
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let b = cfg.backoff(0, &mut rng).as_secs_f64();
            assert!((0.5..1.0).contains(&b), "backoff {b} outside [0.5, 1.0)");
        }
    }

    #[test]
    fn breaker_opens_on_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_secs(10));
        assert_eq!(b.state(), CircuitState::Closed);
        b.on_failure(s(1));
        b.on_failure(s(2));
        assert!(b.allows(s(2)), "below threshold stays closed");
        b.on_failure(s(3));
        assert_eq!(b.state(), CircuitState::Open { until: s(13) });
        assert_eq!(b.trips(), 1);
        assert!(!b.allows(s(5)));
        assert!(b.blocked(s(5)));
        // Cooldown elapsed: half-open, probe allowed.
        assert!(b.allows(s(13)));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        // Probe succeeds: re-close.
        b.on_success();
        assert_eq!(b.state(), CircuitState::Closed);
        assert!(b.allows(s(14)));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(5));
        b.on_failure(s(0));
        assert_eq!(b.state(), CircuitState::Open { until: s(5) });
        assert!(b.allows(s(5)));
        b.on_failure(s(6));
        assert_eq!(b.state(), CircuitState::Open { until: s(11) });
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_secs(5));
        b.on_failure(s(0));
        b.on_failure(s(1));
        b.on_success();
        b.on_failure(s(2));
        b.on_failure(s(3));
        assert_eq!(b.state(), CircuitState::Closed, "streak was reset");
        b.on_failure(s(4));
        assert!(matches!(b.state(), CircuitState::Open { .. }));
    }

    #[test]
    fn failures_while_open_are_ignored() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(10));
        b.on_failure(s(0));
        b.on_failure(s(1));
        b.on_failure(s(2));
        assert_eq!(b.trips(), 1, "in-flight failures must not extend the outage");
        assert_eq!(b.state(), CircuitState::Open { until: s(10) });
    }

    #[test]
    fn pool_breakers_are_independent() {
        let mut pools = PoolBreakers::new(3, 1, SimDuration::from_secs(10));
        assert_eq!(pools.len(), 3);
        pools.on_failure(1, s(0));
        assert!(pools.allows(0, s(1)));
        assert!(!pools.allows(1, s(1)));
        assert!(pools.blocked(1, s(1)));
        assert!(pools.allows(2, s(1)));
        assert_eq!(pools.trips(), 1);
        assert_eq!(pools.breaker(1).trips(), 1);
    }
}
