//! A DDoS-deflate-style rate-threshold firewall.
//!
//! The paper's Section 3.4 runs DDoS-deflate "at 150 requests per second
//! as the pre-defined firewall rule". Deflate works by polling `netstat`
//! periodically, counting connections per source, and banning sources
//! over the threshold. Two delays matter to the DOPE story:
//!
//! 1. the *polling interval* — violations between polls go unseen, and
//! 2. a per-traffic-class *detection lag* before the ban takes effect
//!    ("the start time for the firewall to detect the abnormal traffics
//!    is different among various traffic types", Fig 10) — connection
//!    table churn makes slow, heavy requests harder to attribute than
//!    high-volume floods.
//!
//! Sources below the threshold are **never** blocked — that blindness is
//! the DOPE operating region of Fig 11.
//!
//! # State bound
//!
//! A ban decision needs only three kinds of source: those seen since the
//! last poll, those with a pending ban, and those already banned. The
//! table keeps exactly these. [`Firewall::inspect`] notes a source in a
//! `touched` list when its count rises from zero; a poll drains that
//! list instead of scanning the table, and forgets a source whose state
//! is back to the default (no count, no pending ban, no ban). So the
//! table holds at most one poll interval's active sources plus the
//! pending and banned ones, however many sources a run has seen.
//!
//! Forgetting changes no verdict:
//! - an absent source and a default-state one behave alike, because
//!   `inspect` starts an absent source from the default state;
//! - a source not touched since the last poll has a zero count, so a
//!   poll that scanned it would change nothing;
//! - when one call runs several due polls, the second and later find
//!   `touched` empty, just as a scan would find every count at zero.
//!
//! The test-only `reference` module keeps the scanning firewall, and a
//! differential property holds the two to the same verdicts.

use crate::error::ConfigError;
use crate::request::SourceId;
use simcore::{FxHashMap, SimDuration, SimTime};
use std::collections::hash_map::Entry;

/// Firewall decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirewallVerdict {
    /// Forward to the load balancer.
    Pass,
    /// Source is banned; drop.
    Blocked,
}

/// Static firewall configuration.
#[derive(Debug, Clone)]
pub struct FirewallConfig {
    /// Requests/second that triggers a ban (deflate default-style 150).
    pub threshold_rps: f64,
    /// How often the connection table is polled.
    pub poll_interval: SimDuration,
    /// Extra lag between a poll seeing a violation and the ban landing.
    pub detection_lag: SimDuration,
    /// How long a ban lasts (`None` = permanent for the run).
    pub ban_duration: Option<SimDuration>,
}

impl Default for FirewallConfig {
    fn default() -> Self {
        FirewallConfig {
            threshold_rps: 150.0,
            poll_interval: SimDuration::from_secs(1),
            detection_lag: SimDuration::from_secs(5),
            ban_duration: None,
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SourceState {
    /// Requests seen since the last poll.
    count_since_poll: u64,
    /// Pending ban lands at this instant.
    ban_pending_at: Option<SimTime>,
    /// Active ban expires at this instant (MAX = permanent).
    banned_until: Option<SimTime>,
}

/// Per-source rate-threshold firewall with polling and detection lag.
#[derive(Debug, Clone)]
pub struct Firewall {
    config: FirewallConfig,
    /// Sources seen since the last poll, pending a ban, or banned.
    sources: FxHashMap<SourceId, SourceState>,
    /// Sources whose count rose from zero since the last poll.
    touched: Vec<SourceId>,
    last_poll: SimTime,
    blocked_requests: u64,
    passed_requests: u64,
    bans_issued: u64,
}

impl Firewall {
    /// New firewall; the first poll happens `poll_interval` after `start`.
    /// Panics on an out-of-range config; use `Firewall::try_new` to
    /// handle it as an error.
    pub fn new(start: SimTime, config: FirewallConfig) -> Self {
        Self::try_new(start, config).expect("invalid Firewall config")
    }

    /// Fallible constructor: rejects a non-positive rate threshold or a
    /// zero polling interval with a typed [`ConfigError`].
    pub(crate) fn try_new(start: SimTime, config: FirewallConfig) -> Result<Self, ConfigError> {
        if config.threshold_rps <= 0.0 || !config.threshold_rps.is_finite() {
            return Err(ConfigError::Parameter {
                component: "Firewall",
                field: "threshold_rps",
                value: config.threshold_rps,
            });
        }
        if config.poll_interval.is_zero() {
            return Err(ConfigError::Parameter {
                component: "Firewall",
                field: "poll_interval",
                value: 0.0,
            });
        }
        Ok(Firewall {
            config,
            sources: FxHashMap::default(),
            touched: Vec::new(),
            last_poll: start,
            blocked_requests: 0,
            passed_requests: 0,
            bans_issued: 0,
        })
    }

    /// Run any due polls up to `now` (called lazily from `inspect`, or
    /// explicitly by the simulation's control slot).
    pub fn poll(&mut self, now: SimTime) {
        while now
            .checked_since(self.last_poll)
            .is_some_and(|d| d >= self.config.poll_interval)
        {
            self.last_poll += self.config.poll_interval;
            let poll_t = self.last_poll;
            let window_s = self.config.poll_interval.as_secs_f64();
            for source in self.touched.drain(..) {
                let Entry::Occupied(mut entry) = self.sources.entry(source) else {
                    unreachable!("a touched source is tracked until its poll");
                };
                let state = entry.get_mut();
                let rate = state.count_since_poll as f64 / window_s;
                state.count_since_poll = 0;
                if rate > self.config.threshold_rps
                    && state.banned_until.is_none()
                    && state.ban_pending_at.is_none()
                {
                    state.ban_pending_at = Some(poll_t + self.config.detection_lag);
                }
                if *state == SourceState::default() {
                    entry.remove();
                }
            }
        }
    }

    /// Inspect one request from `source` at `now`.
    pub fn inspect(&mut self, now: SimTime, source: SourceId) -> FirewallVerdict {
        self.poll(now);
        let config_ban = self.config.ban_duration;
        let state = self.sources.entry(source).or_default();

        // Mature a pending ban.
        if let Some(at) = state.ban_pending_at {
            if now >= at {
                state.ban_pending_at = None;
                state.banned_until = Some(match config_ban {
                    Some(d) => at + d,
                    None => SimTime::MAX,
                });
                self.bans_issued += 1;
            }
        }
        // Expire a finished ban.
        if let Some(until) = state.banned_until {
            if now >= until {
                state.banned_until = None;
            }
        }

        if state.banned_until.is_some() {
            self.blocked_requests += 1;
            FirewallVerdict::Blocked
        } else {
            if state.count_since_poll == 0 {
                self.touched.push(source);
            }
            state.count_since_poll += 1;
            self.passed_requests += 1;
            FirewallVerdict::Pass
        }
    }

    /// Whether `source` is currently banned (matured bans only).
    #[cfg(test)]
    pub(crate) fn is_banned(&self, source: SourceId) -> bool {
        self.sources
            .get(&source)
            .map(|s| s.banned_until.is_some())
            .unwrap_or(false)
    }

    /// Total requests dropped.
    pub fn blocked_requests(&self) -> u64 {
        self.blocked_requests
    }

    /// Total requests passed.
    pub(crate) fn passed_requests(&self) -> u64 {
        self.passed_requests
    }

    /// Total bans issued.
    pub fn bans_issued(&self) -> u64 {
        self.bans_issued
    }

    /// Sources the table holds.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.sources.len()
    }
}

/// The scanning firewall this module replaced, verbatim but for its
/// name: it keeps every source it has seen and every poll walks them
/// all. The differential property below holds [`Firewall`] to it.
#[cfg(test)]
mod reference {
    use super::{FirewallConfig, FirewallVerdict, SourceState};
    use crate::request::SourceId;
    use simcore::SimTime;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    pub(crate) struct ReferenceFirewall {
        config: FirewallConfig,
        sources: HashMap<SourceId, SourceState>,
        last_poll: SimTime,
        blocked_requests: u64,
        passed_requests: u64,
        bans_issued: u64,
    }

    impl ReferenceFirewall {
        pub(crate) fn new(start: SimTime, config: FirewallConfig) -> Self {
            ReferenceFirewall {
                config,
                sources: HashMap::new(),
                last_poll: start,
                blocked_requests: 0,
                passed_requests: 0,
                bans_issued: 0,
            }
        }

        fn poll(&mut self, now: SimTime) {
            while now
                .checked_since(self.last_poll)
                .is_some_and(|d| d >= self.config.poll_interval)
            {
                self.last_poll += self.config.poll_interval;
                let poll_t = self.last_poll;
                let window_s = self.config.poll_interval.as_secs_f64();
                for state in self.sources.values_mut() {
                    let rate = state.count_since_poll as f64 / window_s;
                    state.count_since_poll = 0;
                    if rate > self.config.threshold_rps
                        && state.banned_until.is_none()
                        && state.ban_pending_at.is_none()
                    {
                        state.ban_pending_at = Some(poll_t + self.config.detection_lag);
                    }
                }
            }
        }

        pub(crate) fn inspect(&mut self, now: SimTime, source: SourceId) -> FirewallVerdict {
            self.poll(now);
            let config_ban = self.config.ban_duration;
            let state = self.sources.entry(source).or_default();
            if let Some(at) = state.ban_pending_at {
                if now >= at {
                    state.ban_pending_at = None;
                    state.banned_until = Some(match config_ban {
                        Some(d) => at + d,
                        None => SimTime::MAX,
                    });
                    self.bans_issued += 1;
                }
            }
            if let Some(until) = state.banned_until {
                if now >= until {
                    state.banned_until = None;
                }
            }
            if state.banned_until.is_some() {
                self.blocked_requests += 1;
                FirewallVerdict::Blocked
            } else {
                state.count_since_poll += 1;
                self.passed_requests += 1;
                FirewallVerdict::Pass
            }
        }

        pub(crate) fn is_banned(&self, source: SourceId) -> bool {
            self.sources
                .get(&source)
                .map(|s| s.banned_until.is_some())
                .unwrap_or(false)
        }

        pub(crate) fn counters(&self) -> (u64, u64, u64) {
            (self.blocked_requests, self.passed_requests, self.bans_issued)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn out_of_range_config_is_a_typed_error() {
        let good = FirewallConfig {
            threshold_rps: 100.0,
            poll_interval: SimDuration::from_secs(1),
            detection_lag: SimDuration::from_secs(1),
            ban_duration: None,
        };
        assert!(Firewall::try_new(SimTime::ZERO, good.clone()).is_ok());
        let mut bad = good.clone();
        bad.threshold_rps = 0.0;
        assert_eq!(
            Firewall::try_new(SimTime::ZERO, bad).unwrap_err(),
            ConfigError::Parameter {
                component: "Firewall",
                field: "threshold_rps",
                value: 0.0,
            }
        );
        let mut bad = good;
        bad.poll_interval = SimDuration::ZERO;
        assert!(matches!(
            Firewall::try_new(SimTime::ZERO, bad).unwrap_err(),
            ConfigError::Parameter {
                field: "poll_interval",
                ..
            }
        ));
    }

    fn fw(threshold: f64, lag_s: u64) -> Firewall {
        Firewall::new(
            SimTime::ZERO,
            FirewallConfig {
                threshold_rps: threshold,
                poll_interval: SimDuration::from_secs(1),
                detection_lag: SimDuration::from_secs(lag_s),
                ban_duration: None,
            },
        )
    }

    /// Send `rate` requests/s from `src` over `secs` seconds; return how
    /// many passed.
    fn flood(f: &mut Firewall, src: SourceId, rate: u64, secs: u64, offset: SimTime) -> u64 {
        let mut passed = 0;
        for sec in 0..secs {
            for i in 0..rate {
                let t = offset
                    + SimDuration::from_secs(sec)
                    + SimDuration::from_micros(i * 1_000_000 / rate);
                if f.inspect(t, src) == FirewallVerdict::Pass {
                    passed += 1;
                }
            }
        }
        passed
    }

    #[test]
    fn below_threshold_never_banned() {
        let mut f = fw(150.0, 0);
        let passed = flood(&mut f, SourceId(1), 100, 30, SimTime::ZERO);
        assert_eq!(passed, 3000);
        assert!(!f.is_banned(SourceId(1)));
        assert_eq!(f.bans_issued(), 0);
    }

    #[test]
    fn above_threshold_banned_after_poll() {
        let mut f = fw(150.0, 0);
        // 1000 rps: the first poll at t=1 s sees the violation.
        flood(&mut f, SourceId(1), 1000, 3, SimTime::ZERO);
        assert!(f.is_banned(SourceId(1)));
        assert_eq!(f.bans_issued(), 1);
        // The first second passed; later traffic is dropped.
        assert!(f.passed_requests() >= 1000);
        assert!(f.blocked_requests() > 0);
    }

    #[test]
    fn detection_lag_lets_early_spikes_through() {
        let mut quick = fw(150.0, 0);
        let mut slow = fw(150.0, 5);
        let p_quick = flood(&mut quick, SourceId(1), 1000, 10, SimTime::ZERO);
        let p_slow = flood(&mut slow, SourceId(1), 1000, 10, SimTime::ZERO);
        // The laggy firewall admits ~5 extra seconds of flood — the
        // "partial high power spikes even with firewalls" of Fig 10.
        assert!(p_slow > p_quick + 3000, "quick={p_quick} slow={p_slow}");
    }

    #[test]
    fn sources_tracked_independently() {
        let mut f = fw(150.0, 0);
        flood(&mut f, SourceId(1), 1000, 3, SimTime::ZERO);
        flood(&mut f, SourceId(2), 50, 3, SimTime::ZERO);
        assert!(f.is_banned(SourceId(1)));
        assert!(!f.is_banned(SourceId(2)));
    }

    #[test]
    fn ban_expires() {
        let mut f = Firewall::new(
            SimTime::ZERO,
            FirewallConfig {
                threshold_rps: 150.0,
                poll_interval: SimDuration::from_secs(1),
                detection_lag: SimDuration::ZERO,
                ban_duration: Some(SimDuration::from_secs(10)),
            },
        );
        flood(&mut f, SourceId(1), 1000, 2, SimTime::ZERO);
        assert!(f.is_banned(SourceId(1)));
        // Ban landed at t=1 s (first poll), expires at t=11 s.
        assert_eq!(f.inspect(s(12), SourceId(1)), FirewallVerdict::Pass);
        assert!(!f.is_banned(SourceId(1)));
    }

    #[test]
    fn exactly_at_threshold_passes() {
        // Deflate bans *above* the threshold, not at it.
        let mut f = fw(150.0, 0);
        flood(&mut f, SourceId(1), 150, 10, SimTime::ZERO);
        assert!(!f.is_banned(SourceId(1)));
    }

    #[test]
    fn counters_consistent() {
        let mut f = fw(100.0, 0);
        flood(&mut f, SourceId(1), 500, 5, SimTime::ZERO);
        assert_eq!(f.passed_requests() + f.blocked_requests(), 2500);
    }

    #[test]
    fn botnet_under_threshold_evades_while_single_source_is_banned() {
        // The botnet evasion region of Fig 11: three bots each at
        // 149 req/s — one under the deflate trigger — deliver an
        // aggregate of 447 req/s (3× the single-source trigger) and are
        // never banned. Arrivals interleave across bots so every poll
        // window sees all three counters live simultaneously.
        let mut f = fw(150.0, 5);
        for sec in 0..30u64 {
            for i in 0..149u64 {
                for bot in 0..3u32 {
                    let t = SimTime::from_secs(sec)
                        + SimDuration::from_micros(i * 1_000_000 / 149 + u64::from(bot));
                    assert_eq!(
                        f.inspect(t, SourceId(bot)),
                        FirewallVerdict::Pass,
                        "bot {bot} blocked at {t:?}"
                    );
                }
            }
        }
        assert_eq!(f.bans_issued(), 0);
        assert_eq!(f.blocked_requests(), 0);

        // The same 447 req/s from one address is caught: banned at the
        // first poll, blocked once the 5 s detection lag elapses.
        let mut single = fw(150.0, 5);
        let passed = flood(&mut single, SourceId(9), 447, 30, SimTime::ZERO);
        assert!(single.is_banned(SourceId(9)));
        assert!(single.blocked_requests() > 0);
        assert!(passed < 447 * 30, "some of the flood must be dropped");
    }

    #[test]
    fn idle_source_state_resets_each_poll() {
        let mut f = fw(150.0, 0);
        // 200 requests in one burst within second 0 (i.e. 200 rps), then quiet.
        for i in 0..200 {
            f.inspect(SimTime::from_millis(i * 4), SourceId(1));
        }
        // Poll at t=1 s sees 200 > 150 → ban.
        f.inspect(s(2), SourceId(1));
        assert!(f.is_banned(SourceId(1)));
    }

    #[test]
    fn table_holds_only_pending_and_banned_sources() {
        // 200k sources that each send one request, 100k in each of the
        // first two poll windows, plus three sources at 200 req/s and
        // one at 100 req/s.
        let mut f = fw(150.0, 5);
        let heavy = [SourceId(300_000), SourceId(300_001), SourceId(300_002)];
        let light = SourceId(400_000);
        for i in 0..200_000u64 {
            let t = SimTime::from_micros(i * 10);
            f.inspect(t, SourceId(i as u32));
            if i % 500 == 0 {
                for &h in &heavy {
                    f.inspect(t, h);
                }
            }
            if i % 1_000 == 0 {
                f.inspect(t, light);
            }
        }
        // The poll at t = 1 s already forgot the first window's sources.
        assert_eq!(f.tracked(), 100_000 + heavy.len() + 1);
        f.poll(s(2));
        assert_eq!(f.tracked(), heavy.len(), "only the pending bans remain");
        // The pending bans land 5 s after the poll that saw them.
        for &h in &heavy {
            assert_eq!(f.inspect(s(6), h), FirewallVerdict::Blocked);
            assert!(f.is_banned(h));
        }
        assert_eq!(f.tracked(), heavy.len());
        assert_eq!(f.inspect(s(6), light), FirewallVerdict::Pass);
        assert_eq!(f.bans_issued(), 3);
    }

    /// One request: a gap since the previous one, and a source drawn
    /// from a hot set of three (so rates cross the threshold) or from
    /// the whole universe.
    #[derive(Debug, Clone, Copy)]
    struct Arrival {
        gap_us: u64,
        hot: bool,
        pick: u32,
    }

    fn arrival() -> impl proptest::Strategy<Value = Arrival> {
        use proptest::prelude::*;
        (0u8..100, 0u64..1_000_000, 0u8..4, 0u32..u32::MAX).prop_map(|(g, us, h, pick)| {
            Arrival {
                // Mostly a few ms apart; now and then several poll
                // intervals of silence.
                gap_us: match g {
                    0..=1 => 1_000_000 + us * 4,
                    2..=9 => us,
                    _ => us % 8_000,
                },
                hot: h > 0,
                pick,
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The forgetting firewall gives the scanning reference's
        /// verdict, ban state and counters after every request.
        #[test]
        fn prop_forgetting_firewall_matches_reference(
            universe in proptest::sample::select(vec![5u32, 50_000]),
            threshold in proptest::sample::select(vec![20.0f64, 50.0, 100.0]),
            poll_ms in proptest::sample::select(vec![100u64, 250, 1_000]),
            lag_ms in 0u64..3_000,
            ban_ms in proptest::sample::select(vec![0u64, 300, 2_000]),
            stream in proptest::collection::vec(arrival(), 1..3_000),
        ) {
            use proptest::prelude::prop_assert_eq;
            let config = FirewallConfig {
                threshold_rps: threshold,
                poll_interval: SimDuration::from_millis(poll_ms),
                detection_lag: SimDuration::from_millis(lag_ms),
                ban_duration: (ban_ms > 0).then(|| SimDuration::from_millis(ban_ms)),
            };
            let mut f = Firewall::new(SimTime::ZERO, config.clone());
            let mut r = reference::ReferenceFirewall::new(SimTime::ZERO, config);
            let mut now = SimTime::ZERO;
            for (i, a) in stream.iter().enumerate() {
                now += SimDuration::from_micros(a.gap_us);
                let source = SourceId(if a.hot { a.pick % 3 } else { a.pick % universe });
                prop_assert_eq!(f.inspect(now, source), r.inspect(now, source), "request {}", i);
                prop_assert_eq!(f.is_banned(source), r.is_banned(source), "request {}", i);
                prop_assert_eq!(
                    (f.blocked_requests(), f.passed_requests(), f.bans_issued()),
                    r.counters(),
                    "request {}",
                    i
                );
            }
        }
    }
}
