//! The DOPE attack algorithm (Figure 12).
//!
//! "The adversary can first select partial high-power request types
//! through numerous offline analysis ... After that, it can launch DOPE
//! attacks with selective traffic types. [The algorithm] gradually
//! increases the request number to the bottom limit of the deployed
//! defense systems. During the process, it repeatedly adjusts its request
//! number until an effective DOPE without being detected by network
//! protection approaches."
//!
//! Concretely: multiplicative-increase probing of the aggregate rate,
//! spread over a botnet so each agent stays inconspicuous; on any
//! perimeter block, back off below the last safe rate, rotate the burned
//! agents, and hold — converged inside the Fig 11 operating region
//! (enough requests to violate the power budget, few enough per source to
//! stay under the DoS threshold).

use crate::service::ServiceKind;
use crate::source::{SourceEvent, TrafficSource};
use netsim::request::{Request, RequestBuilder, SourceId};
use simcore::rng::SimRng;
use simcore::{SimDuration, SimTime};

/// Attack phase for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DopePhase {
    /// Growing the rate each adjustment period.
    Probing,
    /// Detected at least once; holding below the discovered threshold.
    Converged,
}

/// DOPE attacker configuration.
#[derive(Debug, Clone)]
pub struct DopeConfig {
    /// Victim service (pick with [`DopeAttacker::offline_rank`]).
    pub victim: ServiceKind,
    /// Initial aggregate rate, requests/s.
    pub initial_rate: f64,
    /// Multiplicative growth per adjustment while undetected.
    pub growth: f64,
    /// Multiplicative backoff applied to the last safe rate on detection.
    pub backoff: f64,
    /// How often the attacker re-evaluates.
    pub adjust_period: SimDuration,
    /// Botnet size (concurrent agents).
    pub bots: u32,
    /// Upper bound on the aggregate rate (attacker capacity).
    pub max_rate: f64,
}

impl Default for DopeConfig {
    fn default() -> Self {
        DopeConfig {
            victim: ServiceKind::CollaFilt,
            initial_rate: 20.0,
            growth: 1.4,
            backoff: 0.8,
            adjust_period: SimDuration::from_secs(10),
            bots: 40,
            max_rate: 5_000.0,
        }
    }
}

impl DopeConfig {
}

/// One entry of the attack's self-recorded rate history (Fig 12 trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateAdjustment {
    /// When the adjustment happened.
    pub at: SimTime,
    /// Aggregate rate after the adjustment.
    pub rate: f64,
    /// Whether the period leading here saw a perimeter block.
    pub detected: bool,
}

/// The adaptive DOPE attacker.
pub struct DopeAttacker {
    config: DopeConfig,
    rate: f64,
    last_safe_rate: f64,
    phase: DopePhase,
    /// Blocks observed since the last adjustment.
    blocks_since_adjust: u64,
    next_adjust: SimTime,
    /// Current botnet generation (rotated when agents are burned).
    generation: u32,
    source_base: u32,
    builder: RequestBuilder,
    rng: SimRng,
    clock: SimTime,
    start: SimTime,
    stop: SimTime,
    bot_cursor: u32,
    history: Vec<RateAdjustment>,
    label: String,
}

impl DopeAttacker {
    /// Build an attacker active over `[start, stop)`.
    pub fn new(
        config: DopeConfig,
        source_base: u32,
        id_base: u64,
        start: SimTime,
        stop: SimTime,
        seed: u64,
    ) -> Self {
        assert!(config.initial_rate > 0.0 && config.growth > 1.0);
        assert!(config.backoff > 0.0 && config.backoff < 1.0);
        assert!(config.bots >= 1 && config.max_rate >= config.initial_rate);
        let label = format!("dope@{}", config.victim.name());
        DopeAttacker {
            rate: config.initial_rate,
            last_safe_rate: config.initial_rate,
            phase: DopePhase::Probing,
            blocks_since_adjust: 0,
            next_adjust: start + config.adjust_period,
            generation: 0,
            source_base,
            builder: RequestBuilder::starting_at(id_base),
            rng: SimRng::new(seed),
            clock: start,
            start,
            stop,
            bot_cursor: 0,
            history: Vec::new(),
            config,
            label,
        }
    }

    /// Offline profiling step: rank kernels by estimated per-request
    /// energy on the victim node (highest first) — the list the adversary
    /// builds "through numerous offline analysis".
    pub fn offline_rank(core_ghz: f64, headroom_w: f64) -> Vec<(ServiceKind, f64)> {
        let mut ranked: Vec<(ServiceKind, f64)> = ServiceKind::ALL
            .iter()
            .map(|&k| (k, k.profile().energy_estimate_j(core_ghz, headroom_w)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        ranked
    }

    /// Current aggregate rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Rate each individual agent shows the firewall.
    pub fn per_bot_rate(&self) -> f64 {
        self.rate / self.config.bots as f64
    }

    /// Current phase.
    pub fn phase(&self) -> DopePhase {
        self.phase
    }

    /// The adjustment history (Fig 12's rate-vs-time staircase).
    pub fn history(&self) -> &[RateAdjustment] {
        &self.history
    }

    fn current_sources_start(&self) -> u32 {
        self.source_base + self.generation.wrapping_mul(self.config.bots)
    }

    fn adjust(&mut self, at: SimTime) {
        let detected = self.blocks_since_adjust > 0;
        if detected {
            // Burned: rotate agents, drop below the last safe rate, hold.
            self.generation = self.generation.wrapping_add(1);
            self.rate = (self.last_safe_rate * self.config.backoff)
                .max(self.config.initial_rate);
            self.phase = DopePhase::Converged;
        } else {
            self.last_safe_rate = self.rate;
            if self.phase == DopePhase::Probing {
                self.rate = (self.rate * self.config.growth).min(self.config.max_rate);
            }
        }
        self.blocks_since_adjust = 0;
        self.history.push(RateAdjustment {
            at,
            rate: self.rate,
            detected,
        });
    }
}

impl TrafficSource for DopeAttacker {
    fn next_request(&mut self, now: SimTime) -> Option<Request> {
        if now >= self.stop {
            return None;
        }
        if self.clock < now.max(self.start) {
            self.clock = now.max(self.start);
        }
        // Piecewise-constant Poisson: never let a draw cross an
        // adjustment boundary with the old rate.
        loop {
            // Apply any adjustments due at or before the current clock.
            while self.clock >= self.next_adjust {
                let at = self.next_adjust;
                self.adjust(at);
                self.next_adjust = at + self.config.adjust_period;
            }
            let gap = self.rng.exp(self.rate);
            let candidate = self.clock + SimDuration::from_secs_f64(gap.max(1e-9));
            if candidate >= self.next_adjust {
                // Restart the draw from the boundary with the new rate
                // (memorylessness makes this exact).
                self.clock = self.next_adjust;
                continue;
            }
            self.clock = candidate;
            if self.clock >= self.stop {
                return None;
            }
            break;
        }
        let profile = self.config.victim.profile();
        let bot = SourceId(self.current_sources_start() + self.bot_cursor % self.config.bots);
        self.bot_cursor = self.bot_cursor.wrapping_add(1);
        let work = profile.mean_work_gcycles * self.rng.range_f64(0.85, 1.15);
        Some(self.builder.build(
            self.config.victim.url(),
            bot,
            self.clock,
            work,
            profile.beta,
            profile.intensity,
            profile.gamma,
            true,
        ))
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn feedback(&mut self, _now: SimTime, event: SourceEvent) {
        if let SourceEvent::Blocked(_) = event {
            self.blocks_since_adjust += 1;
        }
    }

    /// DOPE backs off on perimeter blocks only; outcomes are ignored.
    fn observes_outcomes(&self) -> bool {
        false
    }

    fn is_attacker(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn attacker(seed: u64) -> DopeAttacker {
        DopeAttacker::new(DopeConfig::default(), 50_000, 1 << 41, s(0), s(600), seed)
    }

    #[test]
    fn offline_rank_prefers_heavy_kernels() {
        let model = powercap::server_power::ServerPowerModel::paper_default();
        let ranked =
            DopeAttacker::offline_rank(model.table.max_freq_ghz(), model.dynamic_headroom_w());
        assert_eq!(ranked.len(), 4);
        // K-means tops the energy-per-request ranking (Fig 5-b); the
        // lightweight Text-Cont is last.
        assert_eq!(ranked[0].0, ServiceKind::KMeans);
        assert_eq!(ranked[3].0, ServiceKind::TextCont);
        // Strictly decreasing energies.
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn rate_grows_while_undetected() {
        let mut a = attacker(1);
        // Pull requests through 60 s of probing with no blocks.
        let mut last = SimTime::ZERO;
        while let Some(r) = a.next_request(last) {
            if r.arrival > s(60) {
                break;
            }
            last = r.arrival;
        }
        // 5 adjustments × growth 1.4 ≈ 5.4× the initial rate.
        assert!(a.rate() > 20.0 * 4.0, "rate={}", a.rate());
        assert_eq!(a.phase(), DopePhase::Probing);
        assert!(a.history().iter().all(|h| !h.detected));
    }

    #[test]
    fn detection_triggers_backoff_and_rotation() {
        let mut a = attacker(2);
        let mut last = SimTime::ZERO;
        // Probe for ~35 s.
        while let Some(r) = a.next_request(last) {
            if r.arrival > s(35) {
                break;
            }
            last = r.arrival;
        }
        let probed_rate = a.rate();
        let gen_before = a.current_sources_start();
        a.feedback(s(36), SourceEvent::Blocked(SourceId(50_000)));
        // Pull past the next adjustment boundary (t = 40 s).
        while let Some(r) = a.next_request(last) {
            if r.arrival > s(45) {
                break;
            }
            last = r.arrival;
        }
        assert_eq!(a.phase(), DopePhase::Converged);
        assert!(a.rate() < probed_rate, "{} !< {probed_rate}", a.rate());
        assert!(a.rate() <= a.last_safe_rate);
        // Botnet rotated to fresh addresses.
        assert!(a.current_sources_start() > gen_before);
        assert!(a.history().iter().any(|h| h.detected));
    }

    #[test]
    fn converged_rate_holds_steady() {
        let mut a = attacker(3);
        a.feedback(s(5), SourceEvent::Blocked(SourceId(50_000)));
        let mut last = SimTime::ZERO;
        while let Some(r) = a.next_request(last) {
            if r.arrival > s(100) {
                break;
            }
            last = r.arrival;
        }
        let converged = a.rate();
        while let Some(r) = a.next_request(last) {
            if r.arrival > s(200) {
                break;
            }
            last = r.arrival;
        }
        assert_eq!(a.rate(), converged, "converged rate drifted");
    }

    #[test]
    fn rate_capped_at_max() {
        let cfg = DopeConfig {
            max_rate: 100.0,
            ..DopeConfig::default()
        };
        let mut a = DopeAttacker::new(cfg, 0, 0, s(0), s(3600), 4);
        let mut last = SimTime::ZERO;
        while let Some(r) = a.next_request(last) {
            if r.arrival > s(600) {
                break;
            }
            last = r.arrival;
        }
        assert!(a.rate() <= 100.0);
    }

    #[test]
    fn requests_target_victim_and_are_labeled() {
        let mut a = attacker(5);
        let r = a.next_request(s(0)).unwrap();
        assert_eq!(r.url, ServiceKind::CollaFilt.url());
        assert!(r.is_attack);
        assert!(a.is_attacker());
    }

    #[test]
    fn empirical_rate_matches_configured() {
        let cfg = DopeConfig {
            initial_rate: 100.0,
            growth: 1.0001, // effectively flat
            ..DopeConfig::default()
        };
        let mut a = DopeAttacker::new(cfg, 0, 0, s(0), s(60), 6);
        let mut count = 0;
        let mut last = SimTime::ZERO;
        while let Some(r) = a.next_request(last) {
            last = r.arrival;
            count += 1;
        }
        assert!((5_400..6_600).contains(&count), "count={count}");
    }

    #[test]
    fn per_bot_rate_stays_low() {
        // 40 bots at 2000 rps aggregate = 50 rps/bot — far under a
        // 150 rps firewall threshold. The arithmetic the attack rests on.
        let cfg = DopeConfig {
            initial_rate: 2000.0,
            ..DopeConfig::default()
        };
        let a = DopeAttacker::new(cfg, 0, 0, s(0), s(10), 7);
        assert!((a.per_bot_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = attacker(9);
        let mut b = attacker(9);
        for _ in 0..200 {
            assert_eq!(a.next_request(s(0)), b.next_request(s(0)));
        }
    }
}
