//! The AliOS normal-user population.
//!
//! Section 3: "Based on the cluster data released by Alibaba cooperation,
//! we model the pattern of accessing online EC service to imitate normal
//! users' activities." We model the population as a non-homogeneous
//! Poisson process whose instantaneous rate is `peak_rate ×
//! trace_utilization(t)`, generated by Lewis–Shedler thinning, with
//! requests drawn from the AliOS service mix and spread over a pool of
//! client addresses (each well below any firewall threshold).

use crate::alibaba::UtilizationTrace;
use crate::service::ServiceMix;
use crate::source::TrafficSource;
use netsim::request::{Request, RequestBuilder, SourceId};
use simcore::rng::SimRng;
use simcore::{SimDuration, SimTime};

/// Normal-user traffic source.
pub struct NormalUsers {
    trace: UtilizationTrace,
    mix: ServiceMix,
    /// Arrival rate when the trace reads 1.0, requests/s.
    peak_rate: f64,
    /// Client address pool `[base, base + clients)`.
    source_base: u32,
    clients: u32,
    builder: RequestBuilder,
    rng: SimRng,
    /// Internal arrival clock (time of the last generated candidate).
    clock: SimTime,
    /// Stop generating past this horizon.
    horizon: SimTime,
    label: String,
}

impl NormalUsers {
    /// Build a population.
    ///
    /// * `peak_rate` — cluster-wide arrival rate at trace utilization 1.0.
    /// * `clients` — number of distinct client addresses to spread over.
    /// * `id_base` — request-id base for this source (disjoint spaces).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        trace: UtilizationTrace,
        mix: ServiceMix,
        peak_rate: f64,
        source_base: u32,
        clients: u32,
        id_base: u64,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        assert!(peak_rate > 0.0 && clients >= 1);
        NormalUsers {
            trace,
            mix,
            peak_rate,
            source_base,
            clients,
            builder: RequestBuilder::starting_at(id_base),
            rng: SimRng::new(seed),
            clock: SimTime::ZERO,
            horizon,
            label: "alios-normal".to_string(),
        }
    }
}

impl TrafficSource for NormalUsers {
    fn next_request(&mut self, now: SimTime) -> Option<Request> {
        if self.clock < now {
            self.clock = now;
        }
        // Lewis–Shedler thinning against the peak rate.
        loop {
            let gap = self.rng.exp(self.peak_rate);
            self.clock += SimDuration::from_secs_f64(gap.max(1e-9));
            if self.clock > self.horizon {
                return None;
            }
            let accept_p = self.trace.value_at(self.clock);
            if self.rng.chance(accept_p) {
                break;
            }
        }
        let kind = self.mix.sample(&mut self.rng);
        let profile = kind.profile();
        let work = profile.sample_work(&mut self.rng);
        let client = SourceId(self.source_base + self.rng.below(self.clients as u64) as u32);
        Some(self.builder.build(
            kind.url(),
            client,
            self.clock,
            work,
            profile.beta,
            profile.intensity,
            profile.gamma,
            false,
        ))
    }

    fn label(&self) -> &str {
        &self.label
    }

    /// Open loop: users arrive at the trace's rate whatever the outcome.
    fn observes_outcomes(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alibaba::AlibabaTraceConfig;

    fn users(peak: f64, seed: u64) -> NormalUsers {
        let trace = UtilizationTrace::synthesize(&AlibabaTraceConfig::small(seed));
        NormalUsers::new(
            trace,
            ServiceMix::alios_normal(),
            peak,
            1000,
            50,
            0,
            SimTime::from_secs(600),
            seed,
        )
    }

    #[test]
    fn arrivals_are_ordered_and_bounded() {
        let mut u = users(100.0, 1);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(r) = u.next_request(last) {
            assert!(r.arrival >= last);
            assert!(r.arrival <= SimTime::from_secs(600));
            assert!(!r.is_attack);
            last = r.arrival;
            count += 1;
        }
        // Rate ≈ 100 × mean_util (~0.4) over 600 s → thousands of requests.
        assert!(count > 10_000, "count={count}");
        assert!(count < 60_000, "count={count}");
    }

    #[test]
    fn empirical_rate_tracks_trace() {
        let mut u = users(200.0, 3);
        let mut per_sec = vec![0u32; 600];
        let mut last = SimTime::ZERO;
        while let Some(r) = u.next_request(last) {
            per_sec[(r.arrival.as_secs() as usize).min(599)] += 1;
            last = r.arrival;
        }
        // Compare first-minute and peak-minute (mid-trace) rates: the
        // diurnal shape must be visible in the arrivals.
        let early: u32 = per_sec[..60].iter().sum();
        let mid: u32 = per_sec[270..330].iter().sum();
        assert!(
            mid as f64 > early as f64 * 1.05,
            "early={early} mid={mid}"
        );
    }

    #[test]
    fn sources_spread_over_pool() {
        let mut u = users(100.0, 5);
        let mut seen = std::collections::HashSet::new();
        let mut last = SimTime::ZERO;
        for _ in 0..2000 {
            let Some(r) = u.next_request(last) else { break };
            assert!((1000..1050).contains(&r.source.0));
            seen.insert(r.source.0);
            last = r.arrival;
        }
        assert!(seen.len() > 40, "only {} distinct clients", seen.len());
    }

    #[test]
    fn mix_respected() {
        let mut u = users(200.0, 7);
        let mut last = SimTime::ZERO;
        let mut text = 0u32;
        let mut total = 0u32;
        for _ in 0..5000 {
            let Some(r) = u.next_request(last) else { break };
            if r.url == crate::service::ServiceKind::TextCont.url() {
                text += 1;
            }
            total += 1;
            last = r.arrival;
        }
        let frac = text as f64 / total as f64;
        assert!((frac - 0.80).abs() < 0.05, "text fraction {frac}");
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = users(100.0, 11);
        let mut b = users(100.0, 11);
        for _ in 0..100 {
            let ra = a.next_request(SimTime::ZERO);
            let rb = b.next_request(SimTime::ZERO);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn respects_horizon() {
        let trace = UtilizationTrace::synthesize(&AlibabaTraceConfig::small(1));
        let mut u = NormalUsers::new(
            trace,
            ServiceMix::alios_normal(),
            50.0,
            0,
            10,
            0,
            SimTime::from_secs(5),
            1,
        );
        let mut last = SimTime::ZERO;
        while let Some(r) = u.next_request(last) {
            assert!(r.arrival <= SimTime::from_secs(5));
            last = r.arrival;
        }
    }
}
