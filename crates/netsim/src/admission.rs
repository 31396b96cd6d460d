//! Staged admission control in front of the NLB.
//!
//! Modern DDoS perimeters stack heterogeneous checks — a per-source rate
//! firewall, context-aware cost-to-serve pricing (CAPoW-style: the more
//! a request costs the datacenter, the more "budget" its admission
//! burns), power-denominated token buckets — and a request must clear
//! every stage before routing. Here the perimeter is an
//! [`AdmissionPipeline`] of two typed slots, the firewall and then the
//! [`CostToServe`] pricing stage, which the engine runs between the
//! outage check and the scheme's own admission decision, with per-stage
//! verdict accounting surfaced in the report.
//!
//! The first denial wins and later stages never see (or charge for) the
//! request. A firewall-only pipeline is byte-identical — counter for
//! counter — to the historical hard-wired `Option<Firewall>` path.

use crate::error::ConfigError;
use crate::firewall::{Firewall, FirewallVerdict};
use crate::request::Request;
use crate::token_bucket::TokenBucket;
use simcore::SimTime;

/// Which class of admission stage produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Per-source rate-threshold firewall (DDoS-deflate-style).
    Firewall,
    /// Cost-to-serve pricing: admission budget drains by request cost.
    CostToServe,
}

impl StageKind {
    /// Stable lowercase name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            StageKind::Firewall => "firewall",
            StageKind::CostToServe => "cost-to-serve",
        }
    }
}

/// Outcome of running a request through the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Every stage passed; hand the request to the NLB.
    Admit,
    /// A stage denied; `kind` says which class (the firewall maps to a
    /// `Blocked` source event, every other stage to `Rejected`).
    Deny(StageKind),
}

/// Configuration for the [`CostToServe`] pricing stage.
///
/// CAPoW-style context-aware pricing: the gate holds a budget refilling
/// at `budget_per_s` cost units per second (burstable to
/// `burst_s`-seconds' worth), and each admission drains the request's
/// *cost to serve* — compute volume × power intensity, surcharged for
/// DVFS-insensitive (memory/IO-heavy) demand that capping cannot
/// reclaim. Cheap requests sail through; a flood of expensive ones
/// starves its own admission long before it heats a rack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostToServeConfig {
    /// Budget refill rate, cost units per second.
    pub budget_per_s: f64,
    /// Burst window: the bucket holds `budget_per_s * burst_s`.
    pub burst_s: f64,
    /// Extra price multiplier applied to the DVFS-insensitive fraction
    /// of demand: `price *= 1 + mem_surcharge * (1 - gamma)`.
    pub mem_surcharge: f64,
}

impl Default for CostToServeConfig {
    fn default() -> Self {
        CostToServeConfig {
            budget_per_s: 1000.0,
            burst_s: 2.0,
            mem_surcharge: 2.0,
        }
    }
}

/// CAPoW-style cost-to-serve pricing stage (see [`CostToServeConfig`]).
#[derive(Debug, Clone)]
pub struct CostToServe {
    bucket: TokenBucket,
    mem_surcharge: f64,
}

impl CostToServe {
    /// Build the stage; rejects non-positive budget/burst and a negative
    /// surcharge with a typed [`ConfigError`].
    pub fn try_new(start: SimTime, cfg: CostToServeConfig) -> Result<Self, ConfigError> {
        if !cfg.mem_surcharge.is_finite() || cfg.mem_surcharge < 0.0 {
            return Err(ConfigError::Parameter {
                component: "CostToServe",
                field: "mem_surcharge",
                value: cfg.mem_surcharge,
            });
        }
        let bucket = TokenBucket::try_new(start, cfg.budget_per_s, cfg.budget_per_s * cfg.burst_s)
            .map_err(|_| ConfigError::Parameter {
                component: "CostToServe",
                field: "budget_per_s",
                value: cfg.budget_per_s,
            })?;
        Ok(CostToServe {
            bucket,
            mem_surcharge: cfg.mem_surcharge,
        })
    }

    /// The price charged for admitting `req`: compute volume × power
    /// intensity, surcharged for the DVFS-insensitive demand fraction.
    pub(crate) fn price(&self, req: &Request) -> f64 {
        req.work_gcycles * req.intensity * (1.0 + self.mem_surcharge * (1.0 - req.gamma))
    }

    /// Admit (`true`) or deny (`false`) one request, charging its price.
    fn decide(&mut self, now: SimTime, req: &Request) -> bool {
        let price = self.price(req);
        self.bucket.try_consume(now, price)
    }
}

/// Per-stage verdict counters for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name (`StageKind::name`).
    pub stage: String,
    /// Requests the stage admitted.
    pub passed: u64,
    /// Requests the stage denied.
    pub denied: u64,
}

/// Pipeline-level verdict accounting: `offered` requests entered the
/// pipeline, `admitted` cleared every stage, and each stage's own
/// pass/deny split follows (a request denied at stage *k* is counted by
/// stages `0..=k` only — verdicts telescope: each stage's `passed`
/// equals the next stage's `passed + denied`, and the last stage's
/// `passed` equals `admitted`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Requests that entered the pipeline.
    pub offered: u64,
    /// Requests that cleared every stage.
    pub admitted: u64,
    /// Per-stage verdict counters, pipeline order.
    pub stages: Vec<StageReport>,
}

/// The staged admission pipeline the NLB runs before routing: the
/// firewall (its counters feed the report's historical
/// `firewall_blocked` field), then cost-to-serve pricing. Either slot
/// may be empty.
pub struct AdmissionPipeline {
    firewall: Option<Firewall>,
    cost: Option<CostToServe>,
    offered: u64,
    admitted: u64,
}

impl AdmissionPipeline {
    /// An empty pipeline (admits everything).
    pub fn new() -> Self {
        AdmissionPipeline {
            firewall: None,
            cost: None,
            offered: 0,
            admitted: 0,
        }
    }

    /// Put `firewall` in the front slot.
    pub fn with_firewall(mut self, firewall: Firewall) -> Self {
        self.firewall = Some(firewall);
        self
    }

    /// Put `cost` in the slot after the firewall.
    pub fn with_cost(mut self, cost: CostToServe) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Run one request through every stage; first denial wins.
    pub fn decide(&mut self, now: SimTime, req: &Request) -> AdmissionDecision {
        self.offered += 1;
        if let Some(fw) = &mut self.firewall {
            if fw.inspect(now, req.source) == FirewallVerdict::Blocked {
                return AdmissionDecision::Deny(StageKind::Firewall);
            }
        }
        if let Some(cost) = &mut self.cost {
            if !cost.decide(now, req) {
                return AdmissionDecision::Deny(StageKind::CostToServe);
            }
        }
        self.admitted += 1;
        AdmissionDecision::Admit
    }

    /// Requests the front firewall blocked (0 without a firewall).
    pub fn firewall_blocked(&self) -> u64 {
        self.firewall.as_ref().map(|f| f.blocked_requests()).unwrap_or(0)
    }

    /// Requests denied by post-firewall stages.
    pub fn stage_denied(&self) -> u64 {
        self.cost.as_ref().map_or(0, |c| c.bucket.denied())
    }

    /// Verdict accounting for the report.
    pub fn report(&self) -> AdmissionReport {
        let mut stages = Vec::with_capacity(2);
        if let Some(fw) = &self.firewall {
            stages.push(StageReport {
                stage: StageKind::Firewall.name().to_string(),
                passed: fw.passed_requests(),
                denied: fw.blocked_requests(),
            });
        }
        if let Some(c) = &self.cost {
            stages.push(StageReport {
                stage: StageKind::CostToServe.name().to_string(),
                passed: c.bucket.admitted(),
                denied: c.bucket.denied(),
            });
        }
        AdmissionReport {
            offered: self.offered,
            admitted: self.admitted,
            stages,
        }
    }
}

impl Default for AdmissionPipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::FirewallConfig;
    use crate::request::{RequestBuilder, SourceId, UrlId};

    fn req(builder: &mut RequestBuilder, at: SimTime, work: f64, gamma: f64) -> Request {
        builder.build(UrlId(1), SourceId(7), at, work, 0.9, 1.0, gamma, false)
    }

    #[test]
    fn empty_pipeline_admits_everything() {
        let mut p = AdmissionPipeline::new();
        let mut b = RequestBuilder::starting_at(0);
        for i in 0..10 {
            let r = req(&mut b, SimTime::from_secs(i), 1.0, 0.9);
            assert_eq!(p.decide(r.arrival, &r), AdmissionDecision::Admit);
        }
        let rep = p.report();
        assert_eq!(rep.offered, 10);
        assert_eq!(rep.admitted, 10);
        assert!(rep.stages.is_empty());
    }

    #[test]
    fn firewall_denials_map_to_firewall_kind() {
        let fw = Firewall::new(
            SimTime::ZERO,
            FirewallConfig {
                threshold_rps: 5.0,
                ..FirewallConfig::default()
            },
        );
        let mut p = AdmissionPipeline::new().with_firewall(fw);
        let mut b = RequestBuilder::starting_at(0);
        // 50 req/s from one source for 10 s: the ban matures after the
        // first poll + 5 s lag and everything after is blocked.
        let mut denied = 0;
        for i in 0..500 {
            let at = SimTime::from_millis(i * 20);
            let r = req(&mut b, at, 1.0, 0.9);
            if p.decide(at, &r) == AdmissionDecision::Deny(StageKind::Firewall) {
                denied += 1;
            }
        }
        assert!(denied > 0, "ban never landed");
        assert_eq!(p.firewall_blocked(), denied);
        assert_eq!(p.stage_denied(), 0);
        let rep = p.report();
        assert_eq!(rep.offered, 500);
        assert_eq!(rep.admitted + denied, 500);
    }

    #[test]
    fn cost_to_serve_starves_expensive_floods() {
        let stage = CostToServe::try_new(
            SimTime::ZERO,
            CostToServeConfig {
                budget_per_s: 10.0,
                burst_s: 1.0,
                mem_surcharge: 0.0,
            },
        )
        .unwrap();
        let mut p = AdmissionPipeline::new().with_cost(stage);
        let mut b = RequestBuilder::starting_at(0);
        // 100 requests of cost 5 offered in one second against a budget
        // of 10/s with a 10-unit burst: only a handful clear.
        let mut admitted = 0;
        for i in 0..100 {
            let at = SimTime::from_millis(i * 10);
            let r = req(&mut b, at, 5.0, 0.9);
            if p.decide(at, &r) == AdmissionDecision::Admit {
                admitted += 1;
            }
        }
        assert!(admitted <= 5, "admitted {admitted}");
        assert_eq!(p.stage_denied(), 100 - admitted);
    }

    #[test]
    fn mem_surcharge_prices_unreclaimable_demand_higher() {
        let stage = CostToServe::try_new(SimTime::ZERO, CostToServeConfig::default()).unwrap();
        let mut b = RequestBuilder::starting_at(0);
        let cpu = req(&mut b, SimTime::ZERO, 1.0, 0.9);
        let mem = req(&mut b, SimTime::ZERO, 1.0, 0.2);
        assert!(stage.price(&mem) > stage.price(&cpu));
    }

    #[test]
    fn verdicts_telescope_across_stages() {
        let fw = Firewall::new(
            SimTime::ZERO,
            FirewallConfig {
                threshold_rps: 20.0,
                ..FirewallConfig::default()
            },
        );
        let cost = CostToServe::try_new(
            SimTime::ZERO,
            CostToServeConfig {
                budget_per_s: 50.0,
                burst_s: 1.0,
                mem_surcharge: 1.0,
            },
        )
        .unwrap();
        let mut p = AdmissionPipeline::new().with_firewall(fw).with_cost(cost);
        let mut b = RequestBuilder::starting_at(0);
        for i in 0..2000 {
            let at = SimTime::from_millis(i * 10);
            let r = req(&mut b, at, 2.0, 0.5);
            p.decide(at, &r);
        }
        let rep = p.report();
        assert_eq!(rep.offered, 2000);
        assert_eq!(rep.stages.len(), 2);
        // Stage 0 sees everything the pipeline saw.
        assert_eq!(rep.stages[0].passed + rep.stages[0].denied, rep.offered);
        // Each stage's passes equal the next stage's arrivals; the last
        // stage's passes equal the pipeline's admissions.
        assert_eq!(
            rep.stages[0].passed,
            rep.stages[1].passed + rep.stages[1].denied
        );
        assert_eq!(rep.stages[1].passed, rep.admitted);
        assert!(rep.stages[1].denied > 0, "cost stage never engaged");
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert!(CostToServe::try_new(
            SimTime::ZERO,
            CostToServeConfig {
                budget_per_s: 0.0,
                burst_s: 1.0,
                mem_surcharge: 0.0
            }
        )
        .is_err());
        assert!(CostToServe::try_new(
            SimTime::ZERO,
            CostToServeConfig {
                budget_per_s: 1.0,
                burst_s: 1.0,
                mem_surcharge: -1.0
            }
        )
        .is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Verdict accounting closes for any two-stage stack and any
        /// traffic shape: counters telescope stage to stage, and every
        /// arrival is exactly one of firewall-blocked, stage-denied, or
        /// admitted.
        #[test]
        fn prop_verdict_counters_sum_to_arrivals(
            n in 1usize..400,
            threshold in 5.0f64..200.0,
            budget in 1.0f64..40.0,
            burst in 0.1f64..3.0,
            surcharge in 0.0f64..3.0,
            work in 0.05f64..4.0,
            gamma in 0.0f64..1.0,
            sources in 1u32..6,
            gap_ms in 1u64..40,
        ) {
            use proptest::prelude::prop_assert_eq;
            let fw = Firewall::new(
                SimTime::ZERO,
                FirewallConfig {
                    threshold_rps: threshold,
                    ..FirewallConfig::default()
                },
            );
            let cost = CostToServe::try_new(
                SimTime::ZERO,
                CostToServeConfig {
                    budget_per_s: budget,
                    burst_s: burst,
                    mem_surcharge: surcharge,
                },
            )
            .expect("valid cost config");
            let mut p = AdmissionPipeline::new().with_firewall(fw).with_cost(cost);
            let mut b = RequestBuilder::starting_at(0);
            for i in 0..n {
                let at = SimTime::from_millis(i as u64 * gap_ms);
                let r = b.build(
                    UrlId(1),
                    SourceId(i as u32 % sources),
                    at,
                    work,
                    0.9,
                    1.0,
                    gamma,
                    false,
                );
                p.decide(at, &r);
            }
            let rep = p.report();
            prop_assert_eq!(rep.offered, n as u64);
            prop_assert_eq!(rep.stages.len(), 2);
            prop_assert_eq!(rep.stages[0].passed + rep.stages[0].denied, rep.offered);
            for k in 1..rep.stages.len() {
                prop_assert_eq!(
                    rep.stages[k].passed + rep.stages[k].denied,
                    rep.stages[k - 1].passed
                );
            }
            prop_assert_eq!(rep.stages[rep.stages.len() - 1].passed, rep.admitted);
            prop_assert_eq!(
                p.firewall_blocked() + p.stage_denied() + rep.admitted,
                rep.offered
            );
        }
    }
}
