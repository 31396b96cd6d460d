//! `Token` — the power-denominated token bucket baseline.
//!
//! "A modified network traffic controlling algorithm to ensure power
//! limits" (Table 2): the NLB holds a bucket refilled at the cluster's
//! *dynamic* power budget (supply minus the idle floor) and charges each
//! admitted request its offline-profiled energy estimate. Requests that
//! find the bucket empty are offloaded (dropped). Pure admission control:
//! no DVFS, no battery — power stays bounded, but under attack the
//! bucket starves and "more than 60 % of the packages" are abandoned,
//! legitimate ones included.

use super::{Action, ControlInput, PowerScheme};
use crate::config::ClusterConfig;
use netsim::request::{Request, UrlId};
use netsim::token_bucket::PowerTokenBucket;
use powercap::server_power::ServerPowerModel;
use simcore::{FxHashMap, SimTime};
use workloads::floods::{FloodKind, CONN_TABLE_URL, DNS_URL, KERNEL_PATH_URL};
use workloads::service::ServiceKind;

/// Offline-profiled per-request energy estimates, joules by URL, priced
/// on the paper's server: nominal frequency and dynamic headroom.
pub(crate) fn energy_table() -> FxHashMap<UrlId, f64> {
    let model = ServerPowerModel::paper_default();
    let (core_ghz, headroom_w) = (model.table.max_freq_ghz(), model.dynamic_headroom_w());
    let mut t = FxHashMap::default();
    for kind in ServiceKind::ALL {
        t.insert(
            kind.url(),
            kind.profile().energy_estimate_j(core_ghz, headroom_w),
        );
    }
    // Flood pseudo-URLs priced from their demand parameters.
    for (url, kind) in [
        (KERNEL_PATH_URL, FloodKind::SynFlood),
        (DNS_URL, FloodKind::DnsFlood),
        (CONN_TABLE_URL, FloodKind::Slowloris),
    ] {
        let p = kind.params();
        t.insert(url, p.intensity * headroom_w * (p.work_gcycles / core_ghz));
    }
    t
}

/// The power token bucket scheme.
pub(crate) struct TokenScheme {
    bucket: PowerTokenBucket,
    energy: FxHashMap<UrlId, f64>,
    /// Fallback cost for unprofiled URLs (median service energy).
    default_cost_j: f64,
    /// Feedback gate: the bucket only charges admissions while measured
    /// power is at/over the budget (with hysteresis). Without the gate a
    /// statically-priced bucket sheds traffic even when power is fine —
    /// per-request energy estimates assume unshared execution, which
    /// overstates cost on a saturated (power-capped-by-physics) node.
    gated: bool,
    supply_w: f64,
}

impl TokenScheme {
    /// Build for a cluster: the bucket refills at the dynamic budget
    /// (supply − aggregate idle floor) and can burst 2 seconds.
    pub(crate) fn new(config: &ClusterConfig) -> Self {
        let model = ServerPowerModel::paper_default();
        let idle_floor = config.servers as f64 * model.idle_w;
        let dynamic_budget = (config.supply_w() - idle_floor).max(1.0);
        let energy = energy_table();
        let mut costs: Vec<f64> = energy.values().copied().collect();
        costs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let default_cost_j = costs[costs.len() / 2];
        TokenScheme {
            bucket: PowerTokenBucket::new(SimTime::ZERO, dynamic_budget, 2.0),
            energy,
            default_cost_j,
            gated: false,
            supply_w: config.supply_w(),
        }
    }

    /// The bucket's denial rate so far.
    #[cfg(test)]
    pub(crate) fn denial_rate(&self) -> f64 {
        self.bucket.denial_rate()
    }
}

impl PowerScheme for TokenScheme {
    fn name(&self) -> &'static str {
        "Token"
    }

    fn admit(&mut self, now: SimTime, req: &Request) -> bool {
        if !self.gated {
            // Power is comfortably under the limit: keep the bucket
            // topped up but admit everything.
            let _ = self.bucket.available_j(now);
            return true;
        }
        let cost = self
            .energy
            .get(&req.url)
            .copied()
            .unwrap_or(self.default_cost_j);
        self.bucket.admit(now, cost)
    }

    fn denied(&self) -> u64 {
        self.bucket.denied()
    }

    fn control(&mut self, input: &ControlInput, _actions: &mut Vec<Action>) {
        // Admission-only scheme: the per-slot job is updating the
        // feedback gate from the measured power.
        if input.demand_w >= self.supply_w {
            self.gated = true;
        } else if input.demand_w < self.supply_w * 0.92 {
            self.gated = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::input;
    use super::*;
    use netsim::request::{RequestBuilder, SourceId};
    use powercap::budget::BudgetLevel;

    fn req(b: &mut RequestBuilder, kind: ServiceKind, at: SimTime) -> Request {
        let p = kind.profile();
        b.build(
            kind.url(),
            SourceId(0),
            at,
            p.mean_work_gcycles,
            p.beta,
            p.intensity,
            p.gamma,
            false,
        )
    }

    #[test]
    fn energy_table_orders_kernels() {
        let t = energy_table();
        let km = t[&ServiceKind::KMeans.url()];
        let tc = t[&ServiceKind::TextCont.url()];
        assert!(km > 3.0 * tc, "K-means {km} vs Text-Cont {tc}");
        // Kernel-path packets are effectively free.
        assert!(t[&KERNEL_PATH_URL] < 1e-3);
    }

    fn gate(s: &mut TokenScheme, demand: f64, budget: BudgetLevel) {
        let mut actions = Vec::new();
        let inp = input(demand, budget, [1.0; 4]);
        s.control(&inp, &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn light_traffic_flows_freely() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let mut s = TokenScheme::new(&cfg);
        let mut b = RequestBuilder::new();
        // 100 Text-Cont requests/s: ~0.17 J each against a 180 W dynamic
        // budget.
        let mut denied = 0;
        for i in 0..1000 {
            let at = SimTime::from_millis(i * 10);
            if !s.admit(at, &req(&mut b, ServiceKind::TextCont, at)) {
                denied += 1;
            }
        }
        assert_eq!(denied, 0, "light traffic must not be shed");
    }

    #[test]
    fn heavy_flood_is_shed_hard() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Low);
        let mut s = TokenScheme::new(&cfg);
        gate(&mut s, 390.0, BudgetLevel::Low); // measured power over 320 W
        let mut b = RequestBuilder::new();
        // 500 K-means requests/s: ~2.5 J each = 1.2 kW demanded from a
        // 160 W dynamic budget → most must be dropped.
        for i in 0..5000 {
            let at = SimTime::from_millis(i * 2);
            s.admit(at, &req(&mut b, ServiceKind::KMeans, at));
        }
        assert!(
            s.denial_rate() > 0.6,
            "paper: Token abandons >60% — got {}",
            s.denial_rate()
        );
    }

    #[test]
    fn admitted_power_respects_budget() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let dynamic_budget = cfg.supply_w() - 160.0; // 180 W
        let mut s = TokenScheme::new(&cfg);
        gate(&mut s, 380.0, BudgetLevel::Medium);
        let mut b = RequestBuilder::new();
        let table = energy_table();
        let mut admitted_j = 0.0;
        let horizon_s = 20.0;
        let mut i = 0u64;
        loop {
            let at = SimTime::from_micros(i * 500);
            if at.as_secs_f64() > horizon_s {
                break;
            }
            let r = req(&mut b, ServiceKind::CollaFilt, at);
            if s.admit(at, &r) {
                admitted_j += table[&r.url];
            }
            i += 1;
        }
        // Burst allowance is 2 s of budget.
        assert!(
            admitted_j <= dynamic_budget * (horizon_s + 2.0) + 1e-6,
            "admitted {admitted_j} J over {horizon_s}s"
        );
    }

    #[test]
    fn control_issues_no_actuation() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Low);
        let mut s = TokenScheme::new(&cfg);
        let mut actions = Vec::new();
        s.control(&input(500.0, BudgetLevel::Low, [1.0; 4]), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn gate_hysteresis() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium); // 340 W
        let mut s = TokenScheme::new(&cfg);
        assert!(!s.gated);
        gate(&mut s, 345.0, BudgetLevel::Medium);
        assert!(s.gated);
        // Just under budget: still gated (hysteresis band).
        gate(&mut s, 330.0, BudgetLevel::Medium);
        assert!(s.gated);
        // Well under: gate opens.
        gate(&mut s, 300.0, BudgetLevel::Medium);
        assert!(!s.gated);
    }

    #[test]
    fn ungated_admits_expensive_requests() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Low);
        let mut s = TokenScheme::new(&cfg);
        let mut b = RequestBuilder::new();
        for i in 0..2000 {
            let at = SimTime::from_millis(i);
            assert!(s.admit(at, &req(&mut b, ServiceKind::KMeans, at)));
        }
        assert_eq!(s.denied(), 0);
    }

    #[test]
    fn unknown_url_uses_default_cost() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let mut s = TokenScheme::new(&cfg);
        gate(&mut s, 380.0, BudgetLevel::Medium);
        let mut b = RequestBuilder::new();
        let r = b.build(
            UrlId(250),
            SourceId(0),
            SimTime::ZERO,
            1.0,
            0.5,
            0.5,
            0.5,
            false,
        );
        // Should not panic, and should consume the median cost.
        let before = s.bucket.available_j(SimTime::ZERO);
        assert!(s.admit(SimTime::ZERO, &r));
        let after = s.bucket.available_j(SimTime::ZERO);
        assert!((before - after - s.default_cost_j).abs() < 1e-9);
    }
}
