//! The power-management schemes of Table 2 behind one trait.
//!
//! Each scheme interacts with the cluster through two hooks:
//!
//! * [`PowerScheme::admit`] — called per request at the NLB, *after* the
//!   perimeter firewall (only `Token` says no here);
//! * [`PowerScheme::control`] — called once per control slot with a
//!   cluster snapshot; the scheme returns [`Action`]s (P-state commands,
//!   battery discharge/charge) that the simulator enacts.
//!
//! Keeping schemes pure decision functions over snapshots makes them
//! individually testable without a full simulation.

mod ablation;
mod anti_dope;
mod capping;
mod shaving;
mod token;

pub use anti_dope::AntiDopeScheme;

use ablation::{PdfOnlyScheme, RpmOnlyScheme};
use capping::CappingScheme;
use shaving::ShavingScheme;
use token::TokenScheme;
use crate::config::{ClusterConfig, SchemeKind};
use netsim::nlb::ForwardingPolicy;
use netsim::request::Request;
use powercap::monitor::PowerCondition;
use powercap::pstate::PState;
use simcore::SimTime;

/// Per-node snapshot handed to `control`.
#[derive(Debug, Clone, Copy)]
pub struct NodeSnapshot {
    /// Busy-core fraction.
    pub utilization: f64,
    /// Resident-mix power intensity.
    pub intensity: f64,
    /// Resident-mix DVFS power sensitivity.
    pub gamma: f64,
    /// Resident-mix CPU-boundedness.
    pub beta: f64,
    /// Currently commanded P-state.
    pub target: PState,
    /// Member of the suspect pool?
    pub suspect: bool,
}

/// Cluster snapshot for one control slot.
#[derive(Debug, Clone)]
pub struct ControlInput {
    /// Slot timestamp.
    pub now: SimTime,
    /// Supplied (budgeted) power, watts.
    pub supply_w: f64,
    /// Measured aggregate load power, watts.
    pub demand_w: f64,
    /// Monitor verdict for this slot.
    pub condition: PowerCondition,
    /// Per-node snapshots.
    pub nodes: Vec<NodeSnapshot>,
    /// Battery state of charge `[0, 1]`.
    pub battery_soc: f64,
    /// Battery stored energy, joules.
    pub battery_stored_j: f64,
    /// Battery maximum discharge power, watts.
    pub battery_max_discharge_w: f64,
    /// Battery maximum charge power, watts.
    pub battery_max_charge_w: f64,
    /// Watts the battery is currently discharging.
    pub battery_discharging_w: f64,
}

impl ControlInput {
    /// Current deficit (0 when under budget).
    pub(crate) fn deficit_w(&self) -> f64 {
        (self.demand_w - self.supply_w).max(0.0)
    }

    /// Current headroom (0 when over budget).
    pub(crate) fn headroom_w(&self) -> f64 {
        (self.supply_w - self.demand_w).max(0.0)
    }
}

/// An actuation the control plane commands on the scheme's behalf: the
/// one command type from Decide through the rack guard and the trace to
/// the engine's nodes and the live actuators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Command node `node` to P-state `target` (takes DVFS latency).
    SetPState {
        /// Node index.
        node: usize,
        /// Target state.
        target: PState,
    },
    /// Discharge the battery at the given watts (0 stops).
    BatteryDischarge {
        /// Requested discharge power, watts.
        watts: f64,
    },
    /// Charge the battery, offering the given watts from headroom
    /// (0 stops).
    BatteryCharge {
        /// Offered charge power, watts.
        watts: f64,
    },
}

/// A power-management scheme.
pub trait PowerScheme: Send {
    /// Display name (Table 2).
    fn name(&self) -> &'static str;

    /// The NLB forwarding policy this scheme requires.
    fn forwarding_policy(&self, config: &ClusterConfig) -> ForwardingPolicy {
        let _ = config;
        ForwardingPolicy::RoundRobin
    }

    /// Admission decision at the NLB (after the firewall).
    fn admit(&mut self, now: SimTime, req: &Request) -> bool {
        let (_, _) = (now, req);
        true
    }

    /// Requests this scheme denied at admission.
    fn denied(&self) -> u64 {
        0
    }

    /// Per-slot control decision.
    fn control(&mut self, input: &ControlInput, actions: &mut Vec<Action>);
}

/// A scheme that does nothing — the unmanaged reference cluster.
#[derive(Debug, Default)]
pub(crate) struct NoneScheme;

impl PowerScheme for NoneScheme {
    fn name(&self) -> &'static str {
        "None"
    }

    fn control(&mut self, _input: &ControlInput, _actions: &mut Vec<Action>) {}
}

/// Instantiate a scheme by kind for the given cluster.
pub fn build_scheme(kind: SchemeKind, config: &ClusterConfig) -> Box<dyn PowerScheme> {
    match kind {
        SchemeKind::None => Box::new(NoneScheme),
        SchemeKind::Capping => Box::new(CappingScheme::new()),
        SchemeKind::Shaving => Box::new(ShavingScheme::new()),
        SchemeKind::Token => Box::new(TokenScheme::new(config)),
        SchemeKind::AntiDope => Box::new(AntiDopeScheme::new(config)),
        SchemeKind::PdfOnly => Box::new(PdfOnlyScheme::new(config)),
        SchemeKind::RpmOnly => Box::new(RpmOnlyScheme::new(config)),
    }
}

/// Shared recovery hysteresis: schemes step frequency back up only after
/// this many consecutive under-budget slots with real margin, to avoid
/// cap/uncap flapping against a persistent attack.
pub(crate) const RECOVERY_SLOTS: u32 = 3;

/// Fraction of supply kept as margin before stepping back up.
pub(crate) const RECOVERY_GUARD: f64 = 0.05;

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use powercap::budget::{BudgetLevel, PowerBudget};
    use powercap::monitor::PowerMonitor;

    /// Build a 4-node snapshot (3 innocent + 1 suspect) with the given
    /// demand and supply; the condition is derived from a fresh monitor.
    pub(crate) fn input(demand_w: f64, supply_frac: BudgetLevel, utils: [f64; 4]) -> ControlInput {
        let budget = PowerBudget::for_cluster(400.0, supply_frac);
        let mut monitor = PowerMonitor::new(budget, 1).unwrap();
        let condition = monitor.observe(demand_w);
        ControlInput {
            now: SimTime::from_secs(1),
            supply_w: budget.supply_w,
            demand_w,
            condition,
            nodes: utils
                .iter()
                .enumerate()
                .map(|(i, &u)| NodeSnapshot {
                    utilization: u,
                    intensity: if u > 0.0 { 0.95 } else { 0.0 },
                    gamma: if u > 0.0 { 0.85 } else { 0.0 },
                    beta: if u > 0.0 { 0.9 } else { 0.0 },
                    target: PState(12),
                    suspect: i == 3,
                })
                .collect(),
            battery_soc: 1.0,
            battery_stored_j: 48_000.0,
            battery_max_discharge_w: 400.0,
            battery_max_charge_w: 100.0,
            battery_discharging_w: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::input;
    use super::*;
    use powercap::budget::BudgetLevel;

    #[test]
    fn none_scheme_is_inert() {
        let mut s = NoneScheme;
        let mut actions = Vec::new();
        s.control(&input(500.0, BudgetLevel::Low, [1.0; 4]), &mut actions);
        assert!(actions.is_empty());
        assert_eq!(s.name(), "None");
        assert_eq!(s.denied(), 0);
    }

    #[test]
    fn control_input_helpers() {
        let i = input(350.0, BudgetLevel::Medium, [1.0; 4]); // supply 340
        assert!((i.deficit_w() - 10.0).abs() < 1e-9);
        assert_eq!(i.headroom_w(), 0.0);
        let i = input(300.0, BudgetLevel::Medium, [1.0; 4]);
        assert_eq!(i.deficit_w(), 0.0);
        assert!((i.headroom_w() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn build_all_schemes() {
        let cfg = crate::config::ClusterConfig::paper_rack(BudgetLevel::Medium);
        for kind in [
            SchemeKind::None,
            SchemeKind::Capping,
            SchemeKind::Shaving,
            SchemeKind::Token,
            SchemeKind::AntiDope,
        ] {
            let s = build_scheme(kind, &cfg);
            assert_eq!(s.name(), kind.name());
        }
    }
}
