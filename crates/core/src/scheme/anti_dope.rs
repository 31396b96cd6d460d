//! `Anti-DOPE` — the paper's proposal: PDF + RPM.
//!
//! * **PDF** is installed once at construction: the NLB runs URL-split
//!   forwarding over the offline-profiled suspect list, isolating
//!   high-power flows on the suspect pool (see [`crate::pdf`]).
//! * **RPM** runs here each control slot: on a deficit, batteries bridge
//!   the DVFS transition window ("the transformation media"), then the
//!   DPM throttling plan (Algorithm 1, [`crate::dpm`]) reclaims power
//!   from suspect nodes first, spilling to innocents only when
//!   unavoidable. Under budget, suspect nodes recover with hysteresis
//!   and the battery recharges from headroom.

use super::{Action, ControlInput, PowerScheme, RECOVERY_GUARD, RECOVERY_SLOTS};
use crate::config::ClusterConfig;
use crate::dpm::{self, NodeState};
use crate::pdf;
use netsim::nlb::ForwardingPolicy;
use netsim::request::UrlId;
use powercap::pstate::PState;
use powercap::server_power::ServerPowerModel;

/// The Anti-DOPE scheme (PDF forwarding + RPM/DPM control).
pub struct AntiDopeScheme {
    /// Suspicion threshold used when building the forwarding policy.
    threshold: f64,
    /// Use the adaptive (online-profiled) forwarding policy instead of
    /// the offline suspect list.
    adaptive: bool,
    /// Extra oracle profiles folded into the offline list (ablations
    /// that grant the offline profiler impossible knowledge).
    oracle_profiles: Vec<(UrlId, f64)>,
    /// Hysteresis counter for recovery.
    calm_slots: u32,
    /// Whether we are currently enforcing a throttling plan.
    throttling: bool,
}

impl AntiDopeScheme {
    /// Build for a cluster (pool sizing is read from the config at
    /// forwarding-policy time; control needs only the power model).
    /// When the config enables the online profiler, the forwarding
    /// policy comes up adaptive (learned at runtime) instead of backed
    /// by the offline suspect list.
    pub fn new(config: &ClusterConfig) -> Self {
        Self::with_threshold(config, pdf::DEFAULT_SUSPECT_THRESHOLD)
    }

    /// Build with extra oracle profiles folded into the offline suspect
    /// list — the "oracle" ablation arm, which knows URL intensities the
    /// offline bench could never have measured (e.g. an attacker's
    /// rotation range). Panics on invalid inputs.
    pub fn with_oracle_profiles(config: &ClusterConfig, extra: Vec<(UrlId, f64)>) -> Self {
        let mut s = Self::with_threshold(config, pdf::DEFAULT_SUSPECT_THRESHOLD);
        for &(_, intensity) in &extra {
            assert!(
                (0.0..=1.0).contains(&intensity),
                "oracle intensity {intensity} outside [0, 1]"
            );
        }
        s.adaptive = false; // the oracle arm uses the static list
        s.oracle_profiles = extra;
        s
    }

    /// Build with a custom suspicion threshold (ablation studies).
    /// Panics on an invalid config or threshold; use
    /// `AntiDopeScheme::try_with_threshold` to handle errors.
    pub fn with_threshold(config: &ClusterConfig, threshold: f64) -> Self {
        Self::try_with_threshold(config, threshold)
            .expect("with_threshold: invalid cluster config or threshold")
    }

    /// Fallible constructor with a custom suspicion threshold.
    pub(crate) fn try_with_threshold(
        config: &ClusterConfig,
        threshold: f64,
    ) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        if !(0.0..=1.0).contains(&threshold) || !threshold.is_finite() {
            return Err(crate::config::ConfigError::Threshold { value: threshold });
        }
        Ok(AntiDopeScheme {
            threshold,
            adaptive: config.profiler.is_some(),
            oracle_profiles: Vec::new(),
            calm_slots: 0,
            throttling: false,
        })
    }

    fn node_states(&self, input: &ControlInput) -> Vec<NodeState> {
        input
            .nodes
            .iter()
            .map(|n| NodeState {
                utilization: n.utilization,
                intensity: if n.intensity > 0.0 { n.intensity } else { 0.9 },
                gamma: if n.gamma > 0.0 { n.gamma } else { 0.8 },
                beta: if n.beta > 0.0 { n.beta } else { 0.8 },
                current: n.target,
                suspect: n.suspect,
            })
            .collect()
    }
}

impl PowerScheme for AntiDopeScheme {
    fn name(&self) -> &'static str {
        "Anti-DOPE"
    }

    fn forwarding_policy(&self, config: &ClusterConfig) -> ForwardingPolicy {
        if self.adaptive {
            return pdf::adaptive_pdf_policy(config.servers, config.suspect_pool_size);
        }
        pdf::pdf_policy_with(
            config.servers,
            config.suspect_pool_size,
            self.threshold,
            &self.oracle_profiles,
        )
        .expect("threshold and oracle profiles validated at construction")
    }

    fn control(&mut self, input: &ControlInput, actions: &mut Vec<Action>) {
        let model = ServerPowerModel::paper_default();
        let deficit = input.deficit_w();
        if deficit > 0.0 {
            self.calm_slots = 0;
            self.throttling = true;
            // Algorithm 1: plan differentiated throttling against the
            // supply. The plan is computed on the model's predicted
            // power; fold in the measurement error (measured demand vs
            // model prediction at the current targets) so the plan binds
            // against *measured* reality, not just the model.
            let nodes = self.node_states(input);
            let predicted_current: f64 = nodes
                .iter()
                .map(|n| {
                    model.power(n.current, n.utilization, n.intensity, n.gamma)
                })
                .sum();
            let correction = (input.demand_w - predicted_current).max(0.0);
            let effective_budget = (input.supply_w - correction).max(0.0);
            let plan = dpm::solve(effective_budget, &nodes);
            for (i, (&target, node)) in plan.states.iter().zip(&input.nodes).enumerate() {
                if node.target != target {
                    actions.push(Action::SetPState { node: i, target });
                }
            }
            // Battery bridges the transition window (the deficit persists
            // until the new V/F settles) plus any residual the plan could
            // not reach. Both are bounded by what the battery can give.
            let bridge = (deficit + plan.battery_bridge_w)
                .min(input.battery_max_discharge_w);
            if input.battery_stored_j > 1.0 {
                actions.push(Action::BatteryDischarge { watts: bridge });
            }
        } else {
            // Under budget: stop bridging immediately ("batteries are
            // recharged again immediately" once V/F settles, §6.4).
            if input.battery_discharging_w > 0.0 {
                actions.push(Action::BatteryDischarge { watts: 0.0 });
            }
            let headroom = input.headroom_w();
            if input.battery_soc < 1.0 && headroom > 1.0 {
                actions.push(Action::BatteryCharge {
                    watts: headroom.min(input.battery_max_charge_w),
                });
            }
            // Recovery: raise the deepest-throttled node one step per
            // hysteresis window while margin holds.
            if self.throttling {
                self.calm_slots += 1;
                if self.calm_slots >= RECOVERY_SLOTS {
                    self.calm_slots = 0;
                    let top = model.table.max_state();
                    let lowest = input
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| n.target < top)
                        .min_by_key(|(_, n)| n.target);
                    match lowest {
                        Some((i, n)) => {
                            let next = PState(n.target.0 + 1);
                            // Margin check: stepping up costs at most the
                            // node's worst-case power delta.
                            let delta = model.full_load_power(
                                next,
                                n.intensity.max(0.9),
                                n.gamma.max(0.5),
                            ) - model.full_load_power(
                                n.target,
                                n.intensity.max(0.9),
                                n.gamma.max(0.5),
                            );
                            if input.headroom_w()
                                >= delta + input.supply_w * RECOVERY_GUARD
                            {
                                actions.push(Action::SetPState {
                                    node: i,
                                    target: next,
                                });
                            }
                        }
                        None => self.throttling = false,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::input;
    use super::*;
    use powercap::budget::BudgetLevel;

    fn scheme() -> AntiDopeScheme {
        AntiDopeScheme::new(&ClusterConfig::paper_rack(BudgetLevel::Medium))
    }

    #[test]
    fn forwarding_policy_is_url_split() {
        let s = scheme();
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        assert!(matches!(
            s.forwarding_policy(&cfg),
            ForwardingPolicy::UrlSplit { .. }
        ));
    }

    #[test]
    fn profiler_config_switches_to_adaptive_forwarding() {
        let mut cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        cfg.profiler = Some(profiler::ProfilerConfig::default());
        let s = AntiDopeScheme::new(&cfg);
        assert!(matches!(
            s.forwarding_policy(&cfg),
            ForwardingPolicy::AdaptiveSplit { .. }
        ));
    }

    #[test]
    fn oracle_profiles_extend_the_offline_list() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let s = AntiDopeScheme::with_oracle_profiles(&cfg, vec![(UrlId(700), 0.97)]);
        let ForwardingPolicy::UrlSplit { list, .. } = s.forwarding_policy(&cfg) else {
            panic!("expected UrlSplit");
        };
        assert!(list.is_suspect(UrlId(700)));
    }

    #[test]
    fn deficit_throttles_suspects_and_bridges_with_battery() {
        let mut s = scheme();
        let mut actions = Vec::new();
        // Demand 380 on 340 supply; suspect node (index 3) is hot.
        s.control(&input(380.0, BudgetLevel::Medium, [0.7, 0.7, 0.7, 1.0]), &mut actions);
        // Suspect node commanded down.
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::SetPState { node: 3, .. })),
            "{actions:?}"
        );
        // Innocent nodes untouched for a 40 W deficit.
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::SetPState { node, .. } if *node < 3)));
        // Battery bridges the transition.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::BatteryDischarge { watts } if *watts > 0.0)));
    }

    #[test]
    fn bridge_capped_by_battery_rate() {
        let mut s = scheme();
        let mut inp = input(380.0, BudgetLevel::Medium, [0.7, 0.7, 0.7, 1.0]);
        inp.battery_max_discharge_w = 15.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        let bridge = actions.iter().find_map(|a| match a {
            Action::BatteryDischarge { watts } => Some(*watts),
            _ => None,
        });
        assert_eq!(bridge, Some(15.0));
    }

    #[test]
    fn empty_battery_still_produces_plan() {
        let mut s = scheme();
        let mut inp = input(380.0, BudgetLevel::Medium, [0.7, 0.7, 0.7, 1.0]);
        inp.battery_stored_j = 0.0;
        inp.battery_soc = 0.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SetPState { .. })));
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::BatteryDischarge { watts } if *watts > 0.0)));
    }

    #[test]
    fn under_budget_recharges_and_recovers() {
        let mut s = scheme();
        // First cause a throttle.
        let mut a0 = Vec::new();
        s.control(&input(380.0, BudgetLevel::Medium, [0.7, 0.7, 0.7, 1.0]), &mut a0);
        // Then go calm; after RECOVERY_SLOTS slots one step-up lands.
        let mut calm = input(200.0, BudgetLevel::Medium, [0.3, 0.3, 0.3, 0.3]);
        calm.nodes[3].target = PState(6); // pretend the suspect is throttled
        calm.battery_soc = 0.5;
        calm.battery_stored_j = 24_000.0;
        let mut stepped = false;
        for _ in 0..4 {
            let mut a = Vec::new();
            s.control(&calm, &mut a);
            assert!(a
                .iter()
                .any(|x| matches!(x, Action::BatteryCharge { watts } if *watts > 0.0)));
            if a.iter().any(|x| {
                matches!(x, Action::SetPState { node: 3, target } if *target == PState(7))
            }) {
                stepped = true;
            }
        }
        assert!(stepped, "suspect node should step back up");
    }

    #[test]
    fn stops_discharge_when_calm() {
        let mut s = scheme();
        let mut calm = input(200.0, BudgetLevel::Medium, [0.3; 4]);
        calm.battery_discharging_w = 30.0;
        let mut a = Vec::new();
        s.control(&calm, &mut a);
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::BatteryDischarge { watts } if *watts == 0.0)));
    }

    #[test]
    fn deep_deficit_spills_to_innocents() {
        let mut s = scheme();
        let mut actions = Vec::new();
        // Low-PB (320 W supply) with everything at full tilt plus an
        // unrealistically hot snapshot: demand 480 W.
        s.control(&input(480.0, BudgetLevel::Low, [1.0; 4]), &mut actions);
        let innocent_throttled = actions
            .iter()
            .any(|a| matches!(a, Action::SetPState { node, target } if *node < 3 && *target < PState(12)));
        assert!(innocent_throttled, "{actions:?}");
    }
}
