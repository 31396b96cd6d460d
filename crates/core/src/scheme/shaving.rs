//! `Shaving` — UPS-based peak shaving.
//!
//! "Triggers DVFS only if the UPS used for peak shaving runs out of
//! energy" (Table 2), following battery-provisioned designs [Govindan
//! et al., Wang et al.]. During a budget violation the load is switched
//! onto the UPS — a double-conversion UPS carries the *whole* demand
//! while shaving, which is why the paper's 2-minute battery "exhausts
//! ... as soon as" under a sustained DOPE peak (Fig 18). Once stored
//! energy can no longer carry a full slot, the scheme falls back to
//! uniform DVFS exactly like `Capping`. Under budget, the battery
//! recharges from headroom.

use super::{Action, ControlInput, PowerScheme, RECOVERY_GUARD, RECOVERY_SLOTS};
use powercap::monitor::PowerCondition;
use powercap::pstate::PState;
use powercap::server_power::{ServerLoad, ServerPowerModel};

/// UPS-first peak shaving with DVFS fallback.
#[derive(Debug)]
pub(crate) struct ShavingScheme {
    level: PState,
    calm_slots: u32,
    top: PState,
}

impl Default for ShavingScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl ShavingScheme {
    /// New scheme at nominal frequency with an idle battery.
    pub(crate) fn new() -> Self {
        let top = ServerPowerModel::paper_default().table.max_state();
        ShavingScheme {
            level: top,
            calm_slots: 0,
            top,
        }
    }

    fn loads(input: &ControlInput) -> Vec<ServerLoad> {
        input
            .nodes
            .iter()
            .map(|n| ServerLoad {
                utilization: n.utilization.max(0.5),
                intensity: if n.intensity > 0.0 { n.intensity } else { 0.9 },
                gamma: if n.gamma > 0.0 { n.gamma } else { 0.8 },
            })
            .collect()
    }
}

impl PowerScheme for ShavingScheme {
    fn name(&self) -> &'static str {
        "Shaving"
    }

    fn control(&mut self, input: &ControlInput, actions: &mut Vec<Action>) {
        let deficit = input.deficit_w();
        if deficit > 0.0 {
            self.calm_slots = 0;
            // The UPS carries the whole demand while shaving. It can do
            // so for at least one more slot if it holds one slot's worth
            // of demand-energy.
            let battery_can = input.battery_stored_j > input.demand_w
                && input.battery_max_discharge_w >= input.demand_w;
            if battery_can && self.level == self.top {
                actions.push(Action::BatteryDischarge {
                    watts: input.demand_w,
                });
                return;
            }
            // Battery exhausted (or already in DVFS mode): uniform
            // capping; any residual charge still shaves the deficit.
            let residual = if input.battery_stored_j > 1.0 {
                input
                    .battery_max_discharge_w
                    .min(deficit)
                    .min(input.battery_stored_j)
            } else {
                0.0
            };
            actions.push(Action::BatteryDischarge { watts: residual });
            let effective_budget = input.supply_w + residual;
            let target = ServerPowerModel::paper_default()
                .state_for_budget(effective_budget, &Self::loads(input));
            if target < self.level {
                self.level = target;
            }
            for (i, n) in input.nodes.iter().enumerate() {
                if n.target != self.level {
                    actions.push(Action::SetPState {
                        node: i,
                        target: self.level,
                    });
                }
            }
        } else {
            // Under budget: stop discharging, recharge from headroom.
            if input.battery_discharging_w > 0.0 {
                actions.push(Action::BatteryDischarge { watts: 0.0 });
            }
            let headroom = input.headroom_w();
            if input.battery_soc < 1.0 && headroom > 1.0 {
                actions.push(Action::BatteryCharge {
                    watts: headroom.min(input.battery_max_charge_w),
                });
            }
            // DVFS recovery with the same hysteresis as Capping.
            if self.level < self.top && input.condition == PowerCondition::Nominal {
                self.calm_slots += 1;
                if self.calm_slots >= RECOVERY_SLOTS {
                    let next = PState(self.level.0 + 1);
                    let predicted = ServerPowerModel::paper_default()
                        .aggregate_power(next, &Self::loads(input));
                    if predicted <= input.supply_w * (1.0 - RECOVERY_GUARD) {
                        self.level = next;
                        self.calm_slots = 0;
                        for (i, n) in input.nodes.iter().enumerate() {
                            if n.target != self.level {
                                actions.push(Action::SetPState {
                                    node: i,
                                    target: self.level,
                                });
                            }
                        }
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

    #[test]
    fn violation_switches_full_load_onto_ups() {
        let mut s = ShavingScheme::new();
        let mut actions = Vec::new();
        s.control(&input(380.0, BudgetLevel::Medium, [1.0; 4]), &mut actions);
        // Double-conversion shaving: the UPS carries all 380 W, no DVFS.
        assert_eq!(actions, vec![Action::BatteryDischarge { watts: 380.0 }]);
        assert_eq!(s.level, PState(12));
    }

    #[test]
    fn empty_battery_falls_back_to_dvfs() {
        let mut s = ShavingScheme::new();
        let mut inp = input(380.0, BudgetLevel::Medium, [1.0; 4]);
        inp.battery_stored_j = 0.0;
        inp.battery_soc = 0.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(matches!(
            actions[0],
            Action::BatteryDischarge { watts } if watts == 0.0
        ));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::SetPState { .. })),
            "expected DVFS fallback: {actions:?}"
        );
        assert!(s.level < PState(12));
    }

    #[test]
    fn nearly_empty_battery_shaves_residually_while_throttling() {
        let mut s = ShavingScheme::new();
        let mut inp = input(400.0, BudgetLevel::Low, [1.0; 4]); // deficit 80 W
        inp.battery_stored_j = 30.0; // < one slot of demand → fallback
        inp.battery_soc = 30.0 / 48_000.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::BatteryDischarge { watts } if (*watts - 30.0).abs() < 1e-9)));
        assert!(actions.iter().any(|a| matches!(a, Action::SetPState { .. })));
    }

    #[test]
    fn recharges_under_budget() {
        let mut s = ShavingScheme::new();
        let mut inp = input(250.0, BudgetLevel::Medium, [0.5; 4]); // headroom 90
        inp.battery_soc = 0.4;
        inp.battery_stored_j = 19_200.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::BatteryCharge { watts } if (*watts - 90.0).abs() < 1e-9)),
            "{actions:?}"
        );
    }

    #[test]
    fn charge_capped_by_battery_rate() {
        let mut s = ShavingScheme::new();
        let mut inp = input(100.0, BudgetLevel::Medium, [0.1; 4]); // headroom 240
        inp.battery_soc = 0.1;
        inp.battery_max_charge_w = 50.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::BatteryCharge { watts } if (*watts - 50.0).abs() < 1e-9)));
    }

    #[test]
    fn stops_discharge_when_deficit_clears() {
        let mut s = ShavingScheme::new();
        let mut inp = input(250.0, BudgetLevel::Medium, [0.5; 4]);
        inp.battery_discharging_w = 340.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::BatteryDischarge { watts } if *watts == 0.0)));
    }

    #[test]
    fn full_battery_not_recharged() {
        let mut s = ShavingScheme::new();
        let inp = input(250.0, BudgetLevel::Medium, [0.5; 4]); // soc 1.0
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::BatteryCharge { .. })));
    }

    #[test]
    fn dvfs_recovers_after_calm_slots() {
        let mut s = ShavingScheme::new();
        let mut drained = input(380.0, BudgetLevel::Medium, [1.0; 4]);
        drained.battery_stored_j = 0.0;
        drained.battery_soc = 0.0;
        let mut actions = Vec::new();
        s.control(&drained, &mut actions);
        let capped = s.level;
        assert!(capped < PState(12));
        for _ in 0..3 {
            let mut calm = input(200.0, BudgetLevel::Medium, [0.3; 4]);
            calm.battery_soc = 0.0;
            calm.battery_stored_j = 0.0;
            let mut a = Vec::new();
            s.control(&calm, &mut a);
        }
        assert_eq!(s.level, PState(capped.0 + 1));
    }

    #[test]
    fn once_in_dvfs_mode_battery_only_covers_deficit() {
        let mut s = ShavingScheme::new();
        // Force DVFS mode via an empty battery…
        let mut drained = input(380.0, BudgetLevel::Medium, [1.0; 4]);
        drained.battery_stored_j = 0.0;
        drained.battery_soc = 0.0;
        s.control(&drained, &mut Vec::new());
        assert!(s.level < PState(12));
        // …then, with some charge back, a violation uses the battery for
        // the deficit (not the full demand) alongside throttling.
        let mut inp = input(380.0, BudgetLevel::Medium, [1.0; 4]);
        inp.battery_stored_j = 5_000.0;
        inp.battery_soc = 5_000.0 / 48_000.0;
        let mut actions = Vec::new();
        s.control(&inp, &mut actions);
        let discharge = actions.iter().find_map(|a| match a {
            Action::BatteryDischarge { watts } => Some(*watts),
            _ => None,
        });
        assert_eq!(discharge, Some(40.0)); // the deficit, not 380
    }
}
