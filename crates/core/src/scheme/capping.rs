//! `Capping` — the DVFS-only baseline.
//!
//! "Represents the traditional data center designs that only use
//! performance scaling mechanisms to cap power peaks" (Table 2). On a
//! budget violation it lowers a single *uniform* P-state across every
//! node — blind to which requests caused the peak — and recovers one
//! step at a time after a hysteresis window.

use super::{Action, ControlInput, PowerScheme, RECOVERY_GUARD, RECOVERY_SLOTS};
use powercap::monitor::PowerCondition;
use powercap::pstate::PState;
use powercap::server_power::{ServerLoad, ServerPowerModel};

/// The uniform-DVFS capping baseline.
#[derive(Debug)]
pub(crate) struct CappingScheme {
    /// Current uniform level commanded to all nodes.
    level: PState,
    /// Consecutive comfortable slots (for recovery hysteresis).
    calm_slots: u32,
    top: PState,
}

impl Default for CappingScheme {
    fn default() -> Self {
        Self::new()
    }
}

impl CappingScheme {
    /// New capper at nominal frequency.
    pub(crate) fn new() -> Self {
        let top = ServerPowerModel::paper_default().table.max_state();
        CappingScheme {
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
                // Plan with a utilization floor: a momentarily-drained
                // node refills within the slot during an attack.
                utilization: n.utilization.max(0.5),
                intensity: if n.intensity > 0.0 { n.intensity } else { 0.9 },
                gamma: if n.gamma > 0.0 { n.gamma } else { 0.8 },
            })
            .collect()
    }

    fn command_all(&self, input: &ControlInput, actions: &mut Vec<Action>, level: PState) {
        for (i, n) in input.nodes.iter().enumerate() {
            if n.target != level {
                actions.push(Action::SetPState {
                    node: i,
                    target: level,
                });
            }
        }
    }
}

impl PowerScheme for CappingScheme {
    fn name(&self) -> &'static str {
        "Capping"
    }

    fn control(&mut self, input: &ControlInput, actions: &mut Vec<Action>) {
        match input.condition {
            PowerCondition::Emergency | PowerCondition::Transient => {
                self.calm_slots = 0;
                let loads = Self::loads(input);
                let target =
                    ServerPowerModel::paper_default().state_for_budget(input.supply_w, &loads);
                // Only ever move down in an emergency.
                if target < self.level {
                    self.level = target;
                }
                self.command_all(input, actions, self.level);
            }
            PowerCondition::NearBudget => {
                self.calm_slots = 0;
                self.command_all(input, actions, self.level);
            }
            PowerCondition::Nominal => {
                if self.level < self.top {
                    self.calm_slots += 1;
                    if self.calm_slots >= RECOVERY_SLOTS {
                        // Step up one level if the predicted power at the
                        // next level keeps a guard margin.
                        let next = powercap::pstate::PState(self.level.0 + 1);
                        let predicted = ServerPowerModel::paper_default()
                            .aggregate_power(next, &Self::loads(input));
                        if predicted <= input.supply_w * (1.0 - RECOVERY_GUARD) {
                            self.level = next;
                            self.calm_slots = 0;
                        }
                    }
                }
                self.command_all(input, actions, self.level);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::input;
    use super::*;
    use powercap::budget::BudgetLevel;

    fn run_slot(s: &mut CappingScheme, demand: f64, level: BudgetLevel) -> Vec<Action> {
        let mut actions = Vec::new();
        s.control(&input(demand, level, [1.0; 4]), &mut actions);
        actions
    }

    #[test]
    fn under_budget_stays_nominal() {
        let mut s = CappingScheme::new();
        let actions = run_slot(&mut s, 250.0, BudgetLevel::Medium);
        assert!(actions.is_empty(), "no commands needed: {actions:?}");
        assert_eq!(s.level, PState(12));
    }

    #[test]
    fn violation_caps_everyone_uniformly() {
        let mut s = CappingScheme::new();
        let actions = run_slot(&mut s, 395.0, BudgetLevel::Medium); // supply 340
        assert_eq!(actions.len(), 4, "all nodes commanded");
        let levels: Vec<PState> = actions
            .iter()
            .map(|a| match a {
                Action::SetPState { target, .. } => *target,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(levels.iter().all(|&l| l == levels[0]), "non-uniform");
        assert!(levels[0] < PState(12));
    }

    #[test]
    fn recovery_needs_hysteresis() {
        let mut s = CappingScheme::new();
        run_slot(&mut s, 395.0, BudgetLevel::Medium);
        let capped = s.level;
        // Calm slots with genuinely light load (snapshots must agree
        // with the low demand, as they do in a real run).
        let calm = |s: &mut CappingScheme| {
            let mut actions = Vec::new();
            s.control(&input(200.0, BudgetLevel::Medium, [0.3; 4]), &mut actions);
        };
        // One calm slot is not enough.
        calm(&mut s);
        assert_eq!(s.level, capped);
        calm(&mut s);
        calm(&mut s);
        assert_eq!(s.level, PState(capped.0 + 1), "stepped up after {RECOVERY_SLOTS} calm slots");
    }

    #[test]
    fn near_budget_freezes_level() {
        let mut s = CappingScheme::new();
        run_slot(&mut s, 395.0, BudgetLevel::Medium);
        let capped = s.level;
        for _ in 0..10 {
            run_slot(&mut s, 335.0, BudgetLevel::Medium); // in guard band
        }
        assert_eq!(s.level, capped, "must not step up inside the guard band");
    }

    #[test]
    fn level_never_rises_during_emergency() {
        let mut s = CappingScheme::new();
        run_slot(&mut s, 500.0, BudgetLevel::Low);
        let deep = s.level;
        run_slot(&mut s, 345.0, BudgetLevel::Low); // still over 320 W supply
        assert!(s.level <= deep);
    }

    #[test]
    fn never_commands_battery() {
        let mut s = CappingScheme::new();
        let actions = run_slot(&mut s, 500.0, BudgetLevel::Low);
        assert!(actions
            .iter()
            .all(|a| matches!(a, Action::SetPState { .. })));
    }
}
