//! Uniform cluster capping search — the primitive behind the paper's
//! `Capping` baseline.
//!
//! Given per-server estimated power as a function of a *common* P-state,
//! find the highest uniform P-state whose aggregate stays within the
//! budget. "Blindly decreases the executing V/F of all the requests"
//! (Section 6.5) is exactly this search applied cluster-wide.

use crate::pstate::{PState, PStateTable};

/// Per-server inputs to the uniform capping search.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// Busy-core fraction in `[0, 1]`.
    pub utilization: f64,
    /// Aggregate power intensity of the resident workload in `[0, 1]`.
    pub intensity: f64,
    /// Aggregate DVFS power sensitivity of the resident workload.
    pub gamma: f64,
}

/// Uniform capper over a homogeneous cluster.
#[derive(Debug, Clone)]
pub struct UniformCapper {
    model: crate::server_power::ServerPowerModel,
}

impl UniformCapper {
    /// Capper over servers sharing `model`.
    pub fn new(model: crate::server_power::ServerPowerModel) -> Self {
        UniformCapper { model }
    }

    /// Predicted aggregate power if every server ran at state `p`.
    pub fn aggregate_power(&self, p: PState, loads: &[ServerLoad]) -> f64 {
        loads
            .iter()
            .map(|l| self.model.power(p, l.utilization, l.intensity, l.gamma))
            .sum()
    }

    /// The highest uniform state meeting `budget_w`, or the floor state
    /// if none does (the caller must then shed load or use batteries).
    pub fn state_for_budget(&self, budget_w: f64, loads: &[ServerLoad]) -> PState {
        let table: &PStateTable = &self.model.table;
        for i in (0..table.len()).rev() {
            let p = PState(i as u8);
            if self.aggregate_power(p, loads) <= budget_w + 1e-9 {
                return p;
            }
        }
        table.min_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_power::ServerPowerModel;
    use proptest::prelude::*;

    fn capper() -> UniformCapper {
        UniformCapper::new(ServerPowerModel::paper_default())
    }

    fn busy(n: usize) -> Vec<ServerLoad> {
        vec![
            ServerLoad {
                utilization: 1.0,
                intensity: 1.0,
                gamma: 0.9,
            };
            n
        ]
    }

    #[test]
    fn full_cluster_at_nameplate() {
        let c = capper();
        let loads = busy(4);
        let top = c.model.table.max_state();
        assert!((c.aggregate_power(top, &loads) - 400.0).abs() < 1e-6);
    }

    #[test]
    fn generous_budget_keeps_nominal() {
        let c = capper();
        let loads = busy(4);
        assert_eq!(c.state_for_budget(400.0, &loads), PState(12));
    }

    #[test]
    fn tight_budget_steps_down_minimally() {
        let c = capper();
        let loads = busy(4);
        let p = c.state_for_budget(340.0, &loads); // Medium-PB on 4×100 W
        assert!(p < PState(12));
        assert!(c.aggregate_power(p, &loads) <= 340.0 + 1e-9);
        // Minimality: one step up violates.
        assert!(c.aggregate_power(PState(p.0 + 1), &loads) > 340.0);
    }

    #[test]
    fn infeasible_budget_floors() {
        let c = capper();
        let loads = busy(4);
        let p = c.state_for_budget(50.0, &loads);
        assert_eq!(p, PState(0));
        assert!(c.aggregate_power(p, &loads) > 50.0);
    }

    #[test]
    fn idle_servers_cost_only_idle_power() {
        let c = capper();
        let loads = vec![
            ServerLoad {
                utilization: 0.0,
                intensity: 1.0,
                gamma: 0.9,
            };
            4
        ];
        let top = c.model.table.max_state();
        assert!((c.aggregate_power(top, &loads) - 160.0).abs() < 1e-6);
        assert_eq!(c.state_for_budget(200.0, &loads), top);
    }

    proptest! {
        #[test]
        fn prop_chosen_state_is_maximal_feasible(
            budget in 100.0f64..500.0,
            utils in proptest::collection::vec(0.0f64..1.0, 4),
        ) {
            let c = capper();
            let loads: Vec<ServerLoad> = utils
                .iter()
                .map(|&u| ServerLoad { utilization: u, intensity: 0.9, gamma: 0.8 })
                .collect();
            let p = c.state_for_budget(budget, &loads);
            let power = c.aggregate_power(p, &loads);
            if power <= budget + 1e-9 && p != c.model.table.max_state() {
                prop_assert!(c.aggregate_power(PState(p.0 + 1), &loads) > budget - 1e-6);
            }
        }
    }
}
