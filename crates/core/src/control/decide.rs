//! **Decide** — the power-management decision (RPM Algorithm 1 and the
//! Table 2 baselines, behind [`PowerScheme`]).
//!
//! Consumes only the trusted [`ClusterView`]: the scheme never sees raw
//! sensor readings. When the filter's watchdog is engaged, the scheme's
//! differentiated plan would bind against fiction, so this stage
//! replaces it with the uniform worst-case-safe cap and parks the
//! battery until telemetry recovers.

use super::{ClusterView, Plant};
use crate::config::ClusterConfig;
use crate::scheme::{Action, ControlInput, NodeSnapshot, PowerScheme};
use netsim::request::Request;
use powercap::pstate::PState;
use simcore::SimTime;

/// Decision stage: the scheme plus the watchdog's safe fallback.
pub struct DecideStage {
    /// The power scheme under evaluation.
    pub scheme: Box<dyn PowerScheme>,
    /// Uniform state the watchdog falls back to: safe for worst-case
    /// full-load CPU-bound occupancy at the supplied budget. Present
    /// only when a fault plan (and thus the watchdog) is configured.
    pub safe_pstate: Option<PState>,
    /// Recycled [`NodeSnapshot`] buffer: loaned to [`ControlInput`] each
    /// slot and taken back afterwards, so steady-state slots build the
    /// scheme's view without allocating.
    pub(crate) snapshot_scratch: Vec<NodeSnapshot>,
}

impl DecideStage {
    /// Dataplane hook: scheme admission (Token's power bucket).
    pub(crate) fn admit(&mut self, now: SimTime, req: &Request) -> bool {
        self.scheme.admit(now, req)
    }

    /// Produce this slot's action plan from the trusted view and the
    /// plant's per-node snapshots. The suspect pool is the contiguous
    /// tail of the node range ([`crate::pdf::suspect_range`]), so the
    /// snapshot fill tests membership by range instead of scanning.
    pub(crate) fn run(
        &mut self,
        now: SimTime,
        view: &ClusterView,
        supply_w: f64,
        cfg: &ClusterConfig,
        plant: &impl Plant,
        actions: &mut Vec<Action>,
    ) {
        let suspect = crate::pdf::suspect_range(cfg.servers, cfg.suspect_pool_size);
        let mut snaps = std::mem::take(&mut self.snapshot_scratch);
        snaps.clear();
        snaps.extend((0..cfg.servers).map(|i| plant.snapshot(i, suspect.contains(&i))));
        let battery = plant.battery();
        let input = ControlInput {
            now,
            supply_w,
            demand_w: view.observed_w,
            condition: view.condition,
            nodes: snaps,
            battery_soc: battery.soc,
            battery_stored_j: battery.stored_j,
            battery_max_discharge_w: cfg.aggregate_nameplate_w(),
            battery_max_charge_w: cfg.aggregate_nameplate_w() * 0.25,
            battery_discharging_w: battery.discharge_w,
        };
        if view.watchdog_engaged {
            // Degraded mode: apply the uniform worst-case-safe cap and
            // park the battery until telemetry recovers.
            let safe = self
                .safe_pstate
                .expect("watchdog implies a fault plan and thus a safe state");
            let node_dead = plant.node_dead();
            for (i, s) in input.nodes.iter().enumerate() {
                if !node_dead[i] && s.target != safe {
                    actions.push(Action::SetPState { node: i, target: safe });
                }
            }
            if battery.discharge_w > 0.0 {
                actions.push(Action::BatteryDischarge { watts: 0.0 });
            }
            if battery.charge_w > 0.0 {
                actions.push(Action::BatteryCharge { watts: 0.0 });
            }
        } else {
            self.scheme.control(&input, actions);
        }
        self.snapshot_scratch = input.nodes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::control::{plane::BatteryObs, NodePlant};
    use crate::node::ComputeNode;
    use powercap::budget::BudgetLevel;
    use powercap::monitor::PowerCondition;
    use simcore::SimDuration;

    /// The snapshot buffer loaned to `ControlInput` must come back and
    /// be reused: after the first slot sizes it, no later slot with the
    /// same cluster may reallocate it.
    #[test]
    fn snapshot_scratch_is_reused_across_slots() {
        let cfg = ClusterConfig::paper_rack(BudgetLevel::Medium);
        let scheme = crate::scheme::build_scheme(SchemeKind::AntiDope, &cfg);
        let mut stage = DecideStage {
            scheme,
            safe_pstate: None,
            snapshot_scratch: Vec::new(),
        };
        let mut nodes: Vec<ComputeNode> = (0..cfg.servers)
            .map(|_| ComputeNode::new(SimTime::ZERO, 4, 32, SimDuration::from_secs(1)))
            .collect();
        let node_dead = vec![false; cfg.servers];
        let mut settles = Vec::new();
        let plant = NodePlant {
            nodes: &mut nodes,
            node_dead: &node_dead,
            true_power_w: 500.0,
            readings: None,
            battery: BatteryObs { soc: 1.0, stored_j: 1e5, discharge_w: 0.0, charge_w: 0.0 },
            fault: None,
            settles: &mut settles,
        };
        let view = ClusterView {
            condition: PowerCondition::Emergency,
            observed_w: 500.0,
            coverage: 1.0,
            watchdog_engaged: false,
        };
        let mut actions = Vec::new();
        stage.run(SimTime::from_secs(1), &view, cfg.supply_w(), &cfg, &plant, &mut actions);
        assert_eq!(stage.snapshot_scratch.len(), cfg.servers);
        let ptr = stage.snapshot_scratch.as_ptr();
        for s in 2..8u64 {
            actions.clear();
            stage.run(SimTime::from_secs(s), &view, cfg.supply_w(), &cfg, &plant, &mut actions);
            assert_eq!(
                stage.snapshot_scratch.as_ptr(),
                ptr,
                "slot {s} reallocated the snapshot scratch"
            );
        }
    }
}
