//! DPM — Differentiated Power Management (Algorithm 1).
//!
//! Runs at the beginning of each time-slot when the monitor reports a
//! power emergency:
//!
//! 1. Compute the mismatch `ΔP = P_demand − P_supply`.
//! 2. Batteries bridge the transition ("the transformation media for
//!    initiating differentiated power throttling") — the *scheme* layer
//!    commands the discharge; this module reports how much bridging is
//!    needed.
//! 3. Search the throttling list `TL(p, q)`: per-node P-states for the
//!    *suspect* nodes that bring predicted demand inside the supply,
//!    preferring the step-downs with the highest watts-saved per
//!    performance-lost (the "optimal throttling" search of lines 8–16).
//! 4. Spill to innocent nodes (uniformly, via the same marginal greedy)
//!    only if the suspect pool alone cannot close the gap.

use powercap::pstate::PState;
use powercap::server_power::ServerPowerModel;

/// Per-node input to the throttling search.
#[derive(Debug, Clone, Copy)]
pub struct NodeState {
    /// Busy-core fraction.
    pub utilization: f64,
    /// Resident-mix power intensity.
    pub intensity: f64,
    /// Resident-mix DVFS power sensitivity.
    pub gamma: f64,
    /// Resident-mix CPU-boundedness (for the performance cost).
    pub beta: f64,
    /// The node's current commanded P-state.
    pub current: PState,
    /// Whether this node is in the suspect pool.
    pub suspect: bool,
}

/// The throttling list: one target P-state per node.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottlePlan {
    /// Target state per node (same order as the input).
    pub states: Vec<PState>,
    /// Predicted aggregate power at the plan, watts.
    pub predicted_w: f64,
    /// Watts the battery must bridge because even the full plan cannot
    /// reach the budget (0 when the plan suffices).
    pub battery_bridge_w: f64,
    /// True if innocent nodes had to be throttled too.
    pub spilled_to_innocent: bool,
}

impl ThrottlePlan {
    fn predicted(nodes: &[NodeState], states: &[PState]) -> f64 {
        let model = ServerPowerModel::paper_default();
        nodes
            .iter()
            .zip(states)
            .map(|(n, &p)| model.power(p, n.utilization, n.intensity, n.gamma))
            .sum()
    }
}

/// Worst-case planning floor for utilization: an emergency plan must hold
/// even if a briefly-idle suspect node refills within the slot.
pub(crate) const PLANNING_MIN_UTIL: f64 = 0.9;

/// Solve Algorithm 1's throttling search.
///
/// `budget_w` is the supply the plan must fit under. Node utilizations
/// below `PLANNING_MIN_UTIL` are planned at that floor for suspect
/// nodes (attack traffic refills them within the slot); innocent nodes
/// are planned at their observed utilization.
pub fn solve(budget_w: f64, nodes: &[NodeState]) -> ThrottlePlan {
    assert!(budget_w >= 0.0);
    let model = ServerPowerModel::paper_default();
    // Planning copies with the utilization floor applied to suspects.
    let planned: Vec<NodeState> = nodes
        .iter()
        .map(|n| {
            let mut m = *n;
            if n.suspect {
                m.utilization = n.utilization.max(PLANNING_MIN_UTIL);
            }
            m
        })
        .collect();

    // Start from nominal frequency everywhere: the plan replaces, not
    // extends, previous throttling (recovery is implicit when the attack
    // stops).
    let top = model.table.max_state();
    let mut states = vec![top; planned.len()];
    let mut total = ThrottlePlan::predicted(&planned, &states);
    let mut spilled = false;

    // Pass 1: suspect nodes only; Pass 2: everyone.
    for pass in 0..2 {
        while total > budget_w + 1e-9 {
            let mut best: Option<(usize, f64, f64)> = None;
            for (i, n) in planned.iter().enumerate() {
                if pass == 0 && !n.suspect {
                    continue;
                }
                if states[i] == model.table.min_state() {
                    continue;
                }
                let down = states[i].lower();
                let now_w = model.power(states[i], n.utilization, n.intensity, n.gamma);
                let then_w = model.power(down, n.utilization, n.intensity, n.gamma);
                let dpower = now_w - then_w;
                if dpower <= 1e-12 {
                    continue;
                }
                // Performance cost: loss of service rate for the resident
                // mix, weighted by utilization (idle capacity is free).
                let rate = |p: PState| (1.0 - n.beta) + n.beta * model.table.rel_freq(p);
                let dperf = n.utilization.max(0.05) * (rate(states[i]) - rate(down));
                let ratio = dpower / dperf.max(1e-9);
                let better = match best {
                    None => true,
                    Some((_, bestratio, _)) => ratio > bestratio,
                };
                if better {
                    best = Some((i, ratio, dpower));
                }
            }
            match best {
                Some((i, _, dpower)) => {
                    states[i] = states[i].lower();
                    total -= dpower;
                }
                None => break,
            }
        }
        if total <= budget_w + 1e-9 {
            break;
        }
        if pass == 0 {
            spilled = true; // about to touch innocents
        }
    }

    // Recompute exactly (greedy tracked deltas).
    let predicted = ThrottlePlan::predicted(&planned, &states);
    ThrottlePlan {
        battery_bridge_w: (predicted - budget_w).max(0.0),
        spilled_to_innocent: spilled && states
            .iter()
            .zip(&planned)
            .any(|(s, n)| !n.suspect && *s != top),
        predicted_w: predicted,
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node(util: f64, suspect: bool) -> NodeState {
        NodeState {
            utilization: util,
            intensity: 0.95,
            gamma: 0.85,
            beta: 0.9,
            current: PState(12),
            suspect,
        }
    }

    /// The paper rack: 3 innocent + 1 suspect, all busy.
    fn rack() -> Vec<NodeState> {
        vec![
            node(0.6, false),
            node(0.6, false),
            node(0.6, false),
            node(1.0, true),
        ]
    }

    #[test]
    fn no_emergency_keeps_everyone_nominal() {
        let plan = solve(1000.0, &rack());
        assert!(plan.states.iter().all(|&s| s == PState(12)));
        assert_eq!(plan.battery_bridge_w, 0.0);
        assert!(!plan.spilled_to_innocent);
    }

    #[test]
    fn moderate_emergency_throttles_only_suspects() {
        let nodes = rack();
        let full = ThrottlePlan::predicted(
            &nodes
                .iter()
                .map(|n| {
                    let mut c = *n;
                    if c.suspect {
                        c.utilization = 1.0;
                    }
                    c
                })
                .collect::<Vec<_>>(),
            &[PState(12); 4],
        );
        // Shave 20 W: well within what one suspect node can give up.
        let plan = solve(full - 20.0, &nodes);
        assert!(plan.predicted_w <= full - 20.0 + 1e-9);
        assert!(!plan.spilled_to_innocent);
        for (i, s) in plan.states.iter().enumerate() {
            if i < 3 {
                assert_eq!(*s, PState(12), "innocent node {i} was throttled");
            } else {
                assert!(*s < PState(12), "suspect node kept nominal");
            }
        }
        assert_eq!(plan.battery_bridge_w, 0.0);
    }

    #[test]
    fn deep_emergency_spills_to_innocents() {
        let nodes = rack();
        // A budget below what flooring the single suspect can reach.
        let plan = solve(250.0, &nodes);
        assert!(plan.spilled_to_innocent);
        assert_eq!(plan.states[3], PState(0), "suspect should be floored");
        assert!(plan.states[..3].iter().any(|&s| s < PState(12)));
        assert!(plan.predicted_w <= 250.0 + 1e-9);
    }

    #[test]
    fn impossible_budget_reports_battery_bridge() {
        let plan = solve(50.0, &rack());
        // Even all-floor exceeds 50 W (idle alone is ≥ 4 × ~30 W).
        assert!(plan.states.iter().all(|&s| s == PState(0)));
        assert!(plan.battery_bridge_w > 0.0);
        assert!((plan.predicted_w - plan.battery_bridge_w - 50.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_suspect_forced_deeper() {
        // Same deficit; the K-means-like suspect (low γ) must drop more
        // states than a Colla-Filt-like one to save the same watts.
        let mk = |gamma: f64, beta: f64| {
            vec![
                node(0.5, false),
                NodeState {
                    utilization: 1.0,
                    intensity: 0.93,
                    gamma,
                    beta,
                    current: PState(12),
                    suspect: true,
                },
            ]
        };
        let cpu_nodes = mk(0.9, 0.95);
        let mem_nodes = mk(0.35, 0.4);
        let full_cpu = ThrottlePlan::predicted(&cpu_nodes, &[PState(12), PState(12)]);
        let full_mem = ThrottlePlan::predicted(&mem_nodes, &[PState(12), PState(12)]);
        let plan_cpu = solve(full_cpu - 15.0, &cpu_nodes);
        let plan_mem = solve(full_mem - 15.0, &mem_nodes);
        assert!(
            plan_mem.states[1] < plan_cpu.states[1],
            "mem {:?} vs cpu {:?}",
            plan_mem.states[1],
            plan_cpu.states[1]
        );
    }

    #[test]
    fn idle_suspect_planned_at_util_floor() {
        // A suspect node that drained between slots still gets a binding
        // plan — attack traffic will refill it within the slot.
        let nodes = vec![node(0.9, false), node(0.0, true)];
        let plan = solve(150.0, &nodes);
        // Suspect throttled despite being (momentarily) idle.
        assert!(plan.states[1] < PState(12));
    }

    /// §5.3 consistency: on a single suspect node with a homogeneous
    /// resident class, Algorithm 1's node-level search must pick the
    /// same throttle level as the Eq-1 request-control solver given the
    /// equivalent one-class problem — they are the same optimization at
    /// different granularity.
    #[test]
    fn dpm_agrees_with_request_control_on_one_node() {
        use crate::request_control::{class_from_profile, solve as rc_solve};
        let m = ServerPowerModel::paper_default();
        let (intensity, gamma, beta) = (0.95, 0.85, 0.9);
        for budget in [95.0, 88.0, 80.0, 72.0, 60.0] {
            let nodes = vec![NodeState {
                utilization: 1.0,
                intensity,
                gamma,
                beta,
                current: PState(12),
                suspect: true,
            }];
            let plan = solve(budget, &nodes);
            // Equivalent Eq-1 instance: one class of one full-node
            // request bundle whose power includes the node's idle floor.
            let mut class = class_from_profile(1.0, m.table, 60.0, intensity, gamma, beta);
            for (i, p) in m.table.states().enumerate() {
                class.power_per_level_w[i] += m.idle_power(p);
            }
            let assignment = rc_solve(budget, &[class]);
            assert_eq!(
                plan.states[0].0 as usize, assignment.levels[0],
                "budget {budget}: dpm {:?} vs eq1 level {}",
                plan.states[0], assignment.levels[0]
            );
        }
    }

    proptest! {
        /// The plan never exceeds the budget unless it reports a battery
        /// bridge, and bridge + budget always covers predicted power.
        #[test]
        fn prop_plan_accounting(
            budget in 100.0f64..450.0,
            utils in proptest::collection::vec(0.0f64..1.0, 4),
        ) {
            let nodes: Vec<NodeState> = utils
                .iter()
                .enumerate()
                .map(|(i, &u)| node(u, i == 3))
                .collect();
            let plan = solve(budget, &nodes);
            prop_assert!(plan.predicted_w <= budget + plan.battery_bridge_w + 1e-6);
            if plan.battery_bridge_w > 0.0 {
                prop_assert!(plan.states.iter().all(|&s| s == PState(0)));
            }
        }

        /// Innocent nodes are untouched whenever the suspect pool alone
        /// satisfies the budget.
        #[test]
        fn prop_suspect_first(budget_frac in 0.8f64..1.0) {
            let nodes = rack();
            let planning_full = {
                let planned: Vec<NodeState> = nodes.iter().map(|n| {
                    let mut c = *n;
                    if c.suspect { c.utilization = c.utilization.max(0.9); }
                    c
                }).collect();
                ThrottlePlan::predicted(&planned, &[PState(12); 4])
            };
            let plan = solve(planning_full * budget_frac, &nodes);
            if !plan.spilled_to_innocent {
                for (i, s) in plan.states.iter().enumerate() {
                    if !nodes[i].suspect {
                        prop_assert_eq!(*s, PState(12));
                    }
                }
            }
        }
    }
}
