//! **Act** — actuation (the paper's DPM throttling + battery
//! transition, Fig. 12).
//!
//! Routes the decision stage's [`Action`] plan to hardware: DVFS
//! P-state commands and battery discharge/charge transitions. Under
//! fault injection every command passes through the fault layer (which
//! may lose, delay, or wedge it), and commanded P-states are recorded
//! for read-back verification: a command that never took is re-issued
//! with bounded doubling backoff and abandoned after the configured
//! retry budget. Verification runs inside the shared slot function, on
//! any [`Plant`]; enacting is the engine's own.
//!
//! Every command that lands pushes its `(settle time, node)` into a
//! caller-owned buffer; the engine drains it into its event queues.

use super::{BatteryFlows, FaultLayer, Plant};
use crate::health::{ActuatorVerify, VerifyOutcome};
use crate::node::ComputeNode;
use crate::scheme::Action;
use powercap::battery::Battery;
use powercap::pstate::PState;
use simcore::faults::ActuationFault;
use simcore::SimTime;

/// Everything actuation touches, borrowed from the simulator for the
/// duration of one enact pass.
pub(crate) struct ActCtx<'a> {
    /// The compute nodes (DVFS targets).
    pub nodes: &'a mut [ComputeNode],
    /// Dead-node mask: crashed nodes are not actuated.
    pub node_dead: &'a [bool],
    /// The battery.
    pub battery: &'a mut Battery,
    /// Granted battery flows, updated in place.
    pub flows: &'a mut BatteryFlows,
    /// Fault layer, when configured.
    pub fault: Option<&'a mut FaultLayer>,
}

/// Actuation stage: command issue plus read-back verification.
pub struct ActStage {
    /// Read-back verifier, present only under fault injection.
    pub verify: Option<ActuatorVerify>,
    /// Recycled retry list for [`Self::sweep`] — cleared every pass so
    /// the steady-state slot path allocates nothing.
    pub(crate) retry_scratch: Vec<(usize, PState)>,
}

impl ActStage {
    /// Read-back verification: re-command actuations whose target never
    /// took (a lost command or a stuck governor), with bounded doubling
    /// backoff, through the plant's retry hook. `check` rearms the
    /// intent in place, so a retry must NOT re-record it — that would
    /// reset the budget. The slot's retries are left in
    /// `retry_scratch`.
    pub(crate) fn sweep(&mut self, now: SimTime, plant: &mut impl Plant) {
        let Some(verify) = self.verify.as_mut() else {
            return;
        };
        self.retry_scratch.clear();
        for (i, &dead) in plant.node_dead().iter().enumerate() {
            let Some(commanded) = plant.readback(i).filter(|_| !dead) else {
                continue;
            };
            if let VerifyOutcome::Retry(target) = verify.check(i, commanded, now) {
                self.retry_scratch.push((i, target));
            }
        }
        for &(node, target) in &self.retry_scratch {
            plant.retry(now, node, target);
        }
    }

    /// Record the plan's per-node commands as the intents next slot's
    /// read-back checks, skipping dead nodes (they are not actuated).
    pub(crate) fn record_intents(&mut self, now: SimTime, actions: &[Action], node_dead: &[bool]) {
        let Some(verify) = self.verify.as_mut() else {
            return;
        };
        for a in actions {
            if let Action::SetPState { node, target } = *a {
                if !node_dead[node] {
                    verify.record(node, target, now);
                }
            }
        }
    }

    /// Drop any outstanding intent (the node crashed or rebooted).
    pub(crate) fn clear_node(&mut self, node: usize) {
        if let Some(verify) = self.verify.as_mut() {
            verify.clear(node);
        }
    }
}

/// Enact one slot's action plan on the engine's nodes and battery,
/// draining `actions` (a recycled per-slot buffer owned by the
/// pipeline) in the process.
pub(crate) fn enact(
    now: SimTime,
    actions: &mut Vec<Action>,
    mut ctx: ActCtx<'_>,
    settles: &mut Vec<(SimTime, usize)>,
) {
    for action in actions.drain(..) {
        match action {
            Action::SetPState { node, target } => {
                if ctx.fault.is_some() && ctx.node_dead[node] {
                    continue; // don't actuate a crashed node
                }
                issue_pstate(now, node, target, ctx.nodes, ctx.fault.as_deref_mut(), settles);
            }
            Action::BatteryDischarge { watts } => {
                let grant = ctx.battery.start_discharge(now, watts);
                ctx.flows.discharge_w = grant;
                ctx.flows.charge_w = 0.0;
            }
            Action::BatteryCharge { watts } => {
                // A failed charger blocks real charge commands; a
                // zero-watt command is a stop and needs no charger.
                if watts > 0.0 {
                    if let Some(f) = ctx.fault.as_deref_mut() {
                        if f.charger_failed(now) {
                            f.charger_blocked_slots += 1;
                            continue;
                        }
                    }
                }
                let drawn = ctx.battery.start_charge(now, watts);
                ctx.flows.charge_w = drawn;
                ctx.flows.discharge_w = 0.0;
            }
        }
    }
}

/// Route a P-state command through the fault layer (when active) and
/// queue its settle. A lost or stuck command leaves the node
/// untouched — read-back verification catches it next slot.
pub(crate) fn issue_pstate(
    now: SimTime,
    node: usize,
    target: PState,
    nodes: &mut [ComputeNode],
    fault: Option<&mut FaultLayer>,
    settles: &mut Vec<(SimTime, usize)>,
) {
    match fault.map(|f| f.actuate(now, node)) {
        None | Some(ActuationFault::Clean) => {
            let settle = nodes[node].command_pstate(now, target);
            settles.push((settle, node));
        }
        Some(ActuationFault::Delayed(extra)) => {
            let settle = nodes[node].command_pstate_after(now, target, extra);
            settles.push((settle, node));
        }
        Some(ActuationFault::Lost | ActuationFault::Stuck) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::plane::BatteryObs;
    use crate::control::NodePlant;
    use powercap::pstate::PStateTable;
    use simcore::faults::{FaultConfig, ShardFaultPlan};
    use simcore::rng::RngFactory;
    use simcore::SimDuration;

    /// A fault layer over a one-node cluster.
    fn fault_layer(cfg: FaultConfig) -> FaultLayer {
        FaultLayer::new(ShardFaultPlan::new(cfg, 1, &RngFactory::new(7)).unwrap())
    }

    fn lossy_fault_layer() -> FaultLayer {
        fault_layer(FaultConfig {
            actuator_loss_p: 1.0, // every command vanishes
            ..FaultConfig::default()
        })
    }

    fn node() -> ComputeNode {
        ComputeNode::new(SimTime::ZERO, 4, 64, SimDuration::from_secs(1))
    }

    const BATTERY: BatteryObs =
        BatteryObs { soc: 1.0, stored_j: 0.0, discharge_w: 0.0, charge_w: 0.0 };

    /// The engine's slot order for one node: record the plan's intents,
    /// then enact it.
    fn command(
        stage: &mut ActStage,
        plan: Vec<Action>,
        nodes: &mut [ComputeNode],
        fault: Option<&mut FaultLayer>,
        settles: &mut Vec<(SimTime, usize)>,
    ) {
        let node_dead = [false];
        stage.record_intents(SimTime::ZERO, &plan, &node_dead);
        let mut battery = Battery::sized_for(SimTime::ZERO, 400.0, SimDuration::from_secs(60));
        let ctx = ActCtx {
            nodes,
            node_dead: &node_dead,
            battery: &mut battery,
            flows: &mut BatteryFlows::default(),
            fault,
        };
        enact(SimTime::ZERO, &mut { plan }, ctx, settles);
    }

    /// A read-back sweep at `t` over one live node.
    fn sweep(
        stage: &mut ActStage,
        t: u64,
        nodes: &mut [ComputeNode],
        fault: &mut FaultLayer,
        settles: &mut Vec<(SimTime, usize)>,
    ) {
        let mut plant = NodePlant {
            nodes,
            node_dead: &[false],
            true_power_w: 0.0,
            readings: None,
            battery: BATTERY,
            fault: Some(fault),
            settles,
        };
        stage.sweep(SimTime::from_secs(t), &mut plant);
    }

    #[test]
    fn abandons_actuation_after_max_retries() {
        let max_retries = 3u8;
        let mut stage = ActStage {
            verify: Some(ActuatorVerify::new(1, max_retries, SimDuration::from_secs(1))),
            retry_scratch: Vec::new(),
        };
        let mut nodes = vec![node()];
        let mut fault = lossy_fault_layer();
        let top = PStateTable::paper_default().max_state();

        // Command a throttle; the fault layer loses it.
        let mut settles = Vec::new();
        let plan = vec![Action::SetPState { node: 0, target: PState(4) }];
        command(&mut stage, plan, &mut nodes, Some(&mut fault), &mut settles);
        assert_eq!(nodes[0].target_pstate(), top, "lost command must not land");
        assert!(settles.is_empty(), "a lost command settles nothing");

        // Read-back sweeps: each retry is re-lost; after the budget is
        // spent the intent is abandoned, not retried forever. Backoff
        // doubles from 1 s, so retries fall due at t = 1, 3, 7 and the
        // give-up at t = 15.
        for t in [1u64, 3, 7, 15, 31] {
            sweep(&mut stage, t, &mut nodes, &mut fault, &mut settles);
        }
        let verify = stage.verify.as_ref().unwrap();
        assert_eq!(verify.retries(), max_retries as u64);
        assert_eq!(verify.giveups(), 1, "intent abandoned after the budget");
        assert_eq!(verify.confirmed(), 0);
        assert_eq!(nodes[0].target_pstate(), top, "node stayed wedged");
    }

    #[test]
    fn confirmed_actuation_needs_no_retry() {
        let mut stage = ActStage {
            verify: Some(ActuatorVerify::new(1, 3, SimDuration::from_secs(1))),
            retry_scratch: Vec::new(),
        };
        let mut nodes = vec![node()];
        let mut settles = Vec::new();
        // No fault layer: the command lands cleanly.
        let plan = vec![Action::SetPState { node: 0, target: PState(4) }];
        command(&mut stage, plan, &mut nodes, None, &mut settles);
        assert_eq!(nodes[0].target_pstate(), PState(4));
        assert_eq!(settles.len(), 1, "the landed command queues its settle");
        let mut clean = fault_layer(FaultConfig::default());
        sweep(&mut stage, 1, &mut nodes, &mut clean, &mut settles);
        let verify = stage.verify.as_ref().unwrap();
        assert_eq!(verify.confirmed(), 1);
        assert_eq!((verify.retries(), verify.giveups()), (0, 0));
    }
}
