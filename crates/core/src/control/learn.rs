//! **Learn** — online power attribution (the offline-profiling half of
//! the paper's PDF, Section 5.1, made online).
//!
//! Feeds each live node's (power, utilization, in-flight URL mix)
//! observation to the EW-RLS attribution engine once per control slot;
//! the cluster engine republishes the suspect classes into the NLB's
//! adaptive forwarding policy whenever the list changes. The forwarding
//! hot path never pays for learning — it is amortized here, into the
//! control slot.

use super::{Plant, UrlMix};
use crate::node::ComputeNode;
use netsim::request::UrlId;
use powercap::server_power::ServerPowerModel;
use profiler::{MixTracker, PowerProfiler, ProfilerConfig, ProfilerReport};

/// Normalize a throttled node's reading to its nominal-equivalent by
/// inverting the hardware-calibrated power model: P = idle(p) +
/// u^e·I·s(p,γ)·H is linear in the mix intensity I at *every* P-state,
/// so learning continues while DVFS throttles — which is exactly when
/// attribution matters most. Only the per-URL intensities stay unknown;
/// the server power curve is the operator's.
///
/// Shared by the engine's [`Plant`] and the trace recorder (the
/// recorded `learn_power_w` must be bit-identical to what the engine's
/// own pass computed).
pub(crate) fn normalized_power(node: &ComputeNode, power_w: Option<f64>) -> Option<f64> {
    let (_, _, gamma) = node.load_character();
    let state = node.effective_pstate();
    let model = ServerPowerModel::paper_default();
    if state == model.table.max_state() {
        power_w
    } else {
        let s = model.dvfs_factor(state, gamma);
        power_w
            .filter(|_| s > 1e-6)
            .map(|w| model.idle_w + (w - model.idle_power(state)) / s)
    }
}

/// Online-attribution stage: the RLS engine plus the per-node in-flight
/// mix it learns from.
pub struct LearnStage {
    /// The attribution engine (EW-RLS over URL intensities).
    pub engine: PowerProfiler,
    /// Per-node in-flight URL mix, maintained by the dataplane.
    pub mix: MixTracker,
    /// Scratch: the mix of the node being learned from.
    node_mix: UrlMix,
}

impl LearnStage {
    /// A fresh profiler over `servers` nodes with empty mixes.
    pub(crate) fn new(cfg: &ProfilerConfig, servers: usize) -> Self {
        LearnStage {
            engine: PowerProfiler::new(cfg.clone()),
            mix: MixTracker::new(servers),
            node_mix: UrlMix::new(),
        }
    }

    /// One learning pass over the plant's live nodes, using the same
    /// (possibly degraded) readings the control plane saw — sensing
    /// twice would consume fault-layer randomness and break replay
    /// identity. Returns true when the suspect classes changed; the
    /// engine then republishes them into its NLB.
    pub(crate) fn run(&mut self, plant: &impl Plant) -> bool {
        for (i, &dead) in plant.node_dead().iter().enumerate() {
            if dead {
                continue;
            }
            let (power_w, utilization) = plant.learn_obs(i, &self.mix, &mut self.node_mix);
            self.engine
                .observe_node(power_w, utilization, true, &self.node_mix);
        }
        self.engine.end_tick()
    }

    /// Dataplane hook: a request was dispatched to `node`.
    pub(crate) fn on_dispatch(&mut self, node: usize, url: UrlId) {
        self.mix.add(node, url);
    }

    /// Dataplane hook: a request finished on `node`.
    pub(crate) fn on_complete(&mut self, node: usize, url: UrlId) {
        self.mix.remove(node, url);
    }

    /// A node lost its queue (crash, reboot, outage): its in-flight mix
    /// is gone.
    pub(crate) fn forget_node(&mut self, node: usize) {
        self.mix.clear_node(node);
    }

    /// The engine's final report.
    pub fn report(&self) -> ProfilerReport {
        self.engine.report()
    }
}
