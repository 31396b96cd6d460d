//! The staged power control plane.
//!
//! The paper's RPM is explicitly a pipeline — power monitor → health
//! checker → battery transition → DPM throttling (Fig. 12 /
//! Algorithm 1). This module makes that decomposition structural: each
//! box is a stage struct with typed dataflow between them, and one
//! crate-private slot function, `ControlPipeline::run_slot`, drives the
//! decision half of them once per control slot for every backend:
//!
//! ```text
//! engine:  physics ─► Sense ─┐                        ┌─► Act ─► Account
//!                            ▼                        │
//! run_slot: forgets ─► Filter ─► Learn ─► read-back sweep ─► Decide
//!           ─► rack guard (holds, blackout pins) ─► record intents
//!                            ▲                        │
//! daemon:  transport ─► hold ┘                        └─► transport
//! ```
//!
//! `run_slot` reads the plant through a crate-private `Plant` trait:
//! the engine's nodes, or one [`plane::PlaneSample`], which the live
//! daemon hands to [`ControlPipeline::run_sample`].
//!
//! * `SenseStage` — read per-node power, through the fault layer when
//!   one is configured (the paper's power monitor inputs).
//! * `FilterStage` — staleness-aware telemetry estimation + coverage
//!   watchdog + the [`PowerMonitor`] itself (the paper's power monitor +
//!   health checker).
//! * `LearnStage` — the online power-attribution profiler; the engine
//!   hot-swaps its suspect classes into the NLB (the offline-profiling
//!   half of PDF, made online).
//! * `DecideStage` — the [`PowerScheme`] control call (RPM Algorithm 1
//!   / the baselines of Table 2).
//! * `ActStage` — read-back verification, and on the engine DVFS /
//!   battery actuation (the paper's DPM throttling + battery
//!   transition).
//! * `AccountStage` — exact energy metering, thermal RC integration,
//!   and the breaker model (the oversubscription physics of Figs. 1 and
//!   19).
//!
//! Adding a scheme, a telemetry filter, or an actuation path is now a
//! single-stage change instead of an edit to one interleaved function.

pub(crate) mod account;
pub(crate) mod act;
pub(crate) mod decide;
pub(crate) mod filter;
pub(crate) mod learn;
pub mod plane;
pub(crate) mod sense;

use crate::config::ClusterConfig;
use crate::health::{ActuatorVerify, TelemetryHealth, Watchdog};
use crate::node::ComputeNode;
use crate::scheme::{Action, NodeSnapshot, PowerScheme};
use netsim::request::UrlId;
use powercap::budget::PowerBudget;
use powercap::monitor::PowerCondition;
use powercap::monitor::PowerMonitor;
use powercap::Breaker;
use powercap::pstate::PState;
use powercap::server_power::ServerPowerModel;
use powercap::thermal::ThermalNode;
use profiler::MixTracker;
use simcore::faults::{ActuationFault, FaultConfig, FaultCounts, ShardFaultPlan};
use simcore::SimTime;

/// The worst-case uniform cap: the highest P-state at which full-load
/// CPU-bound occupancy on each of `servers` nodes fits `budget_w`.
///
/// It is what [`ServerPowerModel::state_for_budget`] picks for
/// `servers` copies of that load, bit for bit, without building them:
/// the model is evaluated once per state, and the copies are summed
/// node by node only when the sum's rounding could decide the verdict.
pub(crate) fn safe_pstate(budget_w: f64, servers: usize) -> PState {
    let model = ServerPowerModel::paper_default();
    let cap = budget_w + 1e-9;
    let n = servers as f64;
    let fits = |node_w: f64| {
        // `n` equal positive terms summed one at a time land within
        // (n - 1)·2^-53 of `n · node_w`, relatively (Higham, *Accuracy
        // and Stability of Numerical Algorithms*, eq. 4.4); the product
        // itself is off by at most 2^-53. Outside a band four times as
        // wide the product decides.
        let approx = n * node_w;
        let band = 2.0 * n * f64::EPSILON * approx;
        if approx - band > cap {
            false
        } else if approx + band <= cap {
            true
        } else {
            std::iter::repeat_n(node_w, servers).sum::<f64>() <= cap
        }
    };
    (0..model.table.len())
        .rev()
        .map(|i| PState(i as u8))
        .find(|&p| fits(model.full_load_power(p, 1.0, 0.9)))
        .unwrap_or(model.table.min_state())
}

/// What the filter stage produces: the trusted view of the cluster that
/// the decision stage is allowed to act on. Control traces record it as
/// is (the parity harness byte-compares these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterView {
    /// The monitor's verdict on the filtered power estimate.
    pub condition: PowerCondition,
    /// The power estimate the monitor judged, watts.
    pub observed_w: f64,
    /// Fraction of alive nodes with a fresh sensor reading this slot.
    pub coverage: f64,
    /// True when coverage fell below the watchdog floor: the scheme's
    /// differentiated plan must be replaced by the uniform safe cap.
    pub watchdog_engaged: bool,
}

/// Battery power flows as granted by the last actuation, watts.
///
/// Split out of the simulator so the stages that read them (Decide,
/// Account) and the ones that write them (Act, the battery integration)
/// share one typed value instead of two loose floats.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatteryFlows {
    /// Discharge into the load.
    pub discharge_w: f64,
    /// Charge drawn from the utility.
    pub charge_w: f64,
}

/// Fault-injection environment shared by the stages: one seeded plan
/// over every node (consumed by Sense for readings, Act for actuations,
/// and the crash / charger paths) plus the cumulative counters the final
/// report needs. Present only when the experiment configures a fault
/// plan.
///
/// Each node draws from its own stream, keyed by its global index, so
/// draw order between nodes is irrelevant and reports stay
/// byte-identical at any shard count. All methods take **global** node
/// indices.
pub(crate) struct FaultLayer {
    /// The plan over nodes `0..servers`.
    plan: ShardFaultPlan,
    /// In-flight requests lost to node crashes.
    pub(crate) lost_to_crash: u64,
    /// Charge actions refused by a failed charger.
    pub(crate) charger_blocked_slots: u64,
    /// Rejections accumulated on nodes that were since replaced by a
    /// reboot (their counters restart at zero).
    pub(crate) retired_rejected: u64,
    /// DVFS transitions accumulated on since-replaced nodes.
    pub(crate) retired_transitions: u64,
}

impl FaultLayer {
    /// The layer over one plan covering every node.
    pub(crate) fn new(plan: ShardFaultPlan) -> Self {
        FaultLayer {
            plan,
            lost_to_crash: 0,
            charger_blocked_slots: 0,
            retired_rejected: 0,
            retired_transitions: 0,
        }
    }

    /// Sensor reading for `node` whose true draw is `true_w`.
    pub(crate) fn sense(&mut self, now: SimTime, node: usize, true_w: f64) -> Option<f64> {
        self.plan.sense(now, node, true_w)
    }

    /// Actuation outcome for a command issued to `node`.
    pub(crate) fn actuate(&mut self, now: SimTime, node: usize) -> ActuationFault {
        self.plan.actuate(now, node)
    }

    /// Whether a crash is due on `node` right now.
    pub(crate) fn crash_due(&mut self, now: SimTime, node: usize) -> bool {
        self.plan.crash_due(now, node)
    }

    /// Record a completed reboot of `node`.
    pub(crate) fn record_reboot(&mut self) {
        self.plan.record_reboot();
    }

    /// Whether the battery charger is failed at `now`.
    pub(crate) fn charger_failed(&self, now: SimTime) -> bool {
        self.plan.charger_failed(now)
    }

    /// The shared fault configuration.
    pub(crate) fn config(&self) -> &FaultConfig {
        self.plan.config()
    }

    /// Cumulative injection counters.
    pub(crate) fn counts(&self) -> FaultCounts {
        self.plan.counts()
    }
}

/// A node's in-flight URL mix, `(url, count)` sorted by URL.
pub(crate) type UrlMix = Vec<(UrlId, u32)>;

/// What one control slot reads of the plant it controls, plus the one
/// command it issues before deciding: the read-back retry.
pub(crate) trait Plant {
    /// Forget events that became visible since the previous slot. The
    /// engine applies its own as they happen and reports none.
    fn forgets(&self) -> &[plane::Forget] {
        &[]
    }
    /// Ground-truth aggregate load power, watts.
    fn true_power_w(&self) -> f64;
    /// Per-node sensed readings (`None` = no reading), present only
    /// when sensors are read individually (hardened mode).
    fn readings(&self) -> Option<&[Option<f64>]>;
    /// Dead-node mask (crashed, tripped, or rack-dark).
    fn node_dead(&self) -> &[bool];
    /// Node `i`'s attribution input: nominal-equivalent power and
    /// utilization, with its in-flight URL mix (from `tracker`, for
    /// plants that keep none of their own) written to `mix`.
    fn learn_obs(&self, i: usize, tracker: &MixTracker, mix: &mut UrlMix) -> (Option<f64>, f64);
    /// Node `i`'s commanded P-state as read back before this slot's
    /// retry sweep; `None` when the plant delivers no read-back.
    fn readback(&self, i: usize) -> Option<PState>;
    /// Re-issue a command the read-back sweep found missing. Runs
    /// before the snapshot fill, so Decide sees post-sweep targets.
    fn retry(&mut self, now: SimTime, node: usize, target: PState);
    /// Node `i`'s view for the scheme.
    fn snapshot(&self, i: usize, suspect: bool) -> NodeSnapshot;
    /// Node `i`'s currently commanded P-state (post-sweep).
    fn target(&self, i: usize) -> PState;
    /// The battery as observed this slot.
    fn battery(&self) -> plane::BatteryObs;
}

/// The engine's [`Plant`]: reads the simulator's nodes in place, with
/// no per-slot allocation, and issues read-back retries through the
/// fault layer.
pub(crate) struct NodePlant<'a> {
    pub nodes: &'a mut [ComputeNode],
    pub node_dead: &'a [bool],
    pub true_power_w: f64,
    /// Per-node sensor readings from Sense, under fault injection.
    pub readings: Option<&'a [Option<f64>]>,
    pub battery: plane::BatteryObs,
    pub fault: Option<&'a mut FaultLayer>,
    pub settles: &'a mut Vec<(SimTime, usize)>,
}

impl Plant for NodePlant<'_> {
    fn true_power_w(&self) -> f64 {
        self.true_power_w
    }

    fn readings(&self) -> Option<&[Option<f64>]> {
        self.readings
    }

    fn node_dead(&self) -> &[bool] {
        self.node_dead
    }

    fn learn_obs(&self, i: usize, tracker: &MixTracker, mix: &mut UrlMix) -> (Option<f64>, f64) {
        let n = &self.nodes[i];
        let reading = match self.readings {
            Some(r) => r[i],
            None => Some(n.power_w()),
        };
        tracker.mix_into(i, mix);
        (learn::normalized_power(n, reading), n.load_character().0)
    }

    fn readback(&self, i: usize) -> Option<PState> {
        Some(self.nodes[i].target_pstate())
    }

    fn retry(&mut self, now: SimTime, node: usize, target: PState) {
        act::issue_pstate(now, node, target, self.nodes, self.fault.as_deref_mut(), self.settles);
    }

    fn snapshot(&self, i: usize, suspect: bool) -> NodeSnapshot {
        let n = &self.nodes[i];
        let (utilization, intensity, gamma) = n.load_character();
        NodeSnapshot {
            utilization,
            intensity,
            gamma,
            beta: n.mean_beta(),
            target: n.target_pstate(),
            suspect,
        }
    }

    fn target(&self, i: usize) -> PState {
        self.nodes[i].target_pstate()
    }

    fn battery(&self) -> plane::BatteryObs {
        self.battery
    }
}

/// The assembled control plane: one struct per stage, driven by one
/// slot function at every slot boundary of the cluster engine and, via
/// [`Self::run_sample`], at every tick of the live daemon.
pub struct ControlPipeline {
    /// Telemetry acquisition.
    pub(crate) sense: sense::SenseStage,
    /// Telemetry trust: estimation, watchdog, monitor.
    pub(crate) filter: filter::FilterStage,
    /// Online power attribution, when configured.
    pub(crate) learn: Option<learn::LearnStage>,
    /// The power scheme.
    pub(crate) decide: decide::DecideStage,
    /// Actuation with read-back verification.
    pub(crate) act: act::ActStage,
    /// Energy / thermal / breaker integration.
    pub(crate) account: account::AccountStage,
    /// Recycled per-slot action plan: filled by Decide, drained by Act.
    pub(crate) actions: Vec<Action>,
    /// Recycled thermal-trip list for the accountant's slot pass.
    pub(crate) tripped: Vec<usize>,
    /// The hierarchical power topology, when configured: per-level
    /// budgets/breakers, the top-down allocator, and the rack guard
    /// (with blackout pins when hardened).
    pub(crate) topology: Option<crate::topology::TopologyState>,
}

impl ControlPipeline {
    /// Assemble the pipeline for a validated cluster config. `hardened`
    /// is true when a fault plan is configured: it switches on telemetry
    /// filtering, the watchdog, read-back verification, and the uniform
    /// safe fallback. `idle_power_w` seeds the energy meter and power
    /// series with the cluster's t=0 draw.
    pub(crate) fn new(
        cfg: &ClusterConfig,
        scheme: Box<dyn PowerScheme>,
        start: SimTime,
        hardened: bool,
        idle_power_w: f64,
    ) -> Self {
        let budget = PowerBudget::for_cluster(cfg.aggregate_nameplate_w(), cfg.budget);
        let monitor =
            PowerMonitor::new(budget, 1).expect("hard-coded monitor parameters are valid");
        let hardening = hardened.then(|| filter::Hardening {
            telemetry: TelemetryHealth::new(
                cfg.servers,
                cfg.control_slot * cfg.control.telemetry_staleness_slots,
            ),
            watchdog: Watchdog::new(
                cfg.control.watchdog_coverage_floor,
                cfg.control.watchdog_recovery_slots,
            ),
        });
        let safe_pstate = hardened.then(|| safe_pstate(budget.supply_w, cfg.servers));
        let verify = hardened.then(|| {
            ActuatorVerify::new(cfg.servers, cfg.control.actuator_max_retries, cfg.control_slot)
        });
        let learn = cfg
            .profiler
            .as_ref()
            .map(|pc| learn::LearnStage::new(pc, cfg.servers));
        let breaker = cfg.breaker.then(|| {
            Breaker::new(budget.supply_w * cfg.breaker_rating_factor, cfg.breaker_trip_delay)
        });
        let thermals = cfg
            .thermal
            .then(|| (0..cfg.servers).map(|_| ThermalNode::paper_default(start)).collect());
        let topology = cfg.topology.as_ref().map(|t| {
            crate::topology::TopologyState::new(
                cfg.servers,
                budget.supply_w,
                t,
                cfg.control_slot,
                hardened.then_some(&cfg.control),
            )
        });
        ControlPipeline {
            sense: sense::SenseStage::default(),
            filter: filter::FilterStage { monitor, hardening },
            learn,
            decide: decide::DecideStage {
                scheme,
                safe_pstate,
                snapshot_scratch: Vec::new(),
            },
            act: act::ActStage {
                verify,
                retry_scratch: Vec::new(),
            },
            account: account::AccountStage::new(start, idle_power_w, breaker, thermals),
            actions: Vec::new(),
            tripped: Vec::new(),
            topology,
        }
    }

    /// One control slot, the same for the engine and the live daemon:
    /// apply forgets → Filter → Learn → read-back sweep → Decide →
    /// rack guard → record intents. The final plan is left in
    /// `self.actions` for the caller to enact or transmit. Returns the
    /// trusted view and whether Learn changed the suspect classes.
    ///
    /// A configured topology must already have observed this slot's
    /// rack feeds (`TopologyState::observe_racks`): the engine does so
    /// at its physical boundary, [`Self::run_sample`] from its sample.
    pub(crate) fn run_slot(
        &mut self,
        now: SimTime,
        cfg: &ClusterConfig,
        plant: &mut impl Plant,
    ) -> (ClusterView, bool) {
        for &f in plant.forgets() {
            self.forget_node(f);
        }
        let per_node_nameplate = cfg.aggregate_nameplate_w() / cfg.servers as f64;
        let view = self.filter.run(
            now,
            plant.true_power_w(),
            plant.readings(),
            plant.node_dead(),
            per_node_nameplate,
        );
        let classes_changed = self.learn.as_mut().is_some_and(|l| l.run(&*plant));
        self.act.sweep(now, plant);
        let supply_w = self.filter.monitor.budget().supply_w;
        self.decide.run(now, &view, supply_w, cfg, &*plant, &mut self.actions);
        // Rack guard: racks over their hierarchical allocation, and
        // blacked-out racks, get the scheme's plan overridden with a
        // safe pin — localized defense where the global watchdog would
        // cap everything. A whole rack going silent is a telemetry
        // outage the per-reading staleness filter cannot see as such,
        // and one dark rack barely moves cluster coverage.
        if let Some(topo) = self.topology.as_mut() {
            topo.apply_rack_guard(
                &mut self.actions,
                plant.node_dead(),
                plant.readings(),
                |g| plant.target(g),
                view.watchdog_engaged,
            );
        }
        self.act.record_intents(now, &self.actions, plant.node_dead());
        (view, classes_changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powercap::budget::BudgetLevel;
    use powercap::server_power::ServerLoad;

    const WORST: ServerLoad = ServerLoad {
        utilization: 1.0,
        intensity: 1.0,
        gamma: 0.9,
    };

    #[test]
    fn safe_pstate_matches_the_search_over_built_loads() {
        let model = ServerPowerModel::paper_default();
        for servers in [2, 3, 7, 16, 1_000, 10_000, 12_345] {
            let loads = vec![WORST; servers];
            let reference = |budget_w: f64| model.state_for_budget(budget_w, &loads);
            // Every provisioning level's budget, where the product
            // decides.
            for level in BudgetLevel::ALL {
                let budget_w = servers as f64 * model.nameplate_w * level.fraction();
                assert_eq!(
                    safe_pstate(budget_w, servers),
                    reference(budget_w),
                    "{level:?}"
                );
            }
            // Each state's own edge, the budget whose cap is its
            // node-by-node sum, and a few ulps either way: there only
            // the sum's rounding decides.
            for p in model.table.states() {
                let edge = model.aggregate_power(p, &loads) - 1e-9;
                for ulps in -3i64..=3 {
                    let budget_w = f64::from_bits(edge.to_bits().wrapping_add_signed(ulps));
                    assert_eq!(
                        safe_pstate(budget_w, servers),
                        reference(budget_w),
                        "{servers} servers, {p:?} edge {ulps:+} ulps"
                    );
                }
            }
        }
    }
}
