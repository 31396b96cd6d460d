//! Hierarchical power topology: node → rack → PDU → row → facility.
//!
//! The paper evaluates DOPE on a flat 4-node rack, but real
//! oversubscription is *nested*: Azure-style fleets oversubscribe at
//! every level of the rack/PDU/row/facility hierarchy (Kumbhare et al.,
//! PAPERS.md), which is exactly where a flood attacker hides —
//! concentrating power onto one rack trips a local breaker while the
//! facility-level aggregate still shows headroom.
//!
//! This module provides:
//!
//! * [`TopologyConfig`] — the validated knobs: level widths and the
//!   per-level oversubscription factors that inflate child budgets past
//!   their parent's.
//! * [`PowerTopology`] — the static tree. Every level partitions its
//!   parent **contiguously and near-evenly** (the `near_even`
//!   partition the engine also cuts its shards with), so per-rack
//!   aggregates computed in global node order are independent of the
//!   dataplane shard layout — the property the byte-identity contract
//!   rests on.
//!   Each level carries its own oversubscribed budget and a
//!   [`powercap::Breaker`], the same type as the flat cluster feed's.
//! * [`HierarchicalBudget`] — the per-slot allocator: parent levels
//!   split their budget down to children proportional to sensed demand,
//!   capped at each child's own rating, with the conservation invariant
//!   that the children of any parent never receive more than the parent
//!   was allocated.
//! * [`TopologyAccounts`] — per-level breach/trip/peak accounting that
//!   finalizes into [`crate::results::TopologyReport`].
//!
//! The degenerate single-rack topology (`racks = 1`, the default) is
//! arithmetically identical to the flat cluster sum.

use crate::config::{ConfigError, ControlPlaneConfig};
use crate::scheme::Action;
use powercap::pstate::PState;
use powercap::Breaker;
use simcore::{SimDuration, SimTime};

/// Validated description of the power-delivery tree.
///
/// Level widths nest: `rows ≤ pdus ≤ racks ≤ servers`. Each
/// oversubscription factor is the ratio between the *sum of child
/// budgets* and the parent budget at that boundary (1.0 = fully
/// provisioned, >1.0 = oversubscribed — a child may individually draw
/// more than its fair share of the parent feed, betting that siblings
/// do not peak simultaneously; a concentrating attacker makes exactly
/// that bet fail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Racks (leaf feeds over contiguous node ranges).
    pub racks: usize,
    /// PDUs (feeds over contiguous rack ranges).
    pub pdus: usize,
    /// Rows (feeds over contiguous PDU ranges).
    pub rows: usize,
    /// Σ rack budgets / PDU budget.
    pub rack_oversub: f64,
    /// Σ PDU budgets / row budget.
    pub pdu_oversub: f64,
    /// Σ row budgets / facility budget.
    pub row_oversub: f64,
    /// Breaker rating at every level as a multiple of that level's
    /// budget (mirrors [`crate::config::ClusterConfig::breaker_rating_factor`]).
    pub breaker_rating_factor: f64,
    /// Sustained-overload time before a level breaker opens.
    pub breaker_trip_delay: SimDuration,
    /// Run the hierarchical defense: when a rack's sensed power exceeds
    /// its slot allocation, the control plane pins that rack's nodes to
    /// the safe P-state (suspect nodes first). `false` keeps the
    /// hierarchy observe-only — budgets and breakers are modeled but no
    /// rack-local actuation happens, which is the "breach detection
    /// without defense" ablation arm.
    pub defend: bool,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            racks: 1,
            pdus: 1,
            rows: 1,
            rack_oversub: 1.2,
            pdu_oversub: 1.15,
            row_oversub: 1.1,
            breaker_rating_factor: 1.10,
            breaker_trip_delay: SimDuration::from_secs(30),
            defend: true,
        }
    }
}

impl TopologyConfig {
    /// A topology with `racks` racks and `pdus` PDUs (one row), default
    /// oversubscription and breaker knobs.
    pub fn with_racks(racks: usize, pdus: usize) -> Self {
        TopologyConfig {
            racks,
            pdus,
            ..TopologyConfig::default()
        }
    }

    /// Validate level nesting and factor ranges against the cluster's
    /// server count.
    pub fn validate(&self, servers: usize) -> Result<(), ConfigError> {
        let level = |what: &'static str, count: usize, max: usize| {
            if count < 1 || count > max {
                Err(ConfigError::Topology {
                    what,
                    count,
                    max,
                })
            } else {
                Ok(())
            }
        };
        level("racks", self.racks, servers)?;
        level("pdus", self.pdus, self.racks)?;
        level("rows", self.rows, self.pdus)?;
        for (what, v) in [
            ("rack_oversub", self.rack_oversub),
            ("pdu_oversub", self.pdu_oversub),
            ("row_oversub", self.row_oversub),
            ("breaker_rating_factor", self.breaker_rating_factor),
        ] {
            if !v.is_finite() || v < 1.0 {
                return Err(ConfigError::ControlPlane { what, value: v });
            }
        }
        if self.breaker_trip_delay.is_zero() {
            return Err(ConfigError::ZeroDuration {
                what: "topology.breaker_trip_delay",
            });
        }
        Ok(())
    }
}

/// Near-even contiguous partition of `n` items into `k` groups (the
/// first `n % k` groups own one extra item), returning `(start, len)`
/// per group: every topology level, and the engine's shards.
pub(crate) fn near_even(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut at = 0usize;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        ranges.push((at, len));
        at += len;
    }
    ranges
}

/// The static power-delivery tree with per-level budgets and breakers.
#[derive(Debug, Clone)]
pub struct PowerTopology {
    /// Rack `r` owns nodes `rack_ranges[r].0 .. .0 + .1` (contiguous in
    /// global node order).
    rack_ranges: Vec<(usize, usize)>,
    /// Global node index → owning rack.
    owner_rack: Vec<usize>,
    /// PDU `p` owns racks `pdu_ranges[p]`.
    pdu_ranges: Vec<(usize, usize)>,
    /// Row `w` owns PDUs `row_ranges[w]`.
    row_ranges: Vec<(usize, usize)>,
    rack_budget_w: Vec<f64>,
    pdu_budget_w: Vec<f64>,
    row_budget_w: Vec<f64>,
    facility_budget_w: f64,
    rack_breakers: Vec<Breaker>,
    pdu_breakers: Vec<Breaker>,
    row_breakers: Vec<Breaker>,
    facility_breaker: Breaker,
}

/// What one slot's observation of the tree produced: per-level breach
/// masks (load above the level's *static* budget — the telemetry
/// signal) and any racks whose breaker freshly tripped this slot.
#[derive(Debug, Clone, Default)]
pub struct SlotVerdict {
    /// Racks over their budget this slot.
    pub rack_breach: Vec<bool>,
    /// PDUs over their budget this slot.
    pub pdu_breach: Vec<bool>,
    /// Rows over their budget this slot.
    pub row_breach: Vec<bool>,
    /// Facility feed over its budget this slot.
    pub facility_breach: bool,
    /// Racks whose breaker transitioned to `Tripped` this slot.
    pub newly_tripped_racks: Vec<usize>,
}

impl PowerTopology {
    /// Build the tree for `servers` nodes under `facility_budget_w`
    /// (the cluster's supplied budget). Each level's per-child budget is
    /// its parent's budget split proportional to attached nodes, then
    /// inflated by the level's oversubscription factor; breaker ratings
    /// sit `breaker_rating_factor` above each budget.
    pub fn build(servers: usize, facility_budget_w: f64, cfg: &TopologyConfig) -> Self {
        let rack_ranges = near_even(servers, cfg.racks);
        let pdu_ranges = near_even(cfg.racks, cfg.pdus);
        let row_ranges = near_even(cfg.pdus, cfg.rows);
        let mut owner_rack = vec![0usize; servers];
        for (r, &(start, len)) in rack_ranges.iter().enumerate() {
            for o in owner_rack.iter_mut().skip(start).take(len) {
                *o = r;
            }
        }
        // Nodes under each pdu/row, to split budgets proportionally.
        let rack_nodes: Vec<usize> = rack_ranges.iter().map(|&(_, len)| len).collect();
        let pdu_nodes: Vec<usize> = pdu_ranges
            .iter()
            .map(|&(s, l)| rack_nodes[s..s + l].iter().sum())
            .collect();
        let row_nodes: Vec<usize> = row_ranges
            .iter()
            .map(|&(s, l)| pdu_nodes[s..s + l].iter().sum())
            .collect();
        let split = |parent_w: f64, child_nodes: &[usize], parent_total: usize, oversub: f64| {
            child_nodes
                .iter()
                .map(|&n| parent_w * (n as f64 / parent_total as f64) * oversub)
                .collect::<Vec<f64>>()
        };
        let row_budget_w = split(facility_budget_w, &row_nodes, servers, cfg.row_oversub);
        let mut pdu_budget_w = Vec::with_capacity(cfg.pdus);
        for (w, &(s, l)) in row_ranges.iter().enumerate() {
            pdu_budget_w.extend(split(row_budget_w[w], &pdu_nodes[s..s + l], row_nodes[w], cfg.pdu_oversub));
        }
        let mut rack_budget_w = Vec::with_capacity(cfg.racks);
        for (p, &(s, l)) in pdu_ranges.iter().enumerate() {
            rack_budget_w.extend(split(pdu_budget_w[p], &rack_nodes[s..s + l], pdu_nodes[p], cfg.rack_oversub));
        }
        let breakers = |budgets: &[f64]| {
            budgets
                .iter()
                .map(|&b| Breaker::new(b * cfg.breaker_rating_factor, cfg.breaker_trip_delay))
                .collect::<Vec<Breaker>>()
        };
        PowerTopology {
            rack_breakers: breakers(&rack_budget_w),
            pdu_breakers: breakers(&pdu_budget_w),
            row_breakers: breakers(&row_budget_w),
            facility_breaker: Breaker::new(
                facility_budget_w * cfg.breaker_rating_factor,
                cfg.breaker_trip_delay,
            ),
            rack_ranges,
            owner_rack,
            pdu_ranges,
            row_ranges,
            rack_budget_w,
            pdu_budget_w,
            row_budget_w,
            facility_budget_w,
        }
    }

    /// Rack count.
    pub fn racks(&self) -> usize {
        self.rack_ranges.len()
    }

    /// PDU count.
    pub fn pdus(&self) -> usize {
        self.pdu_ranges.len()
    }

    /// Row count.
    pub(crate) fn rows(&self) -> usize {
        self.row_ranges.len()
    }

    /// Rack `r`'s contiguous node range as `(start, len)`.
    pub(crate) fn rack_range(&self, r: usize) -> (usize, usize) {
        self.rack_ranges[r]
    }

    /// Global node index → owning rack.
    pub(crate) fn rack_of(&self, node: usize) -> usize {
        self.owner_rack[node]
    }

    /// The node → rack map, rack-major contiguous.
    pub fn owner_rack(&self) -> &[usize] {
        &self.owner_rack
    }

    /// Rack `r`'s oversubscribed budget, watts.
    pub fn rack_budget_w(&self, r: usize) -> f64 {
        self.rack_budget_w[r]
    }

    /// PDU `p`'s oversubscribed budget, watts.
    #[cfg(test)]
    pub(crate) fn pdu_budget_w(&self, p: usize) -> f64 {
        self.pdu_budget_w[p]
    }

    /// Row `w`'s oversubscribed budget, watts.
    #[cfg(test)]
    pub(crate) fn row_budget_w(&self, w: usize) -> f64 {
        self.row_budget_w[w]
    }

    /// The facility feed budget, watts.
    pub fn facility_budget_w(&self) -> f64 {
        self.facility_budget_w
    }

    /// True once rack `r`'s breaker has opened (latched).
    pub(crate) fn rack_tripped(&self, r: usize) -> bool {
        self.rack_breakers[r].tripped()
    }

    /// Aggregate per-node power into per-rack sums, in global node
    /// order. `node_power` must hold all `servers` entries; `rack_out`
    /// is resized to the rack count. Because rack ranges are contiguous
    /// in global node order, this fold is independent of any dataplane
    /// shard layout.
    pub(crate) fn rack_powers(&self, node_power: &[f64], rack_out: &mut Vec<f64>) {
        rack_out.clear();
        rack_out.extend(self.rack_ranges.iter().map(|&(start, len)| {
            let mut acc = 0.0;
            for &w in &node_power[start..start + len] {
                acc += w;
            }
            acc
        }));
    }

    /// Observe one slot's per-rack loads: aggregate up the tree,
    /// evaluate every level's breaker, and report budget breaches per
    /// level. A rack whose breaker is already open reports zero load
    /// (its nodes are dead), so parents relax as the outage sheds load.
    pub(crate) fn observe(
        &mut self,
        now: SimTime,
        rack_power_w: &[f64],
        verdict: &mut SlotVerdict,
    ) {
        assert_eq!(rack_power_w.len(), self.rack_ranges.len());
        verdict.newly_tripped_racks.clear();
        verdict.rack_breach.clear();
        verdict.pdu_breach.clear();
        verdict.row_breach.clear();
        for (r, (&load, breaker)) in rack_power_w
            .iter()
            .zip(self.rack_breakers.iter_mut())
            .enumerate()
        {
            verdict.rack_breach.push(load > self.rack_budget_w[r]);
            if breaker.observe(now, load) {
                verdict.newly_tripped_racks.push(r);
            }
        }
        let mut pdu_power = Vec::with_capacity(self.pdu_ranges.len());
        for (p, &(s, l)) in self.pdu_ranges.iter().enumerate() {
            let load: f64 = rack_power_w[s..s + l].iter().sum();
            pdu_power.push(load);
            verdict.pdu_breach.push(load > self.pdu_budget_w[p]);
            self.pdu_breakers[p].observe(now, load);
        }
        let mut facility_power = 0.0;
        for (w, &(s, l)) in self.row_ranges.iter().enumerate() {
            let load: f64 = pdu_power[s..s + l].iter().sum();
            facility_power += load;
            verdict.row_breach.push(load > self.row_budget_w[w]);
            self.row_breakers[w].observe(now, load);
        }
        verdict.facility_breach = facility_power > self.facility_budget_w;
        self.facility_breaker.observe(now, facility_power);
    }
}

/// The per-slot top-down budget allocator.
///
/// Each slot, the facility budget cascades down the tree: every parent
/// splits its own allocation among its children proportional to their
/// sensed demand, capped at each child's oversubscribed budget, and
/// scaled so the children never receive more than the parent holds
/// (conservation). Racks whose sensed power exceeds their allocation
/// are the localized actuation targets.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalBudget {
    row_alloc_w: Vec<f64>,
    pdu_alloc_w: Vec<f64>,
    rack_alloc_w: Vec<f64>,
    // Scratch demand aggregates, reused across slots.
    pdu_demand: Vec<f64>,
    row_demand: Vec<f64>,
}

/// Distribute `parent_w` among children with the given demands, capped
/// at each child's own budget. If total capped demand fits, everyone
/// gets their demand; otherwise allocations scale down proportionally.
/// The final fixup keeps `Σ alloc ≤ parent_w` exact despite float
/// rounding.
fn distribute(parent_w: f64, demand: &[f64], cap: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(demand.iter().zip(cap).map(|(&d, &c)| d.clamp(0.0, c)));
    let want: f64 = out.iter().sum();
    if want > parent_w && want > 0.0 {
        let scale = parent_w / want;
        for a in out.iter_mut() {
            *a *= scale;
        }
        let sum: f64 = out.iter().sum();
        if sum > parent_w {
            // One ulp of rounding slack: charge the largest allocation.
            if let Some(max) = out
                .iter_mut()
                .max_by(|a, b| a.partial_cmp(b).expect("allocations are finite"))
            {
                *max -= sum - parent_w;
            }
        }
    }
}

impl HierarchicalBudget {
    /// Fresh allocator (allocations are empty until the first slot).
    pub fn new() -> Self {
        HierarchicalBudget::default()
    }

    /// Run one slot's cascade from the facility budget down to racks,
    /// given per-rack sensed demand. Returns the per-rack allocations.
    pub fn allocate(&mut self, topo: &PowerTopology, rack_demand_w: &[f64]) -> &[f64] {
        assert_eq!(rack_demand_w.len(), topo.racks());
        self.pdu_demand.clear();
        self.pdu_demand.extend(
            topo.pdu_ranges
                .iter()
                .map(|&(s, l)| rack_demand_w[s..s + l].iter().sum::<f64>()),
        );
        self.row_demand.clear();
        self.row_demand.extend(
            topo.row_ranges
                .iter()
                .map(|&(s, l)| self.pdu_demand[s..s + l].iter().sum::<f64>()),
        );
        distribute(
            topo.facility_budget_w,
            &self.row_demand,
            &topo.row_budget_w,
            &mut self.row_alloc_w,
        );
        self.pdu_alloc_w.clear();
        for (w, &(s, l)) in topo.row_ranges.iter().enumerate() {
            let mut child = Vec::new();
            distribute(
                self.row_alloc_w[w],
                &self.pdu_demand[s..s + l],
                &topo.pdu_budget_w[s..s + l],
                &mut child,
            );
            self.pdu_alloc_w.extend(child);
        }
        self.rack_alloc_w.clear();
        for (p, &(s, l)) in topo.pdu_ranges.iter().enumerate() {
            let mut child = Vec::new();
            distribute(
                self.pdu_alloc_w[p],
                &rack_demand_w[s..s + l],
                &topo.rack_budget_w[s..s + l],
                &mut child,
            );
            self.rack_alloc_w.extend(child);
        }
        &self.rack_alloc_w
    }

    /// The most recent per-rack allocations (empty before the first
    /// slot).
    pub(crate) fn rack_alloc_w(&self) -> &[f64] {
        &self.rack_alloc_w
    }

    /// The most recent per-PDU allocations.
    pub fn pdu_alloc_w(&self) -> &[f64] {
        &self.pdu_alloc_w
    }

    /// The most recent per-row allocations.
    pub fn row_alloc_w(&self) -> &[f64] {
        &self.row_alloc_w
    }
}

/// Per-level accounting accumulated each slot, finalized into
/// [`crate::results::TopologyReport`] by the engines.
#[derive(Debug, Clone, Default)]
pub struct TopologyAccounts {
    /// Peak sensed power per rack, watts.
    pub rack_peak_w: Vec<f64>,
    /// Slots each rack spent over its budget.
    pub rack_breach_slots: Vec<u64>,
    /// Slots any PDU spent over its budget (summed over PDUs).
    pub pdu_breach_slots: u64,
    /// Slots any row spent over its budget (summed over rows).
    pub row_breach_slots: u64,
    /// Slots the facility feed spent over its budget.
    pub facility_breach_slots: u64,
    /// When each rack's breaker opened, if it did (seconds).
    pub rack_trip_at_s: Vec<Option<f64>>,
    /// Slots the rack guard pinned at least one rack.
    pub guard_slots: u64,
    /// Total facility-level slots observed.
    pub slots: u64,
}

impl TopologyAccounts {
    /// Accounting sized for `racks` racks.
    pub(crate) fn new(racks: usize) -> Self {
        TopologyAccounts {
            rack_peak_w: vec![0.0; racks],
            rack_breach_slots: vec![0; racks],
            rack_trip_at_s: vec![None; racks],
            ..TopologyAccounts::default()
        }
    }

    /// Fold one slot's rack powers and verdict in.
    pub(crate) fn record_slot(
        &mut self,
        now: SimTime,
        rack_power_w: &[f64],
        verdict: &SlotVerdict,
    ) {
        self.slots += 1;
        for (r, &w) in rack_power_w.iter().enumerate() {
            if w > self.rack_peak_w[r] {
                self.rack_peak_w[r] = w;
            }
            if verdict.rack_breach[r] {
                self.rack_breach_slots[r] += 1;
            }
        }
        self.pdu_breach_slots += verdict.pdu_breach.iter().filter(|&&b| b).count() as u64;
        self.row_breach_slots += verdict.row_breach.iter().filter(|&&b| b).count() as u64;
        if verdict.facility_breach {
            self.facility_breach_slots += 1;
        }
        for &r in &verdict.newly_tripped_racks {
            self.rack_trip_at_s[r] = Some(now.as_secs_f64());
        }
    }

    /// The rack with the highest recorded peak — the hierarchical
    /// attribution verdict ("where is the flood concentrating?").
    pub(crate) fn hottest_rack(&self) -> usize {
        self.rack_peak_w
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("peaks are finite"))
            .map(|(r, _)| r)
            .unwrap_or(0)
    }
}

/// Per-rack state of the [`RackBlackout`] watchdog.
#[derive(Debug, Clone, Copy, Default)]
struct BlackoutState {
    engaged: bool,
    blind_streak: u32,
    ok_streak: u32,
}

/// Rack blackout watchdog: detects a *whole-rack* telemetry blackout
/// (every alive sensor of one rack dark while the rest of the cluster
/// still reports) so the rack guard can pin just that rack at the safe
/// P-state until it has reported cleanly for a few consecutive slots.
///
/// The global coverage watchdog cannot see this failure shape: one dark
/// rack out of eight only drops cluster coverage to 87.5%, far above
/// any sane floor, yet the controller knows *nothing* about an eighth
/// of its load. The rack is the physical domain such an outage takes
/// down (its feed, its switch), so the fallback is scoped to it and the
/// rest of the cluster keeps running the scheme's differentiated plan.
#[derive(Debug, Clone)]
struct RackBlackout {
    engage_slots: u32,
    recovery_slots: u32,
    states: Vec<BlackoutState>,
    degraded_slots: u64,
    episodes: u64,
    was_any: bool,
}

impl RackBlackout {
    /// Watchdog over `racks`, engaging a rack only after `engage_slots`
    /// consecutive fully-blind slots and releasing it after
    /// `recovery_slots` consecutive slots with at least one fresh
    /// reading.
    ///
    /// The engagement threshold is deliberately not 1: a gap shorter
    /// than the telemetry staleness window is already bridged by the
    /// last-known-good estimator, and on small racks a single slot with
    /// every sensor dropped is an ordinary random event, not a rack
    /// blackout. Only an outage that outlasts the staleness window
    /// leaves the controller truly blind — and only then is the
    /// conservative cap worth its throughput cost.
    fn new(racks: usize, engage_slots: u32, recovery_slots: u32) -> Self {
        RackBlackout {
            engage_slots: engage_slots.max(1),
            recovery_slots: recovery_slots.max(1),
            states: vec![BlackoutState::default(); racks],
            degraded_slots: 0,
            episodes: 0,
            was_any: false,
        }
    }

    /// Feed one slot's fresh-reading count for `rack` (out of `alive`
    /// *alive* nodes it feeds); returns whether the rack is capped this
    /// slot. Engagement requires a *total* blackout — a rack with even
    /// one live sensor is left to the staleness estimator and the
    /// global watchdog. Callers must exclude dead nodes from both
    /// counts: crashed nodes report a synthetic zero, and letting that
    /// count as coverage would make engagement depend on where the
    /// crash landed rather than on sensor health.
    fn observe(&mut self, rack: usize, fresh: usize, alive: usize) -> bool {
        let st = &mut self.states[rack];
        if fresh == 0 && alive > 0 {
            st.blind_streak += 1;
            st.ok_streak = 0;
            st.engaged |= st.blind_streak >= self.engage_slots;
        } else {
            st.blind_streak = 0;
            if st.engaged {
                st.ok_streak += 1;
                if st.ok_streak >= self.recovery_slots {
                    st.engaged = false;
                    st.ok_streak = 0;
                }
            }
        }
        st.engaged
    }

    /// Finish the slot after every rack has been `observe`d, updating
    /// the cluster-level counters: slots with at least one capped rack
    /// (not capped rack-slots), and rising edges of "any rack capped".
    fn close_slot(&mut self) {
        let any = self.any_engaged();
        if any {
            self.degraded_slots += 1;
            if !self.was_any {
                self.episodes += 1;
            }
        }
        self.was_any = any;
    }

    /// Whether `rack` is currently capped.
    fn engaged(&self, rack: usize) -> bool {
        self.states[rack].engaged
    }

    /// Whether any rack is currently capped.
    fn any_engaged(&self) -> bool {
        self.states.iter().any(|s| s.engaged)
    }
}

/// Everything the engines carry for a configured topology: the static
/// tree, the per-slot allocator, verdict/power scratch, accounting, and
/// the rack guard's state.
#[derive(Debug, Clone)]
pub struct TopologyState {
    /// The static tree.
    pub topo: PowerTopology,
    /// The per-slot top-down allocator.
    pub alloc: HierarchicalBudget,
    /// Scratch verdict, refilled every observed slot.
    pub verdict: SlotVerdict,
    /// Accumulated per-level accounting.
    pub accounts: TopologyAccounts,
    /// Per-rack sensed power scratch, refilled every slot.
    pub rack_power_w: Vec<f64>,
    /// Whether the rack guard actuates (from [`TopologyConfig::defend`]).
    pub defend: bool,
    /// The guard's pin target: the uniform safe P-state that keeps the
    /// whole cluster within the facility budget at worst-case load.
    pub safe_pstate: PState,
    /// Slot index each rack stays pinned through (the guard holds a pin
    /// for one breaker trip-delay so a throttled rack's hidden demand
    /// cannot re-trip the breaker the moment sensing relaxes).
    pinned_until: Vec<u64>,
    /// Pin hold time, slots.
    guard_hold_slots: u64,
    /// Slots observed so far.
    slot: u64,
    /// Per-rack blackout watchdog, present only when the pipeline is
    /// hardened (a fault plan is configured).
    blackout: Option<RackBlackout>,
    /// Recycled per-rack "pin this slot" mask of the guard pass.
    mask: Vec<bool>,
}

impl TopologyState {
    /// Build the carried state for a validated config. `control_slot`
    /// sizes the guard's hold time from the breaker trip delay.
    /// `hardening` is the control-plane config of a hardened pipeline:
    /// it arms the rack blackout watchdog, which engages after the
    /// telemetry staleness window and recovers with the watchdog's
    /// hysteresis.
    pub(crate) fn new(
        servers: usize,
        facility_budget_w: f64,
        cfg: &TopologyConfig,
        control_slot: SimDuration,
        hardening: Option<&ControlPlaneConfig>,
    ) -> Self {
        let topo = PowerTopology::build(servers, facility_budget_w, cfg);
        let safe_pstate = crate::control::safe_pstate(facility_budget_w, servers);
        let guard_hold_slots = (cfg.breaker_trip_delay.as_micros()
            / control_slot.as_micros().max(1))
        .max(1);
        let racks = topo.racks();
        TopologyState {
            topo,
            alloc: HierarchicalBudget::new(),
            verdict: SlotVerdict::default(),
            accounts: TopologyAccounts::new(racks),
            rack_power_w: Vec::with_capacity(racks),
            defend: cfg.defend,
            safe_pstate,
            pinned_until: vec![0; racks],
            guard_hold_slots,
            slot: 0,
            blackout: hardening.map(|c| {
                RackBlackout::new(
                    racks,
                    c.telemetry_staleness_slots.min(u64::from(u32::MAX)) as u32,
                    c.watchdog_recovery_slots,
                )
            }),
            mask: vec![false; racks],
        }
    }

    /// Run one slot's hierarchical pass from per-rack power in global
    /// rack order (the engine's rack fold, or the live plane's sample):
    /// cascade allocations, evaluate every level's breaker, and fold the
    /// accounting. The caller reads `self.verdict` (breaches, fresh rack
    /// trips) and `self.alloc.rack_alloc_w()` afterwards.
    pub fn observe_racks(&mut self, now: SimTime, rack_power_w: &[f64]) {
        self.slot += 1;
        self.rack_power_w.clear();
        self.rack_power_w.extend_from_slice(rack_power_w);
        let TopologyState { topo, alloc, verdict, accounts, rack_power_w, .. } = self;
        alloc.allocate(topo, rack_power_w);
        topo.observe(now, rack_power_w, verdict);
        accounts.record_slot(now, rack_power_w, verdict);
    }

    /// Feed the blackout watchdog one slot of per-node readings
    /// (`None` = no fresh reading), counting fresh and alive sensors
    /// over each rack's contiguous node range; dead nodes count in
    /// neither. A no-op unless the pipeline is hardened.
    pub(crate) fn observe_blackout(&mut self, node_dead: &[bool], readings: &[Option<f64>]) {
        let Some(b) = self.blackout.as_mut() else {
            return;
        };
        for (r, &(start, len)) in self.topo.rack_ranges.iter().enumerate() {
            let (mut fresh, mut alive) = (0, 0);
            let range = start..start + len;
            for (&dead, reading) in node_dead[range.clone()].iter().zip(&readings[range]) {
                if !dead {
                    alive += 1;
                    fresh += usize::from(reading.is_some());
                }
            }
            b.observe(r, fresh, alive);
        }
        b.close_slot();
    }

    /// Apply the rack guard to this slot's action plan in one
    /// strip-then-pin pass over two kinds of pinned rack:
    ///
    /// * **over-allocation** (with [`TopologyConfig::defend`]): a rack
    ///   whose sensed power exceeds its slot allocation is pinned for a
    ///   hold; when a hold expires while another rack is still pinned,
    ///   the rack's nodes at the safe P-state are handed back to the
    ///   scheme at full speed;
    /// * **blackout** (hardened pipelines, whatever `defend` says): a
    ///   rack the blackout watchdog has engaged is pinned until it
    ///   recovers, and never released to full speed on the way out.
    ///   These pins are skipped while `watchdog_engaged` — the global
    ///   watchdog already caps everything.
    ///
    /// Pinned racks have the scheme's per-node commands stripped and
    /// their alive nodes pinned to the safe P-state; every other rack's
    /// plan is left untouched. `target_of(g)` is node `g`'s
    /// currently-commanded P-state.
    pub(crate) fn apply_rack_guard(
        &mut self,
        actions: &mut Vec<Action>,
        node_dead: &[bool],
        target_of: impl Fn(usize) -> PState,
        watchdog_engaged: bool,
    ) {
        let defend = self.defend && self.rack_power_w.len() == self.topo.racks();
        if defend {
            let alloc = self.alloc.rack_alloc_w();
            for (r, (&power, &a)) in self.rack_power_w.iter().zip(alloc).enumerate() {
                if power > a && !self.topo.rack_tripped(r) {
                    self.pinned_until[r] = self.slot + self.guard_hold_slots;
                }
            }
        }
        let blind = self.blackout.as_ref().filter(|_| !watchdog_engaged);
        let mut any_held = false;
        for (r, m) in self.mask.iter_mut().enumerate() {
            let held = defend && self.pinned_until[r] > self.slot;
            any_held |= held;
            *m = held || blind.is_some_and(|b| b.engaged(r));
        }
        if !self.mask.contains(&true) {
            return;
        }
        let TopologyState { topo, mask, pinned_until, slot, safe_pstate, .. } = self;
        let owner = &topo.owner_rack;
        // Scheme actions targeting nodes of pinned racks would fight
        // the guard; released nodes go back to the scheme untouched.
        actions.retain(|a| match a {
            Action::SetPState { node, .. } | Action::SetPowerLimit { node, .. } => {
                !mask[owner[*node]]
            }
            _ => true,
        });
        let safe = *safe_pstate;
        for g in 0..owner.len() {
            if node_dead[g] {
                continue;
            }
            let r = owner[g];
            if mask[r] {
                if target_of(g) != safe {
                    actions.push(Action::SetPState { node: g, target: safe });
                }
            } else if any_held && pinned_until[r] == *slot && target_of(g) == safe {
                // Hold just expired: release to full speed; the scheme
                // re-caps next slot if it wants to.
                actions.push(Action::SetPState { node: g, target: PState(0) });
            }
        }
        if any_held {
            self.accounts.guard_slots += 1;
        }
    }

    /// Finalize into the report, taking per-rack delivered energy from
    /// the caller (engines fold per-node joules by rack range so the
    /// sum is exactly the cluster total).
    pub(crate) fn into_report(self, rack_energy_j: Vec<f64>) -> crate::results::TopologyReport {
        crate::results::TopologyReport {
            racks: self.topo.racks(),
            pdus: self.topo.pdus(),
            rows: self.topo.rows(),
            hottest_rack: self.accounts.hottest_rack(),
            rack_peak_w: self.accounts.rack_peak_w,
            rack_energy_j,
            rack_breach_slots: self.accounts.rack_breach_slots,
            pdu_breach_slots: self.accounts.pdu_breach_slots,
            row_breach_slots: self.accounts.row_breach_slots,
            facility_breach_slots: self.accounts.facility_breach_slots,
            rack_trip_at_s: self.accounts.rack_trip_at_s,
            guard_slots: self.accounts.guard_slots,
            blackout_slots: self.blackout.as_ref().map_or(0, |b| b.degraded_slots),
            blackout_episodes: self.blackout.as_ref().map_or(0, |b| b.episodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn cfg(racks: usize, pdus: usize, rows: usize) -> TopologyConfig {
        TopologyConfig {
            racks,
            pdus,
            rows,
            ..TopologyConfig::default()
        }
    }

    #[test]
    fn partitions_are_contiguous_and_exhaustive() {
        let t = PowerTopology::build(10, 1000.0, &cfg(3, 2, 1));
        assert_eq!(t.rack_range(0), (0, 4));
        assert_eq!(t.rack_range(1), (4, 3));
        assert_eq!(t.rack_range(2), (7, 3));
        assert_eq!(t.owner_rack(), &[0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(t.pdu_ranges, vec![(0, 2), (2, 1)]);
        assert_eq!(t.row_ranges, vec![(0, 2)]);
    }

    #[test]
    fn budgets_oversubscribe_each_level() {
        let t = PowerTopology::build(8, 800.0, &cfg(4, 2, 1));
        // Row carries all 8 nodes: 800 × 1.1.
        assert!((t.row_budget_w(0) - 880.0).abs() < 1e-9);
        // PDUs split the row evenly, × 1.15 each.
        let pdu_sum: f64 = (0..2).map(|p| t.pdu_budget_w(p)).sum();
        assert!((pdu_sum - 880.0 * 1.15).abs() < 1e-9);
        // Racks oversubscribe their PDU.
        let rack_sum: f64 = (0..4).map(|r| t.rack_budget_w(r)).sum();
        assert!((rack_sum - pdu_sum * 1.2).abs() < 1e-9);
        assert!(rack_sum > t.facility_budget_w());
    }

    #[test]
    fn degenerate_single_rack_matches_flat_budget() {
        let mut c = cfg(1, 1, 1);
        c.rack_oversub = 1.0;
        c.pdu_oversub = 1.0;
        c.row_oversub = 1.0;
        let t = PowerTopology::build(4, 340.0, &c);
        assert!((t.rack_budget_w(0) - 340.0).abs() < 1e-12);
        assert_eq!(t.rack_range(0), (0, 4));
    }

    #[test]
    fn rack_powers_fold_in_global_order() {
        let t = PowerTopology::build(5, 500.0, &cfg(2, 1, 1));
        let mut out = Vec::new();
        t.rack_powers(&[10.0, 20.0, 30.0, 40.0, 50.0], &mut out);
        assert_eq!(out, vec![60.0, 90.0]);
    }

    #[test]
    fn rack_breaker_trips_while_facility_has_headroom() {
        // 4 racks × 2 nodes, facility budget 680 W; rack budgets are
        // ~258 W each (oversubscribed). Concentrate 300 W on rack 0 while
        // the others idle: the rack breaker must trip, the facility must
        // never breach.
        let mut t = PowerTopology::build(8, 680.0, &cfg(4, 2, 1));
        let mut v = SlotVerdict::default();
        let loads = [300.0, 20.0, 20.0, 20.0];
        let rating = t.rack_budget_w(0) * 1.10;
        assert!(loads[0] > rating, "scenario must exceed the rack rating");
        let mut tripped_at = None;
        for slot in 0..120u64 {
            t.observe(s(slot), &loads, &mut v);
            assert!(!v.facility_breach, "facility shows headroom throughout");
            assert!(v.rack_breach[0]);
            if let Some(&r) = v.newly_tripped_racks.first() {
                tripped_at = Some((r, slot));
                break;
            }
        }
        let (rack, slot) = tripped_at.expect("rack breaker trips");
        assert_eq!(rack, 0);
        assert_eq!(slot, 30, "default 30 s trip delay");
        assert!(t.rack_tripped(0));
        assert!(!t.rack_tripped(1));
    }

    #[test]
    fn allocation_conserves_parent_budget() {
        let t = PowerTopology::build(12, 1200.0, &cfg(4, 2, 2));
        let mut h = HierarchicalBudget::new();
        // Demand far above the facility budget.
        let alloc = h.allocate(&t, &[900.0, 800.0, 700.0, 600.0]).to_vec();
        let total: f64 = alloc.iter().sum();
        assert!(total <= t.facility_budget_w(), "{total} > facility");
        // Each rack within its own rating.
        for (r, &a) in alloc.iter().enumerate() {
            assert!(a <= t.rack_budget_w(r) + 1e-9);
        }
        // Under light demand every rack simply gets its demand.
        let light = h.allocate(&t, &[50.0, 40.0, 30.0, 20.0]).to_vec();
        for (a, d) in light.iter().zip([50.0, 40.0, 30.0, 20.0]) {
            assert!((a - d).abs() < 1e-9);
        }
    }

    #[test]
    fn allocation_is_demand_proportional_under_pressure() {
        let t = PowerTopology::build(4, 400.0, &cfg(2, 1, 1));
        let mut h = HierarchicalBudget::new();
        let alloc = h.allocate(&t, &[600.0, 200.0]).to_vec();
        assert!(alloc[0] > alloc[1], "hotter rack draws more: {alloc:?}");
        let total: f64 = alloc.iter().sum();
        assert!(total <= t.facility_budget_w() + 1e-12);
    }

    #[test]
    fn accounts_localize_the_hot_rack() {
        let mut t = PowerTopology::build(8, 680.0, &cfg(4, 2, 1));
        let mut acc = TopologyAccounts::new(4);
        let mut v = SlotVerdict::default();
        for slot in 0..40u64 {
            let loads = [30.0, 20.0, 290.0, 20.0];
            t.observe(s(slot), &loads, &mut v);
            acc.record_slot(s(slot), &loads, &v);
        }
        assert_eq!(acc.hottest_rack(), 2);
        assert_eq!(acc.rack_breach_slots[2], 40);
        assert_eq!(acc.rack_breach_slots[0], 0);
        assert!(acc.rack_trip_at_s[2].is_some());
        assert_eq!(acc.slots, 40);
    }

    #[test]
    fn rack_blackout_requires_total_blackout() {
        let mut w = RackBlackout::new(2, 1, 3);
        // One live sensor out of four: not a rack blackout.
        assert!(!w.observe(0, 1, 4));
        assert!(!w.observe(1, 4, 4));
        w.close_slot();
        assert_eq!(w.degraded_slots, 0);
        // Zero fresh readings: engage rack 0 only.
        assert!(w.observe(0, 0, 4));
        assert!(w.engaged(0));
        assert!(!w.observe(1, 4, 4));
        assert!(!w.engaged(1));
        w.close_slot();
        assert!(w.any_engaged());
        assert_eq!(w.degraded_slots, 1);
        assert_eq!(w.episodes, 1);
    }

    #[test]
    fn rack_blackout_recovers_with_hysteresis() {
        let mut w = RackBlackout::new(1, 1, 3);
        let slot = |w: &mut RackBlackout, fresh: usize| {
            let capped = w.observe(0, fresh, 4);
            w.close_slot();
            capped
        };
        assert!(slot(&mut w, 0));
        // Two healthy slots are probation, the third releases.
        assert!(slot(&mut w, 4));
        assert!(slot(&mut w, 4));
        assert!(!slot(&mut w, 4));
        assert!(!w.any_engaged());
        assert_eq!(w.degraded_slots, 3);
        // A relapse during probation restarts the streak.
        assert!(slot(&mut w, 0));
        assert!(slot(&mut w, 4));
        assert!(slot(&mut w, 0));
        assert!(slot(&mut w, 4));
        assert!(slot(&mut w, 4));
        assert!(!slot(&mut w, 4));
        assert_eq!(w.episodes, 2);
    }

    #[test]
    fn rack_blackout_ignores_gaps_shorter_than_the_engage_threshold() {
        let mut w = RackBlackout::new(1, 3, 2);
        // Two blind slots: below the threshold, never engages.
        for _ in 0..2 {
            assert!(!w.observe(0, 0, 2));
            w.close_slot();
        }
        // One fresh slot resets the blind streak entirely.
        assert!(!w.observe(0, 1, 2));
        w.close_slot();
        assert!(!w.observe(0, 0, 2));
        assert!(!w.observe(0, 0, 2));
        // The third *consecutive* blind slot engages.
        assert!(w.observe(0, 0, 2));
        w.close_slot();
        assert!(w.any_engaged());
        assert_eq!(w.degraded_slots, 1);
        assert_eq!(w.episodes, 1);
    }

    /// Engagement boundary: the engines set `engage_slots` to the
    /// telemetry staleness window, so a blackout that ends *exactly* at
    /// the window must engage on its final blind slot — and a blackout
    /// one slot shorter must never engage (the last-good estimator is
    /// still bridging it).
    #[test]
    fn rack_blackout_ending_exactly_at_the_staleness_window_engages() {
        // Window = 3 slots, one slot shorter: never engages.
        let mut short = RackBlackout::new(1, 3, 2);
        for _ in 0..2 {
            assert!(!short.observe(0, 0, 4));
            short.close_slot();
        }
        assert!(!short.observe(0, 4, 4), "telemetry back before the window");
        short.close_slot();
        assert_eq!((short.degraded_slots, short.episodes), (0, 0));

        // Exactly the window: the third consecutive blind slot engages.
        let mut exact = RackBlackout::new(1, 3, 2);
        assert!(!exact.observe(0, 0, 4));
        exact.close_slot();
        assert!(!exact.observe(0, 0, 4));
        exact.close_slot();
        assert!(exact.observe(0, 0, 4), "blind slot {} = window engages", 3);
        exact.close_slot();
        assert_eq!((exact.degraded_slots, exact.episodes), (1, 1));
    }

    /// Recovery boundary: with `recovery_slots = r`, the rack stays
    /// capped through healthy slots `1..r-1` and releases *on* the
    /// r-th — not one early, not one late.
    #[test]
    fn rack_blackout_recovery_releases_exactly_at_the_threshold_slot() {
        let r = 3;
        let mut w = RackBlackout::new(1, 1, r);
        assert!(w.observe(0, 0, 2), "single blind slot engages at threshold 1");
        w.close_slot();
        for t in 1..u64::from(r) {
            assert!(w.observe(0, 2, 2), "healthy slot {t} is still probation");
            w.close_slot();
        }
        assert!(!w.observe(0, 2, 2), "healthy slot {r} must release, not extend probation");
        w.close_slot();
        assert!(!w.any_engaged());
        // Engaged on the blind slot plus r-1 probation slots.
        assert_eq!(w.degraded_slots, u64::from(r));
        assert_eq!(w.episodes, 1);
    }

    #[test]
    fn validate_rejects_bad_nesting() {
        assert!(cfg(0, 1, 1).validate(4).is_err());
        assert!(cfg(5, 1, 1).validate(4).is_err());
        assert!(cfg(2, 3, 1).validate(4).is_err());
        assert!(cfg(2, 2, 3).validate(4).is_err());
        assert!(cfg(2, 2, 1).validate(4).is_ok());
        let mut c = cfg(2, 1, 1);
        c.rack_oversub = 0.5;
        assert!(c.validate(4).is_err());
        c.rack_oversub = 1.2;
        c.breaker_trip_delay = SimDuration::ZERO;
        assert!(c.validate(4).is_err());
    }
}
