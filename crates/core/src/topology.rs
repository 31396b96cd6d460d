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
//! * `TopologyAccounts` — per-level breach/trip/peak accounting that
//!   finalizes into [`crate::results::TopologyReport`].
//! * [`TopologyState`] — what the engines carry per run: the tree, the
//!   allocator, the accounts, and the rack guard's per-rack state
//!   machine (over-allocation holds that release to nominal, and
//!   blackout pins under a fault plan).
//!
//! The degenerate single-rack topology (`racks = 1`, the default) is
//! arithmetically identical to the flat cluster sum.

use crate::config::{ConfigError, ControlPlaneConfig};
use crate::scheme::Action;
use powercap::pstate::{PState, PStateTable};
use powercap::Breaker;
use simcore::{SimDuration, SimTime};
use std::cmp::Ordering;

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
    /// its slot allocation, the control plane holds every alive node of
    /// the rack at the safe P-state for one breaker trip delay, then
    /// releases them to nominal. `false` keeps the hierarchy
    /// observe-only — budgets and breakers are modeled but no
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
pub(crate) struct SlotVerdict {
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
pub(crate) struct TopologyAccounts {
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
    /// Slots the rack guard held at least one rack for over-allocation.
    pub guard_slots: u64,
    /// Slots at least one rack was blackout-pinned.
    pub blackout_slots: u64,
    /// Rising edges of "some rack is blackout-pinned".
    pub blackout_episodes: u64,
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

/// The rack guard's timing, in control slots.
#[derive(Debug, Clone, Copy)]
struct GuardTiming {
    /// How long a breach holds its rack: one breaker trip delay, so a
    /// throttled rack's hidden demand cannot re-trip the breaker the
    /// moment sensing relaxes.
    hold: u64,
    /// Consecutive fully dark slots that engage a blackout pin.
    engage: u32,
    /// Consecutive healthy slots that end one.
    recover: u32,
}

/// One rack's guard. An over-allocation hold and a blackout pin are
/// separate facts, so a rack can be held and blind at once; it is
/// pinned while either lasts.
///
/// The blackout pin covers a failure the global coverage watchdog
/// cannot see: one dark rack of eight drops cluster coverage only to
/// 87.5 %, yet the controller knows nothing about an eighth of its
/// load. The rack is the domain such an outage takes down (its feed,
/// its switch), so the fallback is scoped to it.
#[derive(Debug, Clone, Copy, Default)]
struct RackGuard {
    /// The slot the hold ends on and releases the rack; the rack is
    /// held while the slot is earlier (0: never held).
    hold_end: u64,
    /// Whether the blackout pin is engaged.
    blind: bool,
    /// Consecutive observed slots that argue against `blind`: fully
    /// dark ones while it is off, healthy ones while it is on.
    streak: u32,
}

/// What the guard does to a rack's alive nodes this slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pin {
    /// Leave them to the scheme.
    Free,
    /// Strip the scheme's commands and hold them at the safe P-state.
    Safe,
    /// The hold ended: nodes still at the safe P-state go to nominal.
    Release,
}

impl RackGuard {
    /// Advance one slot. `over`: the rack drew more than its slot
    /// allocation; `dark`: whether it had alive nodes and not one fresh
    /// reading among them (`None` without blackout pins). A breach
    /// starts or extends the hold; the blackout pin flips once its
    /// streak reaches `engage` (dark slots) or `recover` (healthy ones).
    /// A tripped rack has no power to guard: it drops both.
    fn step(
        self,
        slot: u64,
        over: bool,
        tripped: bool,
        dark: Option<bool>,
        t: GuardTiming,
    ) -> Self {
        let hold_end = if over { slot + t.hold } else { self.hold_end };
        let flip_after = if self.blind { t.recover } else { t.engage };
        match dark {
            _ if tripped => RackGuard::default(),
            None => RackGuard { hold_end, ..self },
            Some(d) if d == self.blind || self.streak + 1 >= flip_after => {
                RackGuard { hold_end, blind: d, streak: 0 }
            }
            Some(_) => RackGuard { hold_end, streak: self.streak + 1, ..self },
        }
    }

    /// The rack's pin this slot. While the global watchdog caps every
    /// node, blackout pins and releases are its business, not the
    /// guard's; a blackout pin never releases to nominal.
    fn pin(self, slot: u64, watchdog_engaged: bool) -> Pin {
        match self.hold_end.cmp(&slot) {
            Ordering::Greater => Pin::Safe,
            _ if self.blind && !watchdog_engaged => Pin::Safe,
            Ordering::Equal if !watchdog_engaged => Pin::Release,
            _ => Pin::Free,
        }
    }
}

/// Everything the engines carry for a configured topology: the static
/// tree, the per-slot allocator, verdict/power scratch, accounting, and
/// the rack guard's state.
#[derive(Debug, Clone)]
pub struct TopologyState {
    /// The static tree.
    pub(crate) topo: PowerTopology,
    /// The per-slot top-down allocator.
    pub(crate) alloc: HierarchicalBudget,
    /// Scratch verdict, refilled every observed slot.
    pub(crate) verdict: SlotVerdict,
    /// Accumulated per-level accounting.
    pub(crate) accounts: TopologyAccounts,
    /// Per-rack sensed power scratch, refilled every slot.
    pub(crate) rack_power_w: Vec<f64>,
    /// Whether over-allocation holds actuate (from
    /// [`TopologyConfig::defend`]).
    defend: bool,
    /// Whether blackout pins exist (the pipeline is hardened: a fault
    /// plan is configured).
    watch_blackouts: bool,
    /// The guard's pin target: the uniform safe P-state that keeps the
    /// whole cluster within the facility budget at worst-case load.
    safe_pstate: PState,
    /// Hold and blackout timing.
    timing: GuardTiming,
    /// Per-rack guard state.
    guards: Vec<RackGuard>,
    /// Slots observed so far.
    slot: u64,
}

impl TopologyState {
    /// Build the carried state for a validated config. `control_slot`
    /// sizes the guard's hold time from the breaker trip delay.
    /// `hardening` is the control-plane config of a hardened pipeline:
    /// it arms blackout pins, which engage after the telemetry
    /// staleness window and recover with the watchdog's hysteresis.
    pub(crate) fn new(
        servers: usize,
        facility_budget_w: f64,
        cfg: &TopologyConfig,
        control_slot: SimDuration,
        hardening: Option<&ControlPlaneConfig>,
    ) -> Self {
        let topo = PowerTopology::build(servers, facility_budget_w, cfg);
        let racks = topo.racks();
        let hold = (cfg.breaker_trip_delay.as_micros() / control_slot.as_micros().max(1)).max(1);
        // A blind streak shorter than the staleness window is bridged
        // by the last-known-good estimator, and on small racks one slot
        // with every sensor dropped is an ordinary random event: only an
        // outage that outlasts the window leaves the controller blind.
        let (engage, recover) = hardening.map_or((1, 1), |c| {
            (c.telemetry_staleness_slots.min(u64::from(u32::MAX)) as u32, c.watchdog_recovery_slots)
        });
        TopologyState {
            topo,
            alloc: HierarchicalBudget::new(),
            verdict: SlotVerdict::default(),
            accounts: TopologyAccounts::new(racks),
            rack_power_w: Vec::with_capacity(racks),
            defend: cfg.defend,
            watch_blackouts: hardening.is_some(),
            safe_pstate: crate::control::safe_pstate(facility_budget_w, servers),
            timing: GuardTiming { hold, engage: engage.max(1), recover: recover.max(1) },
            guards: vec![RackGuard::default(); racks],
            slot: 0,
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

    /// Step every rack's guard one slot and apply it to this slot's
    /// action plan:
    ///
    /// * **held** (with [`TopologyConfig::defend`]): a rack whose
    ///   sensed power exceeds its slot allocation, and whose breaker
    ///   has not tripped, is held for `timing.hold` slots; a re-breach
    ///   extends the hold. The slot a hold ends, the rack's alive nodes
    ///   still at the safe P-state are released to nominal
    ///   ([`PStateTable::max_state`]) — the scheme re-caps them if it
    ///   wants to.
    /// * **blind** (hardened pipelines, whatever `defend` says): a rack
    ///   with alive nodes and no fresh reading among them for
    ///   `telemetry_staleness_slots` slots is pinned until it has
    ///   reported for `watchdog_recovery_slots` slots, and is never
    ///   released to nominal. Dead nodes count neither way: a crash
    ///   reports a synthetic zero, not sensor health.
    ///
    /// A pinned rack has the scheme's per-node commands stripped and
    /// every alive node pinned to the safe P-state; the plan of every
    /// other rack is left untouched. While `watchdog_engaged` the global
    /// watchdog caps every node, so blackout pins are skipped and a
    /// hold that ends releases nothing. `readings` are this slot's
    /// per-node sensor readings (`None` = no fresh reading; absent
    /// without a fault plan), `target_of(g)` is node `g`'s commanded
    /// P-state.
    pub(crate) fn apply_rack_guard(
        &mut self,
        actions: &mut Vec<Action>,
        node_dead: &[bool],
        readings: Option<&[Option<f64>]>,
        target_of: impl Fn(usize) -> PState,
        watchdog_engaged: bool,
    ) {
        let TopologyState {
            topo, alloc, accounts, rack_power_w, defend, watch_blackouts, safe_pstate, timing,
            guards, slot, ..
        } = self;
        let (slot, safe, wd) = (*slot, *safe_pstate, watchdog_engaged);
        let sensed = *defend && rack_power_w.len() == topo.racks();
        let readings = readings.filter(|_| *watch_blackouts);
        let (mut was_blind, mut blind, mut held, mut acts) = (false, false, false, false);
        for (r, (guard, &(start, len))) in guards.iter_mut().zip(&topo.rack_ranges).enumerate() {
            let over = sensed && rack_power_w[r] > alloc.rack_alloc_w()[r];
            let dark = readings.map(|readings| {
                let range = start..start + len;
                let sensors = node_dead[range.clone()].iter().zip(&readings[range]);
                let mut alive = sensors.filter(|(&dead, _)| !dead).peekable();
                alive.peek().is_some() && alive.all(|(_, reading)| reading.is_none())
            });
            was_blind |= guard.blind;
            *guard = guard.step(slot, over, topo.rack_tripped(r), dark, *timing);
            blind |= guard.blind;
            held |= guard.hold_end > slot;
            acts |= guard.pin(slot, wd) != Pin::Free;
        }
        if readings.is_some() && blind {
            accounts.blackout_slots += 1;
            accounts.blackout_episodes += u64::from(!was_blind);
        }
        accounts.guard_slots += u64::from(held);
        if !acts {
            return;
        }
        // Scheme actions targeting nodes of pinned racks would fight
        // the guard; released nodes go back to the scheme untouched.
        let owner = &topo.owner_rack;
        actions.retain(|a| match a {
            Action::SetPState { node, .. } => guards[owner[*node]].pin(slot, wd) != Pin::Safe,
            _ => true,
        });
        let nominal = PStateTable::paper_default().max_state();
        for (guard, &(start, len)) in guards.iter().zip(&topo.rack_ranges) {
            let pin = guard.pin(slot, wd);
            if pin == Pin::Free {
                continue;
            }
            for g in (start..start + len).filter(|&g| !node_dead[g]) {
                match (pin, target_of(g) == safe) {
                    (Pin::Safe, false) => actions.push(Action::SetPState { node: g, target: safe }),
                    (Pin::Release, true) => {
                        actions.push(Action::SetPState { node: g, target: nominal });
                    }
                    _ => {}
                }
            }
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
            blackout_slots: self.accounts.blackout_slots,
            blackout_episodes: self.accounts.blackout_episodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The ladder's nominal top, where a hold releases its rack to.
    fn nominal() -> PState {
        PStateTable::paper_default().max_state()
    }

    /// A guard bench: `racks` racks of `per_rack` nodes at 80 W of
    /// facility budget each, one-second control slots and a `hold`-slot
    /// over-allocation hold (the breaker trip delay). `blackout` hardens
    /// it with blackout pins engaging after `.0` dark slots and ending
    /// after `.1` healthy ones. Targets start at nominal; the scheme's
    /// plan for each slot comes from the caller.
    struct Rig {
        state: TopologyState,
        per_rack: usize,
        dead: Vec<bool>,
        readings: Vec<Option<f64>>,
        targets: Vec<PState>,
        plan: Vec<Action>,
    }

    impl Rig {
        fn new(racks: usize, per_rack: usize, hold: u64, blackout: Option<(u32, u32)>) -> Self {
            let servers = racks * per_rack;
            let topo = TopologyConfig {
                breaker_trip_delay: SimDuration::from_secs(hold),
                ..cfg(racks, 1, 1)
            };
            let control = blackout.map(|(engage, recover)| ControlPlaneConfig {
                telemetry_staleness_slots: u64::from(engage),
                watchdog_recovery_slots: recover,
                ..ControlPlaneConfig::default()
            });
            let budget_w = 80.0 * servers as f64;
            let slot = SimDuration::from_secs(1);
            Rig {
                state: TopologyState::new(servers, budget_w, &topo, slot, control.as_ref()),
                per_rack,
                dead: vec![false; servers],
                readings: vec![Some(100.0); servers],
                targets: vec![nominal(); servers],
                plan: Vec::new(),
            }
        }

        /// Four-node racks with blackout pins and nothing over budget.
        fn blackouts(racks: usize, engage: u32, recover: u32) -> Self {
            Rig::new(racks, 4, 1, Some((engage, recover)))
        }

        /// Run one slot with rack `r` drawing `load[r]` times its budget
        /// under the scheme's `plan`; returns the plan the guard leaves,
        /// already applied to `targets`.
        fn slot(&mut self, load: &[f64], plan: &[Action]) -> &[Action] {
            let s = &mut self.state;
            let power: Vec<f64> =
                load.iter().enumerate().map(|(r, l)| l * s.topo.rack_budget_w(r)).collect();
            s.observe_racks(SimTime::from_secs(s.slot), &power);
            self.plan.clear();
            self.plan.extend_from_slice(plan);
            let (targets, readings) = (&self.targets, Some(&self.readings[..]));
            s.apply_rack_guard(&mut self.plan, &self.dead, readings, |g| targets[g], false);
            for a in &self.plan {
                if let Action::SetPState { node, target } = *a {
                    self.targets[node] = target;
                }
            }
            &self.plan
        }

        /// One idle slot in which rack `r` has `sensed[r].1` alive
        /// nodes, `sensed[r].0` of them with a fresh reading; returns
        /// which racks are blackout-pinned afterwards.
        fn sensed(&mut self, sensed: &[(usize, usize)]) -> Vec<bool> {
            for (r, &(fresh, alive)) in sensed.iter().enumerate() {
                for i in 0..self.per_rack {
                    let g = r * self.per_rack + i;
                    self.dead[g] = i >= alive;
                    self.readings[g] = (i < fresh).then_some(100.0);
                }
            }
            self.slot(&vec![0.0; sensed.len()], &[]);
            self.state.guards.iter().map(|g| g.blind).collect()
        }

        /// `(blackout_slots, blackout_episodes)` so far.
        fn blackouts_seen(&self) -> (u64, u64) {
            (self.state.accounts.blackout_slots, self.state.accounts.blackout_episodes)
        }
    }

    #[test]
    fn rack_blackout_requires_total_blackout() {
        let mut w = Rig::blackouts(2, 1, 3);
        // One live sensor out of four: not a rack blackout.
        assert_eq!(w.sensed(&[(1, 4), (4, 4)]), [false, false]);
        assert_eq!(w.blackouts_seen(), (0, 0));
        // Zero fresh readings: engage rack 0 only.
        assert_eq!(w.sensed(&[(0, 4), (4, 4)]), [true, false]);
        assert_eq!(w.blackouts_seen(), (1, 1));
    }

    #[test]
    fn rack_blackout_recovers_with_hysteresis() {
        let mut w = Rig::blackouts(1, 1, 3);
        let mut run = |fresh: &[usize]| -> Vec<bool> {
            fresh.iter().map(|&f| w.sensed(&[(f, 4)])[0]).collect()
        };
        // Two healthy slots are probation, the third releases.
        assert_eq!(run(&[0, 4, 4, 4]), [true, true, true, false]);
        // A relapse during probation restarts the streak.
        assert_eq!(run(&[0, 4, 0, 4, 4, 4]), [true, true, true, true, true, false]);
        assert_eq!(w.blackouts_seen(), (8, 2));
    }

    #[test]
    fn rack_blackout_ignores_gaps_shorter_than_the_engage_threshold() {
        let mut w = Rig::blackouts(1, 3, 2);
        // Two blind slots: below the threshold, never engages. One fresh
        // slot resets the blind streak entirely, and the third
        // *consecutive* blind slot engages.
        let blind: Vec<bool> = [0, 0, 1, 0, 0, 0].iter().map(|&f| w.sensed(&[(f, 2)])[0]).collect();
        assert_eq!(blind, [false, false, false, false, false, true]);
        assert_eq!(w.blackouts_seen(), (1, 1));
    }

    /// Engagement boundary: the engines set the engage threshold to the
    /// telemetry staleness window, so a blackout that ends *exactly* at
    /// the window must engage on its final blind slot — and a blackout
    /// one slot shorter must never engage (the last-good estimator is
    /// still bridging it).
    #[test]
    fn rack_blackout_ending_exactly_at_the_staleness_window_engages() {
        // Window = 3 slots, one slot shorter: never engages.
        let mut short = Rig::blackouts(1, 3, 2);
        let blind: Vec<bool> = [0, 0, 4].iter().map(|&f| short.sensed(&[(f, 4)])[0]).collect();
        assert_eq!(blind, [false, false, false], "telemetry back before the window");
        assert_eq!(short.blackouts_seen(), (0, 0));

        // Exactly the window: the third consecutive blind slot engages.
        let mut exact = Rig::blackouts(1, 3, 2);
        let blind: Vec<bool> = [0, 0, 0].iter().map(|&f| exact.sensed(&[(f, 4)])[0]).collect();
        assert_eq!(blind, [false, false, true], "blind slot 3 = window engages");
        assert_eq!(exact.blackouts_seen(), (1, 1));
    }

    /// Recovery boundary: with a recovery threshold of `r`, the rack
    /// stays capped through healthy slots `1..r-1` and releases *on* the
    /// r-th — not one early, not one late — and never to nominal.
    #[test]
    fn rack_blackout_recovery_releases_exactly_at_the_threshold_slot() {
        let r = 3;
        let mut w = Rig::blackouts(1, 1, r);
        assert!(w.sensed(&[(0, 2)])[0], "single blind slot engages at threshold 1");
        let safe = w.state.safe_pstate;
        assert!(w.targets[..2].iter().all(|&p| p == safe), "alive nodes pinned");
        for t in 1..r {
            assert!(w.sensed(&[(2, 2)])[0], "healthy slot {t} is still probation");
        }
        assert!(!w.sensed(&[(2, 2)])[0], "healthy slot {r} must release, not extend probation");
        assert!(w.plan.is_empty(), "a blackout pin ends without a release: {:?}", w.plan);
        // Engaged on the blind slot plus r-1 probation slots.
        assert_eq!(w.blackouts_seen(), (u64::from(r), 1));
    }

    /// The only held rack's hold ends while no other rack is held: its
    /// nodes are still released.
    #[test]
    fn hold_of_the_only_held_rack_expires_and_releases() {
        let mut w = Rig::new(2, 4, 3, None);
        let safe = w.state.safe_pstate;
        assert_eq!(w.slot(&[1.2, 0.1], &[]).len(), 4, "rack 0 breaches and is pinned");
        assert!(w.targets[..4].iter().all(|&p| p == safe));
        for _ in 0..2 {
            assert!(w.slot(&[0.1, 0.1], &[]).is_empty(), "held: already at the safe state");
        }
        let release = w.slot(&[0.1, 0.1], &[]).to_vec();
        assert_eq!(release.len(), 4, "the hold ended on slot 1 + 3: {release:?}");
        assert!(w.targets.iter().all(|&p| p == nominal()), "{:?}", w.targets);
        assert_eq!(w.state.accounts.guard_slots, 3);
    }

    /// The ladder ascends, so a release commands its top, not index 0
    /// (1.2 GHz, below the safe pin it replaces).
    #[test]
    fn release_commands_max_state_not_min_state() {
        let mut w = Rig::new(2, 4, 3, None);
        w.slot(&[1.2, 0.1], &[]);
        w.slot(&[0.1, 1.2], &[]);
        w.slot(&[0.1, 0.1], &[]);
        // Rack 0's hold ends while rack 1's still runs.
        let release = w.slot(&[0.1, 0.1], &[]).to_vec();
        let expect: Vec<Action> =
            (0..4).map(|node| Action::SetPState { node, target: nominal() }).collect();
        assert_eq!(release, expect);
        assert_ne!(nominal(), PStateTable::paper_default().min_state());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        /// The guard over random rack power traces (loads of 0.3–0.9 or
        /// 1.2–1.8 × the rack budget), holds of 1–5 slots, re-breaches
        /// while held, full and half rack blackouts overlapping holds,
        /// dead nodes, and a scheme commanding nodes of every rack:
        ///
        /// * a node held for over-allocation is released at the latest
        ///   `hold` slots after its rack's last breach, the
        ///   `guard_hold_slots + 1`-th slot counting the breach, unless
        ///   a blackout pin then holds it;
        /// * a release only ends a hold on its last slot, never while
        ///   blackout-pinned: blackout pins never release to nominal;
        /// * a tripped rack is never pinned;
        /// * no rack above its allocation, and no blind rack, goes a
        ///   slot with an alive node off the safe P-state.
        #[test]
        fn prop_rack_guard_lets_go_and_keeps_safety(
            shape in (2usize..5, 1usize..4, 1u64..6),
            thresholds in (1u32..4, 1u32..4),
            slots in proptest::collection::vec(
                proptest::collection::vec((0u8..10, 0u8..10, 0u8..10), 4),
                40,
            ),
            deaths in proptest::collection::vec(1u64..120, 12),
        ) {
            let ((racks, per_rack, hold), (engage, recover)) = (shape, thresholds);
            let mut w = Rig::new(racks, per_rack, hold, Some((engage, recover)));
            let safe = w.state.safe_pstate;
            // The scheme's command: neither the safe state nor nominal,
            // so every command to either comes from the guard.
            let scheme = PState(if safe.0 == 1 { 2 } else { 1 });
            // The reference: each rack's last breach, its dark and lit
            // runs and blackout pin, and the breach each node still
            // owes a release for.
            let mut last_breach: Vec<Option<u64>> = vec![None; racks];
            let (mut dark_run, mut lit_run) = (vec![0u32; racks], vec![0u32; racks]);
            let mut blind = vec![false; racks];
            let mut owed: Vec<Option<u64>> = vec![None; racks * per_rack];
            for (t, draws) in (1u64..).zip(&slots) {
                let (mut load, mut plan) = (Vec::new(), Vec::new());
                for (r, &(power, sight, command)) in draws.iter().take(racks).enumerate() {
                    let power = f64::from(power);
                    load.push(if power < 3.0 { 1.2 + 0.2 * power } else { 0.1 * power });
                    for i in 0..per_rack {
                        let g = r * per_rack + i;
                        w.dead[g] = deaths[g] <= t;
                        let silent = sight < 2 || (sight < 4 && i % 2 == 0);
                        w.readings[g] = (w.dead[g] || !silent).then_some(100.0);
                    }
                    if command < 3 {
                        let node = r * per_rack + usize::from(command) % per_rack;
                        plan.push(Action::SetPState { node, target: scheme });
                    }
                }
                let plan = w.slot(&load, &plan).to_vec();
                let alloc = w.state.alloc.rack_alloc_w().to_vec();
                for r in 0..racks {
                    let nodes = r * per_rack..(r + 1) * per_rack;
                    let tripped = w.state.topo.rack_tripped(r);
                    let over = !tripped && w.state.rack_power_w[r] > alloc[r];
                    let mut alive = nodes.clone().filter(|&g| !w.dead[g]).peekable();
                    let dark = alive.peek().is_some() && alive.all(|g| w.readings[g].is_none());
                    dark_run[r] = if dark { dark_run[r] + 1 } else { 0 };
                    lit_run[r] = if dark { 0 } else { lit_run[r] + 1 };
                    blind[r] = !tripped
                        && if blind[r] { lit_run[r] < recover } else { dark_run[r] >= engage };
                    if tripped {
                        last_breach[r] = None;
                    } else if over {
                        last_breach[r] = Some(t);
                    }
                    for g in nodes {
                        let guard = plan.iter().rev().find_map(|a| match *a {
                            Action::SetPState { node, target } if node == g && target != scheme => {
                                Some(target)
                            }
                            _ => None,
                        });
                        if tripped {
                            prop_assert!(guard.is_none(), "slot {}: tripped rack {} pinned", t, r);
                        }
                        if tripped || w.dead[g] {
                            owed[g] = None;
                            continue;
                        }
                        if over || blind[r] {
                            prop_assert_eq!(w.targets[g], safe);
                        }
                        if guard == Some(nominal()) {
                            let ends_hold = last_breach[r].is_some_and(|b| b + hold == t);
                            prop_assert!(
                                ends_hold && !blind[r],
                                "slot {}: node {} released off a hold's end",
                                t,
                                g
                            );
                            owed[g] = None;
                        }
                        if over {
                            owed[g] = Some(t);
                        }
                        if let Some(b) = owed[g].filter(|&b| t >= b + hold) {
                            prop_assert!(blind[r], "slot {}: node {} pinned since {}", t, g, b);
                            owed[g] = None;
                        }
                    }
                }
            }
        }
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
