//! **Account** — exact physical integration: energy metering, thermal
//! RC dynamics, and the breaker model (the oversubscription physics
//! behind Figs. 1 and 19 of the paper).
//!
//! The cluster engine integrates each node's energy exactly, per event,
//! and hands this stage the slot-boundary aggregate; the meter splits it
//! into utility, battery and charge flows. The thermal and breaker
//! models advance once per slot; conceptually the accountant brackets
//! the slot — running at the top of the boundary, it closes the
//! *previous* slot's interval before the control plane produces new
//! commands.

use super::BatteryFlows;
use crate::node::ComputeNode;
use dcmetrics::energy::EnergySource;
use dcmetrics::{EnergyMeter, OnlineSummary, TimeSeries};
use powercap::Breaker;
use powercap::pstate::PStateTable;
use powercap::thermal::{ThermalNode, ThermalState};
use simcore::SimTime;

/// Physical-integration stage: meter, series, thermal and breaker
/// models, and the outage latch.
pub struct AccountStage {
    /// Exact three-source energy meter (utility / battery / charge).
    pub(crate) meter: EnergyMeter,
    /// Current aggregate load power, watts.
    pub(crate) cluster_power_w: f64,
    /// Per-slot cluster power samples.
    pub(crate) power_series: TimeSeries,
    /// Per-slot battery state-of-charge samples.
    pub(crate) battery_series: TimeSeries,
    /// Per-slot mean V/F reduction across nodes.
    pub(crate) vf_summary: OnlineSummary,
    /// Deepest V/F reduction seen on any node.
    pub(crate) max_vf: u8,
    /// Cluster feed breaker, when configured.
    pub(crate) breaker: Option<Breaker>,
    /// Per-node thermal models, when configured.
    pub(crate) thermals: Option<Vec<ThermalNode>>,
    /// When the breaker opened, if it did.
    pub(crate) outage_at: Option<SimTime>,
}

impl AccountStage {
    /// Fresh accountant with the meter and series seeded at the
    /// cluster's idle draw.
    pub(crate) fn new(
        start: SimTime,
        idle_power_w: f64,
        breaker: Option<Breaker>,
        thermals: Option<Vec<ThermalNode>>,
    ) -> Self {
        let mut meter = EnergyMeter::new(start);
        meter.set_power(start, EnergySource::Utility, idle_power_w);
        let mut power_series = TimeSeries::new();
        power_series.record(start, idle_power_w);
        let mut battery_series = TimeSeries::new();
        battery_series.record(start, 1.0);
        AccountStage {
            meter,
            cluster_power_w: idle_power_w,
            power_series,
            battery_series,
            vf_summary: OnlineSummary::new(),
            max_vf: 0,
            breaker,
            thermals,
            outage_at: None,
        }
    }

    /// When the breaker opened, if it did.
    pub(crate) fn outage(&self) -> Option<SimTime> {
        self.outage_at
    }

    /// Current aggregate load power, watts.
    pub(crate) fn cluster_power_w(&self) -> f64 {
        self.cluster_power_w
    }

    /// Cumulative load energy delivered up to `now`, joules — the
    /// RAPL-style counter the trace recorder stamps into each slot.
    pub(crate) fn load_joules(&self, now: SimTime) -> f64 {
        self.meter.load_joules(now)
    }

    /// Push the aggregate draw `total` into the meter, split by the
    /// granted battery flows. The engine maintains the per-node power
    /// column incrementally and hands the slot-boundary total in.
    pub(crate) fn sync_power_total(&mut self, now: SimTime, total: f64, flows: &BatteryFlows) {
        if self.outage_at.is_some() {
            self.cluster_power_w = 0.0;
            self.meter.set_power(now, EnergySource::Utility, 0.0);
            self.meter.set_power(now, EnergySource::Battery, 0.0);
            self.meter.set_power(now, EnergySource::BatteryCharge, 0.0);
            return;
        }
        self.cluster_power_w = total;
        let utility = (total - flows.discharge_w).max(0.0) + flows.charge_w;
        self.meter.set_power(now, EnergySource::Utility, utility);
        self.meter
            .set_power(now, EnergySource::Battery, flows.discharge_w.min(total));
        self.meter
            .set_power(now, EnergySource::BatteryCharge, flows.charge_w);
    }

    /// Advance the per-node thermal models one slot. PROCHOT clamps the
    /// P-state in hardware (bypassing the fault layer — it is a
    /// hardware path, not a control command); a critical trip is
    /// returned for the driver to kill the node (the cooling layer of
    /// the DOPE threat). Clamp settles are pushed to `settles` as
    /// `(time, node)`.
    /// Trips are appended to `tripped`, a caller-owned scratch buffer
    /// that is cleared here so the steady-state slot path allocates
    /// nothing.
    pub(crate) fn advance_thermals(
        &mut self,
        now: SimTime,
        nodes: &mut [ComputeNode],
        node_dead: &[bool],
        settles: &mut Vec<(SimTime, usize)>,
        tripped: &mut Vec<usize>,
    ) {
        tripped.clear();
        let Some(thermals) = self.thermals.as_mut() else {
            return;
        };
        for (i, th) in thermals.iter_mut().enumerate() {
            if node_dead[i] {
                continue;
            }
            let power = nodes[i].power_w();
            let was = th.state();
            let state = th.advance(now, power);
            match state {
                ThermalState::Prochot if was != ThermalState::Prochot => {
                    // Hardware clamp: 1.6 GHz region regardless of
                    // what any scheme commanded.
                    let clamp = PStateTable::paper_default().fastest_at_most(1.6);
                    let settle = nodes[i].command_pstate(now, clamp);
                    settles.push((settle, i));
                }
                ThermalState::Nominal if was == ThermalState::Prochot => {
                    // Clamp released; schemes re-throttle next slot
                    // if they need to.
                    let top = PStateTable::paper_default().max_state();
                    let settle = nodes[i].command_pstate(now, top);
                    settles.push((settle, i));
                }
                ThermalState::Tripped => tripped.push(i),
                _ => {}
            }
        }
    }

    /// Feed the breaker what the utility actually carries; returns true
    /// if it tripped *this* call (the unplanned outage of Fig. 1 — the
    /// battery cannot save an open breaker). The outage latch is set
    /// here; the driver handles the consequences (draining every node).
    pub(crate) fn breaker_tripped(&mut self, now: SimTime, flows: &BatteryFlows) -> bool {
        if self.outage_at.is_some() {
            return false;
        }
        let Some(breaker) = &mut self.breaker else {
            return false;
        };
        let utility = (self.cluster_power_w - flows.discharge_w).max(0.0) + flows.charge_w;
        if breaker.observe(now, utility) {
            self.outage_at = Some(now);
            true
        } else {
            false
        }
    }

    /// End-of-slot bookkeeping: record the power / SoC series and the
    /// V/F reduction statistics (the engine scans its data-oriented V/F
    /// column for them).
    pub(crate) fn record_slot_stats(
        &mut self,
        now: SimTime,
        mean_vf: f64,
        max_vf: u8,
        battery_soc: f64,
    ) {
        self.power_series.record(now, self.cluster_power_w);
        self.battery_series.record(now, battery_soc);
        self.vf_summary.record(mean_vf);
        self.max_vf = self.max_vf.max(max_vf);
    }

    /// Dark data center: record the flatline so the report covers the
    /// full window.
    pub(crate) fn record_outage_slot(&mut self, now: SimTime, battery_soc: f64) {
        self.power_series.record(now, 0.0);
        self.battery_series.record(now, battery_soc);
        self.meter.set_power(now, EnergySource::Utility, 0.0);
        self.meter.set_power(now, EnergySource::Battery, 0.0);
        self.meter.set_power(now, EnergySource::BatteryCharge, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    /// The thermal pass must reuse the caller-owned trip scratch: with
    /// capacity for every node pre-reserved, no slot may reallocate it,
    /// even in the slot where every node trips.
    #[test]
    fn thermal_scratch_is_reused_without_reallocation() {
        let start = SimTime::ZERO;
        let n = 4;
        let mut nodes: Vec<ComputeNode> = (0..n)
            .map(|_| ComputeNode::new(start, 4, 32, SimDuration::from_secs(1)))
            .collect();
        // 2 °C/W against ~55 W idle draw: steady state far above the
        // 95 °C critical line, so every node trips within a few τ.
        let thermals: Vec<ThermalNode> = (0..n)
            .map(|_| {
                ThermalNode::new(start, 25.0, 2.0, SimDuration::from_secs(10), 75.0, 70.0, 95.0)
            })
            .collect();
        let mut stage = AccountStage::new(start, 0.0, None, Some(thermals));
        let mut node_dead = vec![false; n];
        let mut tripped: Vec<usize> = Vec::with_capacity(n);
        let ptr = tripped.as_ptr();
        let mut total_trips = 0usize;
        for s in 1..=60u64 {
            let now = SimTime::from_secs(s);
            let mut settles = Vec::new();
            stage.advance_thermals(now, &mut nodes, &node_dead, &mut settles, &mut tripped);
            total_trips += tripped.len();
            assert_eq!(tripped.as_ptr(), ptr, "slot {s} reallocated the trip scratch");
            for &i in &tripped {
                node_dead[i] = true; // the driver kills tripped nodes
            }
        }
        assert_eq!(total_trips, n, "every node trips exactly once in this rig");
    }
}
