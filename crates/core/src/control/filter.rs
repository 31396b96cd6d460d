//! **Filter** — telemetry trust (the paper's power monitor + health
//! checker, Fig. 12).
//!
//! Turns a slot's raw telemetry into the trusted [`ClusterView`] the
//! decision stage acts on: [`TelemetryHealth`] bridges sensor dropouts
//! with last-good values (nameplate for nodes blind past the staleness
//! deadline), the [`Watchdog`] engages when fresh-sensor coverage falls
//! below the configured floor, and the [`PowerMonitor`] renders the
//! slot's budget verdict on the filtered estimate.

use super::ClusterView;
use crate::health::{TelemetryHealth, Watchdog};
use powercap::monitor::PowerMonitor;
use simcore::SimTime;

/// The fault-tolerance half of the filter, present only under fault
/// injection: estimation over partially-missing readings plus the
/// coverage watchdog.
pub struct Hardening {
    /// Last-good-value estimator with a staleness deadline.
    pub telemetry: TelemetryHealth,
    /// Coverage watchdog with recovery hysteresis.
    pub watchdog: Watchdog,
}

/// Telemetry-trust stage: hardening (optional) + the power monitor.
pub struct FilterStage {
    /// The paper's power monitor: slot-averaged budget verdicts.
    pub monitor: PowerMonitor,
    /// Dropout bridging + watchdog, when a fault plan is configured.
    pub hardening: Option<Hardening>,
}

impl FilterStage {
    /// Fold one slot's telemetry — the true aggregate, plus per-node
    /// readings under fault injection — into a trusted view. The order is load-bearing:
    /// estimate → watchdog → monitor, so the watchdog judges the same
    /// coverage the monitor's estimate was built from.
    pub(crate) fn run(
        &mut self,
        now: SimTime,
        true_power_w: f64,
        readings: Option<&[Option<f64>]>,
        node_dead: &[bool],
        per_node_nameplate_w: f64,
    ) -> ClusterView {
        match (&mut self.hardening, readings) {
            (Some(h), Some(readings)) => {
                let est = h.telemetry.estimate(now, readings, node_dead, per_node_nameplate_w);
                let engaged = h.watchdog.observe(now, est.coverage);
                ClusterView {
                    condition: self.monitor.observe(est.power_w),
                    observed_w: est.power_w,
                    coverage: est.coverage,
                    watchdog_engaged: engaged,
                }
            }
            _ => ClusterView {
                condition: self.monitor.observe(true_power_w),
                observed_w: true_power_w,
                coverage: 1.0,
                watchdog_engaged: false,
            },
        }
    }

    /// Drop a node's held sample (it crashed; its next reading comes
    /// from fresh hardware).
    pub(crate) fn forget_node(&mut self, node: usize) {
        if let Some(h) = &mut self.hardening {
            h.telemetry.forget(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powercap::budget::{BudgetLevel, PowerBudget};
    use simcore::SimDuration;

    fn stage(n_nodes: usize) -> FilterStage {
        let budget = PowerBudget::for_cluster(400.0, BudgetLevel::Normal);
        FilterStage {
            monitor: PowerMonitor::new(budget, 1).unwrap(),
            hardening: Some(Hardening {
                telemetry: TelemetryHealth::new(n_nodes, SimDuration::from_secs(5)),
                watchdog: Watchdog::new(0.5, 3),
            }),
        }
    }

    /// Both nodes alive.
    const ALIVE: &[bool] = &[false, false];

    /// Per-node readings; the tests pass 0 W as the true aggregate,
    /// which the hardened path must ignore.
    fn frame(readings: &[Option<f64>]) -> Option<&[Option<f64>]> {
        Some(readings)
    }

    #[test]
    fn holds_last_good_through_a_dropout() {
        let mut f = stage(2);
        let v = f.run(SimTime::from_secs(1), 0.0, frame(&[Some(70.0), Some(50.0)]), ALIVE, 100.0);
        assert_eq!(v.observed_w, 120.0);
        assert_eq!(v.coverage, 1.0);
        assert!(!v.watchdog_engaged);
        // Node 0's sensor drops out: its 70 W reading is held, not
        // replaced by the 100 W nameplate.
        let v = f.run(SimTime::from_secs(2), 0.0, frame(&[None, Some(55.0)]), ALIVE, 100.0);
        assert_eq!(v.observed_w, 125.0);
        assert_eq!(v.coverage, 0.5);
        assert!(!v.watchdog_engaged, "coverage at the floor is still trusted");
    }

    #[test]
    fn engages_watchdog_below_coverage_floor() {
        let mut f = stage(2);
        f.run(SimTime::from_secs(1), 0.0, frame(&[Some(70.0), Some(50.0)]), ALIVE, 100.0);
        // Total blackout: both values held, but zero fresh coverage
        // trips the 0.5 floor.
        let v = f.run(SimTime::from_secs(2), 0.0, frame(&[None, None]), ALIVE, 100.0);
        assert_eq!(v.observed_w, 120.0, "held values still feed the estimate");
        assert_eq!(v.coverage, 0.0);
        assert!(v.watchdog_engaged);
        // Recovery needs 3 consecutive healthy slots (hysteresis).
        for t in 3..5 {
            let healthy = frame(&[Some(70.0), Some(50.0)]);
            let v = f.run(SimTime::from_secs(t), 0.0, healthy, ALIVE, 100.0);
            assert!(v.watchdog_engaged, "slot {t} still in probation");
        }
        let v = f.run(SimTime::from_secs(5), 0.0, frame(&[Some(70.0), Some(50.0)]), ALIVE, 100.0);
        assert!(!v.watchdog_engaged);
    }

    #[test]
    fn forget_node_drops_the_held_value() {
        let mut f = stage(2);
        f.run(SimTime::from_secs(1), 0.0, frame(&[Some(70.0), Some(50.0)]), ALIVE, 100.0);
        f.forget_node(0);
        // With the held value gone, the dropout is charged nameplate.
        let v = f.run(SimTime::from_secs(2), 0.0, frame(&[None, Some(50.0)]), ALIVE, 100.0);
        assert_eq!(v.observed_w, 150.0);
    }

    #[test]
    fn unhardened_stage_passes_truth_through() {
        let budget = PowerBudget::for_cluster(400.0, BudgetLevel::Normal);
        let mut f = FilterStage {
            monitor: PowerMonitor::new(budget, 1).unwrap(),
            hardening: None,
        };
        let v = f.run(SimTime::from_secs(1), 160.0, None, ALIVE, 100.0);
        assert_eq!(v.observed_w, 160.0);
        assert_eq!(v.coverage, 1.0);
        assert!(!v.watchdog_engaged);
    }
}
