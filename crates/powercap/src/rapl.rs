//! RAPL-style power-limit interface.
//!
//! The paper's RPM module "leverages the perf_event interface ... to
//! modify the RAPL interfaces provided by Intel processors" (Section
//! 5.2). The semantics that matter to a power manager: you write a watt
//! limit, and after an enforcement delay the package governor holds
//! average power at or below that limit by clamping the P-state. We model
//! exactly that: a watt limit plus the workload character currently on
//! the node resolve to a P-state command on the node's
//! [`DvfsController`].

use crate::dvfs::DvfsController;
use crate::pstate::PState;
use crate::server_power::ServerPowerModel;
use simcore::{SimDuration, SimTime};

/// A per-node power-limit actuator.
#[derive(Debug, Clone)]
pub struct Rapl {
    model: ServerPowerModel,
    /// Active limit, watts; `None` = uncapped.
    limit_w: Option<f64>,
}

impl Rapl {
    /// New uncapped interface over the given power model.
    pub fn new(model: ServerPowerModel) -> Self {
        Rapl {
            model,
            limit_w: None,
        }
    }

    /// The active limit, if any.
    #[cfg(test)]
    pub(crate) fn limit_w(&self) -> Option<f64> {
        self.limit_w
    }

    /// Set (or clear with `None`) the package power limit at `now`,
    /// resolving it to a P-state for the workload character currently on
    /// the node (`intensity`, `gamma`) and commanding the DVFS
    /// controller. Returns the commanded state.
    #[cfg(test)]
    pub(crate) fn set_limit(
        &mut self,
        now: SimTime,
        dvfs: &mut DvfsController,
        limit_w: Option<f64>,
        intensity: f64,
        gamma: f64,
    ) -> PState {
        self.set_limit_delayed(now, dvfs, limit_w, intensity, gamma, SimDuration::ZERO)
    }

    /// Set a watt limit that takes effect after an actuation delay
    /// (fault injection: the MSR write reaches the governor late).
    pub fn set_limit_delayed(
        &mut self,
        now: SimTime,
        dvfs: &mut DvfsController,
        limit_w: Option<f64>,
        intensity: f64,
        gamma: f64,
        extra: SimDuration,
    ) -> PState {
        self.limit_w = limit_w;
        let target = self.resolve(limit_w, intensity, gamma);
        dvfs.command_delayed(now, target, extra);
        target
    }

    /// The P-state a given limit resolves to for the workload character,
    /// without commanding anything — used for actuator read-back checks.
    pub fn resolve(&self, limit_w: Option<f64>, intensity: f64, gamma: f64) -> PState {
        match limit_w {
            None => self.model.table.max_state(),
            Some(w) => self.model.state_for_cap(w, intensity, gamma),
        }
    }

    /// Worst-case power at the currently-enforced target state for the
    /// given workload character — what the governor believes it holds.
    #[cfg(test)]
    pub(crate) fn enforced_power_w(
        &self,
        dvfs: &DvfsController,
        intensity: f64,
        gamma: f64,
    ) -> f64 {
        self.model.full_load_power(dvfs.target(), intensity, gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pstate::PStateTable;
    use simcore::SimDuration;

    fn rig() -> (Rapl, DvfsController) {
        let model = ServerPowerModel::paper_default();
        let dvfs = DvfsController::new(PStateTable::paper_default(), SimDuration::from_millis(10));
        (Rapl::new(model), dvfs)
    }

    #[test]
    fn uncapped_runs_nominal() {
        let (mut rapl, mut dvfs) = rig();
        let p = rapl.set_limit(SimTime::ZERO, &mut dvfs, None, 1.0, 1.0);
        assert_eq!(p, PState(12));
        assert_eq!(rapl.limit_w(), None);
    }

    #[test]
    fn limit_resolves_to_satisfying_state() {
        let (mut rapl, mut dvfs) = rig();
        let p = rapl.set_limit(SimTime::ZERO, &mut dvfs, Some(75.0), 1.0, 1.0);
        assert!(p < PState(12));
        assert!(rapl.enforced_power_w(&dvfs, 1.0, 1.0) <= 75.0 + 1e-9);
        // Takes effect only after the DVFS transition latency.
        dvfs.advance(SimTime::from_millis(5));
        assert_eq!(dvfs.effective(), PState(12));
        dvfs.advance(SimTime::from_millis(10));
        assert_eq!(dvfs.effective(), p);
    }

    #[test]
    fn memory_bound_workload_needs_lower_state() {
        let (mut rapl, mut dvfs) = rig();
        let p_cpu = rapl.set_limit(SimTime::ZERO, &mut dvfs, Some(80.0), 1.0, 0.95);
        let p_mem = rapl.set_limit(SimTime::from_millis(20), &mut dvfs, Some(80.0), 0.95, 0.45);
        assert!(p_mem < p_cpu, "{p_mem:?} vs {p_cpu:?}");
    }

    #[test]
    fn clearing_limit_restores_nominal() {
        let (mut rapl, mut dvfs) = rig();
        rapl.set_limit(SimTime::ZERO, &mut dvfs, Some(60.0), 1.0, 1.0);
        let p = rapl.set_limit(SimTime::from_secs(1), &mut dvfs, None, 1.0, 1.0);
        assert_eq!(p, PState(12));
        dvfs.advance(SimTime::from_secs(2));
        assert_eq!(dvfs.effective(), PState(12));
    }

    #[test]
    fn delayed_limit_defers_enforcement() {
        let (mut rapl, mut dvfs) = rig();
        let p = rapl.set_limit_delayed(
            SimTime::ZERO,
            &mut dvfs,
            Some(75.0),
            1.0,
            1.0,
            SimDuration::from_millis(90),
        );
        assert_eq!(rapl.resolve(Some(75.0), 1.0, 1.0), p);
        dvfs.advance(SimTime::from_millis(99));
        assert_eq!(dvfs.effective(), PState(12));
        dvfs.advance(SimTime::from_millis(100));
        assert_eq!(dvfs.effective(), p);
    }

    #[test]
    fn infeasible_limit_floors() {
        let (mut rapl, mut dvfs) = rig();
        let p = rapl.set_limit(SimTime::ZERO, &mut dvfs, Some(5.0), 1.0, 1.0);
        assert_eq!(p, PState(0));
    }
}
