//! A compute node: processor-sharing queue + DVFS, drawing power by the
//! paper's one server power model.
//!
//! Couples the substrates: the queue's speed follows the DVFS effective
//! state, and the node's instantaneous power follows the queue's resident
//! load character through the server power model.

use netsim::queueing::{Completion, PsServer, PushOutcome};
use netsim::request::Request;
use powercap::dvfs::DvfsController;
use powercap::pstate::PState;
use powercap::server_power::ServerPowerModel;
use simcore::{SimDuration, SimTime};

/// One server: queue and frequency actuator. Its power follows
/// [`ServerPowerModel::paper_default`], which every node shares.
#[derive(Debug, Clone)]
pub(crate) struct ComputeNode {
    queue: PsServer,
    dvfs: DvfsController,
}

impl ComputeNode {
    /// Build a node with the paper's 100 W power model.
    pub(crate) fn new(
        start: SimTime,
        cores: usize,
        max_inflight: usize,
        dvfs_latency: SimDuration,
    ) -> Self {
        let core_ghz = ServerPowerModel::paper_default().table.max_freq_ghz();
        ComputeNode {
            queue: PsServer::new(start, cores, core_ghz, max_inflight),
            dvfs: DvfsController::new(dvfs_latency),
        }
    }

    /// Requests in flight.
    pub(crate) fn inflight(&self) -> usize {
        self.queue.len()
    }

    /// Queue epoch (see [`PsServer::epoch`]).
    pub(crate) fn epoch(&self) -> u64 {
        self.queue.epoch()
    }

    /// Lifetime completions.
    #[cfg(test)]
    pub(crate) fn completed(&self) -> u64 {
        self.queue.completed()
    }

    /// Lifetime rejections.
    pub(crate) fn rejected(&self) -> u64 {
        self.queue.rejected()
    }

    /// The effective P-state as of the last advance.
    pub(crate) fn effective_pstate(&self) -> PState {
        self.dvfs.effective()
    }

    /// The commanded target P-state.
    pub(crate) fn target_pstate(&self) -> PState {
        self.dvfs.target()
    }

    /// V/F reduction steps below nominal (Fig 6's y-axis).
    pub(crate) fn vf_reduction_steps(&self) -> u8 {
        self.dvfs.vf_reduction_steps()
    }

    /// Lifetime DVFS transitions commanded.
    pub(crate) fn dvfs_transitions(&self) -> u64 {
        self.dvfs.transitions()
    }

    /// Resident load character `(utilization, intensity, gamma)`.
    pub(crate) fn load_character(&self) -> (f64, f64, f64) {
        self.queue.load_character()
    }

    /// Mean CPU-boundedness of the resident mix.
    pub(crate) fn mean_beta(&self) -> f64 {
        self.queue.mean_beta()
    }

    /// Instantaneous node power, watts.
    pub(crate) fn power_w(&self) -> f64 {
        let (u, i, g) = self.queue.load_character();
        ServerPowerModel::paper_default().power(self.dvfs.effective(), u, i, g)
    }

    /// The power this node would still draw at the deepest P-state with
    /// its current resident mix — the floor DVFS cannot throttle below.
    /// A memory-bound mix (low γ) keeps most of its dynamic power here;
    /// the gap between [`ComputeNode::power_w`] and this floor is the
    /// only headroom a capping-style defense can actually reclaim.
    #[cfg(test)]
    pub(crate) fn unreclaimable_power_w(&self) -> f64 {
        let (u, i, g) = self.queue.load_character();
        let model = ServerPowerModel::paper_default();
        model.power(model.table.min_state(), u, i, g)
    }

    /// Offer a request to the queue.
    pub(crate) fn push(&mut self, now: SimTime, req: Request) -> PushOutcome {
        self.queue.push(now, req)
    }

    /// Predict the next completion (advance first).
    pub(crate) fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, Completion)> {
        self.queue.advance(now);
        self.queue.next_completion()
    }

    /// Attempt a completion (see [`PsServer::try_complete`]).
    pub(crate) fn try_complete(
        &mut self,
        now: SimTime,
        due: Completion,
    ) -> Option<(Request, SimDuration)> {
        self.queue.try_complete(now, due)
    }

    /// Command a P-state directly; returns the settle instant.
    pub(crate) fn command_pstate(&mut self, now: SimTime, target: PState) -> SimTime {
        self.dvfs.command(now, target)
    }

    /// [`ComputeNode::command_pstate`] with an extra actuation delay
    /// (fault injection: the command reaches the governor late).
    pub(crate) fn command_pstate_after(
        &mut self,
        now: SimTime,
        target: PState,
        extra: SimDuration,
    ) -> SimTime {
        self.dvfs.command_delayed(now, target, extra)
    }

    /// Apply any matured DVFS transition to the queue speed. Call at the
    /// settle instant (and it is harmless to call at any other time).
    pub(crate) fn apply_dvfs(&mut self, now: SimTime) {
        self.dvfs.advance(now);
        let rel = self.dvfs.rel_freq();
        if (self.queue.rel_freq() - rel).abs() > 1e-12 {
            self.queue.set_rel_freq(now, rel);
        } else {
            self.queue.advance(now);
        }
    }

    /// Drain the queue (power loss), delivering each lost request to
    /// `visit`. Allocation-free (see [`PsServer::drain_with`]).
    pub(crate) fn drain_with(&mut self, now: SimTime, visit: impl FnMut(Request)) {
        self.queue.drain_with(now, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::request::{RequestBuilder, SourceId, UrlId};

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn node() -> ComputeNode {
        ComputeNode::new(SimTime::ZERO, 4, 64, SimDuration::from_millis(10))
    }

    fn req(b: &mut RequestBuilder, work: f64, beta: f64, intensity: f64) -> Request {
        b.build(
            UrlId(0),
            SourceId(0),
            SimTime::ZERO,
            work,
            beta,
            intensity,
            0.9,
            false,
        )
    }

    #[test]
    fn idle_node_draws_idle_power() {
        let n = node();
        assert!((n.power_w() - 40.0).abs() < 1e-9);
        assert_eq!(n.vf_reduction_steps(), 0);
    }

    #[test]
    fn power_rises_with_load() {
        let mut n = node();
        let mut b = RequestBuilder::new();
        n.push(SimTime::ZERO, req(&mut b, 2.4, 1.0, 1.0));
        // 1 of 4 cores busy at intensity 1: 40 + √0.25·60 = 70 W
        // (concave utilization curve).
        assert!((n.power_w() - 70.0).abs() < 1e-9);
        for _ in 0..3 {
            n.push(SimTime::ZERO, req(&mut b, 2.4, 1.0, 1.0));
        }
        assert!((n.power_w() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_mix_pins_the_unreclaimable_floor() {
        let mut cpu = node();
        let mut mem = node();
        let mut b = RequestBuilder::new();
        for _ in 0..4 {
            cpu.push(
                SimTime::ZERO,
                b.build(UrlId(0), SourceId(0), SimTime::ZERO, 2.4, 1.0, 1.0, 0.9, false),
            );
            // The MemoryBound attack profile: β 0.15, intensity 1, γ 0.2.
            mem.push(
                SimTime::ZERO,
                b.build(UrlId(1), SourceId(1), SimTime::ZERO, 2.4, 0.15, 1.0, 0.2, true),
            );
        }
        // Identical draw at the nominal P-state...
        assert!((cpu.power_w() - mem.power_w()).abs() < 1e-9);
        // ...but the deepest P-state reclaims far less from the memory
        // mix: most of its dynamic power ignores the V/F curve.
        assert!(
            mem.unreclaimable_power_w() > cpu.unreclaimable_power_w() + 20.0,
            "mem floor {} vs cpu floor {}",
            mem.unreclaimable_power_w(),
            cpu.unreclaimable_power_w()
        );
        assert!(mem.unreclaimable_power_w() <= mem.power_w() + 1e-9);
    }

    #[test]
    fn dvfs_lowers_power_and_speed_after_settle() {
        let mut n = node();
        let mut b = RequestBuilder::new();
        for _ in 0..4 {
            n.push(SimTime::ZERO, req(&mut b, 2.4, 1.0, 1.0));
        }
        let settle = n.command_pstate(SimTime::ZERO, PState(0));
        assert_eq!(settle, SimTime::from_millis(10));
        // Before settle: unchanged.
        assert!((n.power_w() - 100.0).abs() < 1e-9);
        n.apply_dvfs(settle);
        let p = n.power_w();
        assert!(p < 60.0, "power after floor throttle: {p}");
        // Queue speed followed.
        let (eta, _) = n.next_completion(settle).unwrap();
        assert!(eta > s(1)); // originally 1 s of work, now slower
    }

    #[test]
    fn delayed_commands_settle_late() {
        let mut n = node();
        let settle = n.command_pstate_after(SimTime::ZERO, PState(3), SimDuration::from_secs(2));
        assert_eq!(settle, SimTime::from_millis(2_010));
        n.apply_dvfs(SimTime::from_secs(1));
        assert_eq!(n.effective_pstate(), PState(12));
        n.apply_dvfs(settle);
        assert_eq!(n.effective_pstate(), PState(3));
    }

    #[test]
    fn completion_roundtrip() {
        let mut n = node();
        let mut b = RequestBuilder::new();
        let r = req(&mut b, 2.4, 1.0, 0.8);
        let id = r.id;
        n.push(SimTime::ZERO, r);
        let (eta, due) = n.next_completion(SimTime::ZERO).unwrap();
        let (done, sojourn) = n.try_complete(eta, due).unwrap();
        assert_eq!(done.id, id);
        assert_eq!(sojourn.as_secs(), 1);
        assert_eq!(n.completed(), 1);
        assert!((n.power_w() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn uncapping_restores_nominal() {
        let mut n = node();
        n.command_pstate(SimTime::ZERO, PState(0));
        n.apply_dvfs(SimTime::from_millis(10));
        assert_eq!(n.vf_reduction_steps(), 12);
        let nominal = ServerPowerModel::paper_default().table.max_state();
        let settle = n.command_pstate(SimTime::from_secs(1), nominal);
        n.apply_dvfs(settle);
        assert_eq!(n.vf_reduction_steps(), 0);
    }
}
