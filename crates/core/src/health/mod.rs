//! Control-plane hardening: degraded-telemetry estimation, a safety
//! watchdog, and actuator read-back verification.
//!
//! The RPM control loop of the paper assumes perfect visibility: every
//! slot it reads true per-node power and its DVFS commands always land.
//! Under fault injection ([`simcore::faults`]) neither holds. This
//! module contains the three mechanisms that keep the controller safe
//! when partially blind:
//!
//! * [`TelemetryHealth`] — per-node last-good-value hold with a
//!   staleness deadline; nodes blind past the deadline are charged their
//!   conservative nameplate power so the controller over- rather than
//!   under-estimates demand.
//! * [`Watchdog`] — when the fraction of fresh sensors drops below a
//!   floor, the scheme's plan is distrusted and the cluster falls back
//!   to uniform safe capping; recovery requires several consecutive
//!   healthy slots (hysteresis against flapping).
//! * [`ActuatorVerify`] — commanded P-states are read back next slot;
//!   mismatches are retried with bounded exponential backoff.

pub mod staleness;

use powercap::pstate::PState;
use simcore::{SimDuration, SimTime};
use staleness::LastGood;

/// Aggregate power estimate built from partially-faulty sensors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TelemetryEstimate {
    /// Estimated cluster power, watts.
    pub power_w: f64,
    /// Fraction of alive nodes with a *fresh* reading this slot (1 when
    /// every node is dead: there is nothing left to see).
    pub coverage: f64,
    /// Nodes with neither a fresh reading nor a recent-enough held one.
    pub blind_nodes: usize,
}

/// Last-good-value telemetry estimator with a staleness deadline, built
/// on the shared [`LastGood`] hold (the identical expiry arithmetic the
/// live daemon's sample bridging uses).
#[derive(Debug, Clone)]
pub struct TelemetryHealth {
    /// Most recent good sample per node, with its timestamp.
    last_good: LastGood<f64>,
}

impl TelemetryHealth {
    /// Estimator over `n_nodes` sensors; held samples expire after
    /// `staleness`.
    pub(crate) fn new(n_nodes: usize, staleness: SimDuration) -> Self {
        TelemetryHealth {
            last_good: LastGood::new(n_nodes, staleness),
        }
    }

    /// Fold this slot's readings (`None` = sensor produced nothing) into
    /// a cluster power estimate. Fresh readings update the held value;
    /// missing ones fall back to the held value if it is younger than the
    /// staleness deadline, else to `nameplate_w` (conservative: a blind
    /// node is assumed to draw its maximum).
    ///
    /// Coverage counts alive nodes only: a dead node reports a
    /// synthetic zero, and counting that as a fresh sensor would let
    /// crashes mask a telemetry blackout of the survivors.
    pub(crate) fn estimate(
        &mut self,
        now: SimTime,
        readings: &[Option<f64>],
        node_dead: &[bool],
        nameplate_w: f64,
    ) -> TelemetryEstimate {
        debug_assert_eq!(readings.len(), self.last_good.len());
        debug_assert_eq!(node_dead.len(), readings.len());
        let mut power_w = 0.0;
        let mut fresh = 0usize;
        let mut blind = 0usize;
        let mut alive = 0usize;
        for (i, (reading, &dead)) in readings.iter().zip(node_dead).enumerate() {
            alive += usize::from(!dead);
            match reading {
                Some(w) => {
                    self.last_good.update(i, now, *w);
                    power_w += w;
                    fresh += usize::from(!dead);
                }
                None => match self.last_good.get(i, now) {
                    Some(w) => power_w += w,
                    None => {
                        power_w += nameplate_w;
                        blind += 1;
                    }
                },
            }
        }
        TelemetryEstimate {
            power_w,
            coverage: if alive == 0 { 1.0 } else { fresh as f64 / alive as f64 },
            blind_nodes: blind,
        }
    }

    /// Forget a node's held sample (it crashed; its next reading comes
    /// from fresh hardware).
    pub(crate) fn forget(&mut self, node: usize) {
        self.last_good.forget(node);
    }
}

/// Telemetry-coverage watchdog with recovery hysteresis.
///
/// Engaged ⇒ the control plane must not trust the scheme's plan and
/// should apply the uniform safe cap instead.
#[derive(Debug, Clone)]
pub struct Watchdog {
    floor: f64,
    recovery_slots: u32,
    engaged_since: Option<SimTime>,
    ok_streak: u32,
    degraded_slots: u64,
    episodes: u64,
    completed_episodes: u64,
    degraded_time: SimDuration,
}

impl Watchdog {
    /// Watchdog engaging below `floor` coverage, releasing after
    /// `recovery_slots` consecutive healthy slots.
    pub(crate) fn new(floor: f64, recovery_slots: u32) -> Self {
        Watchdog {
            floor,
            recovery_slots: recovery_slots.max(1),
            engaged_since: None,
            ok_streak: 0,
            degraded_slots: 0,
            episodes: 0,
            completed_episodes: 0,
            degraded_time: SimDuration::ZERO,
        }
    }

    /// Feed one slot's coverage; returns whether the watchdog is engaged
    /// for this slot.
    pub(crate) fn observe(&mut self, now: SimTime, coverage: f64) -> bool {
        if coverage < self.floor {
            self.ok_streak = 0;
            if self.engaged_since.is_none() {
                self.engaged_since = Some(now);
                self.episodes += 1;
            }
        } else if let Some(since) = self.engaged_since {
            self.ok_streak += 1;
            if self.ok_streak >= self.recovery_slots {
                self.degraded_time += now.since(since);
                self.completed_episodes += 1;
                self.engaged_since = None;
                self.ok_streak = 0;
            }
        }
        if self.engaged_since.is_some() {
            self.degraded_slots += 1;
            true
        } else {
            false
        }
    }

    /// Currently engaged?
    #[cfg(test)]
    pub(crate) fn engaged(&self) -> bool {
        self.engaged_since.is_some()
    }

    /// Slots spent degraded (engaged), including recovery probation.
    pub(crate) fn degraded_slots(&self) -> u64 {
        self.degraded_slots
    }

    /// Times the watchdog engaged.
    pub(crate) fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Total degraded wall-clock, counting a still-open episode up to
    /// `now`.
    pub(crate) fn time_degraded(&self, now: SimTime) -> SimDuration {
        match self.engaged_since {
            Some(since) => self.degraded_time + now.since(since),
            None => self.degraded_time,
        }
    }

    /// Mean time to recovery over completed episodes, seconds.
    pub(crate) fn mttr_s(&self) -> Option<f64> {
        if self.completed_episodes == 0 {
            None
        } else {
            Some(self.degraded_time.as_secs_f64() / self.completed_episodes as f64)
        }
    }
}

/// What a read-back check concluded for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VerifyOutcome {
    /// No actuation outstanding.
    Idle,
    /// The hardware reached the commanded target.
    Confirmed,
    /// Mismatch, but the backoff window has not elapsed yet.
    Pending,
    /// Mismatch past backoff: re-issue this target now.
    Retry(PState),
    /// Retry budget exhausted; the node is wedged at something other
    /// than this target.
    GaveUp(PState),
}

#[derive(Debug, Clone, Copy)]
struct Intent {
    target: PState,
    retries_left: u8,
    next_retry_at: SimTime,
    backoff: SimDuration,
}

/// Read-back verification of DVFS commands with bounded retry.
#[derive(Debug, Clone)]
pub struct ActuatorVerify {
    intents: Vec<Option<Intent>>,
    max_retries: u8,
    first_backoff: SimDuration,
    confirmed: u64,
    retries: u64,
    giveups: u64,
}

impl ActuatorVerify {
    /// Verifier over `n_nodes`, retrying up to `max_retries` times with
    /// doubling backoff starting at `first_backoff`.
    pub(crate) fn new(n_nodes: usize, max_retries: u8, first_backoff: SimDuration) -> Self {
        ActuatorVerify {
            intents: vec![None; n_nodes],
            max_retries,
            first_backoff,
            confirmed: 0,
            retries: 0,
            giveups: 0,
        }
    }

    /// Record that `target` was commanded on `node` at `now`.
    pub(crate) fn record(&mut self, node: usize, target: PState, now: SimTime) {
        self.intents[node] = Some(Intent {
            target,
            retries_left: self.max_retries,
            next_retry_at: now + self.first_backoff,
            backoff: self.first_backoff,
        });
    }

    /// Compare the node's actual commanded state against the recorded
    /// intent. `Retry` consumes one retry and doubles the backoff; the
    /// caller must re-issue the command (through the fault layer, which
    /// may lose it again).
    pub(crate) fn check(&mut self, node: usize, actual: PState, now: SimTime) -> VerifyOutcome {
        let Some(intent) = &mut self.intents[node] else {
            return VerifyOutcome::Idle;
        };
        if actual == intent.target {
            self.intents[node] = None;
            self.confirmed += 1;
            return VerifyOutcome::Confirmed;
        }
        if now < intent.next_retry_at {
            return VerifyOutcome::Pending;
        }
        if intent.retries_left == 0 {
            let target = intent.target;
            self.intents[node] = None;
            self.giveups += 1;
            return VerifyOutcome::GaveUp(target);
        }
        intent.retries_left -= 1;
        intent.backoff = intent.backoff * 2;
        intent.next_retry_at = now + intent.backoff;
        self.retries += 1;
        VerifyOutcome::Retry(intent.target)
    }

    /// Drop any outstanding intent (the node crashed or rebooted).
    pub(crate) fn clear(&mut self, node: usize) {
        self.intents[node] = None;
    }

    /// Commands confirmed by read-back.
    #[cfg(test)]
    pub(crate) fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Retries issued.
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Commands abandoned after exhausting the retry budget.
    pub(crate) fn giveups(&self) -> u64 {
        self.giveups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn fresh_readings_pass_through() {
        let mut t = TelemetryHealth::new(2, SimDuration::from_secs(5));
        let e = t.estimate(s(0), &[Some(70.0), Some(50.0)], &[false, false], 100.0);
        assert_eq!(e.power_w, 120.0);
        assert_eq!(e.coverage, 1.0);
        assert_eq!(e.blind_nodes, 0);
    }

    #[test]
    fn held_value_bridges_short_dropouts() {
        let mut t = TelemetryHealth::new(2, SimDuration::from_secs(5));
        t.estimate(s(0), &[Some(70.0), Some(50.0)], &[false, false], 100.0);
        let e = t.estimate(s(3), &[None, Some(55.0)], &[false, false], 100.0);
        assert_eq!(e.power_w, 125.0); // 70 held + 55 fresh
        assert_eq!(e.coverage, 0.5);
        assert_eq!(e.blind_nodes, 0);
    }

    #[test]
    fn stale_node_charged_nameplate() {
        let mut t = TelemetryHealth::new(2, SimDuration::from_secs(5));
        t.estimate(s(0), &[Some(70.0), Some(50.0)], &[false, false], 100.0);
        let e = t.estimate(s(10), &[None, Some(55.0)], &[false, false], 100.0);
        assert_eq!(e.power_w, 155.0); // nameplate 100 + 55 fresh
        assert_eq!(e.blind_nodes, 1);
        // forget() drops the held value immediately.
        t.estimate(s(10), &[Some(70.0), Some(55.0)], &[false, false], 100.0);
        t.forget(0);
        let e = t.estimate(s(11), &[None, Some(55.0)], &[false, false], 100.0);
        assert_eq!(e.blind_nodes, 1);
    }

    #[test]
    fn coverage_counts_alive_nodes_only() {
        let mut t = TelemetryHealth::new(4, SimDuration::from_secs(5));
        // Two dead nodes report a synthetic zero; the two survivors are
        // dark. Nothing alive is fresh, so coverage is 0, not 0.5.
        let dead = [true, true, false, false];
        let e = t.estimate(s(0), &[Some(0.0), Some(0.0), None, None], &dead, 100.0);
        assert_eq!(e.coverage, 0.0);
        let e = t.estimate(s(1), &[Some(0.0), Some(0.0), Some(60.0), None], &dead, 100.0);
        assert_eq!(e.coverage, 0.5);
        // Nothing alive: nothing to see.
        let e = t.estimate(s(2), &[Some(0.0); 4], &[true; 4], 100.0);
        assert_eq!(e.coverage, 1.0);
    }

    #[test]
    fn never_seen_node_is_blind() {
        let mut t = TelemetryHealth::new(1, SimDuration::from_secs(5));
        let e = t.estimate(s(0), &[None], &[false], 100.0);
        assert_eq!(e.power_w, 100.0);
        assert_eq!(e.coverage, 0.0);
        assert_eq!(e.blind_nodes, 1);
    }

    #[test]
    fn watchdog_engages_and_recovers_with_hysteresis() {
        let mut w = Watchdog::new(0.5, 3);
        assert!(!w.observe(s(0), 1.0));
        assert!(w.observe(s(1), 0.25));
        assert!(w.engaged());
        // Two healthy slots are not enough to release...
        assert!(w.observe(s(2), 1.0));
        assert!(w.observe(s(3), 1.0));
        // ...the third releases.
        assert!(!w.observe(s(4), 1.0));
        assert!(!w.engaged());
        assert_eq!(w.episodes(), 1);
        assert_eq!(w.degraded_slots(), 3);
        assert_eq!(w.time_degraded(s(10)), SimDuration::from_secs(3));
        assert_eq!(w.mttr_s(), Some(3.0));
    }

    #[test]
    fn watchdog_relapse_resets_streak() {
        let mut w = Watchdog::new(0.5, 2);
        w.observe(s(0), 0.0);
        w.observe(s(1), 1.0); // streak 1
        w.observe(s(2), 0.0); // relapse
        assert!(w.observe(s(3), 1.0)); // streak 1 again — still engaged
        assert!(!w.observe(s(4), 1.0)); // streak 2 — released
        assert_eq!(w.episodes(), 1); // one continuous episode
        assert_eq!(w.mttr_s(), Some(4.0));
    }

    #[test]
    fn open_episode_counts_toward_time_degraded() {
        let mut w = Watchdog::new(0.5, 3);
        w.observe(s(2), 0.0);
        assert!(w.engaged());
        assert_eq!(w.time_degraded(s(7)), SimDuration::from_secs(5));
        assert_eq!(w.mttr_s(), None);
    }

    #[test]
    fn verify_confirms_matching_readback() {
        let mut v = ActuatorVerify::new(2, 3, SimDuration::from_secs(1));
        v.record(0, PState(4), s(0));
        assert_eq!(v.check(0, PState(4), s(1)), VerifyOutcome::Confirmed);
        assert_eq!(v.check(0, PState(4), s(2)), VerifyOutcome::Idle);
        assert_eq!(v.confirmed(), 1);
    }

    #[test]
    fn verify_retries_with_doubling_backoff_then_gives_up() {
        let mut v = ActuatorVerify::new(1, 2, SimDuration::from_secs(1));
        v.record(0, PState(4), s(0));
        // First retry due at t=1.
        assert_eq!(v.check(0, PState(12), s(1)), VerifyOutcome::Retry(PState(4)));
        // Backoff doubled to 2 s: next retry due at t=3.
        assert_eq!(v.check(0, PState(12), s(2)), VerifyOutcome::Pending);
        assert_eq!(v.check(0, PState(12), s(3)), VerifyOutcome::Retry(PState(4)));
        // Budget exhausted: due at t=7.
        assert_eq!(v.check(0, PState(12), s(7)), VerifyOutcome::GaveUp(PState(4)));
        assert_eq!(v.check(0, PState(12), s(8)), VerifyOutcome::Idle);
        assert_eq!((v.retries(), v.giveups()), (2, 1));
    }

    #[test]
    fn verify_clear_drops_intent() {
        let mut v = ActuatorVerify::new(1, 3, SimDuration::from_secs(1));
        v.record(0, PState(4), s(0));
        v.clear(0);
        assert_eq!(v.check(0, PState(12), s(5)), VerifyOutcome::Idle);
    }
}
