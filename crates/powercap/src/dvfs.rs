//! Per-server DVFS actuator with transition latency.
//!
//! Real frequency transitions are not instantaneous: the governor writes
//! an MSR, the PLL relocks, and on the paper's testbed the effective lag
//! of an ACPI transition plus driver overhead is on the order of
//! milliseconds. The controller models a commanded *target* state that
//! becomes *effective* after `transition_latency`. Commands issued while
//! a transition is in flight re-target it (last-write-wins), matching how
//! the Linux `userspace` governor behaves.

use crate::pstate::{PState, PStateTable};
use simcore::{SimDuration, SimTime};

/// DVFS state machine for one server on the paper's ladder
/// ([`PStateTable::paper_default`]).
#[derive(Debug, Clone)]
pub struct DvfsController {
    /// State the hardware is actually running.
    effective: PState,
    /// State most recently commanded.
    target: PState,
    /// When the in-flight transition (if any) completes.
    settles_at: Option<SimTime>,
    transition_latency: SimDuration,
    /// Count of commanded transitions (for reporting V/F churn).
    transitions: u64,
}

impl DvfsController {
    /// New controller at nominal frequency.
    pub fn new(transition_latency: SimDuration) -> Self {
        let top = PStateTable::paper_default().max_state();
        DvfsController {
            effective: top,
            target: top,
            settles_at: None,
            transition_latency,
            transitions: 0,
        }
    }

    /// Apply any transition that has settled by `now`. Call before
    /// reading [`DvfsController::effective`] at a new timestamp.
    pub fn advance(&mut self, now: SimTime) {
        if let Some(t) = self.settles_at {
            if now >= t {
                self.effective = self.target;
                self.settles_at = None;
            }
        }
    }

    /// Command a new target state at time `now`. Returns the instant at
    /// which the new state becomes effective (immediately if the target
    /// equals the current effective state and nothing is in flight).
    pub fn command(&mut self, now: SimTime, target: PState) -> SimTime {
        self.command_delayed(now, target, SimDuration::ZERO)
    }

    /// [`DvfsController::command`] with an additional settle delay on top
    /// of the baseline transition latency — used by fault injection to
    /// model a command that reaches the governor late.
    pub fn command_delayed(&mut self, now: SimTime, target: PState, extra: SimDuration) -> SimTime {
        let target = PStateTable::paper_default().clamp(target);
        self.advance(now);
        if target == self.effective && self.settles_at.is_none() && extra.is_zero() {
            self.target = target;
            return now;
        }
        self.target = target;
        self.transitions += 1;
        let settle = now + self.transition_latency + extra;
        self.settles_at = Some(settle);
        settle
    }

    /// The state the hardware is running as of the last `advance`.
    pub fn effective(&self) -> PState {
        self.effective
    }

    /// The most recently commanded state.
    pub fn target(&self) -> PState {
        self.target
    }

    /// When the pending transition settles, if one is in flight.
    pub fn pending_settle(&self) -> Option<SimTime> {
        self.settles_at
    }

    /// Number of transitions commanded so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Effective frequency in GHz.
    #[cfg(test)]
    pub(crate) fn freq_ghz(&self) -> f64 {
        PStateTable::paper_default().freq_ghz(self.effective)
    }

    /// Effective frequency relative to nominal.
    pub fn rel_freq(&self) -> f64 {
        PStateTable::paper_default().rel_freq(self.effective)
    }

    /// How many states below nominal the *effective* state sits — the
    /// paper's "V/F reduction" y-axis in Fig 6.
    pub fn vf_reduction_steps(&self) -> u8 {
        PStateTable::paper_default().max_state().0 - self.effective.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> DvfsController {
        DvfsController::new(SimDuration::from_millis(10))
    }

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn starts_at_nominal() {
        let c = ctl();
        assert_eq!(c.effective(), PStateTable::paper_default().max_state());
        assert_eq!(c.vf_reduction_steps(), 0);
        assert!((c.freq_ghz() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn transition_takes_latency() {
        let mut c = ctl();
        let settle = c.command(ms(0), PState(5));
        assert_eq!(settle, ms(10));
        // Before settle: still nominal.
        c.advance(ms(5));
        assert_eq!(c.effective(), PState(12));
        // At settle: new state.
        c.advance(ms(10));
        assert_eq!(c.effective(), PState(5));
        assert_eq!(c.vf_reduction_steps(), 7);
    }

    #[test]
    fn same_state_command_is_instant() {
        let mut c = ctl();
        let settle = c.command(ms(0), PState(12));
        assert_eq!(settle, ms(0));
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn inflight_retarget_last_write_wins() {
        let mut c = ctl();
        c.command(ms(0), PState(5));
        c.command(ms(3), PState(8));
        c.advance(ms(13));
        assert_eq!(c.effective(), PState(8));
        assert_eq!(c.transitions(), 2);
    }

    #[test]
    fn retarget_back_to_effective_still_needs_settle() {
        let mut c = ctl();
        c.command(ms(0), PState(5));
        // Command back to nominal while the downshift is in flight: the
        // PLL still has to relock, so it is not instantaneous.
        let settle = c.command(ms(3), PState(12));
        assert_eq!(settle, ms(13));
        c.advance(ms(13));
        assert_eq!(c.effective(), PState(12));
    }

    #[test]
    fn clamps_out_of_range_target() {
        let mut c = ctl();
        c.command(ms(0), PState(200));
        c.advance(ms(10));
        assert_eq!(c.effective(), PState(12));
    }

    #[test]
    fn advance_is_idempotent() {
        let mut c = ctl();
        c.command(ms(0), PState(3));
        c.advance(ms(10));
        c.advance(ms(20));
        c.advance(ms(10)); // re-reading an old timestamp is harmless
        assert_eq!(c.effective(), PState(3));
        assert_eq!(c.pending_settle(), None);
    }

    #[test]
    fn delayed_command_extends_settle() {
        let mut c = ctl();
        let settle = c.command_delayed(ms(0), PState(5), SimDuration::from_millis(40));
        assert_eq!(settle, ms(50));
        c.advance(ms(49));
        assert_eq!(c.effective(), PState(12));
        c.advance(ms(50));
        assert_eq!(c.effective(), PState(5));
        // Zero extra delay is exactly `command`.
        let mut d = ctl();
        assert_eq!(
            d.command_delayed(ms(0), PState(5), SimDuration::ZERO),
            ms(10)
        );
        // A delayed re-command of the current effective state is not
        // instant: the late-arriving write still goes through the PLL.
        let mut e = ctl();
        let settle = e.command_delayed(ms(0), PState(12), SimDuration::from_millis(40));
        assert_eq!(settle, ms(50));
        assert_eq!(e.transitions(), 1);
    }

    #[test]
    fn freq_helpers_follow_effective() {
        let mut c = ctl();
        c.command(ms(0), PState(0));
        c.advance(ms(10));
        assert!((c.freq_ghz() - 1.2).abs() < 1e-12);
        assert!((c.rel_freq() - 0.5).abs() < 1e-12);
        assert_eq!(c.vf_reduction_steps(), 12);
    }
}
