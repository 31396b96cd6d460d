//! [`ControlClock`] backends: trace cadence, manual test cadence, and a
//! real wall clock with deadline detection.

use antidope::{ControlClock, ControlTrace, SlotTick};
use simcore::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replays the slot cadence of a recorded trace: one tick per recorded
/// slot, at the recorded timestamp, never missing a deadline — exactly
/// the schedule the DES engine's `Ev::Slot` events followed.
#[derive(Debug, Clone)]
pub struct ReplayClock {
    ticks: Vec<(u64, SimTime)>,
    at: usize,
}

impl ReplayClock {
    /// Clock over the slots of `trace`, in recorded order.
    pub fn from_trace(trace: &ControlTrace) -> Self {
        ReplayClock {
            ticks: trace.slots.iter().map(|s| (s.slot, s.now)).collect(),
            at: 0,
        }
    }
}

impl ControlClock for ReplayClock {
    fn next_slot(&mut self) -> Option<SlotTick> {
        let &(slot, now) = self.ticks.get(self.at)?;
        self.at += 1;
        Some(SlotTick { slot, now, missed_deadline: false })
    }
}

/// A hand-fed clock for tests: yields exactly the ticks it was given.
#[derive(Debug, Clone)]
pub struct ManualClock {
    ticks: Vec<SlotTick>,
    at: usize,
}

impl ManualClock {
    /// Clock over `ticks` in order.
    pub fn new(ticks: Vec<SlotTick>) -> Self {
        ManualClock { ticks, at: 0 }
    }
}

impl ControlClock for ManualClock {
    fn next_slot(&mut self) -> Option<SlotTick> {
        let t = self.ticks.get(self.at).copied()?;
        self.at += 1;
        Some(t)
    }
}

/// A real wall clock: slot `k` is due `k × period` after the first
/// tick. `next_slot` sleeps until the deadline (in short interruptible
/// increments so a shutdown flag is honored promptly) and flags
/// [`SlotTick::missed_deadline`] when the caller shows up more than
/// half a period late — the signal the daemon uses to treat the slot's
/// telemetry as suspect.
///
/// The control-plane time axis stays simulated: slot `k` maps to
/// `SimTime::ZERO + k × control_slot`, so pipeline state (staleness
/// windows, retry deadlines) is wall-rate-independent and a wall run is
/// comparable to a sim trace slot-for-slot.
#[derive(Debug)]
pub struct WallClock {
    /// Wall-time slot period.
    period: Duration,
    /// Simulated-time slot period (the experiment's `control_slot`).
    sim_period: SimDuration,
    /// Stop after this many slots; `None` runs until shutdown.
    max_slots: Option<u64>,
    next: u64,
    start: Option<Instant>,
    shutdown: Option<Arc<AtomicBool>>,
}

impl WallClock {
    /// A wall clock ticking every `period` of real time, mapping slots
    /// onto a simulated axis with `sim_period` spacing.
    pub fn new(period: Duration, sim_period: SimDuration) -> Self {
        WallClock {
            period,
            sim_period,
            max_slots: None,
            next: 0,
            start: None,
            shutdown: None,
        }
    }

    /// Stop after `n` slots.
    pub fn with_max_slots(mut self, n: u64) -> Self {
        self.max_slots = Some(n);
        self
    }

    /// Stop (returning `None` from the next `next_slot`) once `flag`
    /// becomes true; also interrupts an in-progress sleep.
    pub fn with_shutdown(mut self, flag: Arc<AtomicBool>) -> Self {
        self.shutdown = Some(flag);
        self
    }

    fn stopped(&self) -> bool {
        self.shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

impl ControlClock for WallClock {
    fn next_slot(&mut self) -> Option<SlotTick> {
        if self.stopped() || self.max_slots.is_some_and(|m| self.next >= m) {
            return None;
        }
        let slot = self.next;
        self.next += 1;
        let start = *self.start.get_or_insert_with(Instant::now);
        let deadline = start + self.period * u32::try_from(slot).unwrap_or(u32::MAX);
        // Interruptible sleep toward the deadline.
        loop {
            if self.stopped() {
                return None;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(Duration::from_millis(20)));
        }
        let late = Instant::now().saturating_duration_since(deadline);
        Some(SlotTick {
            slot,
            now: SimTime::ZERO + self.sim_period * slot,
            missed_deadline: late > self.period / 2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_yields_its_ticks_then_ends() {
        let t0 = SlotTick { slot: 0, now: SimTime::from_secs(1), missed_deadline: false };
        let t1 = SlotTick { slot: 1, now: SimTime::from_secs(2), missed_deadline: true };
        let mut c = ManualClock::new(vec![t0, t1]);
        assert_eq!(c.next_slot(), Some(t0));
        assert_eq!(c.next_slot(), Some(t1));
        assert_eq!(c.next_slot(), None);
    }

    #[test]
    fn wall_clock_honors_max_slots_and_maps_to_sim_time() {
        let mut c = WallClock::new(Duration::from_millis(1), SimDuration::from_secs(1))
            .with_max_slots(3);
        let ticks: Vec<SlotTick> = std::iter::from_fn(|| c.next_slot()).collect();
        assert_eq!(ticks.len(), 3);
        assert_eq!(ticks[2].slot, 2);
        assert_eq!(ticks[2].now, SimTime::from_secs(2));
    }

    #[test]
    fn wall_clock_shutdown_stops_the_schedule() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut c = WallClock::new(Duration::from_millis(1), SimDuration::from_secs(1))
            .with_shutdown(Arc::clone(&flag));
        assert!(c.next_slot().is_some());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(c.next_slot(), None);
    }
}
