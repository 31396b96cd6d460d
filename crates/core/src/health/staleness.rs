//! Last-good-value hold with a staleness window — the one shared
//! implementation of "bridge a short telemetry gap with the previous
//! sample, distrust it past a deadline".
//!
//! Consumers:
//!
//! * [`TelemetryHealth`](super::TelemetryHealth) holds one `f64` reading
//!   per node and charges nameplate power past the window;
//! * the `liveplane` daemon holds one whole
//!   [`PlaneSample`](crate::PlaneSample) per telemetry source, kept as
//!   the transport handed it out (a borrow of a recorded sample, or a
//!   parsed one it owns), and bridges a missed deadline by re-running
//!   the pass on it with no forget events, skipping the control pass
//!   once the hold expires.
//!
//! Both must expire at exactly the same age — `now - held <= window`
//! stays usable, one microsecond older does not — or the sim and the
//! live daemon would disagree about which slots are blind.

use simcore::{SimDuration, SimTime};

/// Per-slot last-good hold: `n` independently-held values that each
/// expire `window` after the update that stored them.
#[derive(Debug, Clone)]
pub struct LastGood<T> {
    held: Vec<Option<(SimTime, T)>>,
    window: SimDuration,
}

impl<T> LastGood<T> {
    /// `n` empty holds expiring `window` after their last update.
    pub fn new(n: usize, window: SimDuration) -> Self {
        let mut held = Vec::with_capacity(n);
        held.resize_with(n, || None);
        LastGood { held, window }
    }

    /// Number of holds.
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether there are no holds at all.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Store a fresh value for hold `i`, restarting its expiry clock.
    pub fn update(&mut self, i: usize, now: SimTime, value: T) {
        self.held[i] = Some((now, value));
    }

    /// The held value for `i` if it is still within the window at
    /// `now` (boundary inclusive: a value exactly `window` old is still
    /// usable). `None` when never set, forgotten, or expired.
    pub fn get(&self, i: usize, now: SimTime) -> Option<&T> {
        match &self.held[i] {
            Some((t, v)) if now.since(*t) <= self.window => Some(v),
            _ => None,
        }
    }

    /// Drop hold `i` immediately (the source was replaced; its next
    /// value comes from fresh hardware).
    pub(crate) fn forget(&mut self, i: usize) {
        self.held[i] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn expires_exactly_past_the_window() {
        let mut h: LastGood<f64> = LastGood::new(1, SimDuration::from_secs(5));
        assert!(h.get(0, s(0)).is_none(), "never set");
        h.update(0, s(10), 70.0);
        // Exactly at the window boundary: still usable.
        assert_eq!(h.get(0, s(15)), Some(&70.0));
        // One microsecond past: expired.
        let past = s(15) + SimDuration::from_micros(1);
        assert!(h.get(0, past).is_none());
    }

    #[test]
    fn update_restarts_the_clock_and_forget_drops_immediately() {
        let mut h: LastGood<u32> = LastGood::new(2, SimDuration::from_secs(2));
        h.update(0, s(0), 1);
        h.update(0, s(3), 2);
        assert_eq!(h.get(0, s(5)), Some(&2), "refreshed hold uses the new timestamp");
        h.forget(0);
        assert!(h.get(0, s(5)).is_none());
        assert!(h.get(1, s(0)).is_none());
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }
}
