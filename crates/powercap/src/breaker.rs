//! The circuit breaker on a power feed.
//!
//! The breaker is what makes a sustained budget violation an *outage*
//! rather than an inconvenience — the end state a successful DOPE attack
//! drives an unprotected cluster toward (Fig 1's "unplanned outages").
//! One type serves every feed: the flat cluster feed and each rack, PDU,
//! row and facility feed of a power tree.
//!
//! Breakers follow an inverse-time characteristic approximated with a
//! sustained-overload rule: the breaker trips when load exceeds its
//! rating continuously for its trip delay. Short excursions reset.

use simcore::{SimDuration, SimTime};

/// Breaker condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Carrying load normally.
    Closed,
    /// Over rating; will trip at the contained instant if not relieved.
    Overloaded {
        /// When the breaker opens if the overload persists.
        trips_at: SimTime,
    },
    /// Open: the feed is lost (an outage).
    Tripped {
        /// When the breaker opened.
        at: SimTime,
    },
}

/// One feed's breaker: sustained overload past the trip delay opens it;
/// short excursions reset; an open breaker is latched.
#[derive(Debug, Clone)]
pub struct Breaker {
    /// Load above which the feed is overloaded, watts.
    pub rating_w: f64,
    /// Continuous overload time before the breaker opens.
    pub trip_delay: SimDuration,
    /// Current condition.
    pub state: BreakerState,
}

impl Breaker {
    /// A closed breaker.
    pub fn new(rating_w: f64, trip_delay: SimDuration) -> Self {
        Breaker {
            rating_w,
            trip_delay,
            state: BreakerState::Closed,
        }
    }

    /// Evaluate against the feed's load at `now`; returns `true` on a
    /// fresh Overloaded → Tripped transition. With a non-zero trip delay,
    /// a repeated call at the same instant with the same load changes
    /// nothing.
    pub fn observe(&mut self, now: SimTime, load_w: f64) -> bool {
        let mut fresh_trip = false;
        self.state = match self.state {
            BreakerState::Tripped { at } => BreakerState::Tripped { at },
            BreakerState::Closed if load_w > self.rating_w => BreakerState::Overloaded {
                trips_at: now + self.trip_delay,
            },
            BreakerState::Closed => BreakerState::Closed,
            BreakerState::Overloaded { .. } if load_w <= self.rating_w => BreakerState::Closed,
            BreakerState::Overloaded { trips_at } if now >= trips_at => {
                fresh_trip = true;
                BreakerState::Tripped { at: now }
            }
            BreakerState::Overloaded { trips_at } => BreakerState::Overloaded { trips_at },
        };
        fresh_trip
    }

    /// True once the breaker has opened (latched).
    pub fn tripped(&self) -> bool {
        matches!(self.state, BreakerState::Tripped { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    /// 220 W rating, 5 s delay.
    fn rig() -> Breaker {
        Breaker::new(220.0, SimDuration::from_secs(5))
    }

    #[test]
    fn sustained_overload_trips() {
        let mut b = rig();
        assert!(!b.observe(s(0), 230.0));
        assert!(matches!(b.state, BreakerState::Overloaded { .. }));
        assert!(!b.observe(s(4), 230.0));
        assert!(matches!(b.state, BreakerState::Overloaded { .. }));
        assert!(b.observe(s(5), 230.0), "the trip is reported once");
        assert_eq!(b.state, BreakerState::Tripped { at: s(5) });
        assert!(b.tripped());
    }

    #[test]
    fn relieved_overload_resets() {
        let mut b = rig();
        b.observe(s(0), 230.0);
        b.observe(s(3), 200.0); // back under rating
        assert_eq!(b.state, BreakerState::Closed);
        // A fresh overload restarts the full delay.
        b.observe(s(4), 230.0);
        b.observe(s(8), 230.0);
        assert!(matches!(b.state, BreakerState::Overloaded { .. }));
        assert!(b.observe(s(9), 230.0));
        assert!(b.tripped());
    }

    #[test]
    fn tripped_is_latched() {
        let mut b = rig();
        b.observe(s(0), 230.0);
        assert!(b.observe(s(5), 230.0));
        // Load relief does not close an open breaker, and the trip is
        // not reported again.
        assert!(!b.observe(s(6), 0.0));
        assert_eq!(b.state, BreakerState::Tripped { at: s(5) });
    }

    /// For any non-zero delay, a second observation at the same instant
    /// with the same load leaves the state unchanged: one `observe` per
    /// slot is the same as any number of them.
    #[test]
    fn repeated_observe_at_one_instant_is_idempotent() {
        for delay_s in [1u64, 5, 30] {
            for load in [0.0, 220.0, 230.0] {
                let mut b = Breaker::new(220.0, SimDuration::from_secs(delay_s));
                // Walk through every state: closed, overloaded, tripped.
                for t in 0..=2 * delay_s + 1 {
                    b.observe(s(t), load);
                    let once = b.state;
                    assert!(!b.observe(s(t), load), "delay {delay_s}s load {load} t {t}");
                    assert_eq!(b.state, once, "delay {delay_s}s load {load} t {t}");
                }
            }
        }
    }
}
