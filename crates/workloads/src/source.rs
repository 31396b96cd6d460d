//! The [`TrafficSource`] abstraction.
//!
//! A traffic source is a pull-based generator of timestamped requests.
//! The cluster simulator asks each source for its next request, schedules
//! an arrival event at the returned timestamp, and feeds back what the
//! perimeter did (every source) and how each admitted request ended (only
//! sources that [observe outcomes](TrafficSource::observes_outcomes)).

use netsim::request::{Request, SourceId};
use simcore::SimTime;

/// Feedback events a source can observe (what a real client sees).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceEvent {
    /// A request from this client address was dropped at the perimeter
    /// (firewall ban) — the signal the DOPE algorithm backs off on.
    Blocked(SourceId),
    /// A request was admitted past the perimeter but shed inside the
    /// data center (admission control or an overloaded server) — a 503,
    /// not a detection.
    Rejected(SourceId),
    /// A request completed normally.
    Completed(SourceId),
}

/// A pull-based request generator.
pub trait TrafficSource {
    /// The next request at or after `now`, or `None` when the source has
    /// finished (its arrival field carries the exact instant).
    fn next_request(&mut self, now: SimTime) -> Option<Request>;

    /// Human-readable label for reports.
    fn label(&self) -> &str;

    /// Observe perimeter/completion feedback. Default: ignore.
    fn feedback(&mut self, _now: SimTime, _event: SourceEvent) {}

    /// Whether this source reads [`SourceEvent::Completed`] and
    /// [`SourceEvent::Rejected`]. Default: `true`, so a source that does
    /// not override it hears every outcome.
    ///
    /// Returning `false` promises that neither event changes the
    /// source's state or re-arms it (a source that has returned `None`
    /// stays finished), so the engine may skip queueing and delivering
    /// them: an open-loop flood fires at its own rate whatever happens
    /// to its requests. [`SourceEvent::Blocked`] reaches every source.
    fn observes_outcomes(&self) -> bool {
        true
    }

    /// True if this source models an attacker (ground truth for metrics).
    fn is_attacker(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::request::{RequestBuilder, UrlId};

    /// A trivial fixed-schedule source used to exercise the trait's
    /// default methods.
    struct OneShot {
        fired: bool,
    }

    impl TrafficSource for OneShot {
        fn next_request(&mut self, now: SimTime) -> Option<Request> {
            if self.fired {
                return None;
            }
            self.fired = true;
            Some(RequestBuilder::new().build(
                UrlId(0),
                SourceId(1),
                now,
                1.0,
                0.5,
                0.5,
                0.5,
                false,
            ))
        }

        fn label(&self) -> &str {
            "one-shot"
        }
    }

    #[test]
    fn default_trait_methods() {
        let mut s = OneShot { fired: false };
        assert!(!s.is_attacker());
        assert!(s.observes_outcomes());
        s.feedback(SimTime::ZERO, SourceEvent::Blocked(SourceId(1))); // no-op
        assert!(s.next_request(SimTime::ZERO).is_some());
        assert!(s.next_request(SimTime::ZERO).is_none());
        assert_eq!(s.label(), "one-shot");
    }
}
