//! Slot-ordered fan-out over a set of [`TrafficSource`]s.
//!
//! The single-threaded cluster engine drives each source through its own
//! `Pull` events on the global event queue. The sharded engine instead
//! drains arrivals for a whole control slot up front (phase A of the
//! slot cycle) before handing them to the dataplane shards, so it needs
//! the same pull/feedback protocol — one outstanding request per source,
//! re-armed by feedback — expressed as an iterator-style merge.
//!
//! [`MergedSources`] peeks at most one pending request per source and
//! yields arrivals in global time order (ties broken by source index),
//! clamped to never run backwards. A source that returns `None` goes
//! dormant until feedback wakes it, exactly like the `pending_pull`
//! guard in the event-driven engine.
//!
//! It also holds each source's [`TrafficSource::observes_outcomes`]
//! answer, read once at construction: outcome events for a source that
//! does not observe them are dropped here, and the engine reads the
//! same mask ([`MergedSources::observers`]) to skip queueing them.

use crate::source::{SourceEvent, TrafficSource};
use netsim::request::Request;
use simcore::time::SimTime;

/// A k-way merge over traffic sources yielding arrivals in time order.
pub struct MergedSources {
    sources: Vec<Box<dyn TrafficSource>>,
    /// One peeked `(delivery_time, request)` per source; `Some` means a
    /// pull is outstanding (mirrors the engine's `pending_pull` flag).
    peeked: Vec<Option<(SimTime, Request)>>,
    /// When to issue the next pull for a source with no peeked request.
    /// `None` means dormant: the source returned `None` and only
    /// feedback can re-arm it.
    wake: Vec<Option<SimTime>>,
    /// Per source: whether it observes `Completed`/`Rejected` events.
    observes: Vec<bool>,
}

impl MergedSources {
    /// Wrap `sources`; every source is armed for a pull at time zero.
    pub fn new(sources: Vec<Box<dyn TrafficSource>>) -> Self {
        let n = sources.len();
        let observes = sources.iter().map(|s| s.observes_outcomes()).collect();
        MergedSources {
            sources,
            peeked: (0..n).map(|_| None).collect(),
            wake: vec![Some(SimTime::ZERO); n],
            observes,
        }
    }

    /// Per source index: whether the source observes outcome events
    /// (`Completed`, `Rejected`). Outcome events for any other source
    /// need not be produced at all.
    pub fn observers(&self) -> &[bool] {
        &self.observes
    }

    /// Number of wrapped sources.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sources.len()
    }

    /// Execute any armed pulls, filling `peeked` where possible.
    fn fill(&mut self) {
        for i in 0..self.sources.len() {
            if self.peeked[i].is_some() {
                continue;
            }
            let Some(at) = self.wake[i] else { continue };
            self.wake[i] = None;
            // Delivery never runs backwards: a request generated in
            // the past is delivered "now" (the event-driven engine
            // schedules `Arrive` at `req.arrival.max(now)`). A `None`
            // source stays dormant until feedback re-arms it.
            if let Some(req) = self.sources[i].next_request(at) {
                self.peeked[i] = Some((req.arrival.max(at), req));
            }
        }
    }

    /// The next arrival with delivery time `<= limit`, or `None` when
    /// every source is beyond the limit, dormant, or exhausted.
    ///
    /// Consuming an arrival re-arms its source at the delivery time, so
    /// a fast source can yield many arrivals within one slot.
    pub fn next_arrival_up_to(&mut self, limit: SimTime) -> Option<(usize, SimTime, Request)> {
        self.fill();
        let mut best: Option<(usize, SimTime)> = None;
        for (i, slot) in self.peeked.iter().enumerate() {
            if let Some((t, _)) = slot {
                if *t <= limit && best.is_none_or(|(_, bt)| *t < bt) {
                    best = Some((i, *t));
                }
            }
        }
        let (i, t) = best?;
        let (_, req) = self.peeked[i].take().expect("peeked arrival vanished");
        self.wake[i] = Some(t);
        Some((i, t, req))
    }

    /// Deliver perimeter/completion feedback to source `i` at `now`,
    /// waking it if it was dormant. An outcome event for a source that
    /// does not observe outcomes is dropped: it would neither change the
    /// source nor re-arm it.
    pub fn feedback(&mut self, now: SimTime, i: usize, event: SourceEvent) {
        if !self.observes[i] && !matches!(event, SourceEvent::Blocked(_)) {
            return;
        }
        self.sources[i].feedback(now, event);
        if self.peeked[i].is_none() && self.wake[i].is_none() {
            self.wake[i] = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::request::{RequestBuilder, SourceId, UrlId};
    use simcore::time::SimDuration;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Emits `count` requests spaced `gap` apart starting at `start`.
    struct Ticker {
        next: SimTime,
        gap: SimDuration,
        left: usize,
        src: SourceId,
        wait_feedback: bool,
        waiting: bool,
    }

    impl TrafficSource for Ticker {
        fn next_request(&mut self, now: SimTime) -> Option<Request> {
            if self.left == 0 || self.waiting {
                return None;
            }
            self.left -= 1;
            if self.wait_feedback {
                self.waiting = true;
            }
            let at = self.next.max(now);
            self.next = at + self.gap;
            Some(
                RequestBuilder::new().build(UrlId(0), self.src, at, 1.0, 0.5, 0.5, 0.5, false),
            )
        }

        fn label(&self) -> &str {
            "ticker"
        }

        fn feedback(&mut self, _now: SimTime, _event: SourceEvent) {
            self.waiting = false;
        }
    }

    fn ticker(start: u64, gap: u64, count: usize, src: u32) -> Box<dyn TrafficSource> {
        Box::new(Ticker {
            next: SimTime::from_secs(start),
            gap: SimDuration::from_secs(gap),
            left: count,
            src: SourceId(src),
            wait_feedback: false,
            waiting: false,
        })
    }

    #[test]
    fn merges_in_time_order_with_index_ties() {
        let mut m = MergedSources::new(vec![
            ticker(2, 4, 3, 0), // 2, 6, 10
            ticker(0, 3, 3, 1), // 0, 3, 6
        ]);
        assert_eq!(m.len(), 2);
        let mut got = Vec::new();
        while let Some((i, t, _)) = m.next_arrival_up_to(SimTime::from_secs(7)) {
            got.push((t.as_secs(), i));
        }
        // Tie at t=6 resolves to the lower source index.
        assert_eq!(got, vec![(0, 1), (2, 0), (3, 1), (6, 0), (6, 1)]);
        // The rest arrive once the limit moves.
        let (i, t, _) = m.next_arrival_up_to(SimTime::from_secs(60)).unwrap();
        assert_eq!((t.as_secs(), i), (10, 0));
        assert!(m.next_arrival_up_to(SimTime::from_secs(60)).is_none());
    }

    #[test]
    fn dormant_source_wakes_on_feedback() {
        let mut m = MergedSources::new(vec![Box::new(Ticker {
            next: SimTime::ZERO,
            gap: SimDuration::from_secs(1),
            left: 2,
            src: SourceId(9),
            wait_feedback: true,
            waiting: false,
        })]);
        let (_, t0, req) = m.next_arrival_up_to(SimTime::from_secs(100)).unwrap();
        assert_eq!(t0, SimTime::ZERO);
        // Closed loop: no second arrival until feedback.
        assert!(m.next_arrival_up_to(SimTime::from_secs(100)).is_none());
        m.feedback(
            SimTime::from_secs(5),
            0,
            SourceEvent::Completed(req.source),
        );
        let (_, t1, _) = m.next_arrival_up_to(SimTime::from_secs(100)).unwrap();
        assert!(t1 >= SimTime::from_secs(5), "re-pull happens at wake time");
    }

    /// Sends nothing; counts its pulls and records what it hears.
    struct Listener {
        observes: bool,
        pulls: Rc<Cell<u32>>,
        heard: Rc<RefCell<Vec<SourceEvent>>>,
    }

    impl TrafficSource for Listener {
        fn next_request(&mut self, _now: SimTime) -> Option<Request> {
            self.pulls.set(self.pulls.get() + 1);
            None
        }

        fn label(&self) -> &str {
            "listener"
        }

        fn feedback(&mut self, _now: SimTime, event: SourceEvent) {
            self.heard.borrow_mut().push(event);
        }

        fn observes_outcomes(&self) -> bool {
            self.observes
        }
    }

    #[test]
    fn outcomes_reach_only_observers_and_blocks_reach_everyone() {
        let pulls: Vec<Rc<Cell<u32>>> = (0..2).map(|_| Rc::default()).collect();
        let heard: Vec<Rc<RefCell<Vec<SourceEvent>>>> = (0..2).map(|_| Rc::default()).collect();
        let mut m = MergedSources::new(
            [false, true]
                .into_iter()
                .enumerate()
                .map(|(i, observes)| {
                    Box::new(Listener {
                        observes,
                        pulls: Rc::clone(&pulls[i]),
                        heard: Rc::clone(&heard[i]),
                    }) as Box<dyn TrafficSource>
                })
                .collect(),
        );
        assert_eq!(m.observers(), [false, true]);
        let pulled = || pulls.iter().map(|p| p.get()).collect::<Vec<_>>();
        let limit = SimTime::from_secs(100);
        assert!(m.next_arrival_up_to(limit).is_none());
        assert_eq!(pulled(), [1, 1], "both pulled once, both dormant");
        let (t, id) = (SimTime::from_secs(1), SourceId(7));
        for i in 0..2 {
            m.feedback(t, i, SourceEvent::Completed(id));
            m.feedback(t, i, SourceEvent::Rejected(id));
        }
        assert!(m.next_arrival_up_to(limit).is_none());
        assert_eq!(pulled(), [1, 2], "an outcome wakes only its observer");
        for i in 0..2 {
            m.feedback(t, i, SourceEvent::Blocked(id));
        }
        assert!(m.next_arrival_up_to(limit).is_none());
        assert_eq!(pulled(), [2, 3], "a block wakes everyone");
        let blocked = SourceEvent::Blocked(id);
        assert_eq!(*heard[0].borrow(), [blocked]);
        let all = [
            SourceEvent::Completed(id),
            SourceEvent::Rejected(id),
            blocked,
        ];
        assert_eq!(*heard[1].borrow(), all);
    }
}
