//! Availability / SLA accounting.
//!
//! Fig 9 of the paper reports service availability collapsing under
//! attack-induced power throttling. We define availability the way the
//! paper measures it: the fraction of *legitimate* requests that complete
//! within their deadline. Requests can end in one of four ways:
//! completed in time, completed late (deadline miss), dropped by a
//! network element (firewall / token bucket), or timed out in queue.


/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Completed within the deadline.
    OnTime,
    /// Completed, but after the deadline.
    Late,
    /// Discarded before service (firewall block, token-bucket drop).
    Dropped,
    /// Abandoned after waiting longer than the client timeout.
    TimedOut,
}

/// Counts request outcomes and derives availability metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaTracker {
    on_time: u64,
    late: u64,
    dropped: u64,
    timed_out: u64,
}

impl SlaTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request outcome.
    pub fn record(&mut self, outcome: RequestOutcome) {
        match outcome {
            RequestOutcome::OnTime => self.on_time += 1,
            RequestOutcome::Late => self.late += 1,
            RequestOutcome::Dropped => self.dropped += 1,
            RequestOutcome::TimedOut => self.timed_out += 1,
        }
    }

    /// Merge another tracker (parallel reduction).
    pub fn merge(&mut self, other: &SlaTracker) {
        self.on_time += other.on_time;
        self.late += other.late;
        self.dropped += other.dropped;
        self.timed_out += other.timed_out;
    }

    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.on_time + self.late + self.dropped + self.timed_out
    }

    /// Requests completed on time.
    pub fn on_time(&self) -> u64 {
        self.on_time
    }

    /// Requests completed late.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Requests dropped before service.
    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Availability = on-time completions / total (1.0 when no traffic:
    /// an idle service is available).
    pub fn availability(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            self.on_time as f64 / total as f64
        }
    }

    /// Fraction of requests that completed at all (on time or late).
    pub fn completion_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            (self.on_time + self.late) as f64 / total as f64
        }
    }

    /// Fraction of requests dropped before service — the metric the paper
    /// uses against the Token scheme ("abandons more than 60% of the
    /// packages").
    pub fn drop_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_service_is_available() {
        let t = SlaTracker::new();
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.completion_rate(), 1.0);
        assert_eq!(t.drop_rate(), 0.0);
    }

    #[test]
    fn mixed_outcomes() {
        let mut t = SlaTracker::new();
        for _ in 0..6 {
            t.record(RequestOutcome::OnTime);
        }
        t.record(RequestOutcome::Late);
        t.record(RequestOutcome::Dropped);
        t.record(RequestOutcome::Dropped);
        t.record(RequestOutcome::TimedOut);
        assert_eq!(t.total(), 10);
        assert!((t.availability() - 0.6).abs() < 1e-12);
        assert!((t.completion_rate() - 0.7).abs() < 1e-12);
        assert!((t.drop_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SlaTracker::new();
        let mut b = SlaTracker::new();
        a.record(RequestOutcome::OnTime);
        b.record(RequestOutcome::Dropped);
        b.record(RequestOutcome::Late);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.on_time(), 1);
        assert_eq!(a.late(), 1);
        assert_eq!(a.dropped(), 1);
    }

    proptest! {
        #[test]
        fn prop_rates_bounded(outcomes in proptest::collection::vec(0u8..4, 0..200)) {
            let mut t = SlaTracker::new();
            for &o in &outcomes {
                t.record(match o {
                    0 => RequestOutcome::OnTime,
                    1 => RequestOutcome::Late,
                    2 => RequestOutcome::Dropped,
                    _ => RequestOutcome::TimedOut,
                });
            }
            prop_assert_eq!(t.total(), outcomes.len() as u64);
            for rate in [t.availability(), t.completion_rate(), t.drop_rate()] {
                prop_assert!((0.0..=1.0).contains(&rate));
            }
            prop_assert!(t.availability() <= t.completion_rate() + 1e-12);
        }
    }
}
