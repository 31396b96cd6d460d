//! The request model.
//!
//! A [`Request`] is one HTTP query entering the data center. It carries:
//!
//! * identity — a globally unique id, the URL it asks for (the paper's
//!   service types map 1:1 to URLs), and its source address;
//! * a *demand profile* — expected work in giga-cycles and a
//!   CPU-boundedness factor `beta` governing how much DVFS slows it;
//! * a *power character* — intensity and DVFS-sensitivity `gamma` used by
//!   the server power model while the request is in service;
//! * SLA bookkeeping — arrival time, deadline, and client timeout;
//! * `is_attack` — ground truth for evaluation. Defenses never read it;
//!   the whole point of DOPE is that attack requests are well-formed.

use simcore::{SimDuration, SimTime};

/// Globally unique request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// URL / service-type id. The paper's EC application exposes one URL per
/// service kernel (Colla-Filt, K-means, Word-Count, Text-Cont, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UrlId(pub u16);

/// Traffic source id (client address / bot id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

/// One inbound HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Target URL (service type).
    pub url: UrlId,
    /// Originating client.
    pub source: SourceId,
    /// When the request hit the load balancer.
    pub arrival: SimTime,
    /// Expected compute demand at nominal frequency, giga-cycles.
    pub work_gcycles: f64,
    /// CPU-boundedness in `[0, 1]`: service rate scales as
    /// `(1 − beta) + beta · f/f_nominal`.
    pub beta: f64,
    /// Power intensity this request exerts while in service, `[0, 1]`.
    pub intensity: f64,
    /// DVFS power sensitivity of this request's dynamic power, `[0, 1]`.
    pub gamma: f64,
    /// SLA deadline for an on-time completion.
    pub deadline: SimDuration,
    /// Client abandonment timeout (≥ deadline).
    pub timeout: SimDuration,
    /// Ground-truth attack label (evaluation only).
    pub is_attack: bool,
    /// Delivery attempt, starting at 0. The NLB retry path increments it
    /// on each re-dispatch of the *same* request (same id), bounded by
    /// the retry policy's attempt budget.
    pub attempt: u8,
    /// Index of the traffic source that emitted this request among the
    /// simulation's sources, 0 until the cluster routes it. Completion
    /// and rejection feedback goes back to this source, retries included.
    pub emitter: u32,
}

impl Request {
    /// The request's speed factor at relative frequency `rel_f ∈ (0, 1]`:
    /// CPU-bound requests slow proportionally; memory/disk-bound ones
    /// barely notice.
    #[inline]
    pub(crate) fn rate_factor(&self, rel_f: f64) -> f64 {
        debug_assert!(rel_f > 0.0 && rel_f <= 1.0 + 1e-9);
        (1.0 - self.beta) + self.beta * rel_f
    }

    /// Whether a response completed after `sojourn` met the deadline.
    pub fn on_time(&self, sojourn: SimDuration) -> bool {
        sojourn <= self.deadline
    }

    /// Whether the client would have abandoned after `sojourn`.
    pub fn abandoned(&self, sojourn: SimDuration) -> bool {
        sojourn > self.timeout
    }
}

/// Builder for tests and workload generators.
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    next_id: u64,
}

impl Default for RequestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestBuilder {
    /// Builder issuing ids from 0.
    pub fn new() -> Self {
        RequestBuilder { next_id: 0 }
    }

    /// Builder issuing ids from `base` — gives each traffic source a
    /// disjoint id space (e.g. `source_index << 40`).
    pub fn starting_at(base: u64) -> Self {
        RequestBuilder { next_id: base }
    }

    /// Number of requests issued so far.
    #[cfg(test)]
    pub(crate) fn issued(&self) -> u64 {
        self.next_id
    }

    /// Construct a request with the given fields and a fresh id.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &mut self,
        url: UrlId,
        source: SourceId,
        arrival: SimTime,
        work_gcycles: f64,
        beta: f64,
        intensity: f64,
        gamma: f64,
        is_attack: bool,
    ) -> Request {
        assert!(work_gcycles > 0.0, "work must be positive");
        assert!((0.0..=1.0).contains(&beta), "beta out of range");
        assert!((0.0..=1.0).contains(&intensity), "intensity out of range");
        assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        Request {
            id,
            url,
            source,
            arrival,
            work_gcycles,
            beta,
            intensity,
            gamma,
            deadline: SimDuration::from_millis(100),
            timeout: SimDuration::from_secs(4),
            is_attack,
            attempt: 0,
            emitter: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(beta: f64) -> Request {
        RequestBuilder::new().build(
            UrlId(1),
            SourceId(9),
            SimTime::from_secs(1),
            2.4,
            beta,
            0.8,
            0.9,
            false,
        )
    }

    #[test]
    fn ids_are_sequential() {
        let mut b = RequestBuilder::new();
        let r0 = b.build(UrlId(0), SourceId(0), SimTime::ZERO, 1.0, 0.5, 0.5, 0.5, false);
        let r1 = b.build(UrlId(0), SourceId(0), SimTime::ZERO, 1.0, 0.5, 0.5, 0.5, false);
        assert_eq!(r0.id, RequestId(0));
        assert_eq!(r1.id, RequestId(1));
        assert_eq!(b.issued(), 2);
    }

    #[test]
    fn rate_factor_extremes() {
        // Fully CPU-bound: speed tracks frequency exactly.
        let cpu = req(1.0);
        assert!((cpu.rate_factor(0.5) - 0.5).abs() < 1e-12);
        // Fully memory-bound: immune to DVFS.
        let mem = req(0.0);
        assert!((mem.rate_factor(0.5) - 1.0).abs() < 1e-12);
        // Halfway.
        let mid = req(0.5);
        assert!((mid.rate_factor(0.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sla_predicates() {
        let r = req(1.0);
        assert!(r.on_time(SimDuration::from_millis(100)));
        assert!(!r.on_time(SimDuration::from_millis(101)));
        assert!(!r.abandoned(SimDuration::from_secs(4)));
        assert!(r.abandoned(SimDuration::from_millis(4001)));
    }

    #[test]
    #[should_panic(expected = "beta out of range")]
    fn builder_validates() {
        RequestBuilder::new().build(
            UrlId(0),
            SourceId(0),
            SimTime::ZERO,
            1.0,
            1.5,
            0.5,
            0.5,
            false,
        );
    }
}
