//! # netsim — the network-side substrate
//!
//! Everything between the Internet and the compute nodes:
//!
//! * [`Request`] — the unit of traffic: a URL (service type), a source,
//!   per-request work and CPU-boundedness, and ground-truth attack
//!   labeling (used for metrics only, never by defenses).
//! * [`PsServer`] — a multi-core processor-sharing queue whose speed
//!   follows the node's DVFS state, with a bounded accept queue. This is
//!   where throttling turns into queueing delay and tail latency. It is
//!   implemented in virtual time (O(1) advance, O(log n) completion), so
//!   flood-scale occupancy costs nothing per event; see [`queueing`].
//! * [`PowerTokenBucket`] — the paper's `Token` baseline: a token
//!   bucket denominated in watts.
//! * [`Firewall`] — a DDoS-deflate-style per-source rate-threshold
//!   blocker with polling delay and per-class detection lag; its
//!   threshold defines the DOPE evasion region (Fig 11).
//! * [`Nlb`] — the network load balancer with pluggable forwarding:
//!   round-robin, least-loaded, and URL-split (the mechanism Anti-DOPE's
//!   PDF programs to segregate suspect flows).
//! * [`SuspectList`] — the URL → power-intensity map PDF consults.
//! * [`RetryConfig`] / `CircuitBreaker` / [`PoolBreakers`] — the
//!   end-to-end resilience dataplane: bounded retry with exponential
//!   backoff + jitter, and per-pool circuit breakers that steer traffic
//!   away from a tripped rack.
//! * [`AdmissionPipeline`] — the staged perimeter the NLB runs before
//!   routing: a typed slot for the firewall, then one for CAPoW-style
//!   [`CostToServe`] pricing, with per-stage verdict accounting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod error;
pub mod firewall;
pub mod nlb;
pub mod queueing;
pub mod request;
pub mod resilience;
pub mod suspect;
pub mod token_bucket;

pub use admission::{
    AdmissionDecision, AdmissionPipeline, AdmissionReport, CostToServe, CostToServeConfig, StageKind,
};
pub use error::ConfigError;
pub use firewall::{Firewall, FirewallConfig, FirewallVerdict};
pub use nlb::{ForwardingPolicy, Nlb, RackPlacement};
pub use queueing::{PsServer, PushOutcome};
pub use request::{Request, RequestId, SourceId, UrlId};
pub use resilience::{PoolBreakers, RetryConfig};
pub use suspect::SuspectList;
pub use token_bucket::PowerTokenBucket;
