//! # antidope — the paper's contribution
//!
//! A request-aware power-management framework for power-oversubscribed
//! data centers under DOPE (Denial of Power and Energy) attack, plus the
//! three baselines it is evaluated against and the full-system simulator
//! that ties every substrate crate together.
//!
//! ## The framework (Section 5 of the paper)
//!
//! * [`pdf`] — **Power-Driven Forwarding**: offline profiling builds a
//!   [`netsim::SuspectList`]; the NLB splits traffic by URL into suspect
//!   and innocent flows routed to disjoint server pools.
//! * [`dpm`] — **Differentiated Power Management** (Algorithm 1): on a
//!   budget violation, throttle *suspect* nodes first, choosing per-node
//!   V/F states by best power-saved-per-performance-lost, spilling to
//!   innocent nodes only when the suspect pool is exhausted. The
//!   Eq (1) request-control model `Σ qᵢ·Pᵢ(f) ≤ B₀`, solved over
//!   request classes, is compiled for tests only (`request_control`):
//!   no scheme runs it, and it is the oracle DPM's per-node search is
//!   checked against on one node.
//! * [`scheme`] — the four evaluated schemes of Table 2: `Capping`,
//!   `Shaving`, `Token`, and `AntiDope` (PDF + RPM), behind one
//!   [`scheme::PowerScheme`] trait.
//! * [`shard`] — [`shard::ShardedClusterSim`]: the one cluster engine,
//!   wiring sources → admission → NLB → processor-sharing nodes. Its
//!   dataplane shards (one at `shards: 1`) hold data-oriented
//!   (struct-of-arrays) node state, advance each control slot in
//!   parallel and synchronize at slot boundaries.
//! * [`control`] — the staged power control plane the engine drives
//!   once per 1 s slot: Sense → Filter → Learn → Decide → Act, with an
//!   Account stage doing energy / thermal / breaker integration (the
//!   paper's Fig. 12 pipeline made structural).
//! * [`runner`] — one-call experiment execution and parallel
//!   (scheme × budget × seed) sweeps.
//! * [`results`] — [`results::SimReport`]: everything the paper's
//!   figures need, with a `Debug` text that pins it byte for byte.
//! * [`health`] — the hardened-control-plane pieces the fault-injection
//!   layer exercises: last-good-value telemetry estimation, a
//!   coverage watchdog with recovery hysteresis, and actuator read-back
//!   verification with bounded retry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod control;
pub mod dpm;
pub mod health;
pub mod jsonl;
pub mod node;
pub mod pdf;
#[cfg(test)]
mod request_control;
pub mod results;
pub mod runner;
pub mod scheme;
pub mod shard;
pub mod testutil;
pub mod topology;

pub use config::{AdmissionConfig, ClusterConfig, ConfigError, ExperimentConfig, SchemeKind};
pub use control::plane::{
    ActuationTransport, BatteryObs, ControlClock, ControlTrace, DecisionRecord, Forget,
    ForgetKind, NodeObs, PlaneSample, SlotRecord, SlotTick, TelemetryTransport, TraceFooter,
    TraceRecorder, TransportError, TRACE_SCHEMA_VERSION,
};
pub use control::{ClusterView, ControlPipeline};
pub use health::TelemetryHealth;

pub use results::{FaultReport, RetryReport, SimReport};
pub use results::TopologyReport;
pub use runner::{record_experiment, run_experiment, run_matrix};
pub use shard::ShardedClusterSim;
pub use topology::{HierarchicalBudget, PowerTopology, TopologyConfig};

