//! # workloads — traffic and service models
//!
//! Everything that *generates* load in the reproduction:
//!
//! * [`service`] — the four BigDataBench-style EC service kernels of
//!   Table 1 (Colla-Filt, K-means, Word-Count, Text-Cont) with calibrated
//!   work, CPU-boundedness and power-character parameters, plus service
//!   mixes.
//! * [`normal`] — the `AliOS` normal-user model: a non-homogeneous
//!   Poisson arrival process modulated by a cluster utilization trace.
//! * [`alibaba`] — a synthetic generator with the statistical shape of
//!   the Alibaba cluster-trace-v2017 (12 h, diurnal, heavy-tailed) and a
//!   loader for the real CSV when available.
//! * [`attacker`] — the http-load / ApacheBench attack tools: open-loop
//!   rate-controlled floods spread over a configurable botnet.
//! * [`dope`] — the Fig-12 DOPE attack algorithm: probe the defense
//!   threshold, back off on detection, converge to the maximum
//!   undetected power injection.
//! * [`floods`] — the layered flood taxonomy of Fig 3 (SYN/UDP/ICMP vs
//!   HTTP/DNS/Slowloris) with measured power-intensity orderings.
//! * [`source`] — the [`TrafficSource`] abstraction all of the above
//!   implement, consumed by the cluster simulator.
//! * [`fanout`] — [`MergedSources`], a slot-ordered k-way merge over
//!   sources used by the sharded cluster engine to drain a control
//!   slot's arrivals up front while preserving the pull/feedback
//!   protocol.
//! * [`scenario`] — the composable [`ScenarioBuilder`], the one way a
//!   simulated population is built: standard populations with automatic
//!   id-space / address-pool bookkeeping, explicit pins where a scenario
//!   keeps a recorded placement, and concrete twins of one ingredient
//!   for callers that read an attack's plan.
//! * [`vector`] — the composable [`AttackVector`] algebra: base flood ⊗
//!   envelope ⊗ source plan ⊗ resource profile ⊗ target plan; every
//!   http-load / ApacheBench flood and every Fig 3 flood kind is an
//!   [`AttackVector`] ([`attacker`] re-exports its [`AttackTool`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alibaba;
pub mod attacker;
pub mod dope;
pub mod fanout;
pub mod floods;
pub mod normal;
pub mod scenario;
pub mod service;
pub mod source;
pub mod vector;

pub use alibaba::{AlibabaTraceConfig, UtilizationTrace};
pub use attacker::AttackTool;
pub use vector::{AttackVector, AttackVectorSpec, Envelope, ResourceProfile, SourcePlan, TargetPlan};
pub use dope::{DopeAttacker, DopeConfig, DopePhase};
pub use fanout::MergedSources;
pub use floods::FloodKind;
pub use normal::NormalUsers;
pub use scenario::{ScenarioBuilder, SeedPin};
pub use service::{ServiceKind, ServiceMix};
pub use source::{SourceEvent, TrafficSource};
