//! # simcore — deterministic simulation substrate
//!
//! This crate is the substrate every other crate in the Anti-DOPE
//! reproduction builds on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated
//!   clock with explicit, overflow-checked arithmetic.
//! * [`rng`] — a self-contained `SplitMix64`/`xoshiro256**` PRNG with
//!   label-derived sub-streams ([`rng::RngFactory`]), so each simulation
//!   component draws from its own independent, reproducible stream and
//!   adding a component never perturbs the randomness seen by others.
//! * [`faults`] — deterministic fault injection
//!   ([`faults::ShardFaultPlan`]): scheduled events plus seeded
//!   stochastic sensor / actuator / node / battery faults drawn from
//!   per-node sub-streams, so chaos experiments keep the same-seed ⇒
//!   same-report contract.
//! * [`fxhash`] — deterministic FxHash-style hashing
//!   ([`fxhash::FxHashMap`]) for hot simulator-internal maps, replacing
//!   `RandomState`'s SipHash + per-process random seeding.
//! * [`par`] — the workspace's parallelism budget: [`par::map`], an
//!   order-preserving map on scoped std threads, and [`par::helpers`],
//!   the worker count the sharded engine runs beside its coordinator.
//!
//! ## Example
//!
//! ```
//! use simcore::{RngFactory, SimDuration, SimTime};
//!
//! let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
//! assert_eq!(t.as_secs_f64(), 1.5);
//! // Same seed, same stream: every draw is reproducible.
//! let mut a = RngFactory::new(7).stream("demo");
//! let mut b = RngFactory::new(7).stream("demo");
//! assert_eq!(a.unit_f64(), b.unit_f64());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod fxhash;
pub mod par;
pub mod rng;
pub mod time;

pub use faults::{ActuationFault, CrashEvent, FaultConfig, FaultCounts, FaultError};
pub use fxhash::FxHashMap;
pub use rng::{RngFactory, SimRng};
pub use time::{SimDuration, SimTime};
