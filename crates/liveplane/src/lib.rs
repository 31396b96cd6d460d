//! # liveplane — the control plane, lifted out of the simulator
//!
//! The staged Anti-DOPE control plane (Sense → Filter → Learn → Decide
//! → Act) was born inside the discrete-event engines. This crate hosts
//! the **identical** [`antidope::ControlPipeline`] behind the pluggable
//! [`antidope::ControlClock`] / [`antidope::TelemetryTransport`] /
//! [`antidope::ActuationTransport`] seams, so the same decision logic
//! runs against three backends:
//!
//! | backend | clock | telemetry | actuation |
//! |---|---|---|---|
//! | DES engines | implicit (`Ev::Slot`) | simulator nodes | simulator nodes |
//! | trace replay | [`ReplayClock`] | [`ReplayTelemetry`] | [`RecordingActuation`] |
//! | mock sysfs | [`WallClock`] / [`ManualClock`] | [`SysfsTelemetry`] | [`SysfsActuation`] |
//!
//! The headline guarantee is **sim/live parity**: record a trace from a
//! fixed-seed DES run ([`antidope::record_experiment`]), replay it
//! through [`LiveDaemon`], and every emitted
//! [`antidope::ClusterView`]/[`antidope::DecisionRecord`] — plus the
//! accounting footer — is byte-identical to what the simulator's
//! control plane produced. The `tests/parity.rs` harness enforces this
//! in debug and release.
//!
//! See the `live_daemon` example for the tick loop with wall-clock
//! cadence, staleness bridging, and graceful shutdown.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod daemon;
pub mod replay;
pub mod sysfs;

pub use clock::{ManualClock, ReplayClock, WallClock};
pub use daemon::{LiveDaemon, LiveSummary, SlotDisposition};
pub use replay::{NullActuation, RecordingActuation, ReplayTelemetry};
pub use sysfs::{render_decision, MockSysfsWriter, SysfsActuation, SysfsTelemetry};
