//! # powercap — the power-management substrate
//!
//! Models everything the paper's testbed provided in hardware:
//!
//! * [`PStateTable`] — the ACPI DVFS ladder of the paper's leaf servers:
//!   1.2–2.4 GHz in 0.1 GHz steps, with an affine voltage model and
//!   `f·V²` relative dynamic power.
//! * [`ServerPowerModel`] — nameplate/idle decomposition with per-service
//!   *power intensity* and *frequency sensitivity* knobs (the γ of
//!   DESIGN.md) — the two parameters that make Colla-Filt trip power
//!   capping at low request rates while K-means resists DVFS savings.
//!   It also finds the highest P-state under a per-node cap, and the
//!   highest uniform P-state under a cluster budget (the paper's
//!   `Capping` baseline).
//!
//!   The testbed has one kind of server, so the ladder and the model
//!   are each one `static`: [`PStateTable::paper_default`] and
//!   [`ServerPowerModel::paper_default`] hand out `&'static` references,
//!   and no node, actuator or scheme keeps a copy.
//! * [`DvfsController`] — per-server frequency actuator with transition
//!   latency.
//! * [`Battery`] — rack UPS used for peak shaving: capacity, discharge /
//!   charge rate limits, round-trip efficiency, exact depletion times.
//! * [`PowerBudget`] / [`BudgetLevel`] — the paper's Normal/High/Medium/
//!   Low-PB provisioning levels (100 / 90 / 85 / 80 %).
//! * [`Breaker`] — the sustained-overload breaker on a power feed, one
//!   type for the flat cluster feed and every level of a power tree.
//! * [`PowerMonitor`] — consecutive-sample budget-violation detector feeding
//!   the control loop.
//! * [`ThermalNode`] — the cooling layer DOPE also targets: first-order
//!   thermal model with PROCHOT clamping and critical trip.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod battery;
pub mod breaker;
pub mod budget;
pub mod dvfs;
pub mod error;
pub mod monitor;
pub mod pstate;
pub mod server_power;
pub mod thermal;

pub use battery::Battery;
pub use breaker::{Breaker, BreakerState};
pub use budget::{BudgetLevel, PowerBudget};
pub use dvfs::DvfsController;
pub use error::ConfigError;
pub use monitor::PowerMonitor;
pub use pstate::{PState, PStateTable};
pub use server_power::{ServerLoad, ServerPowerModel};
pub use thermal::{ThermalNode, ThermalState};
