//! # dcmetrics — measurement substrate for the Anti-DOPE reproduction
//!
//! Every number reported in the paper's evaluation (response-time
//! percentiles, power CDFs, battery capacity curves, normalized energy,
//! availability) is computed by this crate:
//!
//! * [`OnlineSummary`] — Welford mean/variance plus min/max, O(1) memory.
//! * [`LatencyHistogram`] — log-binned histogram with bounded relative
//!   error, for tail-latency percentiles over millions of samples.
//! * [`Ecdf`] — exact empirical CDFs (the paper plots many power CDFs).
//! * [`TimeSeries`] — sample recorder with downsampling, for power and
//!   battery traces.
//! * [`EnergyMeter`] — exact integration of step power signals into
//!   joules.
//! * [`SlaTracker`] — availability bookkeeping (completions, deadline
//!   misses, drops).
//! * [`export`] — CSV and aligned-markdown rendering used by the
//!   experiment harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod availability;
pub mod cdf;
pub mod energy;
pub mod export;
pub mod histogram;
pub mod summary;
pub mod timeseries;

pub use availability::{RequestOutcome, SlaTracker};
pub use export::Table;
pub use cdf::Ecdf;
pub use energy::EnergyMeter;
pub use histogram::LatencyHistogram;
pub use summary::OnlineSummary;
pub use timeseries::TimeSeries;
