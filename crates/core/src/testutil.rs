//! Shared scenarios for tests, figures and benches.
//!
//! One canonical copy of the population the unit tests, the workspace
//! integration tests, the figures and the ablations all run: the
//! standard AliOS users plus an http-load flood, each a pinned
//! [`ScenarioBuilder`] ingredient, and a short-window experiment
//! config. Kept in the library (not a `tests/common` module) so both
//! in-crate `#[cfg(test)]` code and external test binaries share one
//! scenario — the golden report harness depends on every caller
//! building *exactly* the same sources.

use crate::config::{ClusterConfig, ExperimentConfig, SchemeKind};
use powercap::budget::BudgetLevel;
use simcore::SimDuration;
use workloads::attacker::AttackTool;
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::service::ServiceKind;

/// Peak arrival rate of the standard normal population, requests/s at
/// trace utilization 1.0.
pub const NORMAL_PEAK_RATE: f64 = 80.0;

/// Standard botnet size: per-bot rates stay under the firewall
/// threshold for every aggregate rate the figures sweep.
pub const BOTS: u32 = 40;

/// The standard normal-user population: the AliOS service mix over a
/// small synthesized Alibaba utilization trace, 60 client addresses,
/// peaking at `peak_rate` requests/s. Pinned to address 1 000, id
/// space 0 and the raw run seed.
pub fn users(peak_rate: f64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .with_normal_users(peak_rate, 60)
        .pinned(1_000, 0, SeedPin::Raw)
}

/// The standard scenario: [`users`] at [`NORMAL_PEAK_RATE`] plus, when
/// `attack_rate` is positive, an http-load flood on `victim` at
/// `attack_rate` requests/s total over [`BOTS`] bots (stealthy
/// per-source rates) from t = 5 s to the horizon, pinned to address 50 000, id
/// space `1 << 40` and `seed ^ 0x5EED`.
pub fn population(victim: ServiceKind, attack_rate: f64) -> ScenarioBuilder {
    let users = users(NORMAL_PEAK_RATE);
    if attack_rate > 0.0 {
        users
            .with_attack(AttackTool::HttpLoad { rate: attack_rate }, victim, BOTS, 5)
            .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED))
    } else {
        users
    }
}

/// A paper-rack experiment shortened to `secs` — the standard cell for
/// quick fixed-seed tests.
pub fn quick_exp(scheme: SchemeKind, budget: BudgetLevel, secs: u64, seed: u64) -> ExperimentConfig {
    let mut exp = ExperimentConfig::paper_window(ClusterConfig::paper_rack(budget), scheme, seed);
    exp.duration = SimDuration::from_secs(secs);
    exp
}
