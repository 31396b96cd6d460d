//! Shared scenario pieces for figures and benches.
//!
//! Every population is a [`ScenarioBuilder`]: the standard AliOS +
//! http-load scenario is [`antidope::testutil::population`], and the
//! figures that vary it write their builder inline.

use antidope::{ClusterConfig, ExperimentConfig, SchemeKind};
use powercap::BudgetLevel;
use simcore::SimDuration;
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::service::ServiceKind;
use workloads::vector::{AttackVectorSpec, SourcePlan, TargetPlan};

pub use antidope::testutil::{BOTS, NORMAL_PEAK_RATE};

/// First URL of the rotating attacker's range — deliberately outside
/// every [`ServiceKind`] URL, so the offline profile has never seen it.
pub(crate) const ROTATION_URL_BASE: u16 = 800;
/// Number of URLs the rotating attacker hops over.
pub const ROTATION_URL_SPACE: u16 = 6;
/// Seconds between URL rotations.
pub(crate) const ROTATION_PERIOD_S: u64 = 20;

/// The standard users plus a URL-rotating adaptive attack at ingredient
/// 1: heavy Colla-Filt work at `rate` requests/s over [`BOTS`] bots from
/// t = 5 s, behind URLs the offline profile has never seen, hopping
/// every `ROTATION_PERIOD_S`. Pinned to address 50 000, id space
/// `1 << 40` and `seed ^ 0x707A7E`. The oracle arm reads the attack's
/// [`oracle_profiles`](workloads::AttackVector::oracle_profiles) from
/// [`ScenarioBuilder::vector_twin`]`(1, ..)`.
pub fn rotating(rate: f64) -> ScenarioBuilder {
    let attack = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, rate)
        .sources(SourcePlan::Botnet { bots: BOTS })
        .target(TargetPlan::Rotating {
            url_base: ROTATION_URL_BASE,
            url_space: ROTATION_URL_SPACE,
            period: SimDuration::from_secs(ROTATION_PERIOD_S),
        });
    antidope::testutil::users(NORMAL_PEAK_RATE)
        .with_vector(attack, 5)
        .pinned(50_000, 1 << 40, SeedPin::Xor(0x707A7E))
}

/// An experiment config with an optional firewall override.
pub(crate) fn experiment(
    scheme: SchemeKind,
    budget: BudgetLevel,
    duration_s: u64,
    seed: u64,
    firewall: bool,
) -> ExperimentConfig {
    let mut cluster = ClusterConfig::paper_rack(budget);
    cluster.firewall = firewall;
    let mut exp = ExperimentConfig::paper_window(cluster, scheme, seed);
    exp.duration = SimDuration::from_secs(duration_s);
    exp
}
