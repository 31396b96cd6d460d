//! The oracle-free story end-to-end: under a URL-rotating attack the
//! online power-attribution profiler must recover (nearly) the defense
//! quality of an impossible oracle suspect list, while a stale offline
//! list degrades toward Capping-like behaviour.

use antidope_repro::antidope::pdf::{build_suspect_list, DEFAULT_SUSPECT_THRESHOLD};
use antidope_repro::antidope::scheme::{AntiDopeScheme, PowerScheme};
use antidope_repro::netsim::request::UrlId;
use antidope_repro::netsim::suspect::FlowClass;
use antidope_repro::prelude::*;
use antidope_repro::simcore::rng::SimRng;
use dope_bench::scenarios::{rotating, ROTATION_URL_SPACE};

const ATTACK_RATE: f64 = 390.0;
const SECS: u64 = 240;
const SEED: u64 = 2019;

/// One arm of the provenance comparison: `"oracle"` (impossible
/// knowledge of every rotation URL), `"online"` (profiler learns at
/// runtime), or `"stale"` (offline service profiles only).
fn run_arm(arm: &str) -> SimReport {
    let mut cluster = ClusterConfig::paper_rack(BudgetLevel::Low);
    cluster.firewall = true;
    if arm == "online" {
        cluster.profiler = Some(ProfilerConfig::default());
    }
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, SEED);
    exp.duration = SimDuration::from_secs(SECS);
    let horizon = SimTime::ZERO + exp.duration;
    let scenario = rotating(ATTACK_RATE);
    let scheme: Box<dyn PowerScheme> = if arm == "oracle" {
        let attack = scenario
            .vector_twin(1, exp.seed, horizon)
            .expect("the attack starts before the horizon");
        Box::new(AntiDopeScheme::with_oracle_profiles(
            &exp.cluster,
            attack.oracle_profiles(),
        ))
    } else {
        Box::new(AntiDopeScheme::new(&exp.cluster))
    };
    let sources = scenario.build(exp.seed, horizon);
    ShardedClusterSim::run_with_scheme(&exp, scheme, sources)
}

/// The acceptance criterion: at Low-PB under the rotating attack, the
/// online profiler restores legit p99 to within 10 % of the oracle run,
/// and isolates (nearly) the same traffic volume.
#[test]
fn online_profiler_restores_oracle_p99() {
    let oracle = run_arm("oracle");
    let online = run_arm("online");

    let (op99, np99) = (oracle.normal_latency.p99_ms, online.normal_latency.p99_ms);
    assert!(
        np99 <= op99 * 1.10,
        "online p99 {np99:.1} ms not within 10% of oracle {op99:.1} ms"
    );
    // The learned list routes the bulk of the flood into the suspect
    // pool, like the oracle does.
    assert!(
        online.traffic.to_suspect_pool as f64 >= 0.7 * oracle.traffic.to_suspect_pool as f64,
        "online isolated {} vs oracle {}",
        online.traffic.to_suspect_pool,
        oracle.traffic.to_suspect_pool
    );
    // The profiler actually learned the rotation: every hopped-to URL is
    // tracked and most are classified suspect by the end.
    let prof = online.profiler.expect("online arm reports profiler stats");
    assert!(prof.observations > 0, "no learning observations");
    assert!(
        prof.tracked_urls >= (ROTATION_URL_SPACE as u64) / 2,
        "tracked only {} URLs",
        prof.tracked_urls
    );
    assert!(
        prof.suspect_urls >= 2,
        "only {} suspect URLs learned",
        prof.suspect_urls
    );
    // Oracle / stale arms run without the profiler subsystem.
    assert!(oracle.profiler.is_none());
}

/// Without the profiler, the stale offline list never matches the
/// rotating URLs: the flood rides the innocent pool, PDF isolates
/// nothing, and the run degrades toward Capping-like behaviour —
/// sustained breaker-violation time and inflated mean latency.
#[test]
fn stale_offline_list_degrades_under_rotation() {
    let online = run_arm("online");
    let stale = run_arm("stale");

    // The stale list misses (almost all of) the flood.
    assert!(
        10 * stale.traffic.to_suspect_pool < online.traffic.to_suspect_pool,
        "stale isolated {} vs online {}",
        stale.traffic.to_suspect_pool,
        online.traffic.to_suspect_pool
    );
    // Unisolated flood at Low-PB: the breaker-violation time is
    // sustained, where the learned list keeps it marginal.
    assert!(
        stale.power.violation_fraction > 0.01,
        "expected sustained violations, got {}",
        stale.power.violation_fraction
    );
    assert!(
        stale.power.violation_fraction > online.power.violation_fraction,
        "stale {} vs online {}",
        stale.power.violation_fraction,
        online.power.violation_fraction
    );
    // Whole-cluster throttling inflates everyone's mean latency.
    assert!(
        stale.normal_latency.mean_ms > 1.4 * online.normal_latency.mean_ms,
        "stale mean {} vs online {}",
        stale.normal_latency.mean_ms,
        online.normal_latency.mean_ms
    );
}

mod convergence {
    use super::*;
    use proptest::prelude::*;

    /// Synthetic stationary traffic: each node hosts a random mix of the
    /// four service kernels; node power follows the same model the
    /// profiler inverts (exactly — this isolates estimator convergence
    /// from simulator noise).
    fn drive_stationary(seed: u64, ticks: u32) -> PowerProfiler {
        let cfg = ProfilerConfig::default();
        let mut engine = PowerProfiler::new(cfg.clone());
        let mut rng = SimRng::new(seed);
        for _ in 0..ticks {
            for _node in 0..4 {
                // 1–3 kernels per node, weights 1–4.
                let mut mix: Vec<(UrlId, u32)> = Vec::new();
                let k = 1 + rng.below(3) as usize;
                for _ in 0..k {
                    let kernel = ServiceKind::ALL[rng.below(4) as usize];
                    let weight = 1 + rng.below(4) as u32;
                    match mix.iter_mut().find(|(u, _)| *u == kernel.url()) {
                        Some((_, w)) => *w += weight,
                        None => mix.push((kernel.url(), weight)),
                    }
                }
                let total: u32 = mix.iter().map(|(_, w)| w).sum();
                let mixed_intensity: f64 = mix
                    .iter()
                    .map(|(u, w)| {
                        let kernel = ServiceKind::from_url(*u).expect("mix built from kernels");
                        kernel.profile().intensity * (*w as f64) / total as f64
                    })
                    .sum();
                let utilization = 0.25 + 0.75 * rng.unit_f64();
                let power = cfg.idle_w
                    + cfg.dynamic_scale_w * utilization.powf(cfg.util_exponent) * mixed_intensity;
                engine.observe_node(Some(power), utilization, true, &mix);
            }
            engine.end_tick();
        }
        engine
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 16,
            ..ProptestConfig::default()
        })]

        /// Satellite guarantee: under stationary traffic the online
        /// classification converges to the oracle
        /// [`build_suspect_list`] labels within a bounded number of
        /// control ticks, for any seed.
        #[test]
        fn stationary_traffic_converges_to_oracle_labels(seed in 0u64..1_000_000) {
            let engine = drive_stationary(seed, 40);
            let oracle = build_suspect_list(DEFAULT_SUSPECT_THRESHOLD)
                .expect("default threshold is valid");
            for kernel in ServiceKind::ALL {
                let url = kernel.url();
                let want = if oracle.is_suspect(url) {
                    FlowClass::Suspect
                } else {
                    FlowClass::Innocent
                };
                prop_assert_eq!(
                    engine.list().classify(url),
                    want,
                    "kernel {} (intensity {}) misclassified after 40 ticks",
                    kernel.name(),
                    kernel.profile().intensity
                );
                // And the learned intensity is close to ground truth.
                let est = engine.estimate(url).expect("kernel was observed");
                prop_assert!(
                    (est - kernel.profile().intensity).abs() < 0.05,
                    "estimate {} vs true {}",
                    est,
                    kernel.profile().intensity
                );
            }
        }
    }
}
