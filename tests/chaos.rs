//! Chaos drills: the fault-injection layer end to end.
//!
//! Three contracts, over full experiments:
//!
//! 1. **Graceful degradation** — Anti-DOPE under heavy sensor dropout
//!    still beats plain capping on tail latency, and a full telemetry
//!    blackout never lets cluster power past the breaker rating (the
//!    watchdog's uniform safe cap binds while the controller is blind).
//! 2. **Determinism under chaos** — the same `(seed, FaultConfig)` pair
//!    reproduces the report bit-for-bit, including every fault counter.
//! 3. **Conservation** — no request is double-counted or silently lost,
//!    whatever the fault layer kills mid-flight — including when the
//!    retry dataplane re-queues what a crash or thermal kill drained.
//! 4. **Layout invariance** — with faults, retries *and* the circuit
//!    breaker enabled, the sharded engine reproduces the report
//!    byte-for-byte at 1, 2, 4, and 8 shards: breaker pools are
//!    physical (one per node on a flat cluster), never shards.

mod common;

use antidope_repro::prelude::*;
use common::{run_cell, run_chaos_cell, run_profiled_chaos_cell, scenario};
use proptest::prelude::*;

/// The acceptance gate: at Low-PB under a 390 req/s flood with 10% of
/// power samples lost, Anti-DOPE's hardened control plane must still
/// deliver the paper's headline ordering against capping.
#[test]
fn antidope_beats_capping_under_sensor_dropout() {
    let faults = FaultConfig {
        sensor_dropout_p: 0.10,
        ..FaultConfig::default()
    };
    let anti = run_chaos_cell(
        SchemeKind::AntiDope,
        BudgetLevel::Low,
        390.0,
        120,
        2019,
        faults.clone(),
    );
    let capping = run_chaos_cell(
        SchemeKind::Capping,
        BudgetLevel::Low,
        390.0,
        120,
        2019,
        faults,
    );
    assert!(
        capping.normal_latency.p90_ms > anti.normal_latency.p90_ms,
        "capping p90 {} must exceed Anti-DOPE p90 {} under 10% dropout",
        capping.normal_latency.p90_ms,
        anti.normal_latency.p90_ms
    );
    assert!(anti.availability() > 0.8, "{}", anti.oneline());
}

/// During a total telemetry blackout the watchdog falls back to the
/// uniform safe cap: cluster power stays below the breaker rating (no
/// outage) even though the controller is flying blind under attack.
#[test]
fn blackout_never_breaches_the_breaker() {
    let mut cluster = ClusterConfig::paper_rack(BudgetLevel::Medium);
    cluster.breaker = true;
    cluster.breaker_rating_factor = 1.05;
    cluster.breaker_trip_delay = SimDuration::from_secs(30);
    cluster.faults = Some(FaultConfig {
        blackouts: vec![(SimTime::from_secs(20), SimTime::from_secs(80))],
        ..FaultConfig::default()
    });
    let rating = 340.0 * 1.05; // Medium-PB supply × rating factor
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 2019);
    exp.duration = SimDuration::from_secs(120);
    let report = run_experiment(&exp, &scenario(600.0));

    assert_eq!(
        report.power.outage_at_s, None,
        "watchdog must keep the breaker closed: {}",
        report.oneline()
    );
    let faults = report.faults.as_ref().expect("fault report");
    assert!(faults.degraded_slots > 0, "{faults:?}");
    // Inside the blackout (past a short grace for the safe cap's DVFS
    // transition to settle) every power sample respects the rating.
    let breaches: Vec<(f64, f64)> = report
        .power
        .series
        .iter()
        .filter(|&&(t, w)| (25.0..80.0).contains(&t) && w > rating)
        .copied()
        .collect();
    assert!(breaches.is_empty(), "power over rating during blackout: {breaches:?}");
}

/// The watchdog judges coverage over alive nodes: two of the four
/// nodes crash for good, then the survivors go dark. The dead nodes'
/// synthetic zero readings must not count as fresh coverage (that
/// would hold coverage at 0.5, on the floor, and never engage).
#[test]
fn blackout_of_the_survivors_engages_the_watchdog() {
    let faults = FaultConfig {
        crashes: (0..2)
            .map(|node| CrashEvent {
                node,
                at: SimTime::from_secs(10),
            })
            .collect(),
        reboot_after: SimDuration::ZERO, // down for good
        blackouts: vec![(SimTime::from_secs(20), SimTime::from_secs(30))],
        ..FaultConfig::default()
    };
    let r = run_chaos_cell(SchemeKind::AntiDope, BudgetLevel::Medium, 400.0, 40, 2019, faults);
    let f = r.faults.as_ref().expect("fault report");
    assert_eq!(f.crashes, 2, "{f:?}");
    assert!(f.degraded_slots >= 10, "the blind survivors must engage the watchdog: {f:?}");
}

/// Same seed + same fault plan ⇒ bit-identical report, with every fault
/// class active at once.
#[test]
fn chaos_runs_are_deterministic() {
    let faults = FaultConfig {
        sensor_dropout_p: 0.10,
        sensor_noise_w: 2.0,
        sensor_stuck_p: 0.01,
        sensor_stale_p: 0.05,
        blackouts: vec![(SimTime::from_secs(20), SimTime::from_secs(30))],
        actuator_loss_p: 0.10,
        actuator_delay_p: 0.10,
        actuator_stuck_p: 0.02,
        crashes: vec![CrashEvent {
            node: 2,
            at: SimTime::from_secs(15),
        }],
        crash_p: 0.001,
        reboot_after: SimDuration::from_secs(10),
        battery_fade: 0.2,
        charger_fails_at: Some(SimTime::from_secs(40)),
        ..FaultConfig::default()
    };
    let a = run_chaos_cell(
        SchemeKind::AntiDope,
        BudgetLevel::Medium,
        400.0,
        60,
        99,
        faults.clone(),
    );
    let b = run_chaos_cell(
        SchemeKind::AntiDope,
        BudgetLevel::Medium,
        400.0,
        60,
        99,
        faults,
    );
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "chaos run not deterministic"
    );
    // The plan actually fired across classes.
    let f = a.faults.expect("fault report");
    assert!(f.sensor_dropouts > 0, "{f:?}");
    assert!(f.crashes >= 1, "{f:?}");
    assert!(f.reboots >= 1, "{f:?}");
}

/// The online profiler is part of the deterministic replay surface: with
/// learning, hot-swapped suspect lists, *and* a multi-class fault plan
/// all active, the same seed still reproduces the report bit-for-bit —
/// including every profiler counter.
#[test]
fn profiled_chaos_runs_are_deterministic() {
    let faults = FaultConfig {
        sensor_dropout_p: 0.10,
        sensor_noise_w: 2.0,
        actuator_loss_p: 0.10,
        crashes: vec![CrashEvent {
            node: 1,
            at: SimTime::from_secs(15),
        }],
        reboot_after: SimDuration::from_secs(10),
        ..FaultConfig::default()
    };
    let a = run_profiled_chaos_cell(
        SchemeKind::AntiDope,
        BudgetLevel::Low,
        390.0,
        60,
        99,
        faults.clone(),
    );
    let b = run_profiled_chaos_cell(
        SchemeKind::AntiDope,
        BudgetLevel::Low,
        390.0,
        60,
        99,
        faults,
    );
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "profiled chaos run not deterministic"
    );
    // Both subsystems actually exercised their paths.
    let prof = a.profiler.expect("profiler report");
    assert!(prof.observations > 0, "{prof:?}");
    let f = a.faults.expect("fault report");
    assert!(f.sensor_dropouts > 0, "{f:?}");
    assert!(f.crashes >= 1, "{f:?}");
}

/// Enabling a no-op fault plan must not perturb the simulation: the
/// report matches the fault-free run byte-for-byte once the (all-zero)
/// fault block is removed.
#[test]
fn noop_plan_is_invisible() {
    let base = run_cell(SchemeKind::AntiDope, BudgetLevel::Medium, 400.0, 45, 7);
    let mut chaotic = run_chaos_cell(
        SchemeKind::AntiDope,
        BudgetLevel::Medium,
        400.0,
        45,
        7,
        FaultConfig::default(),
    );
    let f = chaotic.faults.take().expect("fault report");
    assert_eq!(f, FaultReport::default(), "no-op plan injected something: {f:?}");
    assert_eq!(format!("{base:?}"), format!("{chaotic:?}"));
}

/// Build the scaled 16-node cluster with a multi-class fault plan and a
/// retry policy with the circuit breaker armed, sharded `shards` ways.
fn sharded_chaos_exp(shards: usize) -> ExperimentConfig {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
    cluster.shards = shards;
    cluster.faults = Some(FaultConfig {
        sensor_dropout_p: 0.08,
        sensor_noise_w: 2.0,
        sensor_stuck_p: 0.01,
        sensor_stale_p: 0.05,
        // Long enough to outlast the staleness window, so the
        // watchdog actually engages (identically on every layout).
        blackouts: vec![(SimTime::from_secs(12), SimTime::from_secs(20))],
        actuator_loss_p: 0.05,
        crashes: vec![CrashEvent {
            node: 5,
            at: SimTime::from_secs(8),
        }],
        crash_p: 0.0005,
        reboot_after: SimDuration::from_secs(6),
        battery_fade: 0.1,
        ..FaultConfig::default()
    });
    cluster.retry = Some(RetryConfig::default());
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 2019);
    exp.duration = SimDuration::from_secs(40);
    exp
}

/// Same seed + same fault plan + retries + breaker ⇒ byte-identical
/// reports at **any shard count**: per-node fault streams, per-node
/// energy/latency folds, per-node breaker pools, and the boundary
/// crash/reboot path must leave no layout residue.
#[test]
fn sharded_chaos_is_byte_identical_across_shard_counts() {
    let run = |shards: usize| run_experiment(&sharded_chaos_exp(shards), &scenario(500.0));
    let base = run(1);
    let f = base.faults.as_ref().expect("fault report");
    assert!(f.crashes >= 1, "{f:?}");
    assert!(f.reboots >= 1, "{f:?}");
    assert!(f.sensor_dropouts > 0, "{f:?}");
    assert!(
        f.degraded_slots > 0,
        "the cluster-wide blackout drops coverage to 0, so the \
         watchdog must engage: {f:?}"
    );
    let r = base.retry.as_ref().expect("retry report");
    assert!(r.attempts > 0, "crash must strand requests into the retry path: {r:?}");
    let base_s = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        let other = run(shards);
        assert_eq!(
            base_s,
            format!("{other:?}"),
            "chaos report drifted at {shards} shards"
        );
    }
}

/// The acceptance gate for the resilience dataplane (the
/// `abl-resilience` ablation, pinned): nodes 4..8 crash for good
/// mid-run. Without retries the NLB — no longer oracle-notified of
/// deaths — black-holes a quarter of the traffic for the rest of the
/// run; retry + circuit breaker must restore ≥ 90% of legitimate
/// goodput, clearing the no-retry arm by a real margin, with the same
/// report at every shard count.
#[test]
fn retry_plus_breaker_restores_goodput_after_rack_loss() {
    let run = |retry: RetryConfig, shards: usize| {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
        cluster.shards = shards;
        cluster.faults = Some(FaultConfig {
            crashes: (4..8)
                .map(|node| CrashEvent {
                    node,
                    at: SimTime::from_secs(30),
                })
                .collect(),
            reboot_after: SimDuration::ZERO, // down for good
            ..FaultConfig::default()
        });
        cluster.retry = Some(retry);
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 2019);
        exp.duration = SimDuration::from_secs(120);
        run_experiment(&exp, &scenario(390.0))
    };
    let bare = run(
        RetryConfig {
            max_attempts: 1,
            breaker_cooldown: SimDuration::ZERO,
            ..RetryConfig::default()
        },
        4,
    );
    let armed = RetryConfig {
        max_attempts: 4,
        ..RetryConfig::default()
    };
    let hardened = run(armed.clone(), 1);

    let bare_goodput = bare.normal_sla.completion_rate();
    let hardened_goodput = hardened.normal_sla.completion_rate();
    assert!(
        hardened_goodput >= 0.90,
        "retry+breaker goodput {hardened_goodput:.3} below the 90% gate"
    );
    assert!(
        bare_goodput < hardened_goodput - 0.05,
        "no-retry arm ({bare_goodput:.3}) must trail retry+breaker \
         ({hardened_goodput:.3}) by a real margin"
    );
    let retry = hardened.retry.as_ref().expect("retry report");
    assert!(retry.breaker_trips > 0, "the dead pool must trip its breaker: {retry:?}");
    assert!(retry.rerouted > 0, "open breakers must steer dispatches: {retry:?}");
    let base = format!("{hardened:?}");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            base,
            format!("{:?}", run(armed.clone(), shards)),
            "rack-loss report drifted at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// Request conservation under arbitrary fault mixes: every offered
    /// request is accounted for exactly once across the two SLA trackers,
    /// up to the bounded population that can still be in flight (or
    /// pending arrival) when the horizon cuts the run.
    #[test]
    fn requests_conserved_under_chaos(
        dropout in 0.0f64..0.3,
        loss in 0.0f64..0.3,
        crash_node in 0usize..4,
        crash_at in 5u64..25,
        reboot_s in 0u64..20,
        seed in 1u64..1_000,
    ) {
        let faults = FaultConfig {
            sensor_dropout_p: dropout,
            actuator_loss_p: loss,
            crashes: vec![CrashEvent {
                node: crash_node,
                at: SimTime::from_secs(crash_at),
            }],
            reboot_after: SimDuration::from_secs(reboot_s),
            ..FaultConfig::default()
        };
        let r = run_chaos_cell(
            SchemeKind::AntiDope,
            BudgetLevel::Low,
            390.0,
            30,
            seed,
            faults,
        );
        let accounted = r.normal_sla.total() + r.attack_sla.total();
        prop_assert!(accounted <= r.traffic.offered);
        // Unaccounted requests are exactly those still in flight at the
        // horizon and not past their client timeout: bounded by queue
        // capacity (4 nodes × 32) plus one pending arrival per source.
        let slack = 4 * 32 + 2;
        prop_assert!(
            r.traffic.offered - accounted <= slack,
            "offered {} vs accounted {}",
            r.traffic.offered,
            accounted
        );
    }

    /// The retry path never duplicates a request (each lands in exactly
    /// one SLA bucket, so the accounted total cannot exceed offered) and
    /// never loses one (the unaccounted remainder is bounded by what can
    /// legitimately be in flight, pending arrival, or parked in the
    /// retry queue when the horizon cuts the run).
    #[test]
    fn retries_never_duplicate_or_lose_requests(
        max_attempts in 2u8..5,
        crash_node in 0usize..16,
        crash_at in 5u64..20,
        timeout_ms in 50u64..500,
        seed in 1u64..1_000,
    ) {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
        cluster.shards = 4;
        cluster.faults = Some(FaultConfig {
            crashes: vec![CrashEvent {
                node: crash_node,
                at: SimTime::from_secs(crash_at),
            }],
            reboot_after: SimDuration::from_secs(5),
            ..FaultConfig::default()
        });
        cluster.retry = Some(RetryConfig {
            max_attempts,
            timeout: SimDuration::from_millis(timeout_ms),
            ..RetryConfig::default()
        });
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, seed);
        exp.duration = SimDuration::from_secs(30);
        let r = run_experiment(&exp, &scenario(400.0));

        let accounted = r.normal_sla.total() + r.attack_sla.total();
        prop_assert!(
            accounted <= r.traffic.offered,
            "retries duplicated work: accounted {} > offered {}",
            accounted,
            r.traffic.offered
        );
        let retry = r.retry.as_ref().expect("retry report");
        // Every recovered or exhausted request passed through at least
        // one scheduled retry (max_attempts ≥ 2 above).
        prop_assert!(retry.recovered + retry.exhausted <= retry.attempts);
        // Loss bound: in-flight queue slots (16 × 32), one pending
        // arrival per source, plus requests parked in the retry queue —
        // each of those consumed a scheduled attempt, so `attempts` is a
        // (pessimistic) ceiling on the parked population.
        let slack = 16 * 32 + 2 + retry.attempts;
        prop_assert!(
            r.traffic.offered - accounted <= slack,
            "requests lost: offered {} vs accounted {} (slack {})",
            r.traffic.offered,
            accounted,
            slack
        );
    }
}
