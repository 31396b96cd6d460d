//! Determinism and conservation contract of the cluster engine.
//!
//! * Same seed + same shard layout ⇒ byte-identical [`SimReport`]s —
//!   parallel shard execution must leave no thread-scheduling residue.
//! * Across *different* shard counts the report is byte-identical
//!   outright: energy and latency are folded per node in global node
//!   order at finalize, so not even float-summation order depends on
//!   the layout. The per-field conservation assertions are kept
//!   alongside the byte comparison for their sharper failure messages.
//! * The bounded arrival inbox (a lone shard advanced mid-slot once its
//!   inbox fills) moves no event: a run dense enough to trigger it on
//!   every slot at one shard is byte-identical at 1/2/4/8 shards.
//! * Under fault injection, retries and circuit breakers, with or
//!   without a power topology, the report is still byte-identical to
//!   the 1-shard run (a property over valid configs): every fault
//!   domain — blackout guard, breaker pool — is physical, never a
//!   shard.

mod common;

use antidope_repro::antidope::testutil::population;
use antidope_repro::prelude::*;
use proptest::prelude::*;

/// Run the standard scenario on the 16-node scaling cluster with the
/// given shard count.
fn run_sharded(
    shards: usize,
    scheme: SchemeKind,
    attack_rate: f64,
    duration_s: u64,
    seed: u64,
) -> SimReport {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
    cluster.shards = shards;
    let mut exp = ExperimentConfig::paper_window(cluster, scheme, seed);
    exp.duration = SimDuration::from_secs(duration_s);
    run_experiment(&exp, &population(ServiceKind::CollaFilt, attack_rate))
}

/// A Low-PB chaos config on `servers` nodes: sensor faults at the
/// given probabilities, a `staleness`-slot telemetry window, optionally
/// a topology of `racks` racks (rack guard on) and a retry policy with
/// the circuit breaker armed, sharded `shards` ways.
fn chaos_exp(
    servers: usize,
    (dropout, stale, stuck): (f64, f64, f64),
    staleness: u64,
    racks: Option<usize>,
    retry: bool,
    duration_s: u64,
    shards: usize,
) -> ExperimentConfig {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Low);
    cluster.servers = servers;
    cluster.suspect_pool_size = (servers / 8).max(1);
    cluster.shards = shards;
    cluster.faults = Some(FaultConfig {
        sensor_dropout_p: dropout,
        sensor_stale_p: stale,
        sensor_stuck_p: stuck,
        ..FaultConfig::default()
    });
    cluster.control.telemetry_staleness_slots = staleness;
    cluster.topology = racks.map(|r| TopologyConfig::with_racks(r, 1));
    cluster.retry = retry.then(RetryConfig::default);
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 2019);
    exp.duration = SimDuration::from_secs(duration_s);
    exp
}

/// The cell where a shard-keyed blackout guard used to diverge: at
/// Low-PB with 30 % sensor dropout and a 1-slot staleness window, small
/// shards go fully dark by chance far more often than the whole
/// cluster does. The report at 8 shards must equal the 1-shard run.
#[test]
fn heavy_dropout_is_byte_identical_at_eight_shards() {
    let run = |shards: usize| {
        let exp = chaos_exp(16, (0.3, 0.0, 0.0), 1, None, false, 60, shards);
        run_experiment(&exp, &population(ServiceKind::CollaFilt, 400.0))
    };
    let base = run(1);
    assert!(base.faults.as_ref().is_some_and(|f| f.sensor_dropouts > 0));
    assert_eq!(format!("{base:?}"), format!("{:?}", run(8)), "report drifted at 8 shards");
}

/// Relative difference, guarded against a zero denominator.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-9)
}

/// Assert the layout-independence contract between two reports of the
/// same experiment at different shard counts.
fn assert_conserved(base: &SimReport, other: &SimReport, label: &str) {
    assert_eq!(base.traffic.offered, other.traffic.offered, "{label}: offered");
    assert_eq!(
        base.traffic.firewall_blocked, other.traffic.firewall_blocked,
        "{label}: firewall_blocked"
    );
    assert_eq!(
        base.traffic.scheme_denied, other.traffic.scheme_denied,
        "{label}: scheme_denied"
    );
    assert_eq!(
        base.traffic.queue_rejected, other.traffic.queue_rejected,
        "{label}: queue_rejected"
    );
    assert_eq!(base.normal_sla, other.normal_sla, "{label}: normal SLA outcomes");
    assert_eq!(base.attack_sla, other.attack_sla, "{label}: attack SLA outcomes");
    assert_eq!(
        base.power.outage_at_s, other.power.outage_at_s,
        "{label}: outage instant"
    );
    assert_eq!(base.power.violations, other.power.violations, "{label}: violations");
    assert!(
        rel_diff(base.energy.load_j, other.energy.load_j) < 1e-9,
        "{label}: load energy drifted beyond rounding ({} vs {})",
        base.energy.load_j,
        other.energy.load_j
    );
    assert!(
        rel_diff(base.energy.utility_j, other.energy.utility_j) < 1e-9,
        "{label}: utility energy drifted beyond rounding ({} vs {})",
        base.energy.utility_j,
        other.energy.utility_j
    );
}

#[test]
fn same_seed_same_layout_byte_identical() {
    for shards in [1usize, 2, 4, 8] {
        let a = run_sharded(shards, SchemeKind::AntiDope, 400.0, 30, 77);
        let b = run_sharded(shards, SchemeKind::AntiDope, 400.0, 30, 77);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "shards={shards} not reproducible"
        );
        assert!(a.traffic.offered > 1_000, "scenario must carry real load");
    }
}

#[test]
fn counts_conserved_across_shard_counts() {
    for scheme in [SchemeKind::Capping, SchemeKind::AntiDope] {
        let base = run_sharded(2, scheme, 400.0, 30, 19);
        for shards in [4usize, 8] {
            let other = run_sharded(shards, scheme, 400.0, 30, 19);
            assert_conserved(&base, &other, &format!("{scheme} at {shards} shards"));
            // Per-node energy/latency folds make the full report
            // byte-identical across layouts, not merely conserved.
            assert_eq!(
                format!("{base:?}"),
                format!("{other:?}"),
                "{scheme}: report drifted at {shards} shards"
            );
        }
    }
}

#[test]
fn breaker_outage_instant_is_layout_independent() {
    // Unmanaged cluster, deep oversubscription, heavy flood, breaker
    // armed with a short trip delay: the outage must land at the same
    // slot regardless of how the nodes are sharded, because the breaker
    // sees the layout-independent boundary power aggregate.
    let run = |shards: usize| {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Low);
        cluster.shards = shards;
        cluster.breaker = true;
        // Derated feed + short delay: the flood's steady draw sits well
        // above the rating, so the overload is continuous and the trip
        // deterministic.
        cluster.breaker_rating_factor = 0.80;
        cluster.breaker_trip_delay = SimDuration::from_secs(10);
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::None, 23);
        exp.duration = SimDuration::from_secs(60);
        run_experiment(&exp, &population(ServiceKind::CollaFilt, 900.0))
    };
    let base = run(2);
    assert!(
        base.power.outage_at_s.is_some(),
        "scenario must actually trip the breaker: {:?}",
        base.power
    );
    for shards in [4usize, 8] {
        let other = run(shards);
        assert_eq!(
            base.power.outage_at_s, other.power.outage_at_s,
            "outage moved at {shards} shards"
        );
        assert_conserved(&base, &other, &format!("outage run at {shards} shards"));
    }
}

#[test]
fn bounded_inbox_advance_moves_no_event() {
    // ~6,000 routed arrivals per 1 s slot once the flood starts at
    // t = 5 s: at one shard the arrival inbox reaches its 1,024-entry
    // bound several times every slot, so the mid-slot advance runs
    // throughout the flood.
    const SECS: u64 = 12;
    let base = run_sharded(1, SchemeKind::AntiDope, 6_000.0, SECS, 5);
    let routed = base.traffic.offered - base.traffic.firewall_blocked - base.traffic.scheme_denied;
    assert!(
        routed > 4 * 1_024 * (SECS - 5),
        "scenario must route well over 1,024 arrivals per flooded slot: {routed}"
    );
    let base = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        let other = run_sharded(shards, SchemeKind::AntiDope, 6_000.0, SECS, 5);
        assert_eq!(
            base,
            format!("{other:?}"),
            "dense report drifted at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Conservation holds for arbitrary seeds and attack intensities,
    /// not just the calibrated cells above.
    #[test]
    fn prop_conservation_across_shard_counts(
        seed in 0u64..500,
        rate in 100.0f64..700.0,
    ) {
        let base = run_sharded(2, SchemeKind::AntiDope, rate, 20, seed);
        for shards in [4usize, 8] {
            let other = run_sharded(shards, SchemeKind::AntiDope, rate, 20, seed);
            prop_assert_eq!(base.traffic.offered, other.traffic.offered);
            prop_assert_eq!(base.traffic.firewall_blocked, other.traffic.firewall_blocked);
            prop_assert_eq!(base.traffic.queue_rejected, other.traffic.queue_rejected);
            prop_assert_eq!(
                base.normal_sla.total() + base.attack_sla.total(),
                other.normal_sla.total() + other.attack_sla.total()
            );
            prop_assert_eq!(base.power.outage_at_s, other.power.outage_at_s);
            prop_assert!(rel_diff(base.energy.load_j, other.energy.load_j) < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    /// Same seed ⇒ the same report at any shard count, over valid
    /// chaos configs: sensor fault probabilities anywhere in [0, 1],
    /// any staleness window, flat or rack topologies, with or without
    /// armed circuit breakers.
    #[test]
    fn prop_chaos_report_is_shard_count_invariant(
        probs in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
        staleness in 1u64..6,
        servers in 2usize..65,
        topo in (0u8..2, 0.0f64..1.0),
        retry in 0u8..2,
        shard_pick in 0.0f64..1.0,
    ) {
        let racks = (topo.0 == 1).then(|| 1 + (topo.1 * (servers / 2) as f64) as usize);
        let shards = 1 + (shard_pick * servers as f64) as usize;
        let run = |shards: usize| {
            let exp = chaos_exp(servers, probs, staleness, racks, retry == 1, 20, shards);
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 400.0))
        };
        prop_assert_eq!(format!("{:?}", run(1)), format!("{:?}", run(shards)));
    }
}
