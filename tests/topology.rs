//! Contract of the `core::topology` subsystem.
//!
//! * **Allocator conservation** — over random topologies and demands,
//!   the hierarchical allocator never hands a level's children more
//!   than the parent holds, and never hands a child more than its own
//!   oversubscribed budget (proptest).
//! * **Energy conservation** — per-rack energy in the report sums
//!   *bit-exactly* to the cluster's load energy: the finalize fold
//!   defines one as the fold of the other.
//! * **Layout invariance** — a hierarchical run (topology + retry +
//!   rack-keyed circuit breakers), and a chaos run whose racks black
//!   out, are byte-identical across shard counts 1/2/4/8.
//! * **Degenerate topology** — a single-rack topology in observe-only
//!   mode leaves the engine's physics byte-identical to a flat
//!   (topology-less) run.
//! * **Headline scenario** — a rack-concentrated flood trips the
//!   target rack's breaker while the facility meter shows headroom;
//!   the hierarchical view localizes the attack to the right rack, and
//!   the per-rack guard defuses it with ≥ 90 % of legitimate goodput
//!   retained.

mod common;

use antidope_repro::antidope::testutil::{population, users, NORMAL_PEAK_RATE};
use antidope_repro::prelude::*;
use proptest::prelude::*;

/// Nested-budget topology without extra oversubscription headroom, so
/// a concentrated flood can overload one rack while the facility idles.
fn tight_topology(racks: usize, pdus: usize, defend: bool) -> TopologyConfig {
    let mut t = TopologyConfig::with_racks(racks, pdus);
    t.rack_oversub = 1.0;
    t.pdu_oversub = 1.0;
    t.row_oversub = 1.0;
    t.defend = defend;
    t
}

/// 16-node cluster with a topology attached, running the standard
/// scenario on the sharded engine.
fn run_hierarchical(
    shards: usize,
    topo: TopologyConfig,
    attack_rate: f64,
    duration_s: u64,
    seed: u64,
) -> SimReport {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
    cluster.shards = shards;
    cluster.topology = Some(topo);
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, seed);
    exp.duration = SimDuration::from_secs(duration_s);
    run_experiment(&exp, &population(ServiceKind::CollaFilt, attack_rate))
}

#[test]
fn hierarchical_report_carries_topology() {
    let report = run_hierarchical(2, TopologyConfig::with_racks(4, 2), 300.0, 20, 7);
    let t = report.topology.as_ref().expect("topology must be reported");
    assert_eq!(t.racks, 4);
    assert_eq!(t.pdus, 2);
    assert_eq!(t.rows, 1);
    assert_eq!(t.rack_peak_w.len(), 4);
    assert!(t.rack_peak_w.iter().all(|&w| w > 0.0));
    assert_eq!(t.rack_energy_j.len(), 4);
}

#[test]
fn rack_energy_sums_exactly_to_cluster_energy() {
    for (racks, pdus, seed) in [(2, 1, 3u64), (4, 2, 11), (8, 4, 19)] {
        let report = run_hierarchical(4, TopologyConfig::with_racks(racks, pdus), 350.0, 30, seed);
        let t = report.topology.as_ref().expect("topology must be reported");
        let sum: f64 = t.rack_energy_j.iter().sum();
        // Bit-exact, not approximately: finalize *defines* load energy
        // as the fold of the per-rack sub-folds.
        assert_eq!(
            sum, report.energy.load_j,
            "racks={racks}: rack energy does not fold to cluster energy"
        );
        assert!(report.energy.load_j > 0.0, "run must carry real load");
    }
}

#[test]
fn hierarchical_run_is_byte_identical_across_shard_counts() {
    // Retry + breakers on: the circuit-breaker pools are rack-keyed
    // under a topology, so even the resilience dataplane must be
    // layout-invariant.
    let run = |shards: usize| {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
        cluster.shards = shards;
        cluster.topology = Some(TopologyConfig::with_racks(4, 2));
        cluster.retry = Some(RetryConfig::default());
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 77);
        exp.duration = SimDuration::from_secs(30);
        run_experiment(&exp, &population(ServiceKind::CollaFilt, 400.0))
    };
    let base = run(1);
    assert!(base.topology.is_some());
    assert!(base.traffic.offered > 1_000, "scenario must carry real load");
    for shards in [2usize, 4, 8] {
        let other = run(shards);
        assert_eq!(
            format!("{base:?}"),
            format!("{other:?}"),
            "hierarchical report drifted at {shards} shards"
        );
    }
}

#[test]
fn rack_blackout_guard_is_byte_identical_across_shard_counts() {
    // Heavy sensor dropout on 2-node racks with a 1-slot staleness
    // window: whole racks go dark by chance, and the blackout guard
    // pins them. Racks, not shards, are the domain it judges by.
    let run = |shards: usize| {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
        cluster.shards = shards;
        cluster.topology = Some(TopologyConfig::with_racks(8, 2));
        cluster.faults = Some(FaultConfig {
            sensor_dropout_p: 0.3,
            ..FaultConfig::default()
        });
        cluster.control.telemetry_staleness_slots = 1;
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 2019);
        exp.duration = SimDuration::from_secs(60);
        run_experiment(&exp, &population(ServiceKind::CollaFilt, 400.0))
    };
    let base = run(1);
    let t = base.topology.as_ref().expect("topology must be reported");
    assert!(t.blackout_slots > 0, "dark racks must engage the guard: {t:?}");
    assert!(t.blackout_episodes > 0, "{t:?}");
    let base = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        assert_eq!(base, format!("{:?}", run(shards)), "report drifted at {shards} shards");
    }
}

#[test]
fn degenerate_single_rack_topology_leaves_physics_untouched() {
    // With the guard off the single-rack topology layer is a pure
    // observer, so everything except the
    // topology block itself must match a flat run byte for byte.
    let run = |topo: Option<TopologyConfig>| {
        let mut cluster = ClusterConfig::paper_rack(BudgetLevel::Medium);
        cluster.topology = topo;
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 42);
        exp.duration = SimDuration::from_secs(30);
        run_experiment(&exp, &population(ServiceKind::CollaFilt, 400.0))
    };
    let flat = run(None);
    assert!(flat.topology.is_none());
    let mut observed = run(Some(tight_topology(1, 1, false)));
    let t = observed.topology.take().expect("topology must be reported");
    assert_eq!(t.racks, 1);
    assert_eq!(
        format!("{flat:?}"),
        format!("{observed:?}"),
        "single-rack observer changed the physics"
    );
}

// ---------------------------------------------------------------------
// Headline scenario: concentrating flood vs the hierarchy.
// ---------------------------------------------------------------------

const HEADLINE_SEED: u64 = 42;
const HEADLINE_RACKS: usize = 4;
const HEADLINE_RATE: f64 = 420.0;
const HEADLINE_SECS: u64 = 120;

fn headline_experiment(defend: bool) -> ExperimentConfig {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Low);
    cluster.topology = Some(tight_topology(HEADLINE_RACKS, 2, defend));
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::None, HEADLINE_SEED);
    exp.duration = SimDuration::from_secs(HEADLINE_SECS);
    exp
}

/// Users plus, when `attack_rate` is positive, a Colla-Filt flood
/// concentrated on one rack at ingredient 1.
fn headline(attack_rate: f64) -> ScenarioBuilder {
    let users = users(NORMAL_PEAK_RATE);
    if attack_rate <= 0.0 {
        return users;
    }
    let flood = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, attack_rate)
        .sources(SourcePlan::Botnet { bots: 40 })
        // Never re-aims inside the window.
        .target(TargetPlan::Concentrating {
            racks: HEADLINE_RACKS,
            url_base: 900,
            period: SimDuration::from_secs(HEADLINE_SECS),
        });
    users
        .with_vector(flood, 5)
        .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED))
}

#[test]
fn concentrated_flood_trips_rack_while_facility_has_headroom() {
    let exp = headline_experiment(false);
    // The attacker's aim is deterministic per seed: an identically-built
    // probe tells the test which rack must take the hit.
    let scenario = headline(HEADLINE_RATE);
    let expected_target = scenario
        .vector_twin(1, exp.seed, SimTime::ZERO + exp.duration)
        .and_then(|attack| attack.target_rack())
        .expect("concentrating plan");
    let report = run_experiment(&exp, &scenario);
    let t = report.topology.as_ref().expect("topology must be reported");

    // The facility meter never sees the attack…
    assert_eq!(report.power.violations, 0, "facility budget never violated");
    assert_eq!(t.facility_breach_slots, 0, "facility headroom throughout");
    assert!(report.power.peak_w < report.power.supply_w);

    // …but the target rack's breaker trips, and only that rack's.
    let tripped: Vec<usize> = (0..t.racks)
        .filter(|&r| t.rack_trip_at_s[r].is_some())
        .collect();
    assert_eq!(tripped, vec![expected_target], "exactly the target rack trips");
    assert!(
        t.rack_breach_slots[expected_target] > 10,
        "sustained rack-level breach: {:?}",
        t.rack_breach_slots
    );

    // Hierarchical attribution localizes the flood to the same rack.
    assert_eq!(t.hottest_rack, expected_target, "attribution points at the target");
}

#[test]
fn rack_guard_defuses_the_flood_and_restores_goodput() {
    let clean = run_experiment(&headline_experiment(false), &headline(0.0));
    let defended = run_experiment(&headline_experiment(true), &headline(HEADLINE_RATE));
    let t = defended.topology.as_ref().expect("topology must be reported");

    // The guard engages and no breaker ever trips.
    assert!(t.guard_slots > 0, "guard must engage");
    assert!(
        t.rack_trip_at_s.iter().all(Option::is_none),
        "no breaker trips with the guard active: {:?}",
        t.rack_trip_at_s
    );
    assert_eq!(t.facility_breach_slots, 0);
    assert_eq!(defended.power.violations, 0);

    // ≥ 90 % of attack-free legitimate goodput is retained.
    let restored =
        defended.normal_sla.completion_rate() / clean.normal_sla.completion_rate().max(1e-9);
    assert!(
        restored >= 0.90,
        "goodput restored to {:.1}% (< 90%)",
        restored * 100.0
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The hierarchical allocator conserves every level of the tree:
    /// children never receive more than the parent holds, no child
    /// exceeds its own oversubscribed budget, and no child receives
    /// more than it asked for.
    #[test]
    fn prop_allocation_conserves_every_level(
        servers in 4usize..48,
        racks_frac in 0.0f64..1.0,
        pdus_frac in 0.0f64..1.0,
        budget_w in 200.0f64..4_000.0,
        demand_scale in 0.0f64..3.0,
        seed in 0u64..1_000,
    ) {
        let racks = 1 + (racks_frac * (servers.min(12) - 1) as f64) as usize;
        let pdus = 1 + (pdus_frac * (racks - 1) as f64) as usize;
        let cfg = TopologyConfig::with_racks(racks, pdus);
        cfg.validate(servers).expect("generated topology is valid");
        let topo = PowerTopology::build(servers, budget_w, &cfg);

        // Pseudo-random per-rack demands up to 3× the average share.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut demand = Vec::with_capacity(racks);
        for _ in 0..racks {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            demand.push(u * demand_scale * budget_w / racks as f64);
        }

        let mut alloc = HierarchicalBudget::new();
        let rack_alloc = alloc.allocate(&topo, &demand).to_vec();

        // Per-child caps.
        for r in 0..racks {
            prop_assert!(rack_alloc[r] <= topo.rack_budget_w(r) + 1e-9);
            prop_assert!(rack_alloc[r] <= demand[r].max(0.0) + 1e-9);
            prop_assert!(rack_alloc[r] >= 0.0);
        }
        // Σ children ≤ parent, exactly, at every level of the tree.
        let pdu_alloc = alloc.pdu_alloc_w().to_vec();
        let row_alloc = alloc.row_alloc_w().to_vec();
        prop_assert!(row_alloc.iter().sum::<f64>() <= topo.facility_budget_w());
        let mut rack_cursor = 0usize;
        let mut racks_per_pdu = vec![0usize; topo.pdus()];
        for r in 0..racks {
            racks_per_pdu[pdu_of_rack(&topo, r)] += 1;
        }
        for (p, &count) in racks_per_pdu.iter().enumerate() {
            let s: f64 = rack_alloc[rack_cursor..rack_cursor + count].iter().sum();
            prop_assert!(
                s <= pdu_alloc[p],
                "pdu {}: children sum {} > alloc {}", p, s, pdu_alloc[p]
            );
            rack_cursor += count;
        }
        let pdus_sum: f64 = pdu_alloc.iter().sum();
        prop_assert!(pdus_sum <= row_alloc.iter().sum::<f64>() + 1e-9);
    }

    /// Per-rack energy folds to the cluster total for arbitrary seeds
    /// and rack counts, not just the calibrated cells above.
    #[test]
    fn prop_rack_energy_conserved(
        seed in 0u64..300,
        racks_pick in 0usize..3,
        rate in 100.0f64..600.0,
    ) {
        let (racks, pdus) = [(2, 1), (4, 2), (8, 2)][racks_pick];
        let report = run_hierarchical(
            4,
            TopologyConfig::with_racks(racks, pdus),
            rate,
            15,
            seed,
        );
        let t = report.topology.as_ref().expect("topology must be reported");
        prop_assert_eq!(t.rack_energy_j.len(), racks);
        let sum: f64 = t.rack_energy_j.iter().sum();
        prop_assert_eq!(sum, report.energy.load_j);
        // Every rack carried some load: the NLB spreads the normal
        // population over all URL classes.
        for (r, &j) in t.rack_energy_j.iter().enumerate() {
            prop_assert!(j > 0.0, "rack {} reported zero energy", r);
        }
    }
}

/// The PDU owning rack `r`: PDUs partition the *racks* near-evenly and
/// contiguously (the first `racks % pdus` PDUs own one extra rack),
/// mirroring `PowerTopology::build`'s `near_even(racks, pdus)` ranges.
fn pdu_of_rack(topo: &PowerTopology, r: usize) -> usize {
    let per = topo.racks() / topo.pdus();
    let extra = topo.racks() % topo.pdus();
    let boundary = extra * (per + 1);
    if r < boundary {
        r / (per + 1)
    } else {
        extra + (r - boundary) / per
    }
}
