//! The attacker × defense co-evolution grid: the lab's acceptance
//! contract.
//!
//! * an ON/OFF burst flood slips the per-source firewall that bans the
//!   constant flood of the same aggregate rate — bursts shorter than
//!   the detection lag, sleeps that outlive a finite ban;
//! * a memory-resource flood defeats the DVFS-only arm but not the
//!   stacked CAPoW + Anti-DOPE arm;
//! * same-seed grid cells are byte-identical at shards 1/2/4/8;
//! * the parallel grid returns exactly the cells a sequential loop
//!   produces, in row-major order.

use antidope::AdmissionConfig;
use antidope_repro::prelude::*;
use dope_bench::grid::{run_cell, run_cell_on, run_grid, AttackRow, DefenseStack, GridConfig};
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::service::ServiceKind;
use workloads::vector::{AttackVectorSpec, Envelope, SourcePlan};

/// Run `spec` against an otherwise-idle perimeter: deflate firewall at
/// 150 req/s with finite 30 s bans, no power scheme, generous budget.
fn firewalled(spec: AttackVectorSpec) -> SimReport {
    let builder = ScenarioBuilder::new()
        .with_normal_users(80.0, 60)
        .pinned(1_000, 0, SeedPin::Raw)
        .with_vector(spec, 5);
    let mut cluster = ClusterConfig::paper_rack(BudgetLevel::Normal);
    cluster.admission = Some(AdmissionConfig {
        firewall_ban_s: Some(30.0),
        ..AdmissionConfig::default()
    });
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::None, 2019);
    exp.duration = SimDuration::from_secs(90);
    run_experiment(&exp, &builder)
}

/// Acceptance (a): the firewall that catches the constant flood is
/// evaded by the same volume reshaped into ON/OFF bursts from an
/// auto-sized botnet. The burst timing is engineered against the
/// perimeter's clocks: 4 s bursts mature their bans during the 36 s
/// sleep (detection lag 5 s), and the 30 s ban expires before the next
/// burst fires — so not one request is ever blocked.
#[test]
fn burst_envelope_evades_the_firewall_that_bans_constant() {
    let base = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 390.0);

    let constant = base.clone().sources(SourcePlan::Botnet { bots: 2 });
    let caught = firewalled(constant);
    assert!(
        caught.traffic.firewall_blocked > 0,
        "195 req/s per source must trip the 150 req/s rule"
    );

    let burst = base
        .envelope(Envelope::OnOffBurst {
            period: SimDuration::from_secs(40),
            duty: 0.1,
        })
        .sources(SourcePlan::EvadingBotnet {
            threshold_rps: 150.0,
        });
    let evaded = firewalled(burst);
    assert_eq!(
        evaded.traffic.firewall_blocked, 0,
        "burst botnet must never be blocked"
    );
    // Evasion is not abstinence: the flood still lands real volume
    // (~390 req/s × the ON fraction of the window, plus normal users).
    assert!(
        evaded.traffic.offered > 7_000,
        "evading flood landed only {} requests",
        evaded.traffic.offered
    );
}

/// Acceptance (b): the memory-bound resource shape (gamma 0.2 — DVFS
/// reclaims almost nothing) breaks uniform capping, while the stacked
/// arm (cost-to-serve pricing with the memory surcharge + Anti-DOPE)
/// holds the budget outright.
#[test]
fn memory_flood_defeats_dvfs_only_but_not_stacked() {
    let cfg = GridConfig::smoke(2019);
    let dvfs = run_cell(&cfg, AttackRow::Memory, DefenseStack::DvfsOnly);
    assert!(
        dvfs.violated(),
        "memory flood must breach the DVFS-only arm (peak {} W vs supply {} W)",
        dvfs.report.power.peak_w,
        dvfs.report.power.supply_w
    );

    let stacked = run_cell(&cfg, AttackRow::Memory, DefenseStack::Stacked);
    assert!(
        !stacked.violated(),
        "stacked arm must hold the budget (got {} violations)",
        stacked.report.power.violations
    );
    let denied: u64 = stacked
        .report
        .admission
        .as_ref()
        .expect("stacked arm reports per-stage verdicts")
        .stages
        .iter()
        .map(|s| s.denied)
        .sum();
    assert!(denied > 0, "cost-to-serve pricing never engaged");
}

/// Acceptance (c): one grid cell, same seed, shards 1/2/4/8 — the
/// report is byte-identical. A 2-rack topology routes every shard
/// count (including 1) through the sharded engine, whose reports are
/// layout-independent by contract.
#[test]
fn grid_cells_byte_identical_at_shards_1_2_4_8() {
    let run = |shards: usize| {
        let mut cfg = GridConfig::smoke(7);
        cfg.duration_s = 30;
        cfg.shards = shards;
        let cell = run_cell_on(&cfg, AttackRow::Rotating, DefenseStack::Stacked, &|c| {
            c.servers = 16;
            c.suspect_pool_size = 2;
            c.topology = Some(TopologyConfig {
                racks: 2,
                ..TopologyConfig::default()
            });
        });
        assert!(cell.report.traffic.offered > 500, "cell must carry load");
        format!("{:?}", cell.report)
    };
    let base = run(1);
    for shards in [2usize, 4, 8] {
        assert_eq!(base, run(shards), "report drifted at {shards} shards");
    }
}

/// `run_grid` maps its cells over the host's cores; the result must be
/// what a plain loop of `run_cell` gives, cell by cell, in row-major
/// order — on a one-core host the map runs inline and this still holds.
#[test]
fn parallel_grid_equals_the_sequential_loop() {
    let mut cfg = GridConfig::smoke(7);
    cfg.duration_s = 30;
    let (rows, cols) = (&AttackRow::SMOKE, &DefenseStack::SMOKE);
    let parallel = run_grid(&cfg, rows, cols);
    let mut sequential = Vec::new();
    for &row in rows {
        for &col in cols {
            sequential.push(run_cell(&cfg, row, col));
        }
    }
    assert_eq!(parallel.len(), sequential.len());
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(p.vector, s.vector, "cell {i}");
        assert_eq!(p.defense, s.defense, "cell {i}");
        assert_eq!(p.regret_slots, s.regret_slots, "cell {i}");
        assert_eq!(
            format!("{:?}", p.report),
            format!("{:?}", s.report),
            "cell {i}"
        );
    }
}
