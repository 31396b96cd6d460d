//! Cluster-scaling macro-benchmark: throughput of the cluster engine at
//! increasing shard counts on a large cluster.
//!
//! ```text
//! cluster_scaling [--quick] [--out FILE]
//!
//!   --quick     10 s horizon instead of 60 s (CI smoke)
//!   --out FILE  where to write the JSON record
//!               [default: BENCH_cluster.json]
//! ```
//!
//! The scenario is a 1000-node cluster under a 100 000-user population
//! plus the standard Colla-Filt flood, run at shard counts 1, 2, 4 and
//! 8 in two layouts: flat (no power topology) and multi-rack (25 racks
//! / 5 PDUs with per-level budgets, rack breakers and the rack guard).
//! Every speedup is relative to the flat 1-shard row, so it measures
//! shard parallelism alone; the multi-rack rows add the hierarchical
//! allocator's per-slot cost. The headline metric is simulated requests
//! per second of wall time.

use antidope::config::{ClusterConfig, ExperimentConfig, SchemeKind};
use antidope::results::SimReport;
use antidope::run_experiment;
use powercap::BudgetLevel;
use simcore::SimDuration;
use std::process::ExitCode;
use std::time::Instant;
use workloads::attacker::AttackTool;
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::service::ServiceKind;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// (racks, pdus) layouts to sweep: flat, then a 25-rack / 5-PDU tree.
const LAYOUTS: [(usize, usize); 2] = [(1, 1), (25, 5)];

/// The 1000-node scaling cluster.
fn big_cluster(shards: usize, racks: usize, pdus: usize) -> ClusterConfig {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
    cluster.servers = 1000;
    cluster.suspect_pool_size = 50;
    cluster.shards = shards;
    if racks > 1 {
        cluster.topology = Some(antidope::TopologyConfig::with_racks(racks, pdus));
    }
    cluster
}

/// 100k-user population plus the standard flood.
fn sources() -> ScenarioBuilder {
    ScenarioBuilder::new()
        // 2,000 req/s cluster-wide peak over 100k distinct clients.
        .with_normal_users(2_000.0, 100_000)
        .pinned(1_000, 0, SeedPin::Raw)
        // 200 bots: stealthy per-source rates.
        .with_attack(AttackTool::HttpLoad { rate: 1_000.0 }, ServiceKind::CollaFilt, 200, 2)
        .pinned(500_000, 1 << 40, SeedPin::Xor(0x5EED))
}

struct Row {
    racks: usize,
    shards: usize,
    wall_s: f64,
    offered: u64,
    events: u64,
    req_per_s: f64,
    speedup: f64,
}

fn run_once(shards: usize, racks: usize, pdus: usize, secs: u64, seed: u64) -> (f64, SimReport) {
    let mut exp = ExperimentConfig::paper_window(
        big_cluster(shards, racks, pdus),
        SchemeKind::AntiDope,
        seed,
    );
    exp.duration = SimDuration::from_secs(secs);
    exp.label = format!("cluster-scaling-{racks}rack-{shards}shard");
    let t0 = Instant::now();
    let report = run_experiment(&exp, &sources());
    (t0.elapsed().as_secs_f64(), report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = String::from("BENCH_cluster.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                };
                out = v.clone();
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let secs = if quick { 10 } else { 60 };
    let seed = 2019u64;
    println!(
        "cluster_scaling: 1000 nodes, 100k users + flood, {secs} s horizon, \
         shards {SHARD_COUNTS:?}, layouts {LAYOUTS:?} (racks, pdus)\n"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut base_rps = 0.0;
    for &(racks, pdus) in &LAYOUTS {
        for &shards in &SHARD_COUNTS {
            let (wall_s, report) = run_once(shards, racks, pdus, secs, seed);
            let req_per_s = report.traffic.offered as f64 / wall_s.max(1e-9);
            if racks == 1 && shards == 1 {
                base_rps = req_per_s;
            }
            let speedup = req_per_s / base_rps.max(1e-9);
            println!(
                "  racks={racks:<3} shards={shards:<2} wall {wall_s:>7.2} s  offered {:>8}  events {:>9}  {:>10.0} req/s  ({speedup:.2}x)",
                report.traffic.offered, report.events, req_per_s
            );
            rows.push(Row {
                racks,
                shards,
                wall_s,
                offered: report.traffic.offered,
                events: report.events,
                req_per_s,
                speedup,
            });
        }
    }

    let results: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"racks\": {},\n      \"shards\": {},\n      \"wall_s\": {:.3},\n      \"offered_requests\": {},\n      \"events\": {},\n      \"simulated_requests_per_sec\": {:.0},\n      \"speedup_vs_flat_1_shard\": {:.2}\n    }}",
                r.racks, r.shards, r.wall_s, r.offered, r.events, r.req_per_s, r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster_scaling\",\n  \"description\": \"End-to-end simulated-requests/sec on a 1000-node, 100k-user, flood-attacked cluster at increasing shard counts, in a flat layout and a 25-rack / 5-PDU hierarchical power topology. Every row runs the one cluster engine (O(1) incremental power sums, slot-batched control, per-shard event loops that a multi-core thread pool advances in parallel); speedups are relative to racks=1 shards=1. Multi-rack rows add the per-slot hierarchical budget allocator, per-rack breach/breaker accounting, and rack-affine load balancing.\",\n  \"scenario\": \"1000 x 100 W nodes, Medium-PB, Anti-DOPE scheme, 2000 req/s normal peak over 100k clients + 1000 req/s Colla-Filt flood over 200 bots, {secs} s horizon, seed {seed}\",\n  \"harness\": \"cargo run --release -p dope-bench --bin cluster_scaling{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        if quick { " -- --quick" } else { "" },
        results.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");
    ExitCode::SUCCESS
}
