//! Ablation studies beyond the paper — the design-choice sweeps
//! DESIGN.md §8 calls out. Each isolates one knob of Anti-DOPE or its
//! operating environment.

use crate::scenarios::{self, BOTS, NORMAL_PEAK_RATE};
use crate::RunMode;
use antidope::testutil::{population, users};
use antidope::scheme::{AntiDopeScheme, PowerScheme};
use profiler::ProfilerConfig;
use antidope::{
    run_experiment, ClusterConfig, ExperimentConfig, SchemeKind, ShardedClusterSim, SimReport,
};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use simcore::faults::FaultConfig;
use simcore::{par, SimDuration, SimTime};
use workloads::attacker::AttackTool;
use workloads::dope::DopeConfig;
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::service::ServiceKind;
use workloads::vector::{AttackVectorSpec, SourcePlan, TargetPlan};

fn report_row(t: &mut Table, label: &str, r: &SimReport) {
    t.push_row(vec![
        label.to_string(),
        Table::fmt_f64(r.normal_latency.mean_ms),
        Table::fmt_f64(r.normal_latency.p90_ms),
        format!("{:.1}%", r.availability() * 100.0),
        format!("{:.1}%", r.normal_sla.drop_rate() * 100.0),
        Table::fmt_f64(r.power.peak_w),
        r.power.violations.to_string(),
    ]);
}

fn result_header(title: &str) -> Table {
    Table::new(
        title,
        &[
            "variant",
            "mean_ms",
            "p90_ms",
            "availability",
            "legit_drop",
            "peak_W",
            "violations",
        ],
    )
}

/// `abl-framework`: which half of Anti-DOPE carries the benefit?
pub fn framework(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let kinds = [
        SchemeKind::Capping,
        SchemeKind::PdfOnly,
        SchemeKind::RpmOnly,
        SchemeKind::AntiDope,
    ];
    let reports: Vec<(SchemeKind, SimReport)> = par::map(kinds.iter().collect(), |&k| {
        let exp = scenarios::experiment(k, BudgetLevel::Medium, secs, mode.seed, true);
        (k, run_experiment(&exp, &population(ServiceKind::CollaFilt, 390.0)))
    });
    let mut t = result_header(
        "Ablation: PDF-only vs RPM-only vs full Anti-DOPE (Medium-PB, 390 req/s Colla-Filt)",
    );
    for (k, r) in &reports {
        report_row(&mut t, k.name(), r);
    }
    vec![t]
}

/// `abl-threshold`: suspicion-threshold sweep — classification scope vs
/// collateral damage.
pub fn threshold(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let thresholds = [0.30, 0.50, 0.70, 0.80, 0.95];
    let reports: Vec<(f64, SimReport, u64)> = par::map(thresholds.iter().collect(), |&th| {
        let exp = scenarios::experiment(
            SchemeKind::AntiDope,
            BudgetLevel::Medium,
            secs,
            mode.seed,
            true,
        );
        let scheme = Box::new(AntiDopeScheme::with_threshold(&exp.cluster, th));
        let sources = population(ServiceKind::CollaFilt, 390.0)
            .build(exp.seed, SimTime::ZERO + exp.duration);
        let r = ShardedClusterSim::run_with_scheme(&exp, scheme, sources);
        let to_pool = r.traffic.to_suspect_pool;
        (th, r, to_pool)
    });
    let mut t = Table::new(
        "Ablation: suspect-threshold sweep (Anti-DOPE, Medium-PB)",
        &[
            "threshold",
            "to_suspect_pool",
            "mean_ms",
            "p90_ms",
            "availability",
            "violations",
        ],
    );
    for (th, r, pool) in &reports {
        t.push_row(vec![
            format!("{th:.2}"),
            pool.to_string(),
            Table::fmt_f64(r.normal_latency.mean_ms),
            Table::fmt_f64(r.normal_latency.p90_ms),
            format!("{:.1}%", r.availability() * 100.0),
            r.power.violations.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-pool`: suspect-pool size on the 16-node scaled cluster —
/// isolation capacity vs innocent capacity.
pub fn pool(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let sizes = [1usize, 2, 4, 6, 8];
    let reports: Vec<(usize, SimReport)> = par::map(sizes.iter().collect(), |&size| {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
        cluster.suspect_pool_size = size;
        let mut exp =
            ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, mode.seed);
        exp.duration = SimDuration::from_secs(secs);
        // Attack scaled to the 16-node cluster (4× the rack attack).
        (
            size,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 1560.0)),
        )
    });
    let mut t = result_header(
        "Ablation: suspect-pool size on a 16-node cluster (Anti-DOPE, Medium-PB, 1560 req/s)",
    );
    for (size, r) in &reports {
        report_row(&mut t, &format!("{size} of 16 nodes"), r);
    }
    vec![t]
}

/// `abl-slot`: control-slot length — responsiveness vs overhead.
pub fn slot(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let slots_ms = [200u64, 500, 1000, 2000, 5000];
    let cells: Vec<(SchemeKind, u64)> = [SchemeKind::Capping, SchemeKind::AntiDope]
        .iter()
        .flat_map(|&s| slots_ms.iter().map(move |&m| (s, m)))
        .collect();
    let reports = par::map(cells.iter().collect(), |&(scheme, ms)| {
        let mut exp =
            scenarios::experiment(scheme, BudgetLevel::Medium, secs, mode.seed, true);
        exp.cluster.control_slot = SimDuration::from_millis(ms);
        (
            scheme,
            ms,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 390.0)),
        )
    });
    let mut t = Table::new(
        "Ablation: control-slot length (Medium-PB, 390 req/s)",
        &[
            "scheme",
            "slot_ms",
            "p90_ms",
            "violations",
            "violation_fraction",
            "dvfs_transitions",
        ],
    );
    for (scheme, ms, r) in &reports {
        t.push_row(vec![
            scheme.name().to_string(),
            ms.to_string(),
            Table::fmt_f64(r.normal_latency.p90_ms),
            r.power.violations.to_string(),
            Table::fmt_f64(r.power.violation_fraction),
            r.vf.transitions.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-firewall`: perimeter threshold vs the width of the DOPE region
/// (maximum undetected aggregate rate for a 40-bot attacker).
pub fn firewall(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs();
    let thresholds = [50.0, 100.0, 150.0, 300.0, 600.0];
    let rates = [200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];
    let cells: Vec<(f64, f64)> = thresholds
        .iter()
        .flat_map(|&t| rates.iter().map(move |&r| (t, r)))
        .collect();
    let reports: Vec<(f64, f64, SimReport)> = par::map(cells.iter().collect(), |&(th, rate)| {
        let mut exp =
            scenarios::experiment(SchemeKind::None, BudgetLevel::Medium, secs, mode.seed, true);
        exp.cluster.firewall_threshold_rps = th;
        (
            th,
            rate,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, rate)),
        )
    });
    let mut t = Table::new(
        "Ablation: firewall threshold vs DOPE region (40 bots, unmanaged, Medium-PB)",
        &["threshold_rps", "max_undetected_rps", "min_violating_rps", "region_width"],
    );
    for &th in &thresholds {
        let max_undetected = reports
            .iter()
            .filter(|(t2, _, r)| *t2 == th && r.traffic.firewall_blocked == 0)
            .map(|(_, rate, _)| *rate)
            .fold(0.0, f64::max);
        let min_violating = reports
            .iter()
            .filter(|(t2, _, r)| *t2 == th && r.power.violation_fraction > 0.05)
            .map(|(_, rate, _)| *rate)
            .fold(f64::INFINITY, f64::min);
        let width = if max_undetected >= min_violating {
            format!("{:.0}–{:.0} rps", min_violating, max_undetected)
        } else {
            "closed".to_string()
        };
        t.push_row(vec![
            format!("{th:.0}"),
            format!("{max_undetected:.0}"),
            if min_violating.is_finite() {
                format!("{min_violating:.0}")
            } else {
                "-".into()
            },
            width,
        ]);
    }
    vec![t]
}

/// `abl-scale`: the headline comparison on a 16-node cluster.
pub fn scale(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    // 4× the rack's normal population and attack.
    let scaled = ScenarioBuilder::new()
        .with_normal_users(320.0, 240)
        .pinned(1_000, 0, SeedPin::Raw)
        .with_attack(AttackTool::HttpLoad { rate: 1560.0 }, ServiceKind::CollaFilt, BOTS, 5)
        .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED));
    let reports = par::map(SchemeKind::EVALUATED.iter().collect(), |&k| {
        let mut exp = ExperimentConfig::paper_window(
            ClusterConfig::scaled(BudgetLevel::Medium),
            k,
            mode.seed,
        );
        exp.duration = SimDuration::from_secs(secs);
        (k, run_experiment(&exp, &scaled))
    });
    let mut t = result_header(
        "Ablation: 16-node cluster, Medium-PB, 1560 req/s Colla-Filt DOPE",
    );
    for (k, r) in &reports {
        report_row(&mut t, k.name(), r);
    }
    vec![t]
}

/// `abl-tools`: attack-tool comparison — open-loop http-load vs
/// closed-loop ApacheBench vs the adaptive DOPE attacker.
pub fn tools(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let mk_sources = |tool: &str| match tool {
        "http-load" => population(ServiceKind::CollaFilt, 390.0),
        // Closed loop: ~14 outstanding ≈ 390 req/s at 35 ms each when
        // the victim is healthy; self-throttles when not.
        "apache-bench" => users(NORMAL_PEAK_RATE)
            .with_attack(
                AttackTool::ApacheBench { concurrency: 14 },
                ServiceKind::CollaFilt,
                BOTS,
                5,
            )
            .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED)),
        "dope-adaptive" => users(NORMAL_PEAK_RATE)
            .with_dope(
                DopeConfig {
                    victim: ServiceKind::CollaFilt,
                    initial_rate: 50.0,
                    bots: BOTS,
                    max_rate: 800.0,
                    ..DopeConfig::default()
                },
                5,
            )
            .pinned(50_000, 1 << 40, SeedPin::Xor(0xD09E)),
        _ => unreachable!(),
    };
    let tools = ["http-load", "apache-bench", "dope-adaptive"];
    let reports: Vec<(&str, SimReport)> = par::map(tools.iter().collect(), |&tool| {
        let exp = scenarios::experiment(
            SchemeKind::Capping,
            BudgetLevel::Medium,
            secs,
            mode.seed,
            true,
        );
        (
            tool,
            run_experiment(&exp, &mk_sources(tool)),
        )
    });
    let mut t = Table::new(
        "Ablation: attack tools (Capping, Medium-PB)",
        &[
            "tool",
            "attack_served",
            "normal_p90_ms",
            "peak_W",
            "violations",
            "firewall_blocked",
        ],
    );
    for (tool, r) in &reports {
        t.push_row(vec![
            tool.to_string(),
            (r.attack_sla.on_time() + r.attack_sla.late()).to_string(),
            Table::fmt_f64(r.normal_latency.p90_ms),
            Table::fmt_f64(r.power.peak_w),
            r.power.violations.to_string(),
            r.traffic.firewall_blocked.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-thermal`: the cooling layer — DOPE heats the room even when
/// power never violates. At Normal-PB no power scheme intervenes, so
/// thermal protection is the only backstop: the attack drives PROCHOT
/// cycling on every node it reaches; Anti-DOPE confines the heat to the
/// suspect pool.
pub fn thermal(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(240); // a few thermal time constants
    let kinds = [SchemeKind::None, SchemeKind::Capping, SchemeKind::AntiDope];
    let reports: Vec<(SchemeKind, SimReport)> = par::map(kinds.iter().collect(), |&k| {
        let mut exp = scenarios::experiment(k, BudgetLevel::Normal, secs, mode.seed, true);
        exp.cluster.thermal = true;
        (
            k,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 600.0)),
        )
    });
    let mut t = Table::new(
        "Ablation: thermal protection under DOPE (Normal-PB — power never violates)",
        &[
            "scheme",
            "peak_temp_C",
            "prochot_events",
            "tripped_nodes",
            "normal_p90_ms",
        ],
    );
    for (k, r) in &reports {
        t.push_row(vec![
            k.name().to_string(),
            Table::fmt_f64(r.thermal.peak_temp_c),
            r.thermal.prochot_events.to_string(),
            r.thermal.tripped_nodes.to_string(),
            Table::fmt_f64(r.normal_latency.p90_ms),
        ]);
    }
    vec![t]
}

/// `abl-seeds`: seed-robustness of the headline conclusion — the Fig
/// 16/17 orderings must hold for any seed, not one lucky draw.
pub fn seeds(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let seeds = [2019u64, 7, 42, 1337, 90210];
    let rows: Vec<(u64, f64, f64, bool)> = par::map(seeds.iter().collect(), |&seed| {
        let reports = super::fig16_17_19::eval_matrix(secs, seed);
        // scheme-major: Capping=0, Shaving=1, Token=2, Anti-DOPE=3;
        // budgets Normal..Low = 0..3.
        let get = |s: usize, b: usize| &reports[s * 4 + b];
        let mut mean_impr = 0.0;
        let mut p90_impr = 0.0;
        let mut ordering_holds = true;
        for bi in 1..4 {
            let base_mean = (get(0, bi).normal_latency.mean_ms
                + get(1, bi).normal_latency.mean_ms)
                / 2.0;
            let base_p90 =
                (get(0, bi).normal_latency.p90_ms + get(1, bi).normal_latency.p90_ms) / 2.0;
            mean_impr += 1.0 - get(3, bi).normal_latency.mean_ms / base_mean;
            p90_impr += 1.0 - get(3, bi).normal_latency.p90_ms / base_p90;
            // The paper's qualitative ordering per budget: Anti-DOPE
            // beats Capping on p90.
            if get(3, bi).normal_latency.p90_ms >= get(0, bi).normal_latency.p90_ms {
                ordering_holds = false;
            }
        }
        (seed, mean_impr / 3.0, p90_impr / 3.0, ordering_holds)
    });
    let mut t = Table::new(
        "Ablation: headline robustness across seeds (Anti-DOPE vs Capping/Shaving mean)",
        &["seed", "mean_improvement", "p90_improvement", "p90_ordering_holds"],
    );
    for (seed, m, p, ok) in &rows {
        t.push_row(vec![
            seed.to_string(),
            format!("{:.1}%", m * 100.0),
            format!("{:.1}%", p * 100.0),
            ok.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-faults`: graceful degradation under telemetry decay — sweep the
/// per-sample sensor-dropout probability and check whether the hardened
/// control plane preserves the paper's headline ordering (Anti-DOPE's
/// p90 below Capping's) as the controller goes progressively blind.
pub fn faults(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let dropouts = [0.0, 0.05, 0.10, 0.20];
    let cells: Vec<(SchemeKind, f64)> = [SchemeKind::Capping, SchemeKind::AntiDope]
        .iter()
        .flat_map(|&s| dropouts.iter().map(move |&p| (s, p)))
        .collect();
    let reports = par::map(cells.iter().collect(), |&(scheme, p)| {
        let mut exp =
            scenarios::experiment(scheme, BudgetLevel::Low, secs, mode.seed, true);
        if p > 0.0 {
            exp.cluster.faults = Some(FaultConfig {
                sensor_dropout_p: p,
                ..FaultConfig::default()
            });
        }
        (
            scheme,
            p,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 390.0)),
        )
    });
    let mut t = Table::new(
        "Ablation: sensor dropout sweep (Low-PB, 390 req/s Colla-Filt)",
        &[
            "scheme",
            "dropout",
            "p90_ms",
            "availability",
            "peak_W",
            "violations",
            "degraded_slots",
            "actuator_giveups",
        ],
    );
    for (k, p, r) in &reports {
        let f = r.faults.clone().unwrap_or_default();
        t.push_row(vec![
            k.name().to_string(),
            format!("{:.0}%", p * 100.0),
            Table::fmt_f64(r.normal_latency.p90_ms),
            format!("{:.1}%", r.availability() * 100.0),
            Table::fmt_f64(r.power.peak_w),
            r.power.violations.to_string(),
            f.degraded_slots.to_string(),
            f.actuator_giveups.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-online-profiler`: suspect-list provenance under a URL-rotating
/// attack at Low-PB. The rotating attacker floods Colla-Filt-heavy work
/// behind URLs the offline profile has never seen, hopping every 20 s:
///
/// * **oracle** — Anti-DOPE handed the true profile of *every* rotation
///   URL up front (impossible knowledge; upper bound).
/// * **online** — Anti-DOPE with the streaming power-attribution
///   profiler, learning the map at runtime from per-node power and
///   in-flight mixes.
/// * **stale-offline** — Anti-DOPE with only the offline service
///   profiles: every rotated URL defaults to Innocent, so PDF isolates
///   nothing and the defense degrades toward Capping-like behaviour.
pub fn online_profiler(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(240);
    let arms = ["oracle", "online", "stale-offline"];
    let reports: Vec<(&str, SimReport)> = par::map(arms.iter().collect(), |&arm| {
        let mut exp =
            scenarios::experiment(SchemeKind::AntiDope, BudgetLevel::Low, secs, mode.seed, true);
        if arm == "online" {
            exp.cluster.profiler = Some(ProfilerConfig::default());
        }
        let horizon = SimTime::ZERO + exp.duration;
        let scenario = scenarios::rotating(390.0);
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
        (arm, ShardedClusterSim::run_with_scheme(&exp, scheme, sources))
    });
    let mut t = Table::new(
        "Ablation: suspect-list provenance under a URL-rotating attack (Anti-DOPE, Low-PB, 390 req/s)",
        &[
            "variant",
            "p99_ms",
            "mean_ms",
            "availability",
            "violation_fraction",
            "to_suspect_pool",
            "profiler",
        ],
    );
    for (arm, r) in &reports {
        let prof = r
            .profiler
            .as_ref()
            .map(|p| {
                format!(
                    "tracked={} suspects={} drifts={} reclass={}",
                    p.tracked_urls, p.suspect_urls, p.drift_events, p.reclassifications
                )
            })
            .unwrap_or_else(|| "-".into());
        t.push_row(vec![
            arm.to_string(),
            Table::fmt_f64(r.normal_latency.p99_ms),
            Table::fmt_f64(r.normal_latency.mean_ms),
            format!("{:.1}%", r.availability() * 100.0),
            Table::fmt_f64(r.power.violation_fraction),
            r.traffic.to_suspect_pool.to_string(),
            prof,
        ]);
    }
    vec![t]
}

/// `abl-resilience`: end-to-end request resilience when a rack breaker
/// trip takes a quarter of the cluster down mid-flood. On the scaled
/// 16-node cluster, at a quarter of the horizon nodes 4..8 crash and
/// stay down (`reboot_after: ZERO`). With a
/// retry policy configured the NLB is *not* oracle-notified of the
/// deaths — failure is discovered end-to-end, through timeouts:
///
/// * **no-retry** — `max_attempts: 1`: every request routed into the
///   dead rack is lost for good; sustained goodput loss for the rest of
///   the run.
/// * **retry** — bounded retries with exponential backoff re-enter the
///   balancer and eventually land on a surviving node, but each rescue
///   first burns a timeout against the black-holed rack.
/// * **retry+breaker** — per-node circuit breakers trip after a streak
///   of failures and re-route dispatches to surviving nodes up front,
///   restoring ≥ 90% goodput.
pub fn resilience(mode: RunMode) -> Vec<Table> {
    use netsim::RetryConfig;

    let secs = mode.cell_secs().max(120);
    let trip_at = secs / 4;
    let no_breaker = SimDuration::ZERO;
    let arms: [(&str, RetryConfig); 3] = [
        (
            "no-retry",
            RetryConfig {
                max_attempts: 1,
                breaker_cooldown: no_breaker,
                ..RetryConfig::default()
            },
        ),
        (
            "retry",
            RetryConfig {
                max_attempts: 4,
                breaker_cooldown: no_breaker,
                ..RetryConfig::default()
            },
        ),
        (
            "retry+breaker",
            RetryConfig {
                max_attempts: 4,
                ..RetryConfig::default()
            },
        ),
    ];
    let reports: Vec<(&str, SimReport)> = par::map(arms.iter().collect(), |(arm, retry)| {
        let mut exp = ExperimentConfig::paper_window(
            ClusterConfig::scaled(BudgetLevel::Medium),
            SchemeKind::AntiDope,
            mode.seed,
        );
        exp.duration = SimDuration::from_secs(secs);
        exp.cluster.shards = 4;
        // Rack loss: nodes 4..8 of 16 crash for good. The report is
        // the same at any shard count.
        exp.cluster.faults = Some(FaultConfig {
            crashes: (4..8)
                .map(|node| simcore::faults::CrashEvent {
                    node,
                    at: SimTime::from_secs(trip_at),
                })
                .collect(),
            reboot_after: SimDuration::ZERO,
            ..FaultConfig::default()
        });
        exp.cluster.retry = Some(retry.clone());
        (
            *arm,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 390.0)),
        )
    });
    let mut t = Table::new(
        "Ablation: request resilience after a rack loss (16 nodes, nodes 4..8 crash for good, Medium-PB, 390 req/s Colla-Filt)",
        &[
            "variant",
            "goodput",
            "availability",
            "p90_ms",
            "attempts",
            "recovered",
            "exhausted",
            "breaker_trips",
            "rerouted",
        ],
    );
    for (arm, r) in &reports {
        let retry = r.retry.clone().unwrap_or_default();
        t.push_row(vec![
            arm.to_string(),
            format!("{:.1}%", r.normal_sla.completion_rate() * 100.0),
            format!("{:.1}%", r.availability() * 100.0),
            Table::fmt_f64(r.normal_latency.p90_ms),
            retry.attempts.to_string(),
            retry.recovered.to_string(),
            retry.exhausted.to_string(),
            retry.breaker_trips.to_string(),
            retry.rerouted.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-breaker`: the Fig-1 motivation end-to-end — with a real breaker,
/// unmanaged DOPE becomes an unplanned outage; Anti-DOPE prevents it.
pub fn breaker(mode: RunMode) -> Vec<Table> {
    let secs = mode.cell_secs().max(120);
    let kinds = [SchemeKind::None, SchemeKind::Capping, SchemeKind::AntiDope];
    let reports: Vec<(SchemeKind, SimReport)> = par::map(kinds.iter().collect(), |&k| {
        let mut exp =
            scenarios::experiment(k, BudgetLevel::Medium, secs, mode.seed, true);
        exp.cluster.breaker = true;
        exp.cluster.breaker_rating_factor = 1.05;
        exp.cluster.breaker_trip_delay = SimDuration::from_secs(30);
        (
            k,
            run_experiment(&exp, &population(ServiceKind::CollaFilt, 600.0)),
        )
    });
    let mut t = Table::new(
        "Ablation: circuit breaker armed (Medium-PB, 600 req/s DOPE, trip delay 30 s)",
        &["scheme", "outage_at_s", "availability", "peak_W", "violations"],
    );
    for (k, r) in &reports {
        t.push_row(vec![
            k.name().to_string(),
            r.power
                .outage_at_s
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "survived".into()),
            format!("{:.1}%", r.availability() * 100.0),
            Table::fmt_f64(r.power.peak_w),
            r.power.violations.to_string(),
        ]);
    }
    vec![t]
}

/// `abl-hierarchy`: what does the power *tree* buy over one facility
/// meter? A rack-concentrated flood against a 16-node / 4-rack cluster:
/// flat telemetry never sees it, the observe-only hierarchy localizes
/// the breach but lets the rack breaker trip, and the per-rack guard
/// defuses it in place.
pub fn hierarchy(mode: RunMode) -> Vec<Table> {
    const RACKS: usize = 4;
    const PDUS: usize = 2;
    let secs = mode.cell_secs().max(120);
    let topology = |defend: bool| {
        let mut t = antidope::TopologyConfig::with_racks(RACKS, PDUS);
        t.rack_oversub = 1.0;
        t.pdu_oversub = 1.0;
        t.row_oversub = 1.0;
        t.defend = defend;
        Some(t)
    };
    // (label, topology, attack rate)
    let arms: [(&str, Option<antidope::TopologyConfig>, f64); 4] = [
        ("no attack", topology(false), 0.0),
        ("flat (facility only)", None, 420.0),
        ("hier observe-only", topology(false), 420.0),
        ("hier + rack guard", topology(true), 420.0),
    ];
    let reports: Vec<(&str, SimReport)> = par::map(arms.iter().collect(), |(arm, topo, rate)| {
        let mut cluster = ClusterConfig::scaled(BudgetLevel::Low);
        cluster.topology = *topo;
        let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::None, mode.seed);
        exp.duration = SimDuration::from_secs(secs);
        let mut scenario = users(NORMAL_PEAK_RATE);
        if *rate > 0.0 {
            let flood = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, *rate)
                .sources(SourcePlan::Botnet { bots: BOTS })
                // Never re-aims inside the window.
                .target(TargetPlan::Concentrating {
                    racks: RACKS,
                    url_base: 900,
                    period: exp.duration,
                });
            scenario = scenario
                .with_vector(flood, 5)
                .pinned(50_000, 1 << 40, SeedPin::Xor(0x5EED));
        }
        (*arm, run_experiment(&exp, &scenario))
    });
    let mut t = Table::new(
        "Ablation: hierarchical power topology vs a rack-concentrated flood \
         (16 nodes / 4 racks / 2 PDUs, Low-PB, oversub 1.0, 420 req/s Colla-Filt on one rack)",
        &[
            "variant",
            "goodput",
            "facility_peak_W",
            "facility_viol",
            "rack_breach",
            "rack_trip_at_s",
            "hottest_rack",
            "guard_slots",
        ],
    );
    for (arm, r) in &reports {
        let (breach, trip, hottest, guard) = match &r.topology {
            Some(tr) => (
                tr.rack_breach_slots.iter().sum::<u64>().to_string(),
                tr.rack_trip_at_s
                    .iter()
                    .flatten()
                    .map(|at| format!("{at:.0}"))
                    .next()
                    .unwrap_or_else(|| "none".into()),
                tr.hottest_rack.to_string(),
                tr.guard_slots.to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        t.push_row(vec![
            arm.to_string(),
            format!("{:.1}%", r.normal_sla.completion_rate() * 100.0),
            Table::fmt_f64(r.power.peak_w),
            r.power.violations.to_string(),
            breach,
            trip,
            hottest,
            guard,
        ]);
    }
    vec![t]
}
