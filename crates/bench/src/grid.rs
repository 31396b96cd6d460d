//! The attacker × defense co-evolution grid.
//!
//! Sweeps composed [`AttackVectorSpec`] rows against defense-stack
//! columns over fixed seeds, one simulation per cell, and scores each
//! cell on power-budget integrity, drop accounting, and — for moving
//! attackers against the online profiler — a regret-style convergence
//! lag: how many control slots each attacker move stayed off the
//! suspect list.
//!
//! Every row derives its own named RNG stream from the master seed and
//! the vector's composed name, so adding or reordering rows never
//! perturbs another row's bytes, and the same cell is byte-identical at
//! any shard count (the engines already guarantee shard-invariance; the
//! grid guarantees the inputs).

use antidope::testutil::users;
use antidope::{
    run_experiment, AdmissionConfig, ClusterConfig, ExperimentConfig, SchemeKind, SimReport,
};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use profiler::ProfilerConfig;
use simcore::{SimDuration, SimTime};
use workloads::scenario::ScenarioBuilder;
use workloads::service::ServiceKind;
use workloads::vector::{AttackVectorSpec, Envelope, ResourceProfile, SourcePlan, TargetPlan};

use crate::scenarios::NORMAL_PEAK_RATE;

/// Attack start (seconds into the run) for every grid row.
pub const ATTACK_START_S: u64 = 5;

/// Grid-wide run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Simulated seconds per cell.
    pub duration_s: u64,
    /// Master seed; each row folds its vector name into it.
    pub seed: u64,
    /// Aggregate attack rate, requests/s.
    pub attack_rate: f64,
    /// Power provisioning level.
    pub budget: BudgetLevel,
    /// Dataplane shard count for every cell.
    pub shards: usize,
}

impl GridConfig {
    /// The CI smoke configuration: short cells at the paper's most
    /// oversubscribed budget, where an unmanaged flood must violate.
    pub fn smoke(seed: u64) -> Self {
        GridConfig {
            duration_s: 60,
            seed,
            attack_rate: 390.0,
            budget: BudgetLevel::Low,
            shards: 1,
        }
    }

    /// The full-fidelity configuration (paper windows).
    pub fn full(seed: u64) -> Self {
        GridConfig {
            duration_s: 120,
            ..GridConfig::smoke(seed)
        }
    }
}

/// One attacker archetype — a named point in the vector algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackRow {
    /// The legacy constant-rate botnet flood.
    Constant,
    /// ON/OFF bursting sized to slip a finite-ban firewall.
    Burst,
    /// Low-and-slow ramp: under every trigger early, 2× late.
    LowSlow,
    /// Memory/IO-bound resource shape DVFS cannot reclaim.
    Memory,
    /// URL-rotating flood racing the online profiler.
    Rotating,
}

impl AttackRow {
    /// The full grid's rows.
    pub const ALL: [AttackRow; 5] = [
        AttackRow::Constant,
        AttackRow::Burst,
        AttackRow::LowSlow,
        AttackRow::Memory,
        AttackRow::Rotating,
    ];

    /// The CI smoke rows (ISSUE acceptance: burst / memory / rotating).
    pub const SMOKE: [AttackRow; 3] = [AttackRow::Burst, AttackRow::Memory, AttackRow::Rotating];

    /// The composed vector spec for this row at `rate` req/s.
    pub fn spec(self, rate: f64) -> AttackVectorSpec {
        let base = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, rate)
            .sources(SourcePlan::Botnet { bots: 40 });
        match self {
            AttackRow::Constant => base,
            AttackRow::Burst => base
                .envelope(Envelope::OnOffBurst {
                    period: SimDuration::from_secs(40),
                    duty: 0.1,
                })
                .sources(SourcePlan::EvadingBotnet { threshold_rps: 150.0 }),
            AttackRow::LowSlow => base.envelope(Envelope::LowAndSlow),
            AttackRow::Memory => base.resources(ResourceProfile::MemoryBound),
            AttackRow::Rotating => base.target(TargetPlan::Rotating {
                url_base: 800,
                url_space: 6,
                period: SimDuration::from_secs(20),
            }),
        }
    }
}

/// One defense-stack column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseStack {
    /// No power management, no perimeter: the vulnerability baseline.
    Open,
    /// DVFS-only uniform capping, no perimeter.
    DvfsOnly,
    /// Perimeter firewall alone (finite 30 s bans), no power control.
    FirewallOnly,
    /// Everything on: Anti-DOPE + firewall + CAPoW cost-to-serve
    /// pricing + the online profiler (convergence tracking on).
    Stacked,
}

impl DefenseStack {
    /// The full grid's columns.
    pub const ALL: [DefenseStack; 4] = [
        DefenseStack::Open,
        DefenseStack::DvfsOnly,
        DefenseStack::FirewallOnly,
        DefenseStack::Stacked,
    ];

    /// The CI smoke columns (ISSUE acceptance: none / dvfs / stacked).
    pub const SMOKE: [DefenseStack; 3] = [
        DefenseStack::Open,
        DefenseStack::DvfsOnly,
        DefenseStack::Stacked,
    ];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            DefenseStack::Open => "open",
            DefenseStack::DvfsOnly => "dvfs-only",
            DefenseStack::FirewallOnly => "firewall-only",
            DefenseStack::Stacked => "stacked",
        }
    }

    /// Configure `cluster` for this stack and return the scheme to run.
    pub fn apply(self, cluster: &mut ClusterConfig) -> SchemeKind {
        match self {
            DefenseStack::Open => {
                cluster.firewall = false;
                SchemeKind::None
            }
            DefenseStack::DvfsOnly => {
                cluster.firewall = false;
                SchemeKind::Capping
            }
            DefenseStack::FirewallOnly => {
                cluster.admission = Some(AdmissionConfig {
                    firewall_ban_s: Some(30.0),
                    ..AdmissionConfig::default()
                });
                SchemeKind::None
            }
            DefenseStack::Stacked => {
                // Calibrated to the rack: normal traffic costs ~10
                // units/s (80 req/s × 0.084 Gcy × 0.98 × 1.2 surcharge),
                // a 390 req/s flood 40–95 units/s depending on resource
                // shape — the gate passes the former and starves the
                // latter. The burst window is kept shorter than one
                // control slot so the gate binds at flood onset, before
                // the power plane's first action. The library default
                // (1000/s) is a no-op at this scale.
                cluster.admission = Some(AdmissionConfig {
                    cost_to_serve: Some(netsim::CostToServeConfig {
                        budget_per_s: 30.0,
                        burst_s: 0.1,
                        mem_surcharge: 2.0,
                    }),
                    firewall_ban_s: Some(30.0),
                });
                cluster.profiler = Some(ProfilerConfig {
                    track_convergence: true,
                    ..ProfilerConfig::default()
                });
                SchemeKind::AntiDope
            }
        }
    }
}

/// One completed grid cell.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The attacker's composed vector name.
    pub vector: String,
    /// The defense column label.
    pub defense: &'static str,
    /// Mean convergence lag in control slots per attacker move (only
    /// for moving attackers under a profiler-bearing stack).
    pub regret_slots: Option<f64>,
    /// The full simulation report.
    pub report: SimReport,
}

impl GridCell {
    /// Did the cell breach the power budget at any point?
    pub fn violated(&self) -> bool {
        self.report.power.violations > 0
    }
}

/// Fold a vector's name into the master seed: the row's named RNG
/// stream (FNV-1a, stable across platforms and runs).
pub fn stream_seed(master: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    master ^ h
}

/// The scenario for one cell: the pinned standard normal population
/// plus the row's vector at index 1.
fn cell_builder(spec: &AttackVectorSpec) -> ScenarioBuilder {
    users(NORMAL_PEAK_RATE).with_vector(spec.clone(), ATTACK_START_S)
}

/// Run one `(row, column)` cell on the standard paper rack.
pub fn run_cell(cfg: &GridConfig, row: AttackRow, col: DefenseStack) -> GridCell {
    run_cell_on(cfg, row, col, &|_| {})
}

/// Run one cell with a caller hook over the cluster config, applied
/// before the defense stack — scaling studies and shard-identity tests
/// resize the rack (or attach a topology) without forking the harness.
pub fn run_cell_on(
    cfg: &GridConfig,
    row: AttackRow,
    col: DefenseStack,
    mutate: &dyn Fn(&mut ClusterConfig),
) -> GridCell {
    let spec = row.spec(cfg.attack_rate);
    let vector = spec.name();
    let seed = stream_seed(cfg.seed, &vector);
    let mut cluster = ClusterConfig::paper_rack(cfg.budget);
    cluster.shards = cfg.shards;
    mutate(&mut cluster);
    let scheme = col.apply(&mut cluster);
    let mut exp = ExperimentConfig::paper_window(cluster, scheme, seed);
    exp.duration = SimDuration::from_secs(cfg.duration_s);
    exp.label = format!("{vector} vs {}", col.name());
    let builder = cell_builder(&spec);
    let report = run_experiment(&exp, &builder);
    let regret_slots = regret(&builder, &exp, &report);
    GridCell {
        vector,
        defense: col.name(),
        regret_slots,
        report,
    }
}

/// Mean slots-to-reconvergence per attacker move: replay the move plan
/// of the cell's vector (a byte-identical twin of ingredient 1) against
/// the profiler's recorded suspect timeline. A move never re-detected
/// scores the remaining window — evasion is expensive, not free.
fn regret(builder: &ScenarioBuilder, exp: &ExperimentConfig, report: &SimReport) -> Option<f64> {
    let timeline = &report.profiler.as_ref()?.suspect_timeline;
    let horizon = SimTime::ZERO + exp.duration;
    let vector = builder.vector_twin(1, exp.seed, horizon)?;
    let plan = vector.planned_moves(horizon);
    if plan.len() < 2 {
        return None; // a fixed target has no moves to regret
    }
    let slot_s = exp.cluster.control_slot.as_secs_f64();
    let horizon_slot = (horizon.as_secs_f64() / slot_s).ceil();
    let mut total = 0.0;
    for &(at, url) in &plan {
        let move_slot = (at.as_secs_f64() / slot_s).ceil();
        let detected = timeline
            .iter()
            .find(|(tick, suspects)| *tick as f64 >= move_slot && suspects.contains(&url));
        total += match detected {
            Some((tick, _)) => *tick as f64 - move_slot,
            None => horizon_slot - move_slot,
        };
    }
    Some(total / plan.len() as f64)
}

/// Run a whole grid (row-major order).
pub fn run_grid(cfg: &GridConfig, rows: &[AttackRow], cols: &[DefenseStack]) -> Vec<GridCell> {
    let mut cells = Vec::with_capacity(rows.len() * cols.len());
    for &row in rows {
        for &col in cols {
            cells.push(run_cell(cfg, row, col));
        }
    }
    cells
}

/// Flatten completed cells into the harness CSV table.
pub fn cells_table(cells: &[GridCell]) -> Table {
    let mut t = Table::new(
        "scenario grid — attacker × defense",
        &[
            "vector",
            "defense",
            "violations",
            "violation_frac",
            "peak_w",
            "supply_w",
            "drop_rate",
            "firewall_blocked",
            "admission_denied",
            "regret_slots",
        ],
    );
    for c in cells {
        let denied = c
            .report
            .admission
            .as_ref()
            .map(|a| a.stages.iter().map(|s| s.denied).sum::<u64>())
            .unwrap_or(0);
        t.push_row(vec![
            c.vector.clone(),
            c.defense.to_string(),
            c.report.power.violations.to_string(),
            Table::fmt_f64(c.report.power.violation_fraction),
            Table::fmt_f64(c.report.power.peak_w),
            Table::fmt_f64(c.report.power.supply_w),
            Table::fmt_f64(c.report.traffic.drop_rate),
            c.report.traffic.firewall_blocked.to_string(),
            denied.to_string(),
            c.regret_slots.map(Table::fmt_f64).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// Render the matrix figure: one row per vector, one column per
/// defense, each cell `OK`/`VIOL` plus the regret where it applies.
pub fn matrix_markdown(cells: &[GridCell], cols: &[DefenseStack]) -> String {
    let mut out = String::from("| attack vector |");
    for c in cols {
        out.push_str(&format!(" {} |", c.name()));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in cols {
        out.push_str("---|");
    }
    out.push('\n');
    let mut row_names: Vec<&str> = Vec::new();
    for c in cells {
        if !row_names.contains(&c.vector.as_str()) {
            row_names.push(&c.vector);
        }
    }
    for name in row_names {
        out.push_str(&format!("| `{name}` |"));
        for col in cols {
            let cell = cells
                .iter()
                .find(|c| c.vector == name && c.defense == col.name())
                .expect("grid is rectangular");
            let verdict = if cell.violated() { "VIOL" } else { "ok" };
            match cell.regret_slots {
                Some(r) => out.push_str(&format!(" {verdict} (regret {r:.1}) |")),
                None => out.push_str(&format!(" {verdict} |")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_stable_and_distinct() {
        let a = stream_seed(7, "burst-evader-http-load@Colla-Filt");
        let b = stream_seed(7, "mem-http-load@Colla-Filt");
        assert_eq!(a, stream_seed(7, "burst-evader-http-load@Colla-Filt"));
        assert_ne!(a, b);
    }

    #[test]
    fn row_specs_compose_the_advertised_axes() {
        let burst = AttackRow::Burst.spec(390.0);
        assert!(matches!(burst.envelope, Envelope::OnOffBurst { .. }));
        assert!(matches!(burst.plan, SourcePlan::EvadingBotnet { .. }));
        let mem = AttackRow::Memory.spec(390.0);
        assert!(matches!(mem.profile, ResourceProfile::MemoryBound));
        let rot = AttackRow::Rotating.spec(390.0);
        assert!(matches!(rot.target, TargetPlan::Rotating { .. }));
    }

    #[test]
    fn defense_columns_configure_distinct_stacks() {
        let mut open = ClusterConfig::paper_rack(BudgetLevel::Low);
        assert_eq!(DefenseStack::Open.apply(&mut open), SchemeKind::None);
        assert!(!open.firewall && open.admission.is_none());

        let mut stacked = ClusterConfig::paper_rack(BudgetLevel::Low);
        assert_eq!(DefenseStack::Stacked.apply(&mut stacked), SchemeKind::AntiDope);
        assert!(stacked.firewall);
        let adm = stacked.admission.as_ref().expect("stacked runs the pipeline");
        assert!(adm.cost_to_serve.is_some());
        assert_eq!(adm.firewall_ban_s, Some(30.0));
        assert!(stacked.profiler.as_ref().expect("profiler on").track_convergence);
        stacked.validate().expect("stacked config validates");
    }

    #[test]
    fn one_cell_runs_and_tabulates() {
        let cfg = GridConfig {
            duration_s: 10,
            ..GridConfig::smoke(11)
        };
        let cell = run_cell(&cfg, AttackRow::Constant, DefenseStack::Open);
        assert!(cell.report.power.peak_w.is_finite());
        assert!(cell.report.traffic.offered > 0);
        let t = cells_table(std::slice::from_ref(&cell));
        assert_eq!(t.len(), 1);
        let md = matrix_markdown(std::slice::from_ref(&cell), &[DefenseStack::Open]);
        assert!(md.contains("http-load@Colla-Filt"));
    }
}
