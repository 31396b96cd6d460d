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
//!
//! [`run_grid`] runs its cells in parallel through [`simcore::par::map`]
//! and returns them in row-major order, byte-identical to running them
//! one after another: a cell is a pure function of the config and its
//! `(row, column)`. Inside a parallel chunk `par::helpers` grants no
//! thread, so a cell with `shards > 1` advances all its shards inline
//! on the thread that runs it, and a sweep on N cores uses N threads.

use antidope::testutil::users;
use antidope::{
    run_experiment, AdmissionConfig, ClusterConfig, ConfigError, ExperimentConfig, SchemeKind,
    SimReport,
};
use dcmetrics::export::Table;
use powercap::BudgetLevel;
use profiler::ProfilerConfig;
use simcore::{par, SimDuration, SimTime};
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

    /// Check that the cells of `rows` can run and be scored: the paper
    /// rack accepts `shards`, the window outlasts every row's scoring
    /// instant — the attack start, and for a moving target its first
    /// re-aim — and its horizon fits the simulator's clock. [`run_grid`] does not call this — a benchmark may
    /// run windows too short to score — so a front end calls it before
    /// the first cell runs.
    pub fn check(&self, rows: &[AttackRow]) -> Result<(), GridConfigError> {
        let mut rack = ClusterConfig::paper_rack(self.budget);
        rack.shards = self.shards;
        rack.validate().map_err(GridConfigError::Cluster)?;
        let last = rows
            .iter()
            .map(|row| row.scored_after(self.attack_rate))
            .fold(SimTime::from_secs(ATTACK_START_S), SimTime::max);
        let min_s = last.as_micros() / 1_000_000 + 1;
        if self.duration_s < min_s {
            return Err(GridConfigError::TooShort {
                duration_s: self.duration_s,
                min_s,
            });
        }
        let max_s = SimTime::MAX.as_secs();
        if self.duration_s > max_s {
            return Err(GridConfigError::TooLong {
                duration_s: self.duration_s,
                max_s,
            });
        }
        Ok(())
    }
}

/// Why [`GridConfig::check`] rejected a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum GridConfigError {
    /// The paper rack rejects the configured cluster (e.g. a shard
    /// count outside `1..=servers`).
    Cluster(ConfigError),
    /// The window ends before some row's scores exist.
    TooShort {
        /// Configured seconds per cell.
        duration_s: u64,
        /// The shortest window that scores every row.
        min_s: u64,
    },
    /// The window ends past the last second the simulator's
    /// microsecond clock can represent.
    TooLong {
        /// Configured seconds per cell.
        duration_s: u64,
        /// The longest window the clock holds.
        max_s: u64,
    },
}

impl std::fmt::Display for GridConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridConfigError::Cluster(e) => write!(f, "invalid paper rack: {e}"),
            GridConfigError::TooShort { duration_s, min_s } => write!(
                f,
                "a {duration_s} s window is too short to score every row: \
                 it needs at least {min_s} s"
            ),
            GridConfigError::TooLong { duration_s, max_s } => write!(
                f,
                "a {duration_s} s window ends past the simulator's clock: \
                 it holds at most {max_s} s"
            ),
        }
    }
}

impl std::error::Error for GridConfigError {}

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

    /// The instant a cell's window must outlast for every score of this
    /// row to exist: the attack start, and for a moving target the
    /// first re-aim one period later — a window with a single aim holds
    /// no move to regret.
    fn scored_after(self, rate: f64) -> SimTime {
        let start = SimTime::from_secs(ATTACK_START_S);
        match self.spec(rate).target {
            TargetPlan::Fixed => start,
            TargetPlan::Rotating { period, .. } | TargetPlan::Concentrating { period, .. } => {
                start + period
            }
        }
    }

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

/// Run a whole grid, its cells in parallel (see the module doc), and
/// return them in row-major order.
pub fn run_grid(cfg: &GridConfig, rows: &[AttackRow], cols: &[DefenseStack]) -> Vec<GridCell> {
    let cells = rows
        .iter()
        .flat_map(|&row| cols.iter().map(move |&col| (row, col)))
        .collect();
    par::map(cells, |(row, col)| run_cell(cfg, row, col))
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
    fn check_accepts_exactly_the_shard_counts_the_rack_holds() {
        let with = |shards| {
            GridConfig {
                shards,
                ..GridConfig::smoke(1)
            }
            .check(&AttackRow::SMOKE)
        };
        for shards in 1..=4 {
            assert_eq!(with(shards), Ok(()), "{shards} shards");
        }
        for shards in [0, 5] {
            assert_eq!(
                with(shards),
                Err(GridConfigError::Cluster(ConfigError::Shards {
                    shards,
                    servers: 4
                })),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn check_needs_a_window_past_the_rotating_rows_first_move() {
        // The rotating row re-aims 20 s after the 5 s attack start: a
        // 25 s window holds one aim, a 26 s window two.
        let TargetPlan::Rotating { period, .. } = AttackRow::Rotating.spec(390.0).target else {
            panic!("the rotating row rotates");
        };
        let edge = ATTACK_START_S + period.as_secs();
        let cfg = |duration_s| GridConfig {
            duration_s,
            ..GridConfig::smoke(1)
        };
        assert_eq!(
            cfg(edge).check(&AttackRow::SMOKE),
            Err(GridConfigError::TooShort {
                duration_s: edge,
                min_s: edge + 1
            })
        );
        assert_eq!(cfg(edge + 1).check(&AttackRow::SMOKE), Ok(()));
        // Without a moving row the window only has to outlast the start.
        let fixed = [AttackRow::Burst, AttackRow::Memory];
        let start = ATTACK_START_S;
        assert_eq!(
            cfg(start).check(&fixed),
            Err(GridConfigError::TooShort {
                duration_s: start,
                min_s: start + 1
            })
        );
        assert_eq!(cfg(start + 1).check(&fixed), Ok(()));
    }

    #[test]
    fn check_rejects_a_window_past_the_clocks_last_second() {
        // u64::MAX µs is 18,446,744,073,709.55 s: the last whole second
        // fits, the next one would overflow `SimDuration::from_secs`.
        let max_s = SimTime::MAX.as_secs();
        assert_eq!(max_s, 18_446_744_073_709);
        assert_eq!(SimDuration::from_secs(max_s).as_micros(), max_s * 1_000_000);
        let cfg = |duration_s| GridConfig {
            duration_s,
            ..GridConfig::smoke(1)
        };
        assert_eq!(cfg(max_s).check(&AttackRow::SMOKE), Ok(()));
        for duration_s in [max_s + 1, u64::MAX] {
            assert_eq!(
                cfg(duration_s).check(&AttackRow::SMOKE),
                Err(GridConfigError::TooLong { duration_s, max_s }),
                "{duration_s} s"
            );
        }
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
