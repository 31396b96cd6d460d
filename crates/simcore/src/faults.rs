//! Deterministic fault injection for simulations.
//!
//! A [`ShardFaultPlan`] turns a declarative [`FaultConfig`] into a
//! runtime fault process: scheduled events (telemetry blackout windows,
//! node crashes) fire at exact instants with no randomness, while
//! stochastic faults (sensor dropout, actuator command loss, …) draw
//! from dedicated per-node PRNG streams. Because the plan owns its
//! streams, the same `(seed, FaultConfig)` pair always produces the same
//! fault sequence, and enabling faults never perturbs the randomness any
//! *other* component draws — the same-seed ⇒ same-report contract
//! survives chaos.
//!
//! The fault classes model what real oversubscribed fleets lose first:
//!
//! * **Power sensors** — sample dropout, stuck-at readings, stale
//!   telemetry, additive noise, and scheduled full-telemetry blackouts.
//! * **DVFS actuators** — command loss, delayed apply, and a wedged
//!   (stuck) actuator that ignores commands for a while.
//! * **Nodes** — crash (in-flight work lost) with optional reboot.
//! * **Battery** — capacity fade and a charger that fails permanently at
//!   a scheduled instant.

use crate::rng::{streams, RngFactory, SimRng};
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A scheduled node crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Index of the node that crashes.
    pub node: usize,
    /// When it crashes.
    pub at: SimTime,
}

/// Declarative fault model. The default is a complete no-op: every
/// probability zero, no scheduled events — a plan built from it injects
/// nothing and draws nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-sample probability a node's power sensor returns nothing.
    pub sensor_dropout_p: f64,
    /// Half-width of uniform additive noise on good samples, watts.
    pub sensor_noise_w: f64,
    /// Per-sample probability a sensor wedges at its last reading.
    pub sensor_stuck_p: f64,
    /// How long a wedged sensor stays stuck.
    pub sensor_stuck_for: SimDuration,
    /// Per-sample probability a sensor re-delivers its previous reading.
    pub sensor_stale_p: f64,
    /// Scheduled `[start, end)` windows during which *all* sensors are
    /// dark (a telemetry-network blackout).
    pub blackouts: Vec<(SimTime, SimTime)>,
    /// Per-command probability a DVFS write is silently lost.
    pub actuator_loss_p: f64,
    /// Per-command probability a write lands late.
    pub actuator_delay_p: f64,
    /// Extra apply latency for delayed writes.
    pub actuator_delay: SimDuration,
    /// Per-command probability the actuator wedges (ignores commands).
    pub actuator_stuck_p: f64,
    /// How long a wedged actuator ignores commands.
    pub actuator_stuck_for: SimDuration,
    /// Scheduled node crashes.
    pub crashes: Vec<CrashEvent>,
    /// Per-node per-slot probability of a spontaneous crash.
    pub crash_p: f64,
    /// Time from crash to reboot; `ZERO` means crashed nodes stay down.
    pub reboot_after: SimDuration,
    /// Fraction of battery capacity lost to age, in `[0, 1)`.
    pub battery_fade: f64,
    /// Instant at which the battery charger fails for good, if ever.
    pub charger_fails_at: Option<SimTime>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            sensor_dropout_p: 0.0,
            sensor_noise_w: 0.0,
            sensor_stuck_p: 0.0,
            sensor_stuck_for: SimDuration::from_secs(10),
            sensor_stale_p: 0.0,
            blackouts: Vec::new(),
            actuator_loss_p: 0.0,
            actuator_delay_p: 0.0,
            actuator_delay: SimDuration::from_millis(500),
            actuator_stuck_p: 0.0,
            actuator_stuck_for: SimDuration::from_secs(10),
            crashes: Vec::new(),
            crash_p: 0.0,
            reboot_after: SimDuration::ZERO,
            battery_fade: 0.0,
            charger_fails_at: None,
        }
    }
}

impl FaultConfig {
    /// Check the config against the number of nodes it will drive.
    pub fn validate(&self, n_nodes: usize) -> Result<(), FaultError> {
        let probs = [
            ("sensor_dropout_p", self.sensor_dropout_p),
            ("sensor_stuck_p", self.sensor_stuck_p),
            ("sensor_stale_p", self.sensor_stale_p),
            ("actuator_loss_p", self.actuator_loss_p),
            ("actuator_delay_p", self.actuator_delay_p),
            ("actuator_stuck_p", self.actuator_stuck_p),
            ("crash_p", self.crash_p),
        ];
        for (field, p) in probs {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(FaultError::Probability { field, value: p });
            }
        }
        if !self.sensor_noise_w.is_finite() || self.sensor_noise_w < 0.0 {
            return Err(FaultError::Noise(self.sensor_noise_w));
        }
        if !(0.0..1.0).contains(&self.battery_fade) {
            return Err(FaultError::Fade(self.battery_fade));
        }
        for &(start, end) in &self.blackouts {
            if start >= end {
                return Err(FaultError::Window { start, end });
            }
        }
        for ev in &self.crashes {
            if ev.node >= n_nodes {
                return Err(FaultError::NodeIndex {
                    node: ev.node,
                    n_nodes,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability field was outside `[0, 1]`.
    Probability {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Sensor noise half-width was negative or non-finite.
    Noise(f64),
    /// Battery fade was outside `[0, 1)`.
    Fade(f64),
    /// A blackout window was empty or inverted.
    Window {
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
    /// A scheduled crash named a node the cluster does not have.
    NodeIndex {
        /// Offending node index.
        node: usize,
        /// Number of nodes in the cluster.
        n_nodes: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Probability { field, value } => {
                write!(f, "fault probability {field} = {value} is outside [0, 1]")
            }
            FaultError::Noise(w) => {
                write!(f, "sensor_noise_w = {w} must be finite and non-negative")
            }
            FaultError::Fade(x) => write!(f, "battery_fade = {x} must lie in [0, 1)"),
            FaultError::Window { start, end } => {
                write!(f, "blackout window [{start}, {end}) is empty or inverted")
            }
            FaultError::NodeIndex { node, n_nodes } => {
                write!(f, "scheduled crash names node {node}, cluster has {n_nodes}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// What happened to an actuator command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationFault {
    /// The command reaches the hardware normally.
    Clean,
    /// The command is silently dropped.
    Lost,
    /// The command lands after the given extra delay.
    Delayed(SimDuration),
    /// The actuator is wedged; the command is ignored.
    Stuck,
}

/// Per-fault-class lifetime counters, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Sensor samples dropped.
    pub sensor_dropouts: u64,
    /// Sensor samples frozen by a stuck sensor.
    pub sensor_stuck: u64,
    /// Sensor samples that re-delivered a stale reading.
    pub sensor_stale: u64,
    /// Sensor samples lost to scheduled blackout windows.
    pub blackout_samples: u64,
    /// Actuator commands silently lost.
    pub actuator_lost: u64,
    /// Actuator commands applied late.
    pub actuator_delayed: u64,
    /// Actuator commands ignored by a wedged actuator.
    pub actuator_stuck: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node reboots completed.
    pub reboots: u64,
}

/// Per-node runtime fault state.
#[derive(Debug, Clone)]
struct NodeFaultState {
    /// A stuck sensor repeats `stuck_w` until this instant.
    sensor_stuck_until: SimTime,
    stuck_w: f64,
    /// Last value this sensor actually reported (for stale re-delivery).
    reported_w: Option<f64>,
    /// A wedged actuator ignores commands until this instant.
    actuator_stuck_until: SimTime,
}

impl NodeFaultState {
    fn new() -> Self {
        NodeFaultState {
            sensor_stuck_until: SimTime::ZERO,
            stuck_w: 0.0,
            reported_w: None,
            actuator_stuck_until: SimTime::ZERO,
        }
    }
}

/// True while any scheduled blackout window in `cfg` covers `now`.
fn blackout_covers(cfg: &FaultConfig, now: SimTime) -> bool {
    cfg.blackouts
        .iter()
        .any(|&(start, end)| start <= now && now < end)
}

/// One node's sensor read through the stochastic fault process. The
/// blackout check stays with the caller: it is schedule-driven and must
/// consume no randomness. Draws are guarded: a zero-probability fault
/// class consumes no randomness and never re-times another class.
fn sense_node(
    cfg: &FaultConfig,
    rng: &mut SimRng,
    st: &mut NodeFaultState,
    counts: &mut FaultCounts,
    now: SimTime,
    true_w: f64,
) -> Option<f64> {
    if now < st.sensor_stuck_until {
        counts.sensor_stuck += 1;
        return Some(st.stuck_w);
    }
    if cfg.sensor_dropout_p > 0.0 && rng.chance(cfg.sensor_dropout_p) {
        counts.sensor_dropouts += 1;
        return None;
    }
    if cfg.sensor_stuck_p > 0.0 && rng.chance(cfg.sensor_stuck_p) {
        st.sensor_stuck_until = now + cfg.sensor_stuck_for;
        st.stuck_w = st.reported_w.unwrap_or(true_w);
        // The wedged value is what the sensor *displays*, so a later
        // episode re-wedges at it rather than at a never-seen truth.
        st.reported_w = Some(st.stuck_w);
        counts.sensor_stuck += 1;
        return Some(st.stuck_w);
    }
    if cfg.sensor_stale_p > 0.0 && rng.chance(cfg.sensor_stale_p) {
        if let Some(old) = st.reported_w {
            counts.sensor_stale += 1;
            return Some(old);
        }
    }
    let mut w = true_w;
    if cfg.sensor_noise_w > 0.0 {
        w = (w + rng.range_f64(-cfg.sensor_noise_w, cfg.sensor_noise_w)).max(0.0);
    }
    st.reported_w = Some(w);
    Some(w)
}

/// One actuator command through the stochastic fault process, with the
/// same guarded draws as [`sense_node`].
fn actuate_node(
    cfg: &FaultConfig,
    rng: &mut SimRng,
    st: &mut NodeFaultState,
    counts: &mut FaultCounts,
    now: SimTime,
) -> ActuationFault {
    if now < st.actuator_stuck_until {
        counts.actuator_stuck += 1;
        return ActuationFault::Stuck;
    }
    if cfg.actuator_stuck_p > 0.0 && rng.chance(cfg.actuator_stuck_p) {
        st.actuator_stuck_until = now + cfg.actuator_stuck_for;
        counts.actuator_stuck += 1;
        return ActuationFault::Stuck;
    }
    if cfg.actuator_loss_p > 0.0 && rng.chance(cfg.actuator_loss_p) {
        counts.actuator_lost += 1;
        return ActuationFault::Lost;
    }
    if cfg.actuator_delay_p > 0.0 && rng.chance(cfg.actuator_delay_p) {
        counts.actuator_delayed += 1;
        return ActuationFault::Delayed(cfg.actuator_delay);
    }
    ActuationFault::Clean
}

/// The runtime fault process of a cluster: a validated [`FaultConfig`]
/// plus per-node state for every node.
///
/// Each node owns its own PRNG stream derived from its index
/// (`RngFactory::stream_n` with `streams::FAULTS`). Draw order
/// between nodes is therefore irrelevant and no draw ever crosses a
/// shard boundary, so the same seed produces byte-identical fault
/// sequences at any shard count.
#[derive(Debug, Clone)]
pub struct ShardFaultPlan {
    cfg: FaultConfig,
    /// One dedicated stream per node.
    rngs: Vec<SimRng>,
    nodes: Vec<NodeFaultState>,
    /// Which scheduled crashes already fired.
    fired: Vec<bool>,
    counts: FaultCounts,
}

impl ShardFaultPlan {
    /// Build the plan for an `n_nodes`-node cluster.
    pub fn new(
        cfg: FaultConfig,
        n_nodes: usize,
        factory: &RngFactory,
    ) -> Result<Self, FaultError> {
        cfg.validate(n_nodes)?;
        let fired = vec![false; cfg.crashes.len()];
        Ok(ShardFaultPlan {
            cfg,
            rngs: (0..n_nodes)
                .map(|g| factory.stream_n(streams::FAULTS, g as u64))
                .collect(),
            nodes: (0..n_nodes).map(|_| NodeFaultState::new()).collect(),
            fired,
            counts: FaultCounts::default(),
        })
    }

    /// The config this plan runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Lifetime fault counters.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Read node `node`'s power sensor through the fault process.
    pub fn sense(&mut self, now: SimTime, node: usize, true_w: f64) -> Option<f64> {
        if blackout_covers(&self.cfg, now) {
            self.counts.blackout_samples += 1;
            return None;
        }
        sense_node(
            &self.cfg,
            &mut self.rngs[node],
            &mut self.nodes[node],
            &mut self.counts,
            now,
            true_w,
        )
    }

    /// Filter one actuator command to node `node`.
    pub fn actuate(&mut self, now: SimTime, node: usize) -> ActuationFault {
        actuate_node(
            &self.cfg,
            &mut self.rngs[node],
            &mut self.nodes[node],
            &mut self.counts,
            now,
        )
    }

    /// Whether node `node` crashes at this slot. Call exactly once
    /// per (alive) node per slot; scheduled crashes fire the first slot at
    /// or after their instant, stochastic crashes draw `crash_p` per call
    /// from the node's own stream, so query order across nodes is
    /// irrelevant.
    pub fn crash_due(&mut self, now: SimTime, node: usize) -> bool {
        let mut crash = false;
        for (i, ev) in self.cfg.crashes.iter().enumerate() {
            if !self.fired[i] && ev.node == node && ev.at <= now {
                self.fired[i] = true;
                crash = true;
            }
        }
        if !crash && self.cfg.crash_p > 0.0 && self.rngs[node].chance(self.cfg.crash_p) {
            crash = true;
        }
        if crash {
            self.counts.crashes += 1;
        }
        crash
    }

    /// Record a completed node reboot.
    pub fn record_reboot(&mut self) {
        self.counts.reboots += 1;
    }

    /// Remaining battery capacity as a fraction of nameplate.
    pub fn battery_capacity_factor(&self) -> f64 {
        1.0 - self.cfg.battery_fade
    }

    /// True once the charger has failed.
    pub fn charger_failed(&self, now: SimTime) -> bool {
        self.cfg.charger_fails_at.is_some_and(|t| now >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    /// A plan covering all four nodes of a 4-node cluster.
    fn plan(cfg: FaultConfig) -> ShardFaultPlan {
        ShardFaultPlan::new(cfg, 4, &RngFactory::new(42)).unwrap()
    }

    #[test]
    fn default_config_is_noop() {
        let mut p = plan(FaultConfig::default());
        for t in 0..100 {
            for n in 0..4 {
                assert_eq!(p.sense(s(t), n, 123.0), Some(123.0));
                assert_eq!(p.actuate(s(t), n), ActuationFault::Clean);
                assert!(!p.crash_due(s(t), n));
            }
        }
        assert_eq!(p.counts(), FaultCounts::default());
        assert_eq!(p.battery_capacity_factor(), 1.0);
        assert!(!p.charger_failed(SimTime::MAX));
    }

    #[test]
    fn dropout_rate_tracks_probability() {
        let mut p = plan(FaultConfig {
            sensor_dropout_p: 0.3,
            ..FaultConfig::default()
        });
        let n = 10_000;
        let dropped = (0..n)
            .filter(|&t| p.sense(s(t), 0, 100.0).is_none())
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
        assert_eq!(p.counts().sensor_dropouts, dropped as u64);
    }

    #[test]
    fn stuck_sensor_freezes_reading() {
        let mut p = plan(FaultConfig {
            sensor_stuck_p: 1.0,
            sensor_stuck_for: SimDuration::from_secs(5),
            ..FaultConfig::default()
        });
        // First sample wedges at the true value (no prior reading).
        assert_eq!(p.sense(s(0), 0, 100.0), Some(100.0));
        // Subsequent samples repeat it regardless of the true power.
        assert_eq!(p.sense(s(2), 0, 250.0), Some(100.0));
        assert_eq!(p.sense(s(4), 0, 10.0), Some(100.0));
        // After the window, it wedges again — at the stale reading.
        assert_eq!(p.sense(s(6), 0, 300.0), Some(100.0));
        assert!(p.counts().sensor_stuck >= 3);
    }

    #[test]
    fn stale_redelivers_previous_sample() {
        let mut p = plan(FaultConfig {
            sensor_stale_p: 1.0,
            ..FaultConfig::default()
        });
        // No previous sample: falls through to a good reading.
        assert_eq!(p.sense(s(0), 1, 100.0), Some(100.0));
        assert_eq!(p.sense(s(1), 1, 200.0), Some(100.0));
        assert_eq!(p.counts().sensor_stale, 1);
    }

    #[test]
    fn noise_stays_bounded_and_non_negative() {
        let mut p = plan(FaultConfig {
            sensor_noise_w: 10.0,
            ..FaultConfig::default()
        });
        for t in 0..1000 {
            let w = p.sense(s(t), 0, 5.0).unwrap();
            assert!((0.0..=15.0).contains(&w), "w={w}");
        }
    }

    #[test]
    fn blackout_window_darkens_all_sensors() {
        let mut p = plan(FaultConfig {
            blackouts: vec![(s(10), s(20))],
            ..FaultConfig::default()
        });
        assert_eq!(p.sense(s(9), 0, 100.0), Some(100.0));
        for t in 10..20 {
            for n in 0..4 {
                assert_eq!(p.sense(s(t), n, 100.0), None);
            }
        }
        assert_eq!(p.sense(s(20), 0, 100.0), Some(100.0));
        assert_eq!(p.counts().blackout_samples, 40);
    }

    #[test]
    fn actuator_faults_fire() {
        let mut p = plan(FaultConfig {
            actuator_loss_p: 1.0,
            ..FaultConfig::default()
        });
        assert_eq!(p.actuate(s(0), 0), ActuationFault::Lost);

        let mut p = plan(FaultConfig {
            actuator_delay_p: 1.0,
            actuator_delay: SimDuration::from_millis(500),
            ..FaultConfig::default()
        });
        assert_eq!(
            p.actuate(s(0), 0),
            ActuationFault::Delayed(SimDuration::from_millis(500))
        );

        let mut p = plan(FaultConfig {
            actuator_stuck_p: 1.0,
            actuator_stuck_for: SimDuration::from_secs(3),
            ..FaultConfig::default()
        });
        assert_eq!(p.actuate(s(0), 2), ActuationFault::Stuck);
        assert_eq!(p.actuate(s(2), 2), ActuationFault::Stuck);
        assert_eq!(p.counts().actuator_stuck, 2);
    }

    #[test]
    fn scheduled_crash_fires_once() {
        let mut p = plan(FaultConfig {
            crashes: vec![CrashEvent { node: 2, at: s(7) }],
            ..FaultConfig::default()
        });
        assert!(!p.crash_due(s(6), 2));
        assert!(!p.crash_due(s(7), 1));
        assert!(p.crash_due(s(7), 2));
        assert!(!p.crash_due(s(8), 2));
        assert_eq!(p.counts().crashes, 1);
    }

    #[test]
    fn battery_helpers() {
        let p = plan(FaultConfig {
            battery_fade: 0.25,
            charger_fails_at: Some(s(30)),
            ..FaultConfig::default()
        });
        assert!((p.battery_capacity_factor() - 0.75).abs() < 1e-12);
        assert!(!p.charger_failed(s(29)));
        assert!(p.charger_failed(s(30)));
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = FaultConfig {
            sensor_dropout_p: 0.2,
            sensor_stuck_p: 0.05,
            sensor_stuck_for: SimDuration::from_secs(3),
            sensor_noise_w: 5.0,
            actuator_loss_p: 0.1,
            crash_p: 0.01,
            ..FaultConfig::default()
        };
        let run = |seed: u64| {
            let mut p = ShardFaultPlan::new(cfg.clone(), 4, &RngFactory::new(seed)).unwrap();
            let mut log = Vec::new();
            for t in 0..200 {
                for n in 0..4 {
                    log.push(format!("{:?}", p.sense(s(t), n, 100.0 + t as f64)));
                    log.push(format!("{:?}", p.actuate(s(t), n)));
                    log.push(format!("{}", p.crash_due(s(t), n)));
                }
            }
            (log, p.counts())
        };
        let (a, ca) = run(7);
        let (b, cb) = run(7);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        let (c, _) = run(8);
        assert_ne!(a, c);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let n = 4;
        let bad_p = FaultConfig {
            sensor_dropout_p: 1.5,
            ..FaultConfig::default()
        };
        assert!(matches!(
            bad_p.validate(n),
            Err(FaultError::Probability { field: "sensor_dropout_p", .. })
        ));
        let bad_win = FaultConfig {
            blackouts: vec![(s(5), s(5))],
            ..FaultConfig::default()
        };
        assert!(matches!(bad_win.validate(n), Err(FaultError::Window { .. })));
        let bad_node = FaultConfig {
            crashes: vec![CrashEvent { node: 9, at: s(1) }],
            ..FaultConfig::default()
        };
        assert!(matches!(bad_node.validate(n), Err(FaultError::NodeIndex { .. })));
        let bad_fade = FaultConfig {
            battery_fade: 1.0,
            ..FaultConfig::default()
        };
        assert!(matches!(bad_fade.validate(n), Err(FaultError::Fade(_))));
        assert!(FaultConfig::default().validate(n).is_ok());
        // Errors render a human-readable message naming the field.
        let msg = format!("{}", bad_p.validate(n).unwrap_err());
        assert!(msg.contains("sensor_dropout_p"));
    }

    #[test]
    fn shard_plan_query_order_between_nodes_is_irrelevant() {
        let factory = RngFactory::new(7);
        let cfg = FaultConfig {
            sensor_dropout_p: 0.3,
            sensor_noise_w: 2.0,
            ..FaultConfig::default()
        };
        let mut fwd = ShardFaultPlan::new(cfg.clone(), 4, &factory).unwrap();
        let mut rev = ShardFaultPlan::new(cfg, 4, &factory).unwrap();
        let mut a = Vec::new();
        let mut b = vec![Vec::new(); 4];
        for t in 0..50u64 {
            for g in 0..4 {
                a.push((g, format!("{:?}", fwd.sense(s(t), g, 90.0))));
            }
            for g in (0..4).rev() {
                b[g].push(format!("{:?}", rev.sense(s(t), g, 90.0)));
            }
        }
        for (g, rev_node) in b.iter().enumerate() {
            let fwd_g: Vec<&String> =
                a.iter().filter(|(n, _)| *n == g).map(|(_, v)| v).collect();
            let rev_g: Vec<&String> = rev_node.iter().collect();
            assert_eq!(fwd_g, rev_g, "node {g} stream depends on query order");
        }
    }

    #[test]
    fn scheduled_crash_fires_once_for_its_node() {
        let cfg = FaultConfig {
            crashes: vec![CrashEvent { node: 5, at: s(3) }],
            ..FaultConfig::default()
        };
        let mut plan = ShardFaultPlan::new(cfg, 8, &RngFactory::new(1)).unwrap();
        for t in 0..10u64 {
            for g in (0..8).filter(|&g| g != 5) {
                assert!(!plan.crash_due(s(t), g));
            }
        }
        assert!(!plan.crash_due(s(2), 5));
        assert!(plan.crash_due(s(3), 5));
        assert!(!plan.crash_due(s(4), 5));
        assert_eq!(plan.counts().crashes, 1);
    }
}
