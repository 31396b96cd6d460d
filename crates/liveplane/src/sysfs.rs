//! Mock-sysfs transports: telemetry read from a RAPL/ACPI-shaped
//! directory tree, actuation written back as DVFS command files.
//!
//! The tree mirrors the shape of a Linux power-management sysfs (one
//! ASCII value per file, `powercap`-style package counters, per-node
//! `cpufreq` attributes, an ACPI-battery directory), but values are
//! decimal strings formatted with Rust's shortest-roundtrip `{:?}` so
//! every `f64` survives a write→read cycle bit-exactly — the property
//! the sim/live parity harness depends on.
//!
//! Layout under the root directory (`<i>` = node index, `<r>` = rack
//! index):
//!
//! ```text
//! control/slot                      published slot counter (write barrier)
//! control/now_us                    slot timestamp, µs
//! control/forgets                   lines "<node> full|learn"
//! control/readings_present          0|1 — per-node sensors delivered?
//! control/readback_present          0|1 — P-state read-back delivered?
//! control/racks                     rack feeds published (0 = flat cluster)
//! rapl/package/power_w              aggregate true power, W
//! rapl/package/energy_j             cumulative load energy, J
//! rack<r>/power_w                   per-rack sensed power, W (rack guard input)
//! node<i>/online                    0|1 (0 = node dead)
//! node<i>/rapl/power_w              per-node sensor, W; empty = dropout
//! node<i>/cpufreq/scaling_cur_pstate  read-back commanded state
//! node<i>/obs/{utilization,intensity,gamma,beta}
//! node<i>/obs/{target,learn_power_w}
//! node<i>/obs/mix                   lines "<url> <count>"
//! battery/{soc,stored_j,discharge_w,charge_w}
//! actuate/commands.log              appended by [`SysfsActuation`]
//! node<i>/cpufreq/scaling_setspeed  last commanded state
//! ```
//!
//! The writer publishes `control/slot` **last**, so a reader that sees
//! the counter advanced is guaranteed a complete slot; a reader that
//! polls before the writer publishes gets a typed
//! [`TransportError::Stale`] and lets the staleness machinery bridge.

use antidope::scheme::Action;
use antidope::{
    ActuationTransport, BatteryObs, DecisionRecord, Forget, ForgetKind, NodeObs, PlaneSample,
    SlotTick, TelemetryTransport, TransportError,
};
use simcore::SimTime;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

// ---------------------------------------------------------------------
// Shared path + codec helpers
// ---------------------------------------------------------------------

fn node_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("node{i}"))
}

fn io_err(p: &Path, e: impl std::fmt::Display) -> TransportError {
    TransportError::Io(format!("{}: {e}", p.display()))
}

fn read_str(p: &Path) -> Result<String, TransportError> {
    std::fs::read_to_string(p).map_err(|e| io_err(p, e))
}

fn parse_file<T: FromStr>(p: &Path) -> Result<T, TransportError>
where
    T::Err: std::fmt::Display,
{
    read_str(p)?
        .trim()
        .parse()
        .map_err(|e| TransportError::Malformed(format!("{}: {e}", p.display())))
}

/// `f64` or absent: an empty (or whitespace-only) file means `None`.
fn parse_opt_f64(p: &Path) -> Result<Option<f64>, TransportError> {
    let s = read_str(p)?;
    let t = s.trim();
    if t.is_empty() {
        return Ok(None);
    }
    t.parse()
        .map(Some)
        .map_err(|e| TransportError::Malformed(format!("{}: {e}", p.display())))
}

fn parse_flag(p: &Path) -> Result<bool, TransportError> {
    match read_str(p)?.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(TransportError::Malformed(format!(
            "{}: expected 0 or 1, got {other:?}",
            p.display()
        ))),
    }
}

// ---------------------------------------------------------------------
// Writer (the mock sensor agent)
// ---------------------------------------------------------------------

/// Publishes [`PlaneSample`]s into the directory tree — the role a
/// node-local sensor agent plays in a real deployment. One `publish`
/// per slot; the slot counter is written last as the completion
/// barrier.
#[derive(Debug, Clone)]
pub struct MockSysfsWriter {
    root: PathBuf,
}

impl MockSysfsWriter {
    /// A writer rooted at `root` (created on first publish).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        MockSysfsWriter { root: root.into() }
    }

    /// Write every attribute file for `sample`, then advance the
    /// published slot counter to `tick.slot`.
    pub fn publish(&self, tick: &SlotTick, sample: &PlaneSample) -> std::io::Result<()> {
        let r = &self.root;
        std::fs::create_dir_all(r.join("control"))?;
        std::fs::create_dir_all(r.join("rapl/package"))?;
        std::fs::create_dir_all(r.join("battery"))?;

        write_val(&r.join("control/now_us"), tick.now.as_micros())?;
        let mut forgets = String::new();
        for f in &sample.forgets {
            let kind = match f.kind {
                ForgetKind::Full => "full",
                ForgetKind::Learn => "learn",
            };
            let _ = writeln!(forgets, "{} {kind}", f.node);
        }
        std::fs::write(r.join("control/forgets"), forgets)?;
        write_val(&r.join("control/readings_present"), u8::from(sample.readings.is_some()))?;
        write_val(&r.join("control/readback_present"), u8::from(sample.readback.is_some()))?;
        write_f64(&r.join("rapl/package/power_w"), sample.true_power_w)?;
        write_f64(&r.join("rapl/package/energy_j"), sample.energy_j)?;
        write_val(&r.join("control/racks"), sample.rack_power_w.len())?;
        for (k, &w) in sample.rack_power_w.iter().enumerate() {
            let rd = r.join(format!("rack{k}"));
            std::fs::create_dir_all(&rd)?;
            write_f64(&rd.join("power_w"), w)?;
        }

        for (i, obs) in sample.nodes.iter().enumerate() {
            let nd = node_dir(r, i);
            std::fs::create_dir_all(nd.join("rapl"))?;
            std::fs::create_dir_all(nd.join("cpufreq"))?;
            std::fs::create_dir_all(nd.join("obs"))?;
            write_val(&nd.join("online"), u8::from(!sample.node_dead[i]))?;
            let reading = sample.readings.as_ref().and_then(|r| r[i]);
            write_opt_f64(&nd.join("rapl/power_w"), reading)?;
            let readback = sample.readback.as_ref().map_or(0, |r| r[i]);
            write_val(&nd.join("cpufreq/scaling_cur_pstate"), readback)?;
            write_f64(&nd.join("obs/utilization"), obs.utilization)?;
            write_f64(&nd.join("obs/intensity"), obs.intensity)?;
            write_f64(&nd.join("obs/gamma"), obs.gamma)?;
            write_f64(&nd.join("obs/beta"), obs.beta)?;
            write_val(&nd.join("obs/target"), obs.target)?;
            write_opt_f64(&nd.join("obs/learn_power_w"), obs.learn_power_w)?;
            let mut mix = String::new();
            for &(url, count) in &obs.mix {
                let _ = writeln!(mix, "{url} {count}");
            }
            std::fs::write(nd.join("obs/mix"), mix)?;
        }

        write_f64(&r.join("battery/soc"), sample.battery.soc)?;
        write_f64(&r.join("battery/stored_j"), sample.battery.stored_j)?;
        write_f64(&r.join("battery/discharge_w"), sample.battery.discharge_w)?;
        write_f64(&r.join("battery/charge_w"), sample.battery.charge_w)?;

        // Publish barrier: the counter moves only after every attribute
        // above is on disk.
        write_val(&r.join("control/slot"), tick.slot)
    }
}

fn write_val(p: &Path, v: impl std::fmt::Display) -> std::io::Result<()> {
    std::fs::write(p, format!("{v}\n"))
}

fn write_f64(p: &Path, v: f64) -> std::io::Result<()> {
    std::fs::write(p, format!("{v:?}\n"))
}

fn write_opt_f64(p: &Path, v: Option<f64>) -> std::io::Result<()> {
    match v {
        Some(v) => write_f64(p, v),
        None => std::fs::write(p, ""),
    }
}

// ---------------------------------------------------------------------
// Reader (the daemon's telemetry transport)
// ---------------------------------------------------------------------

/// Reads one [`PlaneSample`] per slot from the directory tree. The
/// published slot counter is the freshness signal: a read returns
/// [`TransportError::Stale`] when the counter has not advanced past
/// what this reader already served (or nothing was ever published) —
/// the latest published sample is otherwise served as current
/// telemetry, even if its slot number trails the control plane's tick.
/// The rack count comes from the tree (`control/racks`); the daemon
/// checks it against the experiment's topology.
#[derive(Debug, Clone)]
pub struct SysfsTelemetry {
    root: PathBuf,
    servers: usize,
    last_served: Option<u64>,
}

impl SysfsTelemetry {
    /// A reader over `root` expecting `servers` node directories.
    pub fn new(root: impl Into<PathBuf>, servers: usize) -> Self {
        SysfsTelemetry { root: root.into(), servers, last_served: None }
    }

    fn read_node(&self, i: usize) -> Result<(NodeObs, bool, Option<f64>, u8), TransportError> {
        let nd = node_dir(&self.root, i);
        let online = parse_flag(&nd.join("online"))?;
        let reading = parse_opt_f64(&nd.join("rapl/power_w"))?;
        let readback: u8 = parse_file(&nd.join("cpufreq/scaling_cur_pstate"))?;
        let mix_text = read_str(&nd.join("obs/mix"))?;
        let mut mix = Vec::new();
        for line in mix_text.lines().filter(|l| !l.trim().is_empty()) {
            let mut parts = line.split_whitespace();
            let (Some(u), Some(c)) = (parts.next(), parts.next()) else {
                return Err(TransportError::Malformed(format!(
                    "{}: bad mix line {line:?}",
                    nd.join("obs/mix").display()
                )));
            };
            let url = u.parse().map_err(|e| {
                TransportError::Malformed(format!("{}: url {e}", nd.join("obs/mix").display()))
            })?;
            let count = c.parse().map_err(|e| {
                TransportError::Malformed(format!("{}: count {e}", nd.join("obs/mix").display()))
            })?;
            mix.push((url, count));
        }
        let obs = NodeObs {
            utilization: parse_file(&nd.join("obs/utilization"))?,
            intensity: parse_file(&nd.join("obs/intensity"))?,
            gamma: parse_file(&nd.join("obs/gamma"))?,
            beta: parse_file(&nd.join("obs/beta"))?,
            target: parse_file(&nd.join("obs/target"))?,
            learn_power_w: parse_opt_f64(&nd.join("obs/learn_power_w"))?,
            mix,
        };
        Ok((obs, !online, reading, readback))
    }
}

impl TelemetryTransport for SysfsTelemetry {
    type Sample = PlaneSample;

    fn sample(&mut self, tick: &SlotTick) -> Result<PlaneSample, TransportError> {
        let r = &self.root;
        let slot_path = r.join("control/slot");
        // A missing counter file means the sensor agent has not
        // published anything yet — stale, not fatal.
        let published: u64 = match std::fs::read_to_string(&slot_path) {
            Ok(s) => s.trim().parse().map_err(|e| {
                TransportError::Malformed(format!("{}: {e}", slot_path.display()))
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(TransportError::Stale { have: 0, want: tick.slot });
            }
            Err(e) => return Err(io_err(&slot_path, e)),
        };
        if self.last_served == Some(published) {
            return Err(TransportError::Stale { have: published, want: tick.slot });
        }
        self.last_served = Some(published);
        let readings_present = parse_flag(&r.join("control/readings_present"))?;
        let readback_present = parse_flag(&r.join("control/readback_present"))?;
        let mut nodes = Vec::with_capacity(self.servers);
        let mut node_dead = Vec::with_capacity(self.servers);
        let mut readings = Vec::with_capacity(self.servers);
        let mut readback = Vec::with_capacity(self.servers);
        for i in 0..self.servers {
            let (obs, dead, reading, rb) = self.read_node(i)?;
            nodes.push(obs);
            node_dead.push(dead);
            readings.push(reading);
            readback.push(rb);
        }
        let forgets_text = read_str(&r.join("control/forgets"))?;
        let mut forgets = Vec::new();
        for line in forgets_text.lines().filter(|l| !l.trim().is_empty()) {
            let mut parts = line.split_whitespace();
            let (Some(n), Some(k)) = (parts.next(), parts.next()) else {
                return Err(TransportError::Malformed(format!("bad forget line {line:?}")));
            };
            let node = n.parse().map_err(|e| {
                TransportError::Malformed(format!("forget node {n:?}: {e}"))
            })?;
            let kind = match k {
                "full" => ForgetKind::Full,
                "learn" => ForgetKind::Learn,
                other => {
                    return Err(TransportError::Malformed(format!(
                        "unknown forget kind {other:?}"
                    )))
                }
            };
            forgets.push(Forget { node, kind });
        }
        Ok(PlaneSample {
            true_power_w: parse_file(&r.join("rapl/package/power_w"))?,
            readings: readings_present.then_some(readings),
            nodes,
            readback: readback_present.then_some(readback),
            node_dead,
            battery: BatteryObs {
                soc: parse_file(&r.join("battery/soc"))?,
                stored_j: parse_file(&r.join("battery/stored_j"))?,
                discharge_w: parse_file(&r.join("battery/discharge_w"))?,
                charge_w: parse_file(&r.join("battery/charge_w"))?,
            },
            energy_j: parse_file(&r.join("rapl/package/energy_j"))?,
            forgets,
            rack_power_w: (0..parse_file::<usize>(&r.join("control/racks"))?)
                .map(|k| parse_file(&r.join(format!("rack{k}/power_w"))))
                .collect::<Result<_, _>>()?,
        })
    }
}

// ---------------------------------------------------------------------
// Actuation sink
// ---------------------------------------------------------------------

/// Renders one slot's decision as the exact command-log lines
/// [`SysfsActuation`] appends — exposed so the parity harness can
/// render a sim-side trace identically and byte-compare logs.
pub fn render_decision(now: SimTime, decision: &DecisionRecord) -> String {
    let us = now.as_micros();
    let mut out = String::new();
    for &(node, pstate) in &decision.retries {
        let _ = writeln!(out, "{us} retry {node} {pstate}");
    }
    for a in &decision.actions {
        match *a {
            Action::SetPState { node, target } => {
                let _ = writeln!(out, "{us} set_pstate {node} {}", target.0);
            }
            Action::BatteryDischarge { watts } => {
                let _ = writeln!(out, "{us} battery_discharge {watts:?}");
            }
            Action::BatteryCharge { watts } => {
                let _ = writeln!(out, "{us} battery_charge {watts:?}");
            }
        }
    }
    out
}

/// Writes decided commands back into the tree: an append-only
/// `actuate/commands.log` journal plus a per-node
/// `cpufreq/scaling_setspeed` attribute holding the last commanded
/// P-state (read-back sweep retries included, exactly as the sim's
/// enact path re-issues them).
#[derive(Debug, Clone)]
pub struct SysfsActuation {
    root: PathBuf,
}

impl SysfsActuation {
    /// An actuator rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        SysfsActuation { root: root.into() }
    }

    /// Path of the append-only command journal.
    pub(crate) fn log_path(&self) -> PathBuf {
        self.root.join("actuate/commands.log")
    }

    fn set_speed(&self, node: usize, target: u8) -> Result<(), TransportError> {
        let dir = node_dir(&self.root, node).join("cpufreq");
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let p = dir.join("scaling_setspeed");
        write_val(&p, target).map_err(|e| io_err(&p, e))
    }
}

impl ActuationTransport for SysfsActuation {
    fn apply(&mut self, now: SimTime, decision: &DecisionRecord) -> Result<(), TransportError> {
        let dir = self.root.join("actuate");
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let p = self.log_path();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&p)
            .map_err(|e| io_err(&p, e))?;
        f.write_all(render_decision(now, decision).as_bytes())
            .map_err(|e| io_err(&p, e))?;
        for &(node, pstate) in &decision.retries {
            self.set_speed(node, pstate)?;
        }
        for a in &decision.actions {
            if let Action::SetPState { node, target } = *a {
                self.set_speed(node, target.0)?;
            }
        }
        Ok(())
    }
}
