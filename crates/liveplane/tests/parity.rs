//! Sim/live parity: record a control-plane trace from a fixed-seed DES
//! run, replay it through the live daemon's pipeline, and require the
//! emitted view/decision sequence and the accounting footer to be
//! byte-identical (Debug-render equality, which for `f64` is
//! shortest-roundtrip — bit equality) to what the simulator produced.
//!
//! Three flat cells cover the engine's configurations: one shard
//! without faults, one shard hardened with chaos faults and the EW-RLS
//! profiler, and two shards with a telemetry blackout. Four topology
//! cells run a rack-concentrated flood with the rack guard on, at 1 and
//! 2 shards, each with and without chaos faults: the guard must pin in
//! the simulation, and the replay must pin the same racks. The chaos
//! cells use 2-node racks under heavy sensor dropout and a 1-slot
//! staleness window, so the rack blackout guard pins too.
//!
//! The Token scheme is deliberately absent: its bucket state advances
//! on every *admitted request* in the dataplane, not once per control
//! slot, so a slot-rate trace cannot reconstruct it. Every other scheme
//! decides purely from slot telemetry and replays exactly.

use antidope::runner::SourceFactory;
use antidope::testutil::{quick_exp, users};
use antidope::{
    record_experiment, ActionRecord, ClusterConfig, ConfigError, ControlTrace, ExperimentConfig,
    Forget, ForgetKind, SchemeKind, SimReport, SlotTick, TelemetryTransport, TopologyConfig,
    TransportError, TRACE_SCHEMA_VERSION,
};
use liveplane::{
    render_decision, LiveDaemon, ManualClock, MockSysfsWriter, NullActuation, RecordingActuation,
    ReplayClock, ReplayTelemetry, SlotDisposition, SysfsActuation, SysfsTelemetry,
};
use powercap::BudgetLevel;
use profiler::ProfilerConfig;
use simcore::faults::{CrashEvent, FaultConfig};
use simcore::{SimDuration, SimTime};
use std::path::PathBuf;
use workloads::{
    AttackTool, AttackVectorSpec, ScenarioBuilder, SeedPin, ServiceKind, SourcePlan, TargetPlan,
};

/// Users plus a Colla-Filt http-load flood from t = 5 s.
fn sources() -> ScenarioBuilder {
    users(60.0)
        .with_attack(AttackTool::HttpLoad { rate: 300.0 }, ServiceKind::CollaFilt, 40, 5)
        .pinned(50_000, 1 << 40, SeedPin::Raw)
}

/// Racks of the topology cells.
const RACKS: usize = 4;

/// A 16-node, 4-rack cluster whose budgets have no oversubscription
/// headroom, with the rack guard on and no scheme: a flood concentrated
/// on one rack overloads it while the facility idles, so every pin in
/// the plan is the guard's.
fn rack_flood_exp(shards: usize) -> ExperimentConfig {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Low);
    cluster.shards = shards;
    cluster.topology = Some(TopologyConfig {
        rack_oversub: 1.0,
        pdu_oversub: 1.0,
        row_oversub: 1.0,
        defend: true,
        ..TopologyConfig::with_racks(RACKS, 2)
    });
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::None, 42);
    exp.duration = SimDuration::from_secs(40);
    exp
}

/// Normal users plus an http-load flood that lands on one of the
/// cell's racks.
fn rack_flood(exp: &ExperimentConfig) -> ScenarioBuilder {
    let racks = exp.cluster.topology.expect("topology cell").racks;
    let flood = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 420.0)
        .sources(SourcePlan::Botnet { bots: 40 })
        .target(TargetPlan::Concentrating {
            racks,
            url_base: 900,
            period: exp.duration,
        });
    users(80.0)
        .with_vector(flood, 5)
        .pinned(50_000, 1 << 40, SeedPin::Raw)
}

fn chaos(exp: &mut ExperimentConfig) {
    exp.cluster.faults = Some(FaultConfig {
        sensor_dropout_p: 0.2,
        actuator_loss_p: 0.3,
        crashes: vec![CrashEvent { node: 1, at: SimTime::from_secs(20) }],
        reboot_after: SimDuration::from_secs(8),
        ..FaultConfig::default()
    });
}

/// Record `exp`, replay through the daemon, and require byte parity of
/// every per-slot view/decision record, the footer, and the profiler
/// accounting against the sim side.
fn assert_parity(exp: &ExperimentConfig, sources: &dyn SourceFactory) -> (SimReport, ControlTrace) {
    let (report, trace) = record_experiment(exp, sources);
    assert!(!trace.slots.is_empty(), "trace must record slots");

    // The JSONL encoding round-trips bit-exactly first.
    let back = ControlTrace::from_jsonl_str(&trace.to_jsonl()).expect("well-formed trace");
    assert_eq!(format!("{trace:?}"), format!("{back:?}"), "jsonl round trip");

    let mut daemon = LiveDaemon::new(
        exp,
        ReplayClock::from_trace(&trace),
        ReplayTelemetry::from_trace(&trace),
        RecordingActuation::new(),
    );
    let summary = daemon.run().expect("replay transports cannot fail");
    assert_eq!(summary.journal.len(), trace.slots.len(), "one outcome per recorded slot");
    assert_eq!(daemon.actuation().applied.len(), trace.slots.len());
    for (out, rec) in summary.journal.iter().zip(&trace.slots) {
        assert_eq!(out.disposition, SlotDisposition::Fresh);
        assert_eq!(
            format!("{:?}", out.view.as_ref().expect("fresh slot has a view")),
            format!("{:?}", rec.view),
            "view parity at slot {}",
            rec.slot
        );
        assert_eq!(
            format!("{:?}", out.decisions.as_ref().expect("fresh slot has decisions")),
            format!("{:?}", rec.decisions),
            "decision parity at slot {}",
            rec.slot
        );
    }
    assert_eq!(
        format!("{:?}", summary.footer()),
        format!("{:?}", trace.footer),
        "footer parity"
    );
    assert_eq!(
        format!("{:?}", summary.profiler),
        format!("{:?}", report.profiler),
        "profiler accounting parity"
    );
    (report, trace)
}

#[test]
fn parity_one_shard_no_faults() {
    let exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 60, 2019);
    let (report, trace) = assert_parity(&exp, &sources());
    assert_eq!(trace.slots.len(), 60);
    assert!(report.power.peak_w > 0.0);
}

#[test]
fn parity_one_shard_chaos_with_profiler() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Low, 60, 2019);
    chaos(&mut exp);
    exp.cluster.profiler = Some(ProfilerConfig::default());
    let (report, trace) = assert_parity(&exp, &sources());
    assert!(report.profiler.is_some(), "profiler cell must report attribution");
    assert!(trace.footer.retries > 0, "actuator loss must surface read-back retries");
}

#[test]
fn parity_two_shards_chaos_blackout() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Medium, 60, 2019);
    exp.cluster.shards = 2;
    exp.cluster.faults = Some(FaultConfig {
        sensor_dropout_p: 0.2,
        actuator_loss_p: 0.3,
        blackouts: vec![(SimTime::from_secs(10), SimTime::from_secs(20))],
        ..FaultConfig::default()
    });
    let (_, trace) = assert_parity(&exp, &sources());
    assert_eq!(trace.slots.len(), 60);
}

/// A topology cell: byte parity, and the guard really pinned. Under
/// chaos the cell has 8 two-node racks, 30 % sensor dropout and a
/// 1-slot staleness window, so whole racks go dark and the blackout
/// guard pins them too.
fn assert_rack_guard_parity(shards: usize, faults: bool) {
    let mut exp = rack_flood_exp(shards);
    if faults {
        chaos(&mut exp);
        let topo = exp.cluster.topology.as_mut().expect("topology cell");
        topo.racks = 8;
        let f = exp.cluster.faults.as_mut().expect("chaos plan");
        f.sensor_dropout_p = 0.3;
        exp.cluster.control.telemetry_staleness_slots = 1;
    }
    let racks = exp.cluster.topology.expect("topology cell").racks;
    let (report, trace) = assert_parity(&exp, &rack_flood(&exp));
    let topo = report.topology.expect("topology configured");
    assert!(topo.guard_slots > 0, "the rack guard must pin: {topo:?}");
    assert!(!faults || topo.blackout_slots > 0, "dark racks must be pinned: {topo:?}");
    assert!(trace.slots.iter().all(|s| s.sample.rack_power_w.len() == racks));
}

#[test]
fn parity_rack_guard_one_shard() {
    assert_rack_guard_parity(1, false);
}

#[test]
fn parity_rack_guard_one_shard_chaos() {
    assert_rack_guard_parity(1, true);
}

#[test]
fn parity_rack_guard_two_shards() {
    assert_rack_guard_parity(2, false);
}

#[test]
fn parity_rack_guard_two_shards_chaos() {
    assert_rack_guard_parity(2, true);
}

#[test]
fn schema_mismatch_is_a_typed_error() {
    let exp = quick_exp(SchemeKind::Capping, BudgetLevel::Medium, 10, 2019);
    let (_, trace) = record_experiment(&exp, &sources());
    let jsonl = trace.to_jsonl();
    let bumped = jsonl.replacen("\"schema\":1", "\"schema\":99", 1);
    assert_ne!(bumped, jsonl, "header must carry the schema field");
    match ControlTrace::from_jsonl_str(&bumped) {
        Err(ConfigError::TraceSchema { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, TRACE_SCHEMA_VERSION);
        }
        other => panic!("expected a typed schema error, got {other:?}"),
    }
}

/// A fresh mock-sysfs tree for one test.
fn sysfs_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("liveplane-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Publish every slot of a recording of `exp` into a mock-sysfs tree,
/// step the daemon over it, and require decision, command-log and
/// footer parity plus a bit-exact sample round trip.
fn assert_sysfs_parity(exp: &ExperimentConfig, sources: &dyn SourceFactory, tag: &str) {
    let (_, trace) = record_experiment(exp, sources);
    let dir = sysfs_dir(tag);

    let writer = MockSysfsWriter::new(&dir);
    let ticks: Vec<SlotTick> = trace
        .slots
        .iter()
        .map(|s| SlotTick { slot: s.slot, now: s.now, missed_deadline: false })
        .collect();
    let mut daemon = LiveDaemon::new(
        exp,
        ManualClock::new(ticks.clone()),
        SysfsTelemetry::new(&dir, exp.cluster.servers),
        SysfsActuation::new(&dir),
    );
    // Interleave: the "sensor agent" publishes each slot, then the
    // daemon ticks — never stale, every slot fresh off the file tree.
    let mut expected_log = String::new();
    for (tick, rec) in ticks.iter().zip(&trace.slots) {
        writer.publish(tick, &rec.sample).expect("publish slot");
        let out = daemon.step().expect("step").expect("a slot outcome");
        assert_eq!(out.disposition, SlotDisposition::Fresh);
        assert_eq!(
            format!("{:?}", out.decisions.as_ref().expect("fresh")),
            format!("{:?}", rec.decisions),
            "sysfs decision parity at slot {}",
            rec.slot
        );
        expected_log.push_str(&render_decision(rec.now, &rec.decisions));
    }
    // Every float survived the file round trip bit-exactly.
    let last = ticks.last().expect("non-empty trace");
    let mut reader = SysfsTelemetry::new(&dir, exp.cluster.servers);
    let sample = reader.sample(last).expect("read published slot");
    let rec_sample = &trace.slots.last().expect("non-empty").sample;
    assert_eq!(format!("{sample:?}"), format!("{rec_sample:?}"), "sysfs sample round trip");
    // The DVFS command journal equals the sim-side rendering.
    let log = std::fs::read_to_string(dir.join("actuate/commands.log")).expect("command log");
    assert_eq!(log, expected_log);
    assert_eq!(format!("{:?}", daemon.summary().footer()), format!("{:?}", trace.footer));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sysfs_backend_round_trips_and_matches_the_trace() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Low, 30, 2019);
    chaos(&mut exp);
    assert_sysfs_parity(&exp, &sources(), "sysfs");
}

#[test]
fn sysfs_backend_round_trips_rack_feeds() {
    let mut exp = rack_flood_exp(2);
    exp.duration = SimDuration::from_secs(15);
    assert_sysfs_parity(&exp, &rack_flood(&exp), "sysfs-racks");
}

/// Publish the first recorded slot of `exp`, let `tamper` edit the
/// tree, and return what the daemon's first step makes of it.
fn step_tampered_tree(
    exp: &ExperimentConfig,
    sources: &dyn SourceFactory,
    tag: &str,
    tamper: impl FnOnce(&std::path::Path),
) -> Result<(), TransportError> {
    let (_, trace) = record_experiment(exp, sources);
    let dir = sysfs_dir(tag);
    let first = &trace.slots[0];
    let tick = SlotTick { slot: first.slot, now: first.now, missed_deadline: false };
    MockSysfsWriter::new(&dir).publish(&tick, &first.sample).expect("publish slot 0");
    tamper(&dir);
    let mut daemon = LiveDaemon::new(
        exp,
        ManualClock::new(vec![tick]),
        SysfsTelemetry::new(&dir, exp.cluster.servers),
        NullActuation,
    );
    let out = daemon.step().map(|_| ());
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn hostile_sysfs_forget_is_a_typed_error() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Low, 10, 2019);
    chaos(&mut exp);
    let err = step_tampered_tree(&exp, &sources(), "forget", |dir| {
        std::fs::write(dir.join("control/forgets"), "99999 full\n").expect("tamper");
    })
    .expect_err("an out-of-range forget must be rejected");
    assert!(matches!(&err, TransportError::Malformed(m) if m.contains("99999")), "{err:?}");
}

#[test]
fn sysfs_rack_feeds_out_of_shape_are_a_typed_error() {
    let mut exp = rack_flood_exp(1);
    exp.duration = SimDuration::from_secs(10);
    let err = step_tampered_tree(&exp, &rack_flood(&exp), "racks", |dir| {
        std::fs::write(dir.join("control/racks"), "3\n").expect("tamper");
    })
    .expect_err("a short rack feed must be rejected");
    assert!(matches!(&err, TransportError::Malformed(m) if m.contains("rack_power_w")), "{err:?}");
}

#[test]
fn replayed_rack_feeds_out_of_shape_are_a_typed_error() {
    let mut exp = rack_flood_exp(1);
    exp.duration = SimDuration::from_secs(10);
    let (_, mut trace) = record_experiment(&exp, &rack_flood(&exp));
    trace.slots[0].sample.rack_power_w.truncate(1);
    let mut daemon = LiveDaemon::new(
        &exp,
        ReplayClock::from_trace(&trace),
        ReplayTelemetry::from_trace(&trace),
        NullActuation,
    );
    let err = daemon.step().expect_err("a short rack feed must be rejected");
    assert!(matches!(&err, TransportError::Malformed(m) if m.contains("rack_power_w")), "{err:?}");
}

#[test]
fn daemon_bridges_stale_slots_then_goes_blind() {
    let mut exp = quick_exp(SchemeKind::AntiDope, BudgetLevel::Low, 60, 2019);
    chaos(&mut exp);
    exp.cluster.profiler = Some(ProfilerConfig::default());
    let (_, trace) = record_experiment(&exp, &sources());
    let dir = sysfs_dir("stale");

    // Publish one slot that throttles a node (so its actuator intent is
    // live, and a re-applied forget would visibly drop it), carrying a
    // crash forget of every node; every later tick finds the counter
    // lagging.
    let first = trace
        .slots
        .iter()
        .find(|s| s.decisions.actions.iter().any(|a| matches!(a, ActionRecord::SetPState { .. })))
        .expect("the flood draws a throttle");
    let mut sample = first.sample.clone();
    sample.forgets =
        (0..exp.cluster.servers).map(|node| Forget { node, kind: ForgetKind::Full }).collect();
    let t0 = SlotTick { slot: first.slot, now: first.now, missed_deadline: false };
    MockSysfsWriter::new(&dir).publish(&t0, &sample).expect("publish the slot");

    let window = exp.cluster.control.telemetry_staleness_slots;
    let slot_d = exp.cluster.control_slot;
    let ticks: Vec<SlotTick> = (0..=window + 1)
        .map(|k| SlotTick { slot: k, now: first.now + slot_d * k, missed_deadline: k > 0 })
        .collect();
    let mut daemon = LiveDaemon::new(
        &exp,
        ManualClock::new(ticks.clone()),
        SysfsTelemetry::new(&dir, exp.cluster.servers),
        NullActuation,
    );
    let summary = daemon.run().expect("stale slots are handled, not errors");
    let dispositions: Vec<SlotDisposition> =
        summary.journal.iter().map(|o| o.disposition).collect();
    assert_eq!(dispositions[0], SlotDisposition::Fresh);
    // Within the window (boundary inclusive) the held sample bridges...
    for (k, d) in dispositions.iter().enumerate().take(window as usize + 1).skip(1) {
        assert_eq!(*d, SlotDisposition::Bridged, "slot {k} within the window");
    }
    // ...one slot past it the daemon is blind and skips the pass.
    assert_eq!(dispositions[window as usize + 1], SlotDisposition::Blind);
    assert_eq!(summary.bridged_slots, window);
    assert_eq!(summary.blind_slots, 1);
    assert_eq!(summary.missed_deadlines, window + 1);
    assert_eq!(summary.slots, window + 1, "fresh + bridged passes");
    std::fs::remove_dir_all(&dir).ok();

    // The bridged passes equal fresh passes over the held sample with
    // its forgets stripped: slot 0's forgets are applied once, never
    // again.
    let mut fed = trace.clone();
    fed.slots = (0..=window)
        .map(|k| {
            let mut rec = first.clone();
            rec.slot = k;
            rec.now = ticks[k as usize].now;
            rec.sample = sample.clone();
            if k > 0 {
                rec.sample.forgets.clear();
            }
            rec
        })
        .collect();
    let fresh = LiveDaemon::new(
        &exp,
        ReplayClock::from_trace(&fed),
        ReplayTelemetry::from_trace(&fed),
        NullActuation,
    )
    .run()
    .expect("replay transports cannot fail");
    assert_eq!(fresh.slots, window + 1);
    for (k, (bridged, fresh)) in summary.journal.iter().zip(&fresh.journal).enumerate() {
        assert_eq!(
            format!("{:?}", (&bridged.view, &bridged.decisions)),
            format!("{:?}", (&fresh.view, &fresh.decisions)),
            "slot {k}"
        );
    }
}

#[test]
fn replay_telemetry_exhaustion_ends_the_run_cleanly() {
    let exp = quick_exp(SchemeKind::Shaving, BudgetLevel::Medium, 10, 2019);
    let (_, trace) = record_experiment(&exp, &sources());
    let mut ticks: Vec<SlotTick> = trace
        .slots
        .iter()
        .map(|s| SlotTick { slot: s.slot, now: s.now, missed_deadline: false })
        .collect();
    let last = *ticks.last().expect("non-empty");
    ticks.push(SlotTick {
        slot: last.slot + 1,
        now: last.now + exp.cluster.control_slot,
        missed_deadline: false,
    });
    let mut daemon = LiveDaemon::new(
        &exp,
        ManualClock::new(ticks),
        ReplayTelemetry::from_trace(&trace),
        NullActuation,
    );
    let summary = daemon.run().expect("exhaustion is a clean end");
    assert_eq!(summary.slots, trace.slots.len() as u64);
    assert_eq!(format!("{:?}", summary.footer()), format!("{:?}", trace.footer));
}
