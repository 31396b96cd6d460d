//! The live control-plane daemon, end to end:
//!
//! ```text
//! # 1. record a control-plane trace from a fixed-seed chaos sim
//! cargo run -p liveplane --example live_daemon -- record /tmp/antidope.jsonl
//!
//! # 2. replay it through the live pipeline and check sim/live parity
//! cargo run -p liveplane --example live_daemon -- replay /tmp/antidope.jsonl
//!
//! # 3. run the wall-clock daemon against a mock-sysfs tree, with a
//! #    deliberately laggy sensor agent (staleness bridging on show);
//! #    press Enter for graceful shutdown
//! cargo run -p liveplane --example live_daemon -- live /tmp/antidope.jsonl 100
//! ```
//!
//! The `live` mode spawns a publisher thread playing the role of a
//! node-local sensor agent: it writes each recorded slot into the
//! RAPL/ACPI-shaped file tree on the wall cadence (third argument,
//! milliseconds per slot, default 100), skipping a beat every seventh
//! slot so the daemon's last-good bridging is visible in the summary.

use antidope::{record_experiment, ControlTrace, ExperimentConfig, SchemeKind, SlotTick};
use liveplane::{
    LiveDaemon, RecordingActuation, ReplayClock, ReplayTelemetry, SysfsActuation, SysfsTelemetry,
    WallClock,
};
use powercap::BudgetLevel;
use simcore::faults::{CrashEvent, FaultConfig};
use simcore::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;
use workloads::{AttackTool, ScenarioBuilder, SeedPin, ServiceKind};

/// The demo experiment: Anti-DOPE under a low budget with chaos faults,
/// 60 control slots, fixed seed.
fn demo_exp() -> ExperimentConfig {
    let mut exp = antidope::testutil::quick_exp(SchemeKind::AntiDope, BudgetLevel::Low, 60, 2019);
    exp.cluster.faults = Some(FaultConfig {
        sensor_dropout_p: 0.2,
        actuator_loss_p: 0.3,
        crashes: vec![CrashEvent { node: 1, at: SimTime::from_secs(20) }],
        reboot_after: SimDuration::from_secs(8),
        ..FaultConfig::default()
    });
    exp
}

/// The demo population: AliOS users plus a Colla-Filt http-load flood
/// from t = 5 s.
fn demo_sources() -> ScenarioBuilder {
    antidope::testutil::users(60.0)
        .with_attack(AttackTool::HttpLoad { rate: 300.0 }, ServiceKind::CollaFilt, 40, 5)
        .pinned(50_000, 1 << 40, SeedPin::Raw)
}

fn record(path: &Path) {
    let exp = demo_exp();
    println!("recording {} control slots (seed {})...", 60, exp.seed);
    let (report, trace) = record_experiment(&exp, &demo_sources());
    trace.write_jsonl(path).expect("write trace");
    println!(
        "wrote {} slots to {} — peak {:.0} W, energy {:.0} J, {} retries",
        trace.slots.len(),
        path.display(),
        trace.footer.peak_true_w,
        trace.footer.energy_j,
        trace.footer.retries,
    );
    println!("sim peak power: {:.0} W", report.power.peak_w);
}

fn replay(path: &Path) {
    let trace = ControlTrace::read_jsonl(path).expect("read trace");
    let exp = trace.header.experiment.clone();
    let mut daemon = LiveDaemon::new(
        &exp,
        ReplayClock::from_trace(&trace),
        ReplayTelemetry::from_trace(&trace),
        RecordingActuation::new(),
    );
    let summary = daemon.run().expect("replay transports cannot fail");
    println!(
        "replayed {} slots: {} actions, {} retries, {} emergency, {} watchdog",
        summary.slots, summary.actions, summary.retries, summary.emergency_slots,
        summary.watchdog_slots,
    );
    let parity = format!("{:?}", summary.footer()) == format!("{:?}", trace.footer);
    println!(
        "sim/live parity: {}",
        if parity { "byte-identical ✓" } else { "MISMATCH ✗" }
    );
    if !parity {
        println!("  sim:  {:?}", trace.footer);
        println!("  live: {:?}", summary.footer());
        std::process::exit(1);
    }
}

fn live(path: &Path, period_ms: u64) {
    let trace = ControlTrace::read_jsonl(path).expect("read trace");
    let exp = trace.header.experiment.clone();
    let dir = std::env::temp_dir().join(format!("antidope-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let period = Duration::from_millis(period_ms);

    // Graceful shutdown: Enter (or EOF) stops the loop before the next
    // tick; the same flag interrupts the wall clock's sleep and the
    // publisher thread.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clock = WallClock::new(period, exp.cluster.control_slot)
        .with_max_slots(trace.slots.len() as u64)
        .with_shutdown(stop.clone());
    let mut daemon = LiveDaemon::new(
        &exp,
        clock,
        SysfsTelemetry::new(&dir, exp.cluster.servers),
        SysfsActuation::new(&dir),
    );
    {
        let stop = stop.clone();
        let daemon_stop = daemon.shutdown_handle();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = std::io::stdin().read_line(&mut line);
            println!("shutdown requested — finishing current slot");
            stop.store(true, Ordering::Relaxed);
            daemon_stop.store(true, Ordering::Relaxed);
        });
    }

    // The "sensor agent": publishes each recorded slot on the wall
    // cadence, oversleeping every 7th slot so some daemon ticks find
    // the tree stale and bridge on the held sample.
    let publisher = {
        let dir = dir.clone();
        let slots: Vec<(SlotTick, antidope::PlaneSample)> = trace
            .slots
            .iter()
            .map(|s| {
                (
                    SlotTick { slot: s.slot, now: s.now, missed_deadline: false },
                    s.sample.clone(),
                )
            })
            .collect();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let writer = liveplane::MockSysfsWriter::new(&dir);
            for (tick, sample) in &slots {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if tick.slot % 7 == 3 {
                    std::thread::sleep(period); // miss a beat
                }
                writer.publish(tick, sample).expect("publish slot");
                std::thread::sleep(period);
            }
        })
    };

    println!(
        "live daemon: {} slots at {period_ms} ms/slot over {} (Enter to stop)",
        trace.slots.len(),
        dir.display()
    );
    let summary = daemon.run().expect("sysfs transports healthy");
    publisher.join().expect("publisher thread");
    println!(
        "processed {} passes ({} bridged, {} blind, {} missed deadlines)",
        summary.slots, summary.bridged_slots, summary.blind_slots, summary.missed_deadlines,
    );
    println!(
        "emitted {} actions, {} retries; peak {:.0} W",
        summary.actions, summary.retries, summary.peak_true_w,
    );
    println!("command journal: {}", dir.join("actuate/commands.log").display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: live_daemon record|replay|live <trace.jsonl> [period_ms]";
    match args.get(1).map(String::as_str) {
        Some("record") => record(&path_arg(&args, usage)),
        Some("replay") => replay(&path_arg(&args, usage)),
        Some("live") => {
            let period = args.get(3).map_or(100, |s| s.parse().expect("period_ms"));
            live(&path_arg(&args, usage), period);
        }
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

fn path_arg(args: &[String], usage: &str) -> PathBuf {
    PathBuf::from(args.get(2).unwrap_or_else(|| {
        eprintln!("{usage}");
        std::process::exit(2);
    }))
}
