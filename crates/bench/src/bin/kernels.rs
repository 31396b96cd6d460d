//! Control-plane kernel timings: the DPM throttling search (Algorithm 1)
//! at 4, 16, 64 and 256 nodes, the per-slot decision cost no benchmark
//! probe isolates; one EW-RLS observation of a 1–3-URL mix with 4 and
//! with 32 live coordinates (a tracker using a few of its 32
//! coordinates, and a full one), and one Learn pass (`observe_node` per
//! live node, then `end_tick`) over a recorded 1,000-node slot; one
//! whole slot (`ControlPipeline::run_sample`) over that recorded slot's
//! sample, the live daemon's per-tick control cost; and the streaming trace
//! codec over that slot as a header + slot + footer trace, `to_jsonl`
//! and `from_jsonl_str`, the per-slot cost of writing and reading a
//! control trace (both lines also give MB/s); and `Json::parse` of one
//! recorded-slot line of 64 KiB and 1 MiB, the tree decoder that shares
//! the trace codec's lexer; and one firewall
//! `inspect` from flood-flat's population (200k uniform clients at
//! 8,000 req/s plus 400 bots at 4,000 req/s), the perimeter's
//! per-request cost; and one request's churn through a processor-sharing
//! server queue held at depth 1 and at depth 128 (its admission bound):
//! a push, a completion prediction and the completion, the dataplane's
//! per-request queue cost; and one `next_request` of each of
//! flood-flat's two sources (AliOS users at 8,000 req/s peak over 200k
//! clients, and the 4,000 req/s Colla-Filt botnet of 400 bots), the
//! per-request generation cost; and one `ShardedClusterSim::new` in
//! rack-guard's shape (ten nodes a rack, a 5 % suspect pool, the rack
//! guard and retries on) at 10k and 100k nodes, the engine's set-up
//! cost, whose growth from 10k to 100k shows whether it stays linear in
//! node count; and one 60 s Rotating × Stacked cell of the CI smoke
//! grid on the 4-node paper rack, end to end, the per-cell cost of the
//! scenario grid, whose wall time also depends on how many cores run its
//! cells. Each kernel is warmed up while a batch is sized to about
//! one target interval, then timed over several batches; each line is the
//! median time per call with the batches' first and third quartiles, the
//! spread within one process (a difference between two builds also has
//! to clear the spread between processes). An engine build is timed one
//! call at a time, its sources built before the clock starts and the
//! engine dropped after it stops; a grid cell is timed one call at a
//! time too, its result dropped after the clock stops. `--quick` is a
//! smoke run, not a measurement.
//!
//! `cargo run --release -p dope-bench --bin kernels [-- --quick]`

use antidope::dpm::{self, NodeState};
use antidope::jsonl::Json;
use antidope::scheme::Action;
use antidope::{
    record_experiment, BatteryObs, ClusterConfig, ClusterView, ControlPipeline, ControlTrace,
    DecisionRecord, ExperimentConfig, NodeObs, PlaneSample, SchemeKind, ShardedClusterSim,
    SlotRecord, TopologyConfig, TraceRecorder,
};
use dope_bench::grid::{run_cell, AttackRow, DefenseStack, GridConfig};
use netsim::queueing::PsServer;
use netsim::request::{Request, RequestBuilder, SourceId, UrlId};
use netsim::{Firewall, FirewallConfig, RetryConfig};
use powercap::budget::BudgetLevel;
use powercap::monitor::PowerCondition;
use powercap::pstate::{PState, PStateTable};
use powercap::server_power::ServerPowerModel;
use profiler::rls::EwRls;
use profiler::{PowerProfiler, ProfilerConfig};
use simcore::rng::SimRng;
use simcore::{SimDuration, SimTime};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::scenario::ScenarioBuilder;
use workloads::service::ServiceKind;
use workloads::vector::{AttackVectorSpec, SourcePlan, TargetPlan};

/// Nanoseconds per call of `f` over `samples` batches, each sized to
/// last about `target`: the batches' first quartile, median and third
/// quartile, and the batch size.
fn quartiles_ns(target: Duration, samples: usize, mut f: impl FnMut()) -> ([f64; 3], u32) {
    let mut timed = |batch: u32| {
        let t = Instant::now();
        (0..batch).for_each(|_| f());
        t.elapsed()
    };
    let mut batch = 1u32;
    while timed(batch) < target && batch < 1 << 24 {
        batch *= 2;
    }
    let per_call = (0..samples)
        .map(|_| timed(batch).as_nanos() as f64 / f64::from(batch))
        .collect();
    (quartiles(per_call), batch)
}

/// Nanoseconds per call of `f` over `samples` calls, each timed alone
/// around `f`'s timed section (see [`engine_build`]): the first
/// quartile, median and third quartile.
fn quartiles_each_ns(samples: usize, mut f: impl FnMut() -> Duration) -> [f64; 3] {
    f();
    quartiles((0..samples).map(|_| f().as_nanos() as f64).collect())
}

/// The first quartile, median and third quartile of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    [xs[(n - 1) / 4], xs[n / 2], xs[(3 * (n - 1)).div_ceil(4)]]
}

/// rack-guard's experiment and population at `servers` nodes: ten nodes
/// a rack, ten racks a PDU, ten PDUs a row, a 5 % suspect pool, two
/// shards, the rack guard and retries on; 2,000 req/s of users over
/// 100k clients and a 1,100 req/s botnet flood re-aimed at one rack
/// every 30 s from t = 5 s.
fn rack_guard_cell(servers: usize) -> (ExperimentConfig, ScenarioBuilder) {
    let racks = servers / 10;
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Low);
    cluster.servers = servers;
    cluster.suspect_pool_size = servers / 20;
    cluster.shards = 2;
    cluster.topology = Some(TopologyConfig {
        racks,
        pdus: racks / 10,
        rows: racks / 100,
        rack_oversub: 1.0,
        pdu_oversub: 1.0,
        row_oversub: 1.0,
        defend: true,
        ..TopologyConfig::default()
    });
    cluster.retry = Some(RetryConfig::default());
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 1);
    exp.duration = SimDuration::from_secs(60);
    let flood = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 1_100.0)
        .sources(SourcePlan::Botnet { bots: 100 })
        .target(TargetPlan::Concentrating {
            racks,
            url_base: 1_000,
            period: SimDuration::from_secs(30),
        });
    let builder = ScenarioBuilder::new()
        .with_normal_users(2_000.0, 100_000)
        .with_vector(flood, 5);
    (exp, builder)
}

/// One timed engine build of `exp`: its sources are built before the
/// clock starts, and the engine is dropped after it stops.
fn engine_build(exp: &ExperimentConfig, builder: &ScenarioBuilder) -> Duration {
    let sources = builder.build(exp.seed, SimTime::ZERO + exp.duration);
    let t = Instant::now();
    let sim = ShardedClusterSim::new(exp, sources);
    let took = t.elapsed();
    drop(black_box(sim));
    took
}

/// `n` nodes spanning 30–90 % utilization, alternating CPU- and
/// memory-bound mixes, the top quarter suspect.
fn dpm_nodes(n: usize) -> Vec<NodeState> {
    let nominal = PStateTable::paper_default().max_state();
    (0..n)
        .map(|i| NodeState {
            utilization: 0.3 + 0.6 * (i as f64 / n as f64),
            intensity: 0.9,
            gamma: if i % 2 == 0 { 0.85 } else { 0.4 },
            beta: if i % 2 == 0 { 0.9 } else { 0.4 },
            current: nominal,
            suspect: i >= n - n / 4 - 1,
        })
        .collect()
}

/// 64 feature vectors of 1–3 URLs over coordinates `0..live`, with
/// shares summing to 1, and a target for each: a fixed stream for the
/// EW-RLS kernel.
fn rls_stream(live: usize) -> Vec<(Vec<(usize, f64)>, f64)> {
    (0..64usize)
        .map(|k| {
            let urls = 1 + k % 3;
            let x: Vec<(usize, f64)> = (0..urls)
                .map(|j| ((k * 7 + j * 5) % live, 1.0 / urls as f64))
                .collect();
            (x, 0.3 + 0.6 * ((k as f64) * 0.61).sin().abs())
        })
        .collect()
}

/// flood-flat's population: 8,000 req/s of users over 200k clients and
/// a 4,000 req/s Colla-Filt botnet flood of 400 bots from 2 s.
fn flood_flat_population() -> ScenarioBuilder {
    let flood = AttackVectorSpec::open_loop(ServiceKind::CollaFilt, 4_000.0)
        .sources(SourcePlan::Botnet { bots: 400 });
    ScenarioBuilder::new()
        .with_normal_users(8_000.0, 200_000)
        .with_vector(flood, 2)
}

/// A control trace recorded from the trace-replay workload's cluster
/// (1,000 nodes, the profiler on, 8,000 req/s of users and a 4,000 req/s
/// botnet flood from 2 s), cut to its header, the busiest of its first
/// 4 simulated seconds' slots, and its footer.
fn recorded_busiest_slot() -> ControlTrace {
    let mut cluster = ClusterConfig::scaled(BudgetLevel::Medium);
    cluster.servers = 1_000;
    cluster.suspect_pool_size = 50;
    cluster.profiler = Some(ProfilerConfig::default());
    let mut exp = ExperimentConfig::paper_window(cluster, SchemeKind::AntiDope, 1);
    exp.duration = SimDuration::from_secs(4);
    let builder = flood_flat_population();
    let (_, mut trace) = record_experiment(&exp, &|e: &ExperimentConfig| {
        builder.build(e.seed, SimTime::ZERO + e.duration)
    });
    let busy = |s: &SlotRecord| s.sample.nodes.iter().filter(|o| !o.mix.is_empty()).count();
    let busiest = std::mem::take(&mut trace.slots)
        .into_iter()
        .max_by_key(busy)
        .expect("a recorded trace has slots");
    trace.slots.push(busiest);
    trace
}

/// One `Slot` line of a recorded control trace, as
/// `ControlTrace::to_jsonl` writes it, with enough nodes (hardened
/// sensing, learning on) to be about `bytes` long.
fn slot_line(bytes: usize) -> String {
    let exp = ExperimentConfig::paper_window(
        ClusterConfig::paper_rack(BudgetLevel::Medium),
        SchemeKind::AntiDope,
        1,
    );
    let line = |n: usize| {
        let x = |i: usize, k: f64| (i as f64 * k + 0.1).sin().abs();
        let sample = PlaneSample {
            true_power_w: 91.7 * n as f64,
            readings: Some(
                (0..n).map(|i| (i % 50 != 0).then(|| 60.0 + 40.0 * x(i, 0.7))).collect(),
            ),
            nodes: (0..n)
                .map(|i| NodeObs {
                    utilization: x(i, 0.3),
                    intensity: 0.5 + 0.5 * x(i, 1.1),
                    gamma: x(i, 0.9),
                    beta: x(i, 1.3),
                    target: (i % 13) as u8,
                    learn_power_w: Some(55.0 + 50.0 * x(i, 0.5)),
                    mix: vec![(1, 3), ((i % 40) as u16, (i % 7) as u32)],
                })
                .collect(),
            readback: Some((0..n).map(|i| (i % 13) as u8).collect()),
            node_dead: (0..n).map(|i| i % 97 == 0).collect(),
            battery: BatteryObs { soc: 0.8, stored_j: 3.6e5, discharge_w: 0.0, charge_w: 12.5 },
            energy_j: 1.234_567_89e7,
            forgets: Vec::new(),
            rack_power_w: Vec::new(),
        };
        let mut trace = TraceRecorder::new(&exp).finish();
        trace.slots.push(SlotRecord {
            slot: 42,
            now: SimTime::ZERO + SimDuration::from_secs(42),
            sample,
            view: ClusterView {
                condition: PowerCondition::NearBudget,
                observed_w: 91.2 * n as f64,
                coverage: 0.98,
                watchdog_engaged: false,
            },
            decisions: DecisionRecord {
                retries: vec![(0, 12)],
                actions: (0..n / 8)
                    .map(|i| Action::SetPState { node: 8 * i, target: PState((i % 13) as u8) })
                    .collect(),
            },
        });
        let jsonl = trace.to_jsonl();
        jsonl.lines().nth(1).expect("header, slot, footer").to_string()
    };
    let (one, two) = (line(1).len(), line(2).len());
    line(1 + bytes.saturating_sub(one).div_ceil(two - one))
}

/// Seconds of traffic in [`firewall_stream`].
const FIREWALL_STREAM_S: u64 = 20;

/// `FIREWALL_STREAM_S` seconds of flood-flat's perimeter traffic as
/// (offset µs, source): a Poisson stream of 12,000 req/s, a third from
/// 400 bots (10 req/s each, under the 150 req/s rule) and the rest from
/// 200k uniform clients.
fn firewall_stream() -> Vec<(u64, SourceId)> {
    const USERS: u64 = 200_000;
    let mut rng = SimRng::new(2019);
    let mut t = 0.0;
    std::iter::from_fn(|| {
        t += rng.exp(12_000.0);
        let source = if rng.chance(1.0 / 3.0) {
            USERS + rng.below(400)
        } else {
            rng.below(USERS)
        };
        Some(((t * 1e6) as u64, SourceId(source as u32)))
    })
    .take_while(|&(us, _)| us < FIREWALL_STREAM_S * 1_000_000)
    .collect()
}


/// 4,096 requests of 10–500 ms of nominal work and mixed
/// CPU-boundedness, for the PS-queue churn kernel.
fn churn_requests() -> Vec<Request> {
    let ghz = ServerPowerModel::paper_default().table.max_freq_ghz();
    let mut ids = RequestBuilder::new();
    let mut rng = SimRng::new(29);
    (0..4096)
        .map(|_| {
            let work = ghz * rng.range_f64(0.01, 0.5);
            let beta = rng.unit_f64();
            ids.build(UrlId(0), SourceId(0), SimTime::ZERO, work, beta, 0.8, 0.9, false)
        })
        .collect()
}

fn main() -> ExitCode {
    let (target, samples) = match std::env::args().nth(1).as_deref() {
        None => (Duration::from_millis(20), 21),
        Some("--quick") => (Duration::from_millis(1), 3),
        Some(other) => {
            eprintln!("kernels: unknown argument {other:?} (usage: kernels [--quick])");
            return ExitCode::from(2);
        }
    };
    let timed = |name: &str, f: &mut dyn FnMut()| {
        let ([q1, ns, q3], batch) = quartiles_ns(target, samples, f);
        print!(
            "{name:<24} {ns:>12.1} ns/call  [q1 {q1:.1}, q3 {q3:.1}]  \
             (median of {samples} batches of {batch})"
        );
        ns
    };
    let report = |name: &str, f: &mut dyn FnMut()| {
        timed(name, f);
        println!();
    };

    for n in [4usize, 16, 64, 256] {
        let nodes = dpm_nodes(n);
        // 70 W a node is below the fleet's draw: the search must throttle.
        let budget = n as f64 * 70.0;
        report(&format!("dpm_solve/{n}"), &mut || {
            black_box(dpm::solve(black_box(budget), &nodes));
        });
    }
    for live in [4usize, 32] {
        let mut rls = EwRls::new(32, 0.98, 0.5, 25.0);
        rls.set_variance_cap(50.0);
        (live..32).for_each(|i| rls.release(i));
        let stream = rls_stream(live);
        let mut k = 0;
        report(&format!("rls_observe/{live}"), &mut || {
            let (x, y) = &stream[k % stream.len()];
            k += 1;
            black_box(rls.observe(black_box(x), *y));
        });
    }
    let trace = recorded_busiest_slot();
    let slot = &trace.slots[0].sample;
    let mut engine = PowerProfiler::new(ProfilerConfig::default());
    let mut mix = Vec::new();
    report(&format!("learn_pass/{}", slot.nodes.len()), &mut || {
        for (o, &dead) in slot.nodes.iter().zip(&slot.node_dead) {
            if dead {
                continue;
            }
            mix.clear();
            mix.extend(o.mix.iter().map(|&(u, c)| (UrlId(u), c)));
            engine.observe_node(o.learn_power_w, o.utilization, true, &mix);
        }
        black_box(engine.end_tick());
    });
    // The recorded experiment's pipeline, fed the slot once a control
    // slot, as the daemon feeds a fresh sample.
    let exp = &trace.header.experiment;
    let mut pipeline = ControlPipeline::for_experiment(exp);
    let mut now = trace.slots[0].now;
    report(&format!("slot_from_sample/{}", slot.nodes.len()), &mut || {
        now += exp.cluster.control_slot;
        black_box(pipeline.run_sample(now, &exp.cluster, black_box(slot), &slot.forgets));
    });
    let text = trace.to_jsonl();
    let mb_per_s = |ns: f64| {
        println!(
            "  {:.1} MB/s over {} bytes",
            text.len() as f64 / ns * 1e3,
            text.len()
        );
    };
    mb_per_s(timed("trace_codec/encode", &mut || {
        black_box(black_box(&trace).to_jsonl());
    }));
    mb_per_s(timed("trace_codec/decode", &mut || {
        black_box(ControlTrace::from_jsonl_str(black_box(&text)).is_ok());
    }));
    for (name, bytes) in [("jsonl_parse/64k", 64 << 10), ("jsonl_parse/1m", 1 << 20)] {
        let line = slot_line(bytes);
        let ns = timed(name, &mut || {
            black_box(Json::parse(black_box(&line)).is_ok());
        });
        println!("  {:.1} MB/s over {} bytes", line.len() as f64 / ns * 1e3, line.len());
    }
    let requests = churn_requests();
    for depth in [1usize, 128] {
        // A paper server (4 cores at nominal) admitting `depth` requests,
        // filled to one below its bound: each call pushes one request
        // and completes the one due first.
        let ghz = ServerPowerModel::paper_default().table.max_freq_ghz();
        let mut ps = PsServer::new(SimTime::ZERO, 4, ghz, depth);
        let mut feed = requests.iter().cycle();
        let mut next = |at: SimTime| Request { arrival: at, ..feed.next().expect("cycled").clone() };
        for _ in 1..depth {
            ps.push(SimTime::ZERO, next(SimTime::ZERO));
        }
        let mut now = SimTime::ZERO;
        report(&format!("ps_churn/{depth}"), &mut || {
            ps.push(now, next(now));
            let (eta, due) = ps.next_completion().expect("a busy server has a completion");
            now = eta;
            black_box(ps.try_complete(now, due));
        });
    }
    // Users then botnet, over a horizon no kernel run reaches.
    let sources = flood_flat_population().build(1, SimTime::from_secs(10_000_000));
    for (name, mut source) in ["source/normal_users", "source/botnet"]
        .into_iter()
        .zip(sources)
    {
        // Pulled as the engine pulls: each call at the last arrival.
        let mut at = SimTime::ZERO;
        report(name, &mut || {
            let req = source
                .next_request(at)
                .expect("the horizon is out of reach");
            at = req.arrival;
            black_box(req);
        });
    }
    for (name, servers) in [("engine_build/10k", 10_000), ("engine_build/100k", 100_000)] {
        let (exp, builder) = rack_guard_cell(servers);
        let [q1, ns, q3] = quartiles_each_ns(samples, || engine_build(&exp, &builder));
        println!(
            "{name:<24} {ns:>12.1} ns/call  [q1 {q1:.1}, q3 {q3:.1}]  (median of {samples} builds)"
        );
    }
    let cell = GridConfig::smoke(2019);
    let [q1, ns, q3] = quartiles_each_ns(samples, || {
        let t = Instant::now();
        let done = run_cell(&cell, AttackRow::Rotating, DefenseStack::Stacked);
        let took = t.elapsed();
        drop(black_box(done));
        took
    });
    println!(
        "{:<24} {ns:>12.1} ns/call  [q1 {q1:.1}, q3 {q3:.1}]  (median of {samples} cells)",
        "grid_cell"
    );
    let stream = firewall_stream();
    let mut firewall = Firewall::new(SimTime::ZERO, FirewallConfig::default());
    let mut k = 0;
    report("firewall_inspect/200k", &mut || {
        // Replay the stream end to end, shifted by its length each lap
        // so time keeps moving forward.
        let (us, source) = stream[k % stream.len()];
        let lap = (k / stream.len()) as u64 * FIREWALL_STREAM_S * 1_000_000;
        k += 1;
        black_box(firewall.inspect(SimTime::from_micros(lap + us), black_box(source)));
    });
    ExitCode::SUCCESS
}
