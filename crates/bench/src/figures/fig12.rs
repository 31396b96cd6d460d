//! Figure 12 — the DOPE attack algorithm in action.
//!
//! The algorithm's feedback loop involves only the attacker and the
//! perimeter defense, so we drive the [`DopeAttacker`](workloads::DopeAttacker) directly against
//! a deflate-style [`Firewall`]: pull its requests, inspect each, feed
//! blocks back, and record the rate staircase — probing overshoot,
//! detection, agent rotation, convergence below the threshold.

use crate::RunMode;
use dcmetrics::export::Table;
use netsim::firewall::{Firewall, FirewallConfig, FirewallVerdict};
use simcore::{SimDuration, SimTime};
use workloads::dope::{DopeConfig, DopePhase};
use workloads::scenario::{ScenarioBuilder, SeedPin};
use workloads::source::{SourceEvent, TrafficSource};
use workloads::service::ServiceKind;

/// Generate the Fig 12 data.
pub(crate) fn run(mode: RunMode) -> Vec<Table> {
    let secs = if mode.quick { 120 } else { 300 };
    let horizon = SimTime::from_secs(secs);
    let bots = 4u32; // loud: probing must overshoot 150 req/s per agent
    let scenario = ScenarioBuilder::new()
        .with_dope(
            DopeConfig {
                victim: ServiceKind::CollaFilt,
                initial_rate: 100.0,
                bots,
                max_rate: 4000.0,
                ..DopeConfig::default()
            },
            0,
        )
        .pinned(50_000, 1 << 40, SeedPin::Xor(0xD09E));
    let mut attacker = scenario
        .dope_twin(0, mode.seed, horizon)
        .expect("the attack starts before the horizon");
    let mut firewall = Firewall::new(SimTime::ZERO, FirewallConfig::default());

    let mut now = SimTime::ZERO;
    let mut sent: u64 = 0;
    while let Some(req) = attacker.next_request(now) {
        now = req.arrival;
        sent += 1;
        if firewall.inspect(now, req.source) == FirewallVerdict::Blocked {
            attacker.feedback(now, SourceEvent::Blocked(req.source));
        }
    }
    // One final poll to settle counters.
    firewall.poll(horizon + SimDuration::from_secs(1));

    let mut t = Table::new(
        "Fig 12: DOPE attack algorithm rate staircase (4 bots, deflate@150 req/s)",
        &["t_s", "aggregate_rps", "per_bot_rps", "detected_this_period"],
    );
    for h in attacker.history() {
        t.push_row(vec![
            Table::fmt_f64(h.at.as_secs_f64()),
            Table::fmt_f64(h.rate),
            Table::fmt_f64(h.rate / bots as f64),
            h.detected.to_string(),
        ]);
    }

    let mut s = Table::new(
        "Fig 12 (outcome)",
        &[
            "requests_sent",
            "blocked_at_perimeter",
            "bans_issued",
            "final_rate_rps",
            "final_per_bot_rps",
            "converged",
        ],
    );
    s.push_row(vec![
        sent.to_string(),
        firewall.blocked_requests().to_string(),
        firewall.bans_issued().to_string(),
        Table::fmt_f64(attacker.rate()),
        Table::fmt_f64(attacker.per_bot_rate()),
        (attacker.phase() == DopePhase::Converged).to_string(),
    ]);
    vec![t, s]
}
