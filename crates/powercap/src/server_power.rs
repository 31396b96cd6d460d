//! The server power model.
//!
//! Decomposes node power into an idle floor plus a dynamic component that
//! depends on frequency, utilization, and *what* is running:
//!
//! ```text
//! P(p, u, load) = P_idle(p) + u^e · intensity · s(p, γ) · (P_name − P_idle_max)
//!      s(p, γ)  = γ · rel_dyn_power(p) + (1 − γ)
//! ```
//!
//! The utilization exponent `e < 1` gives the concave power-vs-load curve
//! every SPECpower run shows: the first busy threads wake the uncore,
//! caches and memory, so power climbs steeply at low utilization and
//! flattens toward nameplate. This concavity is load-bearing for the
//! paper's threat: a flood can push *power* to the nameplate while the
//! CPUs still have queueing headroom — power saturates before latency
//! does (compare Figs 4 and 16).
//!
//! * `intensity ∈ (0, 1]` — how hard the workload drives the package at
//!   full frequency (Colla-Filt ≈ 1, a volume flood ≈ 0.3). This is the
//!   per-request "power demand" axis of Figures 4–5.
//! * `γ ∈ [0, 1]` — how much of the dynamic power responds to DVFS.
//!   CPU-bound kernels (γ high) get big savings per step; memory-bound
//!   kernels like K-means (γ low) barely save — which is exactly why the
//!   paper observes K-means forcing the deepest V/F cuts (Fig 6-b).

use crate::pstate::{PState, PStateTable};

/// Per-server power model parameters. Every server of the paper's
/// testbed is the same, so the model is held once, in a `static`
/// ([`ServerPowerModel::paper_default`]).
#[derive(Debug)]
pub struct ServerPowerModel {
    /// Nameplate (max) power at full frequency and full load, watts.
    pub nameplate_w: f64,
    /// Idle power at nominal frequency, watts.
    pub idle_w: f64,
    /// Fraction of idle power that scales with frequency (leakage and
    /// uncore clocks); the rest is static (fans, disks, NIC).
    pub idle_freq_fraction: f64,
    /// Concavity of the power-vs-utilization curve (`u^e`), `0 < e ≤ 1`.
    pub util_exponent: f64,
    /// The DVFS ladder this server runs.
    pub table: &'static PStateTable,
}

/// The paper's leaf node.
static PAPER_SERVER: ServerPowerModel = ServerPowerModel {
    nameplate_w: 100.0,
    idle_w: 40.0,
    idle_freq_fraction: 0.3,
    util_exponent: 0.5,
    table: PStateTable::paper_default(),
};

/// Per-server inputs to the uniform capping search
/// ([`ServerPowerModel::state_for_budget`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// Busy-core fraction in `[0, 1]`.
    pub utilization: f64,
    /// Aggregate power intensity of the resident workload in `[0, 1]`.
    pub intensity: f64,
    /// Aggregate DVFS power sensitivity of the resident workload.
    pub gamma: f64,
}

impl ServerPowerModel {
    /// The paper's leaf node: 100 W nameplate, 40 W idle, the 13-step
    /// 1.2–2.4 GHz ladder.
    pub fn paper_default() -> &'static ServerPowerModel {
        &PAPER_SERVER
    }

    /// Idle power at P-state `p`, watts.
    pub fn idle_power(&self, p: PState) -> f64 {
        let scale = self.idle_freq_fraction * self.table.rel_dyn_power(p)
            + (1.0 - self.idle_freq_fraction);
        self.idle_w * scale
    }

    /// Dynamic power headroom at nominal frequency: nameplate − idle.
    pub fn dynamic_headroom_w(&self) -> f64 {
        self.nameplate_w - self.idle_w
    }

    /// DVFS sensitivity factor `s(p, γ)` in `(0, 1]`.
    #[inline]
    pub fn dvfs_factor(&self, p: PState, gamma: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&gamma));
        gamma * self.table.rel_dyn_power(p) + (1.0 - gamma)
    }

    /// Instantaneous node power, watts.
    ///
    /// * `p` — current P-state
    /// * `utilization` — busy-core fraction in `[0, 1]`
    /// * `intensity` — workload power intensity in `[0, 1]`
    /// * `gamma` — workload DVFS power sensitivity in `[0, 1]`
    pub fn power(&self, p: PState, utilization: f64, intensity: f64, gamma: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&utilization), "util={utilization}");
        debug_assert!((0.0..=1.0).contains(&intensity), "intensity={intensity}");
        // An idle and a saturated node are the common cases, and there
        // `u^e` is exactly 0 and 1: skip the libm call.
        let u_eff = if utilization == 0.0 {
            0.0
        } else if utilization == 1.0 {
            1.0
        } else {
            utilization.powf(self.util_exponent)
        };
        self.idle_power(p)
            + u_eff * intensity * self.dvfs_factor(p, gamma) * self.dynamic_headroom_w()
    }

    /// The highest P-state whose worst-case power (`u = 1`) with the given
    /// workload character stays at or below `cap_w`. Returns the floor
    /// state when even it violates the cap (the governor can do no more).
    pub fn state_for_cap(&self, cap_w: f64, intensity: f64, gamma: f64) -> PState {
        for i in (0..self.table.len()).rev() {
            let p = PState(i as u8);
            if self.power(p, 1.0, intensity, gamma) <= cap_w + 1e-9 {
                return p;
            }
        }
        self.table.min_state()
    }

    /// Power at full utilization for a workload, at state `p`.
    pub fn full_load_power(&self, p: PState, intensity: f64, gamma: f64) -> f64 {
        self.power(p, 1.0, intensity, gamma)
    }

    /// Predicted aggregate power if every server ran at state `p`.
    pub fn aggregate_power(&self, p: PState, loads: &[ServerLoad]) -> f64 {
        loads
            .iter()
            .map(|l| self.power(p, l.utilization, l.intensity, l.gamma))
            .sum()
    }

    /// The highest *uniform* state whose aggregate power meets
    /// `budget_w`, or the floor state if none does (the caller must then
    /// shed load or use batteries). The search primitive behind the
    /// paper's `Capping` baseline, which "blindly decreases the
    /// executing V/F of all the requests" (Section 6.5).
    pub fn state_for_budget(&self, budget_w: f64, loads: &[ServerLoad]) -> PState {
        for i in (0..self.table.len()).rev() {
            let p = PState(i as u8);
            if self.aggregate_power(p, loads) <= budget_w + 1e-9 {
                return p;
            }
        }
        self.table.min_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nameplate_at_top_state_full_load() {
        let m = ServerPowerModel::paper_default();
        let top = m.table.max_state();
        let p = m.power(top, 1.0, 1.0, 1.0);
        assert!((p - 100.0).abs() < 1e-9, "full power {p}");
    }

    #[test]
    fn idle_at_zero_utilization() {
        let m = ServerPowerModel::paper_default();
        let top = m.table.max_state();
        assert!((m.power(top, 0.0, 1.0, 1.0) - 40.0).abs() < 1e-9);
        // Idle power drops at lower frequency, but only by the
        // frequency-scaled fraction.
        let bottom_idle = m.idle_power(PState(0));
        assert!(bottom_idle < 40.0);
        assert!(bottom_idle > 40.0 * (1.0 - m.idle_freq_fraction));
    }

    #[test]
    fn utilization_curve_is_concave() {
        // Half the cores busy already draw ~71 % of the dynamic headroom
        // (u^0.5), matching measured server power curves.
        let m = ServerPowerModel::paper_default();
        let top = m.table.max_state();
        let half = m.power(top, 0.5, 1.0, 1.0);
        let expected = 40.0 + 0.5f64.sqrt() * 60.0;
        assert!((half - expected).abs() < 1e-9, "half-load power {half}");
        // Strictly above the linear interpolation between idle and full.
        assert!(half > 40.0 + 0.5 * 60.0 + 1.0);
    }

    #[test]
    fn skipping_powf_at_idle_and_saturation_changes_no_bit() {
        // What a node reads: busy/cores for every core count up to 64,
        // at every ladder state, over a spread of load characters.
        let m = ServerPowerModel::paper_default();
        let reference = |p: PState, u: f64, i: f64, g: f64| {
            m.idle_power(p)
                + u.powf(m.util_exponent) * i * m.dvfs_factor(p, g) * m.dynamic_headroom_w()
        };
        let chars = [
            (1.0, 1.0),
            (0.98, 0.9),
            (0.35, 0.55),
            (0.5, 0.0),
            (0.01, 1.0),
        ];
        for s in 0..m.table.len() {
            let p = PState(s as u8);
            for cores in 1..=64u32 {
                for k in 0..=cores {
                    let u = f64::from(k) / f64::from(cores);
                    for (i, g) in chars {
                        let (got, want) = (m.power(p, u, i, g), reference(p, u, i, g));
                        assert_eq!(got.to_bits(), want.to_bits(), "{p:?} u={k}/{cores}");
                    }
                }
            }
            for (i, g) in chars {
                for u in [0.0, 1.0] {
                    assert_eq!(
                        m.power(p, u, i, g).to_bits(),
                        reference(p, u, i, g).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn power_monotone_in_each_argument() {
        let m = ServerPowerModel::paper_default();
        let top = m.table.max_state();
        assert!(m.power(top, 0.5, 1.0, 1.0) < m.power(top, 0.9, 1.0, 1.0));
        assert!(m.power(top, 0.9, 0.5, 1.0) < m.power(top, 0.9, 1.0, 1.0));
        assert!(m.power(PState(0), 0.9, 1.0, 1.0) < m.power(top, 0.9, 1.0, 1.0));
    }

    #[test]
    fn gamma_controls_dvfs_savings() {
        let m = ServerPowerModel::paper_default();
        let top = m.table.max_state();
        let bottom = PState(0);
        // CPU-bound (γ=1): big savings from throttling.
        let cpu_save = m.power(top, 1.0, 1.0, 1.0) - m.power(bottom, 1.0, 1.0, 1.0);
        // Memory-bound (γ=0.3): much smaller savings.
        let mem_save = m.power(top, 1.0, 1.0, 0.3) - m.power(bottom, 1.0, 1.0, 0.3);
        assert!(
            cpu_save > 2.0 * mem_save,
            "cpu_save={cpu_save} mem_save={mem_save}"
        );
    }

    #[test]
    fn state_for_cap_feasible() {
        let m = ServerPowerModel::paper_default();
        // A generous cap keeps nominal frequency.
        assert_eq!(m.state_for_cap(150.0, 1.0, 1.0), m.table.max_state());
        // Nameplate exactly → still nominal.
        assert_eq!(m.state_for_cap(100.0, 1.0, 1.0), m.table.max_state());
        // A tight cap forces a lower state that actually meets it.
        let p = m.state_for_cap(70.0, 1.0, 1.0);
        assert!(p < m.table.max_state());
        assert!(m.full_load_power(p, 1.0, 1.0) <= 70.0 + 1e-9);
    }

    #[test]
    fn state_for_cap_infeasible_returns_floor() {
        let m = ServerPowerModel::paper_default();
        let p = m.state_for_cap(10.0, 1.0, 1.0);
        assert_eq!(p, m.table.min_state());
        // And the floor still exceeds the cap — callers must handle this.
        assert!(m.full_load_power(p, 1.0, 1.0) > 10.0);
    }

    #[test]
    fn memory_bound_needs_deeper_cut_for_same_savings() {
        // The Fig 6-b effect: to save the same watts, K-means (low γ)
        // must drop more P-states than Colla-Filt (high γ).
        let m = ServerPowerModel::paper_default();
        let target = 85.0;
        let p_cpu = m.state_for_cap(target, 1.0, 0.95);
        let p_mem = m.state_for_cap(target, 0.95, 0.45);
        assert!(
            p_mem < p_cpu,
            "memory-bound state {p_mem:?} should be below cpu-bound {p_cpu:?}"
        );
    }

    fn busy(n: usize) -> Vec<ServerLoad> {
        vec![
            ServerLoad {
                utilization: 1.0,
                intensity: 1.0,
                gamma: 0.9,
            };
            n
        ]
    }

    #[test]
    fn full_cluster_at_nameplate() {
        let m = ServerPowerModel::paper_default();
        let top = m.table.max_state();
        assert!((m.aggregate_power(top, &busy(4)) - 400.0).abs() < 1e-6);
    }

    #[test]
    fn generous_budget_keeps_nominal() {
        let m = ServerPowerModel::paper_default();
        assert_eq!(m.state_for_budget(400.0, &busy(4)), PState(12));
    }

    #[test]
    fn tight_budget_steps_down_minimally() {
        let m = ServerPowerModel::paper_default();
        let loads = busy(4);
        let p = m.state_for_budget(340.0, &loads); // Medium-PB on 4×100 W
        assert!(p < PState(12));
        assert!(m.aggregate_power(p, &loads) <= 340.0 + 1e-9);
        // Minimality: one step up violates.
        assert!(m.aggregate_power(PState(p.0 + 1), &loads) > 340.0);
    }

    #[test]
    fn infeasible_budget_floors() {
        let m = ServerPowerModel::paper_default();
        let loads = busy(4);
        let p = m.state_for_budget(50.0, &loads);
        assert_eq!(p, PState(0));
        assert!(m.aggregate_power(p, &loads) > 50.0);
    }

    #[test]
    fn idle_servers_cost_only_idle_power() {
        let m = ServerPowerModel::paper_default();
        let loads = vec![
            ServerLoad {
                utilization: 0.0,
                intensity: 1.0,
                gamma: 0.9,
            };
            4
        ];
        let top = m.table.max_state();
        assert!((m.aggregate_power(top, &loads) - 160.0).abs() < 1e-6);
        assert_eq!(m.state_for_budget(200.0, &loads), top);
    }

    proptest! {
        #[test]
        fn prop_chosen_state_is_maximal_feasible(
            budget in 100.0f64..500.0,
            utils in proptest::collection::vec(0.0f64..1.0, 4),
        ) {
            let m = ServerPowerModel::paper_default();
            let loads: Vec<ServerLoad> = utils
                .iter()
                .map(|&u| ServerLoad { utilization: u, intensity: 0.9, gamma: 0.8 })
                .collect();
            let p = m.state_for_budget(budget, &loads);
            let power = m.aggregate_power(p, &loads);
            if power <= budget + 1e-9 && p != m.table.max_state() {
                prop_assert!(m.aggregate_power(PState(p.0 + 1), &loads) > budget - 1e-6);
            }
        }

        #[test]
        fn prop_power_within_envelope(
            state in 0u8..13,
            util in 0.0f64..1.0,
            intensity in 0.0f64..1.0,
            gamma in 0.0f64..1.0,
        ) {
            let m = ServerPowerModel::paper_default();
            let p = m.power(PState(state), util, intensity, gamma);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= m.nameplate_w + 1e-9);
            prop_assert!(p >= m.idle_power(PState(state)) - 1e-9);
        }

        #[test]
        fn prop_state_for_cap_is_maximal(
            cap in 40.0f64..120.0,
            intensity in 0.1f64..1.0,
            gamma in 0.0f64..1.0,
        ) {
            let m = ServerPowerModel::paper_default();
            let p = m.state_for_cap(cap, intensity, gamma);
            if p != m.table.max_state() {
                // The next state up must violate the cap.
                let up = PState(p.0 + 1);
                prop_assert!(m.full_load_power(up, intensity, gamma) > cap - 1e-9);
            }
        }
    }
}
