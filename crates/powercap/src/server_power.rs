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

/// Per-server power model parameters.
#[derive(Debug, Clone)]
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
    pub table: PStateTable,
}

impl ServerPowerModel {
    /// The paper's leaf node: 100 W nameplate, 40 W idle, the 13-step
    /// 1.2–2.4 GHz ladder.
    pub fn paper_default() -> Self {
        ServerPowerModel {
            nameplate_w: 100.0,
            idle_w: 40.0,
            idle_freq_fraction: 0.3,
            util_exponent: 0.5,
            table: PStateTable::paper_default(),
        }
    }

    /// Idle power at P-state `p`, watts.
    pub fn idle_power(&self, p: PState) -> f64 {
        let scale = self.idle_freq_fraction * self.table.rel_dyn_power(p)
            + (1.0 - self.idle_freq_fraction);
        self.idle_w * scale
    }

    /// Dynamic power headroom at nominal frequency: nameplate − idle.
    pub(crate) fn dynamic_headroom_w(&self) -> f64 {
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
        let u_eff = utilization.powf(self.util_exponent);
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

    proptest! {
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
