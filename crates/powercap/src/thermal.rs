//! First-order thermal model with PROCHOT-style protection.
//!
//! DOPE targets "unconventional layer\[s\] of targeted resources (e.g.,
//! energy, power, and cooling)" (Section 1). This module supplies the
//! cooling layer: each node is a first-order thermal RC system,
//!
//! ```text
//!     τ · dT/dt = (T_amb + R_th · P) − T
//! ```
//!
//! integrated *exactly* between events (exponential step), so thermal
//! trajectories are independent of the control-slot length, like the
//! energy accounting. Two protection thresholds mirror real packages:
//!
//! * `throttle_at` — PROCHOT: hardware clamps the P-state (independent of
//!   any software power manager) while hot;
//! * `critical_at` — thermal trip: the node shuts down.
//!
//! A sustained DOPE peak heats the room-facing side of the rack even
//! when breakers hold — one more resource the attacker drains.

use simcore::{SimDuration, SimTime};

/// Thermal protection status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalState {
    /// Below the throttle threshold.
    Nominal,
    /// PROCHOT asserted: hardware frequency clamp active.
    Prochot,
    /// Critical trip: the node has shut down.
    Tripped,
}

/// Thermal parameters and state for one node.
///
/// ```
/// use powercap::thermal::{ThermalNode, ThermalState};
/// use simcore::SimTime;
///
/// let mut node = ThermalNode::paper_default(SimTime::ZERO);
/// assert_eq!(node.state(), ThermalState::Nominal); // starts at ambient
/// // Five minutes at nameplate power soaks past the PROCHOT threshold.
/// let state = node.advance(SimTime::from_secs(300), 100.0);
/// assert_eq!(state, ThermalState::Prochot);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalNode {
    /// Ambient (inlet) temperature, °C.
    pub ambient_c: f64,
    /// Thermal resistance junction→ambient, °C per watt.
    pub r_th_c_per_w: f64,
    /// Thermal time constant.
    pub tau: SimDuration,
    /// PROCHOT threshold, °C.
    pub throttle_at_c: f64,
    /// PROCHOT release (hysteresis), °C.
    pub release_at_c: f64,
    /// Critical trip threshold, °C.
    pub critical_at_c: f64,
    temp_c: f64,
    state: ThermalState,
    last_update: SimTime,
    peak_c: f64,
    prochot_events: u64,
}

impl ThermalNode {
    /// A 100 W-class 1U node: 25 °C inlet, 0.55 °C/W to ambient (steady
    /// state 80 °C at nameplate), 60 s time constant, PROCHOT at 75 °C
    /// with release at 70 °C, trip at 95 °C.
    pub fn paper_default(start: SimTime) -> Self {
        ThermalNode::new(start, 25.0, 0.55, SimDuration::from_secs(60), 75.0, 70.0, 95.0)
    }

    /// Build with explicit parameters, starting at ambient.
    pub fn new(
        start: SimTime,
        ambient_c: f64,
        r_th_c_per_w: f64,
        tau: SimDuration,
        throttle_at_c: f64,
        release_at_c: f64,
        critical_at_c: f64,
    ) -> Self {
        assert!(r_th_c_per_w > 0.0 && !tau.is_zero());
        assert!(release_at_c < throttle_at_c && throttle_at_c < critical_at_c);
        ThermalNode {
            ambient_c,
            r_th_c_per_w,
            tau,
            throttle_at_c,
            release_at_c,
            critical_at_c,
            temp_c: ambient_c,
            state: ThermalState::Nominal,
            last_update: start,
            peak_c: ambient_c,
            prochot_events: 0,
        }
    }

    /// Junction temperature as of the last update, °C.
    #[cfg(test)]
    pub(crate) fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Hottest temperature ever reached.
    pub fn peak_c(&self) -> f64 {
        self.peak_c
    }

    /// Current protection state.
    pub fn state(&self) -> ThermalState {
        self.state
    }

    /// Times PROCHOT asserted.
    pub fn prochot_events(&self) -> u64 {
        self.prochot_events
    }

    /// Steady-state temperature at a constant power draw.
    pub(crate) fn steady_state_c(&self, power_w: f64) -> f64 {
        self.ambient_c + self.r_th_c_per_w * power_w
    }

    /// Advance to `now` assuming the node drew `power_w` (constant)
    /// since the last update, then update the protection state.
    /// Returns the new state.
    pub fn advance(&mut self, now: SimTime, power_w: f64) -> ThermalState {
        assert!(power_w >= 0.0);
        let dt = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        if self.state == ThermalState::Tripped {
            return self.state; // latched until explicitly reset
        }
        if dt > 0.0 {
            // Exact first-order step: T → T_ss + (T − T_ss)·e^(−dt/τ).
            let t_ss = self.steady_state_c(power_w);
            let decay = (-dt / self.tau.as_secs_f64()).exp();
            self.temp_c = t_ss + (self.temp_c - t_ss) * decay;
            self.peak_c = self.peak_c.max(self.temp_c);
        }
        self.state = match self.state {
            ThermalState::Tripped => ThermalState::Tripped,
            _ if self.temp_c >= self.critical_at_c => ThermalState::Tripped,
            ThermalState::Prochot => {
                if self.temp_c <= self.release_at_c {
                    ThermalState::Nominal
                } else {
                    ThermalState::Prochot
                }
            }
            ThermalState::Nominal => {
                if self.temp_c >= self.throttle_at_c {
                    self.prochot_events += 1;
                    ThermalState::Prochot
                } else {
                    ThermalState::Nominal
                }
            }
        };
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn node() -> ThermalNode {
        ThermalNode::paper_default(SimTime::ZERO)
    }

    #[test]
    fn starts_at_ambient() {
        let n = node();
        assert_eq!(n.temp_c(), 25.0);
        assert_eq!(n.state(), ThermalState::Nominal);
        assert_eq!(n.steady_state_c(100.0), 80.0);
    }

    #[test]
    fn heats_toward_steady_state() {
        let mut n = node();
        // One time constant at nameplate: T = 80 + (25−80)e⁻¹ ≈ 59.8 °C.
        n.advance(s(60), 100.0);
        assert!((n.temp_c() - (80.0 - 55.0 * (-1.0f64).exp())).abs() < 1e-9);
        // Five time constants: within 1 % of steady state.
        n.advance(s(300), 100.0);
        assert!((n.temp_c() - 80.0).abs() < 0.5);
    }

    #[test]
    fn nameplate_load_asserts_prochot() {
        let mut n = node();
        let mut state = ThermalState::Nominal;
        for t in 1..=300 {
            state = n.advance(s(t), 100.0);
        }
        assert_eq!(state, ThermalState::Prochot);
        assert_eq!(n.prochot_events(), 1);
        assert!(n.peak_c() > 75.0);
    }

    #[test]
    fn idle_load_never_throttles() {
        let mut n = node();
        for t in 1..=600 {
            assert_eq!(n.advance(s(t), 40.0), ThermalState::Nominal);
        }
        // Steady state at idle: 25 + 0.55·40 = 47 °C.
        assert!((n.temp_c() - 47.0).abs() < 0.2);
    }

    #[test]
    fn prochot_releases_with_hysteresis() {
        let mut n = node();
        for t in 1..=300 {
            n.advance(s(t), 100.0);
        }
        assert_eq!(n.state(), ThermalState::Prochot);
        // Cool at idle: still Prochot until 70 °C, then Nominal.
        let mut released_at = None;
        for t in 301..=600 {
            if n.advance(s(t), 40.0) == ThermalState::Nominal {
                released_at = Some(t);
                break;
            }
        }
        let released_at = released_at.expect("should release");
        // At the release instant the temperature is at/under 70 °C.
        assert!(n.temp_c() <= 70.0 + 1e-9, "released at {} °C", n.temp_c());
        assert!(released_at > 300);
    }

    #[test]
    fn critical_trip_latches() {
        let mut n = ThermalNode::new(
            SimTime::ZERO,
            25.0,
            1.0, // 125 °C steady state at 100 W
            SimDuration::from_secs(30),
            75.0,
            70.0,
            95.0,
        );
        for t in 1..=300 {
            n.advance(s(t), 100.0);
        }
        assert_eq!(n.state(), ThermalState::Tripped);
        // Cooling does not un-trip.
        n.advance(s(900), 0.0);
        assert_eq!(n.state(), ThermalState::Tripped);
    }

    proptest! {
        /// Temperature stays within [ambient, steady-state(max power)]
        /// for any piecewise-constant power program, and the exponential
        /// update is step-size invariant (same endpoint whether advanced
        /// in one step or many).
        #[test]
        fn prop_bounded_and_step_invariant(
            powers in proptest::collection::vec(0.0f64..100.0, 1..20),
            step_s in 1u64..120,
        ) {
            let mut fine = ThermalNode::paper_default(SimTime::ZERO);
            let mut coarse = ThermalNode::paper_default(SimTime::ZERO);
            let mut t = 0u64;
            for &p in &powers {
                // Coarse: one jump over the whole segment.
                coarse.advance(s(t + step_s), p);
                // Fine: 1 s steps over the same segment.
                for dt in 1..=step_s {
                    fine.advance(s(t + dt), p);
                }
                t += step_s;
                prop_assert!((fine.temp_c() - coarse.temp_c()).abs() < 1e-6);
                prop_assert!(fine.temp_c() >= 25.0 - 1e-9);
                prop_assert!(fine.temp_c() <= fine.steady_state_c(100.0) + 1e-9);
            }
        }
    }
}
