//! Rack UPS battery model for peak shaving.
//!
//! The paper (Section 6.4) simulates "a mini battery which can sustain
//! 2 minutes when supporting all the web application nodes" and uses it
//! two ways: the `Shaving` baseline discharges until empty before falling
//! back to DVFS; `Anti-DOPE` uses it only as a *transition medium* while
//! reconfiguring V/F. The model tracks stored energy exactly, limits
//! charge/discharge rates, and applies a round-trip efficiency on charge.

use crate::error::ConfigError;
use simcore::{SimDuration, SimTime};

/// Battery operating mode at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatteryMode {
    /// Neither charging nor discharging.
    Idle,
    /// Delivering the given watts to the load.
    Discharging(f64),
    /// Absorbing the given watts from the utility feed.
    Charging(f64),
}

/// An energy-exact UPS battery.
///
/// ```
/// use powercap::Battery;
/// use simcore::{SimDuration, SimTime};
///
/// // The paper's battery: 2 minutes at the 400 W rack nameplate.
/// let mut b = Battery::sized_for(SimTime::ZERO, 400.0, SimDuration::from_mins(2));
/// assert_eq!(b.capacity_j(), 48_000.0);
/// let granted = b.start_discharge(SimTime::ZERO, 400.0);
/// assert_eq!(granted, 400.0);
/// b.advance(SimTime::from_secs(60));
/// assert!((b.soc() - 0.5).abs() < 1e-9); // half gone after one minute
/// ```
#[derive(Debug, Clone)]
pub struct Battery {
    /// Usable capacity, joules.
    capacity_j: f64,
    /// Stored energy, joules.
    stored_j: f64,
    /// Maximum discharge power, watts.
    max_discharge_w: f64,
    /// Maximum charge power (at the wall, before efficiency), watts.
    max_charge_w: f64,
    /// Fraction of charging energy that ends up stored.
    charge_efficiency: f64,
    mode: BatteryMode,
    last_update: SimTime,
    /// Lifetime totals for reporting.
    total_discharged_j: f64,
    total_charge_drawn_j: f64,
    /// Number of discharge episodes started (Fig 18 counts discharges
    /// per attack change).
    discharge_episodes: u64,
}

impl Battery {
    /// Build a battery with `capacity_j` joules usable, starting full.
    pub(crate) fn new(
        start: SimTime,
        capacity_j: f64,
        max_discharge_w: f64,
        max_charge_w: f64,
        charge_efficiency: f64,
    ) -> Result<Self, ConfigError> {
        for (what, value) in [
            ("capacity_j", capacity_j),
            ("max_discharge_w", max_discharge_w),
            ("max_charge_w", max_charge_w),
        ] {
            if value <= 0.0 || !value.is_finite() {
                return Err(ConfigError::NonPositive { what, value });
            }
        }
        if !(charge_efficiency > 0.0 && charge_efficiency <= 1.0) {
            return Err(ConfigError::OutOfRange {
                what: "charge_efficiency",
                value: charge_efficiency,
                lo: 0.0,
                hi: 1.0,
            });
        }
        Ok(Battery {
            capacity_j,
            stored_j: capacity_j,
            max_discharge_w,
            max_charge_w,
            charge_efficiency,
            mode: BatteryMode::Idle,
            last_update: start,
            total_discharged_j: 0.0,
            total_charge_drawn_j: 0.0,
            discharge_episodes: 0,
        })
    }

    /// The paper's battery: sized to carry `cluster_nameplate_w` for
    /// `sustain` (2 minutes in the paper), able to discharge at full
    /// cluster power, recharge at 25 % of that, 90 % efficient.
    pub fn sized_for(start: SimTime, cluster_nameplate_w: f64, sustain: SimDuration) -> Self {
        let cap = cluster_nameplate_w * sustain.as_secs_f64();
        Battery::new(start, cap, cluster_nameplate_w, cluster_nameplate_w * 0.25, 0.9)
            .expect("sized_for invariant: positive nameplate and non-zero sustain")
    }

    /// Shrink usable capacity to `keep_fraction` of its current value
    /// (aging / fault injection), clamping stored energy to the new
    /// capacity. The fraction must lie in `(0, 1]`.
    pub fn derate(&mut self, keep_fraction: f64) {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "derate invariant: keep_fraction must lie in (0, 1], got {keep_fraction}"
        );
        self.capacity_j *= keep_fraction;
        self.stored_j = self.stored_j.min(self.capacity_j);
    }

    /// Usable capacity, joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Stored energy as of the last `advance`, joules.
    pub fn stored_j(&self) -> f64 {
        self.stored_j
    }

    /// State of charge in `[0, 1]`.
    pub fn soc(&self) -> f64 {
        self.stored_j / self.capacity_j
    }

    /// True when effectively empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.stored_j <= 1e-9
    }

    /// True when effectively full.
    pub(crate) fn is_full(&self) -> bool {
        self.stored_j >= self.capacity_j - 1e-9
    }

    /// Current mode.
    pub fn mode(&self) -> BatteryMode {
        self.mode
    }

    /// Lifetime energy delivered to the load, joules.
    pub fn total_discharged_j(&self) -> f64 {
        self.total_discharged_j
    }

    /// Lifetime energy drawn from the wall for charging, joules.
    pub fn total_charge_drawn_j(&self) -> f64 {
        self.total_charge_drawn_j
    }

    /// Number of discharge episodes started.
    pub fn discharge_episodes(&self) -> u64 {
        self.discharge_episodes
    }

    /// Integrate the current mode forward to `now`, clamping at the
    /// capacity bounds. Returns the watts actually flowing *after* the
    /// update (0 if the battery hit a bound mid-interval).
    pub fn advance(&mut self, now: SimTime) -> f64 {
        let dt = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        if dt == 0.0 {
            return self.flow_w();
        }
        match self.mode {
            BatteryMode::Idle => {}
            BatteryMode::Discharging(w) => {
                let draw = (w * dt).min(self.stored_j);
                self.stored_j -= draw;
                self.total_discharged_j += draw;
                if self.is_empty() {
                    self.stored_j = 0.0;
                    self.mode = BatteryMode::Idle;
                }
            }
            BatteryMode::Charging(w) => {
                let room = self.capacity_j - self.stored_j;
                let absorbed = (w * self.charge_efficiency * dt).min(room);
                self.stored_j += absorbed;
                self.total_charge_drawn_j += absorbed / self.charge_efficiency;
                if self.is_full() {
                    self.stored_j = self.capacity_j;
                    self.mode = BatteryMode::Idle;
                }
            }
        }
        self.flow_w()
    }

    /// The watts currently flowing (positive for either direction's
    /// magnitude; direction given by [`Battery::mode`]).
    pub(crate) fn flow_w(&self) -> f64 {
        match self.mode {
            BatteryMode::Idle => 0.0,
            BatteryMode::Discharging(w) | BatteryMode::Charging(w) => w,
        }
    }

    /// Request a discharge of `want_w` starting at `now`; the grant is
    /// limited by the discharge rate and emptiness. Returns granted watts.
    pub fn start_discharge(&mut self, now: SimTime, want_w: f64) -> f64 {
        assert!(want_w >= 0.0);
        self.advance(now);
        if self.is_empty() || want_w == 0.0 {
            if matches!(self.mode, BatteryMode::Discharging(_)) {
                self.mode = BatteryMode::Idle;
            }
            return 0.0;
        }
        let grant = want_w.min(self.max_discharge_w);
        if !matches!(self.mode, BatteryMode::Discharging(_)) {
            self.discharge_episodes += 1;
        }
        self.mode = BatteryMode::Discharging(grant);
        grant
    }

    /// Begin charging at up to `offer_w` (watts available at the wall).
    /// Returns the watts actually drawn.
    pub fn start_charge(&mut self, now: SimTime, offer_w: f64) -> f64 {
        assert!(offer_w >= 0.0);
        self.advance(now);
        if self.is_full() || offer_w == 0.0 {
            if matches!(self.mode, BatteryMode::Charging(_)) {
                self.mode = BatteryMode::Idle;
            }
            return 0.0;
        }
        let grant = offer_w.min(self.max_charge_w);
        self.mode = BatteryMode::Charging(grant);
        grant
    }

    /// Stop any flow at `now`.
    pub fn stop(&mut self, now: SimTime) {
        self.advance(now);
        self.mode = BatteryMode::Idle;
    }

    /// How long until the current mode hits a capacity bound (empty when
    /// discharging, full when charging). `None` when idle or the flow is
    /// zero.
    #[cfg(test)]
    pub(crate) fn time_to_bound(&self) -> Option<SimDuration> {
        match self.mode {
            BatteryMode::Idle => None,
            BatteryMode::Discharging(w) if w > 0.0 => {
                Some(SimDuration::from_secs_f64(self.stored_j / w))
            }
            BatteryMode::Charging(w) if w > 0.0 => {
                let room = self.capacity_j - self.stored_j;
                Some(SimDuration::from_secs_f64(
                    room / (w * self.charge_efficiency),
                ))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn batt() -> Battery {
        // 100 W for 120 s = 12 kJ, discharge up to 100 W, charge up to 25 W.
        Battery::new(s(0), 12_000.0, 100.0, 25.0, 0.9).unwrap()
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            Battery::new(s(0), 0.0, 100.0, 25.0, 0.9),
            Err(ConfigError::NonPositive { what: "capacity_j", .. })
        ));
        assert!(matches!(
            Battery::new(s(0), 100.0, -1.0, 25.0, 0.9),
            Err(ConfigError::NonPositive { what: "max_discharge_w", .. })
        ));
        assert!(matches!(
            Battery::new(s(0), 100.0, 100.0, 25.0, 1.5),
            Err(ConfigError::OutOfRange { what: "charge_efficiency", .. })
        ));
    }

    #[test]
    fn derate_shrinks_capacity_and_clamps_stored() {
        let mut b = batt();
        b.derate(0.75);
        assert!((b.capacity_j() - 9_000.0).abs() < 1e-9);
        // Started full: stored clamps down to the faded capacity.
        assert!((b.stored_j() - 9_000.0).abs() < 1e-9);
        assert!(b.is_full());
        // Discharge math follows the new capacity.
        b.start_discharge(s(0), 100.0);
        assert!((b.time_to_bound().unwrap().as_secs_f64() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn sized_for_two_minutes() {
        let b = Battery::sized_for(s(0), 400.0, SimDuration::from_mins(2));
        assert!((b.capacity_j() - 48_000.0).abs() < 1e-9);
        assert!(b.is_full());
    }

    #[test]
    fn discharge_depletes_linearly() {
        let mut b = batt();
        let grant = b.start_discharge(s(0), 100.0);
        assert_eq!(grant, 100.0);
        b.advance(s(60));
        assert!((b.stored_j() - 6_000.0).abs() < 1e-6);
        assert!((b.soc() - 0.5).abs() < 1e-9);
        b.advance(s(120));
        assert!(b.is_empty());
        assert_eq!(b.mode(), BatteryMode::Idle);
        assert!((b.total_discharged_j() - 12_000.0).abs() < 1e-6);
    }

    #[test]
    fn discharge_rate_limited() {
        let mut b = batt();
        let grant = b.start_discharge(s(0), 500.0);
        assert_eq!(grant, 100.0);
    }

    #[test]
    fn overrun_discharge_clamps_at_empty() {
        let mut b = batt();
        b.start_discharge(s(0), 100.0);
        // Advance far past depletion (120 s): only capacity is delivered.
        b.advance(s(1000));
        assert!(b.is_empty());
        assert!((b.total_discharged_j() - 12_000.0).abs() < 1e-6);
    }

    #[test]
    fn charge_respects_efficiency() {
        let mut b = batt();
        b.start_discharge(s(0), 100.0);
        b.advance(s(120)); // empty
        let drawn = b.start_charge(s(120), 25.0);
        assert_eq!(drawn, 25.0);
        b.advance(s(120 + 100));
        // 25 W × 100 s × 0.9 = 2250 J stored; 2500 J drawn.
        assert!((b.stored_j() - 2250.0).abs() < 1e-6);
        assert!((b.total_charge_drawn_j() - 2500.0).abs() < 1e-6);
    }

    #[test]
    fn charge_stops_at_full() {
        let mut b = batt();
        b.start_discharge(s(0), 100.0);
        b.advance(s(10)); // used 1000 J
        b.start_charge(s(10), 25.0);
        // Room = 1000 J; at 22.5 W effective it takes ~44.4 s.
        let ttb = b.time_to_bound().unwrap();
        assert!((ttb.as_secs_f64() - 1000.0 / 22.5).abs() < 1e-6);
        b.advance(s(10) + ttb + SimDuration::from_secs(5));
        assert!(b.is_full());
        assert_eq!(b.mode(), BatteryMode::Idle);
    }

    #[test]
    fn episodes_counted_per_start() {
        let mut b = batt();
        b.start_discharge(s(0), 50.0);
        // Re-targeting an ongoing discharge is not a new episode.
        b.start_discharge(s(5), 80.0);
        assert_eq!(b.discharge_episodes(), 1);
        b.stop(s(10));
        b.start_discharge(s(20), 50.0);
        assert_eq!(b.discharge_episodes(), 2);
    }

    #[test]
    fn discharge_request_when_empty_grants_zero() {
        let mut b = batt();
        b.start_discharge(s(0), 100.0);
        b.advance(s(200));
        assert_eq!(b.start_discharge(s(200), 100.0), 0.0);
    }

    #[test]
    fn time_to_bound_discharging() {
        let mut b = batt();
        b.start_discharge(s(0), 60.0);
        assert!((b.time_to_bound().unwrap().as_secs_f64() - 200.0).abs() < 1e-9);
        assert_eq!(batt().time_to_bound(), None);
    }

    #[test]
    fn stop_freezes_charge_level() {
        let mut b = batt();
        b.start_discharge(s(0), 100.0);
        b.stop(s(30));
        let level = b.stored_j();
        b.advance(s(500));
        assert_eq!(b.stored_j(), level);
    }

    proptest! {
        /// Stored energy never escapes [0, capacity], regardless of the
        /// command sequence.
        #[test]
        fn prop_soc_bounded(cmds in proptest::collection::vec((0u8..3, 0.0f64..200.0, 1u64..300), 1..40)) {
            let mut b = batt();
            let mut t = 0u64;
            for (kind, w, dt) in cmds {
                match kind {
                    0 => { b.start_discharge(s(t), w); }
                    1 => { b.start_charge(s(t), w); }
                    _ => { b.stop(s(t)); }
                }
                t += dt;
                b.advance(s(t));
                prop_assert!(b.stored_j() >= -1e-9, "stored went negative");
                prop_assert!(b.stored_j() <= b.capacity_j() + 1e-9, "stored exceeded capacity");
            }
        }

        /// Energy conservation: capacity change == discharged − stored-from-charge.
        #[test]
        fn prop_energy_conserved(cmds in proptest::collection::vec((0u8..3, 0.0f64..200.0, 1u64..300), 1..40)) {
            let mut b = batt();
            let initial = b.stored_j();
            let mut t = 0u64;
            for (kind, w, dt) in cmds {
                match kind {
                    0 => { b.start_discharge(s(t), w); }
                    1 => { b.start_charge(s(t), w); }
                    _ => { b.stop(s(t)); }
                }
                t += dt;
                b.advance(s(t));
            }
            let stored_from_charge = b.total_charge_drawn_j() * 0.9;
            let expected = initial - b.total_discharged_j() + stored_from_charge;
            prop_assert!((b.stored_j() - expected).abs() < 1e-6,
                "stored={} expected={}", b.stored_j(), expected);
        }
    }
}
