//! Energy accounting.
//!
//! Fig 19 of the paper reports *normalized* energy per power-management
//! scheme, split between utility supply and battery. [`EnergyMeter`]
//! integrates its step-power channels exactly and reports the joules
//! delivered to the load.

use crate::timeseries::TimeWeighted;
use simcore::SimTime;

/// Identifies an energy channel on a meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergySource {
    /// Power drawn from the utility feed.
    Utility,
    /// Power drawn from (discharged by) batteries.
    Battery,
    /// Power spent recharging batteries (counted against utility).
    BatteryCharge,
}

/// Multi-channel exact energy integrator.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    utility: TimeWeighted,
    battery: TimeWeighted,
    charge: TimeWeighted,
}

impl EnergyMeter {
    /// New meter with all channels at zero from `start`.
    pub fn new(start: SimTime) -> Self {
        EnergyMeter {
            utility: TimeWeighted::new(start, 0.0),
            battery: TimeWeighted::new(start, 0.0),
            charge: TimeWeighted::new(start, 0.0),
        }
    }

    /// Set the instantaneous power (watts) on a channel at time `t`.
    pub fn set_power(&mut self, t: SimTime, source: EnergySource, watts: f64) {
        assert!(watts >= 0.0, "negative channel power: {watts}");
        match source {
            EnergySource::Utility => self.utility.set(t, watts),
            EnergySource::Battery => self.battery.set(t, watts),
            EnergySource::BatteryCharge => self.charge.set(t, watts),
        }
    }

    /// Energy drawn on a channel through time `t`, in joules.
    #[cfg(test)]
    pub(crate) fn joules(&self, t: SimTime, source: EnergySource) -> f64 {
        match source {
            EnergySource::Utility => self.utility.integral_until(t),
            EnergySource::Battery => self.battery.integral_until(t),
            EnergySource::BatteryCharge => self.charge.integral_until(t),
        }
    }

    /// Total energy delivered to the load through `t`: utility (net of
    /// charging, which goes to the battery not the load) plus battery
    /// discharge, in joules.
    pub fn load_joules(&self, t: SimTime) -> f64 {
        self.utility.integral_until(t) - self.charge.integral_until(t)
            + self.battery.integral_until(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn utility_only() {
        let mut m = EnergyMeter::new(s(0));
        m.set_power(s(0), EnergySource::Utility, 100.0);
        m.set_power(s(3600), EnergySource::Utility, 0.0);
        assert!((m.joules(s(3600), EnergySource::Utility) - 360_000.0).abs() < 1e-6);
    }

    #[test]
    fn battery_contributes_to_load_not_bill() {
        let mut m = EnergyMeter::new(s(0));
        m.set_power(s(0), EnergySource::Utility, 80.0);
        m.set_power(s(0), EnergySource::Battery, 20.0);
        let t = s(100);
        assert!((m.load_joules(t) - 10_000.0).abs() < 1e-6);
        assert!((m.joules(t, EnergySource::Utility) - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn charging_is_billed_but_not_load() {
        let mut m = EnergyMeter::new(s(0));
        m.set_power(s(0), EnergySource::Utility, 100.0);
        m.set_power(s(0), EnergySource::BatteryCharge, 10.0);
        let t = s(10);
        // Load receives 100 - 10 = 90 W.
        assert!((m.load_joules(t) - 900.0).abs() < 1e-6);
        assert!((m.joules(t, EnergySource::Utility) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn channels_independent() {
        let mut m = EnergyMeter::new(s(0));
        m.set_power(s(0), EnergySource::Battery, 50.0);
        assert!((m.joules(s(10), EnergySource::Battery) - 500.0).abs() < 1e-6);
        assert_eq!(m.joules(s(10), EnergySource::Utility), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative channel power")]
    fn rejects_negative_power() {
        EnergyMeter::new(s(0)).set_power(s(0), EnergySource::Utility, -5.0);
    }

    #[test]
    fn stepwise_profile() {
        let mut m = EnergyMeter::new(s(0));
        m.set_power(s(0), EnergySource::Utility, 100.0);
        m.set_power(s(10), EnergySource::Utility, 300.0);
        m.set_power(s(20), EnergySource::Utility, 50.0);
        assert!((m.joules(s(30), EnergySource::Utility) - (1000.0 + 3000.0 + 500.0)).abs() < 1e-6);
    }
}
