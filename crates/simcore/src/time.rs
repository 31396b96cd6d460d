//! Simulated time: microsecond-resolution instants and durations.
//!
//! The simulation clock is a plain `u64` count of microseconds since the
//! start of the simulation. We use newtypes rather than `std::time`
//! because simulated time must be cheap to copy and totally ordered, and
//! because mixing wall-clock and simulated time is a classic source of
//! bugs in simulators.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Microseconds in one second.
pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;
/// Microseconds in one millisecond.
pub(crate) const MICROS_PER_MILLI: u64 = 1_000;

/// `x.round() as u64` for a finite `x >= 0` (ties away from zero,
/// saturating at `u64::MAX`), in integer arithmetic instead of a libm
/// call. Below 2^52 the fraction `x - trunc(x)` is exact (Sterbenz);
/// from 2^52 up every `f64` is an integer and the fraction is 0. The
/// carry is added, not branched on: the fraction of a random gap is a
/// coin flip no predictor learns.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// An instant on the simulated clock, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input — simulated time never runs backwards.
    #[cfg(test)]
    #[inline]
    pub(crate) fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid SimTime seconds: {s}");
        SimTime(round_to_u64(s * MICROS_PER_SEC as f64))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[cfg(test)]
    #[inline]
    pub(crate) const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    /// Whole seconds (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`. Panics if `earlier` is later than
    /// `self`; use [`SimTime::checked_since`] when that can happen.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is after self"),
        )
    }

    /// Time elapsed since `earlier`, or `None` if `earlier > self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating addition of a duration.
    #[cfg(test)]
    #[inline]
    pub(crate) fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Panics on negative or
    /// non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid SimDuration seconds: {s}");
        SimDuration(round_to_u64(s * MICROS_PER_SEC as f64))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MILLI
    }

    /// Whole seconds (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True if the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    #[cfg(test)]
    #[inline]
    pub(crate) fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k.is_finite() && k >= 0.0, "invalid duration scale: {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `other` spans fit in `self`.
    #[inline]
    fn div(self, other: SimDuration) -> u64 {
        self.0 / other.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 % other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_secs(), 14);
        assert_eq!((t - d).as_secs(), 6);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(10) / d, 2);
        assert_eq!(SimDuration::from_secs(10) % d, SimDuration::from_secs(2));
    }

    #[test]
    fn since_and_checked() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.since(a).as_secs(), 3);
        assert_eq!(a.checked_since(b), None);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_secs(3)));
    }

    #[test]
    #[should_panic(expected = "earlier is after self")]
    fn since_panics_backwards() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_secs_f64(1.234567);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-9);
        let d = SimDuration::from_secs(10).mul_f64(0.5);
        assert_eq!(d.as_secs(), 5);
    }

    /// `f64::round`, the rounding `from_secs_f64` must reproduce.
    fn libm_micros(s: f64) -> u64 {
        (s * MICROS_PER_SEC as f64).round() as u64
    }

    #[test]
    fn integer_rounding_matches_libm_round_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            two52,
            two52 * 2.0,
            two52 - 0.5,
            two52 - 1.5,
            two52 + 1.0,
            u64::MAX as f64,
            1e300,
        ];
        // Ties, and the 64 floats either side of 2^52 (spacing 0.5 below,
        // 1 above).
        for k in 0..64u32 {
            edges.push(f64::from(k) + 0.5);
            edges.push(f64::from_bits(two52.to_bits() - u64::from(k)));
            edges.push(f64::from_bits(two52.to_bits() + u64::from(k)));
        }
        for x in edges {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        for s in [0.0, -0.0, 0.5e-6, 1.5e-6, 2.5e-6, 0.5e-6f64.next_down()] {
            assert_eq!(
                SimDuration::from_secs_f64(s).as_micros(),
                libm_micros(s),
                "{s:e} s"
            );
            assert_eq!(
                SimTime::from_secs_f64(s).as_micros(),
                libm_micros(s),
                "{s:e} s"
            );
        }
    }

    #[test]
    fn integer_rounding_matches_libm_round_across_twelve_decades() {
        let mut rng = crate::rng::SimRng::new(52);
        for _ in 0..200_000 {
            // 1e-7 s to 1e5 s, log-uniform.
            let s = 10f64.powf(rng.unit_f64() * 12.0 - 7.0);
            let got = SimDuration::from_secs_f64(s).as_micros();
            assert_eq!(got, libm_micros(s), "{s:e} s");
        }
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "t=1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250000s");
    }

    #[test]
    #[should_panic(expected = "invalid SimTime seconds")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
