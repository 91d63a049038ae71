//! Virtual time for the simulation: nanosecond-resolution instants and
//! durations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since the start of
/// the simulation.
///
/// `SimTime` is a newtype over `u64`, so it is `Copy` and cheap to pass by
/// value. Arithmetic with [`SimDuration`] is checked in debug builds and
/// saturating semantics are never silently applied: overflow panics.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::{SimDuration, SimTime};
///
/// let t = SimTime::from_micros(10) + SimDuration::from_nanos(500);
/// assert_eq!(t.as_nanos(), 10_500);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use treadmill_sim_core::SimDuration;
///
/// let d = SimDuration::from_micros(3) * 4;
/// assert_eq!(d.as_micros_f64(), 12.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from microseconds.
    // tml-lint: allow(DEAD001, builds instants in the unit tests of sim-core, cluster and core and in sim-core's doc examples)
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Raw nanoseconds since the simulation origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The instant expressed in microseconds as a float (lossy for very
    /// large values, exact for any realistic simulation length).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The instant expressed in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                // tml-lint: allow(PANIC002, the only service chain is a name-collision edge from SystemTime::duration_since in audit.rs; sim time never reaches the service)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    // Rounded non-negative nanos fit u64 for any realistic duration.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_micros_f64(micros: f64) -> Self {
        if micros <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((micros * 1_000.0).round() as u64)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    // Rounded non-negative nanos fit u64 for any realistic duration.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_nanos_f64(nanos: f64) -> Self {
        if nanos <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(nanos.round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration expressed in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration expressed in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    // Rounded non-negative nanos fit u64 for any realistic duration.
    #[allow(clippy::cast_possible_truncation)]
    pub fn mul_f64(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(2).as_micros_f64(), 2.0);
        assert_eq!(SimDuration::from_millis(3).as_secs_f64(), 0.003);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(5);
        assert_eq!((t + d).as_nanos(), 15_000);
        assert_eq!((t + d) - t, SimDuration::from_micros(5));
        assert_eq!((t - d).as_nanos(), 5_000);
        assert_eq!(d * 3, SimDuration::from_micros(15));
        assert_eq!(d / 5, SimDuration::from_micros(1));
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_on_inversion() {
        let _ = SimTime::from_micros(1).duration_since(SimTime::from_micros(2));
    }

    #[test]
    fn float_constructors_round_and_clamp() {
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_micros_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_nanos_f64(2.4).as_nanos(), 2);
        assert_eq!(SimDuration::from_nanos_f64(2.6).as_nanos(), 3);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(5));
        assert_eq!(d.mul_f64(2.0), SimDuration::from_micros(20));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_micros(1)), "1.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(1500)), "1.500us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
