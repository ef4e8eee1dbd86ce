//! Durations, stored internally in seconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration, stored in seconds.
///
/// Distinct from `std::time::Duration` because simulation timing routinely
/// needs sub-nanosecond fractions and negative intermediate values (slack
/// computations), and because we want physics-style arithmetic
/// (`Power * Time = Energy`).
///
/// # Examples
///
/// ```
/// use comet_units::Time;
///
/// let write = Time::from_nanos(170.0);
/// let erase = Time::from_nanos(210.0);
/// assert!((write + erase).as_nanos() == 380.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time(f64);

impl Time {
    /// Zero duration.
    pub const ZERO: Time = Time(0.0);

    /// Creates a duration from seconds.
    pub const fn from_seconds(s: f64) -> Self {
        Time(s)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Time(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Time(us * 1e-6)
    }

    /// Creates a duration from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Time(ns * 1e-9)
    }

    /// Creates a duration from picoseconds.
    pub fn from_picos(ps: f64) -> Self {
        Time(ps * 1e-12)
    }

    /// Duration in seconds.
    pub const fn as_seconds(self) -> f64 {
        self.0
    }

    /// Duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Duration in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Duration in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Duration in picoseconds.
    pub fn as_picos(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// True if the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    fn mul(self, rhs: f64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for f64 {
    type Output = Time;
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Div<f64> for Time {
    type Output = Time;
    fn div(self, rhs: f64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Div<Time> for Time {
    type Output = f64;
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.abs() >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s.abs() >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s.abs() >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{:.3} ns", s * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let t = Time::from_micros(1.6);
        assert!((t.as_nanos() - 1600.0).abs() < 1e-9);
        assert!((t.as_millis() - 0.0016).abs() < 1e-15);
        assert!((Time::from_picos(500.0).as_nanos() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(Time::from_nanos(10.0) < Time::from_micros(1.0));
        assert_eq!(
            Time::from_nanos(170.0).max(Time::from_nanos(210.0)),
            Time::from_nanos(210.0)
        );
    }

    #[test]
    fn ratio_of_times() {
        let r = Time::from_micros(1.6) / Time::from_nanos(170.0);
        assert!((r - 9.411).abs() < 0.01);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Time::from_seconds(1.5)), "1.500 s");
        assert_eq!(format!("{}", Time::from_millis(7.8)), "7.800 ms");
        assert_eq!(format!("{}", Time::from_micros(2.0)), "2.000 us");
        assert_eq!(format!("{}", Time::from_nanos(170.0)), "170.000 ns");
    }
}
