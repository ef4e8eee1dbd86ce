//! Absolute power, stored internally in watts.

use crate::{DecibelMilliwatts, Decibels, Energy, Time};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute power, stored in watts.
///
/// # Examples
///
/// ```
/// use comet_units::{Power, Time};
///
/// let laser = Power::from_milliwatts(5.0);
/// let pulse_energy = laser * Time::from_nanos(100.0);
/// assert!((pulse_energy.as_picojoules() - 500.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    pub const fn from_watts(w: f64) -> Self {
        Power(w)
    }

    /// Creates a power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    pub fn from_microwatts(uw: f64) -> Self {
        Power(uw * 1e-6)
    }

    /// Power in watts.
    pub const fn as_watts(self) -> f64 {
        self.0
    }

    /// Power in milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Power in microwatts.
    pub fn as_microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// Converts to an absolute level in dBm.
    ///
    /// # Panics
    ///
    /// Panics if the power is not strictly positive (log of zero).
    pub fn to_dbm(self) -> DecibelMilliwatts {
        assert!(self.0 > 0.0, "cannot express non-positive power in dBm");
        DecibelMilliwatts::new(10.0 * self.as_milliwatts().log10())
    }

    /// Power remaining after an optical loss.
    pub fn attenuate(self, loss: Decibels) -> Power {
        Power(self.0 * loss.to_linear())
    }

    /// Power after an optical gain.
    pub fn amplify(self, gain: Decibels) -> Power {
        Power(self.0 * gain.to_linear_gain())
    }

    /// The loss/gain ratio between this power and a reference.
    ///
    /// Positive result = this power is *below* the reference (a loss).
    ///
    /// # Panics
    ///
    /// Panics if either power is non-positive.
    pub fn ratio_to(self, reference: Power) -> Decibels {
        assert!(
            self.0 > 0.0 && reference.0 > 0.0,
            "power ratio requires positive powers"
        );
        Decibels::new(10.0 * (reference.0 / self.0).log10())
    }

    /// Returns the larger of two powers.
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }

    /// Returns the smaller of two powers.
    pub fn min(self, other: Power) -> Power {
        Power(self.0.min(other.0))
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Power> for f64 {
    type Output = Power;
    fn mul(self, rhs: Power) -> Power {
        Power(self * rhs.0)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Div<Power> for Power {
    type Output = f64;
    fn div(self, rhs: Power) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, rhs: Time) -> Energy {
        Energy::from_joules(self.0 * rhs.as_seconds())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w.abs() >= 1.0 {
            write!(f, "{w:.3} W")
        } else if w.abs() >= 1e-3 {
            write!(f, "{:.3} mW", w * 1e3)
        } else {
            write!(f, "{:.3} uW", w * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let p = Power::from_milliwatts(1.4);
        assert!((p.as_watts() - 0.0014).abs() < 1e-15);
        assert!((p.as_microwatts() - 1400.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_roundtrip() {
        let p = Power::from_milliwatts(2.5);
        let back = p.to_dbm().to_power();
        assert!((p.as_watts() - back.as_watts()).abs() < 1e-15);
    }

    #[test]
    fn attenuate_amplify_inverse() {
        let p = Power::from_milliwatts(1.0);
        let g = Decibels::new(15.2);
        let q = p.attenuate(g).amplify(g);
        assert!((p.as_watts() - q.as_watts()).abs() < 1e-15);
    }

    #[test]
    fn ratio_to_matches_attenuation() {
        let input = Power::from_milliwatts(10.0);
        let output = input.attenuate(Decibels::new(4.2));
        let measured = output.ratio_to(input);
        assert!((measured.value() - 4.2).abs() < 1e-9);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(1.0) * Time::from_seconds(2.0);
        assert!((e.as_joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_powers() {
        let total: Power = (0..10).map(|_| Power::from_milliwatts(1.4)).sum();
        assert!((total.as_milliwatts() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Power::from_watts(2.0)), "2.000 W");
        assert_eq!(format!("{}", Power::from_milliwatts(5.0)), "5.000 mW");
        assert_eq!(format!("{}", Power::from_microwatts(4.0)), "4.000 uW");
    }
}
