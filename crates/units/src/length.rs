//! Lengths, stored internally in metres.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A length, stored in metres.
///
/// Spans the full range the simulator needs: nanometre-scale device
/// geometry (GST film thickness), micrometre-scale cells and rings, and
/// centimetre-scale waveguide runs for propagation-loss budgets.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
///
/// let cell = Length::from_micrometers(2.0);
/// let per_mm_loss = 0.073; // dB/mm
/// let loss_db = per_mm_loss * cell.as_millimeters();
/// assert!((loss_db - 0.000146).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Length(f64);

impl Length {
    /// Zero length.
    pub const ZERO: Length = Length(0.0);

    /// Creates a length from metres.
    pub const fn from_meters(m: f64) -> Self {
        Length(m)
    }

    /// Creates a length from centimetres.
    pub fn from_centimeters(cm: f64) -> Self {
        Length(cm * 1e-2)
    }

    /// Creates a length from millimetres.
    pub fn from_millimeters(mm: f64) -> Self {
        Length(mm * 1e-3)
    }

    /// Creates a length from micrometres.
    pub fn from_micrometers(um: f64) -> Self {
        Length(um * 1e-6)
    }

    /// Creates a length from nanometres.
    pub fn from_nanometers(nm: f64) -> Self {
        Length(nm * 1e-9)
    }

    /// Length in metres.
    pub const fn as_meters(self) -> f64 {
        self.0
    }

    /// Length in centimetres.
    pub fn as_centimeters(self) -> f64 {
        self.0 * 1e2
    }

    /// Length in millimetres.
    pub fn as_millimeters(self) -> f64 {
        self.0 * 1e3
    }

    /// Length in micrometres.
    pub fn as_micrometers(self) -> f64 {
        self.0 * 1e6
    }

    /// Length in nanometres.
    pub fn as_nanometers(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the larger of two lengths.
    pub fn max(self, other: Length) -> Length {
        Length(self.0.max(other.0))
    }

    /// Returns the smaller of two lengths.
    pub fn min(self, other: Length) -> Length {
        Length(self.0.min(other.0))
    }
}

impl Add for Length {
    type Output = Length;
    fn add(self, rhs: Length) -> Length {
        Length(self.0 + rhs.0)
    }
}

impl AddAssign for Length {
    fn add_assign(&mut self, rhs: Length) {
        self.0 += rhs.0;
    }
}

impl Sub for Length {
    type Output = Length;
    fn sub(self, rhs: Length) -> Length {
        Length(self.0 - rhs.0)
    }
}

impl Mul<f64> for Length {
    type Output = Length;
    fn mul(self, rhs: f64) -> Length {
        Length(self.0 * rhs)
    }
}

impl Mul<Length> for f64 {
    type Output = Length;
    fn mul(self, rhs: Length) -> Length {
        Length(self * rhs.0)
    }
}

impl Div<f64> for Length {
    type Output = Length;
    fn div(self, rhs: f64) -> Length {
        Length(self.0 / rhs)
    }
}

impl Div<Length> for Length {
    type Output = f64;
    fn div(self, rhs: Length) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Length {
    fn sum<I: Iterator<Item = Length>>(iter: I) -> Length {
        iter.fold(Length::ZERO, Add::add)
    }
}

impl fmt::Display for Length {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        if m.abs() >= 1e-2 {
            write!(f, "{:.3} cm", m * 1e2)
        } else if m.abs() >= 1e-3 {
            write!(f, "{:.3} mm", m * 1e3)
        } else if m.abs() >= 1e-6 {
            write!(f, "{:.3} um", m * 1e6)
        } else {
            write!(f, "{:.3} nm", m * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let l = Length::from_nanometers(1550.0);
        assert!((l.as_micrometers() - 1.55).abs() < 1e-12);
        assert!((Length::from_centimeters(1.0).as_millimeters() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let run = Length::from_micrometers(100.0) + Length::from_micrometers(50.0);
        assert!((run.as_micrometers() - 150.0).abs() < 1e-9);
        assert!((run / Length::from_micrometers(50.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Length::from_centimeters(2.0)), "2.000 cm");
        assert_eq!(format!("{}", Length::from_millimeters(2.0)), "2.000 mm");
        assert_eq!(format!("{}", Length::from_micrometers(6.0)), "6.000 um");
        assert_eq!(format!("{}", Length::from_nanometers(480.0)), "480.000 nm");
    }
}
