//! A minimal complex-number type for optical permittivity arithmetic.
//!
//! The workspace deliberately avoids third-party numeric crates; the Lorentz
//! model and effective-medium mixing only need add/sub/mul/div and the
//! principal square root, so a small local implementation is clearer than a
//! dependency.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use opcm_phys::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert!((z.norm() - 5.0).abs() < 1e-12);
/// let r = z.sqrt();
/// assert!(((r * r) - z).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// The squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude.
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The principal square root (non-negative real part).
    ///
    /// For permittivity → refractive-index conversion the principal branch
    /// is always the physical one (positive `n`).
    pub fn sqrt(self) -> Complex {
        let r = self.norm();
        let re = ((r + self.re) / 2.0).max(0.0).sqrt();
        let im_mag = ((r - self.re) / 2.0).max(0.0).sqrt();
        Complex::new(re, if self.im < 0.0 { -im_mag } else { im_mag })
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        rhs * self
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.4}+{:.4}i", self.re, self.im)
        } else {
            write!(f, "{:.4}-{:.4}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        assert!((q * b - a).norm() < 1e-12);
    }

    #[test]
    fn sqrt_principal_branch() {
        // sqrt of a permittivity-like value must have positive real part.
        let eps = Complex::new(36.0, 13.4);
        let n = eps.sqrt();
        assert!(n.re > 0.0);
        assert!((n * n - eps).norm() < 1e-9);

        // Negative-imaginary input keeps the conjugate symmetry.
        let m = Complex::new(eps.re, -eps.im).sqrt();
        assert!((m - Complex::new(n.re, -n.im)).norm() < 1e-12);
    }

    #[test]
    fn sqrt_of_negative_real() {
        let z = Complex::from_real(-4.0);
        let r = z.sqrt();
        assert!(r.re.abs() < 1e-12);
        assert!((r.im - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Complex::new(1.0, -0.5)), "1.0000-0.5000i");
    }
}
