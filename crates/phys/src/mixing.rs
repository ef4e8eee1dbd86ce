//! Effective-medium model for partially crystallized PCM.
//!
//! Intermediate states of an OPCM multi-level cell are mixtures of
//! amorphous and crystalline material. Following the scheme of Wang et al.
//! (paper ref [27]), the effective permittivity of a mixture with
//! crystalline volume fraction `p` obeys the Lorentz–Lorenz relation:
//!
//! ```text
//! (ε_eff − 1)/(ε_eff + 2) = p·(ε_c − 1)/(ε_c + 2) + (1 − p)·(ε_a − 1)/(ε_a + 2)
//! ```
//!
//! solved for `ε_eff`. The resulting complex index interpolates *non*-linearly
//! between the phases, which is why equally spaced transmission levels do
//! **not** correspond to equally spaced crystalline fractions (visible in
//! the paper's Fig. 6).

use crate::lorentz::ComplexIndex;
use crate::materials::{PcmMaterial, Phase};
use crate::Complex;
use comet_units::Length;

/// Mixes two complex permittivities with crystalline fraction `p` using the
/// Lorentz–Lorenz effective-medium relation.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use opcm_phys::{lorentz_lorenz_mix, Complex};
///
/// let eps_a = Complex::new(15.5, 0.001);
/// let eps_c = Complex::new(36.1, 13.4);
/// let mid = lorentz_lorenz_mix(eps_a, eps_c, 0.5);
/// assert!(mid.re > eps_a.re && mid.re < eps_c.re);
/// ```
pub fn lorentz_lorenz_mix(eps_amorphous: Complex, eps_crystalline: Complex, p: f64) -> Complex {
    assert!(
        (0.0..=1.0).contains(&p),
        "crystalline fraction must be in [0,1], got {p}"
    );
    let f = |eps: Complex| (eps - Complex::ONE) / (eps + Complex::new(2.0, 0.0));
    let mixed = f(eps_crystalline) * p + f(eps_amorphous) * (1.0 - p);
    // Invert y = (eps-1)/(eps+2)  =>  eps = (1 + 2y)/(1 - y).
    (Complex::ONE + mixed * 2.0) / (Complex::ONE - mixed)
}

/// The effective complex refractive index of a PCM at crystalline fraction
/// `p` and wavelength `lambda`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
/// use opcm_phys::{effective_index, PcmKind};
///
/// let gst = PcmKind::Gst.material();
/// let lambda = Length::from_nanometers(1550.0);
/// let half = effective_index(&gst, 0.5, lambda);
/// assert!(half.n > 3.94 && half.n < 6.11);
/// ```
pub fn effective_index(material: &PcmMaterial, p: f64, lambda: Length) -> ComplexIndex {
    let eps_a = material.model(Phase::Amorphous).permittivity(lambda);
    let eps_c = material.model(Phase::Crystalline).permittivity(lambda);
    ComplexIndex::from_permittivity(lorentz_lorenz_mix(eps_a, eps_c, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::reference_wavelength;

    fn gst() -> PcmMaterial {
        PcmMaterial::gst()
    }

    #[test]
    fn endpoints_match_pure_phases() {
        let lambda = reference_wavelength();
        let m = gst();
        let a = m.refractive_index(Phase::Amorphous, lambda);
        let c = m.refractive_index(Phase::Crystalline, lambda);
        let p0 = effective_index(&m, 0.0, lambda);
        let p1 = effective_index(&m, 1.0, lambda);
        assert!((p0.n - a.n).abs() < 1e-9 && (p0.kappa - a.kappa).abs() < 1e-9);
        assert!((p1.n - c.n).abs() < 1e-9 && (p1.kappa - c.kappa).abs() < 1e-9);
    }

    #[test]
    fn index_is_monotone_in_fraction() {
        let lambda = reference_wavelength();
        let m = gst();
        let mut last = effective_index(&m, 0.0, lambda);
        for i in 1..=20 {
            let p = i as f64 / 20.0;
            let idx = effective_index(&m, p, lambda);
            assert!(idx.n >= last.n, "n not monotone at p={p}");
            assert!(idx.kappa >= last.kappa, "kappa not monotone at p={p}");
            last = idx;
        }
    }

    #[test]
    fn mixing_is_nonlinear() {
        // Lorentz-Lorenz mixing of high-contrast phases is visibly convex:
        // the midpoint differs from the linear average.
        let lambda = reference_wavelength();
        let m = gst();
        let a = effective_index(&m, 0.0, lambda);
        let c = effective_index(&m, 1.0, lambda);
        let mid = effective_index(&m, 0.5, lambda);
        let linear = 0.5 * (a.n + c.n);
        assert!((mid.n - linear).abs() > 0.01, "expected nonlinearity");
    }

    #[test]
    #[should_panic(expected = "crystalline fraction")]
    fn rejects_invalid_fraction() {
        let _ = effective_index(&gst(), 1.2, reference_wavelength());
    }
}
