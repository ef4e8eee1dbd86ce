//! C-band wavelength sweeps for the material and cell spectra figures.
//!
//! Fig. 3 plots n and κ of the three PCM candidates over the optical C-band
//! (1530–1565 nm); Section III.B quotes the wavelength dependence of the
//! cell loss (0.073 → 0.067 dB/mm) and a ≤1.4 % transmission-contrast
//! variation. These helpers produce the wavelength grid and the material
//! series; the cell's loss and contrast at each wavelength come from
//! [`CellOpticalModel`](crate::CellOpticalModel).

use crate::lorentz::ComplexIndex;
use crate::materials::{PcmKind, Phase};
use comet_units::Length;

/// Start of the optical C-band.
pub fn c_band_start() -> Length {
    Length::from_nanometers(1530.0)
}

/// End of the optical C-band.
pub fn c_band_end() -> Length {
    Length::from_nanometers(1565.0)
}

/// `count` evenly spaced wavelengths spanning the C-band (inclusive).
///
/// # Panics
///
/// Panics if `count < 2`.
///
/// # Examples
///
/// ```
/// use opcm_phys::c_band_wavelengths;
///
/// let grid = c_band_wavelengths(8);
/// assert_eq!(grid.len(), 8);
/// assert!((grid[0].as_nanometers() - 1530.0).abs() < 1e-9);
/// assert!((grid[7].as_nanometers() - 1565.0).abs() < 1e-9);
/// ```
pub fn c_band_wavelengths(count: usize) -> Vec<Length> {
    assert!(count >= 2, "need at least two sample points");
    let start = c_band_start().as_nanometers();
    let end = c_band_end().as_nanometers();
    (0..count)
        .map(|i| Length::from_nanometers(start + (end - start) * i as f64 / (count - 1) as f64))
        .collect()
}

/// One sample of the Fig. 3 material-spectra sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterialSpectrumPoint {
    /// Material.
    pub kind: PcmKind,
    /// Phase.
    pub phase: Phase,
    /// Wavelength.
    pub wavelength: Length,
    /// Complex index at this point.
    pub index: ComplexIndex,
}

/// Sweeps n and κ for every material and phase across the C-band (Fig. 3).
pub fn material_spectra(samples: usize) -> Vec<MaterialSpectrumPoint> {
    let grid = c_band_wavelengths(samples);
    let mut out = Vec::with_capacity(samples * 6);
    for kind in PcmKind::ALL {
        let material = kind.material();
        for phase in [Phase::Amorphous, Phase::Crystalline] {
            for &lambda in &grid {
                out.push(MaterialSpectrumPoint {
                    kind,
                    phase,
                    wavelength: lambda,
                    index: material.refractive_index(phase, lambda),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_optics::CellOpticalModel;

    #[test]
    fn grid_is_even_and_inclusive() {
        let g = c_band_wavelengths(36);
        assert_eq!(g.len(), 36);
        let step = g[1].as_nanometers() - g[0].as_nanometers();
        for w in g.windows(2) {
            assert!((w[1].as_nanometers() - w[0].as_nanometers() - step).abs() < 1e-9);
        }
    }

    #[test]
    fn material_spectra_cover_all_combinations() {
        let pts = material_spectra(5);
        assert_eq!(pts.len(), 3 * 2 * 5);
        // Every (kind, phase) combination present.
        for kind in PcmKind::ALL {
            for phase in [Phase::Amorphous, Phase::Crystalline] {
                assert!(pts.iter().any(|p| p.kind == kind && p.phase == phase));
            }
        }
    }

    #[test]
    fn cell_loss_falls_across_band() {
        // Paper: 0.073 dB/mm at 1530 nm -> 0.067 dB/mm at 1565 nm.
        let model = CellOpticalModel::comet_gst();
        let loss: Vec<f64> = c_band_wavelengths(8)
            .into_iter()
            .map(|lambda| model.amorphous_loss_per_mm(lambda).value())
            .collect();
        assert!(loss.first().unwrap() > loss.last().unwrap());
        for l in &loss {
            assert!((0.05..=0.09).contains(l));
        }
    }

    #[test]
    fn contrast_variation_within_paper_bound() {
        // Paper: max wavelength-dependent contrast variation 1.4%.
        let model = CellOpticalModel::comet_gst();
        let contrast: Vec<f64> = c_band_wavelengths(8)
            .into_iter()
            .map(|lambda| model.transmission_contrast(lambda))
            .collect();
        let max = contrast.iter().copied().fold(0.0, f64::max);
        let min = contrast.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max - min < 0.02, "contrast varies by {}", max - min);
    }

    #[test]
    #[should_panic(expected = "two sample points")]
    fn rejects_single_sample() {
        let _ = c_band_wavelengths(1);
    }
}
