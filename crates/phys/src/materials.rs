//! Phase-change material candidates and platform (Si / SiO₂) constants.
//!
//! Section III.A of the paper compares three PCM candidates — Ge₂Sb₂Te₅
//! (GST), Ge₂Sb₂Se₄Te (GSST) and Sb₂Se₃ — on refractive-index contrast and
//! extinction-coefficient contrast across the C-band, then selects GST. The
//! optical anchors below are taken from the integrated-photonics PCM
//! literature the paper builds on (Ríos 2015, Li 2019, Zhang/GSST 2019,
//! Delaney/Sb₂Se₃ 2020); the dispersion around each anchor comes from the
//! Lorentz fit (see [`LorentzModel::anchored`]).

use crate::lorentz::{ComplexIndex, LorentzModel};
use comet_units::{Length, Temperature};
use std::fmt;

/// The two stable phases of a PCM (intermediate states are mixtures —
/// see [`effective_index`](crate::effective_index)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Disordered, low-index, low-loss phase (binary "0" by convention).
    Amorphous,
    /// Ordered, high-index, high-loss phase (binary "1" by convention).
    Crystalline,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Amorphous => write!(f, "amorphous"),
            Phase::Crystalline => write!(f, "crystalline"),
        }
    }
}

/// The PCM candidates evaluated by the paper (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcmKind {
    /// Ge₂Sb₂Te₅ — highest index/extinction contrast; selected for COMET.
    Gst,
    /// Ge₂Sb₂Se₄Te — lower-loss but lower-contrast GST derivative.
    Gsst,
    /// Sb₂Se₃ — ultra-low-loss, low-contrast candidate.
    Sb2Se3,
}

impl PcmKind {
    /// All candidates, in the order the paper plots them.
    pub const ALL: [PcmKind; 3] = [PcmKind::Gst, PcmKind::Gsst, PcmKind::Sb2Se3];

    /// The full material description for this candidate.
    pub fn material(self) -> PcmMaterial {
        match self {
            PcmKind::Gst => PcmMaterial::gst(),
            PcmKind::Gsst => PcmMaterial::gsst(),
            PcmKind::Sb2Se3 => PcmMaterial::sb2se3(),
        }
    }
}

impl fmt::Display for PcmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcmKind::Gst => write!(f, "GST"),
            PcmKind::Gsst => write!(f, "GSST"),
            PcmKind::Sb2Se3 => write!(f, "Sb2Se3"),
        }
    }
}

/// Thermal constants governing phase transitions and heat flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalProperties {
    /// Melting temperature `T_l`; exceeding it erases crystalline order
    /// (melt-quench → amorphous).
    pub melting_point: Temperature,
    /// Crystallization onset temperature `T_g`; between `T_g` and `T_l`
    /// the material crystallizes.
    pub crystallization_onset: Temperature,
    /// Mass density, kg/m³.
    pub density: f64,
    /// Specific heat capacity, J/(kg·K).
    pub specific_heat: f64,
    /// Thermal conductivity, W/(m·K) (phase-averaged).
    pub conductivity: f64,
}

impl ThermalProperties {
    /// Volumetric heat capacity ρ·c_p in J/(m³·K).
    pub fn volumetric_heat_capacity(&self) -> f64 {
        self.density * self.specific_heat
    }

    /// Midpoint of the crystallization window, where the crystallization
    /// rate peaks in the kinetics model.
    pub fn optimal_crystallization_temperature(&self) -> Temperature {
        Temperature::from_kelvin(
            0.5 * (self.crystallization_onset.as_kelvin() + self.melting_point.as_kelvin()),
        )
    }
}

/// A phase-change material: thermal constants plus per-phase optical
/// dispersion models.
///
/// # Examples
///
/// ```
/// use comet_units::Length;
/// use opcm_phys::{PcmKind, Phase};
///
/// let gst = PcmKind::Gst.material();
/// let c = gst.refractive_index(Phase::Crystalline, Length::from_nanometers(1550.0));
/// let a = gst.refractive_index(Phase::Amorphous, Length::from_nanometers(1550.0));
/// assert!(c.n - a.n > 2.0); // GST's famous index contrast
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmMaterial {
    /// Which candidate this is.
    pub kind: PcmKind,
    /// Thermal constants.
    pub thermal: ThermalProperties,
    /// Dispersion model of the amorphous phase.
    pub amorphous: LorentzModel,
    /// Dispersion model of the crystalline phase.
    pub crystalline: LorentzModel,
}

/// The 1550 nm reference wavelength used for all optical anchors.
pub fn reference_wavelength() -> Length {
    Length::from_nanometers(1550.0)
}

impl PcmMaterial {
    /// Ge₂Sb₂Te₅.
    ///
    /// Optical anchors at 1550 nm: amorphous n=3.94 with the very low
    /// residual loss the waveguide-integrated cells of Li et al. (Optica
    /// 2019) rely on (the paper quotes 0.073 dB/mm amorphous cell loss);
    /// crystalline n=6.11, κ=1.10. Thermal constants: T_m ≈ 873 K,
    /// crystallization onset ≈ 428 K.
    pub fn gst() -> Self {
        let anchor = reference_wavelength();
        PcmMaterial {
            kind: PcmKind::Gst,
            thermal: ThermalProperties {
                melting_point: Temperature::from_kelvin(873.0),
                crystallization_onset: Temperature::from_kelvin(428.0),
                density: 6150.0,
                specific_heat: 210.0,
                conductivity: 0.4,
            },
            amorphous: LorentzModel::anchored(3.94, 1.2e-5, anchor, 2.2, 0.3),
            crystalline: LorentzModel::anchored(6.11, 1.10, anchor, 1.4, 0.8),
        }
    }

    /// Ge₂Sb₂Se₄Te.
    ///
    /// Anchors at 1550 nm: amorphous n=3.33 (near-lossless), crystalline
    /// n=5.08, κ=0.30. Higher crystallization onset than GST.
    pub fn gsst() -> Self {
        let anchor = reference_wavelength();
        PcmMaterial {
            kind: PcmKind::Gsst,
            thermal: ThermalProperties {
                melting_point: Temperature::from_kelvin(900.0),
                crystallization_onset: Temperature::from_kelvin(523.0),
                density: 5800.0,
                specific_heat: 220.0,
                conductivity: 0.35,
            },
            amorphous: LorentzModel::anchored(3.33, 1.0e-5, anchor, 2.4, 0.3),
            crystalline: LorentzModel::anchored(5.08, 0.30, anchor, 1.5, 0.8),
        }
    }

    /// Sb₂Se₃.
    ///
    /// Anchors at 1550 nm: amorphous n=3.19, crystalline n=4.05 with an
    /// almost negligible extinction coefficient — the "low-loss, low
    /// contrast" end of the paper's comparison.
    pub fn sb2se3() -> Self {
        let anchor = reference_wavelength();
        PcmMaterial {
            kind: PcmKind::Sb2Se3,
            thermal: ThermalProperties {
                melting_point: Temperature::from_kelvin(885.0),
                crystallization_onset: Temperature::from_kelvin(473.0),
                density: 5840.0,
                specific_heat: 230.0,
                conductivity: 0.36,
            },
            amorphous: LorentzModel::anchored(3.19, 1.0e-6, anchor, 2.5, 0.2),
            crystalline: LorentzModel::anchored(4.05, 0.01, anchor, 2.0, 0.4),
        }
    }

    /// The dispersion model of one phase.
    pub fn model(&self, phase: Phase) -> &LorentzModel {
        match phase {
            Phase::Amorphous => &self.amorphous,
            Phase::Crystalline => &self.crystalline,
        }
    }

    /// The complex refractive index of one phase at a wavelength.
    pub fn refractive_index(&self, phase: Phase, lambda: Length) -> ComplexIndex {
        self.model(phase).refractive_index(lambda)
    }

    /// Refractive-index contrast `n_c − n_a` at a wavelength — the paper's
    /// primary selection metric (higher ⇒ more distinguishable levels).
    pub fn index_contrast(&self, lambda: Length) -> f64 {
        self.refractive_index(Phase::Crystalline, lambda).n
            - self.refractive_index(Phase::Amorphous, lambda).n
    }

    /// Extinction-coefficient contrast `κ_c − κ_a` at a wavelength — the
    /// paper's secondary metric (higher ⇒ more efficient optical writes).
    pub fn extinction_contrast(&self, lambda: Length) -> f64 {
        self.refractive_index(Phase::Crystalline, lambda).kappa
            - self.refractive_index(Phase::Amorphous, lambda).kappa
    }
}

/// Optical/thermal constants of the silicon waveguide core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Silicon;

impl Silicon {
    /// Refractive index at 1550 nm.
    pub const REFRACTIVE_INDEX: f64 = 3.476;
    /// Thermal conductivity, W/(m·K).
    pub const CONDUCTIVITY: f64 = 148.0;
    /// Density, kg/m³.
    pub const DENSITY: f64 = 2329.0;
    /// Specific heat, J/(kg·K).
    pub const SPECIFIC_HEAT: f64 = 713.0;

    /// Volumetric heat capacity, J/(m³·K).
    pub fn volumetric_heat_capacity() -> f64 {
        Self::DENSITY * Self::SPECIFIC_HEAT
    }
}

/// Optical constants of the buried-oxide (SiO₂) cladding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SiliconDioxide;

impl SiliconDioxide {
    /// Refractive index at 1550 nm.
    pub const REFRACTIVE_INDEX: f64 = 1.444;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gst_has_highest_index_contrast() {
        // The core claim behind the paper's material selection (Fig. 3).
        let lambda = reference_wavelength();
        let gst = PcmMaterial::gst().index_contrast(lambda);
        let gsst = PcmMaterial::gsst().index_contrast(lambda);
        let sb = PcmMaterial::sb2se3().index_contrast(lambda);
        assert!(gst > gsst, "GST contrast {gst} should beat GSST {gsst}");
        assert!(gsst > sb, "GSST contrast {gsst} should beat Sb2Se3 {sb}");
    }

    #[test]
    fn gst_has_highest_extinction_contrast() {
        let lambda = reference_wavelength();
        let gst = PcmMaterial::gst().extinction_contrast(lambda);
        let gsst = PcmMaterial::gsst().extinction_contrast(lambda);
        let sb = PcmMaterial::sb2se3().extinction_contrast(lambda);
        assert!(gst > gsst && gsst > sb);
    }

    #[test]
    fn contrast_holds_across_entire_c_band() {
        for nm in [1530.0, 1540.0, 1550.0, 1560.0, 1565.0] {
            let lambda = Length::from_nanometers(nm);
            let gst = PcmMaterial::gst().index_contrast(lambda);
            let gsst = PcmMaterial::gsst().index_contrast(lambda);
            let sb = PcmMaterial::sb2se3().index_contrast(lambda);
            assert!(gst > gsst && gsst > sb, "ordering broken at {nm} nm");
        }
    }

    #[test]
    fn amorphous_is_low_loss() {
        let lambda = reference_wavelength();
        for kind in PcmKind::ALL {
            let idx = kind.material().refractive_index(Phase::Amorphous, lambda);
            assert!(idx.kappa < 1e-3, "{kind} amorphous should be near-lossless");
        }
    }

    #[test]
    fn melting_above_crystallization() {
        for kind in PcmKind::ALL {
            let t = kind.material().thermal;
            assert!(t.melting_point > t.crystallization_onset);
            let opt = t.optimal_crystallization_temperature();
            assert!(opt > t.crystallization_onset && opt < t.melting_point);
        }
    }

    #[test]
    fn anchor_values_reproduced() {
        let gst = PcmMaterial::gst();
        let c = gst.refractive_index(Phase::Crystalline, reference_wavelength());
        assert!((c.n - 6.11).abs() < 1e-6);
        assert!((c.kappa - 1.10).abs() < 1e-6);
        let a = gst.refractive_index(Phase::Amorphous, reference_wavelength());
        assert!((a.n - 3.94).abs() < 1e-6);
    }

    #[test]
    fn kind_display_and_roundtrip() {
        for kind in PcmKind::ALL {
            assert_eq!(kind.material().kind, kind);
        }
        assert_eq!(PcmKind::Gst.to_string(), "GST");
    }
}
