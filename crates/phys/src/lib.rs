//! Phase-change-material physics for optical memory cells.
//!
//! This crate is the device-physics substrate of the COMET reproduction. It
//! replaces the paper's commercial tooling (Ansys Lumerical FDTD + HEAT)
//! with calibrated semi-analytic models, covering Sections II.A–III.B of
//! the paper:
//!
//! * [`LorentzModel`] — Lorentz-oscillator dispersion (n, κ) for
//!   each material phase, anchored to published 1550 nm values (Fig. 3);
//! * [`PcmMaterial`] — GST / GSST / Sb₂Se₃ candidates with
//!   optical and thermal constants;
//! * [`effective_index`] — Lorentz–Lorenz effective medium for
//!   partially crystallized films;
//! * [`CellGeometry`] — SOI strip waveguide and PCM-patch
//!   geometry with a calibrated confinement factor;
//! * [`CellOpticalModel`] — transmission/absorption of the
//!   cell vs crystalline fraction, geometry and wavelength (Fig. 4);
//! * [`CellThermalModel`] — transient melt/crystallize programming
//!   dynamics with latent-heat-buffered melting;
//! * [`ProgramTable`] — the 16-level MLC programming tables of
//!   both case studies (Fig. 6);
//! * [`spectra`](material_spectra) — C-band sweeps for the figures.
//!
//! # Derived vs paper constants
//!
//! This crate is the *source* side of the workspace's cross-layer cell
//! contract. The circuit layer (`photonic`) never reads transmission
//! constants directly: it declares a `CellOpticalModel` **trait**
//! (transmission range, insertion loss, level spacing), and its
//! `DerivedCellModel` provider resolves that contract from this crate's
//! [`CellOpticalModel`] **struct** — `T(p, λ)` and its inverse — at the
//! 1550 nm reference wavelength, with the same crystalline-end guard band
//! [`ProgramTable::generate`] applies. The alternative provider carries
//! the constants transcribed from the paper (levels 0.95 → 0.05), so
//! recalibrating the physics here moves every `derived`-mode result in
//! the architecture layer while `paper`-mode evaluation stays pinned to
//! the publication; the `fig6_levels`/`table1_params` binaries print the
//! divergence between the two.
//!
//! # Quick start
//!
//! ```
//! use comet_units::Length;
//! use opcm_phys::{CellOpticalModel, PcmKind};
//!
//! // Why GST? Highest contrast of the three candidates:
//! let lambda = Length::from_nanometers(1550.0);
//! let contrast = |k: PcmKind| k.material().index_contrast(lambda);
//! assert!(contrast(PcmKind::Gst) > contrast(PcmKind::Gsst));
//!
//! // And the 2 µm GST cell shows ~95% transmission contrast:
//! let cell = CellOpticalModel::comet_gst();
//! assert!(cell.transmission_contrast(lambda) > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cell_optics;
mod complex;
mod lorentz;
mod materials;
mod mixing;
mod program;
mod spectra;
mod thermal;
mod waveguide;

pub use cell_optics::{CellOpticalModel, GeometryContrast};
pub use complex::Complex;
pub use lorentz::{ComplexIndex, LorentzModel, Oscillator};
pub use materials::{
    reference_wavelength, PcmKind, PcmMaterial, Phase, Silicon, ThermalProperties,
};
pub use mixing::{effective_index, lorentz_lorenz_mix};
pub use program::{GenerateTableError, LevelSpec, ProgramMode, ProgramTable, ResetSpec};
pub use spectra::{
    c_band_end, c_band_start, c_band_wavelengths, material_spectra, MaterialSpectrumPoint,
};
pub use thermal::{CellState, CellThermalModel, PulseOutcome, PulseSpec, ThermalParams};
pub use waveguide::{CellGeometry, WaveguideGeometry};
