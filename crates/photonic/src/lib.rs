//! Silicon-photonic circuit substrate for the COMET reproduction.
//!
//! Models the circuit layer between the device physics (`opcm-phys`) and
//! the memory architecture (`comet` / `cosmos`):
//!
//! * [`CellOpticalModel`] — the cross-layer cell contract: transmission
//!   range, insertion loss and level spacing, provided either by the
//!   paper's transcribed constants ([`PaperCellModel`]) or derived from
//!   the device-physics layer ([`DerivedCellModel`]), selected by
//!   [`CellModelMode`];
//! * [`OpticalParams`] — the paper's Table I loss/power constants;
//! * [`PathElement`] / [`OpticalPath`] — composable loss budgets for laser
//!   power sizing and SOA placement;
//! * [`Microring`] — ring spectral response, FSR/finesse, channel limits;
//! * [`MrTuning`] — the thermal-vs-electro-optic access trade-off;
//! * [`WdmMdmLink`] — wavelength × mode multiplexed bandwidth and the
//!   MDM-degree practicality bound;
//! * [`Laser`] — wall-plug laser power from loss budgets;
//! * [`CrossbarCrosstalk`] — the COSMOS write-disturb failure model;
//! * [`LevelBudget`] / [`Photodetector`] — read-out loss tolerance per bit
//!   density and SNR/BER.
//!
//! # Derived vs paper constants
//!
//! Cell optics enter this layer through the [`CellOpticalModel`] trait,
//! never as free constants. Two providers implement it:
//! [`PaperCellModel::paper_constants`] carries the numbers transcribed
//! from the paper (levels 0.95 → 0.05, ≈6 % spacing at 4 bits), while
//! [`DerivedCellModel::comet_gst`] resolves the same quantities from
//! `opcm-phys`'s calibrated GST transmission model. Evaluation defaults to
//! `paper` so published figures reproduce exactly; the `derived` mode (and
//! the divergence between the two, tabulated by the `fig6_levels`,
//! `fig7_power_comet` and `table1_params` binaries and sweepable as a
//! `comet-lab` campaign axis) is how the cross-layer story stays honest.
//!
//! ```
//! use photonic::{CellModelMode, CellOpticalModel, LevelBudget};
//!
//! // A physics-derived transmission level feeding the read-out budget:
//! let derived = CellModelMode::Derived.model();
//! let top = derived.transmission_levels(2)[0];
//! assert!(top.value() > 0.9, "amorphous GST is nearly transparent");
//! let budget = LevelBudget::for_cell(2, derived.as_ref());
//! // 2-bit read-outs tolerate ~1 dB of uncompensated loss either way:
//! let paper = LevelBudget::for_cell(2, CellModelMode::Paper.model().as_ref());
//! assert!((budget.loss_tolerance.value() - paper.loss_tolerance.value()).abs() < 0.5);
//! ```
//!
//! # Quick start
//!
//! ```
//! use comet_units::Power;
//! use photonic::{Laser, MrTuning, OpticalParams, OpticalPath, PathElement};
//!
//! let params = OpticalParams::table_i();
//! // Access path: coupler, 46 through-rows, the cell-gating MR drop.
//! let mut path = OpticalPath::new();
//! path.push(PathElement::Coupler)
//!     .push_repeated(PathElement::TunedMrThrough(MrTuning::ElectroOptic), 46)
//!     .push(PathElement::TunedMrDrop(MrTuning::ElectroOptic));
//! // 46 rows of EO-MR through-loss ≈ one intra-subarray SOA stage of gain:
//! assert!(path.total_loss(&params).value() > 15.0);
//! let laser = Laser::table_i();
//! let wall_plug = laser.electrical_power_for_path(
//!     Power::from_milliwatts(1.0), &path, &params);
//! assert!(wall_plug.as_milliwatts() > 100.0); // why SOAs are mandatory
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cell;
mod crosstalk;
mod elements;
mod laser;
mod link;
mod mitigation;
mod mr;
mod params;
mod path;
mod readout;

pub use cell::{CellModelMode, CellOpticalModel, DerivedCellModel, PaperCellModel};
pub use crosstalk::CrossbarCrosstalk;
pub use elements::{MrTuning, PathElement};
pub use laser::Laser;
pub use link::{ModePenalty, WdmMdmLink};
pub use mitigation::{FilterOrder, WdmCrosstalkAnalysis};
pub use mr::Microring;
pub use params::OpticalParams;
pub use path::OpticalPath;
pub use readout::{LevelBudget, Photodetector};
