//! COSMOS — the crossbar OPCM main-memory baseline (Narayan et al., ACM
//! TACO 2022) as re-modeled by the COMET paper (Section IV.B).
//!
//! Two configurations:
//!
//! * [`CosmosConfig::original`] — 4-bit crossbar cells without crosstalk
//!   mitigation; [`run_corruption_experiment`] reproduces the paper's
//!   Fig. 2 data-destruction demonstration on it.
//! * [`CosmosConfig::corrected`] — the paper's fixed-up baseline (5 mW
//!   pulses, b=2 with 9 % level spacing, subarray ports, PCM row switches,
//!   6 SOA arrays per subarray) used in the Fig. 8/9 comparisons via
//!   [`CosmosDevice`] and [`CosmosPowerModel`].
//!
//! The functional [`Crossbar`] models what makes crossbars hard:
//! multiplicative column read-out (hence subtractive reads) and
//! thermo-optic write disturb of adjacent rows.
//!
//! # Quick start
//!
//! ```
//! use cosmos::{run_corruption_experiment, CosmosConfig, TestImage};
//!
//! let image = TestImage::synthetic(32, 16, 16);
//! let report = run_corruption_experiment(&CosmosConfig::original(), &image, 4);
//! assert!(report.pixel_error_rate > 0.1); // Fig. 2: visibly corrupted
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod corruption;
mod crossbar;
mod device;
mod power;

pub use arch::{CosmosConfig, CosmosTiming};
pub use corruption::{run_corruption_experiment, CorruptionReport, TestImage};
pub use crossbar::Crossbar;
pub use device::CosmosDevice;
pub use power::CosmosPowerModel;
