//! COMET — a cross-layer optimized optical phase-change main memory.
//!
//! Reproduction of the DATE 2024 paper's primary contribution: a
//! multi-bank, WDM×MDM-multiplexed main memory whose cells are GST patches
//! on SOI waveguides with microring access gating, GST-switch subarray
//! selection, SOA-based loss recovery, LUT-driven gain trimming, and the
//! Eq. (1)–(6) address mapping.
//!
//! Layer map (each backed by its own module):
//!
//! * [`CometConfig`] — the `B × S_r × M_r × M_c × b` architecture and its
//!   validation (Section III.C / IV.A), carrying a
//!   [`photonic::CellModelMode`] that selects between the paper's
//!   transcribed cell constants and the physics-derived cell model for
//!   every codec/LUT/power computation below;
//! * [`CometTiming`] — Table II timing, derivable from the physics layer;
//! * [`AddressMapper`] — Eqs. (1)–(6);
//! * [`GainLut`] — loss-aware SOA gain trimming (52/12/46-entry LUTs);
//! * [`CometPowerModel`] / [`PowerStack`] — the Fig. 7/8 power stacks;
//! * [`CometDevice`] — a [`memsim::MemoryDevice`] for trace-driven
//!   evaluation (Fig. 9);
//! * [`LaserPolicy`] / [`LaserPowerManager`] — run-time laser power
//!   management (the Section IV.C future-work extension, after \[43]);
//! * [`CometMemory`] — a functional byte-addressable memory over MLC
//!   subarrays with the lossy optical read path;
//! * [`LevelCodec`], [`encode_bytes`]/[`decode_levels`], [`Subarray`] —
//!   the functional cell primitives shared with the COSMOS baseline.
//!
//! # Quick start
//!
//! ```
//! use comet::{CometConfig, CometMemory, CometPowerModel};
//!
//! let config = CometConfig::comet_4b();
//! config.validate()?;
//!
//! // Store and retrieve data through the optical read path:
//! let mut mem = CometMemory::new(config.clone());
//! mem.write(0, b"COMET");
//! assert_eq!(mem.read(0, 5), b"COMET");
//!
//! // And inspect the power stack the architecture costs:
//! let stack = CometPowerModel::new(config).stack();
//! println!("{stack}");
//! # Ok::<(), comet::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
mod cell;
mod device;
mod endurance;
mod laser;
mod lut;
mod mapping;
mod memory;
mod power;
mod reliability;
mod timing;

pub use arch::{CometConfig, ConfigError};
pub use cell::{decode_levels, encode_bytes, LevelCodec, Subarray};
pub use device::CometDevice;
pub use endurance::{EnduranceModel, StartGapRemapper, WearTracker};
pub use laser::{LaserPolicy, LaserPowerManager, WindowedPolicy};
pub use lut::{paper_loss_tolerance, GainLut};
pub use mapping::{AddressMapper, CometAddress};
pub use memory::CometMemory;
pub use power::{CometPowerModel, PowerStack};
pub use reliability::{DriftModel, ReadoutReliability};
pub use timing::CometTiming;
