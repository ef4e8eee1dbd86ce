//! `comet-data` — the data-content-aware data plane.
//!
//! Until this crate, every write in the stack cost a flat `write_line`
//! energy and requests carried no content, so the biggest PCM lever the
//! literature names — *most written bits don't change* — was invisible to
//! every figure the workspace produces. `comet-data` threads real line
//! payloads through the whole stack and prices writes from them:
//!
//! * [`PayloadSpec`] / [`PayloadGen`] — seeded payload sources with
//!   controllable entropy: all-zero, uniform, sparse in-place updates, a
//!   DOTA transformer-weight distribution (fp16, DeiT init scale via
//!   [`PayloadSpec::transformer`]), and complement-heavy toggling;
//! * [`LineCodec`] — bytes ↔ Gray-coded MLC levels, `bits`-aware, exact
//!   round trip for every width the programming tables support, encoded
//!   by one shift register ([`LineCodec::encode_into`] writes into a
//!   caller's buffer);
//! * [`TransitionCostModel`] — level→level write prices derived from the
//!   physics layer's [`opcm_phys::ProgramTable`] (cumulative pulses along
//!   the programming direction, erase-and-rewrite against it), replacing
//!   the flat constant, and cached as a level × level table when built;
//! * [`DataWriteModel`] — the [`memsim::WritePricer`] implementing the
//!   write-reduction policies of the DCW/Flip-N-Write literature
//!   ([`DataPolicy::Oblivious`] | [`DataPolicy::Dcw`] |
//!   [`DataPolicy::DcwFnw`]).
//!
//! The per-write path is table-driven and allocation-free: it prices in
//! place over the device's stored image, cells are priced by indexing the
//! cost tables, each Flip-N-Write word takes one pass, and every price
//! stays bit-equal to the per-transition definitions (proptested against
//! a reference implementation in `tests/properties.rs`).
//!
//! Integration: `memsim` requests carry an optional, boxed [`memsim::LineData`]
//! and the EPCM device dispatches to a pricer over a backing line store;
//! `comet-serve` tenants source payloads online (and the batch stage
//! merges them on same-line coalescing); `comet-lab` registers the
//! `EPCM-oblivious`/`EPCM-DCW`/`EPCM-DCW-FNW` devices and the
//! policy/entropy axes; `comet-bench`'s `fig_write_energy_vs_entropy`
//! plots write energy per policy across payload entropy and asserts
//! DCW+FNW ≤ DCW ≤ oblivious at every point.
//!
//! # Quick start
//!
//! ```no_run
//! use comet_data::{DataPolicy, DataWriteModel, PayloadSpec};
//! use memsim::{EpcmConfig, EpcmDevice, WritePricer};
//!
//! let pricer = DataWriteModel::gst(4, DataPolicy::Dcw);
//! let mut gen = PayloadSpec::SparseUpdate { flip_fraction: 0.05 }.instantiate(42);
//! let line = gen.next_line(0x80, 64);
//! let priced = pricer.price_write(None, &line);
//! assert!(priced.cost.cells_written <= priced.cost.cells_total);
//!
//! // Or plug it into the simulator wholesale:
//! let _dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(pricer));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod cost;
mod payload;
mod policy;

pub use codec::LineCodec;
pub use cost::{Price, TransitionCostModel};
pub use payload::{attach_payloads, PayloadGen, PayloadSpec};
pub use policy::{DataPolicy, DataWriteModel};
