//! `memsim` — a trace-driven main-memory simulator.
//!
//! The evaluation substrate of the COMET reproduction, standing in for the
//! heavily modified NVMain 2.0 the paper uses (Section IV): requests flow
//! from a trace (captured or synthetic) through a memory controller with
//! per-bank queues and FCFS/FR-FCFS scheduling into a pluggable
//! [`MemoryDevice`] timing/energy model, producing latency, bandwidth and
//! energy-per-bit statistics.
//!
//! Provided device models:
//! * [`DramDevice`] — 2D/3D DDR3/DDR4 with row buffers and refresh;
//! * [`EpcmDevice`] — electrically controlled PCM (`EPCM-MM`);
//! * the photonic architectures implement [`MemoryDevice`] in their own
//!   crates (`comet`, `cosmos`).
//!
//! # Quick start
//!
//! ```
//! use memsim::{
//!     run_simulation, spec_like_suite, DramConfig, DramDevice, SimConfig,
//! };
//!
//! let profile = &spec_like_suite(2000)[0]; // mcf-like
//! let trace = profile.generate(42);
//! let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
//! let stats = run_simulation(&mut dev, &trace, &SimConfig::paced(&profile.name));
//! println!("{stats}");
//! assert_eq!(stats.completed, 2000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod controller;
mod data;
mod device;
mod dram;
mod engine;
mod hash;
mod pcm;
mod queues;
mod request;
mod stats;
mod synth;
mod trace;

pub use addr::{AddressMap, AddressMapError, DecodedAddress, Interleave};
pub use controller::Controller;
pub use data::{LineData, PricedWrite, WriteCost, WritePricer, MAX_LINE_BYTES};
pub use device::{AccessTiming, DeviceFactory, FnFactory, MemoryDevice, Topology};
pub use dram::{DramConfig, DramDevice, DramEnergy, DramTimings};
pub use engine::{run_simulation, ReplayMode, Scheduler, SimConfig};
pub use hash::{BuildMixHasher, MixHasher, MixMap};
pub use pcm::{DataPlaneStats, EpcmConfig, EpcmDevice};
pub use queues::{BankQueues, Pending};
pub use request::{CompletedRequest, MemOp, MemRequest};
pub use stats::{EnergyBreakdown, LatencyHistogram, SimStats};
pub use synth::{hash_name, spec_like_suite, AccessPattern, StreamShape, WorkloadProfile};
pub use trace::{read_trace, write_trace, ParseTraceError, TraceClock};
