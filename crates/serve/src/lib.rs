//! `comet-serve` — an event-driven, multi-tenant traffic subsystem.
//!
//! `memsim` replays one pre-materialized trace through one device;
//! `comet-serve` turns that engine into a *service*, which is where
//! COMET's headline latency/EPB claims actually live — they are
//! throughput-and-queueing claims, and queueing only exists under a
//! request process:
//!
//! * **Request sources** ([`RequestSource`]) — declarative tenants
//!   ([`TenantSpec`]) offering open-loop load from an arrival process
//!   ([`ArrivalProcess`]: deterministic-rate, Poisson, bursty on/off) or
//!   closed-loop load from fixed concurrency with think time
//!   ([`TenantLoad`]), each instantiated as one seeded, deterministic
//!   source shaped by a [`memsim::StreamShape`], interleaved by a
//!   multi-tenant [`TenantMux`] with per-tenant accounting; tenants
//!   optionally source *line payloads*
//!   ([`TenantSpec::with_payload`], a `comet_data::PayloadSpec`) so
//!   content-aware devices price every store from its actual bytes (a
//!   device that ignores payloads gets none:
//!   [`RequestSource::skip_payloads`]);
//! * **A service core** ([`run_service`]) — an event-driven driver over
//!   [`memsim::Controller`], the controller trace replay uses too
//!   (address map, per-bank queues and [`memsim::Scheduler`], channel-bus
//!   contention, statistics), in front of one [`memsim::MemoryDevice`].
//!   It tells each source its request's finish time when the request
//!   issues, and adds a write-coalescing batch stage
//!   ([`BatchConfig`]) that merges same-row/same-line writes within a
//!   window — exploiting PCM's read/write asymmetry;
//! * **Tail accounting** — the aggregate lands in the same
//!   [`memsim::SimStats`] shape trace replay reports, with p50/p95/p99
//!   from its [`memsim::LatencyHistogram`], so `comet-lab` campaigns
//!   export serve cells and replay cells uniformly; each tenant is
//!   accounted by a `SimStats` of its own, and the report keeps
//!   per-channel totals.
//!
//! # Quick start
//!
//! ```
//! use comet_serve::{run_service, ServeSpec};
//! use comet_units::Time;
//! use memsim::{spec_like_suite, EpcmConfig};
//!
//! let profile = &spec_like_suite(400)[0]; // mcf-like shape
//! let spec = ServeSpec::closed_loop(4, Time::from_nanos(50.0), 400);
//! let report = run_service(&EpcmConfig::epcm_mm(), &spec, profile, 42, &profile.name);
//! assert_eq!(report.stats.completed, 400);
//! assert!(report.stats.p99_latency >= report.stats.p50_latency);
//! println!(
//!     "p99 {:.0} ns, tenant mean {:.0} ns",
//!     report.stats.p99_latency.as_nanos(),
//!     report.tenants[0].avg_latency().as_nanos(),
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
mod batch;
mod core;
mod source;
mod stats;

pub use arrival::{ArrivalClock, ArrivalProcess};
pub use batch::BatchConfig;
pub use core::{run_service, run_service_with_sources, ServeSpec};
pub use source::{MuxPoll, RequestSource, SourcePoll, Sourced, TenantLoad, TenantMux, TenantSpec};
pub use stats::{ChannelStats, ServeReport};
