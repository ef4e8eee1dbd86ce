//! Declarative experiment-campaign specifications.
//!
//! A [`CampaignSpec`] is a grid: every combination of device factory,
//! workload source, engine point and replicate is one *cell*, and running
//! the campaign simulates every cell (in parallel — see
//! [`run_campaign`](crate::run_campaign)). The spec layer is deliberately
//! dumb data: all policy (sharding, seeding, aggregation) lives in the
//! runner so that a spec describes *what* to measure, never *how*.
//!
//! Any configuration knob a device factory captures becomes a sweepable
//! axis by registering one factory per setting. The cross-layer cell-model
//! mode works exactly this way: the registry's `COMET-paper` and
//! `COMET-derived` names put the transcribed-constants and physics-derived
//! level grids side by side on the device axis, so a single campaign
//! measures derived-vs-paper divergence under identical workloads, seeds
//! and engine points:
//!
//! ```
//! use comet_lab::{device_by_name, run_campaign, CampaignSpec, WorkloadSource};
//! use memsim::spec_like_suite;
//!
//! let spec = CampaignSpec::new(
//!     "derived-vs-paper",
//!     42,
//!     ["COMET-paper", "COMET-derived"].map(|n| device_by_name(n).unwrap()).into(),
//!     spec_like_suite(200).into_iter().take(1).map(WorkloadSource::Profile).collect(),
//! );
//! let report = run_campaign(&spec, 2);
//! assert_eq!(report.cells.len(), 2); // one cell per provider
//! ```

use comet_serve::ServeSpec;
use memsim::{DeviceFactory, MemRequest, ReplayMode, Scheduler, WorkloadProfile};
use std::fmt;
use std::sync::Arc;

/// Where a cell's request stream comes from.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// A synthetic profile, instantiated per cell with the cell's seed.
    Profile(WorkloadProfile),
    /// A fixed, pre-generated trace (shared by every cell that uses it;
    /// the cell seed does not apply).
    Trace {
        /// Report name of the trace.
        name: String,
        /// The request stream.
        requests: Arc<Vec<MemRequest>>,
    },
}

impl WorkloadSource {
    /// Wraps a fixed trace under a report name.
    pub fn trace(name: impl Into<String>, requests: Vec<MemRequest>) -> Self {
        WorkloadSource::Trace {
            name: name.into(),
            requests: Arc::new(requests),
        }
    }

    /// The workload's report name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSource::Profile(p) => &p.name,
            WorkloadSource::Trace { name, .. } => name,
        }
    }
}

/// One point on the engine-configuration axis: a report label and the
/// engine its cells run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnginePoint {
    /// Report label (e.g. `"frfcfs8-paced"`).
    pub label: String,
    /// The engine and its configuration.
    pub engine: Engine,
}

/// The engine a cell runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Trace replay through [`memsim::run_simulation`].
    Replay {
        /// Scheduling policy.
        scheduler: Scheduler,
        /// Arrival pacing.
        replay: ReplayMode,
    },
    /// A `comet-serve` service scenario (tenant mix × arrival process ×
    /// batching, under the spec's own scheduler) run through
    /// [`comet_serve::run_service`], shaping profile-less tenants with the
    /// cell's workload profile.
    Serve(ServeSpec),
}

impl EnginePoint {
    /// The default high-performance point: FR-FCFS(8), paced arrivals —
    /// what `SimConfig::paced` builds.
    pub fn paced() -> Self {
        Self::new("frfcfs8-paced", Scheduler::default(), ReplayMode::Paced)
    }

    /// FR-FCFS(8) with saturation replay (throughput measurement).
    pub fn saturation() -> Self {
        Self::new(
            "frfcfs8-saturation",
            Scheduler::default(),
            ReplayMode::Saturation,
        )
    }

    /// A custom replay point under an explicit report label.
    pub fn new(label: impl Into<String>, scheduler: Scheduler, replay: ReplayMode) -> Self {
        EnginePoint {
            label: label.into(),
            engine: Engine::Replay { scheduler, replay },
        }
    }

    /// A service point: the cell runs `spec` through the `comet-serve`
    /// event-driven core (see [`comet_serve::run_service`]).
    pub fn serve(label: impl Into<String>, spec: ServeSpec) -> Self {
        EnginePoint {
            label: label.into(),
            engine: Engine::Serve(spec),
        }
    }

    /// The service scenario of a serve point; `None` for replay.
    pub(crate) fn serve_spec(&self) -> Option<&ServeSpec> {
        match &self.engine {
            Engine::Serve(spec) => Some(spec),
            Engine::Replay { .. } => None,
        }
    }
}

impl Default for EnginePoint {
    fn default() -> Self {
        Self::paced()
    }
}

/// A full campaign: the experiment grid plus global knobs.
///
/// Cells are ordered device-major (device, then workload, then engine,
/// then replicate); the order — and therefore the report — is independent
/// of how cells are sharded across threads.
pub struct CampaignSpec {
    /// Campaign name (used for report file names).
    pub name: String,
    /// Master seed; per-cell seeds derive from it (see
    /// [`CampaignSpec::cell_seed`]).
    pub seed: u64,
    /// Trace instantiations per grid point (≥ 1). Replicate `0` uses the
    /// master seed itself, so a one-replicate campaign reproduces a plain
    /// sequential sweep at that seed exactly.
    pub replicates: usize,
    /// Resize profile workloads to each device's native cache line
    /// (preserving total bytes), so every device moves the same data — the
    /// paper's Fig. 9 methodology. Fixed traces are never resized.
    pub normalize_lines: bool,
    /// The device axis.
    pub devices: Vec<Box<dyn DeviceFactory>>,
    /// The workload axis.
    pub workloads: Vec<WorkloadSource>,
    /// The engine axis.
    pub engines: Vec<EnginePoint>,
}

impl CampaignSpec {
    /// A single-engine, single-replicate campaign — the common case.
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        devices: Vec<Box<dyn DeviceFactory>>,
        workloads: Vec<WorkloadSource>,
    ) -> Self {
        CampaignSpec {
            name: name.into(),
            seed,
            replicates: 1,
            normalize_lines: true,
            devices,
            workloads,
            engines: vec![EnginePoint::default()],
        }
    }

    /// Number of cells in the grid.
    pub fn cells(&self) -> usize {
        self.devices.len() * self.workloads.len() * self.engines.len() * self.replicates.max(1)
    }

    /// The seed of replicate `r`: the master seed advanced by `r` strides
    /// of the 64-bit golden ratio (SplitMix64's stream constant), so
    /// replicate 0 *is* the master seed and further replicates decorrelate.
    /// Workload-level decorrelation happens inside
    /// `WorkloadProfile::generate` (it folds the profile name into the
    /// seed), so the same replicate uses the same trace instantiation on
    /// every device — a paired design.
    pub fn cell_seed(&self, replicate: usize) -> u64 {
        self.seed
            .wrapping_add((replicate as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Grid coordinates of cell `index` (inverse of the device-major
    /// enumeration order).
    pub fn coords(&self, index: usize) -> CellCoords {
        let reps = self.replicates.max(1);
        let replicate = index % reps;
        let rest = index / reps;
        let engine = rest % self.engines.len();
        let rest = rest / self.engines.len();
        let workload = rest % self.workloads.len();
        let device = rest / self.workloads.len();
        CellCoords {
            device,
            workload,
            engine,
            replicate,
        }
    }
}

impl fmt::Debug for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignSpec")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("replicates", &self.replicates)
            .field("normalize_lines", &self.normalize_lines)
            .field(
                "devices",
                &self
                    .devices
                    .iter()
                    .map(|d| d.device_name())
                    .collect::<Vec<_>>(),
            )
            .field(
                "workloads",
                &self
                    .workloads
                    .iter()
                    .map(|w| w.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field(
                "engines",
                &self
                    .engines
                    .iter()
                    .map(|e| e.label.clone())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Grid coordinates of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCoords {
    /// Index on the device axis.
    pub device: usize,
    /// Index on the workload axis.
    pub workload: usize,
    /// Index on the engine axis.
    pub engine: usize,
    /// Replicate number.
    pub replicate: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::SimConfig;
    use memsim::{DramConfig, EpcmConfig};

    fn spec() -> CampaignSpec {
        let mut s = CampaignSpec::new(
            "t",
            7,
            vec![
                Box::new(DramConfig::ddr3_1600_2d()),
                Box::new(EpcmConfig::epcm_mm()),
            ],
            vec![
                WorkloadSource::trace("a", Vec::new()),
                WorkloadSource::trace("b", Vec::new()),
                WorkloadSource::trace("c", Vec::new()),
            ],
        );
        s.engines = vec![EnginePoint::paced(), EnginePoint::saturation()];
        s.replicates = 2;
        s
    }

    #[test]
    fn grid_size_and_coords_roundtrip() {
        let s = spec();
        assert_eq!(s.cells(), 2 * 3 * 2 * 2);
        for i in 0..s.cells() {
            let c = s.coords(i);
            let back = ((c.device * s.workloads.len() + c.workload) * s.engines.len() + c.engine)
                * s.replicates
                + c.replicate;
            assert_eq!(back, i);
        }
        // Device-major: the last cell is the last device.
        assert_eq!(s.coords(s.cells() - 1).device, 1);
        assert_eq!(
            s.coords(0),
            CellCoords {
                device: 0,
                workload: 0,
                engine: 0,
                replicate: 0
            }
        );
    }

    #[test]
    fn replicate_zero_uses_master_seed() {
        let s = spec();
        assert_eq!(s.cell_seed(0), 7);
        assert_ne!(s.cell_seed(1), 7);
        assert_ne!(s.cell_seed(1), s.cell_seed(2));
    }

    #[test]
    fn engine_point_matches_sim_config_constructors() {
        let replay = |c: SimConfig| Engine::Replay {
            scheduler: c.scheduler,
            replay: c.replay,
        };
        assert_eq!(EnginePoint::paced().engine, replay(SimConfig::paced("w")));
        assert_eq!(
            EnginePoint::saturation().engine,
            replay(SimConfig::saturation("w"))
        );
    }
}
