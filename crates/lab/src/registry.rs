//! Named device and workload registries for declarative campaign assembly.
//!
//! The CLI (and any spec written by name rather than by constructor) looks
//! devices and workloads up here. Device names match the report names the
//! paper's Fig. 9 uses; workload names are the SPEC-like suite of
//! `memsim::spec_like_suite` plus `"all"`.
//!
//! The cross-layer cell-model mode is a first-class axis: `COMET-paper`
//! and `COMET-derived` are COMET-4b with the transcribed-constants and
//! physics-derived cell models respectively, so a single grid sweeps
//! derived-vs-paper like any other device comparison:
//!
//! ```text
//! comet-lab --devices COMET-paper,COMET-derived --workloads all
//! ```

use crate::spec::{EnginePoint, WorkloadSource};
use comet::CometConfig;
use comet_data::{DataPolicy, DataWriteModel, PayloadSpec};
use comet_serve::{ArrivalProcess, ServeSpec, TenantSpec};
use cosmos::CosmosConfig;
use memsim::{spec_like_suite, DeviceFactory, DramConfig, EpcmConfig, EpcmDevice, FnFactory};
use photonic::CellModelMode;

/// The seven memory systems of the paper's Fig. 9 evaluation, in its
/// canonical order.
const FIG9_DEVICES: [&str; 7] = [
    "2D_DDR3", "3D_DDR3", "2D_DDR4", "3D_DDR4", "EPCM-MM", "COSMOS", "COMET",
];

/// All registered device names: the Fig. 9 seven, the COMET bit-density
/// variants, the cell-model modes (paper-transcribed vs physics-derived
/// cell optics), and the data-plane write policies (EPCM-MM with
/// content-priced writes).
pub fn device_names() -> Vec<&'static str> {
    let mut names = FIG9_DEVICES.to_vec();
    names.extend([
        "COMET-1b",
        "COMET-2b",
        "COMET-4b",
        "COMET-paper",
        "COMET-derived",
        "EPCM-oblivious",
        "EPCM-DCW",
        "EPCM-DCW-FNW",
    ]);
    names
}

/// Builds the factory registered under `name`, or `None` for unknown names.
pub fn device_by_name(name: &str) -> Option<Box<dyn DeviceFactory>> {
    Some(match name {
        "2D_DDR3" => Box::new(DramConfig::ddr3_1600_2d()),
        "3D_DDR3" => Box::new(DramConfig::ddr3_3d()),
        "2D_DDR4" => Box::new(DramConfig::ddr4_2400_2d()),
        "3D_DDR4" => Box::new(DramConfig::ddr4_3d()),
        "EPCM-MM" => Box::new(EpcmConfig::epcm_mm()),
        "COSMOS" => Box::new(CosmosConfig::corrected()),
        "COMET" => Box::new(CometConfig::comet_4b()),
        // Bit-density variants report under their variant name.
        "COMET-1b" => comet_variant("COMET-1b", CometConfig::comet_1b()),
        "COMET-2b" => comet_variant("COMET-2b", CometConfig::comet_2b()),
        "COMET-4b" => comet_variant("COMET-4b", CometConfig::comet_4b()),
        // Cell-model modes: the same COMET-4b architecture with its level
        // grid taken from the paper constants vs derived from the physics
        // layer, so campaigns sweep derived-vs-paper in one grid.
        "COMET-paper" => comet_variant(
            "COMET-paper",
            CometConfig::comet_4b().with_cell_model(CellModelMode::Paper),
        ),
        "COMET-derived" => comet_variant(
            "COMET-derived",
            CometConfig::comet_4b().with_cell_model(CellModelMode::Derived),
        ),
        // Data-plane policy variants: the EPCM-MM array with per-cell
        // transition pricing from the physics layer's GST programming
        // table, under the three write policies. `EPCM-MM` itself stays
        // the flat-cost (legacy) baseline.
        "EPCM-oblivious" => epcm_data_variant("EPCM-oblivious", DataPolicy::Oblivious),
        "EPCM-DCW" => epcm_data_variant("EPCM-DCW", DataPolicy::Dcw),
        "EPCM-DCW-FNW" => epcm_data_variant("EPCM-DCW-FNW", DataPolicy::DcwFnw),
        _ => return None,
    })
}

/// An EPCM-MM factory whose devices price writes content-aware under
/// `policy` (4-bit GST transition costs; see `comet_data`).
fn epcm_data_variant(label: &str, policy: DataPolicy) -> Box<dyn DeviceFactory> {
    let label = label.to_string();
    Box::new(FnFactory::new(label.clone(), move || {
        let mut cfg = EpcmConfig::epcm_mm();
        cfg.name = label.clone();
        Box::new(EpcmDevice::with_pricer(
            cfg,
            Box::new(DataWriteModel::gst(4, policy)),
        ))
    }))
}

/// The data-policy device axis: content-oblivious, DCW, and DCW +
/// Flip-N-Write pricing over the same EPCM-MM array — the write-energy
/// ordering every `fig_write_energy_vs_entropy` point must respect.
pub fn data_policy_axis() -> Vec<Box<dyn DeviceFactory>> {
    ["EPCM-oblivious", "EPCM-DCW", "EPCM-DCW-FNW"]
        .iter()
        .map(|n| device_by_name(n).expect("registry covers its own names"))
        .collect()
}

/// The payload-entropy engine axis: one open-loop serve point per payload
/// source of [`PayloadSpec::entropy_sweep`] (all-zero → sparse updates →
/// transformer weights → complement toggling → uniform), labels
/// `payload-<source>` in sweep order. Crossed with [`data_policy_axis`],
/// one campaign grid measures write energy per policy × entropy ×
/// workload.
pub fn payload_entropy_axis(process: ArrivalProcess, requests: usize) -> Vec<EnginePoint> {
    PayloadSpec::entropy_sweep()
        .into_iter()
        .map(|payload| {
            EnginePoint::serve(
                format!("payload-{}", payload.label()),
                ServeSpec {
                    tenants: vec![
                        TenantSpec::open("data", process, requests).with_payload(payload)
                    ],
                    scheduler: memsim::Scheduler::default(),
                    shards: 1,
                    batch: None,
                },
            )
        })
        .collect()
}

/// A COMET config as a factory reporting under an explicit variant label.
pub fn comet_variant(label: &str, config: CometConfig) -> Box<dyn DeviceFactory> {
    Box::new(FnFactory::new(label, move || {
        Box::new(comet::CometDevice::new(config.clone()))
    }))
}

/// The Fig. 9 device axis, in paper order.
pub fn fig9_device_axis() -> Vec<Box<dyn DeviceFactory>> {
    FIG9_DEVICES
        .iter()
        .map(|n| device_by_name(n).expect("registry covers its own names"))
        .collect()
}

/// The latency-vs-load device axis: COMET against the strongest 2D DRAM
/// and the COSMOS photonic baseline (the Fig. 9/10 protagonists whose
/// headline wins are throughput-and-queueing claims).
pub fn serve_device_axis() -> Vec<Box<dyn DeviceFactory>> {
    ["2D_DDR4", "COSMOS", "COMET"]
        .iter()
        .map(|n| device_by_name(n).expect("registry covers its own names"))
        .collect()
}

/// The open-loop load-level engine axis: one serve point per mean arrival
/// rate, each issuing `requests` Poisson-arriving requests shaped by the
/// cell's workload profile. Poisson (not evenly spaced) arrivals matter
/// here: a deterministic grid beats against DRAM's refresh period, so
/// light loads alias into refresh blackouts that heavier loads dodge and
/// the tail-vs-load curve wiggles; memoryless arrivals sample every
/// blackout phase uniformly at every load, keeping p99 monotone in
/// offered load. Labels are `serve-open-<rate>` in grid order, so
/// sweeping this axis against [`serve_device_axis`] produces the
/// latency-vs-load hockey stick.
pub fn serve_load_axis(rates_rps: &[f64], requests: usize) -> Vec<EnginePoint> {
    rates_rps
        .iter()
        .map(|&rate| {
            EnginePoint::serve(
                format!("serve-open-{rate:.3e}"),
                ServeSpec::open_loop(ArrivalProcess::poisson(rate), requests),
            )
        })
        .collect()
}

/// Resolves a workload name against the SPEC-like suite sized to
/// `requests`. `"all"` yields the whole suite.
pub fn workloads_by_name(name: &str, requests: usize) -> Vec<WorkloadSource> {
    let suite = spec_like_suite(requests);
    if name == "all" {
        return suite.into_iter().map(WorkloadSource::Profile).collect();
    }
    suite
        .into_iter()
        .filter(|p| p.name == name)
        .map(WorkloadSource::Profile)
        .collect()
}

/// The names of the SPEC-like workload suite.
pub fn workload_names() -> Vec<String> {
    spec_like_suite(1).into_iter().map(|p| p.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds_and_labels_consistently() {
        for name in device_names() {
            let f = device_by_name(name).expect(name);
            assert_eq!(f.device_name(), name, "factory label");
            let dev = f.build();
            assert!(dev.topology().line_bytes > 0, "{name} builds");
            // Factory topology shortcuts must agree with built devices.
            assert_eq!(f.device_topology(), dev.topology(), "{name} topology");
        }
        assert!(device_by_name("NVRAM-9000").is_none());
    }

    #[test]
    fn fig9_axis_is_the_paper_order() {
        let axis = fig9_device_axis();
        let names: Vec<String> = axis.iter().map(|f| f.device_name()).collect();
        assert_eq!(names, FIG9_DEVICES);
    }

    #[test]
    fn serve_axes_are_labelled_and_sized() {
        let devices = serve_device_axis();
        let names: Vec<String> = devices.iter().map(|f| f.device_name()).collect();
        assert_eq!(names, ["2D_DDR4", "COSMOS", "COMET"]);

        let loads = serve_load_axis(&[1.0e7, 1.0e8], 500);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].label, "serve-open-1.000e7");
        assert!(loads.iter().all(|e| e.serve_spec().is_some()));
    }

    #[test]
    fn data_axes_are_labelled_and_ordered() {
        let policies = data_policy_axis();
        let names: Vec<String> = policies.iter().map(|f| f.device_name()).collect();
        assert_eq!(names, ["EPCM-oblivious", "EPCM-DCW", "EPCM-DCW-FNW"]);
        // Policy variants keep the EPCM-MM shape (same topology, so the
        // same traffic hits every policy).
        for f in &policies {
            assert_eq!(
                f.device_topology(),
                EpcmConfig::epcm_mm().topology,
                "{}",
                f.device_name()
            );
        }

        let entropies = payload_entropy_axis(ArrivalProcess::poisson(1.0e7), 100);
        assert_eq!(entropies.len(), 5);
        assert_eq!(entropies[0].label, "payload-zero");
        assert_eq!(entropies[4].label, "payload-uniform");
        for point in &entropies {
            let serve = point.serve_spec().expect("entropy axis is serve");
            assert_eq!(serve.tenants.len(), 1);
            assert!(serve.tenants[0].payload.is_some(), "{}", point.label);
        }
    }

    #[test]
    fn workload_lookup() {
        assert_eq!(workloads_by_name("all", 10).len(), 8);
        let one = workloads_by_name("mcf-like", 10);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name(), "mcf-like");
        assert!(workloads_by_name("spec2077-like", 10).is_empty());
        assert_eq!(workload_names().len(), 8);
    }
}
