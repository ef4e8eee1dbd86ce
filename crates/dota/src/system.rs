//! System-level EPB of DOTA paired with each main memory (Fig. 10).
//!
//! DOTA is a photonic tensor engine: its operands arrive as modulated
//! light. Feeding it from an *electronic* memory requires a full
//! electro-optic conversion stage per bit (DAC + driver + modulator);
//! feeding it from a *photonic* memory (COMET, COSMOS) injects the
//! read-out light directly — the paper's headline argument for photonic
//! main memory in optical-compute systems.
//!
//! `system EPB = memory EPB (simulated) + conversion EPB (per feed type)`.

use crate::workload::TransformerWorkload;
use comet_units::EnergyPerBit;
use memsim::{run_simulation, MemoryDevice, SimConfig};

/// How a memory's read-out reaches the photonic tensor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// Electronic memory: every bit pays DAC + driver + modulator energy.
    Electronic,
    /// Photonic memory: light is re-amplified and injected directly.
    Photonic,
}

impl FeedKind {
    /// Conversion energy per bit at the accelerator boundary.
    ///
    /// Electronic: ~45 pJ/b for the high-speed 8-bit DAC + serializer +
    /// MZM driver chain that turns DRAM read-outs into modulated light for
    /// the tensor core (multi-GHz analog modulation is expensive; published
    /// full E-O paths run 30-100 pJ/b). Photonic: ~2 pJ/b of SOA
    /// re-amplification and clock alignment — the direct-injection
    /// advantage Section IV.D describes.
    pub fn conversion_energy(self) -> EnergyPerBit {
        match self {
            FeedKind::Electronic => EnergyPerBit::from_picojoules_per_bit(45.0),
            FeedKind::Photonic => EnergyPerBit::from_picojoules_per_bit(2.0),
        }
    }
}

/// One Fig. 10 bar: a (memory, model) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEpbReport {
    /// Memory system name.
    pub memory: String,
    /// Transformer model name.
    pub model: String,
    /// Feed type.
    pub feed: FeedKind,
    /// Memory-side EPB from trace simulation.
    pub memory_epb: EnergyPerBit,
    /// Conversion EPB at the accelerator boundary.
    pub conversion_epb: EnergyPerBit,
    /// Observed memory bandwidth, GB/s.
    pub bandwidth_gbs: f64,
}

impl SystemEpbReport {
    /// Total system EPB.
    pub fn total_epb(&self) -> EnergyPerBit {
        self.memory_epb + self.conversion_epb
    }
}

/// Runs a transformer workload against a memory device and composes the
/// system EPB.
pub fn evaluate_system(
    device: &mut dyn MemoryDevice,
    feed: FeedKind,
    model: &TransformerWorkload,
    inferences: u32,
    sampling: u64,
    seed: u64,
) -> SystemEpbReport {
    let trace = model.trace(inferences, sampling, seed);
    let stats = run_simulation(device, &trace, &SimConfig::paced(&model.name));
    SystemEpbReport {
        memory: stats.device.clone(),
        model: model.name.clone(),
        feed,
        memory_epb: stats.energy_per_bit(),
        conversion_epb: feed.conversion_energy(),
        bandwidth_gbs: stats.bandwidth().as_gigabytes_per_second(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet::{CometConfig, CometDevice};
    use cosmos::{CosmosConfig, CosmosDevice};
    use memsim::{DramConfig, DramDevice};

    fn tiny() -> TransformerWorkload {
        TransformerWorkload::deit_tiny()
    }

    #[test]
    fn comet_beats_3d_ddr4_with_dota() {
        // Fig. 10: COMET+DOTA achieves lower EPB than 3D_DDR4+DOTA because
        // the electronic feed pays the conversion stage.
        let mut comet = CometDevice::new(CometConfig::comet_4b());
        let mut ddr = DramDevice::new(DramConfig::ddr4_3d());
        let c = evaluate_system(&mut comet, FeedKind::Photonic, &tiny(), 1, 40, 1);
        let d = evaluate_system(&mut ddr, FeedKind::Electronic, &tiny(), 1, 40, 1);
        assert!(
            c.total_epb() < d.total_epb(),
            "COMET {} vs 3D_DDR4 {}",
            c.total_epb(),
            d.total_epb()
        );
    }

    #[test]
    fn comet_beats_cosmos_with_dota() {
        let mut comet = CometDevice::new(CometConfig::comet_4b());
        let mut cosmos = CosmosDevice::new(CosmosConfig::corrected());
        let c = evaluate_system(&mut comet, FeedKind::Photonic, &tiny(), 1, 40, 1);
        let k = evaluate_system(&mut cosmos, FeedKind::Photonic, &tiny(), 1, 40, 1);
        assert!(
            c.total_epb() < k.total_epb(),
            "COMET {} vs COSMOS {}",
            c.total_epb(),
            k.total_epb()
        );
    }

    #[test]
    fn conversion_energies_ordered() {
        assert!(FeedKind::Electronic.conversion_energy() > FeedKind::Photonic.conversion_energy());
    }

    #[test]
    fn report_total_is_sum() {
        let r = SystemEpbReport {
            memory: "X".into(),
            model: "Y".into(),
            feed: FeedKind::Electronic,
            memory_epb: EnergyPerBit::from_picojoules_per_bit(10.0),
            conversion_epb: EnergyPerBit::from_picojoules_per_bit(30.0),
            bandwidth_gbs: 1.0,
        };
        assert!((r.total_epb().as_picojoules_per_bit() - 40.0).abs() < 1e-12);
    }
}
