//! The COMET power model (Section III.E, Figs. 7–8).
//!
//! Four components stack:
//!
//! * **Laser** — off-chip comb laser sized so every wavelength delivers the
//!   cell target power through the worst-case access path (coupling,
//!   propagation, bends, GST subarray switch, worst MDM mode penalty, and
//!   the two EO-tuned MR drops into and out of the cell), divided by the
//!   20 % wall-plug efficiency. Intra-subarray losses are covered by the
//!   SOAs, not the laser.
//! * **SOA** — only the accessed subarray's amplifiers are powered:
//!   `B · M_r · M_c / 46 × 1.4 mW` (the paper's formula).
//! * **EO tuning** — `B · 2 · M_c · P_EO` for the accessed row's rings.
//! * **Electrical interface** — modulator/driver/TIA lanes at the
//!   controller boundary.

use crate::arch::CometConfig;
use comet_units::{Decibels, Length, Power};
use photonic::{CellOpticalModel, Laser, ModePenalty, OpticalPath, PathElement};
use std::fmt;

/// A decomposed power figure (one bar of the Fig. 7/8 stacks).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerStack {
    /// Off-chip laser wall-plug power.
    pub laser: Power,
    /// Active intra-subarray SOA power.
    pub soa: Power,
    /// EO tuning power.
    pub tuning: Power,
    /// Electrical interface power.
    pub interface: Power,
}

impl PowerStack {
    /// Total power.
    pub fn total(&self) -> Power {
        self.laser + self.soa + self.tuning + self.interface
    }

    /// `(name, value)` pairs in stack order, for report printing.
    pub fn components(&self) -> [(&'static str, Power); 4] {
        [
            ("laser", self.laser),
            ("soa", self.soa),
            ("eo_tuning", self.tuning),
            ("interface", self.interface),
        ]
    }
}

impl fmt::Display for PowerStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "laser {:.2} W + soa {:.2} W + tuning {:.3} W + interface {:.2} W = {:.2} W",
            self.laser.as_watts(),
            self.soa.as_watts(),
            self.tuning.as_watts(),
            self.interface.as_watts(),
            self.total().as_watts()
        )
    }
}

/// Power model of a COMET configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CometPowerModel {
    /// The architecture being modeled.
    pub config: CometConfig,
    /// On-chip routing distance from coupler to the farthest bank.
    pub routing_length: Length,
    /// 90° bends along the access path.
    pub routing_bends: u32,
    /// Average EO resonance shift the tuner must hold.
    pub tuning_shift: Length,
    /// Per-lane electrical interface power (modulator driver + TIA).
    pub interface_lane_power: Power,
}

impl CometPowerModel {
    /// The default physical assumptions: 2 cm of routing, 4 bends, 1 nm
    /// average EO shift, 1 mW per interface lane.
    pub fn new(config: CometConfig) -> Self {
        CometPowerModel {
            config,
            routing_length: Length::from_centimeters(2.0),
            routing_bends: 4,
            tuning_shift: Length::from_nanometers(1.0),
            interface_lane_power: Power::from_milliwatts(1.0),
        }
    }

    /// The worst-case laser → cell optical path (excluding SOA-compensated
    /// intra-subarray row losses).
    pub fn access_path(&self) -> OpticalPath {
        let mut path = OpticalPath::new();
        path.push(PathElement::Coupler)
            .push(PathElement::Propagation(self.routing_length))
            .push(PathElement::Bends(self.routing_bends))
            .push(PathElement::GstSwitch)
            .push(PathElement::Fixed(self.worst_mode_penalty()))
            .push(PathElement::TunedMrDrop(photonic::MrTuning::ElectroOptic))
            .push(PathElement::TunedMrDrop(photonic::MrTuning::ElectroOptic));
        path
    }

    /// The read-out path: the access path extended through the cell
    /// itself in its most transmissive state, with the insertion loss
    /// taken from a circuit-layer cell model — so the same path budget can
    /// be evaluated under the paper's constants or the physics-derived
    /// model (the divergence `fig7_power_comet` tabulates).
    pub fn read_path(&self, cell: &dyn CellOpticalModel) -> OpticalPath {
        let mut path = self.access_path();
        path.push_cell(cell);
        path
    }

    /// Worst-case power arriving at the detector for the configured cell
    /// target power: the cell's *deepest* level transmittance on top of
    /// the read-path losses past the cell.
    pub fn worst_received_power(&self, cell: &dyn CellOpticalModel) -> Power {
        let at_cell = self.config.optical.max_power_at_cell;
        let past_cell = at_cell.attenuate(cell.min_transmittance().to_decibels());
        // The return trip re-crosses the row gating MR; SOA trim gain has
        // already compensated row-dependent losses (GainLut).
        past_cell.attenuate(self.config.optical.eo_mr_drop_loss)
    }

    /// Worst MDM mode-order penalty for the configured bank count.
    pub fn worst_mode_penalty(&self) -> Decibels {
        ModePenalty::default().worst_mode_loss(self.config.banks as usize)
    }

    /// Laser wall-plug power: all `B × N_c` wavelength-mode channels at
    /// the cell target power through the access path.
    pub fn laser_power(&self) -> Power {
        let laser = Laser::new(self.config.optical.laser_wall_plug_efficiency);
        let loss = self.access_path().total_loss(&self.config.optical);
        let channels = (self.config.banks * self.config.wavelengths()) as usize;
        laser.electrical_power_for_channels(self.config.optical.max_power_at_cell, loss, channels)
    }

    /// Active SOA power: `B·M_r·M_c/46 × 1.4 mW`.
    pub fn soa_power(&self) -> Power {
        self.config.optical.intra_subarray_soa_power * self.config.active_soa_count() as f64
    }

    /// EO tuning power: `B · 2 · M_c · P_EO` at the configured shift.
    pub fn tuning_power(&self) -> Power {
        let per_mr = self.config.optical.eo_tuning_power(self.tuning_shift);
        per_mr * (self.config.banks * 2 * self.config.subarray_cols) as f64
    }

    /// Electrical interface power: one lane per wavelength-mode channel.
    pub fn interface_power(&self) -> Power {
        self.interface_lane_power * (self.config.banks * self.config.wavelengths()) as f64
    }

    /// The full stack (one Fig. 7 bar).
    pub fn stack(&self) -> PowerStack {
        PowerStack {
            laser: self.laser_power(),
            soa: self.soa_power(),
            tuning: self.tuning_power(),
            interface: self.interface_power(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cfg: CometConfig) -> CometPowerModel {
        CometPowerModel::new(cfg)
    }

    #[test]
    fn soa_power_matches_paper_formula() {
        // (B × M_r × M_c / 46 × 1.4) mW for b=4: 4*512*256/46 * 1.4 mW.
        let m = model(CometConfig::comet_4b());
        let expect_mw = (4 * 512 * 256 / 46) as f64 * 1.4;
        assert!((m.soa_power().as_milliwatts() - expect_mw).abs() < 1.5);
    }

    #[test]
    fn tuning_power_matches_paper_formula() {
        // B × 2 × M_c × 4 uW at 1 nm shift = 4*2*256*4 uW = 8.192 mW.
        let m = model(CometConfig::comet_4b());
        assert!((m.tuning_power().as_milliwatts() - 8.192).abs() < 1e-6);
    }

    #[test]
    fn power_falls_with_bit_density() {
        // Fig. 7: COMET-4b is chosen because its stack is the smallest.
        let totals: Vec<f64> = CometConfig::bit_density_sweep()
            .into_iter()
            .map(|c| model(c).stack().total().as_watts())
            .collect();
        assert!(
            totals[0] > totals[1],
            "1b {} <= 2b {}",
            totals[0],
            totals[1]
        );
        assert!(
            totals[1] > totals[2],
            "2b {} <= 4b {}",
            totals[1],
            totals[2]
        );
        // Halving the wavelength count should roughly halve the stack.
        let ratio = totals[0] / totals[2];
        assert!((3.0..=5.0).contains(&ratio), "1b/4b ratio {ratio}");
    }

    #[test]
    fn comet_4b_total_in_expected_decade() {
        let total = model(CometConfig::comet_4b()).stack().total().as_watts();
        assert!((15.0..=60.0).contains(&total), "total {total} W");
    }

    #[test]
    fn laser_and_soa_dominate() {
        // Fig. 8's observation: laser power is a significant contributor;
        // tuning is negligible.
        let s = model(CometConfig::comet_4b()).stack();
        assert!(s.laser > s.tuning * 100.0);
        assert!(s.soa > s.tuning * 100.0);
        let total = s.total();
        assert!((s.laser + s.soa) / total > 0.8);
    }

    #[test]
    fn stack_components_sum_to_total() {
        let s = model(CometConfig::comet_2b()).stack();
        let sum: Power = s.components().iter().map(|(_, p)| *p).sum();
        assert!((sum.as_watts() - s.total().as_watts()).abs() < 1e-12);
    }

    #[test]
    fn access_path_loss_is_moderate() {
        // The whole point of SOA placement: the laser only covers a fixed
        // few-dB path, not the row-dependent array losses.
        let m = model(CometConfig::comet_4b());
        let loss = m.access_path().total_loss(&m.config.optical);
        assert!((3.0..=9.0).contains(&loss.value()), "path loss {loss}");
    }
}
