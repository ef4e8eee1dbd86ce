//! Off-chip laser power model.
//!
//! COMET assumes an off-chip comb laser providing the `N_c` wavelengths
//! (Section III.C). The electrical power drawn is the optical power that
//! must be launched — computed from the target power at the GST cell and
//! the worst-case path loss — divided by the wall-plug efficiency (20 %,
//! Table I). Laser power dominates the photonic memory power stacks
//! (Fig. 8), which is why loss-aware design is the paper's central theme.

use crate::params::OpticalParams;
use crate::path::OpticalPath;
use comet_units::{Decibels, Power};

/// An off-chip multi-wavelength laser source.
///
/// # Examples
///
/// ```
/// use comet_units::{Decibels, Power};
/// use photonic::Laser;
///
/// let laser = Laser::new(0.2);
/// // Delivering 1 mW through 10 dB of loss needs 10 mW optical,
/// // 50 mW electrical at 20% wall-plug efficiency:
/// let elec = laser.electrical_power_for_target(
///     Power::from_milliwatts(1.0),
///     Decibels::new(10.0),
/// );
/// assert!((elec.as_milliwatts() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laser {
    /// Wall-plug efficiency in `(0, 1]`.
    pub wall_plug_efficiency: f64,
}

impl Laser {
    /// Creates a laser with a given wall-plug efficiency.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < efficiency <= 1`.
    pub fn new(wall_plug_efficiency: f64) -> Self {
        assert!(
            wall_plug_efficiency > 0.0 && wall_plug_efficiency <= 1.0,
            "wall-plug efficiency must be in (0,1], got {wall_plug_efficiency}"
        );
        Laser {
            wall_plug_efficiency,
        }
    }

    /// The paper's Table I laser (20 % wall-plug efficiency).
    pub fn table_i() -> Self {
        Laser::new(OpticalParams::table_i().laser_wall_plug_efficiency)
    }

    /// Optical launch power needed to deliver `target` through `loss`.
    pub fn launch_power_for_target(&self, target: Power, loss: Decibels) -> Power {
        target.amplify(loss)
    }

    /// Electrical (wall-plug) power to deliver `target` through `loss`.
    pub fn electrical_power_for_target(&self, target: Power, loss: Decibels) -> Power {
        self.launch_power_for_target(target, loss) / self.wall_plug_efficiency
    }

    /// Electrical power to drive one wavelength through a path so the
    /// destination receives `target`.
    pub fn electrical_power_for_path(
        &self,
        target: Power,
        path: &OpticalPath,
        params: &OpticalParams,
    ) -> Power {
        self.electrical_power_for_target(target, path.total_loss(params))
    }

    /// Total electrical power for `channels` identical wavelengths.
    pub fn electrical_power_for_channels(
        &self,
        target_per_channel: Power,
        loss: Decibels,
        channels: usize,
    ) -> Power {
        self.electrical_power_for_target(target_per_channel, loss) * channels as f64
    }
}

impl Default for Laser {
    fn default() -> Self {
        Self::table_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::PathElement;

    #[test]
    fn zero_loss_costs_only_efficiency() {
        let laser = Laser::new(0.2);
        let e = laser.electrical_power_for_target(Power::from_milliwatts(1.0), Decibels::ZERO);
        assert!((e.as_milliwatts() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn three_db_doubles_optical() {
        let laser = Laser::new(1.0);
        let e =
            laser.electrical_power_for_target(Power::from_milliwatts(1.0), Decibels::new(3.0103));
        assert!((e.as_milliwatts() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn channels_scale_linearly() {
        let laser = Laser::table_i();
        let one =
            laser.electrical_power_for_target(Power::from_milliwatts(1.0), Decibels::new(5.0));
        let many = laser.electrical_power_for_channels(
            Power::from_milliwatts(1.0),
            Decibels::new(5.0),
            256,
        );
        assert!((many.as_watts() - one.as_watts() * 256.0).abs() < 1e-12);
    }

    #[test]
    fn path_based_power() {
        let laser = Laser::table_i();
        let params = OpticalParams::table_i();
        let mut path = OpticalPath::new();
        path.push(PathElement::Coupler); // 1 dB
        let e = laser.electrical_power_for_path(Power::from_milliwatts(1.0), &path, &params);
        // 1 mW * 10^(0.1) / 0.2 = 6.295 mW.
        assert!((e.as_milliwatts() - 6.295).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "wall-plug efficiency")]
    fn rejects_bad_efficiency() {
        let _ = Laser::new(0.0);
    }
}
