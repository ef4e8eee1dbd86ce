//! End-to-end readout reliability and retention analysis.
//!
//! The paper argues COMET's 16 levels with 6 % spacing make it *"tolerant
//! to transmission drift"* and sizes its LUT/SOA machinery so residual
//! read-path losses stay inside each bit-density's budget (Section III.C).
//! This module closes the loop quantitatively:
//!
//! * [`ReadoutReliability`] chains the laser power at the cell, the level
//!   spacing of the configured bit density, the row-dependent residual
//!   loss left after LUT gain trimming, and a photodetector noise model
//!   into a per-row **level error probability** — the architecture-level
//!   BER the controller would actually see.
//! * [`DriftModel`] models the slow transmittance drift of
//!   partially-amorphous GST (structural relaxation, the optical analogue
//!   of EPCM resistance drift, strongly attenuated in the optical domain
//!   — the very reason Section I gives for preferring OPCM MLCs) and
//!   derives the **scrub interval**: how often stored levels must be
//!   refreshed before drift consumes half a level spacing.
//!
//! Together they answer the two questions a deployment would ask: *what is
//! my read BER at each row*, and *how long does data retain its level*.

use crate::arch::CometConfig;
use crate::lut::GainLut;
use comet_units::{Power, Time};
use photonic::Photodetector;

/// Per-row readout error analysis for a COMET configuration.
///
/// # Examples
///
/// ```
/// use comet::{CometConfig, ReadoutReliability};
///
/// let rel = ReadoutReliability::new(CometConfig::comet_4b());
/// // The worst row of the paper's b=4 configuration still reads reliably:
/// assert!(rel.worst_row_error() < 1e-6);
/// // And deeper rows are never *better* than the LUT-trimmed best row:
/// assert!(rel.row_error(45) >= rel.row_error(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutReliability {
    config: CometConfig,
    lut: GainLut,
    detector: Photodetector,
}

impl ReadoutReliability {
    /// Builds the analysis with the default 10 GHz detector front-end.
    pub fn new(config: CometConfig) -> Self {
        Self::with_detector(config, Photodetector::ge_10ghz())
    }

    /// Builds the analysis with an explicit detector model.
    pub fn with_detector(config: CometConfig, detector: Photodetector) -> Self {
        let lut = GainLut::for_bits(config.bits_per_cell, config.subarray_rows, &config.optical);
        ReadoutReliability {
            config,
            lut,
            detector,
        }
    }

    /// The configuration under analysis.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// Full-scale optical power reaching the detector from a cell in
    /// `row`, after LUT gain trimming of the residual row losses.
    pub fn received_power(&self, row: u64) -> Power {
        let residual = self.lut.residual_loss(row);
        self.config.optical.max_power_at_cell.attenuate(residual)
    }

    /// Probability that a single read of a cell in `row` decodes to the
    /// wrong level.
    pub fn row_error(&self, row: u64) -> f64 {
        self.detector
            .level_error_probability(self.received_power(row), self.config.bits_per_cell)
    }

    /// The worst per-read level error across all rows of a subarray.
    pub fn worst_row_error(&self) -> f64 {
        (0..self.config.subarray_rows)
            .map(|r| self.row_error(r))
            .fold(0.0, f64::max)
    }

    /// Mean per-read level error across the subarray rows.
    pub fn mean_row_error(&self) -> f64 {
        let n = self.config.subarray_rows;
        (0..n).map(|r| self.row_error(r)).sum::<f64>() / n as f64
    }
}

/// Structural-relaxation drift of partially amorphous GST transmittance.
///
/// Amorphous GST relaxes logarithmically in time; the optical analogue
/// shifts a stored level's transmittance by
/// `ΔT(t) = δ · a · log10(1 + t/τ)` where `a` is the amorphous fraction of
/// the cell (fully crystalline cells do not drift) and `δ` is the
/// per-decade drift amplitude. Optical readout suppresses drift by more
/// than an order of magnitude versus EPCM resistance readout (the `ν≈0.1`
/// resistance exponent has no optical counterpart) — the default `δ` of
/// 0.4 %/decade reflects that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Transmittance shift per decade of time, at fully amorphous.
    pub delta_per_decade: f64,
    /// Relaxation onset time.
    pub tau: Time,
}

impl Default for DriftModel {
    fn default() -> Self {
        DriftModel {
            delta_per_decade: 0.004,
            tau: Time::from_seconds(1.0),
        }
    }
}

impl DriftModel {
    /// How long a fully amorphous (worst-case) cell retains its level
    /// before drift consumes `margin` of transmittance.
    pub fn time_to_shift(&self, margin: f64) -> Time {
        assert!(margin > 0.0, "margin must be positive");
        let decades = margin / self.delta_per_decade;
        // Invert ΔT = δ·log10(1 + t/τ).
        Time::from_seconds(self.tau.as_seconds() * (10f64.powf(decades) - 1.0))
    }

    /// The scrub interval for a bit density: time until drift reaches half
    /// a level spacing (the decode flip point) on the worst-case cell.
    ///
    /// # Examples
    ///
    /// ```
    /// use comet::DriftModel;
    ///
    /// let drift = DriftModel::default();
    /// // 4-bit cells (6 % spacing) need scrubbing eventually, but the
    /// // interval is days, not milliseconds — unlike DRAM refresh.
    /// let interval = drift.scrub_interval(4);
    /// assert!(interval.as_seconds() > 3600.0);
    /// ```
    pub fn scrub_interval(&self, bits: u8) -> Time {
        let levels = (1u32 << bits) as f64;
        let spacing = 1.0 / (levels - 1.0);
        self.time_to_shift(spacing / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comet_4b_reads_reliably_at_every_row() {
        let rel = ReadoutReliability::new(CometConfig::comet_4b());
        assert!(
            rel.worst_row_error() < 1e-6,
            "worst row error {}",
            rel.worst_row_error()
        );
    }

    #[test]
    fn fewer_bits_read_more_reliably() {
        let e1 = ReadoutReliability::new(CometConfig::comet_1b()).worst_row_error();
        let e2 = ReadoutReliability::new(CometConfig::comet_2b()).worst_row_error();
        let e4 = ReadoutReliability::new(CometConfig::comet_4b()).worst_row_error();
        assert!(e1 <= e2 && e2 <= e4, "e1={e1} e2={e2} e4={e4}");
    }

    #[test]
    fn residual_loss_rows_are_worse() {
        let rel = ReadoutReliability::new(CometConfig::comet_4b());
        // Row 45 sits deepest in its LUT gain step; row 0 is trimmed flat.
        assert!(rel.received_power(45) <= rel.received_power(0));
        assert!(rel.row_error(45) >= rel.row_error(0));
        // Mean is between the best and worst rows.
        let mean = rel.mean_row_error();
        let min = (0..rel.config().subarray_rows)
            .map(|r| rel.row_error(r))
            .fold(f64::INFINITY, f64::min);
        assert!(mean <= rel.worst_row_error() * (1.0 + 1e-12));
        assert!(mean >= min * (1.0 - 1e-12));
    }

    #[test]
    fn weak_detector_degrades_ber() {
        let strong = ReadoutReliability::new(CometConfig::comet_4b());
        let weak = ReadoutReliability::with_detector(
            CometConfig::comet_4b(),
            Photodetector {
                responsivity: 1.0,
                noise_current: 8e-5,
                bandwidth: 10e9,
            },
        );
        assert!(weak.worst_row_error() > strong.worst_row_error());
    }

    #[test]
    fn drift_grows_logarithmically() {
        // ΔT = δ·log10(1 + t/τ): each further δ of drift takes ten times
        // as long (counted from -τ) as the one before.
        let d = DriftModel::default();
        let since =
            |k: f64| d.time_to_shift(k * d.delta_per_decade).as_seconds() + d.tau.as_seconds();
        for k in 1..4 {
            let ratio = since(k as f64 + 1.0) / since(k as f64);
            assert!((ratio - 10.0).abs() < 1e-9, "decade {k}: {ratio}");
        }
    }

    #[test]
    fn time_to_shift_inverts_shift() {
        let d = DriftModel::default();
        let margin = 0.02;
        let t = d.time_to_shift(margin);
        // The fully amorphous cell's drift, ΔT = δ·log10(1 + t/τ).
        let shift = d.delta_per_decade * (1.0 + t.as_seconds() / d.tau.as_seconds()).log10();
        assert!((shift - margin).abs() < 1e-9);
    }

    #[test]
    fn scrub_intervals_shrink_with_bit_density() {
        let d = DriftModel::default();
        let s1 = d.scrub_interval(1);
        let s2 = d.scrub_interval(2);
        let s4 = d.scrub_interval(4);
        assert!(s1 > s2 && s2 > s4);
        // The paper's design point: 4-bit cells retain for hours-to-days,
        // a world apart from DRAM's 64 ms refresh.
        assert!(s4.as_seconds() > 3600.0, "scrub interval {s4}");
    }

    #[test]
    fn five_bit_cells_would_need_much_more_frequent_scrubbing() {
        // The [17]-demonstrated 5 bits/cell: spacing halves, so the margin
        // is consumed 10^(margin-gap/delta) times sooner — quantifying why
        // the paper stops at b=4 "to keep ... tolerant to transmission
        // drift".
        let d = DriftModel::default();
        let s4 = d.scrub_interval(4);
        let s5 = d.scrub_interval(5);
        assert!(s4.as_seconds() / s5.as_seconds() > 50.0);
    }
}
