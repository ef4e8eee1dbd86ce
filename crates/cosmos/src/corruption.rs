//! The Fig. 2 image-corruption study.
//!
//! The paper stores an image in the original (4-bit, crosstalk-unmitigated)
//! COSMOS crossbar, performs four writes to adjoining rows, and shows the
//! image visibly destroyed. This module reproduces the experiment on a
//! deterministic synthetic image and reports per-row/aggregate error rates,
//! for any crossbar configuration — so the same harness also demonstrates
//! that the corrected b=2 variant and COMET's isolated cells survive.

use crate::arch::CosmosConfig;
use crate::crossbar::Crossbar;

/// A grayscale test image stored one pixel per cell (pixel values are
/// quantized to the cell's level count).
#[derive(Debug, Clone, PartialEq)]
pub struct TestImage {
    /// Width in pixels.
    pub width: u64,
    /// Height in pixels.
    pub height: u64,
    /// Row-major pixel levels.
    pub pixels: Vec<u8>,
}

impl TestImage {
    /// A deterministic synthetic photograph stand-in: smooth gradients
    /// with circular features, quantized to `levels` gray levels.
    pub fn synthetic(width: u64, height: u64, levels: u16) -> Self {
        let mut pixels = Vec::with_capacity((width * height) as usize);
        let (cx, cy) = (width as f64 / 2.0, height as f64 / 2.0);
        for y in 0..height {
            for x in 0..width {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let r = (dx * dx + dy * dy).sqrt() / (cx.min(cy));
                let wave = (r * 6.0).sin() * 0.5 + 0.5;
                let grad = x as f64 / width as f64;
                let v = (0.6 * wave + 0.4 * grad).clamp(0.0, 1.0);
                pixels.push(((v * (levels - 1) as f64).round()) as u8);
            }
        }
        TestImage {
            width,
            height,
            pixels,
        }
    }

    /// Pixel at (row, col).
    pub fn pixel(&self, row: u64, col: u64) -> u8 {
        self.pixels[(row * self.width + col) as usize]
    }
}

/// Result of one corruption experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionReport {
    /// Configuration name.
    pub config: String,
    /// Number of aggressor writes performed.
    pub aggressor_writes: u32,
    /// Fraction of all image cells whose decode changed.
    pub pixel_error_rate: f64,
    /// Per-row error rates.
    pub row_error_rates: Vec<f64>,
    /// Mean absolute level error across the image.
    pub mean_level_error: f64,
}

/// Stores `image` in a crossbar built from `config`, performs
/// `aggressor_writes` writes to rows adjoining the image region, and
/// measures the corruption.
///
/// The image occupies rows `1..=height` so that row 0 and row `height+1`
/// are available as aggressor rows (the "4 writes to adjoining rows" of
/// Fig. 2 alternate between the two edges and interior re-writes).
pub fn run_corruption_experiment(
    config: &CosmosConfig,
    image: &TestImage,
    aggressor_writes: u32,
) -> CorruptionReport {
    let rows = image.height + 2;
    let mut xb = Crossbar::new(config, rows, image.width);
    let max_level = xb.codec().level_count() as u8;

    // Store the image in rows 1..=height, then run the write-verify pass
    // a bulk load ends with (the paper's clean "original image" state) —
    // without it, storing the image row-by-row already disturbs it.
    for r in 0..image.height {
        let levels: Vec<u8> = (0..image.width)
            .map(|c| image.pixel(r, c).min(max_level - 1))
            .collect();
        xb.write_row(r + 1, &levels);
    }
    xb.verify_and_correct();

    // Aggressor writes to the adjoining rows (the Fig. 2 scenario writes
    // rows bordering the stored image; each write disturbs its inner
    // neighbour through the -18 dB crosstalk).
    for k in 0..aggressor_writes {
        let target = if k % 2 == 0 { 0 } else { rows - 1 };
        let pattern: Vec<u8> = (0..image.width)
            .map(|c| ((c + k as u64) % max_level as u64) as u8)
            .collect();
        xb.write_row(target, &pattern);
    }

    // Measure: compare stored (programmed) levels against observed decode.
    let mut row_error_rates = Vec::with_capacity(image.height as usize);
    let mut total_errors = 0u64;
    let mut total_level_error = 0u64;
    for r in 0..image.height {
        let row = r + 1;
        row_error_rates.push(xb.row_error_rate(row));
        let stored = xb.stored_row(row);
        let observed = xb.ideal_read_row(row);
        for (s, o) in stored.iter().zip(&observed) {
            if s != o {
                total_errors += 1;
            }
            total_level_error += (*s as i16 - *o as i16).unsigned_abs() as u64;
        }
    }
    let cells = image.width * image.height;
    CorruptionReport {
        config: config.name.clone(),
        aggressor_writes,
        pixel_error_rate: total_errors as f64 / cells as f64,
        row_error_rates,
        mean_level_error: total_level_error as f64 / cells as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_image_is_deterministic_and_in_range() {
        let a = TestImage::synthetic(32, 32, 16);
        let b = TestImage::synthetic(32, 32, 16);
        assert_eq!(a, b);
        assert!(a.pixels.iter().all(|&p| p < 16));
        // Non-trivial content: many distinct values.
        let distinct: std::collections::HashSet<_> = a.pixels.iter().collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    fn fig2_original_cosmos_corrupts() {
        // Paper Fig. 2: 4 writes to adjoining rows visibly corrupt the
        // image in the original 4-bit COSMOS.
        let image = TestImage::synthetic(32, 16, 16);
        let report = run_corruption_experiment(&CosmosConfig::original(), &image, 4);
        assert!(
            report.pixel_error_rate > 0.10,
            "expected visible corruption, got {}",
            report.pixel_error_rate
        );
        // Edge rows (adjacent to aggressors) are the worst hit.
        assert!(report.row_error_rates[0] > 0.9);
    }

    #[test]
    fn corrected_cosmos_survives() {
        let image = TestImage::synthetic(32, 16, 4);
        let report = run_corruption_experiment(&CosmosConfig::corrected(), &image, 4);
        assert_eq!(
            report.pixel_error_rate, 0.0,
            "corrected 2-bit COSMOS must tolerate the disturb"
        );
    }

    #[test]
    fn corruption_grows_with_writes_then_saturates() {
        let image = TestImage::synthetic(32, 16, 16);
        let few = run_corruption_experiment(&CosmosConfig::original(), &image, 1);
        let many = run_corruption_experiment(&CosmosConfig::original(), &image, 8);
        assert!(many.pixel_error_rate >= few.pixel_error_rate);
        assert!(many.mean_level_error >= few.mean_level_error);
    }
}
