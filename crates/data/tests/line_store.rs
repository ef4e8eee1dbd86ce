//! The EPCM line store against the one it replaced.
//!
//! `EpcmDevice` keeps each line's cell image in a fixed-stride slot of a
//! chunked slab and prices writes in place. Before that it kept a
//! `HashMap<(channel, bank, row, column), Vec<u8>>` and priced each write
//! with the allocating [`WritePricer::price_write`], storing whatever
//! image came back. That store lives on below as the reference; random
//! write sequences over a few lines must give the same timing and the
//! same data-plane counters at every step, for every policy, with
//! payloads narrower and wider than the device's 64-byte line,
//! payload-less writes that drop an image, and freed slots taken by
//! other lines.

use comet_data::{DataPolicy, DataWriteModel};
use comet_units::Time;
use memsim::{
    AccessTiming, DataPlaneStats, DecodedAddress, EpcmConfig, EpcmDevice, LineData, MemOp,
    MemoryDevice, WritePricer,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The content-aware EPCM write path with the per-line `Vec` store.
struct ReferenceDevice {
    config: EpcmConfig,
    pricer: DataWriteModel,
    store: HashMap<(u64, u64, u64, u64), Vec<u8>>,
    stats: DataPlaneStats,
}

impl ReferenceDevice {
    fn write(
        &mut self,
        loc: &DecodedAddress,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        let key = (loc.channel, loc.bank, loc.row, loc.column);
        let cost = match data {
            Some(line) => {
                let priced = self
                    .pricer
                    .price_write(self.store.get(&key).map(Vec::as_slice), line);
                match priced.image {
                    Some(image) => {
                        self.store.insert(key, image);
                    }
                    None => {
                        self.store.remove(&key);
                    }
                }
                self.stats.priced_writes += 1;
                self.stats.cells_written += priced.cost.cells_written;
                self.stats.cells_total += priced.cost.cells_total;
                priced.cost
            }
            None => {
                self.store.remove(&key);
                self.stats.unpriced_writes += 1;
                self.pricer.price_unknown(self.config.topology.line_bytes)
            }
        };
        let transfer = self.config.line_transfer();
        let data_ready = issue + transfer;
        AccessTiming {
            bank_free_at: data_ready + cost.latency,
            data_ready_at: data_ready,
            bus_occupancy: transfer,
            energy: cost.energy,
        }
    }
}

/// Four lines of EPCM-MM's 1 × 8 × 65536 × 128 grid, corners included.
const LINES: [(u64, u64, u64); 4] = [(0, 0, 0), (1, 0, 0), (0, 5, 3), (7, 65535, 127)];

fn loc(line: usize) -> DecodedAddress {
    let (bank, row, column) = LINES[line];
    DecodedAddress {
        channel: 0,
        bank,
        row,
        column,
    }
}

/// The payload of one write: `width` bytes, either fresh, the complement
/// of the line's last payload, or that payload with one byte changed.
fn payload(last: &[u8], width: usize, content: u8, fresh: u8, at: usize) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..width)
        .map(|i| {
            let old = last.get(i).copied().unwrap_or(0);
            match content {
                0 => fresh.wrapping_mul(i as u8 | 1).rotate_left(i as u32),
                1 => !old,
                _ => old,
            }
        })
        .collect();
    if content == 2 {
        bytes[at % width] ^= fresh | 1;
    }
    bytes
}

proptest! {
    #[test]
    fn slab_store_matches_the_per_line_vec_store(
        writes in proptest::collection::vec(
            (0usize..4, 0u8..5, 0u8..3, any::<u8>(), 0usize..128),
            1..40,
        ),
        bits in prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
    ) {
        for policy in DataPolicy::ALL {
            let model = DataWriteModel::gst(bits, policy);
            let mut device = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(model.clone()));
            let mut reference = ReferenceDevice {
                config: EpcmConfig::epcm_mm(),
                pricer: model,
                store: HashMap::new(),
                stats: DataPlaneStats::default(),
            };
            let mut last: Vec<Vec<u8>> = vec![Vec::new(); LINES.len()];
            for (step, &(line, width, content, fresh, at)) in writes.iter().enumerate() {
                // Widths: the device's 64-byte line (twice as likely), half
                // of it, twice it, or no payload at all.
                let data = match width {
                    0 | 1 => Some(64),
                    2 => Some(32),
                    3 => Some(128),
                    _ => None,
                }
                .map(|width| {
                    last[line] = payload(&last[line], width, content, fresh, at);
                    LineData::from_bytes(&last[line])
                });
                let issue = Time::from_nanos(step as f64 * 10.0);
                let got = device.access_line(&loc(line), MemOp::Write, issue, data.as_ref());
                let want = reference.write(&loc(line), issue, data.as_ref());
                prop_assert_eq!(got, want, "{} at {} bits, step {}", policy, bits, step);
                prop_assert_eq!(got.energy.as_joules().to_bits(), want.energy.as_joules().to_bits());
                prop_assert_eq!(device.data_plane_stats(), Some(reference.stats));
            }
        }
    }
}
