//! Electrically controlled PCM main memory (the paper's `EPCM-MM` baseline).
//!
//! A 1T-1R PCM array: non-volatile (no refresh), read latency comparable to
//! DRAM, but asymmetric and slow writes (RESET melt pulses / SET
//! crystallization pulses driven by current). Timing/energy follow the
//! LL-PCM / DyPhase class of EPCM main-memory proposals the paper cites.
//!
//! The device optionally carries a **data plane**
//! ([`EpcmDevice::with_pricer`]): a backing line store of pricer-private
//! cell images plus a [`WritePricer`] that prices each write from its
//! content (per-cell level transitions, DCW/Flip-N-Write write reduction —
//! the policies live in `comet-data`). Without a pricer — or for requests
//! that carry no payload — the flat `write_line` cost stays authoritative,
//! so the content-oblivious baseline is untouched.
//!
//! The line store is a slab: fixed-stride slots in fixed-size chunks, a
//! free list, and a [`MixMap`] from each line's index to its slot. The stride
//! is the image length of a full device line, so a write allocates
//! nothing once its line has a slot, and the pricer reads and rewrites the
//! image where it lies ([`WritePricer::price_in_place`]).

use crate::addr::DecodedAddress;
use crate::data::{LineData, WriteCost, WritePricer};
use crate::device::{AccessTiming, DeviceFactory, MemoryDevice, Topology};
use crate::hash::MixMap;
use crate::request::MemOp;
use comet_units::{Energy, Power, Time};

/// EPCM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EpcmConfig {
    /// Report name.
    pub name: String,
    /// Shape.
    pub topology: Topology,
    /// Array read latency (sense).
    pub read_latency: Time,
    /// Array write latency (worst of SET/RESET for a line).
    pub write_latency: Time,
    /// Data-bus beat period.
    pub bus_beat: Time,
    /// Bus width, bits.
    pub bus_bits: u32,
    /// Read energy per line.
    pub read_line: Energy,
    /// Write energy per line (RESET-dominated).
    pub write_line: Energy,
    /// Background power (peripheral circuits; no refresh).
    pub background: Power,
}

impl EpcmConfig {
    /// The paper's `EPCM-MM` baseline: 8 banks, 60 ns reads, 150 ns writes,
    /// x16 bus at 800 MT/s.
    pub fn epcm_mm() -> Self {
        EpcmConfig {
            name: "EPCM-MM".into(),
            topology: Topology {
                channels: 1,
                banks: 8,
                rows: 1 << 16,
                columns: 128,
                line_bytes: 64,
            },
            read_latency: Time::from_nanos(60.0),
            write_latency: Time::from_nanos(150.0),
            bus_beat: Time::from_nanos(1.25),
            bus_bits: 16,
            read_line: Energy::from_nanojoules(1.0),
            write_line: Energy::from_nanojoules(8.0),
            background: Power::from_milliwatts(150.0),
        }
    }

    /// Bus occupancy for one line (DDR signaling).
    pub fn line_transfer(&self) -> Time {
        let beats = (self.topology.line_bytes * 8) as f64 / self.bus_bits as f64;
        self.bus_beat * (beats / 2.0)
    }
}

/// Running counters of a device's data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPlaneStats {
    /// Writes priced from their content.
    pub priced_writes: u64,
    /// Writes priced at the unknown-content worst case (no payload).
    pub unpriced_writes: u64,
    /// Cells actually reprogrammed across priced writes.
    pub cells_written: u64,
    /// Cells the priced writes spanned.
    pub cells_total: u64,
}

/// The optional content-aware write path of an [`EpcmDevice`].
#[derive(Debug)]
struct DataPlane {
    pricer: Box<dyn WritePricer>,
    store: LineStore,
    stats: DataPlaneStats,
}

/// Slots per chunk of a [`LineStore`]. A chunk of full-line EPCM images
/// is a few tens of KiB, so chunks come from the allocator's heap rather
/// than from their own mappings.
const CHUNK_SLOTS: usize = 256;

/// A chunk of [`CHUNK_SLOTS`] erased `stride`-byte slots.
fn erased_chunk(stride: usize) -> Box<[u8]> {
    vec![0u8; CHUNK_SLOTS * stride].into_boxed_slice()
}

/// Per-line cell images in fixed-stride slots, allocated a chunk of
/// [`CHUNK_SLOTS`] slots at a time.
///
/// Chunks never move once allocated: the store grows by one chunk, not by
/// reallocating and copying a buffer that doubles, so its footprint
/// follows the number of lines touched instead of jumping at powers of
/// two, and the run's peak memory does not depend on where in the run
/// those jumps fall.
///
/// A line's bytes past its current image are zero, so a later, longer
/// image reads them as erased.
#[derive(Debug)]
struct LineStore {
    /// Banks, rows and columns of the device: the radices of a line index.
    banks: u64,
    rows: u64,
    columns: u64,
    /// Line index → slot.
    slots: MixMap<u64, u32>,
    /// Bytes per slot.
    stride: usize,
    /// Slots handed out so far, freed ones included.
    len: usize,
    chunks: Vec<Box<[u8]>>,
    free: Vec<u32>,
}

impl LineStore {
    fn new(topology: Topology, stride: usize) -> Self {
        LineStore {
            banks: topology.banks,
            rows: topology.rows,
            columns: topology.columns,
            slots: MixMap::default(),
            stride,
            len: 0,
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The line's index, `((channel·banks + bank)·rows + row)·columns +
    /// column`: unique per line of the topology.
    fn index(&self, loc: &DecodedAddress) -> u64 {
        debug_assert!(loc.bank < self.banks && loc.row < self.rows && loc.column < self.columns);
        ((loc.channel * self.banks + loc.bank) * self.rows + loc.row) * self.columns + loc.column
    }

    /// The slot's bytes.
    fn slot(&mut self, slot: usize) -> &mut [u8] {
        let at = slot % CHUNK_SLOTS * self.stride;
        &mut self.chunks[slot / CHUNK_SLOTS][at..at + self.stride]
    }

    /// The line's image, `len` bytes of its slot (allocated erased on
    /// first touch); the rest of the slot is zeroed, as the pricer will
    /// not write it.
    fn image(&mut self, line: u64, len: usize) -> &mut [u8] {
        if len > self.stride {
            self.restride(len);
        }
        let (chunks, used, stride) = (&mut self.chunks, &mut self.len, self.stride);
        let slot = *self
            .slots
            .entry(line)
            .or_insert_with(|| match self.free.pop() {
                Some(slot) => slot,
                None => {
                    if *used == chunks.len() * CHUNK_SLOTS {
                        chunks.push(erased_chunk(stride));
                    }
                    *used += 1;
                    u32::try_from(*used - 1).expect("fewer than 2^32 stored lines")
                }
            }) as usize;
        let (image, rest) = self.slot(slot).split_at_mut(len);
        rest.fill(0);
        image
    }

    /// Drops the line's image: its slot is erased and freed.
    fn forget(&mut self, line: u64) {
        if let Some(slot) = self.slots.remove(&line) {
            self.slot(slot as usize).fill(0);
            self.free.push(slot);
        }
    }

    /// Widens every slot to `stride` bytes (a payload wider than the
    /// device's line), keeping each image and zeroing the new tail.
    fn restride(&mut self, stride: usize) {
        let old = std::mem::take(&mut self.chunks);
        let narrow = self.stride;
        self.stride = stride;
        self.chunks = old.iter().map(|_| erased_chunk(stride)).collect();
        if narrow > 0 {
            for (new, old) in self.chunks.iter_mut().zip(&old) {
                for (new, old) in new.chunks_mut(stride).zip(old.chunks(narrow)) {
                    new[..narrow].copy_from_slice(old);
                }
            }
        }
    }
}

impl DataPlane {
    /// Prices a payload-carrying write to `loc` against its stored image.
    fn price(&mut self, loc: &DecodedAddress, line: &LineData) -> WriteCost {
        let index = self.store.index(loc);
        let cost = match self.pricer.image_len(line.len()) {
            Some(len) if len > 0 => {
                let image = self.store.image(index, len);
                self.pricer.price_in_place(image, line)
            }
            // A stateless policy (or an empty image) leaves nothing to
            // keep, as if the line were erased.
            _ => {
                self.store.forget(index);
                self.pricer.price_in_place(&mut [], line)
            }
        };
        self.stats.priced_writes += 1;
        self.stats.cells_written += cost.cells_written;
        self.stats.cells_total += cost.cells_total;
        cost
    }
}

/// A stateless-timing EPCM device (no rows to keep open, no refresh).
///
/// # Examples
///
/// ```
/// use memsim::{EpcmConfig, EpcmDevice, MemoryDevice};
///
/// let dev = EpcmDevice::new(EpcmConfig::epcm_mm());
/// assert_eq!(dev.name(), "EPCM-MM");
/// ```
#[derive(Debug)]
pub struct EpcmDevice {
    config: EpcmConfig,
    data: Option<DataPlane>,
}

impl EpcmDevice {
    /// Creates a flat-cost device (every write prices at `write_line`).
    pub fn new(config: EpcmConfig) -> Self {
        EpcmDevice { config, data: None }
    }

    /// Creates a content-aware device: writes that carry a payload are
    /// priced by `pricer` against the line's previously stored cell image
    /// instead of the flat `write_line`/`write_latency` pair. Reads and
    /// payload-less writes keep the flat path (the latter at the pricer's
    /// unknown-content worst case).
    pub fn with_pricer(config: EpcmConfig, pricer: Box<dyn WritePricer>) -> Self {
        let line = config.topology.line_bytes as usize;
        let stride = pricer.image_len(line).unwrap_or(0);
        let store = LineStore::new(config.topology, stride);
        EpcmDevice {
            config,
            data: Some(DataPlane {
                pricer,
                store,
                stats: DataPlaneStats::default(),
            }),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EpcmConfig {
        &self.config
    }

    /// Data-plane counters (`None` for flat-cost devices).
    pub fn data_plane_stats(&self) -> Option<DataPlaneStats> {
        self.data.as_ref().map(|d| d.stats)
    }

    /// Timing skeleton of a write: transfer first, then the array holds
    /// the bank for `array` (the flat path passes `write_latency`; the
    /// content-aware path the priced pulse occupancy).
    fn write_timing(&self, issue: Time, array: Time, energy: Energy) -> AccessTiming {
        let transfer = self.config.line_transfer();
        let data_ready = issue + transfer;
        AccessTiming {
            bank_free_at: data_ready + array,
            data_ready_at: data_ready,
            bus_occupancy: transfer,
            energy,
        }
    }
}

impl DeviceFactory for EpcmConfig {
    fn device_name(&self) -> String {
        self.name.clone()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        Box::new(EpcmDevice::new(self.clone()))
    }

    fn device_topology(&self) -> Topology {
        self.topology
    }
}

impl MemoryDevice for EpcmDevice {
    fn name(&self) -> String {
        self.config.name.clone()
    }

    fn topology(&self) -> Topology {
        self.config.topology
    }

    fn access(&mut self, _loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        let transfer = self.config.line_transfer();
        match op {
            MemOp::Read => {
                let data_ready = issue + self.config.read_latency;
                AccessTiming {
                    bank_free_at: data_ready + transfer,
                    data_ready_at: data_ready,
                    bus_occupancy: transfer,
                    energy: self.config.read_line,
                }
            }
            // Data moves first, then the slow array write holds the bank.
            MemOp::Write => {
                self.write_timing(issue, self.config.write_latency, self.config.write_line)
            }
        }
    }

    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        // Reads never consult the pricer; flat devices have none.
        if op.is_read() || self.data.is_none() {
            return self.access(loc, op, issue);
        }
        let plane = self.data.as_mut().expect("checked above");
        let cost = match data {
            Some(line) => plane.price(loc, line),
            None => {
                // Unknown content: worst-case price, and the stored image
                // no longer describes the line.
                let index = plane.store.index(loc);
                plane.store.forget(index);
                plane.stats.unpriced_writes += 1;
                plane.pricer.price_unknown(self.config.topology.line_bytes)
            }
        };
        self.write_timing(issue, cost.latency, cost.energy)
    }

    fn reads_payloads(&self) -> bool {
        self.data.is_some()
    }

    fn background_power(&self) -> Power {
        self.config.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> DecodedAddress {
        DecodedAddress {
            channel: 0,
            bank: 0,
            row: 0,
            column: 0,
        }
    }

    #[test]
    fn asymmetric_write_latency() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let r = dev.access(&loc(), MemOp::Read, Time::ZERO);
        let w = dev.access(&loc(), MemOp::Write, Time::ZERO);
        assert!(w.bank_free_at.as_nanos() > r.bank_free_at.as_nanos() * 1.5);
        assert!(w.energy > r.energy * 3.0);
    }

    #[test]
    fn no_refresh_blackouts() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        // bank_available is the default (identity): never blocked.
        let at = Time::from_micros(100.0);
        assert_eq!(dev.bank_available(&loc(), at), at);
    }

    #[test]
    fn transfer_time() {
        // 64 B over x16 DDR at 1.25 ns beat-pair: 32 beats -> 20 ns.
        let cfg = EpcmConfig::epcm_mm();
        assert!((cfg.line_transfer().as_nanos() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reads_are_deterministic() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let a = dev.access(&loc(), MemOp::Read, Time::from_nanos(100.0));
        let b = dev.access(&loc(), MemOp::Read, Time::from_nanos(100.0));
        assert_eq!(a, b);
    }

    /// A toy pricer: 1 pJ and 1 ns per byte that differs from the stored
    /// image (erased bytes read as zero); the image is the raw payload.
    #[derive(Debug)]
    struct BytePricer;

    impl WritePricer for BytePricer {
        fn image_len(&self, len: usize) -> Option<usize> {
            Some(len)
        }

        fn price_in_place(&self, image: &mut [u8], data: &LineData) -> WriteCost {
            let changed = image
                .iter()
                .zip(data.bytes())
                .filter(|(o, n)| o != n)
                .count() as u64;
            image.copy_from_slice(data.bytes());
            WriteCost {
                energy: Energy::from_picojoules(changed as f64),
                latency: Time::from_nanos(changed as f64),
                cells_written: changed,
                cells_total: data.len() as u64,
            }
        }

        fn price_unknown(&self, line_bytes: u64) -> WriteCost {
            WriteCost {
                energy: Energy::from_picojoules(line_bytes as f64),
                latency: Time::from_nanos(line_bytes as f64),
                cells_written: line_bytes,
                cells_total: line_bytes,
            }
        }
    }

    fn write(dev: &mut EpcmDevice, at: &DecodedAddress, bytes: &[u8]) -> f64 {
        let line = LineData::from_bytes(bytes);
        dev.access_line(at, MemOp::Write, Time::ZERO, Some(&line))
            .energy
            .as_picojoules()
    }

    #[test]
    fn wider_payloads_restride_the_store_and_keep_every_image() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let other = DecodedAddress { row: 5, ..loc() };
        assert_eq!(write(&mut dev, &loc(), &[7; 64]), 64.0);
        // A 128 B payload on the 64 B-line device widens every slot...
        assert_eq!(write(&mut dev, &other, &[9; 128]), 128.0);
        // ...and the first line's image survives the move.
        assert_eq!(write(&mut dev, &loc(), &[7; 64]), 0.0);
        // A shorter image erases the tail a longer one left behind.
        assert_eq!(write(&mut dev, &other, &[9; 32]), 0.0);
        assert_eq!(write(&mut dev, &other, &[9; 128]), 96.0);
    }

    #[test]
    fn restriding_keeps_the_images_of_every_chunk() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let at = |row: u64| DecodedAddress { row, ..loc() };
        let lines = 2 * CHUNK_SLOTS as u64 + 3;
        for row in 0..lines {
            assert_eq!(write(&mut dev, &at(row), &[row as u8 | 1; 64]), 64.0);
        }
        // The 128 B payload widens the slots of all three chunks...
        assert_eq!(write(&mut dev, &at(lines), &[9; 128]), 128.0);
        let store = &dev.data.as_ref().expect("data plane").store;
        assert_eq!((store.chunks.len(), store.stride), (3, 128));
        // ...and every earlier line still holds its image.
        for row in 0..lines {
            assert_eq!(write(&mut dev, &at(row), &[row as u8 | 1; 64]), 0.0);
        }
    }

    #[test]
    fn freed_slots_are_reused_erased() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let other = DecodedAddress { bank: 3, ..loc() };
        assert_eq!(write(&mut dev, &loc(), &[7; 64]), 64.0);
        let _ = dev.access_line(&loc(), MemOp::Write, Time::ZERO, None);
        // `other` takes the freed slot and finds it erased.
        assert_eq!(write(&mut dev, &other, &[7; 64]), 64.0);
        let store = &dev.data.as_ref().expect("data plane").store;
        assert_eq!(store.len, 1, "one slot, reused");
    }

    #[test]
    fn content_aware_writes_price_against_the_line_store() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let line = LineData::from_bytes(&[7u8; 64]);
        // First touch: every byte programs.
        let a = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        assert!((a.energy.as_picojoules() - 64.0).abs() < 1e-9);
        // Rewriting identical content is free array-wise.
        let b = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        assert_eq!(b.energy, Energy::ZERO);
        assert_eq!(
            b.bank_free_at, b.data_ready_at,
            "conserved write holds no array time"
        );
        // One changed byte prices one transition.
        let mut bytes = [7u8; 64];
        bytes[3] = 9;
        let c = dev.access_line(
            &loc(),
            MemOp::Write,
            Time::ZERO,
            Some(&LineData::from_bytes(&bytes)),
        );
        assert!((c.energy.as_picojoules() - 1.0).abs() < 1e-9);
        let stats = dev.data_plane_stats().expect("data plane present");
        assert_eq!(stats.priced_writes, 3);
        assert_eq!(stats.cells_written, 65);
        assert_eq!(stats.cells_total, 3 * 64);
    }

    #[test]
    fn payloadless_writes_invalidate_the_store() {
        let mut dev = EpcmDevice::with_pricer(EpcmConfig::epcm_mm(), Box::new(BytePricer));
        let line = LineData::from_bytes(&[7u8; 64]);
        let _ = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        // No payload: worst-case price, image dropped...
        let unknown = dev.access_line(&loc(), MemOp::Write, Time::ZERO, None);
        assert!((unknown.energy.as_picojoules() - 64.0).abs() < 1e-9);
        // ...so the next identical payload programs from scratch.
        let again = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        assert!((again.energy.as_picojoules() - 64.0).abs() < 1e-9);
        assert_eq!(dev.data_plane_stats().unwrap().unpriced_writes, 1);
    }

    #[test]
    fn flat_devices_ignore_payloads() {
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let line = LineData::zeroes(64);
        let with = dev.access_line(&loc(), MemOp::Write, Time::ZERO, Some(&line));
        let without = dev.access(&loc(), MemOp::Write, Time::ZERO);
        assert_eq!(with, without);
        assert!(dev.data_plane_stats().is_none());
    }
}
