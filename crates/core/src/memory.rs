//! A functional COMET memory: byte-addressable storage over MLC subarrays.
//!
//! Combines the Eq. (1)–(6) address mapping, the byte↔level packing, the
//! gain LUT and the level codec into a memory you can actually put data in
//! and get data out of — including through the lossy optical read path, so
//! integrity under loss compensation is testable end-to-end (COMET's
//! counterpart to the Fig. 2 corruption study).

use crate::arch::CometConfig;
use crate::cell::{decode_levels, encode_bytes, LevelCodec, Subarray};
use crate::lut::GainLut;
use crate::mapping::AddressMapper;
use comet_units::Decibels;
use memsim::{AddressMap, Interleave};
use std::collections::HashMap;

/// A functional COMET memory instance.
///
/// Subarrays are materialized lazily (the full 8 Gbit array would be
/// gigabytes of host memory); untouched cells read as level 0.
///
/// # Examples
///
/// ```
/// use comet::{CometConfig, CometMemory};
///
/// let mut mem = CometMemory::new(CometConfig::comet_4b());
/// let data = b"phase-change photonics".to_vec();
/// mem.write(0x1000, &data);
/// assert_eq!(mem.read(0x1000, data.len()), data);
/// ```
#[derive(Debug, Clone)]
pub struct CometMemory {
    config: CometConfig,
    mapper: AddressMapper,
    addr_map: AddressMap,
    codec: LevelCodec,
    lut: GainLut,
    subarrays: HashMap<(u64, u64), Subarray>,
}

impl CometMemory {
    /// Creates an erased memory whose level codec comes from the
    /// configuration's cell model: the paper's transcribed levels in
    /// `Paper` mode (identical to [`LevelCodec::ideal`]), the
    /// physics-derived transmission grid in `Derived` mode.
    pub fn new(config: CometConfig) -> Self {
        let codec =
            LevelCodec::from_cell_model(config.cell_optics().as_ref(), config.bits_per_cell);
        Self::with_codec(config, codec)
    }

    /// Creates a memory with an explicit codec (e.g. derived from a
    /// physics-layer [`opcm_phys::ProgramTable`]).
    pub fn with_codec(config: CometConfig, codec: LevelCodec) -> Self {
        assert_eq!(
            codec.bits(),
            config.bits_per_cell,
            "codec bit density must match the configuration"
        );
        let mapper = AddressMapper::new(&config);
        // Paper mode keeps the published LUT granularity (52/12/46
        // entries); derived mode lets the physical level spacing set it.
        let lut = match config.cell_model {
            photonic::CellModelMode::Paper => {
                GainLut::for_bits(config.bits_per_cell, config.subarray_rows, &config.optical)
            }
            photonic::CellModelMode::Derived => GainLut::for_cell(
                config.cell_optics().as_ref(),
                config.bits_per_cell,
                config.subarray_rows,
                &config.optical,
            ),
        };
        let addr_map = AddressMap::new(
            1,
            config.banks,
            config.subarrays * config.subarray_rows,
            1,
            config.timing.access_bytes(),
            Interleave::RowBankColumnChannel,
        )
        .expect("validated config dimensions");
        CometMemory {
            config,
            mapper,
            addr_map,
            codec,
            lut,
            subarrays: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    fn subarray_entry(&mut self, bank: u64, subarray: u64) -> &mut Subarray {
        let rows = self.config.subarray_rows;
        let cols = self.config.subarray_cols;
        self.subarrays
            .entry((bank, subarray))
            .or_insert_with(|| Subarray::new(rows, cols))
    }

    /// Writes one cache line at a line-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `address` is not line-aligned or `data` is not exactly one
    /// line.
    pub fn write_line(&mut self, address: u64, data: &[u8]) {
        let line = self.config.timing.access_bytes() as usize;
        assert_eq!(data.len(), line, "line writes take exactly {line} bytes");
        assert_eq!(address % line as u64, 0, "address must be line-aligned");
        let flat = self.addr_map.decode(address);
        let loc = self.mapper.map(flat);
        let levels = encode_bytes(data, self.config.bits_per_cell);
        debug_assert_eq!(levels.len() as u64, self.config.cells_per_line());
        self.subarray_entry(loc.bank, loc.subarray)
            .write_span(loc.row, loc.column, &levels);
    }

    /// Reads one cache line through the optical path: per-cell
    /// transmittances suffer the row's LUT-residual loss, then decode to
    /// levels and bytes.
    pub fn read_line(&mut self, address: u64) -> Vec<u8> {
        let line = self.config.timing.access_bytes() as usize;
        assert_eq!(address % line as u64, 0, "address must be line-aligned");
        let flat = self.addr_map.decode(address);
        let loc = self.mapper.map(flat);
        let cells = self.config.cells_per_line() as usize;
        // Residual after LUT gain trim. A *negative* residual (slight
        // overdrive) is clamped: detectors saturate rather than over-report.
        let residual = self.lut.residual_loss(loc.row).max(Decibels::ZERO);
        let codec = self.codec.clone();
        let rows = self.config.subarray_rows;
        let cols = self.config.subarray_cols;
        let sub = self
            .subarrays
            .entry((loc.bank, loc.subarray))
            .or_insert_with(|| Subarray::new(rows, cols));
        let levels = sub.read_span_with_loss(&codec, loc.row, loc.column, cells, residual);
        decode_levels(&levels, self.config.bits_per_cell)
    }

    /// Writes an arbitrary byte span (line-granular read-modify-write).
    pub fn write(&mut self, address: u64, data: &[u8]) {
        let line = self.config.timing.access_bytes();
        let mut cursor = 0usize;
        let mut addr = address;
        while cursor < data.len() {
            let base = addr / line * line;
            let offset = (addr - base) as usize;
            let take = ((line as usize) - offset).min(data.len() - cursor);
            let mut buf = self.read_line_raw(base);
            buf[offset..offset + take].copy_from_slice(&data[cursor..cursor + take]);
            self.write_line(base, &buf);
            cursor += take;
            addr += take as u64;
        }
    }

    /// Reads an arbitrary byte span through the optical path.
    pub fn read(&mut self, address: u64, len: usize) -> Vec<u8> {
        let line = self.config.timing.access_bytes();
        let mut out = Vec::with_capacity(len);
        let mut addr = address;
        while out.len() < len {
            let base = addr / line * line;
            let offset = (addr - base) as usize;
            let take = ((line as usize) - offset).min(len - out.len());
            let buf = self.read_line(base);
            out.extend_from_slice(&buf[offset..offset + take]);
            addr += take as u64;
        }
        out
    }

    /// Reads a line without the optical path (ground truth for RMW).
    fn read_line_raw(&mut self, address: u64) -> Vec<u8> {
        let flat = self.addr_map.decode(address);
        let loc = self.mapper.map(flat);
        let cells = self.config.cells_per_line() as usize;
        let rows = self.config.subarray_rows;
        let cols = self.config.subarray_cols;
        let sub = self
            .subarrays
            .entry((loc.bank, loc.subarray))
            .or_insert_with(|| Subarray::new(rows, cols));
        let levels = sub.read_span(loc.row, loc.column, cells).to_vec();
        decode_levels(&levels, self.config.bits_per_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> CometMemory {
        CometMemory::new(CometConfig::comet_4b())
    }

    /// The line at `address` read from its stored cells through `loss` of
    /// uncompensated optical loss, with no LUT trim.
    fn read_line_through(mem: &CometMemory, address: u64, loss: Decibels) -> Vec<u8> {
        let loc = mem.mapper.map(mem.addr_map.decode(address));
        let cells = mem.config.cells_per_line() as usize;
        let sub = &mem.subarrays[&(loc.bank, loc.subarray)];
        let levels = sub.read_span_with_loss(&mem.codec, loc.row, loc.column, cells, loss);
        decode_levels(&levels, mem.config.bits_per_cell)
    }

    #[test]
    fn derived_cell_model_memory_roundtrips() {
        use photonic::CellModelMode;
        // The physics-derived level grid stores and recovers data just
        // like the paper grid, and still tolerates sub-margin read loss.
        let cfg = CometConfig::comet_4b().with_cell_model(CellModelMode::Derived);
        let mut mem = CometMemory::new(cfg.clone());
        let data: Vec<u8> = (0..64).map(|i| i * 3).collect();
        mem.write(0x40, &data);
        assert_eq!(mem.read(0x40, data.len()), data);
        let codec = LevelCodec::from_cell_model(cfg.cell_optics().as_ref(), cfg.bits_per_cell);
        let levels: Vec<u8> = (0..16).collect();
        let mut sub = Subarray::new(1, 16);
        sub.write_span(0, 0, &levels);
        let read = sub.read_span_with_loss(&codec, 0, 0, 16, Decibels::new(0.05));
        assert_eq!(read, levels);
    }

    #[test]
    fn line_roundtrip() {
        let mut mem = memory();
        let line: Vec<u8> = (0..128).collect();
        mem.write_line(0, &line);
        assert_eq!(mem.read_line(0), line);
    }

    #[test]
    fn unaligned_span_roundtrip() {
        let mut mem = memory();
        let data: Vec<u8> = (0..777).map(|i| (i * 31 % 251) as u8).collect();
        mem.write(1000, &data);
        assert_eq!(mem.read(1000, data.len()), data);
    }

    #[test]
    fn untouched_memory_reads_zeroish() {
        let mut mem = memory();
        // Level 0 everywhere decodes to 0x00 bytes.
        assert_eq!(mem.read(0x8000, 16), vec![0u8; 16]);
    }

    #[test]
    fn distinct_lines_do_not_alias() {
        let mut mem = memory();
        let a = vec![0xAA; 128];
        let b = vec![0x55; 128];
        mem.write_line(0, &a);
        mem.write_line(128, &b);
        mem.write_line(128 * 1024, &a);
        assert_eq!(mem.read_line(0), a);
        assert_eq!(mem.read_line(128), b);
        assert_eq!(mem.read_line(128 * 1024), a);
    }

    #[test]
    fn lut_compensated_reads_survive_all_rows() {
        // Data integrity across rows with different SOA-stage distances —
        // the core COMET reliability claim.
        let mut mem = memory();
        let line: Vec<u8> = (0..128).map(|i| (i * 7 % 256) as u8).collect();
        // Touch rows across several SOA periods via widely spaced lines.
        for k in 0..200u64 {
            mem.write_line(k * 128 * 37, &line);
        }
        for k in 0..200u64 {
            assert_eq!(mem.read_line(k * 128 * 37), line, "line {k}");
        }
    }

    #[test]
    fn injected_loss_corrupts_data() {
        let mut mem = memory();
        let line: Vec<u8> = (0..128).collect();
        mem.write_line(0, &line);
        assert_ne!(
            read_line_through(&mem, 0, Decibels::new(2.0)),
            line,
            "2 dB fault must corrupt 4-bit cells"
        );
        assert_eq!(mem.read_line(0), line, "data itself is intact");
    }

    #[test]
    fn small_injected_loss_is_tolerated() {
        let mut mem = memory();
        let line: Vec<u8> = (0..128).rev().collect();
        mem.write_line(0, &line);
        // Below half the ~6% level spacing (~0.13 dB): still decodes.
        assert_eq!(read_line_through(&mem, 0, Decibels::new(0.1)), line);
    }

    #[test]
    fn lazy_materialization() {
        let mut mem = memory();
        assert_eq!(mem.subarrays.len(), 0);
        mem.write_line(0, &[1u8; 128]);
        assert_eq!(mem.subarrays.len(), 1);
        // A far-away line touches a different subarray.
        mem.write_line(1 << 24, &[2u8; 128]);
        assert_eq!(mem.subarrays.len(), 2);
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_line_write_rejected() {
        let mut mem = memory();
        mem.write_line(64, &[0u8; 128]);
    }
}
