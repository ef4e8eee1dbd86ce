//! DRAM timing and energy models (2D and 3D-stacked DDR3/DDR4).
//!
//! Bank-state-machine granularity, matching what the paper's NVMain
//! baseline models. Every bank runs an open-page policy: an access leaves
//! its row open, so row-buffer hits pay only CAS latency and misses pay
//! precharge + activate + CAS; refresh windows block banks every tREFI,
//! close their rows and cost energy. The 2D presets model the paper's
//! single-device ranks ("1 rank/channel, 1 device/rank"), which throttles
//! the data bus to the device's narrow I/O width; the 3D presets model
//! stacked devices with wide TSV-based internal buses and multiple
//! channels.

use crate::addr::DecodedAddress;
use crate::device::{AccessTiming, DeviceFactory, MemoryDevice, Topology};
use crate::request::MemOp;
use comet_units::{Energy, Power, Time};

/// DRAM timing parameters (datasheet style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTimings {
    /// Clock period.
    pub t_ck: Time,
    /// CAS latency, cycles.
    pub cl: u32,
    /// RAS-to-CAS delay, cycles.
    pub t_rcd: u32,
    /// Row precharge, cycles.
    pub t_rp: u32,
    /// Row active minimum, cycles.
    pub t_ras: u32,
    /// Write recovery, cycles.
    pub t_wr: u32,
    /// Refresh cycle time.
    pub t_rfc: Time,
    /// Refresh interval.
    pub t_refi: Time,
    /// Device data-bus width, bits (per channel).
    pub bus_bits: u32,
}

impl DramTimings {
    /// Time for `n` cycles.
    pub fn cycles(&self, n: u32) -> Time {
        self.t_ck * n as f64
    }

    /// Bus occupancy to move one cache line of `line_bytes` over the
    /// double-data-rate bus.
    pub fn line_transfer(&self, line_bytes: u64) -> Time {
        let beats = (line_bytes * 8) as f64 / self.bus_bits as f64;
        // DDR: two beats per clock.
        self.t_ck * (beats / 2.0)
    }
}

/// DRAM energy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramEnergy {
    /// Energy per row activation (+ implied precharge).
    pub activate: Energy,
    /// Array + I/O energy per read line.
    pub read_line: Energy,
    /// Array + I/O energy per write line.
    pub write_line: Energy,
    /// Energy per refresh operation (per bank).
    pub refresh_op: Energy,
    /// Standby/background power of the whole device.
    pub background: Power,
}

/// A complete DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Report name (e.g. `"2D_DDR3"`).
    pub name: String,
    /// Shape.
    pub topology: Topology,
    /// Timing parameters.
    pub timings: DramTimings,
    /// Energy parameters.
    pub energy: DramEnergy,
}

impl DramConfig {
    /// The paper's `2D_DDR3` baseline: DDR3-1600, one single-device channel.
    pub fn ddr3_1600_2d() -> Self {
        DramConfig {
            name: "2D_DDR3".into(),
            topology: Topology {
                channels: 1,
                banks: 8,
                rows: 1 << 16,
                columns: 128,
                line_bytes: 64,
            },
            timings: DramTimings {
                t_ck: Time::from_nanos(1.25),
                cl: 11,
                t_rcd: 11,
                t_rp: 11,
                t_ras: 28,
                t_wr: 12,
                t_rfc: Time::from_nanos(260.0),
                t_refi: Time::from_micros(7.8),
                bus_bits: 8,
            },
            energy: DramEnergy {
                activate: Energy::from_nanojoules(2.2),
                read_line: Energy::from_nanojoules(12.0),
                write_line: Energy::from_nanojoules(13.0),
                refresh_op: Energy::from_nanojoules(28.0),
                // Module infrastructure (RCD, termination, PLL) dominates
                // idle power on a 2D DIMM.
                background: Power::from_milliwatts(1200.0),
            },
        }
    }

    /// `3D_DDR3`: a single 3D-stacked device — one channel with a 32-bit
    /// TSV bus, four stacked dies contributing 32 banks, faster refresh
    /// recovery (smaller per-die arrays) and cheaper I/O. The modest
    /// stacking the paper's "1 device/rank" configuration implies, not an
    /// HBM-class part.
    pub fn ddr3_3d() -> Self {
        let base = Self::ddr3_1600_2d();
        DramConfig {
            name: "3D_DDR3".into(),
            topology: Topology {
                channels: 1,
                banks: 32,
                rows: 1 << 14,
                columns: 128,
                line_bytes: 64,
            },
            timings: DramTimings {
                bus_bits: 32,
                t_rfc: Time::from_nanos(160.0),
                ..base.timings
            },
            energy: DramEnergy {
                activate: Energy::from_nanojoules(1.4),
                read_line: Energy::from_nanojoules(4.5),
                write_line: Energy::from_nanojoules(5.0),
                refresh_op: Energy::from_nanojoules(12.0),
                background: Power::from_milliwatts(350.0),
            },
        }
    }

    /// The paper's `2D_DDR4` baseline: DDR4-2400, one single-device channel,
    /// 16 banks (bank groups flattened).
    pub fn ddr4_2400_2d() -> Self {
        DramConfig {
            name: "2D_DDR4".into(),
            topology: Topology {
                channels: 1,
                banks: 16,
                rows: 1 << 16,
                columns: 128,
                line_bytes: 64,
            },
            timings: DramTimings {
                t_ck: Time::from_nanos(0.833),
                cl: 16,
                t_rcd: 16,
                t_rp: 16,
                t_ras: 39,
                t_wr: 18,
                t_rfc: Time::from_nanos(350.0),
                t_refi: Time::from_micros(7.8),
                bus_bits: 8,
            },
            energy: DramEnergy {
                activate: Energy::from_nanojoules(1.7),
                read_line: Energy::from_nanojoules(8.5),
                write_line: Energy::from_nanojoules(9.0),
                refresh_op: Energy::from_nanojoules(35.0),
                background: Power::from_milliwatts(1000.0),
            },
        }
    }

    /// `3D_DDR4`: a single 3D-stacked DDR4 device — one channel with a
    /// 32-bit TSV bus and 64 stacked banks; the strongest electronic
    /// baseline in the paper (best BW/EPB among DRAMs).
    pub fn ddr4_3d() -> Self {
        let base = Self::ddr4_2400_2d();
        DramConfig {
            name: "3D_DDR4".into(),
            topology: Topology {
                channels: 1,
                banks: 64,
                rows: 1 << 12,
                columns: 128,
                line_bytes: 64,
            },
            timings: DramTimings {
                bus_bits: 32,
                t_rfc: Time::from_nanos(190.0),
                ..base.timings
            },
            energy: DramEnergy {
                activate: Energy::from_nanojoules(1.1),
                read_line: Energy::from_nanojoules(3.5),
                write_line: Energy::from_nanojoules(4.0),
                refresh_op: Energy::from_nanojoules(15.0),
                background: Power::from_milliwatts(300.0),
            },
        }
    }
}

/// A stateful DRAM device (open rows + refresh bookkeeping).
///
/// # Examples
///
/// ```
/// use memsim::{DramConfig, DramDevice, MemoryDevice};
///
/// let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
/// assert_eq!(dev.name(), "2D_DDR3");
/// assert_eq!(dev.topology().banks, 8);
/// ```
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DramConfig,
    /// Open row per (channel, bank), `None` = precharged.
    open_rows: Vec<Option<u64>>,
    /// Next refresh deadline per (channel, bank).
    next_refresh: Vec<Time>,
    /// Accumulated refresh energy (drained by the engine).
    refresh_energy: Energy,
}

impl DramDevice {
    /// Creates a device in the all-precharged state.
    pub fn new(config: DramConfig) -> Self {
        let nbanks = (config.topology.channels * config.topology.banks) as usize;
        DramDevice {
            open_rows: vec![None; nbanks],
            next_refresh: vec![config.timings.t_refi; nbanks],
            refresh_energy: Energy::ZERO,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn bank_index(&self, loc: &DecodedAddress) -> usize {
        (loc.channel * self.config.topology.banks + loc.bank) as usize
    }

    /// Performs the refresh windows of bank `idx` that started by `at`:
    /// each costs one refresh operation and closes the open row.
    fn catch_up_refresh(&mut self, idx: usize, at: Time) {
        while self.next_refresh[idx] <= at {
            self.refresh_energy += self.config.energy.refresh_op;
            self.open_rows[idx] = None;
            self.next_refresh[idx] += self.config.timings.t_refi;
        }
    }
}

impl DeviceFactory for DramConfig {
    fn device_name(&self) -> String {
        self.name.clone()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        Box::new(DramDevice::new(self.clone()))
    }

    fn device_topology(&self) -> Topology {
        self.topology
    }
}

impl MemoryDevice for DramDevice {
    fn name(&self) -> String {
        self.config.name.clone()
    }

    fn topology(&self) -> Topology {
        self.config.topology
    }

    fn bank_available(&mut self, loc: &DecodedAddress, at: Time) -> Time {
        // A pure query: walk the refresh windows due by `at` without
        // consuming them (`access` does that), pushing past any window
        // that still blocks the bank.
        let t = &self.config.timings;
        let mut next = self.next_refresh[self.bank_index(loc)];
        let mut avail = at;
        while next <= avail {
            avail = avail.max(next + t.t_rfc);
            next += t.t_refi;
        }
        avail
    }

    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        let idx = self.bank_index(loc);
        self.catch_up_refresh(idx, issue);
        let t = &self.config.timings;
        let e = &self.config.energy;

        let (array_delay, mut energy) = match self.open_rows[idx] {
            Some(open) if open == loc.row => (t.cycles(t.cl), Energy::ZERO),
            Some(_) => (t.cycles(t.t_rp + t.t_rcd + t.cl), e.activate),
            None => (t.cycles(t.t_rcd + t.cl), e.activate),
        };

        energy += match op {
            MemOp::Read => e.read_line,
            MemOp::Write => e.write_line,
        };

        let transfer = t.line_transfer(self.config.topology.line_bytes);
        let data_ready = issue + array_delay;
        let bank_free = match op {
            MemOp::Read => data_ready + transfer,
            MemOp::Write => data_ready + transfer + t.cycles(t.t_wr),
        };

        self.open_rows[idx] = Some(loc.row);

        AccessTiming {
            bank_free_at: bank_free,
            data_ready_at: data_ready,
            bus_occupancy: transfer,
            energy,
        }
    }

    fn row_hit(&self, loc: &DecodedAddress) -> bool {
        // The row the last access left open: a refresh due since then
        // closes it only when the next access performs that refresh.
        self.open_rows[(loc.channel * self.config.topology.banks + loc.bank) as usize]
            == Some(loc.row)
    }

    fn drain_accumulated_energy(&mut self) -> Energy {
        std::mem::replace(&mut self.refresh_energy, Energy::ZERO)
    }

    fn reads_payloads(&self) -> bool {
        false
    }

    fn background_power(&self) -> Power {
        self.config.energy.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(bank: u64, row: u64) -> DecodedAddress {
        DecodedAddress {
            channel: 0,
            bank,
            row,
            column: 0,
        }
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let first = dev.access(&loc(0, 5), MemOp::Read, Time::ZERO);
        // Same row: hit, only CL.
        let hit = dev.access(&loc(0, 5), MemOp::Read, first.bank_free_at);
        // Different row: precharge + activate + CL.
        let miss = dev.access(&loc(0, 9), MemOp::Read, hit.bank_free_at);
        let hit_delay = hit.data_ready_at - first.bank_free_at;
        let miss_delay = miss.data_ready_at - hit.bank_free_at;
        assert!(miss_delay.as_nanos() > hit_delay.as_nanos() * 2.0);
        // Hit pays no activation energy.
        assert!(hit.energy < miss.energy);
    }

    #[test]
    fn first_access_pays_activation_only() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let t = dev.config().timings;
        let a = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        let expect = t.cycles(t.t_rcd + t.cl);
        assert!((a.data_ready_at.as_nanos() - expect.as_nanos()).abs() < 1e-9);
    }

    #[test]
    fn narrow_bus_makes_long_transfers() {
        // x8 device at DDR3-1600: 64 B = 64 beats = 40 ns.
        let t = DramConfig::ddr3_1600_2d().timings;
        assert!((t.line_transfer(64).as_nanos() - 40.0).abs() < 1e-9);
        // 3D stack x32: 4x faster.
        let t3 = DramConfig::ddr3_3d().timings;
        assert!((t3.line_transfer(64).as_nanos() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn refresh_blocks_and_costs_energy() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let t_refi = dev.config().timings.t_refi;
        let t_rfc = dev.config().timings.t_rfc;
        let row_open = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        // Just past the first refresh deadline: bank blocked until rfc done.
        let avail = dev.bank_available(&loc(0, 0), t_refi + Time::from_nanos(1.0));
        assert!(avail >= t_refi + t_rfc);
        // The access performs the refresh: it costs one refresh op and
        // closes the row the first access left open.
        let after = dev.access(&loc(0, 0), MemOp::Read, avail);
        assert_eq!(
            dev.drain_accumulated_energy(),
            dev.config().energy.refresh_op
        );
        assert_eq!(after.energy, row_open.energy, "the row was re-activated");
        // Drained: second call returns zero.
        assert_eq!(dev.drain_accumulated_energy(), Energy::ZERO);
    }

    #[test]
    fn refresh_catches_up_over_long_gaps() {
        let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
        let t_refi = dev.config().timings.t_refi;
        // Jump 10 intervals ahead: all missed refreshes charged.
        let _ = dev.access(&loc(0, 0), MemOp::Read, t_refi * 10.5);
        let e = dev.drain_accumulated_energy();
        let per_op = dev.config().energy.refresh_op;
        assert!((e.as_joules() / per_op.as_joules() - 10.0).abs() < 0.5);
    }

    #[test]
    fn writes_hold_bank_longer_than_reads() {
        let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
        let r = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        let mut dev2 = DramDevice::new(DramConfig::ddr4_2400_2d());
        let w = dev2.access(&loc(0, 0), MemOp::Write, Time::ZERO);
        assert!(w.bank_free_at > r.bank_free_at);
    }

    #[test]
    fn presets_are_distinct_and_named() {
        let names: Vec<String> = [
            DramConfig::ddr3_1600_2d(),
            DramConfig::ddr3_3d(),
            DramConfig::ddr4_2400_2d(),
            DramConfig::ddr4_3d(),
        ]
        .iter()
        .map(|c| c.name.clone())
        .collect();
        assert_eq!(names, ["2D_DDR3", "3D_DDR3", "2D_DDR4", "3D_DDR4"]);
        // 3D variants have wider TSV buses, more banks and cheaper reads.
        assert!(
            DramConfig::ddr4_3d().timings.bus_bits > DramConfig::ddr4_2400_2d().timings.bus_bits
        );
        assert!(DramConfig::ddr4_3d().topology.banks > DramConfig::ddr4_2400_2d().topology.banks);
        assert!(
            DramConfig::ddr4_3d().energy.read_line < DramConfig::ddr4_2400_2d().energy.read_line
        );
    }
}
