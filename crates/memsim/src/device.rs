//! The device timing/energy interface the controller drives.
//!
//! Every memory technology in the evaluation — 2D/3D DDR3/DDR4, EPCM-MM,
//! COSMOS and COMET — implements [`MemoryDevice`]. The controller owns
//! queueing, scheduling and bus contention; the device owns bank timing
//! state (open rows, refresh, erase bookkeeping) and per-access energy.

use crate::addr::DecodedAddress;
use crate::data::LineData;
use crate::request::MemOp;
use comet_units::{ByteCount, Energy, Power, Time};

/// Static shape of a memory device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Independent channels (each with its own data bus).
    pub channels: u64,
    /// Banks per channel.
    pub banks: u64,
    /// Rows per bank.
    pub rows: u64,
    /// Cache-line columns per row.
    pub columns: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl Topology {
    /// Total capacity.
    pub fn capacity(&self) -> ByteCount {
        ByteCount::new(self.channels * self.banks * self.rows * self.columns * self.line_bytes)
    }

    /// Total parallel banks across channels.
    pub fn total_banks(&self) -> u64 {
        self.channels * self.banks
    }
}

/// Timing and energy of one serviced access, as decided by the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessTiming {
    /// When the bank becomes free for its next access.
    pub bank_free_at: Time,
    /// When the first data beat is ready to leave the device (reads) or
    /// when the device has latched the data (writes).
    pub data_ready_at: Time,
    /// Data-bus occupancy for the line transfer.
    pub bus_occupancy: Time,
    /// Energy consumed by this access (activation + array + I/O).
    pub energy: Energy,
}

/// A memory device model: timing state machine plus energy accounting.
///
/// Implementations are stateful (`&mut self`) — they track open rows,
/// refresh deadlines and erase state internally. `access` is always called
/// with a monotonically non-decreasing `issue` time per bank.
///
/// # The probe contract
///
/// [`MemoryDevice::bank_available`] and [`MemoryDevice::row_hit`] are
/// *probes*: the scheduler asks them about candidates it may never issue,
/// in any order and any number of times. A probe changes no state (no
/// energy, no row closure, no bookkeeping), the answers for a bank (a
/// `(channel, bank)` pair) change only through an `access` to that bank,
/// and a bank is never available before the time it is asked about:
/// `bank_available(loc, at) >= at`. [`BankQueues`](crate::BankQueues)
/// relies on all three: it caches each bank's choice, re-probes a bank
/// only after its own issue, and skips unprobed any window entry whose
/// floor (the time it is asked about) already rules it out.
/// (`bank_available` keeps its `&mut self` receiver so that wrappers may
/// count or time calls; the model itself must not change.)
///
/// The `Send` supertrait lets parallel runners (the `comet-lab` campaign
/// subsystem) move boxed devices onto worker threads; device models are
/// plain data, so the bound costs implementations nothing.
pub trait MemoryDevice: Send {
    /// Human-readable name used in reports (e.g. `"2D_DDR3"`).
    fn name(&self) -> String;

    /// The device shape.
    fn topology(&self) -> Topology;

    /// Earliest time the bank could accept an access issued at `at`, never
    /// before `at` (accounts for refresh windows and similar blackouts).
    /// The default is no additional constraint. A probe: see the probe
    /// contract above.
    fn bank_available(&mut self, _loc: &DecodedAddress, at: Time) -> Time {
        at
    }

    /// Services one access at time `issue`, updating internal state —
    /// including deferred bookkeeping due by `issue`, such as DRAM refresh
    /// windows that start before it.
    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming;

    /// [`MemoryDevice::access`] with the request's line payload attached.
    /// The engines always call this entry point; the default discards the
    /// payload and delegates, so content-oblivious devices are untouched.
    /// Content-aware devices (the EPCM data plane) override it to price
    /// writes per cell transition against a backing line store.
    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        let _ = data;
        self.access(loc, op, issue)
    }

    /// Whether a payload passed to [`MemoryDevice::access_line`] can change
    /// anything the device reports. A device that answers `false` must
    /// time and price every access exactly as it would with `data: None`,
    /// so the serve engine stops generating payloads for it.
    ///
    /// The default is `true`: always safe, since payloads are then
    /// generated and passed as before. It is also the right answer for a
    /// wrapper that forwards `access_line` without forwarding this method.
    /// Devices that keep `access_line`'s default override it to `false`.
    fn reads_payloads(&self) -> bool {
        true
    }

    /// Whether an access to `loc` would hit the row buffer the bank's last
    /// access left open — used by FR-FCFS scheduling. Devices without row
    /// buffers return `false`. A probe: see the probe contract above.
    fn row_hit(&self, _loc: &DecodedAddress) -> bool {
        false
    }

    /// Drains energy accumulated outside `access` calls (e.g. DRAM refresh).
    /// Called once by the engine at the end of a run.
    fn drain_accumulated_energy(&mut self) -> Energy {
        Energy::ZERO
    }

    /// Constant background power (standby, biasing, idle lasers...).
    fn background_power(&self) -> Power;

    /// Extra per-access controller latency added after the data transfer
    /// (e.g. COMET/COSMOS electrical interface delay of 105 ns). Reads
    /// observe it before data is usable; the default is zero.
    fn interface_delay(&self) -> Time {
        Time::ZERO
    }
}

/// Constructs fresh, identically configured [`MemoryDevice`] instances.
///
/// Parallel experiment runners need one device per cell (device models are
/// stateful), so experiments are described by *factories* rather than device
/// instances. A factory is `Send + Sync`: one factory is shared by every
/// worker thread and asked for a private device per simulation cell.
///
/// Device *configs* are the natural factories — `DramConfig`, `EpcmConfig`
/// (and `CometConfig`/`CosmosConfig` in their crates) all implement this
/// trait by constructing their device. For ad-hoc variants, wrap a closure
/// in [`FnFactory`].
pub trait DeviceFactory: Send + Sync {
    /// The report name of the devices this factory builds. Usually equals
    /// `MemoryDevice::name` of the built device; ad-hoc variants (see
    /// [`FnFactory`]) may use a more specific label (e.g. `"COMET-2b"`).
    fn device_name(&self) -> String;

    /// Builds a new device in its initial state.
    fn build(&self) -> Box<dyn MemoryDevice>;

    /// The topology the built devices will report. The default constructs
    /// a throwaway device and asks it; config-backed factories override
    /// this for free, so callers that only need a shape (e.g. workload
    /// line-size normalization) skip the device construction.
    fn device_topology(&self) -> Topology {
        self.build().topology()
    }
}

/// A closure-backed [`DeviceFactory`] for one-off device variants
/// (ablation sweeps, tuned configs) without a dedicated config type.
///
/// # Examples
///
/// ```
/// use memsim::{DeviceFactory, DramConfig, DramDevice, FnFactory};
///
/// let f = FnFactory::new("DDR3-16-bank", || {
///     let mut cfg = DramConfig::ddr3_1600_2d();
///     cfg.topology.banks = 16;
///     Box::new(DramDevice::new(cfg))
/// });
/// assert_eq!(f.device_name(), "DDR3-16-bank");
/// let _dev = f.build();
/// ```
pub struct FnFactory {
    name: String,
    build: Box<dyn Fn() -> Box<dyn MemoryDevice> + Send + Sync>,
}

impl FnFactory {
    /// Wraps a device-building closure under a report name.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn() -> Box<dyn MemoryDevice> + Send + Sync + 'static,
    ) -> Self {
        FnFactory {
            name: name.into(),
            build: Box::new(build),
        }
    }
}

impl std::fmt::Debug for FnFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnFactory")
            .field("name", &self.name)
            .finish()
    }
}

impl DeviceFactory for FnFactory {
    fn device_name(&self) -> String {
        self.name.clone()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        (self.build)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_capacity() {
        let t = Topology {
            channels: 1,
            banks: 8,
            rows: 1 << 16,
            columns: 128,
            line_bytes: 64,
        };
        assert_eq!(t.capacity().value(), 8 * 65536 * 128 * 64);
        assert_eq!(t.total_banks(), 8);
    }
}
