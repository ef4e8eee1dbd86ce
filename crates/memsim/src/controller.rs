//! The memory controller both execution engines share.
//!
//! Trace replay ([`crate::run_simulation`]) and the `comet-serve` service
//! core differ in where requests come from and when they complete, not in
//! how a controller treats them. [`Controller`] is that common part: the
//! address map, the per-bank queues and their FCFS / FR-FCFS choice
//! ([`BankQueues`]), per-channel data-bus contention, the device's
//! interface delay, and the statistics with their latency histogram. An
//! engine decodes and pushes requests, asks for the next issue, performs
//! it through [`Controller::access`], records the request at once (its
//! finish time is known at issue, so both engines record in issue order),
//! and calls [`Controller::finish`] once.

use crate::addr::{AddressMap, DecodedAddress, Interleave};
use crate::data::LineData;
use crate::device::MemoryDevice;
use crate::engine::Scheduler;
use crate::queues::{BankQueues, Pending};
use crate::request::{CompletedRequest, MemOp};
use crate::stats::SimStats;
use comet_units::{Energy, Power, Time};

/// Per-bank queues, channel buses and statistics for one device.
///
/// # Examples
///
/// ```
/// use comet_units::{ByteCount, Time};
/// use memsim::{
///     CompletedRequest, Controller, DecodedAddress, DramConfig, DramDevice, MemOp,
///     MemRequest, MemoryDevice, Pending, Scheduler,
/// };
///
/// struct Req(MemRequest, DecodedAddress);
/// impl Pending for Req {
///     fn loc(&self) -> &DecodedAddress { &self.1 }
///     fn ready(&self) -> Time { self.0.arrival }
/// }
///
/// let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
/// let mut ctl = Controller::new(&dev, Scheduler::Fcfs, "doc");
/// for i in 0..4 {
///     let request = MemRequest::new(i, Time::ZERO, MemOp::Read, i * 64, ByteCount::new(64));
///     let loc = ctl.decode(request.address);
///     ctl.push(Req(request, loc));
/// }
/// while let Some((issued, bank)) = ctl.next_issue(&mut dev) {
///     let Req(request, loc) = ctl.take(bank);
///     let finished = ctl.access(&mut dev, &loc, request.op, issued, None);
///     ctl.record(&CompletedRequest { request, issued, finished });
/// }
/// let refresh = dev.drain_accumulated_energy();
/// let stats = ctl.finish(refresh, dev.background_power());
/// assert_eq!(stats.completed, 4);
/// assert!(stats.p50_latency > Time::ZERO);
/// ```
#[derive(Debug)]
pub struct Controller<T> {
    map: AddressMap,
    queues: BankQueues<T>,
    /// When each channel's data bus frees up.
    bus_free: Vec<Time>,
    interface_delay: Time,
    stats: SimStats,
}

impl<T: Pending> Controller<T> {
    /// An idle controller in front of `device`, scheduling with
    /// `scheduler` and labelling its statistics with `workload`.
    ///
    /// # Panics
    ///
    /// If a topology dimension of `device` is not a power of two, or
    /// `scheduler` is FR-FCFS with a zero window.
    pub fn new(device: &dyn MemoryDevice, scheduler: Scheduler, workload: &str) -> Self {
        let topo = device.topology();
        let map = AddressMap::new(
            topo.channels,
            topo.banks,
            topo.rows,
            topo.columns,
            topo.line_bytes,
            // XOR-folded channel selection: strides that are multiples of
            // the channel count still spread across channels, as real
            // controllers arrange with permutation-based interleaving.
            Interleave::RowBankColumnChannelXor,
        )
        .expect("device topology dimensions must be powers of two");
        Controller {
            map,
            queues: BankQueues::new(topo, scheduler),
            bus_free: vec![Time::ZERO; topo.channels as usize],
            interface_delay: device.interface_delay(),
            stats: SimStats::new(device.name(), workload),
        }
    }

    /// The location `address` maps to.
    #[inline]
    pub fn decode(&self, address: u64) -> DecodedAddress {
        self.map.decode(address)
    }

    /// Reserves exactly enough queue room for requests to `addresses`,
    /// for an engine that queues a whole trace up front (doubling growth
    /// would hold up to twice its entries).
    pub(crate) fn reserve(&mut self, addresses: impl Iterator<Item = u64>) {
        let mut per_bank = vec![0usize; (self.map.channels() * self.map.banks()) as usize];
        for address in addresses {
            per_bank[self.queues.bank_of(&self.map.decode(address))] += 1;
        }
        for (bank, &n) in per_bank.iter().enumerate() {
            self.queues.reserve(bank, n);
        }
    }

    /// Queues a request at its bank.
    #[inline]
    pub fn push(&mut self, entry: T) {
        self.queues.push(entry);
    }

    /// The request that can issue earliest, as `(issue time, bank)`, or
    /// `None` when nothing is queued (see [`BankQueues::earliest`]).
    #[inline]
    pub fn next_issue(&mut self, device: &mut dyn MemoryDevice) -> Option<(Time, usize)> {
        self.queues.earliest(device)
    }

    /// Removes and returns the request [`Controller::next_issue`] chose
    /// at `bank`.
    #[inline]
    pub fn take(&mut self, bank: usize) -> T {
        self.queues.take(bank)
    }

    /// Performs an access to `loc` issued at `issue`: the device serves
    /// it, the data transfer waits for the channel's bus, the bank frees
    /// up when the device says so, and the access energy is counted.
    /// Returns when the requester sees the data: transfer end plus the
    /// interface delay.
    #[inline]
    pub fn access(
        &mut self,
        device: &mut dyn MemoryDevice,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        payload: Option<&LineData>,
    ) -> Time {
        let timing = device.access_line(loc, op, issue, payload);
        let bus_free = &mut self.bus_free[loc.channel as usize];
        let transfer_end = timing.data_ready_at.max(*bus_free) + timing.bus_occupancy;
        *bus_free = transfer_end;
        // The device's bank_free_at is authoritative for bank occupancy
        // (devices include transfer time where the array can't pipeline);
        // extending it to transfer_end here would serialize access latency
        // into occupancy and forbid command pipelining.
        let bank = self.queues.bank_of(loc);
        self.queues.set_bank_free(bank, timing.bank_free_at);
        self.stats.energy.access += timing.energy;
        transfer_end + self.interface_delay
    }

    /// Folds one completed request into the statistics. The order of
    /// calls is the order latencies are summed in: both engines call it
    /// as each request issues.
    #[inline]
    pub fn record(&mut self, done: &CompletedRequest) {
        self.stats.record(done);
    }

    /// The final statistics: `refresh` is the energy the device drained,
    /// `background` its standing power over the makespan, and p50/p95/p99
    /// come from the histogram of every recorded latency.
    pub fn finish(mut self, refresh: Energy, background: Power) -> SimStats {
        self.stats.energy.refresh = refresh;
        self.stats.finalize_background(background);
        self.stats.finalize_percentiles();
        self.stats
    }
}
