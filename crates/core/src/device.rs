//! COMET as a [`memsim::MemoryDevice`] — the timing/energy model the
//! Fig. 9 evaluation drives.
//!
//! Timing semantics (from Table II, NVMain-style):
//!
//! * **Reads** pipeline at burst granularity: the 10 ns cell read and 2 ns
//!   row tuning are *latency* (like DRAM CL), while the bank's wavelengths
//!   are occupied only for the 4 ns data burst — consecutive reads to
//!   different rows stream back-to-back, which is what lets COMET approach
//!   its 256-bit × 1 GHz per-bank bus rate.
//! * **Writes** transfer their data burst, then the programming pulse
//!   (≤170 ns; + 210 ns erase when erases are inline) is sustained
//!   *locally* by the target subarray's SOA stages, so it occupies the
//!   **subarray**, not the bank: writes to different subarrays overlap,
//!   writes/reads to the *same* subarray serialize.
//! * **Subarray switching** (GST waveguide switch, 100 ns) is paid when
//!   an access targets a subarray whose switch is not currently latched
//!   open. Switches are non-volatile and a small number per bank
//!   (`OPEN_SUBARRAY_WINDOW`) can stay latched concurrently — the power
//!   model still charges one subarray of SOAs per bank as the average
//!   activity — so a weight stream and an activation-write stream can
//!   coexist without thrashing the switch.
//! * Every access sees the 105 ns electrical interface delay.
//!
//! Energy: programming/read pulse energies per access; the architecture's
//! full power stack (laser + SOA + tuning + interface, Fig. 7) burns as
//! *background* power for the duration of the run — matching the paper's
//! EPB accounting ("the entire power consumption ... is utilized for
//! orchestrating reads and writes").

use crate::arch::{CometConfig, ConfigError};
use crate::laser::{LaserPolicy, LaserPowerManager};
use crate::power::CometPowerModel;
use comet_units::{Energy, Power, Time};
use memsim::{AccessTiming, DecodedAddress, DeviceFactory, MemOp, MemoryDevice, Topology};

/// Concurrently-latched GST subarray switches per bank (LRU-evicted).
/// Matches the default subarray stripe so striped streams never thrash.
/// The switches are non-volatile latches, so keeping a window of them open
/// costs no static power; the SOA power accounting still follows the
/// paper's one-active-subarray-per-bank time-average formula. Each bank's
/// window is an intrusive LRU list threaded through the device's
/// per-subarray slots, so a lookup is one indexed load and a touch or an
/// eviction relinks a constant number of slots.
const OPEN_SUBARRAY_WINDOW: u32 = 64;

/// The link of a slot that is in no switch window (not latched).
const UNLINKED: u32 = 0;
/// The link past either end of a bank's switch window.
const END: u32 = u32::MAX;

/// One (bank, subarray)'s mutable state. All-zero is "idle and not
/// latched", so the slot array starts zeroed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Slot {
    /// Busy-until horizon of the subarray's latest programming pulse
    /// (`Time::ZERO` if it never programmed: no later than any probe).
    busy: Time,
    /// Older neighbour in the bank's switch window: slot index + 1, `END`
    /// at the oldest end, `UNLINKED` when the switch is not latched.
    prev: u32,
    /// Newer neighbour, encoded like `prev`.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 16);

/// One bank's switch window: its LRU list's ends (slot index + 1, `END`
/// when empty) and length.
#[derive(Debug, Clone, Copy)]
struct Window {
    oldest: u32,
    newest: u32,
    len: u32,
}

impl Window {
    const EMPTY: Window = Window {
        oldest: END,
        newest: END,
        len: 0,
    };
}

/// The stripe and Eq. (2)–(4) constants of [`crate::AddressMapper`],
/// resolved once into masks, shifts and multipliers so the per-probe
/// subarray lookup needs no division.
#[derive(Debug, Clone, Copy)]
struct SubarrayIndex {
    /// `subarray_stripe - 1`.
    stripe_mask: u64,
    /// `log2(subarray_stripe)`.
    stripe_shift: u32,
    /// Rows per stripe block: `S_r · M_r / subarray_stripe`.
    stripe_rows: u64,
    /// `log2(M_r)` (Eq. 2).
    row_shift: u32,
    /// `log2(M_c)` (Eq. 3).
    col_shift: u32,
    /// `√S_r` (Eq. 4).
    grid_side: u64,
}

impl SubarrayIndex {
    /// Resolves the constants of `config`.
    ///
    /// # Panics
    ///
    /// If a dimension the shifts stand in for is not a nonzero power of
    /// two (the message is [`ConfigError::NotPowerOfTwo`]'s).
    fn new(config: &CometConfig) -> Self {
        for (dimension, value) in [
            ("subarray_rows", config.subarray_rows),
            ("subarray_cols", config.subarray_cols),
            ("subarray_stripe", config.subarray_stripe),
        ] {
            if value == 0 || !value.is_power_of_two() {
                panic!("{}", ConfigError::NotPowerOfTwo { dimension, value });
            }
        }
        let stripe = config.subarray_stripe;
        SubarrayIndex {
            stripe_mask: stripe - 1,
            stripe_shift: stripe.trailing_zeros(),
            stripe_rows: config.subarrays * config.subarray_rows / stripe,
            row_shift: config.subarray_rows.trailing_zeros(),
            col_shift: config.subarray_cols.trailing_zeros(),
            grid_side: config.subarray_grid_side(),
        }
    }

    /// The subarray a flat controller address targets. Subarray striping
    /// first rotates consecutive controller rows across `subarray_stripe`
    /// distant row blocks, so streaming writes spread their programming
    /// pulses over parallel subarrays; Eqs. (2)–(4) then place the
    /// physical row.
    #[inline]
    fn subarray_of(&self, loc: &DecodedAddress) -> u64 {
        let physical_row =
            (loc.row & self.stripe_mask) * self.stripe_rows + (loc.row >> self.stripe_shift);
        (loc.column >> self.col_shift) * self.grid_side + (physical_row >> self.row_shift)
    }
}

/// The COMET timing/energy device.
///
/// # Examples
///
/// ```
/// use comet::{CometConfig, CometDevice};
/// use memsim::MemoryDevice;
///
/// let dev = CometDevice::new(CometConfig::comet_4b());
/// assert_eq!(dev.name(), "COMET");
/// assert_eq!(dev.topology().channels, 4); // one lane per MDM mode
/// assert_eq!(dev.topology().line_bytes, 128);
/// ```
#[derive(Debug, Clone)]
pub struct CometDevice {
    config: CometConfig,
    index: SubarrayIndex,
    background: Power,
    /// Pulse energy of one line read and of one line write (with the
    /// erase share when erases run inline).
    read_energy: Energy,
    write_energy: Energy,
    /// Subarrays per bank (`S_r`): the stride of a bank's run of slots.
    subarrays: u64,
    /// Per-(bank, subarray) state, indexed `bank × S_r + subarray`: the
    /// programming busy horizon and the links of the bank's switch window.
    slots: Vec<Slot>,
    /// Latched-open subarray switches per bank: each bank's LRU list
    /// (oldest first) through `slots`.
    windows: Vec<Window>,
    /// Dynamic laser power manager (None = the paper's static stack).
    manager: Option<LaserPowerManager>,
    /// Latest device-time seen (closes the manager's accounting).
    horizon: Time,
}

impl CometDevice {
    /// Creates a device with the configuration's power stack as background
    /// and the Fig. 6 GST cell's pulse energies.
    ///
    /// # Panics
    ///
    /// If `subarray_rows`, `subarray_cols` or `subarray_stripe` is not a
    /// nonzero power of two (which [`CometConfig::validate`] also rejects):
    /// the subarray lookup resolves them to masks and shifts.
    pub fn new(config: CometConfig) -> Self {
        let background = CometPowerModel::new(config.clone()).stack().total();
        let index = SubarrayIndex::new(&config);
        let slots = (config.banks * config.subarrays) as usize;
        assert!(
            slots < END as usize,
            "{} banks × {} subarrays overflow the switch-window links",
            config.banks,
            config.subarrays
        );
        // Per-cell pulse energies: ~1 mW × ~85 ns average level pulse,
        // a 0.1 mW × 10 ns read probe, and a 280 pJ amorphous reset that
        // lands on each write unless erases run in the background.
        let cells = config.cells_per_line() as f64;
        let read_energy = Energy::from_picojoules(1.0) * cells;
        let mut write_energy = Energy::from_picojoules(85.0) * cells;
        if !config.timing.background_erase {
            write_energy += Energy::from_picojoules(280.0) * cells;
        }
        CometDevice {
            index,
            background,
            read_energy,
            write_energy,
            subarrays: config.subarrays,
            slots: vec![Slot::default(); slots],
            windows: vec![Window::EMPTY; config.banks as usize],
            manager: None,
            horizon: Time::ZERO,
            config,
        }
    }

    /// Creates a device under a laser power-management policy (the paper's
    /// Section IV.C future-work extension; see [`crate::LaserPolicy`]).
    ///
    /// Under [`LaserPolicy::Windowed`] the laser + SOA share of the Fig. 7
    /// stack is demand-gated: its energy is accounted per management
    /// window by the device itself (reported through the engine's drained
    /// bucket) instead of burning as constant background power, and
    /// accesses that catch the laser idle pay the policy's wake-up stall.
    pub fn with_policy(config: CometConfig, policy: LaserPolicy) -> Self {
        let mut dev = Self::new(config.clone());
        if let LaserPolicy::Windowed(w) = policy {
            let stack = CometPowerModel::new(config).stack();
            let gateable = stack.laser + stack.soa;
            let always_on = stack.tuning + stack.interface;
            dev.manager = Some(LaserPowerManager::new(w, gateable, always_on));
        }
        dev
    }

    /// The wake-up count of the laser manager (zero for the static policy).
    pub fn laser_wakeups(&self) -> u64 {
        self.manager.as_ref().map_or(0, LaserPowerManager::wakeups)
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// The slot of the (bank, subarray) a flat controller address targets.
    #[inline]
    fn slot_of(&self, loc: &DecodedAddress) -> usize {
        let subarray = self.index.subarray_of(loc);
        assert!(
            subarray < self.subarrays && loc.channel < self.windows.len() as u64,
            "bank {} subarray {subarray} is outside the COMET device",
            loc.channel
        );
        (loc.channel * self.subarrays + subarray) as usize
    }

    /// True if the slot's subarray switch is latched open.
    #[inline]
    fn latched(&self, slot: usize) -> bool {
        self.slots[slot].next != UNLINKED
    }

    /// Takes `slot` out of `bank`'s switch window.
    #[inline]
    fn unlink(&mut self, bank: usize, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        let w = &mut self.windows[bank];
        match prev {
            END => w.oldest = next,
            p => self.slots[p as usize - 1].next = next,
        }
        match next {
            END => w.newest = prev,
            n => self.slots[n as usize - 1].prev = prev,
        }
        w.len -= 1;
        let s = &mut self.slots[slot];
        s.prev = UNLINKED;
        s.next = UNLINKED;
    }

    /// Appends `slot` as the newest entry of `bank`'s switch window.
    #[inline]
    fn push_newest(&mut self, bank: usize, slot: usize) {
        let link = slot as u32 + 1;
        let w = &mut self.windows[bank];
        let newest = std::mem::replace(&mut w.newest, link);
        w.len += 1;
        match newest {
            END => w.oldest = link,
            n => self.slots[n as usize - 1].next = link,
        }
        let s = &mut self.slots[slot];
        s.prev = newest;
        s.next = END;
    }

    /// Latches `slot`'s switch as `bank`'s most recently used, evicting
    /// the least recently used one when the window is full. Returns true
    /// if the switch was already latched (no switch time to pay).
    #[inline]
    fn touch(&mut self, bank: usize, slot: usize) -> bool {
        if self.latched(slot) {
            if self.slots[slot].next != END {
                self.unlink(bank, slot);
                self.push_newest(bank, slot);
            }
            return true;
        }
        let w = self.windows[bank];
        if w.len >= OPEN_SUBARRAY_WINDOW {
            self.unlink(bank, w.oldest as usize - 1);
        }
        self.push_newest(bank, slot);
        false
    }
}

/// The controller-visible shape of a COMET configuration — each MDM mode
/// is an independent bank *with its own data lane*: modeled as one bank
/// per channel so the engine gives every mode a private bus (shared-bus
/// contention would be wrong for MDM).
fn controller_topology(config: &CometConfig) -> Topology {
    Topology {
        channels: config.banks,
        banks: 1,
        rows: config.subarrays * config.subarray_rows,
        columns: 1,
        line_bytes: config.timing.access_bytes(),
    }
}

impl DeviceFactory for CometConfig {
    fn device_name(&self) -> String {
        "COMET".into()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        Box::new(CometDevice::new(self.clone()))
    }

    fn device_topology(&self) -> Topology {
        controller_topology(self)
    }
}

impl MemoryDevice for CometDevice {
    fn name(&self) -> String {
        "COMET".into()
    }

    fn topology(&self) -> Topology {
        controller_topology(&self.config)
    }

    fn bank_available(&mut self, loc: &DecodedAddress, at: Time) -> Time {
        // The target subarray may still be programming.
        at.max(self.slots[self.slot_of(loc)].busy)
    }

    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        let t = self.config.timing;
        let slot = self.slot_of(loc);

        // Dynamic laser management: an access that catches the laser idle
        // pays the wake-up stall before anything else can happen.
        let issue = match self.manager.as_mut() {
            Some(m) => issue + m.on_access(issue),
            None => issue,
        };

        // GST switch: pay 100 ns only when the subarray's switch is not
        // already latched open; LRU-evict beyond the open window.
        let switch = if self.touch(loc.channel as usize, slot) {
            Time::ZERO
        } else {
            t.subarray_switch_time
        };

        let start = issue + switch;
        self.horizon = self.horizon.max(match op {
            MemOp::Read => start + t.row_access_time + t.read_time,
            MemOp::Write => start.max(issue + t.burst_time()) + t.write_occupancy(),
        });

        match op {
            MemOp::Read => {
                // Read pulses pipeline on the wavelengths: the 12 ns
                // tune+read (and any switch set-up) is latency only; the
                // mode's lane is held for the burst. Reads leave no
                // subarray reservation.
                let data_ready = start + t.row_access_time + t.read_time;
                AccessTiming {
                    bank_free_at: issue + t.burst_time(),
                    data_ready_at: data_ready,
                    bus_occupancy: t.burst_time(),
                    energy: self.read_energy,
                }
            }
            MemOp::Write => {
                // The data burst lands in the interface buffer immediately
                // (the switch set-up proceeds in parallel); programming
                // starts once both the switch and the data are in, and is
                // sustained by the subarray's SOA stages.
                let data_ready = issue + t.burst_time();
                let program_start = issue + switch.max(t.burst_time());
                let program_done = program_start + t.write_occupancy();
                self.slots[slot].busy = program_done;
                AccessTiming {
                    // The switch set-up overlaps with other subarrays'
                    // traffic: the lane is only held for the data burst.
                    bank_free_at: issue + t.burst_time(),
                    data_ready_at: data_ready,
                    bus_occupancy: t.burst_time(),
                    energy: self.write_energy,
                }
            }
        }
    }

    fn row_hit(&self, loc: &DecodedAddress) -> bool {
        // "Row hit" for FR-FCFS = the subarray's switch is latched open
        // (avoids the 100 ns GST switch).
        self.latched(self.slot_of(loc))
    }

    fn reads_payloads(&self) -> bool {
        false
    }

    fn background_power(&self) -> Power {
        // Under dynamic management the manager accounts the whole stack
        // itself (drained at the end of the run).
        if self.manager.is_some() {
            Power::ZERO
        } else {
            self.background
        }
    }

    fn drain_accumulated_energy(&mut self) -> Energy {
        let horizon = self.horizon;
        match self.manager.as_mut() {
            Some(m) => m.finish(horizon),
            None => Energy::ZERO,
        }
    }

    fn interface_delay(&self) -> Time {
        self.config.timing.interface_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapper;
    use comet_units::ByteCount;
    use memsim::{run_simulation, MemRequest, SimConfig};
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    /// The device's per-bank switch window and subarray busy horizons as
    /// they were first written: a `VecDeque` LRU (newest back) scanned
    /// linearly, and a map of every subarray that ever programmed.
    #[derive(Default)]
    struct ReferenceState {
        open: HashMap<u64, VecDeque<u64>>,
        busy: HashMap<(u64, u64), Time>,
    }

    impl ReferenceState {
        fn row_hit(&self, bank: u64, subarray: u64) -> bool {
            self.open
                .get(&bank)
                .is_some_and(|open| open.contains(&subarray))
        }

        /// Latches `subarray`'s switch; returns the switch time charged.
        fn touch(&mut self, bank: u64, subarray: u64, switch_time: Time) -> Time {
            let open = self.open.entry(bank).or_default();
            if let Some(pos) = open.iter().position(|&s| s == subarray) {
                open.remove(pos);
                open.push_back(subarray);
                Time::ZERO
            } else {
                if open.len() >= OPEN_SUBARRAY_WINDOW as usize {
                    open.pop_front();
                }
                open.push_back(subarray);
                switch_time
            }
        }

        fn bank_available(&self, bank: u64, subarray: u64, at: Time) -> Time {
            match self.busy.get(&(bank, subarray)) {
                Some(&busy) => at.max(busy),
                None => at,
            }
        }
    }

    /// The subarray lookup in its literal form: striping by `%` and `/`,
    /// then `AddressMapper::map`'s Eqs. (2)–(4).
    fn literal_subarray(config: &CometConfig, loc: &DecodedAddress) -> u64 {
        let stripe = config.subarray_stripe.max(1);
        let total = config.subarrays * config.subarray_rows;
        let mut flat = *loc;
        flat.row = (loc.row % stripe) * (total / stripe) + loc.row / stripe;
        AddressMapper::new(config).map(flat).subarray
    }

    /// A controller row of `comet_4b` (64-way stripe) in `subarray`.
    fn row_in_subarray(subarray: u64, offset: u64) -> u64 {
        ((subarray % 64) * 512 + offset % 512) * 64 + subarray / 64
    }

    proptest! {
        #[test]
        fn switch_window_matches_the_vecdeque_lru(
            ops in prop::collection::vec((0u64..4, 0u64..160, 0u64..512, 0u8..3), 1..1500),
        ) {
            // 160 subarrays per bank overflow the 64-entry window often,
            // while re-touches of recent ones still hit.
            let config = CometConfig::comet_4b();
            let t = config.timing;
            let mut dev = CometDevice::new(config.clone());
            let mut reference = ReferenceState::default();
            for (i, &(bank, subarray, offset, kind)) in ops.iter().enumerate() {
                let l = loc(bank, row_in_subarray(subarray, offset));
                let sub = literal_subarray(&config, &l);
                prop_assert_eq!(sub, subarray);
                let issue = Time::from_nanos(50.0 * i as f64);
                prop_assert_eq!(dev.row_hit(&l), reference.row_hit(bank, sub));
                prop_assert_eq!(
                    dev.bank_available(&l, issue),
                    reference.bank_available(bank, sub, issue)
                );
                if kind == 0 {
                    continue; // probes only
                }
                let op = if kind == 1 { MemOp::Read } else { MemOp::Write };
                let switch = reference.touch(bank, sub, t.subarray_switch_time);
                let a = dev.access(&l, op, issue);
                match op {
                    MemOp::Read => {
                        let start = issue + switch;
                        prop_assert_eq!(a.data_ready_at, start + t.row_access_time + t.read_time);
                    }
                    MemOp::Write => {
                        let done = issue + switch.max(t.burst_time()) + t.write_occupancy();
                        reference.busy.insert((bank, sub), done);
                    }
                }
                prop_assert!(dev.row_hit(&l));
            }
            // Every bank's window holds the reference's subarrays, oldest
            // first.
            for bank in 0..4u64 {
                let mut listed = Vec::new();
                let mut link = dev.windows[bank as usize].oldest;
                while link != END {
                    let slot = link as usize - 1;
                    listed.push(slot as u64 - bank * dev.subarrays);
                    link = dev.slots[slot].next;
                }
                let expected: Vec<u64> = reference
                    .open
                    .get(&bank)
                    .map_or_else(Vec::new, |open| open.iter().copied().collect());
                prop_assert_eq!(dev.windows[bank as usize].len as usize, expected.len());
                prop_assert_eq!(listed, expected);
            }
        }

        #[test]
        fn shift_lookup_matches_the_literal_mapping(
            bits in prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
            stripe in prop_oneof![Just(1u64), Just(4u64), Just(16u64), Just(64u64), Just(256u64)],
            bank in 0u64..4,
            row_seed in any::<u64>(),
            column_seed in any::<u64>(),
        ) {
            let mut config = match bits {
                1 => CometConfig::comet_1b(),
                2 => CometConfig::comet_2b(),
                _ => CometConfig::comet_4b(),
            };
            config.subarray_stripe = stripe;
            let dev = CometDevice::new(config.clone());
            let rows = config.subarrays * config.subarray_rows;
            // Columns past M_c exercise Eq. (3)-(4)'s ID2 term.
            let l = DecodedAddress {
                channel: bank,
                bank: 0,
                row: row_seed % rows,
                column: column_seed % (4 * config.subarray_cols),
            };
            prop_assert_eq!(dev.index.subarray_of(&l), literal_subarray(&config, &l));
        }
    }

    #[test]
    #[should_panic(expected = "subarray_stripe must be a nonzero power of two, got 48")]
    fn construction_rejects_a_non_power_of_two_stripe() {
        let mut config = CometConfig::comet_4b();
        config.subarray_stripe = 48;
        let _ = CometDevice::new(config);
    }

    #[test]
    #[should_panic(expected = "bank 4 subarray 0 is outside the COMET device")]
    fn an_address_past_the_last_bank_does_not_alias_a_slot() {
        let _ = device().row_hit(&loc(4, 0));
    }

    #[test]
    #[should_panic(expected = "bank 0 subarray 4096 is outside the COMET device")]
    fn a_column_past_the_grid_does_not_alias_the_next_bank() {
        // Eq. (4) with ID2 = √S_r gives subarray S_r: without the bounds
        // check that is bank 1's first slot.
        let dev = device();
        let config = dev.config();
        assert_eq!(config.subarrays, 4096);
        let l = DecodedAddress {
            column: config.subarray_grid_side() * config.subarray_cols,
            ..loc(0, 0)
        };
        let _ = dev.row_hit(&l);
    }

    #[test]
    fn slots_start_idle_and_unlatched() {
        let dev = device();
        assert!(dev.slots.iter().all(|s| *s == Slot::default()));
        assert_eq!(Slot::default().busy, Time::ZERO);
        assert_eq!(Slot::default().next, UNLINKED);
    }

    fn device() -> CometDevice {
        CometDevice::new(CometConfig::comet_4b())
    }

    fn loc(bank: u64, row: u64) -> DecodedAddress {
        // Banks ride on channels (one lane per MDM mode).
        DecodedAddress {
            channel: bank,
            bank: 0,
            row,
            column: 0,
        }
    }

    #[test]
    fn read_latency_matches_table_ii() {
        let mut dev = device();
        let a = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        // First access pays the subarray switch (100) + tune (2) + read (10).
        assert!((a.data_ready_at.as_nanos() - 112.0).abs() < 1e-9);
        // Second access to the same (striped) subarray: 12 ns. With the
        // default 64-way stripe, row 64 shares row 0's subarray.
        let b = dev.access(&loc(0, 64), MemOp::Read, Time::from_nanos(200.0));
        assert!((b.data_ready_at.as_nanos() - 212.0).abs() < 1e-9);
        assert!((dev.interface_delay().as_nanos() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn reads_pipeline_at_burst_rate() {
        let mut dev = device();
        let _ = dev.access(&loc(0, 0), MemOp::Read, Time::ZERO);
        let b = dev.access(&loc(0, 1), MemOp::Read, Time::from_nanos(200.0));
        // Bank frees one burst after issue, not one read-time after.
        assert!((b.bank_free_at.as_nanos() - 204.0).abs() < 1e-9);
    }

    #[test]
    fn subarray_switch_latches() {
        let mut dev = device();
        let sub0 = loc(0, 0);
        let sub1 = loc(0, 1); // striping sends row 1 to a distant subarray
        let a = dev.access(&sub0, MemOp::Read, Time::ZERO);
        assert!(
            (a.data_ready_at.as_nanos() - 112.0).abs() < 1e-9,
            "cold switch"
        );
        let b = dev.access(&sub1, MemOp::Read, Time::from_nanos(500.0));
        assert!(
            (b.data_ready_at.as_nanos() - 612.0).abs() < 1e-9,
            "switch to 1"
        );
        let c = dev.access(&sub1, MemOp::Read, Time::from_nanos(1000.0));
        assert!(
            (c.data_ready_at.as_nanos() - 1012.0).abs() < 1e-9,
            "latched"
        );
        assert!(dev.row_hit(&sub1));
        // The open window keeps sub0 latched too (no thrash)...
        assert!(dev.row_hit(&sub0));
        // ...until enough distinct subarrays evict it (window is 64; rows
        // k·stripe·512 share row 0's stripe class but land in subarray k,
        // so 65 of them flush the whole window).
        let stripe = dev.config().subarray_stripe;
        for k in 1..=65u64 {
            let _ = dev.access(
                &loc(0, k * stripe * 512),
                MemOp::Read,
                Time::from_nanos(2000.0 + k as f64),
            );
        }
        assert!(!dev.row_hit(&sub0), "LRU eviction after window overflow");
    }

    #[test]
    fn writes_occupy_subarray_not_bank() {
        let mut dev = device();
        let w = dev.access(&loc(0, 0), MemOp::Write, Time::ZERO);
        // Bank frees after the burst (the switch set-up is latency only).
        assert!((w.bank_free_at.as_nanos() - 4.0).abs() < 1e-9);
        // But the same (striped) subarray is blocked until programming
        // completes: row 64 shares row 0's subarray.
        let avail = dev.bank_available(&loc(0, 64), Time::from_nanos(110.0));
        // Cold write: switch (100, overlapping the burst) + program (170).
        assert!(
            (avail.as_nanos() - 270.0).abs() < 1e-9,
            "subarray busy until switch+program, got {avail}"
        );
        // A different subarray (row 1, next stripe) is immediately available.
        let other = dev.bank_available(&loc(0, 1), Time::from_nanos(110.0));
        assert!((other.as_nanos() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn inline_erase_lengthens_writes() {
        let mut cfg = CometConfig::comet_4b();
        cfg.timing.background_erase = false;
        let mut dev = CometDevice::new(cfg);
        let w = dev.access(&loc(0, 0), MemOp::Write, Time::ZERO);
        let avail = dev.bank_available(&loc(0, 64), w.bank_free_at);
        // switch 100 (burst overlapped) + erase 210 + write 170 = 480.
        assert!((avail.as_nanos() - 480.0).abs() < 1e-9, "got {avail}");
    }

    #[test]
    fn background_power_is_the_fig7_stack() {
        let dev = device();
        let stack = CometPowerModel::new(CometConfig::comet_4b())
            .stack()
            .total();
        assert!((dev.background_power().as_watts() - stack.as_watts()).abs() < 1e-9);
        assert!(dev.background_power().as_watts() > 10.0);
    }

    #[test]
    fn saturation_read_bandwidth_near_bus_rate() {
        // Streaming reads should approach 4 banks x 128 B / 4 ns = 128 GB/s.
        let mut dev = device();
        let reqs: Vec<MemRequest> = (0..20_000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
            .collect();
        let stats = run_simulation(&mut dev, &reqs, &SimConfig::saturation("stream"));
        let bw = stats.bandwidth().as_gigabytes_per_second();
        assert!((60.0..=130.0).contains(&bw), "stream read BW {bw} GB/s");
    }

    #[test]
    fn write_programming_parallelism_depends_on_stripe() {
        let mk = || CometDevice::new(CometConfig::comet_4b());
        // Sequential writes ride the 64-way stripe: their 170 ns programming
        // pulses overlap across subarrays, so the stream runs near the bus
        // rate, like reads.
        let seq_writes: Vec<MemRequest> = (0..5000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Write, i * 128, ByteCount::new(128)))
            .collect();
        let seq_reads: Vec<MemRequest> = (0..5000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
            .collect();
        let sr = run_simulation(&mut mk(), &seq_reads, &SimConfig::saturation("r"));
        let sw = run_simulation(&mut mk(), &seq_writes, &SimConfig::saturation("w"));
        let r = sr.bandwidth().as_gigabytes_per_second();
        let w = sw.bandwidth().as_gigabytes_per_second();
        assert!(
            w > 60.0,
            "striped write BW {w} GB/s should approach the bus rate"
        );
        assert!(
            r > 60.0,
            "streaming read BW {r} GB/s should approach the bus rate"
        );

        // A row stride equal to the full stripe defeats the interleaving:
        // every write in a channel lands in the same subarray and the
        // programming pulses serialize at 170 ns apiece.
        let stripe = CometConfig::comet_4b().subarray_stripe;
        let serial: Vec<MemRequest> = (0..5000u64)
            .map(|i| {
                // Row stride = stripe (x4 channel-interleaved lines/row).
                MemRequest::new(
                    i,
                    Time::ZERO,
                    MemOp::Write,
                    i * stripe * 4 * 128,
                    ByteCount::new(128),
                )
            })
            .collect();
        let ss = run_simulation(&mut mk(), &serial, &SimConfig::saturation("sw"));
        let s = ss.bandwidth().as_gigabytes_per_second();
        assert!(
            s * 5.0 < w,
            "stripe-defeating writes ({s} GB/s) should serialize well below \
             streaming writes ({w} GB/s)"
        );
        // ...but stay in the GB/s decade: 4 banks x 128 B / 170 ns ~ 3 GB/s.
        assert!(s > 1.0, "serialized write BW {s} GB/s");
    }

    #[test]
    fn windowed_laser_policy_saves_energy_on_sparse_traffic() {
        use crate::laser::{LaserPolicy, WindowedPolicy};
        // One access every 20 us: the laser should sleep most of the time.
        let reqs: Vec<MemRequest> = (0..50u64)
            .map(|i| {
                MemRequest::new(
                    i,
                    Time::from_micros(i as f64 * 20.0),
                    MemOp::Read,
                    i * 128,
                    ByteCount::new(128),
                )
            })
            .collect();
        let mut managed = CometDevice::with_policy(
            CometConfig::comet_4b(),
            LaserPolicy::Windowed(WindowedPolicy::default_1us()),
        );
        let mut static_dev = CometDevice::new(CometConfig::comet_4b());
        let sm = run_simulation(&mut managed, &reqs, &SimConfig::paced("sparse"));
        let ss = run_simulation(&mut static_dev, &reqs, &SimConfig::paced("sparse"));
        // Managed run reports its stack through the drained bucket.
        assert_eq!(sm.energy.background, comet_units::Energy::ZERO);
        assert!(sm.energy.refresh > comet_units::Energy::ZERO);
        // Dramatic saving on sparse traffic (idle floor is 10% + always-on).
        let managed_total = sm.energy.total().as_joules();
        let static_total = ss.energy.total().as_joules();
        assert!(
            managed_total < 0.5 * static_total,
            "managed {managed_total} J vs static {static_total} J"
        );
        // Every isolated access after the first pays one wake-up.
        assert_eq!(managed.laser_wakeups(), 49);
    }

    #[test]
    fn windowed_laser_policy_is_neutral_under_saturation() {
        use crate::laser::{LaserPolicy, WindowedPolicy};
        let reqs: Vec<MemRequest> = (0..20_000u64)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
            .collect();
        let mut managed = CometDevice::with_policy(
            CometConfig::comet_4b(),
            LaserPolicy::Windowed(WindowedPolicy::default_1us()),
        );
        let mut static_dev = CometDevice::new(CometConfig::comet_4b());
        let sm = run_simulation(&mut managed, &reqs, &SimConfig::saturation("stream"));
        let ss = run_simulation(&mut static_dev, &reqs, &SimConfig::saturation("stream"));
        // No wake-ups, no throughput loss under saturation.
        assert_eq!(managed.laser_wakeups(), 0);
        let bm = sm.bandwidth().as_gigabytes_per_second();
        let bs = ss.bandwidth().as_gigabytes_per_second();
        assert!((bm - bs).abs() / bs < 0.01, "managed {bm} vs static {bs}");
        // Energy within a few percent of the static stack (the manager's
        // horizon stops at the last access, the engine integrates to the
        // last completion).
        let ratio = sm.energy.total().as_joules() / ss.energy.total().as_joules();
        assert!((0.9..=1.02).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn static_policy_matches_plain_constructor() {
        use crate::laser::LaserPolicy;
        let a = CometDevice::with_policy(CometConfig::comet_4b(), LaserPolicy::Static);
        let b = CometDevice::new(CometConfig::comet_4b());
        assert_eq!(a.background_power(), b.background_power());
        assert_eq!(a.laser_wakeups(), 0);
    }

    #[test]
    fn capacity_matches_config() {
        let dev = device();
        assert_eq!(
            dev.topology().capacity().value() * 8,
            CometConfig::comet_4b().capacity_bits().value()
        );
    }
}
