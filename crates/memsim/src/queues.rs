//! Per-bank command queues with a cached scheduling choice per bank.
//!
//! Both execution engines — trace replay ([`crate::run_simulation`]) and
//! the `comet-serve` service core — keep one FIFO per `(channel, bank)`
//! and, at every step, issue the request that can start earliest. Finding
//! it by rescanning every bank's FCFS head or FR-FCFS window on every
//! event costs `banks × window` device probes per event. [`BankQueues`]
//! instead caches each bank's choice and re-probes a bank only when
//! something its choice depends on changed:
//!
//! * the bank's queue (an entry entered the window, or the chosen one
//!   left);
//! * the time the bank frees up (its own issue);
//! * the device's answers for the bank, which by the
//!   [`MemoryDevice`] probe contract change only through an `access` to
//!   that bank — i.e. again its own issue.
//!
//! Recomputing a bank's FR-FCFS choice probes only the window entries
//! that can still win. By the probe contract an entry cannot issue before
//! its floor, the later of the bank's free time and the entry's ready
//! time; an entry whose floor is past the best time found so far, or at
//! it behind a row-buffer hit, is skipped unprobed, and one at it behind a
//! miss is asked `row_hit` before `bank_available`. In saturation, where
//! a bank's entries share one floor, that leaves about one
//! `bank_available` per issue instead of one per window entry.
//!
//! The cached choices sit at the leaves of a tournament tree whose inner
//! nodes hold the winning bank of their subtree, so re-probing a bank
//! replays only the `log2(banks)` matches on its path and the earliest
//! issue is the root. A match goes to the earlier ready time and, on a
//! tie, to the left (lower-indexed) bank — the same pick as a linear scan
//! in bank order that keeps the first minimum.

use crate::addr::DecodedAddress;
use crate::device::{MemoryDevice, Topology};
use crate::engine::Scheduler;
use comet_units::Time;
use std::collections::VecDeque;

/// The cached ready time of a bank with nothing queued.
const NEVER: Time = Time::from_seconds(f64::INFINITY);

/// A queued request as the scheduler sees it.
pub trait Pending {
    /// The decoded target location.
    fn loc(&self) -> &DecodedAddress;
    /// The earliest time the request may issue (its arrival, or the
    /// release time of a held write).
    fn ready(&self) -> Time;
}

/// Per-bank queues plus each bank's cached FCFS / FR-FCFS choice.
///
/// # Examples
///
/// ```
/// use comet_units::Time;
/// use memsim::{BankQueues, DecodedAddress, DramConfig, DramDevice, MemoryDevice, Pending, Scheduler};
///
/// struct Req(DecodedAddress);
/// impl Pending for Req {
///     fn loc(&self) -> &DecodedAddress { &self.0 }
///     fn ready(&self) -> Time { Time::ZERO }
/// }
///
/// let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
/// let mut queues = BankQueues::new(dev.topology(), Scheduler::FrFcfs { window: 8 });
/// let loc = |bank| DecodedAddress { channel: 0, bank, row: 0, column: 0 };
/// queues.push(Req(loc(3)));
/// queues.push(Req(loc(1)));
/// // Both banks could issue at t = 0; the lower bank wins the tie.
/// let (at, bank) = queues.earliest(&mut dev).unwrap();
/// assert_eq!((at, bank), (Time::ZERO, 1));
/// let req = queues.take(bank);
/// let timing = dev.access(req.loc(), memsim::MemOp::Read, at);
/// queues.set_bank_free(bank, timing.bank_free_at);
/// assert_eq!(queues.earliest(&mut dev).unwrap().1, 3);
/// ```
#[derive(Debug)]
pub struct BankQueues<T> {
    /// Queue entries a bank's choice looks at: 1 for FCFS, the FR-FCFS
    /// lookahead window otherwise.
    window: usize,
    /// Whether ties on the ready time prefer row-buffer hits.
    first_ready: bool,
    /// Banks per channel (bank index = channel × banks + bank).
    banks: usize,
    queues: Vec<VecDeque<T>>,
    /// When each bank frees up after its last issue.
    free: Vec<Time>,
    /// Each bank's cached choice: when it can issue (+∞ for an empty
    /// queue, and for the padding up to a power of two) and its queue
    /// position.
    ready: Vec<Time>,
    pos: Vec<usize>,
    /// Banks whose cached choice must be recomputed before use, listed
    /// once each in `dirty`.
    stale: Vec<bool>,
    dirty: Vec<usize>,
    /// The tournament tree: node 1 is the root, node `i` has children
    /// `2i` and `2i + 1`, and bank `b`'s leaf is node `ready.len() + b`.
    /// Every node holds the bank that wins its subtree.
    tree: Vec<usize>,
}

impl<T: Pending> BankQueues<T> {
    /// Empty queues for every bank of `topology`, scheduled by
    /// `scheduler`.
    ///
    /// # Panics
    ///
    /// If `scheduler` is FR-FCFS with a zero window: such a scheduler
    /// looks at no queue entry, so nothing could ever issue.
    pub fn new(topology: Topology, scheduler: Scheduler) -> Self {
        let (window, first_ready) = match scheduler {
            Scheduler::Fcfs => (1, false),
            Scheduler::FrFcfs { window } => {
                assert!(
                    window > 0,
                    "the FR-FCFS window must hold at least one queue entry (got 0)"
                );
                (window, true)
            }
        };
        let nbanks = topology.total_banks() as usize;
        let leaves = nbanks.next_power_of_two();
        let mut queues = Vec::new();
        queues.resize_with(nbanks, VecDeque::new);
        // Nothing is queued yet, so every match goes to its left side.
        let mut tree: Vec<usize> = (0..2 * leaves).map(|node| node % leaves).collect();
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node];
        }
        BankQueues {
            window,
            first_ready,
            banks: topology.banks as usize,
            queues,
            free: vec![Time::ZERO; nbanks],
            ready: vec![NEVER; leaves],
            pos: vec![0; leaves],
            stale: vec![false; nbanks],
            dirty: Vec::new(),
            tree,
        }
    }

    fn mark_stale(&mut self, bank: usize) {
        if !self.stale[bank] {
            self.stale[bank] = true;
            self.dirty.push(bank);
        }
    }

    /// The flat bank index of a location.
    pub fn bank_of(&self, loc: &DecodedAddress) -> usize {
        loc.channel as usize * self.banks + loc.bank as usize
    }

    /// Reserves room for `additional` more entries in `bank`'s queue.
    pub(crate) fn reserve(&mut self, bank: usize, additional: usize) {
        self.queues[bank].reserve(additional);
    }

    /// Appends a request to its bank's queue.
    #[inline]
    pub fn push(&mut self, entry: T) {
        let bank = self.bank_of(entry.loc());
        let queue = &mut self.queues[bank];
        queue.push_back(entry);
        // An entry behind the window cannot change the bank's choice.
        if queue.len() <= self.window {
            self.mark_stale(bank);
        }
    }

    /// Records when `bank` frees up after an issue.
    pub fn set_bank_free(&mut self, bank: usize, at: Time) {
        self.free[bank] = at;
        self.mark_stale(bank);
    }

    /// The request that can issue earliest, as `(issue time, bank)`, or
    /// `None` when every queue is empty. Re-probes, on `device`, only
    /// banks whose choice is stale.
    // `push`, `earliest`, `choose` and `take` are the drivers' per-step
    // path; without the hints replay's loop stopped inlining them and
    // replay-sat ran ~10 % slower.
    #[inline]
    pub fn earliest(&mut self, device: &mut dyn MemoryDevice) -> Option<(Time, usize)> {
        // Probes are pure, so the order banks are re-probed in is free.
        while let Some(bank) = self.dirty.pop() {
            (self.ready[bank], self.pos[bank]) = self.choose(bank, device).unwrap_or((NEVER, 0));
            self.stale[bank] = false;
            self.replay_matches(bank);
        }
        let best = self.tree[1];
        let at = self.ready[best];
        (at != NEVER).then_some((at, best))
    }

    /// Re-decides the matches on the path from `bank`'s leaf to the root.
    fn replay_matches(&mut self, bank: usize) {
        let mut node = (self.ready.len() + bank) / 2;
        while node > 0 {
            let (left, right) = (self.tree[2 * node], self.tree[2 * node + 1]);
            self.tree[node] = if self.ready[right] < self.ready[left] {
                right
            } else {
                left
            };
            node /= 2;
        }
    }

    /// Removes and returns `bank`'s chosen request, as reported by the
    /// last [`BankQueues::earliest`].
    ///
    /// # Panics
    ///
    /// If the bank's choice is stale (changed since that call) or its
    /// queue is empty.
    #[inline]
    pub fn take(&mut self, bank: usize) -> T {
        assert!(
            !self.stale[bank],
            "bank {bank} changed since its choice was made"
        );
        let entry = self.queues[bank]
            .remove(self.pos[bank])
            .expect("the bank has a queued request at its cached position");
        self.mark_stale(bank);
        entry
    }

    /// Computes `bank`'s choice by probing `device`: the FCFS head, or
    /// the FR-FCFS window entry that can issue earliest — a row-buffer
    /// hit beats a miss at equal times, then queue order decides.
    ///
    /// An entry's *floor* is `free.max(entry.ready())`, and by the probe
    /// contract (`bank_available(loc, at) >= at`) it cannot issue before
    /// its floor. So against the best `(t, hit)` found so far, an entry
    /// whose floor is past `t`, or at `t` behind a chosen hit, cannot win
    /// and is skipped unprobed; one whose floor is at `t` behind a chosen
    /// miss wins only as a hit available exactly at `t`, so its cheaper
    /// `row_hit` probe goes first. The pick is the full scan's.
    #[inline]
    fn choose(&self, bank: usize, device: &mut dyn MemoryDevice) -> Option<(Time, usize)> {
        let free = self.free[bank];
        let mut window = self.queues[bank].iter().take(self.window).enumerate();
        let (_, first) = window.next()?;
        let ready = available(device, first.loc(), free.max(first.ready()));
        if !self.first_ready {
            return Some((ready, 0));
        }
        let (mut t, mut chosen, mut hit) = (ready, 0, device.row_hit(first.loc()));
        for (pos, entry) in window {
            let floor = free.max(entry.ready());
            if floor > t || (floor == t && hit) {
                continue;
            }
            if floor == t {
                if device.row_hit(entry.loc()) && available(device, entry.loc(), floor) == t {
                    (chosen, hit) = (pos, true);
                }
                continue;
            }
            let ready = available(device, entry.loc(), floor);
            // Only an earlier entry, or a hit tying with a chosen miss,
            // can replace the choice; skip the row-buffer probe otherwise.
            if ready < t || (ready == t && !hit) {
                let entry_hit = device.row_hit(entry.loc());
                if ready < t || entry_hit {
                    (t, chosen, hit) = (ready, pos, entry_hit);
                }
            }
        }
        Some((t, chosen))
    }
}

/// When `device` can serve `loc` asked at `floor`: never before it, by the
/// probe contract [`BankQueues::choose`]'s pruning stands on.
fn available(device: &mut dyn MemoryDevice, loc: &DecodedAddress, floor: Time) -> Time {
    let ready = device.bank_available(loc, floor);
    debug_assert!(
        ready >= floor,
        "bank_available answered {ready} when asked at {floor}"
    );
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;

    struct Req(DecodedAddress);

    impl Pending for Req {
        fn loc(&self) -> &DecodedAddress {
            &self.0
        }

        fn ready(&self) -> Time {
            Time::ZERO
        }
    }

    #[test]
    #[should_panic(expected = "FR-FCFS window must hold at least one queue entry")]
    fn zero_window_is_refused() {
        let _ = BankQueues::<Req>::new(
            DramConfig::ddr3_1600_2d().topology,
            Scheduler::FrFcfs { window: 0 },
        );
    }

    #[test]
    fn entries_behind_the_window_wait_their_turn() {
        let topo = DramConfig::ddr3_1600_2d().topology;
        let mut queues = BankQueues::new(topo, Scheduler::FrFcfs { window: 1 });
        let mut device = crate::DramDevice::new(DramConfig::ddr3_1600_2d());
        let at = |row| DecodedAddress {
            channel: 0,
            bank: 2,
            row,
            column: 0,
        };
        for row in [5, 6, 7] {
            queues.push(Req(at(row)));
        }
        let mut order = Vec::new();
        while let Some((_, bank)) = queues.earliest(&mut device) {
            order.push(queues.take(bank).0.row);
            queues.set_bank_free(bank, Time::ZERO);
        }
        assert_eq!(order, [5, 6, 7]);
    }
}
