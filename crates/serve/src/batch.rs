//! The write-coalescing batch stage.
//!
//! PCM writes are an order of magnitude slower and costlier than reads
//! ("Improving Phase Change Memory Performance with Data Content Aware
//! Access" makes the same asymmetry argument electrically; COMET's Table II
//! shows 170 ns programming against 10 ns reads). The batcher exploits the
//! asymmetry at the controller: an admitted write is *held* for a short
//! window keyed by its `(channel, bank, row)`; further writes to the same
//! row within the window join the batch (so their programming pulses issue
//! back-to-back into one subarray reservation), and writes to the *same
//! line* are coalesced outright — one device access completes all of them,
//! since only the last store's data matters.
//!
//! Reads are never delayed. A read arriving for a row with held writes
//! flushes that row's batch ahead of itself, so store→load ordering per
//! row is preserved at the queue level.
//!
//! # Release order without a scan
//!
//! Admission times never decrease and the window is fixed, so batches are
//! created in `(deadline, creation order)` order. A FIFO of
//! `(deadline, seq, row)` entries is therefore already sorted: the next
//! release is its front, and [`WriteBatcher::release_due`] pops from it.
//! A batch that leaves early (full, or flushed by a read) leaves its
//! entry behind; entries whose row holds no batch of that `seq` are
//! dropped when they reach the front.

use crate::core::Queued;
use comet_units::Time;
use memsim::MixMap;
use std::collections::VecDeque;

/// Write-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// How long a write may be held, measured from the first write of its
    /// row batch.
    pub window: Time,
    /// Distinct (non-coalesced) writes per row batch before it releases
    /// early.
    pub max_writes: usize,
}

impl BatchConfig {
    /// A batching configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window is non-positive or `max_writes` is zero.
    pub fn new(window: Time, max_writes: usize) -> Self {
        assert!(window > Time::ZERO, "batch window must be positive");
        assert!(max_writes >= 1, "a batch holds at least one write");
        BatchConfig { window, max_writes }
    }
}

impl Default for BatchConfig {
    /// 100 ns window (under COMET's 170 ns programming pulse, so holding
    /// never doubles a write's latency), 8 writes per row batch.
    fn default() -> Self {
        BatchConfig {
            window: Time::from_nanos(100.0),
            max_writes: 8,
        }
    }
}

/// A batch's row: `(channel, bank, row)`.
type RowKey = (u64, u64, u64);

/// One held row batch.
#[derive(Debug)]
struct RowBatch {
    /// Creation order, the deterministic tie-break for equal deadlines.
    seq: u64,
    /// Held writes in admission order.
    writes: Vec<Queued>,
}

/// The stateful batch stage the service core drives.
#[derive(Debug)]
pub(crate) struct WriteBatcher {
    config: BatchConfig,
    pending: MixMap<RowKey, RowBatch>,
    /// Release deadlines in creation order, which is `(deadline, seq)`
    /// order; the front is always a held batch's (see the module docs).
    deadlines: VecDeque<(Time, u64, RowKey)>,
    seq: u64,
    coalesced: u64,
    held: usize,
    /// The latest admission time, to check that none goes back.
    last_admit: Time,
}

impl WriteBatcher {
    pub(crate) fn new(config: BatchConfig) -> Self {
        WriteBatcher {
            config,
            pending: MixMap::default(),
            deadlines: VecDeque::new(),
            seq: 0,
            coalesced: 0,
            held: 0,
            last_admit: Time::ZERO,
        }
    }

    /// Same-line writes absorbed into an earlier held write so far.
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Requests currently held (distinct writes plus absorbed ones).
    pub(crate) fn held(&self) -> usize {
        self.held
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits a write at `now`. Returns a full batch released early, if
    /// admission filled one.
    pub(crate) fn admit(&mut self, q: Queued, now: Time) -> Vec<Queued> {
        debug_assert!(!q.op.is_read(), "the batcher only holds writes");
        debug_assert!(now >= self.last_admit, "admission times never decrease");
        self.last_admit = now;
        let key = (q.loc.channel, q.loc.bank, q.loc.row);
        self.held += 1;
        match self.pending.get_mut(&key) {
            Some(batch) => {
                // Same line already held: coalesce — the held access will
                // complete this request too, and since only the last
                // store's bytes reach the array, the newcomer's payload
                // replaces the host's (a payload-less newcomer makes the
                // merged content unknown, deliberately).
                if let Some(host) = batch.writes.iter_mut().find(|w| w.address == q.address) {
                    host.absorbed.push((q.id, q.tenant, q.arrival));
                    host.payload = q.payload;
                    self.coalesced += 1;
                    return Vec::new();
                }
                batch.writes.push(q);
                if batch.writes.len() >= self.config.max_writes {
                    return self.remove(key);
                }
                Vec::new()
            }
            None => {
                self.pending.insert(
                    key,
                    RowBatch {
                        seq: self.seq,
                        writes: vec![q],
                    },
                );
                self.deadlines
                    .push_back((now + self.config.window, self.seq, key));
                self.seq += 1;
                Vec::new()
            }
        }
    }

    /// Takes the batch of row `key` out, returning its writes.
    fn remove(&mut self, key: RowKey) -> Vec<Queued> {
        let Some(batch) = self.pending.remove(&key) else {
            return Vec::new();
        };
        self.held -= batch
            .writes
            .iter()
            .map(|w| 1 + w.absorbed.len())
            .sum::<usize>();
        self.drop_stale();
        batch.writes
    }

    /// Drops front entries whose batch already left.
    fn drop_stale(&mut self) {
        while let Some(&(_, seq, key)) = self.deadlines.front() {
            if self.pending.get(&key).is_some_and(|b| b.seq == seq) {
                break;
            }
            self.deadlines.pop_front();
        }
    }

    /// The earliest release deadline, if any batch is held.
    pub(crate) fn next_release(&self) -> Option<Time> {
        self.deadlines.front().map(|&(deadline, _, _)| deadline)
    }

    /// Releases every batch whose deadline is at or before `now`, ordered
    /// by (deadline, creation order).
    pub(crate) fn release_due(&mut self, now: Time) -> Vec<Queued> {
        let mut out = Vec::new();
        while let Some(&(deadline, _, key)) = self.deadlines.front() {
            if deadline > now {
                break;
            }
            // The front is live, so this pops it (and any stale entries
            // behind it).
            let writes = self.remove(key);
            if out.is_empty() {
                out = writes;
            } else {
                out.extend(writes);
            }
        }
        out
    }

    /// Flushes the batch holding `(channel, bank, row)`, if any — called
    /// when a read to that row arrives, so it never overtakes a held store.
    pub(crate) fn flush_row(&mut self, channel: u64, bank: u64, row: u64) -> Vec<Queued> {
        self.remove((channel, bank, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_units::ByteCount;
    use memsim::{DecodedAddress, LineData, MemOp};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The batcher before its deadline FIFO: a map scan per
    /// `next_release` and a collect-and-sort per `release_due`.
    struct ReferenceBatcher {
        config: BatchConfig,
        pending: HashMap<RowKey, (Time, u64, Vec<Queued>)>,
        seq: u64,
        coalesced: u64,
    }

    impl ReferenceBatcher {
        fn admit(&mut self, q: Queued, now: Time) -> Vec<Queued> {
            let key = (q.loc.channel, q.loc.bank, q.loc.row);
            match self.pending.get_mut(&key) {
                Some((_, _, writes)) => {
                    if let Some(host) = writes.iter_mut().find(|w| w.address == q.address) {
                        host.absorbed.push((q.id, q.tenant, q.arrival));
                        host.payload = q.payload;
                        self.coalesced += 1;
                        return Vec::new();
                    }
                    writes.push(q);
                    if writes.len() >= self.config.max_writes {
                        return self.pending.remove(&key).expect("present").2;
                    }
                    Vec::new()
                }
                None => {
                    let batch = (now + self.config.window, self.seq, vec![q]);
                    self.pending.insert(key, batch);
                    self.seq += 1;
                    Vec::new()
                }
            }
        }

        fn next_release(&self) -> Option<Time> {
            self.pending
                .values()
                .min_by(|a, b| {
                    a.0.as_seconds()
                        .total_cmp(&b.0.as_seconds())
                        .then(a.1.cmp(&b.1))
                })
                .map(|b| b.0)
        }

        fn release_due(&mut self, now: Time) -> Vec<Queued> {
            let mut due: Vec<RowKey> = self
                .pending
                .iter()
                .filter(|(_, b)| b.0 <= now)
                .map(|(k, _)| *k)
                .collect();
            due.sort_by_key(|k| {
                let b = &self.pending[k];
                (b.0.as_seconds().to_bits(), b.1)
            });
            due.into_iter()
                .flat_map(|k| self.pending.remove(&k).expect("present").2)
                .collect()
        }

        fn flush_row(&mut self, key: RowKey) -> Vec<Queued> {
            self.pending.remove(&key).map_or_else(Vec::new, |b| b.2)
        }
    }

    /// A write of tenant `id % 2` to column `column` of `row`, with a
    /// one-byte payload unless `id` is a multiple of 3.
    fn write(id: u64, row: u64, column: u64, arrival: Time) -> Queued {
        let loc = DecodedAddress {
            channel: row % 2,
            bank: 0,
            row,
            column,
        };
        Queued {
            id,
            tenant: (id % 2) as usize,
            op: MemOp::Write,
            address: (row << 8) | column,
            size: ByteCount::new(64),
            arrival,
            ready: arrival,
            loc,
            payload: (id % 3 != 0).then(|| Box::new(LineData::from_bytes(&[id as u8]))),
            absorbed: Vec::new(),
        }
    }

    /// What a release hands the core: each write's id, coalesced writes
    /// and final payload, in order.
    type Released = Vec<(u64, Vec<(u64, usize, Time)>, Option<Box<LineData>>)>;

    fn summary(writes: Vec<Queued>) -> Released {
        writes
            .into_iter()
            .map(|w| (w.id, w.absorbed, w.payload))
            .collect()
    }

    proptest! {
        #[test]
        fn deadline_fifo_matches_the_scan_and_sort_batcher(
            ops in proptest::collection::vec((0u8..4, 0u64..40, 0u64..4, 0u64..3), 1..120),
            max_writes in 1usize..5,
        ) {
            let config = BatchConfig::new(Time::from_nanos(50.0), max_writes);
            let mut fifo = WriteBatcher::new(config);
            let mut reference = ReferenceBatcher {
                config,
                pending: HashMap::new(),
                seq: 0,
                coalesced: 0,
            };
            // Steps of 0..40 ns against a 50 ns window: some batches
            // expire between operations, some share a deadline.
            let mut now = Time::ZERO;
            for (id, &(kind, step, row, column)) in ops.iter().enumerate() {
                now += Time::from_nanos(step as f64);
                let (got, want) = match kind {
                    0 | 1 => {
                        let q = write(id as u64, row, column, now);
                        (fifo.admit(q.clone(), now), reference.admit(q, now))
                    }
                    2 => (
                        fifo.flush_row(row % 2, 0, row),
                        reference.flush_row((row % 2, 0, row)),
                    ),
                    _ => (fifo.release_due(now), reference.release_due(now)),
                };
                prop_assert_eq!(summary(got), summary(want));
                prop_assert_eq!(fifo.next_release(), reference.next_release());
                prop_assert_eq!(fifo.is_empty(), reference.pending.is_empty());
                prop_assert_eq!(fifo.coalesced(), reference.coalesced);
                let held: usize = reference
                    .pending
                    .values()
                    .flat_map(|b| &b.2)
                    .map(|w| 1 + w.absorbed.len())
                    .sum();
                prop_assert_eq!(fifo.held(), held);
            }
            // Everything still held releases, in the same order.
            let end = now + Time::from_micros(1.0);
            prop_assert_eq!(summary(fifo.release_due(end)), summary(reference.release_due(end)));
            prop_assert!(fifo.is_empty() && fifo.held() == 0);
            prop_assert!(fifo.deadlines.is_empty(), "no stale entry outlives its batcher");
        }
    }
}
