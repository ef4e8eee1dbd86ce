//! Per-tenant and per-channel accounting of a service run.
//!
//! The service core cannot afford to keep every sample per tenant, so each
//! tenant's tail latency streams into a [`TailHistogram`] — a fixed-bucket
//! logarithmic histogram an order of magnitude finer than `memsim`'s
//! ten-bucket [`LatencyHistogram`](memsim::LatencyHistogram) (eight
//! buckets per decade from 1 ns to 1 ms). The aggregate's exact
//! percentiles are `memsim`'s [`SimStats`] fields. Accounting is
//! deterministic: equal event streams produce equal reports.

use comet_units::{ByteCount, Time};
use memsim::{MemOp, SimStats};

/// Log-bucket resolution: buckets per decade of nanoseconds.
const BUCKETS_PER_DECADE: usize = 8;
/// Bucket bounds span 1 ns (10⁰) to 1 ms (10⁶ ns).
const DECADES: usize = 6;
/// Number of finite bucket bounds.
const NUM_BOUNDS: usize = BUCKETS_PER_DECADE * DECADES + 1;

/// Upper bound of bucket `i` in nanoseconds.
fn bound_ns(i: usize) -> f64 {
    10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64)
}

/// A fixed-bucket streaming latency histogram (1 ns – 1 ms, 8 log buckets
/// per decade, plus an overflow bucket tracked against the recorded max).
///
/// # Examples
///
/// ```
/// use comet_serve::TailHistogram;
/// use comet_units::Time;
///
/// let mut h = TailHistogram::new();
/// for ns in 1..=1000 {
///     h.record(Time::from_nanos(ns as f64));
/// }
/// let p50 = h.percentile(50.0).as_nanos();
/// let p99 = h.percentile(99.0).as_nanos();
/// assert!(p50 < p99);
/// assert!(h.percentile(100.0) <= h.max());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TailHistogram {
    counts: Vec<u64>,
    total: u64,
    max: Time,
    sum: Time,
}

impl TailHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        TailHistogram {
            counts: vec![0; NUM_BOUNDS + 1],
            total: 0,
            max: Time::ZERO,
            sum: Time::ZERO,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Time) {
        let ns = latency.as_nanos();
        let idx = if ns < 1.0 {
            0
        } else if ns >= bound_ns(NUM_BOUNDS - 1) {
            NUM_BOUNDS // overflow bucket
        } else {
            // log10(ns) * 8 rounds down to the bucket whose bound exceeds ns.
            let i = (ns.log10() * BUCKETS_PER_DECADE as f64).floor() as usize + 1;
            // Guard the float boundary: the bucket's bound must exceed ns.
            if ns < bound_ns(i) {
                i
            } else {
                i + 1
            }
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(latency);
        self.sum += latency;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded.
    pub fn max(&self) -> Time {
        self.max
    }

    /// Mean of the recorded samples.
    pub fn mean(&self) -> Time {
        if self.total == 0 {
            Time::ZERO
        } else {
            self.sum / self.total as f64
        }
    }

    /// Latency at percentile `q` (clamped to `[0, 100]`): nearest-rank over
    /// the bucket distribution, linearly interpolated within the winning
    /// bucket; the overflow bucket interpolates toward the recorded max.
    /// Resolution is the bucket width (< 34 % of the value at eight buckets
    /// per decade); empty histograms report [`Time::ZERO`].
    pub fn percentile(&self, q: f64) -> Time {
        if self.total == 0 {
            return Time::ZERO;
        }
        let q = q.clamp(0.0, 100.0);
        let target = ((self.total as f64 * q / 100.0).ceil()).max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let before = seen;
            seen += c;
            if c > 0 && seen >= target {
                let lower = if i == 0 { 0.0 } else { bound_ns(i - 1) };
                let upper = if i < NUM_BOUNDS {
                    bound_ns(i)
                } else {
                    self.max.as_nanos().max(lower)
                };
                let frac = (target - before) as f64 / c as f64;
                // Clamp to the recorded max: the top bucket's bound can
                // overshoot the largest sample actually seen.
                return Time::from_nanos(lower + (upper - lower) * frac).min(self.max);
            }
        }
        self.max
    }
}

impl Default for TailHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-tenant accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Requests completed.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Bytes transferred.
    pub bytes: ByteCount,
    /// Sum of request latencies.
    pub total_latency: Time,
    /// Maximum request latency.
    pub max_latency: Time,
    /// Streaming latency distribution.
    pub tail: TailHistogram,
}

impl TenantStats {
    /// Empty accounting for a named tenant.
    pub fn new(name: impl Into<String>) -> Self {
        TenantStats {
            name: name.into(),
            completed: 0,
            reads: 0,
            writes: 0,
            bytes: ByteCount::ZERO,
            total_latency: Time::ZERO,
            max_latency: Time::ZERO,
            tail: TailHistogram::new(),
        }
    }

    /// Folds one completion into the record.
    pub fn record(&mut self, op: MemOp, size: ByteCount, latency: Time) {
        self.completed += 1;
        if op.is_read() {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        self.bytes += size;
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        self.tail.record(latency);
    }

    /// Mean latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }

    /// Latency percentile from the streaming histogram.
    pub fn percentile(&self, q: f64) -> Time {
        self.tail.percentile(q)
    }

    /// Completed-request throughput over `makespan`, requests per second.
    pub fn throughput_rps(&self, makespan: Time) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.completed as f64 / makespan.as_seconds()
        }
    }
}

/// Per-logical-channel accounting (sums over channels must equal the
/// aggregate — the sharding soundness check).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Logical channel index.
    pub channel: u64,
    /// Requests completed on the channel.
    pub completed: u64,
    /// Bytes moved over the channel's bus.
    pub bytes: ByteCount,
    /// Summed data-bus occupancy.
    pub busy: Time,
}

impl ChannelStats {
    /// Empty accounting for a channel.
    pub fn new(channel: u64) -> Self {
        ChannelStats {
            channel,
            completed: 0,
            bytes: ByteCount::ZERO,
            busy: Time::ZERO,
        }
    }
}

/// The result of one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Aggregate statistics in the same shape trace replay produces —
    /// including the exact p50/p95/p99 fields — so campaign reports treat
    /// serve and replay cells uniformly.
    pub stats: SimStats,
    /// Per-tenant accounting, in tenant index order.
    pub tenants: Vec<TenantStats>,
    /// Per-logical-channel accounting.
    pub channels: Vec<ChannelStats>,
    /// The most requests in the system (admitted, not yet completed) at
    /// any instant.
    pub max_depth: u64,
    /// Writes that entered the batch stage.
    pub batched_writes: u64,
    /// Same-line writes coalesced away (completed by another access).
    pub coalesced_writes: u64,
    /// Backend instances the simulation was partitioned across.
    pub shards: usize,
}

impl ServeReport {
    /// Sum of per-channel completions (equals `stats.completed` — pinned
    /// by the crate's property tests).
    pub fn channel_total(&self) -> u64 {
        self.channels.iter().map(|c| c.completed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_increasing_and_cover_the_range() {
        for i in 1..NUM_BOUNDS {
            assert!(bound_ns(i) > bound_ns(i - 1));
        }
        assert!((bound_ns(0) - 1.0).abs() < 1e-12);
        assert!((bound_ns(NUM_BOUNDS - 1) - 1.0e6).abs() < 1e-3);
    }

    #[test]
    fn records_land_in_the_right_bucket() {
        let mut h = TailHistogram::new();
        for ns in [0.5, 1.5, 10.0, 99.0, 1.0e5, 5.0e6] {
            h.record(Time::from_nanos(ns));
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts[0], 1, "sub-ns sample in the first bucket");
        assert_eq!(h.counts[NUM_BOUNDS], 1, "5 ms sample overflows");
        assert_eq!(h.max(), Time::from_nanos(5.0e6));
    }

    #[test]
    fn percentiles_bracket_samples_tightly() {
        let mut h = TailHistogram::new();
        for _ in 0..1000 {
            h.record(Time::from_nanos(200.0));
        }
        let p = h.percentile(99.0).as_nanos();
        // Eight buckets per decade: the bucket around 200 ns spans
        // ~178..~237 ns.
        assert!((150.0..=250.0).contains(&p), "p99 {p}");
        // Monotone in q.
        assert!(h.percentile(10.0) <= h.percentile(90.0));
    }

    #[test]
    fn overflow_percentile_interpolates_to_max() {
        let mut h = TailHistogram::new();
        for _ in 0..10 {
            h.record(Time::from_millis(3.0));
        }
        let p100 = h.percentile(100.0);
        assert!(p100 <= h.max());
        assert!(p100.as_nanos() >= bound_ns(NUM_BOUNDS - 1));
    }

    #[test]
    fn tenant_stats_fold() {
        let mut t = TenantStats::new("t");
        t.record(MemOp::Read, ByteCount::new(64), Time::from_nanos(100.0));
        t.record(MemOp::Write, ByteCount::new(64), Time::from_nanos(300.0));
        assert_eq!(t.completed, 2);
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        assert!((t.avg_latency().as_nanos() - 200.0).abs() < 1e-9);
        assert_eq!(t.max_latency, Time::from_nanos(300.0));
        assert!((t.throughput_rps(Time::from_micros(1.0)) - 2.0e6).abs() < 1.0);
    }
}
