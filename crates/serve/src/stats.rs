//! Per-tenant and per-channel accounting of a service run.
//!
//! Each tenant's latencies stream into a
//! [`LatencyHistogram`] — the bounded log-linear histogram behind the
//! aggregate's [`SimStats`] percentiles — so a tenant's p50/p95/p99 follow
//! the same rule as the cell's, and a single-tenant cell reports equal
//! values for both. Accounting is deterministic: equal event streams
//! produce equal reports.

use comet_units::{ByteCount, Time};
use memsim::{LatencyHistogram, MemOp, SimStats};

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
    /// Latency distribution.
    pub histogram: LatencyHistogram,
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
            histogram: LatencyHistogram::new(),
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
        self.histogram.record(latency);
    }

    /// Mean latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }

    /// Latency percentile from the histogram (see
    /// [`LatencyHistogram::percentile`]).
    pub fn percentile(&self, q: f64) -> Time {
        self.histogram.percentile(q)
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

/// Per-channel accounting (sums over channels equal the aggregate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Channel index.
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
    /// including the p50/p95/p99 fields — so campaign reports treat
    /// serve and replay cells uniformly.
    pub stats: SimStats,
    /// Per-tenant accounting, in tenant index order.
    pub tenants: Vec<TenantStats>,
    /// Per-channel accounting.
    pub channels: Vec<ChannelStats>,
    /// The most requests in the system (admitted, not yet completed) at
    /// any instant.
    pub max_depth: u64,
    /// Writes that entered the batch stage.
    pub batched_writes: u64,
    /// Same-line writes coalesced away (completed by another access).
    pub coalesced_writes: u64,
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
    fn tenant_stats_fold() {
        let mut t = TenantStats::new("t");
        t.record(MemOp::Read, ByteCount::new(64), Time::from_nanos(100.0));
        t.record(MemOp::Write, ByteCount::new(64), Time::from_nanos(300.0));
        assert_eq!(t.completed, 2);
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        assert!((t.avg_latency().as_nanos() - 200.0).abs() < 1e-9);
        assert_eq!(t.max_latency, Time::from_nanos(300.0));
        // Bucket floors: 100 ns in 512 ps buckets, 300 ns in 2048 ps ones.
        assert_eq!(t.percentile(50.0), Time::from_picos(99_840.0));
        assert_eq!(t.percentile(100.0), Time::from_picos(299_008.0));
        assert!((t.throughput_rps(Time::from_micros(1.0)) - 2.0e6).abs() < 1.0);
    }
}
