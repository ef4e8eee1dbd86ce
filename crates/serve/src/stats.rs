//! Per-tenant and per-channel accounting of a service run.
//!
//! Each tenant is accounted by a [`SimStats`] of its own, labelled with the
//! device and the tenant's name (as its workload): it folds in exactly the
//! requests the aggregate folds in for that tenant, at the same moment, so
//! a tenant's p50/p95/p99 follow the cell's rule and a single-tenant cell
//! reports equal values for both. A tenant's energy stays zero (energy is
//! a device quantity, kept in the aggregate). Accounting is deterministic:
//! equal event streams produce equal reports.

use comet_units::ByteCount;
use memsim::SimStats;

/// Per-channel accounting (sums over channels equal the aggregate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Channel index.
    pub channel: u64,
    /// Requests completed on the channel.
    pub completed: u64,
    /// Bytes moved over the channel's bus.
    pub bytes: ByteCount,
}

impl ChannelStats {
    /// Empty accounting for a channel.
    pub fn new(channel: u64) -> Self {
        ChannelStats {
            channel,
            completed: 0,
            bytes: ByteCount::ZERO,
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
    /// Per-tenant statistics, in tenant index order (see the module
    /// docs).
    pub tenants: Vec<SimStats>,
    /// Per-channel accounting.
    pub channels: Vec<ChannelStats>,
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
