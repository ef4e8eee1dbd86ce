//! The event-driven service core.
//!
//! Where `memsim::run_simulation` replays a pre-materialized trace,
//! [`run_service`] runs a *service*: sources generate requests online
//! (closed-loop ones react to finish times), a write-coalescing batch stage
//! sits in front of the per-bank command queues, and one device serves
//! every channel.
//!
//! Both are drivers over one [`memsim::Controller`]: it decodes addresses,
//! holds the per-bank queues and their FCFS / FR-FCFS choice (re-probing a
//! bank only after its own issue or an enqueue into its window, which is
//! sound because device probes are pure queries — the
//! [`memsim::MemoryDevice`] probe contract), applies channel-bus
//! contention, and keeps the aggregate [`memsim::SimStats`]. This core
//! adds the sources, the mux, the batcher, and tenant and channel
//! accounting.
//!
//! # Recording at issue
//!
//! A request's finish time is known the moment it issues, so the core
//! records it then — the host access first, then every write it absorbed
//! — into the aggregate, its tenant and its channel, in the order
//! `run_simulation` records in. A trace fed through this core with no
//! batcher therefore reports the replay engine's [`memsim::SimStats`] bit
//! for bit. Each request's tenant hears its finish time at the same moment,
//! through [`RequestSource::on_complete`], so no completion is ever an
//! event of its own: a closed-loop client schedules its next arrival, at or
//! after that finish time, before the loop moves on.
//!
//! # Event order and determinism
//!
//! The core is a single discrete-event loop. At every step it knows three
//! candidate times — the next batch release, the next arrival, and the
//! earliest possible command issue — and processes the smallest; ties
//! resolve in that fixed priority order. Every decision is a function of
//! the spec, the seed and the event history, so a run is deterministic.

use crate::batch::{BatchConfig, WriteBatcher};
use crate::source::{MuxPoll, RequestSource, TenantMux, TenantSpec};
use crate::stats::{ChannelStats, ServeReport};
use comet_units::{ByteCount, Time};
use memsim::{
    CompletedRequest, Controller, DecodedAddress, DeviceFactory, LineData, MemOp, MemRequest,
    Pending, Scheduler, SimStats, WorkloadProfile,
};

/// An admitted request, held by the batcher or queued at its bank until it
/// issues.
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    pub(crate) id: u64,
    pub(crate) tenant: usize,
    pub(crate) op: MemOp,
    pub(crate) address: u64,
    pub(crate) size: ByteCount,
    /// Original arrival (latency is measured from here).
    pub(crate) arrival: Time,
    /// Earliest issue time (arrival, or the batch release for held writes).
    pub(crate) ready: Time,
    pub(crate) loc: DecodedAddress,
    /// The written line content, boxed (the *newest* store's data when
    /// same-line writes coalesce — only the last store's bytes reach the
    /// array).
    pub(crate) payload: Option<Box<LineData>>,
    /// Same-line writes coalesced into this one: `(id, tenant, arrival)`.
    pub(crate) absorbed: Vec<(u64, usize, Time)>,
}

impl Pending for Queued {
    fn loc(&self) -> &DecodedAddress {
        &self.loc
    }

    fn ready(&self) -> Time {
        self.ready
    }
}

/// A declarative service scenario: tenant mix, scheduling and batching —
/// everything a campaign engine point needs to run one cell through the
/// service core.
///
/// # Examples
///
/// ```
/// use comet_serve::{run_service, ArrivalProcess, ServeSpec};
/// use memsim::{spec_like_suite, EpcmConfig};
///
/// let profile = &spec_like_suite(300)[0];
/// let spec = ServeSpec::open_loop(ArrivalProcess::deterministic(5.0e6), 300);
/// let report = run_service(&EpcmConfig::epcm_mm(), &spec, profile, 42, &profile.name);
/// assert_eq!(report.stats.completed, 300);
/// assert!(report.stats.p99_latency >= report.stats.p50_latency);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// The tenant mix (at least one).
    pub tenants: Vec<TenantSpec>,
    /// Command scheduling policy for the per-bank queues.
    pub scheduler: Scheduler,
    /// Must be 1: a serve run drives one device, and channel sharding was
    /// removed. Kept only because `perfbench` still sets it; [`run_service`]
    /// panics on any other value.
    pub shards: usize,
    /// Write-coalescing batch stage; `None` sends writes straight to the
    /// queues.
    pub batch: Option<BatchConfig>,
}

impl ServeSpec {
    /// A single open-loop tenant (named `"open"`) shaped by the cell's
    /// workload profile.
    pub fn open_loop(process: crate::ArrivalProcess, requests: usize) -> Self {
        ServeSpec {
            tenants: vec![TenantSpec::open("open", process, requests)],
            scheduler: Scheduler::default(),
            shards: 1,
            batch: None,
        }
    }

    /// A single closed-loop tenant (named `"closed"`) shaped by the cell's
    /// workload profile.
    pub fn closed_loop(clients: usize, think: Time, requests: usize) -> Self {
        ServeSpec {
            tenants: vec![TenantSpec::closed("closed", clients, think, requests)],
            scheduler: Scheduler::default(),
            shards: 1,
            batch: None,
        }
    }

    /// Adds a tenant to the mix.
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Enables the write-coalescing batch stage.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Total request budget across tenants.
    pub fn total_requests(&self) -> usize {
        self.tenants.iter().map(|t| t.requests).sum()
    }
}

/// Runs the scenario against one device built from `factory`, shaping
/// profile-less tenants with `fallback`, and labels the aggregate stats
/// with `workload_label`.
pub fn run_service(
    factory: &dyn DeviceFactory,
    spec: &ServeSpec,
    fallback: &WorkloadProfile,
    seed: u64,
    workload_label: &str,
) -> ServeReport {
    assert!(!spec.tenants.is_empty(), "serve spec needs tenants");
    let sources = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| t.instantiate(fallback, seed, i))
        .collect();
    run_service_with_sources(factory, sources, spec, workload_label)
}

/// [`run_service`] with pre-built sources (library callers that implement
/// their own [`RequestSource`]).
pub fn run_service_with_sources(
    factory: &dyn DeviceFactory,
    sources: Vec<Box<dyn RequestSource>>,
    spec: &ServeSpec,
    workload_label: &str,
) -> ServeReport {
    assert_eq!(spec.shards, 1, "a serve run drives one device");
    let mut device = factory.build();
    let topo = device.topology();
    let mut ctl = Controller::new(device.as_ref(), spec.scheduler, workload_label);

    let mut mux = TenantMux::new(sources);
    if !device.reads_payloads() {
        // Nothing the device reports depends on a store's bytes, so none
        // are generated.
        mux.skip_payloads();
    }
    let mut tenants: Vec<SimStats> = mux
        .names()
        .into_iter()
        .map(|name| SimStats::new(device.name(), name))
        .collect();
    let mut channels: Vec<ChannelStats> = (0..topo.channels).map(ChannelStats::new).collect();
    let mut batcher = spec.batch.map(WriteBatcher::new);

    let mut next_id: u64 = 0;

    loop {
        let t_release = batcher.as_ref().and_then(WriteBatcher::next_release);
        let poll = mux.poll();
        let t_arrival = match poll {
            MuxPoll::Ready { at, .. } => Some(at),
            _ => None,
        };
        let issue = ctl.next_issue(device.as_mut());
        let t_issue = issue.map(|(t, _)| t);

        // Pick the earliest candidate; iteration order is the tie-break
        // priority (release, arrival, issue).
        let mut chosen: Option<(Time, u8)> = None;
        for (i, t) in [t_release, t_arrival, t_issue].into_iter().enumerate() {
            if let Some(t) = t {
                if chosen.map_or(true, |(best, _)| t < best) {
                    chosen = Some((t, i as u8));
                }
            }
        }

        match chosen {
            None => {
                match poll {
                    MuxPoll::Exhausted => break,
                    // Unreachable: Blocked implies a request admitted but
                    // not issued, which the batcher or a bank queue holds.
                    other => unreachable!("service stalled with mux state {other:?}"),
                }
            }
            Some((now, 0)) => {
                // Batch release: held writes become issuable at `now`.
                let released = batcher
                    .as_mut()
                    .expect("release candidate implies a batcher")
                    .release_due(now);
                for mut w in released {
                    w.ready = now;
                    ctl.push(w);
                }
            }
            Some((now, 1)) => {
                // Arrival.
                let tenant = match poll {
                    MuxPoll::Ready { tenant, .. } => tenant,
                    _ => unreachable!("arrival candidate implies Ready"),
                };
                let s = mux.take(tenant);
                debug_assert_eq!(s.arrival, now);
                let loc = ctl.decode(s.address);
                let q = Queued {
                    id: next_id,
                    tenant,
                    op: s.op,
                    address: s.address,
                    size: s.size,
                    arrival: s.arrival,
                    ready: s.arrival,
                    loc,
                    payload: s.payload,
                    absorbed: Vec::new(),
                };
                next_id += 1;
                match (&mut batcher, s.op) {
                    (Some(b), MemOp::Write) => {
                        for mut w in b.admit(q, now) {
                            w.ready = now;
                            ctl.push(w);
                        }
                    }
                    (Some(b), MemOp::Read) => {
                        // Store→load ordering: held writes to this row go
                        // ahead of the read.
                        for mut w in b.flush_row(loc.channel, loc.bank, loc.row) {
                            w.ready = now;
                            ctl.push(w);
                        }
                        ctl.push(q);
                    }
                    (None, _) => ctl.push(q),
                }
            }
            Some((now, _)) => {
                // Issue.
                let (_, bank) = issue.expect("issue candidate present");
                let q = ctl.take(bank);
                let finished = ctl.access(device.as_mut(), &q.loc, q.op, now, q.payload.as_deref());
                let channel = &mut channels[q.loc.channel as usize];
                let mut record = |id: u64, tenant: usize, arrival: Time| {
                    let done = CompletedRequest {
                        request: MemRequest::new(id, arrival, q.op, q.address, q.size),
                        issued: now,
                        finished,
                    };
                    ctl.record(&done);
                    tenants[tenant].record(&done);
                    channel.completed += 1;
                    channel.bytes += q.size;
                    mux.on_complete(tenant, finished);
                };
                record(q.id, q.tenant, q.arrival);
                for &(id, tenant, arrival) in &q.absorbed {
                    record(id, tenant, arrival);
                }
            }
        }
    }

    debug_assert!(batcher
        .as_ref()
        .map_or(true, |b| b.is_empty() && b.held() == 0));

    let drained = device.drain_accumulated_energy();
    let stats = ctl.finish(drained, device.background_power());
    for tenant in &mut tenants {
        tenant.finalize_percentiles();
    }

    ServeReport {
        stats,
        tenants,
        channels,
        coalesced_writes: batcher.as_ref().map_or(0, WriteBatcher::coalesced),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use memsim::{AccessPattern, EpcmConfig};

    fn profile(name: &str, read_fraction: f64) -> WorkloadProfile {
        WorkloadProfile {
            name: name.into(),
            read_fraction,
            footprint: ByteCount::from_mib(8),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(2.0),
            requests: 0,
            line_bytes: 64,
        }
    }

    #[test]
    fn open_loop_completes_budget_deterministically() {
        let p = profile("open-test", 0.8);
        let spec = ServeSpec::open_loop(ArrivalProcess::poisson(5.0e6), 500);
        let run = || run_service(&EpcmConfig::epcm_mm(), &spec, &p, 42, "open-test");
        let a = run();
        let b = run();
        assert_eq!(a, b, "service runs are deterministic");
        assert_eq!(a.stats.completed, 500);
        assert_eq!(a.stats.completed, a.stats.reads + a.stats.writes);
        assert_eq!(a.channel_total(), 500);
        assert!(a.stats.p50_latency > Time::ZERO);
        assert!(a.stats.p99_latency >= a.stats.p95_latency);
        assert!(a.stats.p95_latency >= a.stats.p50_latency);
        assert_eq!(a.tenants.len(), 1);
        assert_eq!(a.tenants[0].completed, 500);
    }

    #[test]
    fn closed_loop_self_limits_below_open_loop_overload() {
        let p = profile("closed-test", 0.7);
        // Open loop far past EPCM's service rate: latency explodes.
        let open = ServeSpec::open_loop(ArrivalProcess::deterministic(5.0e8), 800);
        let oa = run_service(&EpcmConfig::epcm_mm(), &open, &p, 1, "w");
        // Closed loop with 4 clients: queueing bounded by concurrency.
        let closed = ServeSpec::closed_loop(4, Time::ZERO, 800);
        let ca = run_service(&EpcmConfig::epcm_mm(), &closed, &p, 1, "w");
        assert!(
            ca.stats.p99_latency < oa.stats.p99_latency,
            "closed {} vs open {}",
            ca.stats.p99_latency,
            oa.stats.p99_latency
        );
    }

    #[test]
    fn multi_tenant_mix_accounts_per_tenant() {
        let p = profile("mix", 0.9);
        let spec = ServeSpec::open_loop(ArrivalProcess::deterministic(2.0e6), 300).with_tenant(
            TenantSpec::closed("batch-tenant", 2, Time::from_nanos(100.0), 200),
        );
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 9, "mix");
        assert_eq!(report.stats.completed, 500);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].workload, "open");
        assert_eq!(report.tenants[0].completed, 300);
        assert_eq!(report.tenants[1].workload, "batch-tenant");
        assert_eq!(report.tenants[1].completed, 200);
        let tenant_total: u64 = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(tenant_total, report.stats.completed);
    }

    #[test]
    fn write_batching_coalesces_same_line_writes() {
        // A tiny footprint forces address collisions within the window.
        let mut p = profile("hot-writes", 0.0);
        p.footprint = ByteCount::new(16 * 64);
        let base = ServeSpec::open_loop(ArrivalProcess::deterministic(2.0e8), 600);
        let batched = base
            .clone()
            .with_batch(BatchConfig::new(Time::from_nanos(200.0), 16));
        let plain = run_service(&EpcmConfig::epcm_mm(), &base, &p, 3, "w");
        let coal = run_service(&EpcmConfig::epcm_mm(), &batched, &p, 3, "w");
        // Every request still completes.
        assert_eq!(plain.stats.completed, 600);
        assert_eq!(coal.stats.completed, 600);
        assert_eq!(coal.stats.writes, 600);
        assert!(coal.coalesced_writes > 0, "hot lines must coalesce");
        // Coalesced runs do less array work: lower access energy.
        assert!(coal.stats.energy.access < plain.stats.energy.access);
    }

    #[test]
    fn read_flush_preserves_store_load_order_in_queue() {
        // Directly exercise the batcher path: a write then a read to the
        // same line; the read must not leave its row's write held.
        let mut p = profile("raw", 0.5);
        p.footprint = ByteCount::new(64); // a single line: every access collides
        let spec = ServeSpec::open_loop(ArrivalProcess::deterministic(1.0e7), 100)
            .with_batch(BatchConfig::new(Time::from_micros(10.0), 64));
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 5, "raw");
        // All requests complete even though the window (10 us) is far
        // longer than the run would otherwise take — reads force flushes.
        assert_eq!(report.stats.completed, 100);
    }
}
