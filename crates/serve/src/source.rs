//! Request sources: the tenant source and the multi-tenant mux.
//!
//! A [`RequestSource`] is the demand side of the service core: polled for
//! its next arrival, asked to materialize the request, and told each
//! request's finish time when the request issues (which is how closed-loop
//! clients pace themselves). [`TenantSpec::instantiate`] builds every
//! declarative tenant as one source type, open or closed loop by its
//! [`TenantLoad`]. The [`TenantMux`] interleaves named sources by arrival
//! time — ties resolve to the lowest tenant index, so the interleaving is
//! deterministic — while preserving each tenant's own request order.

use crate::arrival::{ArrivalClock, ArrivalProcess};
use comet_data::{PayloadGen, PayloadSpec};
use comet_units::{ByteCount, Time};
use memsim::{hash_name, LineData, MemOp, StreamShape, WorkloadProfile};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Totally ordered wrapper for event times (f64 seconds under `total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdTime(f64);

impl Eq for OrdTime {}

impl PartialOrd for OrdTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What polling a source yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourcePoll {
    /// A request is ready to arrive at this time.
    Ready(Time),
    /// Nothing until an outstanding request issues and its finish time is
    /// known (closed-loop with all clients in flight).
    Blocked,
    /// The source's request budget is spent.
    Exhausted,
}

/// A materialized request, before the core assigns it an id.
///
/// A 40-byte record: a store's payload travels in its own box, which the
/// core moves along with the request until it completes.
#[derive(Debug, Clone, PartialEq)]
pub struct Sourced {
    /// Arrival time at the controller.
    pub arrival: Time,
    /// Operation.
    pub op: MemOp,
    /// Physical byte address.
    pub address: u64,
    /// Transfer size.
    pub size: ByteCount,
    /// The written line content, boxed (stores of tenants with a payload
    /// source; reads and payload-less tenants carry `None`).
    pub payload: Option<Box<LineData>>,
}

/// The demand side of the service core.
///
/// [`TenantSpec::instantiate`] builds the crate's own implementation, open
/// or closed loop by the tenant's [`TenantLoad`]; callers may drive the
/// core with their own (a trace, or a wrapper that counts or logs calls)
/// through [`crate::run_service_with_sources`].
///
/// Implementations must be deterministic: the sequence of polls, takes and
/// finish-time notices fully determines the generated stream.
pub trait RequestSource: Send {
    /// Tenant name used in per-tenant reports.
    fn name(&self) -> &str;

    /// The next arrival, without consuming it.
    ///
    /// Polling is idempotent between a source's [`RequestSource::take`]
    /// and [`RequestSource::on_complete`] calls: until one of them, every
    /// poll returns the same answer. [`TenantMux`] relies on this and
    /// polls a tenant again only after taking from it or routing it a
    /// finish time.
    fn poll(&mut self) -> SourcePoll;

    /// Consumes and materializes the request last reported ready.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the source is not currently
    /// [`SourcePoll::Ready`].
    fn take(&mut self) -> Sourced;

    /// Tells the source when one of its requests finishes: `finished` is
    /// the time its data reaches the requester. The service core calls it
    /// once per request, when the request issues — before simulated time
    /// reaches `finished` — so a source must not schedule an arrival
    /// earlier than `finished` (closed-loop sources schedule their next
    /// request from it; open-loop sources ignore it).
    fn on_complete(&mut self, finished: Time);

    /// Tells the source that no payload it generates will be read: the
    /// service core calls it once, before the first poll, when the device
    /// ignores payloads ([`memsim::MemoryDevice::reads_payloads`]). From
    /// then on the source may emit `payload: None` for its stores, but
    /// everything else it emits (arrivals, operations, addresses, sizes)
    /// must stay exactly as it would have been.
    ///
    /// The default keeps generating payloads, which is always correct.
    fn skip_payloads(&mut self) {}
}

/// How a [`TenantSource`] schedules its arrivals, mirroring [`TenantLoad`].
enum Arrivals {
    /// Open loop: arrivals from an [`ArrivalProcess`], oblivious to
    /// service progress. A poll stages the clock's next arrival until it
    /// is taken.
    Open {
        clock: ArrivalClock,
        staged: Option<Time>,
    },
    /// Closed loop: a fixed number of clients, each keeping one request in
    /// flight and re-issuing `think` after its finish time — the classic
    /// fixed-concurrency load generator whose offered rate self-limits at
    /// the service rate. A client's next arrival, `finished + think`, is
    /// scheduled as soon as [`RequestSource::on_complete`] reports the
    /// finish time, i.e. when its request issues.
    Closed {
        think: Time,
        /// Times at which a client is ready to issue (min-heap).
        ready: BinaryHeap<Reverse<OrdTime>>,
    },
}

/// The source [`TenantSpec::instantiate`] builds: a tenant's budget of
/// accesses of one [`StreamShape`], arriving as its [`TenantLoad`] says,
/// with a payload generator for its stores if the tenant has one.
struct TenantSource {
    name: String,
    shape: StreamShape,
    arrivals: Arrivals,
    remaining: usize,
    payload: Option<PayloadGen>,
}

impl RequestSource for TenantSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self) -> SourcePoll {
        if self.remaining == 0 {
            return SourcePoll::Exhausted;
        }
        match &mut self.arrivals {
            Arrivals::Open { clock, staged } => {
                SourcePoll::Ready(*staged.get_or_insert_with(|| clock.next_arrival()))
            }
            Arrivals::Closed { ready, .. } => match ready.peek() {
                Some(Reverse(t)) => SourcePoll::Ready(Time::from_seconds(t.0)),
                None => SourcePoll::Blocked,
            },
        }
    }

    fn take(&mut self) -> Sourced {
        let arrival = match &mut self.arrivals {
            Arrivals::Open { staged, .. } => staged.take(),
            Arrivals::Closed { ready, .. } => ready.pop().map(|Reverse(t)| Time::from_seconds(t.0)),
        }
        .expect("take() without a Ready poll");
        self.remaining -= 1;
        let (op, address, size) = self.shape.next_access();
        let payload = match &mut self.payload {
            Some(gen) if !op.is_read() => Some(Box::new(gen.next_line(address, size.value()))),
            _ => None,
        };
        Sourced {
            arrival,
            op,
            address,
            size,
            payload,
        }
    }

    fn on_complete(&mut self, finished: Time) {
        if let Arrivals::Closed { think, ready } = &mut self.arrivals {
            ready.push(Reverse(OrdTime((finished + *think).as_seconds())));
        }
    }

    /// Drops the payload generator: it draws from its own RNG, so the
    /// arrivals and accesses stay the same.
    fn skip_payloads(&mut self) {
        self.payload = None;
    }
}

/// What polling the mux yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MuxPoll {
    /// Tenant `tenant` has a request arriving at `at` (the earliest across
    /// tenants; ties go to the lowest index).
    Ready {
        /// Index of the tenant to take from.
        tenant: usize,
        /// Arrival time of its next request.
        at: Time,
    },
    /// Every non-exhausted tenant is waiting for a request to issue.
    Blocked,
    /// Every tenant's budget is spent.
    Exhausted,
}

/// Interleaves named sources by arrival time with per-tenant bookkeeping.
///
/// Each tenant's last poll is cached and dropped only by that tenant's
/// own [`TenantMux::take`] or [`TenantMux::on_complete`]: a source's
/// answer cannot change in between (the [`RequestSource::poll`]
/// contract), so a tenant is polled once after each take from it or
/// finish time routed to it rather than once per service event. The
/// service core routes each request's finish time when the request
/// issues. The mux's own answer is cached until either call.
pub struct TenantMux {
    tenants: Vec<Box<dyn RequestSource>>,
    polls: Vec<Option<SourcePoll>>,
    answer: Option<MuxPoll>,
}

impl std::fmt::Debug for TenantMux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantMux")
            .field("tenants", &self.names())
            .finish()
    }
}

impl TenantMux {
    /// Wraps the tenant sources (index order is the tie-break order).
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list.
    pub fn new(tenants: Vec<Box<dyn RequestSource>>) -> Self {
        assert!(!tenants.is_empty(), "mux needs at least one tenant");
        TenantMux {
            polls: vec![None; tenants.len()],
            tenants,
            answer: None,
        }
    }

    /// The tenant names, in index order.
    pub fn names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name().to_string()).collect()
    }

    /// The earliest pending arrival across tenants.
    pub fn poll(&mut self) -> MuxPoll {
        if let Some(answer) = self.answer {
            return answer;
        }
        let mut best: Option<(Time, usize)> = None;
        let mut all_exhausted = true;
        for (i, (tenant, cached)) in self.tenants.iter_mut().zip(&mut self.polls).enumerate() {
            match *cached.get_or_insert_with(|| tenant.poll()) {
                SourcePoll::Ready(at) => {
                    all_exhausted = false;
                    // Strict `<` keeps the lowest index on ties.
                    if best.map_or(true, |(t, _)| at < t) {
                        best = Some((at, i));
                    }
                }
                SourcePoll::Blocked => all_exhausted = false,
                SourcePoll::Exhausted => {}
            }
        }
        let answer = match best {
            Some((at, tenant)) => MuxPoll::Ready { tenant, at },
            None if all_exhausted => MuxPoll::Exhausted,
            None => MuxPoll::Blocked,
        };
        *self.answer.insert(answer)
    }

    /// Takes the next request of tenant `tenant`.
    pub fn take(&mut self, tenant: usize) -> Sourced {
        self.forget(tenant);
        self.tenants[tenant].take()
    }

    /// Routes a request's finish time to its tenant (the service core
    /// calls this when the request issues).
    pub fn on_complete(&mut self, tenant: usize, finished: Time) {
        self.forget(tenant);
        self.tenants[tenant].on_complete(finished);
    }

    /// Tells every tenant that its payloads will not be read
    /// ([`RequestSource::skip_payloads`]).
    pub fn skip_payloads(&mut self) {
        for tenant in &mut self.tenants {
            tenant.skip_payloads();
        }
    }

    /// Drops the cached polls `tenant`'s next call may change.
    fn forget(&mut self, tenant: usize) {
        self.polls[tenant] = None;
        self.answer = None;
    }
}

/// The golden-ratio stride `comet-lab` also uses for seed derivation.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// How a declarative tenant offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantLoad {
    /// Open loop: arrivals from the process regardless of service progress.
    Open(ArrivalProcess),
    /// Closed loop: fixed concurrency with think time.
    Closed {
        /// Clients keeping one request in flight each.
        clients: usize,
        /// Pause between a completion and the client's next request.
        think: Time,
    },
}

/// A declarative tenant: instantiated per campaign cell with the cell's
/// seed and (unless it carries its own) the cell's workload profile. Open-
/// and closed-loop tenants differ only in [`TenantLoad`]; both become the
/// same source type ([`TenantSpec::instantiate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (report label; also folded into the tenant's seed).
    pub name: String,
    /// Traffic shape override; `None` uses the cell's workload profile.
    pub profile: Option<WorkloadProfile>,
    /// Load model.
    pub load: TenantLoad,
    /// Request budget.
    pub requests: usize,
    /// Payload source for this tenant's stores; `None` sends payload-less
    /// writes (content-aware devices price those at the flat worst case).
    pub payload: Option<PayloadSpec>,
}

impl TenantSpec {
    /// An open-loop tenant shaped by the cell's workload profile.
    pub fn open(name: impl Into<String>, process: ArrivalProcess, requests: usize) -> Self {
        TenantSpec {
            name: name.into(),
            profile: None,
            load: TenantLoad::Open(process),
            requests,
            payload: None,
        }
    }

    /// A closed-loop tenant shaped by the cell's workload profile.
    pub fn closed(name: impl Into<String>, clients: usize, think: Time, requests: usize) -> Self {
        TenantSpec {
            name: name.into(),
            profile: None,
            load: TenantLoad::Closed { clients, think },
            requests,
            payload: None,
        }
    }

    /// Overrides the traffic shape (e.g. a DOTA transformer stream beside
    /// SPEC-like tenants).
    pub fn with_profile(mut self, profile: WorkloadProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Attaches a payload source: the tenant's stores carry lines from
    /// `payload`, instantiated per cell with the tenant's derived seed.
    pub fn with_payload(mut self, payload: PayloadSpec) -> Self {
        self.payload = Some(payload);
        self
    }

    /// Builds the tenant's source: `requests` accesses of the tenant's
    /// shape, arriving open or closed loop as `load` says, each store
    /// carrying a generated line if the tenant has a payload source.
    /// `fallback` supplies the shape when the spec carries none; `seed` is
    /// the cell seed, decorrelated per tenant by index and name.
    ///
    /// # Panics
    ///
    /// Panics on a closed loop with zero clients (it could never issue).
    pub fn instantiate(
        &self,
        fallback: &WorkloadProfile,
        seed: u64,
        index: usize,
    ) -> Box<dyn RequestSource> {
        let profile = self.profile.as_ref().unwrap_or(fallback);
        let tenant_seed =
            seed.wrapping_add((index as u64 + 1).wrapping_mul(SEED_STRIDE)) ^ hash_name(&self.name);
        let shape = StreamShape::from_profile(profile, tenant_seed);
        let arrivals = match self.load {
            TenantLoad::Open(process) => Arrivals::Open {
                clock: process.clock(tenant_seed.rotate_left(32) ^ SEED_STRIDE),
                staged: None,
            },
            TenantLoad::Closed { clients, think } => {
                assert!(clients > 0, "closed loop needs at least one client");
                Arrivals::Closed {
                    think,
                    ready: (0..clients).map(|_| Reverse(OrdTime(0.0))).collect(),
                }
            }
        };
        Box::new(TenantSource {
            name: self.name.clone(),
            shape,
            arrivals,
            remaining: self.requests,
            // A third stream off the tenant seed (the shape takes it raw,
            // the arrival clock rotated by 32), so payload bytes never
            // correlate with addresses or arrival times.
            payload: self
                .payload
                .map(|spec| spec.instantiate(tenant_seed.rotate_left(48) ^ SEED_STRIDE)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_units::ByteCount;
    use memsim::AccessPattern;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "src-test".into(),
            read_fraction: 0.5,
            footprint: ByteCount::from_mib(1),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(1.0),
            requests: 0,
            line_bytes: 64,
        }
    }

    #[test]
    fn sourced_requests_stay_small() {
        // The payload rides in a box; an inline line would add 128 B.
        assert!(std::mem::size_of::<Sourced>() <= 40);
    }

    #[test]
    fn queued_requests_are_pinned_at_120_bytes() {
        // The core holds one per admitted request until it issues, so a
        // saturated trace sits in the bank queues whole; replay's entry is
        // 48 B (trace index, arrival, decoded address). ROADMAP item 2
        // counts the difference against peak RSS.
        assert_eq!(std::mem::size_of::<crate::core::Queued>(), 120);
    }

    #[test]
    fn open_loop_drains_budget_in_order() {
        let spec = TenantSpec::open("t", ArrivalProcess::deterministic(1e9), 10);
        let mut src = spec.instantiate(&profile(), 42, 0);
        let mut last = Time::ZERO;
        for _ in 0..10 {
            match src.poll() {
                SourcePoll::Ready(at) => {
                    let s = src.take();
                    assert_eq!(s.arrival, at);
                    assert!(s.arrival >= last);
                    last = s.arrival;
                }
                other => panic!("expected Ready, got {other:?}"),
            }
        }
        assert_eq!(src.poll(), SourcePoll::Exhausted);
    }

    #[test]
    fn closed_loop_blocks_until_completion_and_honours_think() {
        let spec = TenantSpec::closed("c", 2, Time::from_nanos(50.0), 5);
        let mut src = spec.instantiate(&profile(), 1, 0);
        // Two clients ready at t=0.
        assert_eq!(src.poll(), SourcePoll::Ready(Time::ZERO));
        let _ = src.take();
        let _ = src.take();
        assert_eq!(src.poll(), SourcePoll::Blocked);
        // A completion at 100 ns frees a client at 150 ns.
        src.on_complete(Time::from_nanos(100.0));
        match src.poll() {
            SourcePoll::Ready(at) => assert!((at.as_nanos() - 150.0).abs() < 1e-9),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn mux_picks_earliest_with_index_tiebreak() {
        let fast = TenantSpec::open("fast", ArrivalProcess::deterministic(2e9), 100);
        let slow = TenantSpec::open("slow", ArrivalProcess::deterministic(1e9), 100);
        let p = profile();
        let mut mux = TenantMux::new(vec![fast.instantiate(&p, 0, 0), slow.instantiate(&p, 0, 1)]);
        // fast's first arrival (0.5 ns) precedes slow's (1 ns).
        match mux.poll() {
            MuxPoll::Ready { tenant, at } => {
                assert_eq!(tenant, 0);
                assert!((at.as_nanos() - 0.5).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
        let _ = mux.take(0);
        // Now both have an arrival at 1 ns: tie goes to tenant 0.
        match mux.poll() {
            MuxPoll::Ready { tenant, at } => {
                assert_eq!(tenant, 0);
                assert!((at.as_nanos() - 1.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    /// A source that counts its polls: ready at `next` until taken from,
    /// then blocked until a completion readies it at the finish time.
    struct Scripted {
        polls: Arc<AtomicU64>,
        next: SourcePoll,
    }

    impl RequestSource for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn poll(&mut self) -> SourcePoll {
            self.polls.fetch_add(1, Ordering::Relaxed);
            self.next
        }

        fn take(&mut self) -> Sourced {
            let SourcePoll::Ready(arrival) = self.next else {
                panic!("take() without a Ready poll")
            };
            self.next = SourcePoll::Blocked;
            Sourced {
                arrival,
                op: MemOp::Read,
                address: 0,
                size: ByteCount::new(64),
                payload: None,
            }
        }

        fn on_complete(&mut self, finished: Time) {
            self.next = SourcePoll::Ready(finished);
        }
    }

    #[test]
    fn mux_repolls_only_tenants_taken_from_or_completed() {
        let counters: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::default()).collect();
        let polls = || -> Vec<u64> { counters.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
        let ready = |tenant, ns| MuxPoll::Ready {
            tenant,
            at: Time::from_nanos(ns),
        };
        let mut mux = TenantMux::new(
            counters
                .iter()
                .zip([1.0, 2.0, 3.0])
                .map(|(c, ns)| {
                    Box::new(Scripted {
                        polls: c.clone(),
                        next: SourcePoll::Ready(Time::from_nanos(ns)),
                    }) as Box<dyn RequestSource>
                })
                .collect(),
        );
        assert_eq!(mux.poll(), ready(0, 1.0));
        assert_eq!(mux.poll(), ready(0, 1.0));
        assert_eq!(polls(), [1, 1, 1], "repeated polls hit the cache");
        let _ = mux.take(0);
        assert_eq!(mux.poll(), ready(1, 2.0));
        assert_eq!(polls(), [2, 1, 1], "only the taken tenant is polled again");
        mux.on_complete(2, Time::from_nanos(0.5));
        assert_eq!(mux.poll(), ready(2, 0.5));
        assert_eq!(
            polls(),
            [2, 1, 2],
            "only the completed tenant is polled again"
        );
    }

    #[test]
    fn tenants_with_equal_profiles_decorrelate() {
        let p = profile();
        let a = TenantSpec::open("a", ArrivalProcess::deterministic(1e9), 50);
        let b = TenantSpec::open("b", ArrivalProcess::deterministic(1e9), 50);
        let mut sa = a.instantiate(&p, 7, 0);
        let mut sb = b.instantiate(&p, 7, 1);
        let drain = |s: &mut Box<dyn RequestSource>| {
            (0..50)
                .map(|_| {
                    let _ = s.poll();
                    let r = s.take();
                    (r.address, r.op.is_read())
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(drain(&mut sa), drain(&mut sb));
    }
}
