//! Exact work counters of reduced `replay-sat` and `serve-mixed` runs.
//!
//! Wall-clock time on a shared host is noise; the work an engine asks of a
//! device is not. Each scenario below mirrors one benchmark workload at a
//! smaller request budget and runs it through [`CountingDevice`], which
//! counts every `bank_available` and `row_hit` probe and every access, and
//! serve's tenants through [`CountingSource`], which counts every poll,
//! take and completion notice. The counts are exact and deterministic. A
//! change to a device model that keeps its outputs must leave them alone;
//! a change to the scheduler or an engine that moves one updates the table
//! here and says why.
//!
//! The same scenarios pin the heap allocations of the run call itself,
//! counted by [`CountingAlloc`] on the running thread only (libtest runs
//! tests on parallel threads). Device builds stay outside the count: a
//! build's allocations depend on whether an earlier test already filled
//! the process-wide `ProgramTable` cache.

use comet_data::PayloadSpec;
use comet_serve::{
    run_service_with_sources, ArrivalProcess, BatchConfig, RequestSource, ServeSpec, SourcePoll,
    Sourced, TenantSpec,
};
use comet_units::{Energy, Power, Time};
use memsim::{
    run_simulation, spec_like_suite, AccessTiming, DecodedAddress, DeviceFactory, LineData, MemOp,
    MemoryDevice, ReplayMode, Scheduler, SimConfig, Topology, WorkloadProfile,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting the allocations (`alloc`, `alloc_zeroed`
/// and `realloc` calls) a thread makes while it has counting switched on.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with this thread's allocation counting set to `on`, restoring
/// the previous setting after.
fn with_counting<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let was = COUNTING.with(|c| c.replace(on));
    let out = f();
    COUNTING.with(|c| c.set(was));
    out
}

/// Runs `f`, returning its result and the heap allocations it made on
/// this thread.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = with_counting(true, f);
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Calls made on the devices a scenario built.
#[derive(Debug, Default)]
struct Counts {
    bank_available: AtomicU64,
    row_hit: AtomicU64,
    access: AtomicU64,
}

impl Counts {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `[bank_available, row_hit, access]`.
    fn snapshot(&self) -> [u64; 3] {
        [
            self.bank_available.load(Ordering::Relaxed),
            self.row_hit.load(Ordering::Relaxed),
            self.access.load(Ordering::Relaxed),
        ]
    }
}

/// Delegates every call to the wrapped device, counting probes and accesses.
struct CountingDevice {
    inner: Box<dyn MemoryDevice>,
    counts: Arc<Counts>,
}

impl MemoryDevice for CountingDevice {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn bank_available(&mut self, loc: &DecodedAddress, at: Time) -> Time {
        Counts::bump(&self.counts.bank_available);
        self.inner.bank_available(loc, at)
    }

    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        Counts::bump(&self.counts.access);
        self.inner.access(loc, op, issue)
    }

    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        Counts::bump(&self.counts.access);
        self.inner.access_line(loc, op, issue, data)
    }

    fn reads_payloads(&self) -> bool {
        self.inner.reads_payloads()
    }

    fn row_hit(&self, loc: &DecodedAddress) -> bool {
        Counts::bump(&self.counts.row_hit);
        self.inner.row_hit(loc)
    }

    fn drain_accumulated_energy(&mut self) -> Energy {
        self.inner.drain_accumulated_energy()
    }

    fn background_power(&self) -> Power {
        self.inner.background_power()
    }

    fn interface_delay(&self) -> Time {
        self.inner.interface_delay()
    }
}

/// Builds the registered device `name`, wrapped to count into `counts`.
struct CountingFactory {
    inner: Box<dyn DeviceFactory>,
    counts: Arc<Counts>,
}

impl CountingFactory {
    fn new(name: &str) -> Self {
        CountingFactory {
            inner: comet_lab::device_by_name(name).expect("the registry has the device"),
            counts: Arc::default(),
        }
    }
}

impl DeviceFactory for CountingFactory {
    fn device_name(&self) -> String {
        self.inner.device_name()
    }

    /// Builds uncounted by [`CountingAlloc`], even inside a counted run.
    fn build(&self) -> Box<dyn MemoryDevice> {
        with_counting(false, || {
            Box::new(CountingDevice {
                inner: self.inner.build(),
                counts: self.counts.clone(),
            }) as Box<dyn MemoryDevice>
        })
    }

    fn device_topology(&self) -> Topology {
        self.inner.device_topology()
    }
}

/// Calls made on one tenant's source: `[poll, take, on_complete]`.
type SourceCounts = [AtomicU64; 3];

/// A snapshot of [`SourceCounts`].
type TenantCalls = [u64; 3];

/// Delegates every call to the wrapped source, counting each kind.
struct CountingSource {
    inner: Box<dyn RequestSource>,
    counts: Arc<SourceCounts>,
}

impl RequestSource for CountingSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self) -> SourcePoll {
        Counts::bump(&self.counts[0]);
        self.inner.poll()
    }

    fn take(&mut self) -> Sourced {
        Counts::bump(&self.counts[1]);
        self.inner.take()
    }

    fn on_complete(&mut self, finished: Time) {
        Counts::bump(&self.counts[2]);
        self.inner.on_complete(finished);
    }

    fn skip_payloads(&mut self) {
        self.inner.skip_payloads();
    }
}

const SEED: u64 = 1;

/// `profile` with a 64 B-line budget of `requests`, resized to `line`
/// bytes per request: rounded, at least one (the equal-bytes rule).
fn profile(name: &str, requests: usize, line: u64) -> WorkloadProfile {
    let mut p = spec_like_suite(requests)
        .into_iter()
        .find(|p| p.name == name)
        .expect("the SPEC-like suite has the profile");
    p.requests = ((requests as u64 * 64 + line / 2) / line).max(1) as usize;
    p.line_bytes = line;
    p
}

/// `replay-sat` at 3000 requests per profile: saturation FR-FCFS(8) over
/// a random and a streaming profile, no payloads. Per cell: the device's
/// `[bank_available, row_hit, access]`, then the heap allocations of the
/// same cell at 12000 requests, which must not move at 24000.
///
/// A replay run allocates its fixed structures, a queue for each bank its
/// trace reaches and a latency histogram that grows by octaves of the
/// latency range; nothing per request. Shorter runs allocate a little
/// less on some cells: at 3000 and 6000 requests the streaming profile
/// has reached only 24 and 48 of 3D_DDR4's 64 banks (47 and 71
/// allocations), and EPCM-MM's histogram has grown its storage one time
/// fewer (27).
///
/// The probe counts fell when each bank's FR-FCFS choice stopped probing
/// window entries that cannot win: an entry never issues before its
/// floor, `max(bank free, entry ready)`, so one whose floor is past the
/// best time so far is skipped, and one whose floor ties it is asked
/// `row_hit` first and `bank_available` only as a hit. Saturation gives
/// every entry the same floor, so most of the window is settled by its
/// row-buffer state alone. `bank_available` per access went from 7.4–7.9
/// (the whole window) to 1.00–1.04 on every cell but COMET/libquantum,
/// where it is 2.0: a streaming trace keeps row hits on subarrays that
/// are still busy, and each such hit needs its availability
/// probed to lose (11888 → 3003). `row_hit` moved only on COMET (11879
/// → 11886 and 9625 → 9898: it was probed for every contender before as
/// well), so probes per request went from 15.7 to 8.9 on
/// 2D_DDR4/mcf-like and from 15.8 to 8.9 on EPCM-MM. The full-scan
/// counts were `[23552, 23537]`, `[23552, 3175]`, `[22208, 22172]`, `[23300, 3175]`, `[23776, 23776]`
/// twice, `[11888, 11879]` and `[11888, 9625]`, in table order.
const REPLAY: [(&str, &str, [u64; 3], u64); 8] = [
    ("2D_DDR4", "mcf-like", [3114, 23537, 3000], 36),
    ("2D_DDR4", "libquantum-like", [3049, 3175, 3000], 36),
    ("3D_DDR4", "mcf-like", [3007, 22172, 3000], 87),
    ("3D_DDR4", "libquantum-like", [3000, 3175, 3000], 87),
    ("EPCM-MM", "mcf-like", [3000, 23776, 3000], 28),
    ("EPCM-MM", "libquantum-like", [3000, 23776, 3000], 28),
    ("COMET", "mcf-like", [1535, 11886, 1500], 20),
    ("COMET", "libquantum-like", [3003, 9898, 1500], 20),
];

/// `serve-mixed` at 2000 requests per tenant: a Poisson open-loop tenant
/// with sparse-update payloads beside an 8-client closed loop with uniform
/// payloads, write batching on. Per device: the device's
/// `[bank_available, row_hit, access]`, each tenant's
/// `[poll, take, on_complete]`, then the run's heap allocations (on EPCM
/// boxed payloads, the payload histories and line-store chunks).
///
/// COMET ignores payloads (`MemoryDevice::reads_payloads` is `false`), so
/// its tenants generate none: its allocations fell from 798 to 424, the
/// count of a payload-less run
/// ([`comet_serve_allocates_nothing_for_payloads`]). EPCM-DCW-FNW's went
/// from 1644 to 1652: the payload histories keep their lines in a slab
/// that grows by doubling beside a map of slot indices, where one map
/// held the lines before. Both then fell by 2 (to 422 and 1650) when the
/// core stopped building a `Vec` of devices and a `Vec` of their borrows
/// for its one device. Both fell again (to 416 and 1646) when the core
/// began recording each request at issue: no slab of in-flight records
/// grows any more, and each tenant's `SimStats` adds one device label.
/// They fell once more (to 412 and 1643) when the core began telling each
/// source its request's finish time at issue: the heap of completion
/// events it no longer keeps grew by doubling.
///
/// The mux caches each tenant's poll until that tenant is taken from or
/// completes, so a tenant is polled once at the start and at most once
/// after each take from it and each finish time routed to it. Before that
/// it was polled on every service event: the poll counts were 6358 and
/// 6358 on COMET, 12518 and 12518 on EPCM-DCW-FNW. The core routes every
/// finish time of one access (the host request's and each absorbed
/// write's) in the same step, when the access issues, so a coalesced
/// access costs each of its tenants one re-poll. While each request had a
/// completion event of its own, the open-loop tenant was polled once more
/// between two same-tenant requests of one coalesced access (2001 on
/// COMET, 4001 on EPCM-DCW-FNW, now 2000 and 4000); polls are pure, so
/// nothing else moved.
///
/// The pruned FR-FCFS choice (see [`REPLAY`]) cut `bank_available` from
/// 16165 to 5660 on EPCM-DCW-FNW, whose held writes share release times,
/// and from 2041 to 2030 on COMET, whose windows rarely hold more than
/// one entry; `row_hit` and every other count stayed.
const SERVE: [(&str, [u64; 3], [TenantCalls; 2], u64); 2] = [
    (
        "COMET",
        [2030, 2041, 1999],
        [[2000, 1000, 1000], [2001, 1000, 1000]],
        412,
    ),
    (
        "EPCM-DCW-FNW",
        [5660, 16165, 3999],
        [[4000, 2000, 2000], [4001, 2000, 2000]],
        1643,
    ),
];

/// One `replay-sat` cell at `requests` per 64 B line: the device's work
/// counts and the run's heap allocations.
fn replay_sat(device: &str, workload: &str, requests: usize) -> ([u64; 3], u64) {
    let factory = CountingFactory::new(device);
    let mut dev = factory.build();
    let p = profile(workload, requests, dev.topology().line_bytes);
    let trace = p.generate(SEED);
    let config = SimConfig {
        scheduler: Scheduler::FrFcfs { window: 8 },
        replay: ReplayMode::Saturation,
        workload: p.name.clone(),
    };
    let (stats, allocations) = count_allocations(|| run_simulation(dev.as_mut(), &trace, &config));
    assert_eq!(stats.completed, trace.len() as u64, "{device}/{workload}");
    (factory.counts.snapshot(), allocations)
}

#[test]
fn replay_sat_work_counts_are_pinned() {
    let mut measured = Vec::new();
    for (device, workload, _, _) in REPLAY {
        let (counts, _) = replay_sat(device, workload, 3000);
        let (_, allocations) = replay_sat(device, workload, 12000);
        let (_, doubled) = replay_sat(device, workload, 24000);
        assert_eq!(
            doubled, allocations,
            "{device}/{workload} allocates per request"
        );
        measured.push((device, workload, counts, allocations));
    }
    let expected: Vec<_> = REPLAY.to_vec();
    assert_eq!(
        measured, expected,
        "[bank_available, row_hit, access], then allocations"
    );
    // A full window scan asks 7.4–7.9 `bank_available` per access; the
    // pruned choice asks about one, two where busy row hits must lose.
    let (mut probes, mut accesses) = (0, 0);
    for (device, workload, [available, _, access], _) in measured {
        assert!(
            available * 100 <= access * 205,
            "{device}/{workload}: {available} bank_available probes for {access} accesses"
        );
        (probes, accesses) = (probes + available, accesses + access);
    }
    assert!(
        probes * 10 <= accesses * 11,
        "{probes} bank_available probes for {accesses} accesses over the saturation cells"
    );
}

/// One `serve-mixed` run on `device`, its tenants' stores carrying
/// payloads or not: the device's work counts, each tenant's calls and the
/// run's heap allocations.
fn serve_mixed(device: &str, payloads: bool) -> ([u64; 3], [TenantCalls; 2], u64) {
    let factory = CountingFactory::new(device);
    let line = factory.device_topology().line_bytes;
    let open = profile("gcc-like", 2000, line);
    let closed = profile("mcf-like", 2000, line);
    let mut spec = ServeSpec {
        tenants: vec![
            TenantSpec::open(
                "poisson-sparse",
                ArrivalProcess::poisson(20.0e6),
                open.requests,
            )
            .with_profile(open),
            TenantSpec::closed(
                "closed8-uniform",
                8,
                Time::from_nanos(25.0),
                closed.requests,
            )
            .with_profile(closed.clone()),
        ],
        scheduler: Scheduler::FrFcfs { window: 8 },
        shards: 1,
        batch: Some(BatchConfig::new(Time::from_nanos(100.0), 8)),
    };
    if payloads {
        spec.tenants[0].payload = Some(PayloadSpec::SparseUpdate {
            flip_fraction: 0.05,
        });
        spec.tenants[1].payload = Some(PayloadSpec::Uniform);
    }
    // The sources `run_service` would build, each wrapped to count.
    let counts: Vec<Arc<SourceCounts>> = spec.tenants.iter().map(|_| Arc::default()).collect();
    let sources = spec
        .tenants
        .iter()
        .zip(&counts)
        .enumerate()
        .map(|(i, (t, counts))| {
            Box::new(CountingSource {
                inner: t.instantiate(&closed, SEED, i),
                counts: counts.clone(),
            }) as Box<dyn RequestSource>
        })
        .collect();
    let (report, allocations) =
        count_allocations(|| run_service_with_sources(&factory, sources, &spec, "serve-mixed"));
    assert_eq!(
        report.stats.completed,
        spec.total_requests() as u64,
        "{device}"
    );
    let calls =
        |c: &SourceCounts| -> TenantCalls { std::array::from_fn(|i| c[i].load(Ordering::Relaxed)) };
    let tenants = [calls(&counts[0]), calls(&counts[1])];
    (factory.counts.snapshot(), tenants, allocations)
}

#[test]
fn serve_mixed_work_counts_are_pinned() {
    let measured: Vec<_> = SERVE
        .iter()
        .map(|&(device, _, _, _)| {
            let (counts, tenants, allocations) = serve_mixed(device, true);
            (device, counts, tenants, allocations)
        })
        .collect();
    assert_eq!(
        measured,
        SERVE.to_vec(),
        "[bank_available, row_hit, access], per tenant [poll, take, on_complete], \
         then allocations"
    );
}

#[test]
fn comet_serve_allocates_nothing_for_payloads() {
    // COMET ignores payloads, so its tenants generate none: the run is the
    // payload-less run, allocation for allocation.
    assert_eq!(serve_mixed("COMET", true), serve_mixed("COMET", false));
}
