//! Property-based tests for the traffic subsystem.
//!
//! Invariants: arrival processes are deterministic per seed and monotone
//! in time; a tenant source answers repeated polls alike until its next
//! take or finish time, and skipping payloads changes nothing else it
//! emits; the multi-tenant mux preserves per-tenant ordering;
//! per-channel and per-tenant stats decompose the aggregate exactly, with
//! and without payloads; closed loops bound in-flight depth by their client
//! count; the batch stage never loses requests; a single tenant's tail
//! percentiles are the cell's.

use comet_data::{DataPolicy, DataWriteModel, PayloadSpec};
use comet_serve::{
    run_service, run_service_with_sources, ArrivalProcess, BatchConfig, MuxPoll, RequestSource,
    ServeReport, ServeSpec, SourcePoll, Sourced, TenantLoad, TenantMux, TenantSpec,
};
use comet_units::{ByteCount, Time};
use memsim::{
    AccessPattern, DramConfig, EpcmConfig, EpcmDevice, FnFactory, LatencyHistogram, SimStats,
    StreamShape, WorkloadProfile,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn any_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (6.0f64..10.0).prop_map(|e| ArrivalProcess::deterministic(10f64.powf(e))),
        (6.0f64..10.0).prop_map(|e| ArrivalProcess::poisson(10f64.powf(e))),
        // Burst windows hold at least a few inter-arrival gaps, where the
        // mean-rate formula is meaningful (shorter bursts still emit one
        // arrival each, overshooting rate·on/(on+off) by quantization).
        ((7.0f64..10.0), (5.0f64..100.0), (0.0f64..200.0)).prop_map(|(e, gaps, off)| {
            let rate = 10f64.powf(e);
            ArrivalProcess::bursty(rate, Time::from_seconds(gaps / rate), Time::from_nanos(off))
        }),
    ]
}

/// Every load a tenant can offer: each open-loop process, or a closed loop
/// of 1..=8 clients.
fn any_load() -> impl Strategy<Value = TenantLoad> {
    prop_oneof![
        any_process().prop_map(TenantLoad::Open),
        (1usize..=8, 0.0f64..100.0).prop_map(|(clients, think)| TenantLoad::Closed {
            clients,
            think: Time::from_nanos(think),
        }),
    ]
}

fn any_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        Just(AccessPattern::Stream),
        Just(AccessPattern::Random),
        (64u64..8192).prop_map(|stride| AccessPattern::Strided { stride }),
        (0.0f64..1.0).prop_map(|locality| AccessPattern::Clustered { locality }),
    ]
}

fn profile(name: &str, read_fraction: f64, pattern: AccessPattern) -> WorkloadProfile {
    WorkloadProfile {
        name: name.into(),
        read_fraction,
        footprint: ByteCount::from_mib(4),
        pattern,
        interarrival: Time::from_nanos(1.0),
        requests: 0,
        line_bytes: 64,
    }
}

/// Each nonzero bucket of `h` as `lower bound in ps -> count`: a bucket
/// is 1 ps wide below 256 ps, and 2^-7 of its power of two above.
fn buckets(h: &LatencyHistogram) -> BTreeMap<u64, u64> {
    let mut floor = h.first_ps();
    let mut out = BTreeMap::new();
    for &count in h.counts() {
        if count > 0 {
            out.insert(floor, count);
        }
        floor += if floor < 256 {
            1
        } else {
            1 << (63 - floor.leading_zeros() - 7)
        };
    }
    out
}

/// Per-channel completions and bytes sum to the aggregate, and the
/// tenants partition it exactly: completions, reads, writes and bytes
/// sum to the aggregate's, the largest tenant latency is its maximum, and
/// the tenant histograms add up bucket by bucket to its histogram.
fn prop_assert_sums(report: &ServeReport) -> Result<(), TestCaseError> {
    let s = &report.stats;
    prop_assert_eq!(report.channel_total(), s.completed);
    let bytes: u64 = report.channels.iter().map(|c| c.bytes.value()).sum();
    prop_assert_eq!(bytes, s.bytes.value());
    let tenants = &report.tenants;
    let sum = |f: fn(&SimStats) -> u64| tenants.iter().map(f).sum::<u64>();
    prop_assert_eq!(sum(|t| t.completed), s.completed);
    prop_assert_eq!(sum(|t| t.reads), s.reads);
    prop_assert_eq!(sum(|t| t.writes), s.writes);
    prop_assert_eq!(sum(|t| t.bytes.value()), s.bytes.value());
    let max = tenants
        .iter()
        .map(|t| t.max_latency)
        .fold(Time::ZERO, Time::max);
    prop_assert_eq!(max, s.max_latency);
    let mut merged = BTreeMap::new();
    for t in tenants {
        for (floor, count) in buckets(&t.histogram) {
            *merged.entry(floor).or_insert(0) += count;
        }
    }
    prop_assert_eq!(merged, buckets(&s.histogram));
    Ok(())
}

/// Wraps a tenant's source, logging each arrival it hands out (`+1`, at
/// `take`) and each finish time it is told (`-1`, at `on_complete`).
struct Logged {
    inner: Box<dyn RequestSource>,
    log: Arc<Mutex<Vec<(Time, i8)>>>,
}

impl RequestSource for Logged {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self) -> SourcePoll {
        self.inner.poll()
    }

    fn take(&mut self) -> Sourced {
        let s = self.inner.take();
        self.log.lock().unwrap().push((s.arrival, 1));
        s
    }

    fn on_complete(&mut self, finished: Time) {
        self.log.lock().unwrap().push((finished, -1));
        self.inner.on_complete(finished);
    }
}

proptest! {
    // --- arrival processes ---------------------------------------------------

    #[test]
    fn arrivals_are_deterministic_per_seed_and_monotone(
        process in any_process(),
        seed in any::<u64>(),
    ) {
        let mut a = process.clock(seed);
        let mut b = process.clock(seed);
        let mut last = Time::ZERO;
        for _ in 0..200 {
            let ta = a.next_arrival();
            prop_assert_eq!(ta, b.next_arrival(), "same seed, same stream");
            prop_assert!(ta >= last, "arrivals must be non-decreasing");
            last = ta;
        }
        // A different seed changes stochastic streams but never breaks
        // monotonicity.
        let mut c = process.clock(seed.wrapping_add(1));
        let mut last = Time::ZERO;
        for _ in 0..200 {
            let t = c.next_arrival();
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn mean_rate_is_respected(process in any_process(), seed in any::<u64>()) {
        let mut clock = process.clock(seed);
        let n = 4000usize;
        let mut end = Time::ZERO;
        for _ in 0..n {
            end = clock.next_arrival();
        }
        let achieved = n as f64 / end.as_seconds();
        let expect = process.mean_rate_rps();
        // Bursty edge effects and Poisson variance stay well within 2x.
        prop_assert!(achieved > expect * 0.5 && achieved < expect * 2.0,
            "achieved {achieved} vs mean {expect}");
    }

    // --- tenant sources -------------------------------------------------------

    #[test]
    fn polls_repeat_until_the_next_take_or_finish(
        load in any_load(),
        payload_index in 0usize..5,
        seed in any::<u64>(),
        steps in proptest::collection::vec((any::<bool>(), 1usize..4, 0.0f64..500.0, any::<usize>()), 1..200),
    ) {
        // Two sources of one tenant, one told to skip its payloads, driven
        // through the same random takes and finish times.
        let spec = TenantSpec {
            name: "poll-prop".into(),
            profile: None,
            load,
            requests: 60,
            payload: Some(PayloadSpec::entropy_sweep()[payload_index]),
        };
        let p = profile("poll-prop", 0.5, AccessPattern::Random);
        let mut full = spec.instantiate(&p, seed, 0);
        let mut bare = spec.instantiate(&p, seed, 0);
        bare.skip_payloads();
        let mut in_flight: Vec<Time> = Vec::new();
        for (take, repeats, latency_ns, pick) in steps {
            let answer = full.poll();
            for _ in 0..repeats {
                prop_assert_eq!(full.poll(), answer, "a repeated poll changed its answer");
            }
            prop_assert_eq!(bare.poll(), answer, "skipping payloads moved an arrival");
            match answer {
                SourcePoll::Ready(at) if take || in_flight.is_empty() => {
                    let (a, b) = (full.take(), bare.take());
                    prop_assert_eq!(a.arrival, at);
                    prop_assert_eq!((a.arrival, a.op, a.address, a.size), (b.arrival, b.op, b.address, b.size));
                    prop_assert_eq!(a.payload.is_some(), !a.op.is_read(), "only stores carry a line");
                    prop_assert!(b.payload.is_none(), "a skipped payload was generated");
                    in_flight.push(at + Time::from_nanos(latency_ns));
                }
                _ if !in_flight.is_empty() => {
                    let finished = in_flight.swap_remove(pick % in_flight.len());
                    full.on_complete(finished);
                    bare.on_complete(finished);
                }
                SourcePoll::Exhausted => break,
                other => prop_assert!(false, "{:?} with nothing in flight", other),
            }
        }
    }

    // --- the multi-tenant mux ------------------------------------------------

    #[test]
    fn mux_preserves_per_tenant_ordering(
        rates in proptest::collection::vec(6.5f64..9.5, 2..4),
        seed in any::<u64>(),
    ) {
        // Standalone per-tenant arrival sequences...
        let specs: Vec<TenantSpec> = rates
            .iter()
            .enumerate()
            .map(|(i, &e)| TenantSpec::open(
                format!("t{i}"),
                ArrivalProcess::deterministic(10f64.powf(e)),
                40,
            ))
            .collect();
        let fallback = profile("mux-prop", 0.8, AccessPattern::Random);
        let standalone: Vec<Vec<(Time, u64)>> = specs
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut src = t.instantiate(&fallback, seed, i);
                (0..40)
                    .map(|_| {
                        prop_assert!(matches!(src.poll(), SourcePoll::Ready(_)));
                        let s = src.take();
                        Ok((s.arrival, s.address))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;

        // ...must reappear, in order, in the mux's interleaving.
        let mut mux = TenantMux::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, t)| t.instantiate(&fallback, seed, i))
                .collect(),
        );
        let mut seen: Vec<Vec<(Time, u64)>> = vec![Vec::new(); specs.len()];
        let mut last = Time::ZERO;
        loop {
            match mux.poll() {
                MuxPoll::Ready { tenant, at } => {
                    prop_assert!(at >= last, "mux emits in global time order");
                    last = at;
                    let s = mux.take(tenant);
                    seen[tenant].push((s.arrival, s.address));
                }
                MuxPoll::Exhausted => break,
                MuxPoll::Blocked => prop_assert!(false, "open-loop mux never blocks"),
            }
        }
        prop_assert_eq!(seen, standalone, "per-tenant streams survive muxing");
    }

    // --- channel and tenant accounting ---------------------------------------

    #[test]
    fn channel_and_tenant_sums_equal_the_aggregate(
        pattern in any_pattern(),
        read_fraction in 0.0f64..=1.0,
        clients in 1usize..=8,
    ) {
        let mut cfg = DramConfig::ddr3_1600_2d();
        cfg.name = "DDR3-4ch".into();
        cfg.topology.channels = 4;
        let p = profile("sums-prop", read_fraction, pattern);
        let spec = ServeSpec::closed_loop(clients, Time::from_nanos(5.0), 160).with_tenant(
            TenantSpec::open("open", ArrivalProcess::poisson(1.0e8), 60),
        );
        let report = run_service(&cfg, &spec, &p, 97, "sums-prop");
        prop_assert_eq!(report.stats.completed, 220);
        prop_assert_eq!(report.channels.len(), 4);
        prop_assert_sums(&report)?;
    }

    #[test]
    fn payload_enabled_channel_and_tenant_sums_equal_the_aggregate(
        payload_index in 0usize..5,
        read_fraction in 0.0f64..=0.9,
    ) {
        // A 4-channel content-aware EPCM: every store is priced from its
        // payload against the channel's line store.
        let payload = PayloadSpec::entropy_sweep()[payload_index];
        let factory = FnFactory::new("EPCM-4ch-DCW", || {
            let mut cfg = EpcmConfig::epcm_mm();
            cfg.name = "EPCM-4ch-DCW".into();
            cfg.topology.channels = 4;
            Box::new(EpcmDevice::with_pricer(
                cfg,
                Box::new(DataWriteModel::gst(4, DataPolicy::Dcw)),
            ))
        });
        let mut p = profile("payload-prop", read_fraction, AccessPattern::Random);
        p.footprint = ByteCount::new(64 * 64); // revisit lines fast
        let mut spec = ServeSpec::open_loop(ArrivalProcess::poisson(2.0e8), 200);
        spec.tenants[0] = spec.tenants[0].clone().with_payload(payload);
        let report = run_service(&factory, &spec, &p, 31, "payload-prop");
        prop_assert_eq!(report.stats.completed, 200);
        prop_assert_sums(&report)?;
        prop_assert!(report.stats.energy.access > comet_units::Energy::ZERO);
    }

    // --- closed loops and batching -------------------------------------------

    #[test]
    fn closed_loop_depth_is_bounded_by_clients(
        clients in 1usize..=16,
        think_ns in 0.0f64..100.0,
    ) {
        // The depth is measured from outside the core: the source's own
        // log of arrivals and finish times.
        let p = profile("depth-prop", 0.7, AccessPattern::Random);
        let think = Time::from_nanos(think_ns);
        let spec = ServeSpec::closed_loop(clients, think, 200);
        let log = Arc::new(Mutex::new(Vec::new()));
        let source = Box::new(Logged {
            inner: spec.tenants[0].instantiate(&p, 5, 0),
            log: log.clone(),
        });
        let report =
            run_service_with_sources(&EpcmConfig::epcm_mm(), vec![source], &spec, "depth");
        prop_assert_eq!(report.stats.completed, 200);
        let mut events = log.lock().unwrap().clone();
        // By time, a finish before an arrival at the same instant.
        events.sort_by(|a, b| a.0.as_seconds().total_cmp(&b.0.as_seconds()).then(a.1.cmp(&b.1)));
        let mut depth = 0i64;
        for &(at, step) in &events {
            depth += i64::from(step);
            prop_assert!(depth <= clients as i64,
                "{depth} in flight at {at} exceeds {clients} clients");
        }
        prop_assert_eq!(depth, 0, "every arrival finishes");
        // The schedule itself: the arrivals are the 200 earliest of the
        // clients' starts at zero and each finish plus the think time.
        let times = |step| events.iter().filter(move |e| e.1 == step).map(|e| e.0);
        let mut due: Vec<Time> = std::iter::repeat(Time::ZERO)
            .take(clients)
            .chain(times(-1).map(|finished| finished + think))
            .collect();
        due.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
        due.truncate(200);
        prop_assert_eq!(times(1).collect::<Vec<_>>(), due, "closed-loop arrivals");
        // The finish times told are the ones recorded: together they span
        // the tenant's summed latency.
        let sum = |step| times(step).map(Time::as_seconds).sum::<f64>();
        let latency = report.tenants[0].total_latency.as_seconds();
        prop_assert!((sum(-1) - sum(1) - latency).abs() <= 1e-9 * latency,
            "told finishes span {} s, recorded latency {latency} s", sum(-1) - sum(1));
    }

    #[test]
    fn batching_conserves_requests_for_any_window(
        window_ns in 1.0f64..5000.0,
        max_writes in 1usize..=32,
        read_fraction in 0.0f64..=1.0,
        footprint_lines in 1u64..256,
    ) {
        let mut p = profile("batch-prop", read_fraction, AccessPattern::Random);
        p.footprint = ByteCount::new(footprint_lines * 64);
        let spec = ServeSpec::open_loop(ArrivalProcess::poisson(2.0e8), 300)
            .with_batch(BatchConfig::new(Time::from_nanos(window_ns), max_writes));
        let report = run_service(&EpcmConfig::epcm_mm(), &spec, &p, 13, "batch");
        // Conservation: every admitted request completes exactly once,
        // whether issued, batched or coalesced.
        prop_assert_eq!(report.stats.completed, 300);
        prop_assert_eq!(report.stats.reads + report.stats.writes, 300);
        prop_assert_eq!(report.channel_total(), 300);
        prop_assert!(report.coalesced_writes <= report.stats.writes);
    }

    // --- tail accounting -----------------------------------------------------

    #[test]
    fn a_single_tenant_reports_the_cells_percentiles(
        process in any_process(),
        closed in any::<bool>(),
        batch in any::<bool>(),
        dram in any::<bool>(),
        read_fraction in 0.0f64..=1.0,
    ) {
        // Tenant and cell histograms see the same completions, absorbed
        // (coalesced) writes included, so they hold the same distribution.
        let p = profile("tail-prop", read_fraction, AccessPattern::Random);
        let mut spec = if closed {
            ServeSpec::closed_loop(4, Time::from_nanos(20.0), 300)
        } else {
            ServeSpec::open_loop(process, 300)
        };
        if batch {
            spec = spec.with_batch(BatchConfig::new(Time::from_nanos(500.0), 8));
        }
        let report = if dram {
            run_service(&DramConfig::ddr3_1600_2d(), &spec, &p, 3, "tail")
        } else {
            run_service(&EpcmConfig::epcm_mm(), &spec, &p, 3, "tail")
        };
        let (s, t) = (&report.stats, &report.tenants[0]);
        prop_assert_eq!(&t.histogram, &s.histogram);
        prop_assert_eq!(t.total_latency, s.total_latency);
        prop_assert_eq!(
            (t.p50_latency, t.p95_latency, t.p99_latency),
            (s.p50_latency, s.p95_latency, s.p99_latency)
        );
        prop_assert!(s.p50_latency <= s.p95_latency && s.p95_latency <= s.p99_latency);
        prop_assert!(s.p99_latency <= s.max_latency && t.max_latency == s.max_latency);
    }

    // --- shapes --------------------------------------------------------------

    #[test]
    fn stream_shapes_stay_in_footprint(
        pattern in any_pattern(),
        seed in any::<u64>(),
    ) {
        let p = profile("shape-prop", 0.6, pattern);
        let mut shape = StreamShape::from_profile(&p, seed);
        let mut replay = StreamShape::from_profile(&p, seed);
        for _ in 0..300 {
            let (op, addr, size) = shape.next_access();
            prop_assert_eq!((op, addr, size), replay.next_access(), "deterministic");
            prop_assert!(addr < p.footprint.value());
            prop_assert_eq!(addr % 64, 0);
        }
    }
}
