//! Property-based tests for the memory simulator substrate.
//!
//! Invariants: address maps are bijective over their capacity for every
//! interleaving, the engine conserves requests and bytes for arbitrary
//! traces on every device model, synthetic trace generation respects its
//! profile parameters for any seed, device probes change nothing, and the
//! cached per-bank scheduler picks exactly what a full rescan picks.
//!
//! Two references pin refactors of the hot paths bit for bit: the trace
//! generator loop and the replay engine loop as they were written before
//! `StreamShape` and `Controller` were shared with the service engine. A
//! third, the exact nearest-rank percentile of the sorted samples, pins
//! the latency histogram's percentile rule: the lower bound of the bucket
//! holding that sample.

use comet_units::{ByteCount, Time};
use memsim::{
    hash_name, read_trace, run_simulation, write_trace, AccessPattern, AddressMap, BankQueues,
    CompletedRequest, DecodedAddress, DramConfig, DramDevice, EpcmConfig, EpcmDevice, Interleave,
    LatencyHistogram, MemOp, MemRequest, MemoryDevice, Pending, ReplayMode, Scheduler, SimConfig,
    SimStats, Topology, TraceClock, WorkloadProfile,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

fn any_interleave() -> impl Strategy<Value = Interleave> {
    prop_oneof![
        Just(Interleave::RowBankColumnChannel),
        Just(Interleave::RowBankColumnChannelXor),
    ]
}

/// Power-of-two dimension strategy.
fn pow2(max_log2: u32) -> impl Strategy<Value = u64> {
    (0..=max_log2).prop_map(|e| 1u64 << e)
}

fn any_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        Just(AccessPattern::Stream),
        (64u64..16384).prop_map(|stride| AccessPattern::Strided { stride }),
        Just(AccessPattern::Random),
        (0.0..1.0f64).prop_map(|locality| AccessPattern::Clustered { locality }),
    ]
}

/// The device families the engines drive: 2D DDR4, EPCM-MM, COMET (with
/// the static and the windowed laser policy) and corrected COSMOS.
fn device_family(which: u8) -> Box<dyn MemoryDevice> {
    match which {
        0 => Box::new(DramDevice::new(DramConfig::ddr4_2400_2d())),
        1 => Box::new(EpcmDevice::new(EpcmConfig::epcm_mm())),
        2 => Box::new(comet::CometDevice::new(comet::CometConfig::comet_4b())),
        3 => Box::new(comet::CometDevice::with_policy(
            comet::CometConfig::comet_4b(),
            comet::LaserPolicy::Windowed(comet::WindowedPolicy::aggressive()),
        )),
        _ => Box::new(cosmos::CosmosDevice::new(cosmos::CosmosConfig::corrected())),
    }
}

/// SplitMix64: structured random inputs drawn from one generated seed.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A whole-nanosecond time below `ns`, so equal times (ties) occur.
    fn time(&mut self, ns: u64) -> Time {
        Time::from_nanos(self.below(ns) as f64)
    }
}

/// A queued request for the scheduler properties.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    id: u64,
    loc: DecodedAddress,
    ready: Time,
    op: MemOp,
}

impl Pending for Entry {
    fn loc(&self) -> &DecodedAddress {
        &self.loc
    }

    fn ready(&self) -> Time {
        self.ready
    }
}

/// A random request to one of `hot` banks spread over the topology, on a
/// few rows (so row hits and ties on shared rows occur).
fn random_entry(rng: &mut SplitMix, id: u64, topo: Topology, hot: u64) -> Entry {
    let flat = rng.below(hot) * (topo.total_banks() / hot);
    let shift = rng.below(12);
    Entry {
        id,
        loc: DecodedAddress {
            channel: flat / topo.banks,
            bank: flat % topo.banks,
            row: (rng.below(8) << shift) % topo.rows,
            column: rng.below(topo.columns.min(4)),
        },
        ready: if rng.below(3) == 0 {
            Time::ZERO
        } else {
            rng.time(40_000)
        },
        op: if rng.below(3) == 0 {
            MemOp::Write
        } else {
            MemOp::Read
        },
    }
}

/// The scan the engines ran before caching per-bank choices: every bank's
/// FCFS head or FR-FCFS window probed afresh, row hits winning ties within
/// a bank and the lowest bank winning ties across banks. Returns
/// `(issue time, bank, queue position)`.
fn brute_force_scan(
    queues: &[VecDeque<Entry>],
    free: &[Time],
    device: &mut dyn MemoryDevice,
    scheduler: Scheduler,
) -> Option<(Time, usize, usize)> {
    let mut best: Option<(Time, usize, usize)> = None;
    for (b, queue) in queues.iter().enumerate() {
        if queue.is_empty() {
            continue;
        }
        let (pos, ready) = match scheduler {
            Scheduler::Fcfs => (
                0,
                device.bank_available(&queue[0].loc, free[b].max(queue[0].ready)),
            ),
            Scheduler::FrFcfs { window } => {
                let mut chosen = (0usize, Time::from_seconds(f64::INFINITY), false);
                for (p, e) in queue.iter().take(window).enumerate() {
                    let ready = device.bank_available(&e.loc, free[b].max(e.ready));
                    let hit = device.row_hit(&e.loc);
                    if ready < chosen.1 || (ready == chosen.1 && hit && !chosen.2) {
                        chosen = (p, ready, hit);
                    }
                }
                (chosen.0, chosen.1)
            }
        };
        match best {
            Some((t, _, _)) if ready >= t => {}
            _ => best = Some((ready, b, pos)),
        }
    }
    best
}

/// `WorkloadProfile::generate` as written before it drew its accesses
/// from `StreamShape`: address and op first, then the arrival jitter, all
/// from one RNG.
fn reference_generate(p: &WorkloadProfile, seed: u64) -> Vec<MemRequest> {
    let lines = p.footprint.value() / p.line_bytes;
    let mut rng = StdRng::seed_from_u64(seed ^ hash_name(&p.name));
    let mut out = Vec::with_capacity(p.requests);
    let mut now = 0.0f64;
    let mut cursor: u64 = rng.gen_range(0..lines);
    let row_lines = (8192 / p.line_bytes).max(1);
    for i in 0..p.requests {
        let line = match p.pattern {
            AccessPattern::Stream => {
                cursor = (cursor + 1) % lines;
                cursor
            }
            AccessPattern::Strided { stride } => {
                cursor = (cursor + stride / p.line_bytes) % lines;
                cursor
            }
            AccessPattern::Random => rng.gen_range(0..lines),
            AccessPattern::Clustered { locality } => {
                if rng.gen_bool(locality.clamp(0.0, 1.0)) {
                    let row_base = cursor / row_lines * row_lines;
                    row_base + rng.gen_range(0..row_lines.min(lines))
                } else {
                    cursor = rng.gen_range(0..lines);
                    cursor
                }
            }
        };
        let op = if rng.gen_bool(p.read_fraction) {
            MemOp::Read
        } else {
            MemOp::Write
        };
        let jitter = rng.gen_range(0.0..2.0);
        now += p.interarrival.as_seconds() * jitter;
        out.push(MemRequest::new(
            i as u64,
            Time::from_seconds(now),
            op,
            line * p.line_bytes,
            ByteCount::new(p.line_bytes),
        ));
    }
    out
}

/// A trace request in the reference engine's queues.
struct RefQueued {
    idx: usize,
    arrival: Time,
    loc: DecodedAddress,
}

impl Pending for RefQueued {
    fn loc(&self) -> &DecodedAddress {
        &self.loc
    }

    fn ready(&self) -> Time {
        self.arrival
    }
}

/// `run_simulation` as written before it drove the shared `Controller`:
/// its own address map, bus arithmetic and finalize, built on the public
/// `AddressMap` and `BankQueues`, recording each request as it issues.
/// Also returns every latency, in issue order.
fn reference_run(
    device: &mut dyn MemoryDevice,
    requests: &[MemRequest],
    config: &SimConfig,
) -> (SimStats, Vec<Time>) {
    let topo = device.topology();
    let map = AddressMap::new(
        topo.channels,
        topo.banks,
        topo.rows,
        topo.columns,
        topo.line_bytes,
        Interleave::RowBankColumnChannelXor,
    )
    .unwrap();
    let mut queues = BankQueues::new(topo, config.scheduler);
    for (idx, r) in requests.iter().enumerate() {
        queues.push(RefQueued {
            idx,
            arrival: match config.replay {
                ReplayMode::Paced => r.arrival,
                ReplayMode::Saturation => Time::ZERO,
            },
            loc: map.decode(r.address),
        });
    }
    let mut bus_free = vec![Time::ZERO; topo.channels as usize];
    let mut stats = SimStats::new(device.name(), config.workload.clone());
    let mut latencies = Vec::new();
    while let Some((issue, bank)) = queues.earliest(&mut *device) {
        let RefQueued { idx, arrival, loc } = queues.take(bank);
        let req = &requests[idx];
        let timing = device.access_line(&loc, req.op, issue, req.payload.as_deref());
        let ch = loc.channel as usize;
        let transfer_start = timing.data_ready_at.max(bus_free[ch]);
        let transfer_end = transfer_start + timing.bus_occupancy;
        bus_free[ch] = transfer_end;
        queues.set_bank_free(bank, timing.bank_free_at);
        let done = CompletedRequest {
            request: MemRequest {
                arrival,
                ..req.clone()
            },
            issued: issue,
            finished: transfer_end + device.interface_delay(),
        };
        stats.record(&done);
        latencies.push(done.latency());
        stats.energy.access += timing.energy;
    }
    stats.energy.refresh = device.drain_accumulated_energy();
    stats.finalize_background(device.background_power());
    stats.finalize_percentiles();
    (stats, latencies)
}

/// Exact nearest-rank percentile of an ascending-sorted sample set: the
/// sample at rank `ceil(q/100 · n)` (at least 1), with `q` clamped to
/// `[0, 100]`; an empty set reports zero.
fn percentile_of_sorted(sorted: &[Time], q: f64) -> Time {
    if sorted.is_empty() {
        return Time::ZERO;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = ((sorted.len() as f64 * q / 100.0).ceil()).max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `t` in whole picoseconds: the largest `v` with `Time::from_picos(v)`
/// at most `t`.
fn whole_picos(t: Time) -> u64 {
    let mut v = t.as_picos().floor() as u64;
    while v > 0 && Time::from_picos(v as f64) > t {
        v -= 1;
    }
    while Time::from_picos((v + 1) as f64) <= t {
        v += 1;
    }
    v
}

/// The lower bound of the histogram bucket holding `v` picoseconds:
/// `v` itself below 256, else `v` with all but its top eight bits
/// cleared.
fn bucket_floor_ps(v: u64) -> u64 {
    if v < 256 {
        v
    } else {
        let width = 1u64 << (63 - v.leading_zeros() - 7);
        v / width * width
    }
}

/// What the histogram must report for the exact percentile `exact`.
fn bucket_floor(exact: Time) -> Time {
    Time::from_picos(bucket_floor_ps(whole_picos(exact)) as f64)
}

/// Asserts `stats`' p50/p95/p99 are the bucket floors of the exact
/// nearest-rank samples of `latencies`, and ordered up to the maximum.
fn assert_percentiles_are_bucket_floors(
    stats: &SimStats,
    mut latencies: Vec<Time>,
) -> Result<(), TestCaseError> {
    latencies.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
    for (q, reported) in [
        (50.0, stats.p50_latency),
        (95.0, stats.p95_latency),
        (99.0, stats.p99_latency),
    ] {
        prop_assert_eq!(
            reported,
            bucket_floor(percentile_of_sorted(&latencies, q)),
            "p{}",
            q
        );
    }
    prop_assert!(stats.p50_latency <= stats.p95_latency);
    prop_assert!(stats.p95_latency <= stats.p99_latency);
    prop_assert!(stats.p99_latency <= stats.max_latency);
    Ok(())
}

/// A random trace over a few rows of a few banks (so row hits, bank
/// conflicts and bus contention all occur), with non-decreasing arrivals
/// that sometimes tie.
fn random_trace(rng: &mut SplitMix, topo: Topology, len: u64) -> Vec<MemRequest> {
    let map = AddressMap::new(
        topo.channels,
        topo.banks,
        topo.rows,
        topo.columns,
        topo.line_bytes,
        Interleave::RowBankColumnChannelXor,
    )
    .unwrap();
    let hot = 1 + rng.below(topo.total_banks().min(8));
    let mut now = Time::ZERO;
    (0..len)
        .map(|id| {
            let e = random_entry(rng, id, topo, hot);
            if rng.below(2) == 0 {
                now += rng.time(200);
            }
            MemRequest::new(
                id,
                now,
                e.op,
                map.encode(e.loc),
                ByteCount::new(topo.line_bytes),
            )
        })
        .collect()
}

proptest! {
    // --- address mapping -----------------------------------------------------

    #[test]
    fn address_map_is_bijective(
        channels in pow2(3),
        banks in pow2(4),
        rows in pow2(8),
        columns in pow2(5),
        interleave in any_interleave(),
        seed in any::<u64>(),
    ) {
        let m = AddressMap::new(channels, banks, rows, columns, 64, interleave).unwrap();
        let lines = channels * banks * rows * columns;
        // Sample pseudo-random lines rather than sweeping the whole space.
        let mut x = seed | 1;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x % lines) * 64;
            let d = m.decode(addr);
            prop_assert!(d.channel < channels);
            prop_assert!(d.bank < banks);
            prop_assert!(d.row < rows);
            prop_assert!(d.column < columns);
            prop_assert_eq!(m.encode(d), addr);
        }
    }

    #[test]
    fn consecutive_lines_spread_across_channels(
        channels in pow2(3),
        interleave in any_interleave(),
    ) {
        // Any interleaving must touch all channels within one channel-count
        // worth of consecutive lines (XOR folding permutes but still covers).
        let m = AddressMap::new(channels, 8, 256, 32, 64, interleave).unwrap();
        let seen: std::collections::HashSet<u64> =
            (0..channels).map(|i| m.decode(i * 64).channel).collect();
        prop_assert_eq!(seen.len() as u64, channels);
    }

    #[test]
    fn coordinates_roundtrip_through_encode(
        channels in pow2(2),
        banks in pow2(3),
        interleave in any_interleave(),
        seed in any::<u64>(),
    ) {
        // The other direction of bijectivity: encode ∘ decode = id starting
        // from coordinates, for every interleave variant.
        let (rows, columns) = (64u64, 16u64);
        let m = AddressMap::new(channels, banks, rows, columns, 64, interleave).unwrap();
        let mut x = seed | 1;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = memsim::DecodedAddress {
                channel: (x >> 1) % channels,
                bank: (x >> 17) % banks,
                row: (x >> 33) % rows,
                column: (x >> 49) % columns,
            };
            prop_assert_eq!(m.decode(m.encode(d)), d, "{:?}", interleave);
        }
    }

    #[test]
    fn xor_interleave_spreads_pow2_strides(
        channels_log2 in 1u32..=3,
        stride_log2 in 0u32..=10,
        start in 0u64..1024,
    ) {
        // Permutation-based (XOR-folded) channel interleaving must spread
        // *every* power-of-two line stride across all channels — including
        // strides that are multiples of the channel count, which serialize
        // onto one channel under plain modulo interleaving.
        let channels = 1u64 << channels_log2;
        let stride = 1u64 << stride_log2;
        let m = AddressMap::new(channels, 8, 4096, 128, 64, Interleave::RowBankColumnChannelXor)
            .unwrap();
        let lines = channels * 8 * 4096 * 128;
        let window = 4 * channels;
        let seen: std::collections::HashSet<u64> = (0..window)
            .map(|k| m.decode(((start + k * stride) % lines) * 64).channel)
            .collect();
        prop_assert_eq!(
            seen.len() as u64,
            channels,
            "stride {} over {} channels touched only {:?}",
            stride,
            channels,
            seen
        );
    }

    // --- trace generation -------------------------------------------------------

    #[test]
    fn traces_respect_profile(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
        requests in 1usize..500,
    ) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction,
            footprint: ByteCount::from_mib(64),
            pattern,
            interarrival: Time::from_nanos(1.0),
            requests,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        prop_assert_eq!(trace.len(), requests);
        let mut last_arrival = Time::ZERO;
        for r in &trace {
            prop_assert!(r.address < p.footprint.value(), "address in footprint");
            prop_assert_eq!(r.address % 64, 0, "line aligned");
            prop_assert_eq!(r.size.value(), 64);
            prop_assert!(r.arrival >= last_arrival, "arrivals monotone");
            last_arrival = r.arrival;
        }
        // Determinism.
        prop_assert_eq!(&trace, &p.generate(seed));
    }

    // --- engine conservation --------------------------------------------------------

    #[test]
    fn engine_conserves_requests_dram(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
        saturation in any::<bool>(),
        frfcfs in any::<bool>(),
    ) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction,
            footprint: ByteCount::from_mib(32),
            pattern,
            interarrival: Time::from_nanos(5.0),
            requests: 300,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
        let config = SimConfig {
            scheduler: if frfcfs { Scheduler::FrFcfs { window: 8 } } else { Scheduler::Fcfs },
            replay: if saturation { ReplayMode::Saturation } else { ReplayMode::Paced },
            workload: "prop".into(),
        };
        let stats = run_simulation(&mut dev, &trace, &config);
        prop_assert_eq!(stats.completed, 300);
        prop_assert_eq!(stats.reads + stats.writes, 300);
        prop_assert_eq!(stats.bytes.value(), 300 * 64);
        prop_assert!(stats.makespan > Time::ZERO);
        prop_assert!(stats.avg_latency() > Time::ZERO);
        prop_assert!(stats.max_latency >= stats.avg_latency());
        prop_assert!(stats.energy.total().as_joules() > 0.0);
        prop_assert_eq!(stats.histogram.total(), 300);
    }

    #[test]
    fn engine_conserves_requests_epcm(seed in any::<u64>(), read_fraction in 0.0..1.0f64) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction,
            footprint: ByteCount::from_mib(16),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(2.0),
            requests: 200,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
        let stats = run_simulation(&mut dev, &trace, &SimConfig::paced("prop"));
        prop_assert_eq!(stats.completed, 200);
        prop_assert_eq!(stats.bytes.value(), 200 * 64);
    }

    #[test]
    fn saturation_is_never_slower_than_paced(seed in any::<u64>()) {
        let p = WorkloadProfile {
            name: "prop".into(),
            read_fraction: 0.8,
            footprint: ByteCount::from_mib(16),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(50.0),
            requests: 200,
            line_bytes: 64,
        };
        let trace = p.generate(seed);
        let run = |replay| {
            let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
            run_simulation(
                &mut dev,
                &trace,
                &SimConfig {
                    scheduler: Scheduler::default(),
                    replay,
                    workload: "prop".into(),
                },
            )
        };
        let paced = run(ReplayMode::Paced);
        let sat = run(ReplayMode::Saturation);
        prop_assert!(sat.makespan <= paced.makespan);
        prop_assert!(
            sat.bandwidth().as_gigabytes_per_second()
                >= paced.bandwidth().as_gigabytes_per_second() - 1e-9
        );
    }

    #[test]
    fn fr_fcfs_window_only_helps(seed in any::<u64>(), window in 1usize..32) {
        // Larger reorder windows can only reduce (or match) the makespan on
        // a bank-conflict-heavy trace.
        let reqs: Vec<MemRequest> = (0..200u64)
            .map(|i| {
                let row = (seed.wrapping_add(i) % 7) * 1000 + i / 2;
                MemRequest::new(i, Time::ZERO, MemOp::Read, row * 8 * 64, ByteCount::new(64))
            })
            .collect();
        let run = |w| {
            let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
            run_simulation(
                &mut dev,
                &reqs,
                &SimConfig {
                    scheduler: Scheduler::FrFcfs { window: w },
                    replay: ReplayMode::Saturation,
                    workload: "prop".into(),
                },
            )
        };
        let narrow = run(1);
        let wide = run(window.max(2));
        prop_assert!(wide.makespan <= narrow.makespan + Time::from_nanos(1.0));
    }

    // --- trace file I/O ---------------------------------------------------------------

    #[test]
    fn trace_io_roundtrips_any_trace(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        let p = WorkloadProfile {
            name: "io".into(),
            read_fraction,
            footprint: ByteCount::from_mib(64),
            pattern,
            interarrival: Time::from_nanos(10.0),
            requests: 100,
            line_bytes: 64,
        };
        let clock = TraceClock::two_ghz();
        let original = p.generate(seed);
        let mut text = Vec::new();
        write_trace(&mut text, &original, clock).expect("in-memory write");
        let back = read_trace(text.as_slice(), clock, 64).expect("own output parses");
        prop_assert_eq!(back.len(), original.len());
        for (a, b) in original.iter().zip(&back) {
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.address, b.address);
            prop_assert_eq!(a.size, b.size);
            // Arrivals survive up to cycle quantization.
            let dt = (a.arrival.as_nanos() - b.arrival.as_nanos()).abs();
            prop_assert!(dt <= clock.period.as_nanos() + 1e-9);
        }
    }

    #[test]
    fn trace_io_is_byte_stable_after_first_quantization(
        pattern in any_pattern(),
        read_fraction in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        // After one write→read (which quantizes arrivals to cycles), any
        // further write→read cycle must be a fixed point: identical bytes
        // and identical requests.
        let p = WorkloadProfile {
            name: "io-stable".into(),
            read_fraction,
            footprint: ByteCount::from_mib(64),
            pattern,
            interarrival: Time::from_nanos(10.0),
            requests: 100,
            line_bytes: 64,
        };
        let clock = TraceClock::two_ghz();
        let mut text1 = Vec::new();
        write_trace(&mut text1, &p.generate(seed), clock).expect("write 1");
        let reqs1 = read_trace(text1.as_slice(), clock, 64).expect("read 1");
        let mut text2 = Vec::new();
        write_trace(&mut text2, &reqs1, clock).expect("write 2");
        prop_assert_eq!(&text2, &text1, "trace bytes changed across a round trip");
        let reqs2 = read_trace(text2.as_slice(), clock, 64).expect("read 2");
        prop_assert_eq!(reqs2, reqs1);
    }

    // --- device sanity ----------------------------------------------------------------

    #[test]
    fn dram_access_timing_is_causal(
        row in 0u64..1024,
        col in 0u64..64,
        issue_ns in 0.0..100_000.0f64,
        write in any::<bool>(),
    ) {
        let mut dev = DramDevice::new(DramConfig::ddr4_2400_2d());
        let loc = memsim::DecodedAddress { channel: 0, bank: 0, row, column: col };
        let op = if write { MemOp::Write } else { MemOp::Read };
        let issue = Time::from_nanos(issue_ns);
        let avail = dev.bank_available(&loc, issue);
        prop_assert!(avail >= issue, "availability never travels back in time");
        let t = dev.access(&loc, op, avail);
        prop_assert!(t.data_ready_at >= avail);
        prop_assert!(t.bank_free_at >= avail);
        prop_assert!(t.bus_occupancy > Time::ZERO);
        prop_assert!(t.energy.as_joules() > 0.0);
    }

    // --- probes and the cached scheduler --------------------------------------------

    #[test]
    fn probes_change_nothing(family in 0u8..5, probes in 0usize..12, seed in any::<u64>()) {
        // Probing any bank any number of times, at any time, leaves every
        // later answer, access timing and drained energy as they would be
        // without the probes.
        let mut probed = device_family(family);
        let mut plain = device_family(family);
        let topo = plain.topology();
        let mut rng = SplitMix(seed);
        let hot = 1 + rng.below(topo.total_banks().min(4));
        let mut now = Time::ZERO;
        for id in 0..40 {
            let target = random_entry(&mut rng, id, topo, hot);
            now += rng.time(3_000);
            for _ in 0..probes {
                let other = random_entry(&mut rng, id, topo, hot);
                let _ = probed.bank_available(&other.loc, rng.time(80_000));
                let _ = probed.row_hit(&other.loc);
            }
            let issue = plain.bank_available(&target.loc, now);
            prop_assert_eq!(probed.bank_available(&target.loc, now), issue);
            prop_assert_eq!(probed.row_hit(&target.loc), plain.row_hit(&target.loc));
            let a = probed.access(&target.loc, target.op, issue);
            let b = plain.access(&target.loc, target.op, issue);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(probed.drain_accumulated_energy(), plain.drain_accumulated_energy());
    }

    #[test]
    fn bank_available_never_answers_before_the_time_asked(
        family in 0u8..5,
        seed in any::<u64>(),
    ) {
        // The probe contract's floor, `bank_available(loc, at) >= at`,
        // which lets the scheduler skip window entries unprobed: asked
        // before, inside and past busy periods, refresh windows and
        // programming, no device answers earlier than it was asked.
        let mut device = device_family(family);
        let topo = device.topology();
        let mut rng = SplitMix(seed);
        let hot = 1 + rng.below(topo.total_banks().min(4));
        let mut now = 0u64;
        for id in 0..60 {
            for _ in 0..4 {
                let probe = random_entry(&mut rng, id, topo, hot);
                let at = Time::from_nanos(rng.below(now + 100_000) as f64);
                let answer = device.bank_available(&probe.loc, at);
                prop_assert!(answer >= at, "asked at {at}, available at {answer}");
            }
            let target = random_entry(&mut rng, id, topo, hot);
            now += rng.below(3_000);
            let issue = device.bank_available(&target.loc, Time::from_nanos(now as f64));
            device.access(&target.loc, target.op, issue);
        }
    }

    #[test]
    fn cached_choice_matches_brute_force_scan(
        family in 0u8..5,
        window in 0usize..17,
        saturated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Window 0 stands for FCFS. A saturated run queues every entry at
        // t = 0 behind banks that start free together, so all of a bank's
        // entries share one floor (replay-sat's case, where the pruned
        // choice settles ties by row hits alone).
        let scheduler = match window {
            0 => Scheduler::Fcfs,
            window => Scheduler::FrFcfs { window },
        };
        let mut device = device_family(family);
        let topo = device.topology();
        let mut rng = SplitMix(seed);
        let hot = 1 + rng.below(topo.total_banks().min(6));
        let mut queues = BankQueues::new(topo, scheduler);
        let mut shadow = vec![VecDeque::new(); topo.total_banks() as usize];
        let start = rng.time(5_000);
        let mut free: Vec<Time> = (0..shadow.len())
            .map(|_| if saturated { start } else { rng.time(5_000) })
            .collect();
        for (bank, &at) in free.iter().enumerate() {
            queues.set_bank_free(bank, at);
        }
        let mut ids = 0..;
        let mut push = |rng: &mut SplitMix, queues: &mut BankQueues<Entry>, shadow: &mut Vec<VecDeque<Entry>>| {
            let mut e = random_entry(rng, ids.next().expect("unbounded"), topo, hot);
            if saturated {
                e.ready = Time::ZERO;
            }
            queues.push(e);
            shadow[queues.bank_of(&e.loc)].push_back(e);
        };
        for _ in 0..=rng.below(40) {
            push(&mut rng, &mut queues, &mut shadow);
        }
        loop {
            // Arrivals interleave with issues, as in the service engine.
            if rng.below(4) == 0 {
                push(&mut rng, &mut queues, &mut shadow);
            }
            let cached = queues.earliest(device.as_mut());
            let scanned = brute_force_scan(&shadow, &free, device.as_mut(), scheduler);
            prop_assert_eq!(cached, scanned.map(|(at, bank, _)| (at, bank)));
            let Some((at, bank, pos)) = scanned else { break };
            let e = queues.take(bank);
            prop_assert_eq!(Some(e), shadow[bank].remove(pos));
            let timing = device.access(&e.loc, e.op, at);
            free[bank] = timing.bank_free_at;
            queues.set_bank_free(bank, timing.bank_free_at);
        }
    }

    // --- reference pins ----------------------------------------------------------

    #[test]
    fn generate_matches_the_reference_loop(
        pattern in any_pattern(),
        read_fraction in 0.0..=1.0f64,
        line_bytes in 32u64..=256,
        footprint_lines in 1u64..100_000,
        interarrival_ns in 0.0..10.0f64,
        seed in any::<u64>(),
        requests in 0usize..400,
    ) {
        let p = WorkloadProfile {
            name: format!("ref-{}", seed % 7),
            read_fraction,
            footprint: ByteCount::new(footprint_lines * line_bytes + seed % line_bytes),
            pattern,
            interarrival: Time::from_nanos(interarrival_ns),
            requests,
            line_bytes,
        };
        prop_assert_eq!(p.generate(seed), reference_generate(&p, seed));
    }

    #[test]
    fn run_simulation_matches_the_reference_loop(
        family in prop_oneof![Just(0u8), Just(1u8), Just(2u8), Just(4u8)],
        window in 0usize..17,
        saturation in any::<bool>(),
        len in 0u64..300,
        seed in any::<u64>(),
    ) {
        // Window 0 stands for FCFS.
        let config = SimConfig {
            scheduler: match window {
                0 => Scheduler::Fcfs,
                window => Scheduler::FrFcfs { window },
            },
            replay: if saturation { ReplayMode::Saturation } else { ReplayMode::Paced },
            workload: "ref".into(),
        };
        let mut device = device_family(family);
        let trace = random_trace(&mut SplitMix(seed), device.topology(), len);
        let stats = run_simulation(device.as_mut(), &trace, &config);
        let (reference, latencies) =
            reference_run(device_family(family).as_mut(), &trace, &config);
        prop_assert_eq!(&stats, &reference);
        assert_percentiles_are_bucket_floors(&stats, latencies)?;
    }

    // --- latency histogram -----------------------------------------------------

    #[test]
    fn histogram_percentiles_are_bucket_floors_of_the_nearest_rank_sample(
        samples in proptest::collection::vec((0.0f64..10.0, 0u64..4), 1..400),
        q in 0.0f64..=100.0,
    ) {
        // Log-uniform latencies from 1 ps to 10 ms; the second draw picks
        // an exact integer picosecond, a tie with the previous sample, or
        // neither.
        let mut latencies = Vec::new();
        for (decades, kind) in samples {
            let ps = 10f64.powf(decades);
            let t = match (kind, latencies.last()) {
                (0, _) => Time::from_picos(ps.floor()),
                (1, Some(&prev)) => prev,
                _ => Time::from_picos(ps),
            };
            latencies.push(t);
        }
        let mut h = LatencyHistogram::new();
        for &t in &latencies {
            h.record(t);
        }
        latencies.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
        let exact = percentile_of_sorted(&latencies, q);
        let reported = h.percentile(q);
        prop_assert_eq!(reported, bucket_floor(exact));
        // Never above the sample, and less than 2^-7 of its whole
        // picoseconds below; from 128 ps up, where dropping the fraction of
        // a picosecond costs at most 2^-7 itself, less than 2^-7 of the
        // sample.
        prop_assert!(reported <= exact);
        let (v, floor) = (whole_picos(exact), whole_picos(reported));
        prop_assert!((v - floor) * 128 < v.max(1), "{} ps reported for {} ps", floor, v);
        if exact >= Time::from_picos(128.0) {
            prop_assert!(reported.as_seconds() > exact.as_seconds() * (1.0 - 1.0 / 128.0));
        }
        prop_assert_eq!(h.total(), latencies.len() as u64);
        let back = LatencyHistogram::from_parts(h.first_ps(), h.counts().to_vec());
        prop_assert_eq!(back.as_ref(), Some(&h));
    }
}

#[test]
fn histogram_memory_is_bounded() {
    // Latencies from 1 ps to 1e6 s, a quarter decade apart: 73 samples
    // over 18 decades, the full range a cell could plausibly span.
    let mut h = LatencyHistogram::new();
    for quarter_decades in 0..=72 {
        h.record(Time::from_picos(10f64.powf(quarter_decades as f64 / 4.0)));
    }
    assert_eq!(h.total(), 73);
    assert_eq!(h.first_ps(), 1);
    // 256 one-picosecond buckets, then 128 per octave up to the top.
    assert!(h.counts().len() <= 7424, "{} counters", h.counts().len());
    // Saturating samples fill the range to its top: still bounded.
    h.record(Time::from_seconds(1e300));
    h.record(Time::ZERO);
    assert_eq!(h.counts().len(), 7424);
    assert_eq!(h.percentile(100.0), Time::from_picos((255u64 << 56) as f64));
}
