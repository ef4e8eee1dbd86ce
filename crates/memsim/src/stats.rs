//! Simulation statistics: latency, bandwidth and energy-per-bit.

use crate::request::CompletedRequest;
use comet_units::{BitCount, ByteCount, DataRate, Energy, EnergyPerBit, Power, Time};
use std::fmt;

/// Energy breakdown of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Per-access energy (activation, array, I/O, laser pulses).
    pub access: Energy,
    /// Background power integrated over the makespan.
    pub background: Energy,
    /// Refresh energy (DRAM only).
    pub refresh: Energy,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.access + self.background + self.refresh
    }
}

/// Sub-buckets per power of two, as a bit count: above [`LINEAR_PS`] a
/// bucket is at most 2^-7 (< 0.79 %) of its lower bound wide.
const SUB_BITS: u32 = 7;
/// Sub-buckets per power of two.
const SUB: u64 = 1 << SUB_BITS;
/// Below this many picoseconds every value has its own bucket.
const LINEAR_PS: u64 = 2 * SUB;
/// Buckets over the whole `u64` picosecond range: the 256 linear ones and
/// 128 for each power of two from 2^8 to 2^63.
const BUCKETS: usize = (LINEAR_PS + SUB * (u64::BITS as u64 - 8)) as usize;

/// The bucket holding `ps`.
#[inline]
fn bucket_of(ps: u64) -> usize {
    if ps < LINEAR_PS {
        ps as usize
    } else {
        // `ps` lies in [2^e, 2^(e+1)); its top eight bits (128..=255)
        // pick the sub-bucket.
        let shift = u64::BITS - 1 - ps.leading_zeros() - SUB_BITS;
        (shift as u64 * SUB + (ps >> shift)) as usize
    }
}

/// The smallest value in bucket `index`.
fn bucket_floor(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_PS {
        i
    } else {
        (SUB + i % SUB) << (i / SUB - 1)
    }
}

/// `latency` in whole picoseconds, rounded down and saturating: the
/// largest `v` with `Time::from_picos(v) <= latency`. So no bucket floor
/// exceeds a sample it holds, and `Time::from_picos(n)` lands at `n`.
#[inline]
fn whole_picos(latency: Time) -> u64 {
    // `as` saturates, and maps NaN and negative values to 0; the product
    // behind `as_picos` rounds, so the floor can be one off either way.
    let v = latency.as_picos() as u64;
    if v > 0 && Time::from_picos(v as f64) > latency {
        v - 1
    } else if v < u64::MAX && Time::from_picos((v + 1) as f64) <= latency {
        v + 1
    } else {
        v
    }
}

/// A log-linear latency histogram over integer picoseconds, with bounded
/// memory.
///
/// A sample becomes `v`, its latency in whole picoseconds (rounded down,
/// saturating). Values below 256 ps each have their own bucket; above
/// that, every power of two `[2^e, 2^(e+1))` splits into 128 equal
/// buckets, so a bucket is at most 2^-7 (< 0.79 %) of its value wide.
/// Counts are stored densely from the lowest recorded bucket to the
/// highest: at most 7424 counters whatever the input, about 1.9 k for a
/// cell spanning 15 octaves. The stored form is canonical, so `==` is
/// equality of the recorded distributions.
///
/// A percentile is the lower bound of the bucket holding the nearest-rank
/// sample (rank `ceil(q/100 · n)`, at least 1). It is at most the exact
/// sample and less than 2^-7 of it below (from 128 ps up; shorter
/// samples lose only the fraction of a picosecond rounded off), and
/// since the bucket map is monotone every ordering between exact
/// percentiles (p50 ≤ p99 ≤ max, one distribution's tail below
/// another's) holds between reported ones.
///
/// # Examples
///
/// ```
/// use comet_units::Time;
/// use memsim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in 1..=100 {
///     h.record(Time::from_nanos(ns as f64));
/// }
/// assert_eq!(h.total(), 100);
/// // 50 ns = 50 000 ps lies in [2^15, 2^16), whose buckets are 256 ps
/// // wide; the one holding it starts at 49 920 ps.
/// assert_eq!(h.percentile(50.0), Time::from_picos(49_920.0));
/// assert!(h.percentile(99.0) <= Time::from_nanos(99.0));
/// assert!(h.percentile(99.0) > Time::from_nanos(99.0 * (1.0 - 1.0 / 128.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyHistogram {
    /// Bucket index of `counts[0]` (0 while empty).
    first: usize,
    /// Counts from the lowest recorded bucket to the highest.
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from its [`LatencyHistogram::first_ps`] and
    /// [`LatencyHistogram::counts`]. Returns `None` unless they are in the
    /// canonical form an export holds: `first_ps` a bucket's lower bound
    /// (0 when empty), the outer counts non-zero, no bucket past the
    /// last, and a total that fits in a `u64`.
    pub fn from_parts(first_ps: u64, counts: Vec<u64>) -> Option<Self> {
        let first = bucket_of(first_ps);
        let canonical = match (counts.first(), counts.last()) {
            (Some(&lo), Some(&hi)) => {
                lo > 0
                    && hi > 0
                    && bucket_floor(first) == first_ps
                    && first + counts.len() <= BUCKETS
            }
            _ => first_ps == 0,
        };
        let total = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c))?;
        canonical.then_some(LatencyHistogram {
            first,
            counts,
            total,
        })
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Time) {
        let index = bucket_of(whole_picos(latency));
        if self.counts.is_empty() {
            self.first = index;
        }
        if index < self.first {
            let grow = self.first - index;
            self.counts.splice(0..0, std::iter::repeat(0).take(grow));
            self.first = index;
        } else if index - self.first >= self.counts.len() {
            self.counts.resize(index - self.first + 1, 0);
        }
        self.counts[index - self.first] += 1;
        self.total += 1;
    }

    /// Lower bound in picoseconds of the first stored bucket (0 when
    /// empty).
    pub fn first_ps(&self) -> u64 {
        bucket_floor(self.first)
    }

    /// Counts of consecutive buckets from [`LatencyHistogram::first_ps`]
    /// up to the highest recorded one.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Latency at percentile `q` (clamped to `[0, 100]`): the lower bound
    /// of the bucket holding the sample of rank `ceil(q/100 · total)` (at
    /// least 1). An empty histogram reports [`Time::ZERO`].
    pub fn percentile(&self, q: f64) -> Time {
        let q = q.clamp(0.0, 100.0);
        let rank = ((self.total as f64 * q / 100.0).ceil()).max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Time::from_picos(bucket_floor(self.first + i) as f64);
            }
        }
        Time::ZERO
    }
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Requests completed.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Bytes transferred.
    pub bytes: ByteCount,
    /// Simulated time from zero to the last completion (the latest
    /// `finished` recorded). A paced trace whose first arrival comes after
    /// zero counts its idle lead-in here, and so in [`SimStats::bandwidth`]
    /// and the background energy.
    pub makespan: Time,
    /// Sum of request latencies.
    pub total_latency: Time,
    /// Maximum request latency.
    pub max_latency: Time,
    /// Median request latency: [`SimStats::histogram`]'s 50th percentile,
    /// at most 2^-7 below the exact nearest-rank sample (filled by
    /// [`SimStats::finalize_percentiles`], [`Time::ZERO`] until then).
    pub p50_latency: Time,
    /// 95th-percentile request latency (see [`SimStats::p50_latency`]).
    pub p95_latency: Time,
    /// 99th-percentile request latency (see [`SimStats::p50_latency`]).
    pub p99_latency: Time,
    /// Latency distribution of every recorded request.
    pub histogram: LatencyHistogram,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl SimStats {
    /// Creates an empty record for a device/workload pair.
    pub fn new(device: impl Into<String>, workload: impl Into<String>) -> Self {
        SimStats {
            device: device.into(),
            workload: workload.into(),
            completed: 0,
            reads: 0,
            writes: 0,
            bytes: ByteCount::ZERO,
            makespan: Time::ZERO,
            total_latency: Time::ZERO,
            max_latency: Time::ZERO,
            p50_latency: Time::ZERO,
            p95_latency: Time::ZERO,
            p99_latency: Time::ZERO,
            histogram: LatencyHistogram::new(),
            energy: EnergyBreakdown::default(),
        }
    }

    /// Folds one completed request into the record.
    pub fn record(&mut self, done: &CompletedRequest) {
        self.completed += 1;
        if done.request.op.is_read() {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        self.bytes += done.request.size;
        let lat = done.latency();
        self.total_latency += lat;
        self.max_latency = self.max_latency.max(lat);
        self.histogram.record(lat);
        self.makespan = self.makespan.max(done.finished);
    }

    /// Adds background energy for a given power over the makespan. Call
    /// once, after all requests are recorded.
    pub fn finalize_background(&mut self, background: Power) {
        self.energy.background = background * self.makespan;
    }

    /// Fills the p50/p95/p99 fields from the histogram. Engines call this
    /// once, after all requests are recorded, so trace replay and the
    /// `comet-serve` service core report tail latency through the same
    /// fields.
    pub fn finalize_percentiles(&mut self) {
        self.p50_latency = self.histogram.percentile(50.0);
        self.p95_latency = self.histogram.percentile(95.0);
        self.p99_latency = self.histogram.percentile(99.0);
    }

    /// Average request latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }

    /// Observed bandwidth: bytes over makespan.
    pub fn bandwidth(&self) -> DataRate {
        if self.makespan.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_transfer(self.bytes, self.makespan)
        }
    }

    /// Energy per bit transferred.
    pub fn energy_per_bit(&self) -> EnergyPerBit {
        let bits = self.bytes.to_bits();
        if bits == BitCount::ZERO {
            EnergyPerBit::ZERO
        } else {
            self.energy.total() / bits
        }
    }

    /// The paper's Fig. 9(c) efficiency metric: bandwidth (GB/s) divided by
    /// EPB (pJ/b).
    pub fn bandwidth_per_epb(&self) -> f64 {
        let epb = self.energy_per_bit().as_picojoules_per_bit();
        if epb == 0.0 {
            0.0
        } else {
            self.bandwidth().as_gigabytes_per_second() / epb
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} reqs, BW {:.3} GB/s, avg lat {:.1} ns, EPB {:.2} pJ/b",
            self.device,
            self.workload,
            self.completed,
            self.bandwidth().as_gigabytes_per_second(),
            self.avg_latency().as_nanos(),
            self.energy_per_bit().as_picojoules_per_bit()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MemOp, MemRequest};

    fn done(id: u64, arrival_ns: f64, finish_ns: f64, op: MemOp) -> CompletedRequest {
        CompletedRequest {
            request: MemRequest::new(
                id,
                Time::from_nanos(arrival_ns),
                op,
                id * 64,
                ByteCount::new(64),
            ),
            issued: Time::from_nanos(arrival_ns),
            finished: Time::from_nanos(finish_ns),
        }
    }

    #[test]
    fn aggregates() {
        let mut s = SimStats::new("dev", "wl");
        s.record(&done(0, 0.0, 100.0, MemOp::Read));
        s.record(&done(1, 50.0, 250.0, MemOp::Write));
        assert_eq!(s.completed, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes.value(), 128);
        assert!((s.makespan.as_nanos() - 250.0).abs() < 1e-9);
        assert!((s.avg_latency().as_nanos() - 150.0).abs() < 1e-9);
        assert!((s.max_latency.as_nanos() - 200.0).abs() < 1e-9);
        // 128 B / 250 ns = 0.512 GB/s.
        assert!((s.bandwidth().as_gigabytes_per_second() - 0.512).abs() < 1e-9);
    }

    #[test]
    fn energy_per_bit_accounting() {
        let mut s = SimStats::new("dev", "wl");
        s.record(&done(0, 0.0, 100.0, MemOp::Read));
        s.energy.access = Energy::from_picojoules(512.0);
        s.finalize_background(Power::from_milliwatts(0.0));
        // 512 pJ over 512 bits = 1 pJ/b.
        assert!((s.energy_per_bit().as_picojoules_per_bit() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn background_energy_uses_makespan() {
        let mut s = SimStats::new("dev", "wl");
        s.record(&done(0, 0.0, 1000.0, MemOp::Read));
        s.finalize_background(Power::from_watts(1.0));
        // 1 W * 1 us = 1 uJ.
        assert!((s.energy.background.as_joules() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn makespan_runs_from_time_zero_not_the_first_arrival() {
        // Paced arrivals 1 us apart, the first at 1 us, each served in
        // 100 ns: the lead-in before the first arrival counts.
        let mut s = SimStats::new("dev", "wl");
        for i in 0..3 {
            let arrival = 1000.0 * (i + 1) as f64;
            s.record(&done(i, arrival, arrival + 100.0, MemOp::Read));
        }
        assert_eq!(s.makespan, Time::from_nanos(3100.0));
        // 192 B / 3100 ns, and 1 W over 3100 ns.
        assert!((s.bandwidth().as_gigabytes_per_second() - 192.0 / 3100.0).abs() < 1e-12);
        s.finalize_background(Power::from_watts(1.0));
        assert!((s.energy.background.as_joules() - 3.1e-6).abs() < 1e-18);
    }

    /// A histogram holding `ns` nanosecond samples.
    fn histogram_of(ns: &[f64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &n in ns {
            h.record(Time::from_nanos(n));
        }
        h
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = histogram_of(&[5.0, 20.0, 50.0, 200.0, 200.0, 5000.0]);
        assert_eq!(h.total(), 6);
        // 5 ns = 5000 ps lies in [4096, 8192): 32 ps buckets.
        assert_eq!(h.first_ps(), 4992);
        assert_eq!(h.counts().first(), Some(&1));
        assert_eq!(h.counts().last(), Some(&1));
        assert_eq!(h.counts().iter().sum::<u64>(), 6);
        assert_eq!(h.counts().iter().filter(|&&c| c > 0).count(), 5);
        // Rank 3 of 6 is 50 ns; ranks 5 and 6 are 200 ns and 5 us.
        assert_eq!(h.percentile(50.0), Time::from_picos(49_920.0));
        assert_eq!(h.percentile(80.0), Time::from_picos(199_680.0));
        assert_eq!(h.percentile(99.0), Time::from_picos(4_980_736.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::new("d", "w");
        assert_eq!(s.avg_latency(), Time::ZERO);
        assert_eq!(s.bandwidth(), DataRate::ZERO);
        assert_eq!(s.energy_per_bit(), EnergyPerBit::ZERO);
        assert_eq!(s.bandwidth_per_epb(), 0.0);
        assert_eq!(s.p99_latency, Time::ZERO);
        assert_eq!(LatencyHistogram::new().percentile(99.0), Time::ZERO);
        assert_eq!(LatencyHistogram::new().first_ps(), 0);
    }

    #[test]
    fn exact_percentiles_use_nearest_rank() {
        // Recorded in descending order: percentiles do not depend on it.
        let mut s = SimStats::new("d", "w");
        for n in (1..=200).rev() {
            s.histogram.record(Time::from_nanos(n as f64));
        }
        s.finalize_percentiles();
        // Ranks 100, 190 and 198: 100 ns in 512 ps buckets, 190 and
        // 198 ns in 1024 ps ones.
        assert_eq!(s.p50_latency, Time::from_picos(99_840.0));
        assert_eq!(s.p95_latency, Time::from_picos(189_440.0));
        assert_eq!(s.p99_latency, Time::from_picos(197_632.0));
        // Single sample: every percentile is its bucket's floor.
        let mut one = SimStats::new("d", "w");
        one.histogram.record(Time::from_nanos(7.0));
        one.finalize_percentiles();
        assert_eq!(one.p50_latency, Time::from_picos(6976.0));
        assert_eq!(one.p99_latency, Time::from_picos(6976.0));
    }

    #[test]
    fn histogram_percentile_is_the_bucket_floor() {
        // 100 samples of 50 ns, all in the 256 ps bucket from 49 920 ps.
        let h = histogram_of(&[50.0; 100]);
        assert_eq!(h.counts(), &[100]);
        for q in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q), Time::from_picos(49_920.0), "q={q}");
        }
    }

    #[test]
    fn bucket_bounds_are_increasing_and_cover_the_range() {
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_floor(BUCKETS - 1), 255 << 56);
        for i in 1..BUCKETS {
            let (lo, hi) = (bucket_floor(i - 1), bucket_floor(i));
            assert!(hi > lo, "bucket {i}");
            assert_eq!(bucket_of(hi), i);
            assert_eq!(bucket_of(hi - 1), i - 1);
            // Above the linear range a bucket is at most 2^-7 of its
            // floor wide.
            assert!(lo < LINEAR_PS || (hi - lo) * SUB <= lo, "bucket {}", i - 1);
        }
    }

    #[test]
    fn records_land_in_the_right_bucket() {
        let mut h = LatencyHistogram::new();
        // Sub-picosecond samples round down to 0 ps, the first bucket.
        h.record(Time::from_picos(0.5));
        assert_eq!((h.first_ps(), h.counts()), (0, &[1][..]));
        // Below 256 ps a bucket is one picosecond.
        h.record(Time::from_picos(3.0));
        assert_eq!(h.counts(), &[1, 0, 0, 1]);
        // A lower sample extends the stored range downwards.
        let mut g = LatencyHistogram::new();
        g.record(Time::from_picos(300.0));
        g.record(Time::from_picos(259.0));
        // 300 and 259 ps lie in [256, 512): 2 ps buckets from 300 and 258.
        assert_eq!(g.first_ps(), 258);
        assert_eq!(g.counts().len(), 22);
        assert_eq!((g.counts()[0], g.counts()[21]), (1, 1));
        assert_eq!(g.percentile(100.0), Time::from_picos(300.0));
    }

    #[test]
    fn percentiles_bracket_samples_tightly() {
        let h = histogram_of(&[200.0; 1000]);
        // 200 ns = 200 000 ps lies in [2^17, 2^18): 1024 ps buckets.
        let p = h.percentile(99.0);
        assert_eq!(p, Time::from_picos(199_680.0));
        assert!(p <= Time::from_nanos(200.0));
        assert!(p.as_nanos() > 200.0 * (1.0 - 1.0 / 128.0));
        assert_eq!(h.percentile(10.0), h.percentile(90.0));
    }

    #[test]
    fn saturating_samples_land_in_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        for t in [1e300, f64::INFINITY] {
            h.record(Time::from_seconds(t));
        }
        assert_eq!(h.counts(), &[2]);
        assert_eq!(h.percentile(100.0), Time::from_picos((255u64 << 56) as f64));
        // NaN and negative latencies count as 0 ps.
        h.record(Time::from_seconds(f64::NAN));
        h.record(Time::from_seconds(-1.0));
        assert_eq!(h.first_ps(), 0);
        assert_eq!(h.counts().len(), BUCKETS);
        assert_eq!(h.percentile(50.0), Time::ZERO);
    }

    #[test]
    fn only_canonical_parts_rebuild_a_histogram() {
        let h = histogram_of(&[5.0, 20.0, 5000.0]);
        let back = LatencyHistogram::from_parts(h.first_ps(), h.counts().to_vec());
        assert_eq!(back.as_ref(), Some(&h));
        assert_eq!(
            LatencyHistogram::from_parts(0, Vec::new()),
            Some(LatencyHistogram::new())
        );
        for (first_ps, counts) in [
            (4992, vec![0, 1]),      // leading zero
            (4992, vec![1, 0]),      // trailing zero
            (4993, vec![1]),         // not a bucket floor
            (7, Vec::new()),         // empty with a floor
            (255 << 56, vec![1, 1]), // past the top bucket
            (0, vec![u64::MAX, 1]),  // total overflows
        ] {
            assert_eq!(
                LatencyHistogram::from_parts(first_ps, counts.clone()),
                None,
                "{first_ps} {counts:?}"
            );
        }
    }
}
