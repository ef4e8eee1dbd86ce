//! Synthetic SPEC-like trace generation.
//!
//! We do not redistribute SPEC traces; instead each [`WorkloadProfile`]
//! captures the axes of memory behaviour that actually drive the Fig. 9
//! comparisons — footprint, row locality, read:write mix, spatial pattern
//! and demand intensity — with per-benchmark parameter sets named after the
//! SPEC CPU2006 workloads whose memory behaviour they mimic (see each
//! constructor). Generation is deterministic given a seed: a
//! [`StreamShape`] yields a profile's accesses one at a time (the service
//! engine's sources draw from it online), and
//! [`WorkloadProfile::generate`] times them into a whole trace.

use crate::request::{MemOp, MemRequest};
use comet_units::{ByteCount, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spatial access pattern of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential streaming through the footprint.
    Stream,
    /// Fixed-stride walks (e.g. column sweeps).
    Strided {
        /// Stride in bytes.
        stride: u64,
    },
    /// Uniform random lines over the footprint.
    Random,
    /// Random with row-buffer locality: with probability `locality` the
    /// next access stays in the current row.
    Clustered {
        /// Probability of staying within the current row.
        locality: f64,
    },
}

/// A synthetic workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Name used in reports (SPEC-like identifier).
    pub name: String,
    /// Fraction of reads in `[0, 1]`.
    pub read_fraction: f64,
    /// Memory footprint touched by the workload.
    pub footprint: ByteCount,
    /// Spatial pattern.
    pub pattern: AccessPattern,
    /// Mean inter-arrival time between requests (demand intensity of the
    /// multi-core front-end the trace represents).
    pub interarrival: Time,
    /// Number of requests to generate.
    pub requests: usize,
    /// Cache-line size.
    pub line_bytes: u64,
}

impl WorkloadProfile {
    /// Generates the request stream (deterministic for a given seed): each
    /// access comes from the profile's [`StreamShape`], then the arrival
    /// gap is drawn from the same random stream.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]` or the footprint is
    /// smaller than one line.
    pub fn generate(&self, seed: u64) -> Vec<MemRequest> {
        let mut shape = StreamShape::from_profile(self, seed);
        let mut out = Vec::with_capacity(self.requests);
        let mut now = 0.0f64;
        for i in 0..self.requests {
            let (op, address, size) = shape.next_access();
            // Exponential-ish inter-arrival (two-uniform average keeps it
            // simple and deterministic in distribution shape).
            let jitter = shape.rng.gen_range(0.0..2.0);
            now += self.interarrival.as_seconds() * jitter;
            out.push(MemRequest::new(
                i as u64,
                Time::from_seconds(now),
                op,
                address,
                size,
            ));
        }
        out
    }
}

/// FNV-1a over a name. Folded into seeds so that profiles (and serve
/// tenants) with equal seeds but different names draw decorrelated
/// randomness.
pub fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A deterministic, incremental (op, address) generator: the *what* of a
/// profile's request stream — operation mix and address pattern — one
/// access at a time, without the profile's inter-arrival model.
/// [`WorkloadProfile::generate`] times its accesses with that model;
/// event-driven sources take arrival times from an arrival process or
/// from closed-loop client feedback instead, and never materialize a
/// whole trace.
///
/// # Examples
///
/// ```
/// use memsim::{spec_like_suite, StreamShape};
///
/// let profile = &spec_like_suite(100)[0];
/// let mut shape = StreamShape::from_profile(profile, 42);
/// let (_op, address, size) = shape.next_access();
/// assert!(address < profile.footprint.value());
/// assert_eq!(size.value(), profile.line_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct StreamShape {
    pattern: AccessPattern,
    read_fraction: f64,
    lines: u64,
    line_bytes: u64,
    row_lines: u64,
    cursor: u64,
    rng: StdRng,
}

impl StreamShape {
    /// Builds a shape from a profile's spatial/mix parameters, seeded with
    /// `seed` and the profile name folded in.
    ///
    /// # Panics
    ///
    /// Panics if the profile's read fraction is outside `[0, 1]` or its
    /// footprint is smaller than one line.
    pub fn from_profile(profile: &WorkloadProfile, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&profile.read_fraction),
            "read fraction must be in [0,1]"
        );
        let lines = profile.footprint.value() / profile.line_bytes;
        assert!(lines >= 1, "footprint smaller than one line");
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(&profile.name));
        let cursor = rng.gen_range(0..lines);
        StreamShape {
            pattern: profile.pattern,
            read_fraction: profile.read_fraction,
            lines,
            line_bytes: profile.line_bytes,
            // Row span used by the Clustered pattern (typical 8 KiB row).
            row_lines: (8192 / profile.line_bytes).max(1),
            cursor,
            rng,
        }
    }

    /// The next access: operation, line-aligned byte address, transfer size.
    #[inline]
    pub fn next_access(&mut self) -> (MemOp, u64, ByteCount) {
        let line = match self.pattern {
            AccessPattern::Stream => {
                self.cursor = (self.cursor + 1) % self.lines;
                self.cursor
            }
            AccessPattern::Strided { stride } => {
                self.cursor = (self.cursor + stride / self.line_bytes) % self.lines;
                self.cursor
            }
            AccessPattern::Random => self.rng.gen_range(0..self.lines),
            AccessPattern::Clustered { locality } => {
                if self.rng.gen_bool(locality.clamp(0.0, 1.0)) {
                    let row_base = self.cursor / self.row_lines * self.row_lines;
                    row_base + self.rng.gen_range(0..self.row_lines.min(self.lines))
                } else {
                    self.cursor = self.rng.gen_range(0..self.lines);
                    self.cursor
                }
            }
        };
        let op = if self.rng.gen_bool(self.read_fraction) {
            MemOp::Read
        } else {
            MemOp::Write
        };
        (op, line * self.line_bytes, ByteCount::new(self.line_bytes))
    }
}

/// The SPEC-like suite used for the Fig. 9 evaluation.
///
/// Intensities model a many-core front-end issuing misses at memory-bound
/// rates (a line every fraction of a ns in the aggregate — the terabyte-
/// per-second demand regime the paper's introduction motivates), which is
/// what lets the photonic memories differentiate — electronic memories
/// saturate and stretch the makespan instead.
pub fn spec_like_suite(requests: usize) -> Vec<WorkloadProfile> {
    let line = 64;
    let mk = |name: &str,
              read_fraction: f64,
              footprint_mib: u64,
              pattern: AccessPattern,
              interarrival_ns: f64| WorkloadProfile {
        name: name.into(),
        read_fraction,
        footprint: ByteCount::from_mib(footprint_mib),
        pattern,
        interarrival: Time::from_nanos(interarrival_ns),
        requests,
        line_bytes: line,
    };
    vec![
        // Pointer-chasing graph workload: random, read-heavy.
        mk("mcf-like", 0.85, 1536, AccessPattern::Random, 0.5),
        // Fluid dynamics: streaming, write-rich.
        mk("lbm-like", 0.55, 512, AccessPattern::Stream, 0.25),
        // Wave propagation: streaming reads.
        mk("bwaves-like", 0.9, 768, AccessPattern::Stream, 0.3),
        // Compiler: clustered with moderate locality, mixed ops.
        mk(
            "gcc-like",
            0.75,
            256,
            AccessPattern::Clustered { locality: 0.6 },
            0.75,
        ),
        // Lattice QCD: strided column sweeps.
        mk(
            "milc-like",
            0.8,
            1024,
            AccessPattern::Strided { stride: 4096 },
            0.4,
        ),
        // Quantum simulation: pure streaming reads.
        mk("libquantum-like", 0.95, 128, AccessPattern::Stream, 0.2),
        // Discrete-event simulation: random, mixed.
        mk("omnetpp-like", 0.7, 384, AccessPattern::Random, 0.6),
        // Sparse linear algebra: clustered, low locality.
        mk(
            "soplex-like",
            0.82,
            640,
            AccessPattern::Clustered { locality: 0.35 },
            0.45,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pattern: AccessPattern) -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            read_fraction: 0.8,
            footprint: ByteCount::from_mib(16),
            pattern,
            interarrival: Time::from_nanos(2.0),
            requests: 4000,
            line_bytes: 64,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = profile(AccessPattern::Random);
        assert_eq!(p.generate(42), p.generate(42));
        assert_ne!(p.generate(42), p.generate(43));
    }

    #[test]
    fn read_fraction_respected() {
        let p = profile(AccessPattern::Random);
        let reqs = p.generate(7);
        let reads = reqs.iter().filter(|r| r.op.is_read()).count() as f64;
        let frac = reads / reqs.len() as f64;
        assert!((frac - 0.8).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn addresses_stay_within_footprint() {
        for pattern in [
            AccessPattern::Stream,
            AccessPattern::Random,
            AccessPattern::Strided { stride: 4096 },
            AccessPattern::Clustered { locality: 0.7 },
        ] {
            let p = profile(pattern);
            for r in p.generate(1) {
                assert!(r.address < p.footprint.value(), "{pattern:?}");
                assert_eq!(r.address % 64, 0, "line aligned");
            }
        }
    }

    #[test]
    fn arrivals_are_monotone() {
        let p = profile(AccessPattern::Stream);
        let reqs = p.generate(3);
        for w in reqs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }

    #[test]
    fn mean_interarrival_close_to_spec() {
        let p = profile(AccessPattern::Random);
        let reqs = p.generate(11);
        let span = reqs.last().unwrap().arrival.as_nanos();
        let mean = span / (reqs.len() - 1) as f64;
        assert!((mean - 2.0).abs() < 0.2, "mean interarrival {mean} ns");
    }

    #[test]
    fn stream_pattern_is_sequential() {
        let p = profile(AccessPattern::Stream);
        let reqs = p.generate(5);
        let mut sequential = 0;
        for w in reqs.windows(2) {
            if w[1].address == (w[0].address + 64) % p.footprint.value() {
                sequential += 1;
            }
        }
        assert!(sequential as f64 / reqs.len() as f64 > 0.95);
    }

    #[test]
    fn suite_has_distinct_profiles() {
        let suite = spec_like_suite(100);
        assert_eq!(suite.len(), 8);
        let names: std::collections::HashSet<_> = suite.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), suite.len(), "names must be unique");
        // Distinct profiles generate distinct traces even with equal seeds.
        assert_ne!(suite[0].generate(1), suite[1].generate(1));
    }

    #[test]
    #[should_panic(expected = "read fraction")]
    fn bad_read_fraction_rejected() {
        let mut p = profile(AccessPattern::Random);
        p.read_fraction = 1.5;
        let _ = p.generate(0);
    }

    fn shape_profile(pattern: AccessPattern) -> WorkloadProfile {
        WorkloadProfile {
            name: "shape-test".into(),
            read_fraction: 0.7,
            footprint: ByteCount::from_mib(4),
            pattern,
            interarrival: Time::from_nanos(1.0),
            requests: 0,
            line_bytes: 64,
        }
    }

    #[test]
    fn deterministic_per_seed_and_name() {
        let p = shape_profile(AccessPattern::Random);
        let stream = |seed: u64| {
            let mut s = StreamShape::from_profile(&p, seed);
            (0..100).map(|_| s.next_access()).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let mut renamed = p.clone();
        renamed.name = "other".into();
        let mut s = StreamShape::from_profile(&renamed, 5);
        let other: Vec<_> = (0..100).map(|_| s.next_access()).collect();
        assert_ne!(stream(5), other, "name decorrelates equal seeds");
    }

    #[test]
    fn accesses_stay_in_footprint_and_respect_mix() {
        for pattern in [
            AccessPattern::Stream,
            AccessPattern::Random,
            AccessPattern::Strided { stride: 4096 },
            AccessPattern::Clustered { locality: 0.6 },
        ] {
            let p = shape_profile(pattern);
            let mut shape = StreamShape::from_profile(&p, 9);
            let mut reads = 0usize;
            let n = 4000;
            for _ in 0..n {
                let (op, addr, size) = shape.next_access();
                assert!(addr < p.footprint.value(), "{pattern:?}");
                assert_eq!(addr % 64, 0);
                assert_eq!(size.value(), 64);
                if op.is_read() {
                    reads += 1;
                }
            }
            let frac = reads as f64 / n as f64;
            assert!(
                (frac - 0.7).abs() < 0.05,
                "{pattern:?}: read fraction {frac}"
            );
        }
    }
}
