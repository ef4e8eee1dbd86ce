//! Seeded payload generators with controllable entropy.
//!
//! Every figure the data plane produces sweeps *what the writes contain*,
//! so payloads are first-class, declarative and seeded exactly like the
//! traffic shapes: a [`PayloadSpec`] is the serializable description (it
//! rides on serve tenants and in campaign spec files) and
//! [`PayloadSpec::instantiate`] builds the deterministic [`PayloadGen`]
//! that materializes one [`LineData`] per write.
//!
//! The sources span the entropy range the DCW/Flip-N-Write literature
//! cares about:
//!
//! * [`PayloadSpec::Zero`] — all-zero lines (logging/zeroing traffic; the
//!   degenerate low-entropy floor where nearly every cell is conserved);
//! * [`PayloadSpec::SparseUpdate`] — each write mutates a small fraction
//!   of the line's bytes in place (counters, in-place field updates — the
//!   regime DCW was designed for);
//! * [`PayloadSpec::TransformerWeights`] — fp16 weights drawn from a
//!   zero-mean bell distribution at a DOTA model's initialization scale
//!   (checkpoint/weight-streaming traffic: structured exponent bytes,
//!   near-uniform mantissas);
//! * [`PayloadSpec::ToggleWords`] — every write complements the line
//!   (bitmap inversion / toggling flags: the Flip-N-Write showcase);
//! * [`PayloadSpec::Uniform`] — uniform random bytes (encrypted or
//!   compressed traffic; the max-entropy ceiling where content-awareness
//!   helps least).

use dota::TransformerWorkload;
use memsim::{LineData, MemOp, MemRequest, MixMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::fmt;

/// A declarative, serializable payload source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadSpec {
    /// All-zero lines.
    Zero,
    /// Each write to a line mutates `flip_fraction` of its bytes in place
    /// (at least one), leaving the rest as last written.
    SparseUpdate {
        /// Fraction of the line's bytes rewritten per store, in (0, 1].
        flip_fraction: f64,
    },
    /// fp16 weights from a zero-mean bell distribution with the given
    /// standard deviation (see [`PayloadSpec::transformer`]).
    TransformerWeights {
        /// Weight standard deviation.
        std: f64,
    },
    /// Every write complements the previous line content.
    ToggleWords,
    /// Uniform random bytes.
    Uniform,
}

impl PayloadSpec {
    /// The entropy sweep in write-intensity order: zero, sparse (5 %),
    /// transformer weights (DeiT-Base), toggle, uniform.
    pub fn entropy_sweep() -> Vec<PayloadSpec> {
        vec![
            PayloadSpec::Zero,
            PayloadSpec::SparseUpdate {
                flip_fraction: 0.05,
            },
            PayloadSpec::transformer(&TransformerWorkload::deit_base()),
            PayloadSpec::ToggleWords,
            PayloadSpec::Uniform,
        ]
    }

    /// Weight payloads at a DOTA model's initialization scale: DeiT
    /// truncated-normal init, std = (2 / (5·d))^0.5 with the family's
    /// hidden dimension recovered from the parameter count.
    pub fn transformer(model: &TransformerWorkload) -> PayloadSpec {
        // DeiT-T/S/B hidden dims; anything larger extrapolates to 768.
        let hidden: f64 = match model.parameters {
            p if p <= 10_000_000 => 192.0,
            p if p <= 40_000_000 => 384.0,
            _ => 768.0,
        };
        PayloadSpec::TransformerWeights {
            std: (2.0 / (5.0 * hidden)).sqrt(),
        }
    }

    /// A compact report label (`zero`, `sparse-0.05`, `weights`, `toggle`,
    /// `uniform`).
    pub fn label(&self) -> String {
        match self {
            PayloadSpec::Zero => "zero".into(),
            PayloadSpec::SparseUpdate { flip_fraction } => format!("sparse-{flip_fraction}"),
            PayloadSpec::TransformerWeights { .. } => "weights".into(),
            PayloadSpec::ToggleWords => "toggle".into(),
            PayloadSpec::Uniform => "uniform".into(),
        }
    }

    /// Builds the seeded generator.
    pub fn instantiate(&self, seed: u64) -> PayloadGen {
        PayloadGen {
            spec: *self,
            rng: StdRng::seed_from_u64(seed ^ 0xDA7A_0DA7_A0DA_7A0D),
            last: History::default(),
        }
    }
}

impl fmt::Display for PayloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Encodes `x` as IEEE 754 binary16 bits (mantissa truncation via the f32
/// path — bit-exactness against a reference half library is not needed
/// here, only a faithful byte distribution; overflow saturates to ±inf,
/// which never occurs at weight scales).
fn f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32 - 127;
    let mantissa = bits & 0x7F_FFFF;
    if exp < -24 {
        return sign; // underflow to signed zero
    }
    if exp < -14 {
        // Subnormal half: implicit bit joins the mantissa.
        let shift = (-14 - exp) as u32;
        let sub = (0x80_0000 | mantissa) >> (13 + shift);
        return sign | sub as u16;
    }
    if exp > 15 {
        return sign | 0x7C00; // infinity
    }
    sign | (((exp + 15) as u16) << 10) | (mantissa >> 13) as u16
}

/// The last line written at each address: a slab of lines and a map from
/// each address to its line's slot. A store probes the map once and
/// copies only its own line into the slot; the map's 16-byte entries are
/// all a rehash moves.
#[derive(Debug, Clone, Default)]
struct History {
    slots: MixMap<u64, u32>,
    lines: Vec<LineData>,
}

impl History {
    /// The slot of `address`'s line, for the caller to overwrite with the
    /// line it writes now, and whether it holds an earlier line (`false`
    /// on the first store to `address`).
    fn slot(&mut self, address: u64) -> (&mut LineData, bool) {
        let (slot, seen) = match self.slots.entry(address) {
            Entry::Occupied(e) => (*e.get() as usize, true),
            Entry::Vacant(e) => {
                let slot = self.lines.len();
                e.insert(u32::try_from(slot).expect("fewer than 2^32 written lines"));
                self.lines.push(LineData::zeroes(0));
                (slot, false)
            }
        };
        (&mut self.lines[slot], seen)
    }
}

/// A deterministic per-seed payload stream.
///
/// Stateful sources ([`PayloadSpec::SparseUpdate`],
/// [`PayloadSpec::ToggleWords`]) remember the last line written per
/// address, so consecutive stores to one line relate the way the workload
/// intends; the memory is bounded by the workload footprint's line count.
///
/// Each line is generated in place in the returned [`LineData`]; nothing
/// is allocated per line once its address has a history slot.
#[derive(Debug, Clone)]
pub struct PayloadGen {
    spec: PayloadSpec,
    rng: StdRng,
    last: History,
}

impl PayloadGen {
    /// The spec this generator was built from.
    pub fn spec(&self) -> PayloadSpec {
        self.spec
    }

    /// The next payload for a store of `line_bytes` bytes at `address`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` exceeds [`memsim::MAX_LINE_BYTES`].
    pub fn next_line(&mut self, address: u64, line_bytes: u64) -> LineData {
        let len = line_bytes as usize;
        assert!(
            len <= memsim::MAX_LINE_BYTES,
            "line payload of {len} bytes exceeds the {}-byte capacity",
            memsim::MAX_LINE_BYTES
        );
        let mut line = LineData::zeroes(len);
        match self.spec {
            PayloadSpec::Zero => {}
            PayloadSpec::Uniform => fill_uniform(&mut self.rng, line.bytes_mut()),
            PayloadSpec::SparseUpdate { flip_fraction } => {
                let (last, seen) = self.last.slot(address);
                if seen {
                    // The last line, cut or zero-padded to this width.
                    let kept = last.len().min(len);
                    line.bytes_mut()[..kept].copy_from_slice(&last.bytes()[..kept]);
                } else {
                    fill_uniform(&mut self.rng, line.bytes_mut());
                }
                let bytes = line.bytes_mut();
                let touches = ((len as f64 * flip_fraction).ceil() as usize).clamp(1, len);
                for _ in 0..touches {
                    let i = self.rng.gen_range(0..len as u64) as usize;
                    bytes[i] = self.rng.gen_range(0u16..256) as u8;
                }
                *last = line;
            }
            PayloadSpec::ToggleWords => {
                let (last, seen) = self.last.slot(address);
                if seen {
                    for (b, &p) in line.bytes_mut().iter_mut().zip(last.bytes()) {
                        *b = !p;
                    }
                } else {
                    fill_uniform(&mut self.rng, line.bytes_mut());
                }
                *last = line;
            }
            PayloadSpec::TransformerWeights { std } => {
                // Odd line widths leave the last byte zero.
                for pair in line.bytes_mut().chunks_exact_mut(2) {
                    // Irwin–Hall(4): near-Gaussian, mean 0, variance 1/3;
                    // scale to the requested std.
                    let sum: f64 = (0..4).map(|_| self.rng.gen_range(0.0..1.0)).sum();
                    let w = (sum - 2.0) * std * (3.0f64).sqrt();
                    pair.copy_from_slice(&f16_bits(w as f32).to_le_bytes());
                }
            }
        }
        line
    }

    /// Attaches payloads to every write of a trace, each in its own box
    /// (replay-engine path; the serve engine sources payloads online
    /// instead).
    pub fn attach(&mut self, trace: &mut [MemRequest]) {
        for req in trace {
            if req.op == MemOp::Write {
                req.payload = Some(Box::new(self.next_line(req.address, req.size.value())));
            }
        }
    }
}

/// Attaches payloads from `spec` to a trace's writes, seeded.
///
/// # Examples
///
/// ```
/// use comet_data::{attach_payloads, PayloadSpec};
/// use comet_units::{ByteCount, Time};
/// use memsim::{MemOp, MemRequest};
///
/// let mut trace = vec![
///     MemRequest::new(0, Time::ZERO, MemOp::Write, 0x00, ByteCount::new(64)),
///     MemRequest::new(1, Time::ZERO, MemOp::Read, 0x40, ByteCount::new(64)),
/// ];
/// attach_payloads(&mut trace, PayloadSpec::Uniform, 42);
/// assert!(trace[0].payload.is_some());
/// assert!(trace[1].payload.is_none(), "reads carry no payload");
/// ```
pub fn attach_payloads(trace: &mut [MemRequest], spec: PayloadSpec, seed: u64) {
    spec.instantiate(seed).attach(trace);
}

/// Fills `bytes` with uniform random bytes, one draw each, in order.
fn fill_uniform(rng: &mut StdRng, bytes: &mut [u8]) {
    for b in bytes {
        *b = rng.gen_range(0u16..256) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_units::ByteCount;
    use proptest::prelude::*;

    /// The stateful sources as first written, kept as the reference for
    /// [`History`]: the last line per address in a map of whole lines,
    /// read with `get` and replaced with `insert` on every store.
    struct ReferenceGen {
        spec: PayloadSpec,
        rng: StdRng,
        last: MixMap<u64, LineData>,
    }

    impl ReferenceGen {
        fn new(spec: PayloadSpec, seed: u64) -> Self {
            ReferenceGen {
                spec,
                rng: StdRng::seed_from_u64(seed ^ 0xDA7A_0DA7_A0DA_7A0D),
                last: MixMap::default(),
            }
        }

        fn next_line(&mut self, address: u64, line_bytes: u64) -> LineData {
            let len = line_bytes as usize;
            let mut line = LineData::zeroes(len);
            match self.spec {
                PayloadSpec::SparseUpdate { flip_fraction } => {
                    match self.last.get(&address) {
                        Some(prev) => {
                            let kept = prev.len().min(len);
                            line.bytes_mut()[..kept].copy_from_slice(&prev.bytes()[..kept]);
                        }
                        None => fill_uniform(&mut self.rng, line.bytes_mut()),
                    }
                    let bytes = line.bytes_mut();
                    let touches = ((len as f64 * flip_fraction).ceil() as usize).clamp(1, len);
                    for _ in 0..touches {
                        let i = self.rng.gen_range(0..len as u64) as usize;
                        bytes[i] = self.rng.gen_range(0u16..256) as u8;
                    }
                    self.last.insert(address, line);
                }
                PayloadSpec::ToggleWords => {
                    match self.last.get(&address) {
                        Some(prev) => {
                            for (b, &p) in line.bytes_mut().iter_mut().zip(prev.bytes()) {
                                *b = !p;
                            }
                        }
                        None => fill_uniform(&mut self.rng, line.bytes_mut()),
                    }
                    self.last.insert(address, line);
                }
                other => unreachable!("{other} keeps no history"),
            }
            line
        }
    }

    proptest! {
        #[test]
        fn history_slab_matches_the_line_map(
            seed in any::<u64>(),
            flip_fraction in 0.01f64..1.0,
            // Few addresses, so lines are revisited; every store picks its
            // own width, so a revisit cuts or zero-pads the last line.
            stores in proptest::collection::vec((0u64..12, 1u64..=128), 1..200),
        ) {
            for spec in [PayloadSpec::SparseUpdate { flip_fraction }, PayloadSpec::ToggleWords] {
                let mut slab = spec.instantiate(seed);
                let mut reference = ReferenceGen::new(spec, seed);
                for &(line, width) in &stores {
                    let address = line * 128;
                    let got = slab.next_line(address, width);
                    let want = reference.next_line(address, width);
                    prop_assert_eq!(got.bytes(), want.bytes(), "{}", spec);
                }
            }
        }
    }

    /// The bytes a spec would stream for `n` lines of `line_bytes` at
    /// synthetic increasing addresses.
    fn sample_lines(spec: PayloadSpec, seed: u64, n: usize, line_bytes: u64) -> Vec<LineData> {
        let mut gen = spec.instantiate(seed);
        (0..n)
            .map(|i| gen.next_line((i as u64 % 8) * line_bytes, line_bytes))
            .collect()
    }

    /// Mean fraction of byte positions that differ between consecutive writes
    /// to the same address — the "write intensity" a policy actually sees.
    fn rewrite_intensity(spec: PayloadSpec, seed: u64, writes: usize, line_bytes: u64) -> f64 {
        let mut gen = spec.instantiate(seed);
        let address = 0u64;
        let mut prev = gen.next_line(address, line_bytes);
        let mut changed = 0usize;
        let mut total = 0usize;
        for _ in 1..writes.max(2) {
            let next = gen.next_line(address, line_bytes);
            changed += prev
                .bytes()
                .iter()
                .zip(next.bytes())
                .filter(|(a, b)| a != b)
                .count();
            total += line_bytes as usize;
            prev = next;
        }
        changed as f64 / total.max(1) as f64
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for spec in PayloadSpec::entropy_sweep() {
            let a = sample_lines(spec, 7, 20, 64);
            let b = sample_lines(spec, 7, 20, 64);
            assert_eq!(a, b, "{spec}");
            if spec != PayloadSpec::Zero {
                let c = sample_lines(spec, 8, 20, 64);
                assert_ne!(a, c, "{spec}: seed must matter");
            }
        }
    }

    #[test]
    fn zero_is_zero_and_uniform_is_not() {
        let z = sample_lines(PayloadSpec::Zero, 1, 4, 64);
        assert!(z.iter().all(|l| l.bytes().iter().all(|&b| b == 0)));
        let u = sample_lines(PayloadSpec::Uniform, 1, 4, 64);
        assert!(u.iter().any(|l| l.bytes().iter().any(|&b| b != 0)));
    }

    #[test]
    fn sparse_updates_mutate_few_bytes_in_place() {
        let spec = PayloadSpec::SparseUpdate {
            flip_fraction: 0.05,
        };
        let intensity = rewrite_intensity(spec, 3, 50, 64);
        assert!(
            intensity > 0.0 && intensity < 0.10,
            "sparse intensity {intensity}"
        );
        // Different addresses evolve independently.
        let mut gen = spec.instantiate(3);
        let a0 = gen.next_line(0, 64);
        let b0 = gen.next_line(64, 64);
        assert_ne!(a0, b0);
    }

    #[test]
    fn toggle_complements_every_write() {
        let mut gen = PayloadSpec::ToggleWords.instantiate(5);
        let a = gen.next_line(0, 64);
        let b = gen.next_line(0, 64);
        for (x, y) in a.bytes().iter().zip(b.bytes()) {
            assert_eq!(*x, !*y);
        }
        assert!((rewrite_intensity(PayloadSpec::ToggleWords, 5, 20, 64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_look_like_small_fp16_values() {
        let spec = PayloadSpec::transformer(&TransformerWorkload::deit_base());
        let PayloadSpec::TransformerWeights { std } = spec else {
            panic!("transformer spec")
        };
        assert!((0.01..0.1).contains(&std), "DeiT-B init std {std}");
        let lines = sample_lines(spec, 11, 8, 64);
        for line in &lines {
            for pair in line.bytes().chunks(2) {
                let h = u16::from_le_bytes([pair[0], pair[1]]);
                let exp = (h >> 10) & 0x1F;
                assert!(exp < 0x1F, "no infinities at weight scale");
            }
        }
        // Structured exponents: consecutive rewrites change fewer bytes
        // than uniform noise would.
        let wi = rewrite_intensity(spec, 11, 40, 64);
        let ui = rewrite_intensity(PayloadSpec::Uniform, 11, 40, 64);
        assert!(wi < ui, "weights {wi} vs uniform {ui}");
    }

    #[test]
    fn f16_encoding_anchors() {
        assert_eq!(f16_bits(0.0), 0x0000);
        assert_eq!(f16_bits(-0.0), 0x8000);
        assert_eq!(f16_bits(1.0), 0x3C00);
        assert_eq!(f16_bits(-2.0), 0xC000);
        assert_eq!(f16_bits(65504.0), 0x7BFF); // f16::MAX
        assert_eq!(f16_bits(1.0e9), 0x7C00); // +inf
        assert_eq!(f16_bits(6.0e-8), 0x0001); // smallest subnormal
    }

    #[test]
    fn attach_only_touches_writes() {
        use comet_units::Time;
        let mut trace: Vec<MemRequest> = (0..10)
            .map(|i| {
                MemRequest::new(
                    i,
                    Time::ZERO,
                    if i % 2 == 0 {
                        MemOp::Write
                    } else {
                        MemOp::Read
                    },
                    i * 64,
                    ByteCount::new(64),
                )
            })
            .collect();
        attach_payloads(&mut trace, PayloadSpec::Uniform, 9);
        for req in &trace {
            assert_eq!(req.payload.is_some(), req.op == MemOp::Write);
        }
    }
}
