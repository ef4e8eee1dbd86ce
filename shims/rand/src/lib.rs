//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! Provides a deterministic, seedable [`rngs::StdRng`] built on
//! SplitMix64 plus the [`Rng`]/[`SeedableRng`] trait surface the
//! workspace uses (`seed_from_u64`, `gen_range`, `gen_bool`). The
//! simulator only needs *reproducible, well-mixed* streams for synthetic
//! trace generation — not cryptographic quality — so SplitMix64 is a
//! faithful stand-in. Swap the workspace `rand` entry back to the
//! registry to use the real crate.
//!
//! The per-draw methods are `#[inline]`: payload generators draw one
//! value per byte, and an out-of-line call per draw would cost more than
//! the draw itself.

use std::ops::{Range, RangeInclusive};

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from `self`.
    fn sample_from(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut rngs::StdRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

/// Subset of `rand::Rng` used by the workspace.
pub trait Rng {
    /// Uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool;
}

/// Subset of `rand::SeedableRng` used by the workspace.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SampleRange, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl StdRng {
        #[inline]
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)` using the top 53 bits.
        #[inline]
        pub(crate) fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    impl SeedableRng for StdRng {
        #[inline]
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
            range.sample_from(self)
        }

        #[inline]
        fn gen_bool(&mut self, p: f64) -> bool {
            self.unit_f64() < p.clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.gen_range(0u64..100);
            assert_eq!(x, b.gen_range(0u64..100));
            assert!(x < 100);
            let f = a.gen_range(0.0..2.0f64);
            assert!((0.0..2.0).contains(&b.gen_range(0.0..2.0f64)));
            assert!((0.0..2.0).contains(&f));
        }
    }

    #[test]
    fn bool_probability_sane() {
        let mut rng = StdRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }
}
