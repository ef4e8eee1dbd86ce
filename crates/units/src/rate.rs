//! Architecture-level quantities: bit/byte counts, data rates and
//! energy-per-bit.

use crate::{Energy, Time};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A count of bits.
///
/// # Examples
///
/// ```
/// use comet_units::{BitCount, ByteCount};
///
/// let line = ByteCount::new(64);
/// assert_eq!(line.to_bits(), BitCount::new(512));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitCount(u64);

impl BitCount {
    /// Zero bits.
    pub const ZERO: BitCount = BitCount(0);

    /// Creates a bit count.
    pub const fn new(bits: u64) -> Self {
        BitCount(bits)
    }

    /// The raw count.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Converts to whole bytes, rounding up.
    pub const fn to_bytes_ceil(self) -> ByteCount {
        ByteCount(self.0.div_ceil(8))
    }

    /// Expresses the count in gigabits (10^9 bits).
    pub fn as_gigabits(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Expresses the count in gibibits (2^30 bits).
    pub fn as_gibibits(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }
}

impl Add for BitCount {
    type Output = BitCount;
    fn add(self, rhs: BitCount) -> BitCount {
        BitCount(self.0 + rhs.0)
    }
}

impl AddAssign for BitCount {
    fn add_assign(&mut self, rhs: BitCount) {
        self.0 += rhs.0;
    }
}

impl Sub for BitCount {
    type Output = BitCount;
    fn sub(self, rhs: BitCount) -> BitCount {
        BitCount(self.0 - rhs.0)
    }
}

impl Mul<u64> for BitCount {
    type Output = BitCount;
    fn mul(self, rhs: u64) -> BitCount {
        BitCount(self.0 * rhs)
    }
}

impl Sum for BitCount {
    fn sum<I: Iterator<Item = BitCount>>(iter: I) -> BitCount {
        iter.fold(BitCount::ZERO, Add::add)
    }
}

impl fmt::Display for BitCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} b", self.0)
    }
}

/// A count of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteCount(u64);

impl ByteCount {
    /// Zero bytes.
    pub const ZERO: ByteCount = ByteCount(0);

    /// Creates a byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteCount(bytes)
    }

    /// Creates a byte count from kibibytes (2^10).
    pub const fn from_kib(kib: u64) -> Self {
        ByteCount(kib << 10)
    }

    /// Creates a byte count from mebibytes (2^20).
    pub const fn from_mib(mib: u64) -> Self {
        ByteCount(mib << 20)
    }

    /// Creates a byte count from gibibytes (2^30).
    pub const fn from_gib(gib: u64) -> Self {
        ByteCount(gib << 30)
    }

    /// The raw count.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The equivalent bit count.
    ///
    /// # Panics
    ///
    /// If the bit count does not fit in a `u64` (more than `u64::MAX / 8`
    /// bytes), in every build profile.
    pub const fn to_bits(self) -> BitCount {
        match self.0.checked_mul(8) {
            Some(bits) => BitCount(bits),
            None => panic!("the bit count of more than u64::MAX / 8 bytes overflows a u64"),
        }
    }

    /// Expresses the count in mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    /// Expresses the count in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }
}

impl Add for ByteCount {
    type Output = ByteCount;
    fn add(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0 + rhs.0)
    }
}

impl AddAssign for ByteCount {
    fn add_assign(&mut self, rhs: ByteCount) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteCount {
    type Output = ByteCount;
    fn sub(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteCount {
    type Output = ByteCount;
    fn mul(self, rhs: u64) -> ByteCount {
        ByteCount(self.0 * rhs)
    }
}

impl Sum for ByteCount {
    fn sum<I: Iterator<Item = ByteCount>>(iter: I) -> ByteCount {
        iter.fold(ByteCount::ZERO, Add::add)
    }
}

impl fmt::Display for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1 << 20 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if b >= 1 << 10 {
            write!(f, "{:.2} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A sustained data rate, stored in bytes per second.
///
/// # Examples
///
/// ```
/// use comet_units::{ByteCount, DataRate, Time};
///
/// let rate = DataRate::from_transfer(ByteCount::from_mib(64), Time::from_millis(1.0));
/// assert!(rate.as_gigabytes_per_second() > 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DataRate(f64);

impl DataRate {
    /// Zero rate.
    pub const ZERO: DataRate = DataRate(0.0);

    /// Creates a rate from bytes per second.
    pub const fn from_bytes_per_second(bps: f64) -> Self {
        DataRate(bps)
    }

    /// Creates a rate from gigabytes (10^9 B) per second.
    pub fn from_gigabytes_per_second(gbps: f64) -> Self {
        DataRate(gbps * 1e9)
    }

    /// The average rate of moving `bytes` over `elapsed`.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is not strictly positive.
    pub fn from_transfer(bytes: ByteCount, elapsed: Time) -> Self {
        assert!(elapsed.as_seconds() > 0.0, "elapsed time must be positive");
        DataRate(bytes.value() as f64 / elapsed.as_seconds())
    }

    /// Rate in bytes per second.
    pub const fn as_bytes_per_second(self) -> f64 {
        self.0
    }

    /// Rate in gigabytes (10^9 B) per second.
    pub fn as_gigabytes_per_second(self) -> f64 {
        self.0 / 1e9
    }

    /// Rate in gigabits (10^9 b) per second.
    pub fn as_gigabits_per_second(self) -> f64 {
        self.0 * 8.0 / 1e9
    }
}

impl Add for DataRate {
    type Output = DataRate;
    fn add(self, rhs: DataRate) -> DataRate {
        DataRate(self.0 + rhs.0)
    }
}

impl Div<DataRate> for DataRate {
    type Output = f64;
    fn div(self, rhs: DataRate) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<f64> for DataRate {
    type Output = DataRate;
    fn mul(self, rhs: f64) -> DataRate {
        DataRate(self.0 * rhs)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GB/s", self.as_gigabytes_per_second())
    }
}

/// Energy spent per bit transferred, stored in joules per bit.
///
/// The headline efficiency metric of the paper's evaluation (Fig. 9(b)).
///
/// # Examples
///
/// ```
/// use comet_units::{BitCount, Energy};
///
/// let epb = Energy::from_picojoules(512.0) / BitCount::new(128);
/// assert!((epb.as_picojoules_per_bit() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyPerBit(f64);

impl EnergyPerBit {
    /// Zero energy per bit.
    pub const ZERO: EnergyPerBit = EnergyPerBit(0.0);

    /// Creates a value from joules per bit.
    pub const fn from_joules_per_bit(jpb: f64) -> Self {
        EnergyPerBit(jpb)
    }

    /// Creates a value from picojoules per bit.
    pub fn from_picojoules_per_bit(pjpb: f64) -> Self {
        EnergyPerBit(pjpb * 1e-12)
    }

    /// Value in joules per bit.
    pub const fn as_joules_per_bit(self) -> f64 {
        self.0
    }

    /// Value in picojoules per bit.
    pub fn as_picojoules_per_bit(self) -> f64 {
        self.0 * 1e12
    }

    /// Total energy to move `bits` at this efficiency.
    pub fn energy_for(self, bits: BitCount) -> Energy {
        Energy::from_joules(self.0 * bits.value() as f64)
    }

    /// The ratio of another figure to this one (how many times better this
    /// figure is). A result > 1 means `self` is more efficient.
    pub fn improvement_over(self, other: EnergyPerBit) -> f64 {
        other.0 / self.0
    }
}

impl Add for EnergyPerBit {
    type Output = EnergyPerBit;
    fn add(self, rhs: EnergyPerBit) -> EnergyPerBit {
        EnergyPerBit(self.0 + rhs.0)
    }
}

impl Mul<f64> for EnergyPerBit {
    type Output = EnergyPerBit;
    fn mul(self, rhs: f64) -> EnergyPerBit {
        EnergyPerBit(self.0 * rhs)
    }
}

impl Div<EnergyPerBit> for EnergyPerBit {
    type Output = f64;
    fn div(self, rhs: EnergyPerBit) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for EnergyPerBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} pJ/b", self.as_picojoules_per_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_bits() {
        assert_eq!(ByteCount::new(64).to_bits(), BitCount::new(512));
        assert_eq!(BitCount::new(9).to_bytes_ceil(), ByteCount::new(2));
        assert_eq!(BitCount::new(8).to_bytes_ceil(), ByteCount::new(1));
    }

    #[test]
    fn capacity_units() {
        let cap = ByteCount::from_gib(1);
        assert_eq!(cap.to_bits().value(), 8 << 30);
        assert!((cap.to_bits().as_gibibits() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn rate_from_transfer() {
        let r = DataRate::from_transfer(ByteCount::new(1_000_000_000), Time::from_seconds(1.0));
        assert!((r.as_gigabytes_per_second() - 1.0).abs() < 1e-12);
        assert!((r.as_gigabits_per_second() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn epb_energy_roundtrip() {
        let epb = EnergyPerBit::from_picojoules_per_bit(4.0);
        let e = epb.energy_for(BitCount::new(1000));
        assert!((e.as_picojoules() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn epb_improvement() {
        let comet = EnergyPerBit::from_picojoules_per_bit(10.0);
        let cosmos = EnergyPerBit::from_picojoules_per_bit(129.0);
        assert!((comet.improvement_over(cosmos) - 12.9).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ByteCount::from_gib(8)), "8.00 GiB");
        assert_eq!(format!("{}", ByteCount::new(512)), "512 B");
        assert_eq!(
            format!("{}", DataRate::from_gigabytes_per_second(1.5)),
            "1.500 GB/s"
        );
    }
}
