//! Physical-address decomposition.
//!
//! Maps a flat physical byte address onto `{channel, bank, row, column}`
//! coordinates. Both interleavings move the channel bits fastest, then the
//! column, bank and row bits: cache-line interleaving across channels (the
//! default, and what `comet::CometMemory` does across its MDM banks)
//! spreads consecutive lines over all channels. The XOR variant, which
//! `Controller` uses, also folds the higher bits into the channel index so
//! channel-multiple strides spread too.

use std::fmt;

/// Decoded device coordinates of an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Channel index.
    pub channel: u64,
    /// Bank index (within the channel).
    pub bank: u64,
    /// Row index (within the bank).
    pub row: u64,
    /// Column index: the cache-line slot within the row.
    pub column: u64,
}

/// Bit-interleaving order for address decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleave {
    /// `row : bank : column : channel` (line-interleaved across channels,
    /// then columns within a bank row — maximizes channel/bank parallelism
    /// for streams). The usual high-throughput choice.
    #[default]
    RowBankColumnChannel,
    /// Like [`Interleave::RowBankColumnChannel`] but the channel index is
    /// XOR-folded with the base-C digits of the line quotient, so strided
    /// streams whose stride is a multiple of the channel count still
    /// spread across channels (permutation-based interleaving). Bijective
    /// for power-of-two channel counts.
    RowBankColumnChannelXor,
}

/// XOR-fold of all `bits`-wide digits of `q`. A single-channel map
/// (`bits` = 0) has no digits to fold, so it folds to 0.
fn xor_fold(mut q: u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let mask = (1 << bits) - 1;
    let mut acc = 0;
    while q > 0 {
        acc ^= q & mask;
        q >>= bits;
    }
    acc
}

/// Errors from address-map construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressMapError {
    /// A dimension was zero or not a power of two.
    NotPowerOfTwo {
        /// The offending dimension name.
        dimension: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The capacity, `2^bits` bytes, does not fit in a `u64`.
    CapacityOverflow {
        /// The sum of the five dimensions' exponents (at least 64).
        bits: u32,
    },
}

impl fmt::Display for AddressMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressMapError::NotPowerOfTwo { dimension, value } => {
                write!(f, "{dimension} must be a nonzero power of two, got {value}")
            }
            AddressMapError::CapacityOverflow { bits } => write!(
                f,
                "the address map spans 2^{bits} bytes; its capacity must stay below 2^64"
            ),
        }
    }
}

impl std::error::Error for AddressMapError {}

/// An address map over power-of-two dimensions.
///
/// Each dimension is stored as its exponent, so decoding an address is
/// shifts and masks: the line index is a bit field of the address, each
/// coordinate a mask of it and each quotient a shift.
///
/// # Examples
///
/// ```
/// use memsim::{AddressMap, Interleave};
///
/// let map = AddressMap::new(4, 8, 4096, 128, 64, Interleave::default())?;
/// let d = map.decode(0x40);       // second cache line
/// assert_eq!(d.channel, 1);        // line-interleaved across channels
/// assert_eq!(map.encode(d), 0x40); // bijective
/// # Ok::<(), memsim::AddressMapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    // log2 of each dimension.
    channel_bits: u32,
    bank_bits: u32,
    row_bits: u32,
    column_bits: u32,
    line_bits: u32,
    interleave: Interleave,
}

fn check_pow2(dimension: &'static str, value: u64) -> Result<u32, AddressMapError> {
    if value == 0 || !value.is_power_of_two() {
        Err(AddressMapError::NotPowerOfTwo { dimension, value })
    } else {
        Ok(value.trailing_zeros())
    }
}

/// The low `bits` bits of `x`.
fn low(x: u64, bits: u32) -> u64 {
    x & ((1 << bits) - 1)
}

impl AddressMap {
    /// Creates a map.
    ///
    /// `columns` counts cache-line slots per row; `line_bytes` is the
    /// cache-line size.
    ///
    /// # Errors
    ///
    /// Every dimension must be a nonzero power of two
    /// ([`AddressMapError::NotPowerOfTwo`]), and their product, the
    /// capacity in bytes, must fit in a `u64`
    /// ([`AddressMapError::CapacityOverflow`]).
    pub fn new(
        channels: u64,
        banks: u64,
        rows: u64,
        columns: u64,
        line_bytes: u64,
        interleave: Interleave,
    ) -> Result<Self, AddressMapError> {
        let map = AddressMap {
            channel_bits: check_pow2("channels", channels)?,
            bank_bits: check_pow2("banks", banks)?,
            row_bits: check_pow2("rows", rows)?,
            column_bits: check_pow2("columns", columns)?,
            line_bits: check_pow2("line_bytes", line_bytes)?,
            interleave,
        };
        let bits = map.line_index_bits() + map.line_bits;
        if bits >= u64::BITS {
            return Err(AddressMapError::CapacityOverflow { bits });
        }
        Ok(map)
    }

    /// Number of channels.
    pub fn channels(&self) -> u64 {
        1 << self.channel_bits
    }

    /// Banks per channel.
    pub fn banks(&self) -> u64 {
        1 << self.bank_bits
    }

    /// Rows per bank.
    pub fn rows(&self) -> u64 {
        1 << self.row_bits
    }

    /// Cache-line columns per row.
    pub fn columns(&self) -> u64 {
        1 << self.column_bits
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_bits
    }

    /// Width of a line index: log2 of the number of lines.
    fn line_index_bits(&self) -> u32 {
        self.channel_bits + self.bank_bits + self.row_bits + self.column_bits
    }

    /// Decodes a physical byte address (wraps modulo capacity).
    #[inline]
    pub fn decode(&self, address: u64) -> DecodedAddress {
        let line = low(address >> self.line_bits, self.line_index_bits());
        let channel = low(line, self.channel_bits);
        let rest = line >> self.channel_bits;
        match self.interleave {
            Interleave::RowBankColumnChannel => DecodedAddress {
                channel,
                bank: low(rest >> self.column_bits, self.bank_bits),
                row: rest >> (self.column_bits + self.bank_bits),
                column: low(rest, self.column_bits),
            },
            Interleave::RowBankColumnChannelXor => DecodedAddress {
                channel: channel ^ xor_fold(rest, self.channel_bits),
                bank: low(rest >> self.column_bits, self.bank_bits),
                row: rest >> (self.column_bits + self.bank_bits),
                column: low(rest, self.column_bits),
            },
        }
    }

    /// Re-encodes coordinates into the canonical byte address.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn encode(&self, d: DecodedAddress) -> u64 {
        assert!(
            d.channel < self.channels(),
            "channel {} out of range",
            d.channel
        );
        assert!(d.bank < self.banks(), "bank {} out of range", d.bank);
        assert!(d.row < self.rows(), "row {} out of range", d.row);
        assert!(
            d.column < self.columns(),
            "column {} out of range",
            d.column
        );
        let (bb, cb) = (self.bank_bits, self.column_bits);
        let (q, channel) = match self.interleave {
            Interleave::RowBankColumnChannel => {
                (((d.row << bb | d.bank) << cb) | d.column, d.channel)
            }
            Interleave::RowBankColumnChannelXor => {
                let q = ((d.row << bb | d.bank) << cb) | d.column;
                (q, d.channel ^ xor_fold(q, self.channel_bits))
            }
        };
        ((q << self.channel_bits) | channel) << self.line_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The division form of [`xor_fold`]: XOR of all base-`modulus`
    /// digits of `q`, 0 for a single channel.
    fn reference_xor_fold(mut q: u64, modulus: u64) -> u64 {
        if modulus <= 1 {
            return 0;
        }
        let mut acc = 0;
        while q > 0 {
            acc ^= q % modulus;
            q /= modulus;
        }
        acc
    }

    /// The number of lines a map holds, as the product of its sizes.
    fn lines(m: &AddressMap) -> u64 {
        m.channels() * m.banks() * m.rows() * m.columns()
    }

    /// [`AddressMap::decode`] in its division form, over the map's sizes.
    fn reference_decode(m: &AddressMap, address: u64) -> DecodedAddress {
        let (channels, banks, columns) = (m.channels(), m.banks(), m.columns());
        let line = (address / m.line_bytes()) % lines(m);
        match m.interleave {
            Interleave::RowBankColumnChannel => {
                let channel = line % channels;
                let rest = line / channels;
                let column = rest % columns;
                let rest = rest / columns;
                DecodedAddress {
                    channel,
                    bank: rest % banks,
                    row: rest / banks,
                    column,
                }
            }
            Interleave::RowBankColumnChannelXor => {
                let r = line % channels;
                let q = line / channels;
                let column = q % columns;
                let rest = q / columns;
                DecodedAddress {
                    channel: r ^ reference_xor_fold(q, channels),
                    bank: rest % banks,
                    row: rest / banks,
                    column,
                }
            }
        }
    }

    /// [`AddressMap::encode`] in its multiply-and-add form.
    fn reference_encode(m: &AddressMap, d: DecodedAddress) -> u64 {
        let (channels, banks, columns) = (m.channels(), m.banks(), m.columns());
        let line = match m.interleave {
            Interleave::RowBankColumnChannel => {
                ((d.row * banks + d.bank) * columns + d.column) * channels + d.channel
            }
            Interleave::RowBankColumnChannelXor => {
                let q = (d.row * banks + d.bank) * columns + d.column;
                q * channels + (d.channel ^ reference_xor_fold(q, channels))
            }
        };
        line * m.line_bytes()
    }

    fn any_interleave() -> impl Strategy<Value = Interleave> {
        prop_oneof![
            Just(Interleave::RowBankColumnChannel),
            Just(Interleave::RowBankColumnChannelXor),
        ]
    }

    proptest! {
        #[test]
        fn shift_and_mask_match_the_division_form(
            channel_bits in 0u32..=4,
            bank_bits in 0u32..=5,
            row_bits in 0u32..=16,
            column_bits in 0u32..=8,
            line_bits in 0u32..=8,
            interleave in any_interleave(),
            addresses in prop::collection::vec(any::<u64>(), 1..32),
            seed in any::<u64>(),
        ) {
            let m = AddressMap::new(
                1 << channel_bits,
                1 << bank_bits,
                1 << row_bits,
                1 << column_bits,
                1 << line_bits,
                interleave,
            )
            .unwrap();
            // Arbitrary u64s lie far beyond the capacity, so most of them
            // exercise the wrap; the first few stay inside it.
            for (i, &address) in addresses.iter().enumerate() {
                let address = if i < 4 { address % (lines(&m) * m.line_bytes()) } else { address };
                let d = m.decode(address);
                let r = reference_decode(&m, address);
                prop_assert_eq!(d.channel, r.channel);
                prop_assert_eq!(d.bank, r.bank);
                prop_assert_eq!(d.row, r.row);
                prop_assert_eq!(d.column, r.column);
            }
            let mut x = seed | 1;
            for _ in 0..16 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let d = DecodedAddress {
                    channel: (x >> 1) % m.channels(),
                    bank: (x >> 9) % m.banks(),
                    row: (x >> 17) % m.rows(),
                    column: (x >> 41) % m.columns(),
                };
                prop_assert_eq!(m.encode(d), reference_encode(&m, d));
            }
        }
    }

    fn map() -> AddressMap {
        AddressMap::new(4, 8, 4096, 128, 64, Interleave::RowBankColumnChannel).unwrap()
    }

    #[test]
    fn rejects_non_power_of_two() {
        let err = AddressMap::new(3, 8, 4096, 128, 64, Interleave::default());
        assert!(matches!(
            err,
            Err(AddressMapError::NotPowerOfTwo {
                dimension: "channels",
                ..
            })
        ));
        assert!(AddressMap::new(4, 0, 4096, 128, 64, Interleave::default()).is_err());
    }

    #[test]
    fn rejects_a_capacity_beyond_u64() {
        let big = 1 << 16;
        let err = AddressMap::new(big, big, big, big, 64, Interleave::default());
        assert_eq!(err, Err(AddressMapError::CapacityOverflow { bits: 70 }));
        assert!(err.unwrap_err().to_string().contains("2^70 bytes"));
        // 2^64 bytes is one too many; 2^63 still fits.
        assert_eq!(
            AddressMap::new(
                1 << 8,
                1 << 16,
                1 << 16,
                1 << 16,
                1 << 8,
                Interleave::default()
            ),
            Err(AddressMapError::CapacityOverflow { bits: 64 })
        );
        let m = AddressMap::new(
            1 << 8,
            1 << 16,
            1 << 16,
            1 << 16,
            1 << 7,
            Interleave::default(),
        )
        .unwrap();
        assert_eq!(m.decode(1 << 63), m.decode(0));
        assert_ne!(m.decode((1 << 63) - 128), m.decode(0));
        assert_eq!(m.decode(u64::MAX).row, (1 << 16) - 1);
    }

    #[test]
    fn capacity() {
        // 4 * 8 * 4096 * 128 * 64 B = 1 GiB: addresses wrap there.
        let m = map();
        assert_eq!(m.decode(1 << 30), m.decode(0));
        assert_ne!(m.decode((1 << 30) - 64), m.decode(0));
    }

    #[test]
    fn consecutive_lines_interleave_across_channels() {
        let m = map();
        for i in 0..8u64 {
            let d = m.decode(i * 64);
            assert_eq!(d.channel, i % 4, "line {i}");
        }
    }

    #[test]
    fn decode_encode_roundtrip_exhaustive_small() {
        let m = AddressMap::new(2, 4, 16, 8, 64, Interleave::RowBankColumnChannel).unwrap();
        for line in 0..lines(&m) {
            let addr = line * 64;
            let d = m.decode(addr);
            assert_eq!(m.encode(d), addr, "line {line}");
        }
    }

    #[test]
    fn roundtrip_both_interleaves() {
        for il in [
            Interleave::RowBankColumnChannel,
            Interleave::RowBankColumnChannelXor,
        ] {
            let m = AddressMap::new(4, 8, 64, 16, 64, il).unwrap();
            for addr in (0..lines(&m) * 64).step_by(64 * 97) {
                let d = m.decode(addr);
                assert_eq!(m.encode(d), addr, "{il:?} addr {addr:#x}");
            }
        }
    }

    #[test]
    fn sub_line_offsets_map_to_same_line() {
        let m = map();
        assert_eq!(m.decode(0x40), m.decode(0x41));
        assert_eq!(m.decode(0x40), m.decode(0x7f));
        assert_ne!(m.decode(0x40), m.decode(0x80));
    }

    #[test]
    fn addresses_wrap_modulo_capacity() {
        let m = map();
        let cap = lines(&m) * m.line_bytes();
        assert_eq!(m.decode(0x40), m.decode(cap + 0x40));
    }

    #[test]
    fn xor_interleave_spreads_channel_multiples() {
        // A stride that is a multiple of the channel count serializes on
        // plain modulo interleaving but spreads under XOR folding.
        let m = AddressMap::new(4, 8, 4096, 128, 64, Interleave::RowBankColumnChannelXor).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in 0..16u64 {
            seen.insert(m.decode(k * 32 * 64).channel); // 32-line stride
        }
        assert_eq!(seen.len(), 4, "all channels touched");
        // Still bijective.
        for k in 0..4096u64 {
            let addr = k * 64;
            assert_eq!(m.encode(m.decode(addr)), addr);
        }
    }

    #[test]
    fn xor_interleave_single_channel_terminates() {
        // Regression: the division-form xor_fold(q, 1) looped forever (`q /= 1`), which
        // hung every single-channel device on its first nonzero address.
        let m = AddressMap::new(1, 8, 4096, 128, 64, Interleave::RowBankColumnChannelXor).unwrap();
        let last_line = (lines(&m) - 1) * 64;
        for k in [1u64, 7, 1 << 20, last_line] {
            let d = m.decode(k);
            assert_eq!(d.channel, 0);
            assert_eq!(m.encode(m.decode(k & !63)), k & !63);
        }
    }
}
