//! The data plane: line payloads and content-aware write pricing.
//!
//! The flat `write_line` energy every PCM configuration carries prices a
//! write as if every cell were reprogrammed on every store. The biggest
//! PCM lever in the literature says otherwise: most written bits do not
//! change (Song et al., *Improving Phase Change Memory Performance with
//! Data Content Aware Access*), and per-level transition pulses differ by
//! an order of magnitude (Sevison et al., *Phase change dynamics and
//! 2-dimensional 4-bit memory in Ge₂Sb₂Te₅*). Pricing that requires the
//! stack to carry *content*:
//!
//! * [`LineData`] — a fixed-capacity cache-line payload, carried boxed by
//!   [`MemRequest`](crate::MemRequest) (and by the serve layer's sourced
//!   requests) so payload-less request records stay small;
//! * [`WritePricer`] — the contract a content-aware device delegates
//!   write pricing to. The pricer prices the new payload against the
//!   line's stored cell image *in place*: it reads the old image from the
//!   device's slot and leaves the new one there, returning energy,
//!   latency and programmed cell counts. Policies (content-oblivious
//!   per-level pricing, DCW read-modify-compare, Flip-N-Write) and the
//!   MLC codec live above the simulator, in `comet-data`; the simulator
//!   only owns the mechanism (the line store and the dispatch).
//!
//! Devices that do not override
//! [`MemoryDevice::access_line`](crate::MemoryDevice::access_line) ignore
//! payloads entirely, so the flat-cost baseline stays the default; they
//! say so through
//! [`MemoryDevice::reads_payloads`](crate::MemoryDevice::reads_payloads),
//! and the serve engine then generates no payloads for them.

use comet_units::{Energy, Time};
use std::fmt;

/// Capacity of a [`LineData`] payload — the widest cache line in the
/// workspace (COMET's 128 B lines; DRAM/EPCM use 64 B).
pub const MAX_LINE_BYTES: usize = 128;

/// A cache-line payload: up to [`MAX_LINE_BYTES`] bytes, inline.
///
/// The type is `Copy`, always zero-fills its tail, and compares by
/// content. Requests hold it in a `Box`, so its 128-byte capacity is
/// paid only by requests that carry data.
///
/// # Examples
///
/// ```
/// use memsim::LineData;
///
/// let line = LineData::from_bytes(&[0xAB; 64]);
/// assert_eq!(line.len(), 64);
/// assert_eq!(line.bytes()[0], 0xAB);
/// assert_eq!(line, LineData::from_bytes(&[0xAB; 64]));
/// assert_ne!(line, LineData::zeroes(64));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineData {
    len: u8,
    bytes: [u8; MAX_LINE_BYTES],
}

impl LineData {
    /// Wraps a byte slice (zero-padding the unused tail).
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`MAX_LINE_BYTES`].
    pub fn from_bytes(data: &[u8]) -> Self {
        assert!(
            data.len() <= MAX_LINE_BYTES,
            "line payload of {} bytes exceeds the {MAX_LINE_BYTES}-byte capacity",
            data.len()
        );
        let mut bytes = [0u8; MAX_LINE_BYTES];
        bytes[..data.len()].copy_from_slice(data);
        LineData {
            len: data.len() as u8,
            bytes,
        }
    }

    /// An all-zero payload of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_LINE_BYTES`].
    pub fn zeroes(len: usize) -> Self {
        assert!(len <= MAX_LINE_BYTES, "line of {len} bytes too wide");
        LineData {
            len: len as u8,
            bytes: [0u8; MAX_LINE_BYTES],
        }
    }

    /// The payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// The payload bytes, writable in place (the zero tail past
    /// [`LineData::len`] stays out of reach, so equality stays
    /// content-only).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..self.len as usize]
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Full 128-byte dumps drown test output; show length + a prefix.
        write!(f, "LineData({}B", self.len)?;
        for b in self.bytes().iter().take(8) {
            write!(f, " {b:02x}")?;
        }
        if self.len() > 8 {
            write!(f, " …")?;
        }
        write!(f, ")")
    }
}

/// The priced cost of one line write, as decided by a [`WritePricer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteCost {
    /// Array energy of the write (pulses actually fired, plus any
    /// read-modify-compare probe overhead the policy pays).
    pub energy: Energy,
    /// Array occupancy of the write (pulses fire in parallel across a
    /// line's cells, so this is the slowest programmed cell — zero when
    /// every cell is conserved).
    pub latency: Time,
    /// Cells whose state the write actually reprograms.
    pub cells_written: u64,
    /// Cells the line occupies.
    pub cells_total: u64,
}

/// A priced write: its cost plus the cell image the line holds afterwards
/// (the pricer-private physical representation — e.g. levels plus
/// Flip-N-Write flip bits). `None` means the policy keeps no state for the
/// line (content-oblivious pricing) and any previous image is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedWrite {
    /// The cost of the write.
    pub cost: WriteCost,
    /// The new stored cell image, if the policy tracks one.
    pub image: Option<Vec<u8>>,
}

/// Prices line writes from their content.
///
/// Implementations are deterministic pure functions of the old image and
/// the payload. The device owns the line store: for each write it hands
/// [`WritePricer::price_in_place`] the line's slot, cut to
/// [`WritePricer::image_len`] bytes, and the pricer overwrites the old
/// image with the new one. A line never written, or whose image a
/// payload-less write dropped, reads as all zeroes — the erased state —
/// and so do the bytes past the end of a shorter image the line held
/// before.
pub trait WritePricer: Send + fmt::Debug {
    /// The length of the cell image a `len`-byte payload leaves, or `None`
    /// if the policy keeps no per-line state (the device then keeps no
    /// store for it).
    fn image_len(&self, len: usize) -> Option<usize>;

    /// Prices writing `data` over the line's stored image and replaces the
    /// image with the new one, in place. `image` holds exactly
    /// `image_len(data.len())` bytes (none for a stateless policy).
    fn price_in_place(&self, image: &mut [u8], data: &LineData) -> WriteCost;

    /// Prices writing `data` over `stored` (`None`: the erased line) and
    /// returns the new image: the allocating form of
    /// [`WritePricer::price_in_place`], whose arithmetic it shares. A
    /// `stored` image shorter than the new one reads as erased past its
    /// end; a longer one is read only up to the new image's length.
    fn price_write(&self, stored: Option<&[u8]>, data: &LineData) -> PricedWrite {
        let len = self.image_len(data.len());
        let (old, n) = (stored.unwrap_or(&[]), len.unwrap_or(0));
        let mut image = Vec::with_capacity(n);
        image.extend_from_slice(&old[..old.len().min(n)]);
        image.resize(n, 0);
        let cost = self.price_in_place(&mut image, data);
        PricedWrite {
            cost,
            image: len.map(|_| image),
        }
    }

    /// Prices a write whose content is unknown (a request that carries no
    /// payload). Policies charge the content-oblivious worst case here,
    /// and the device drops the line's image — its content is no longer
    /// known.
    fn price_unknown(&self, line_bytes: u64) -> WriteCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip_and_equality() {
        let data: Vec<u8> = (0..100u8).collect();
        let line = LineData::from_bytes(&data);
        assert_eq!(line.bytes(), &data[..]);
        assert_eq!(line.len(), 100);
        assert!(!line.is_empty());
        // Tail zero-fill makes equality content-only.
        let again = LineData::from_bytes(&data);
        assert_eq!(line, again);
    }

    #[test]
    fn zeroes_are_zero() {
        let z = LineData::zeroes(64);
        assert_eq!(z.len(), 64);
        assert!(z.bytes().iter().all(|&b| b == 0));
        assert!(LineData::zeroes(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_payload_rejected() {
        let _ = LineData::from_bytes(&[0u8; MAX_LINE_BYTES + 1]);
    }

    #[test]
    fn debug_is_compact() {
        let line = LineData::from_bytes(&[0xFF; 64]);
        let text = format!("{line:?}");
        assert!(text.len() < 64, "debug stays short: {text}");
        assert!(text.contains("64B"));
    }
}
