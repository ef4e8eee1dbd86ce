//! Memory requests and completions.

use crate::data::LineData;
use comet_units::{ByteCount, Time};
use std::fmt;

/// The operation type of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Read a cache line.
    Read,
    /// Write a cache line.
    Write,
}

impl MemOp {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, MemOp::Read)
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOp::Read => write!(f, "R"),
            MemOp::Write => write!(f, "W"),
        }
    }
}

/// A single cache-line-granularity memory request.
///
/// The record is 48 bytes: a payload, when present, lives in its own
/// heap box, so traces and queues of payload-less requests stay dense and
/// moving a request never copies line bytes. It is `Clone` but not `Copy`.
///
/// # Examples
///
/// ```
/// use comet_units::{ByteCount, Time};
/// use memsim::{MemOp, MemRequest};
///
/// let req = MemRequest::new(0, Time::from_nanos(10.0), MemOp::Read, 0x4000, ByteCount::new(64));
/// assert!(req.op.is_read());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemRequest {
    /// Unique id (trace order).
    pub id: u64,
    /// Arrival time at the memory controller.
    pub arrival: Time,
    /// Operation.
    pub op: MemOp,
    /// Physical byte address.
    pub address: u64,
    /// Transfer size (normally one cache line).
    pub size: ByteCount,
    /// The written line content, when the trace carries data, boxed so the
    /// 128-byte line capacity stays out of the record. Payload-less
    /// requests price at the device's flat (content-oblivious) cost.
    pub payload: Option<Box<LineData>>,
}

impl MemRequest {
    /// Creates a payload-less request.
    pub fn new(id: u64, arrival: Time, op: MemOp, address: u64, size: ByteCount) -> Self {
        MemRequest {
            id,
            arrival,
            op,
            address,
            size,
            payload: None,
        }
    }

    /// Attaches a line payload (builder style), boxing it.
    ///
    /// # Examples
    ///
    /// ```
    /// use comet_units::{ByteCount, Time};
    /// use memsim::{LineData, MemOp, MemRequest};
    ///
    /// let req = MemRequest::new(0, Time::ZERO, MemOp::Write, 0x80, ByteCount::new(64))
    ///     .with_payload(LineData::zeroes(64));
    /// assert_eq!(req.payload.as_deref().map(LineData::len), Some(64));
    /// ```
    pub fn with_payload(mut self, payload: LineData) -> Self {
        self.payload = Some(Box::new(payload));
        self
    }
}

/// A serviced request with its timing (64 bytes; `Clone`, not `Copy`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: MemRequest,
    /// When the device began servicing it.
    pub issued: Time,
    /// When the last data beat arrived at the controller.
    pub finished: Time,
}

impl CompletedRequest {
    /// End-to-end latency seen by the requester (finish − arrival).
    pub fn latency(&self) -> Time {
        self.finished - self.request.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_decomposition() {
        let req = MemRequest::new(
            1,
            Time::from_nanos(100.0),
            MemOp::Write,
            0x80,
            ByteCount::new(64),
        );
        let done = CompletedRequest {
            request: req,
            issued: Time::from_nanos(150.0),
            finished: Time::from_nanos(300.0),
        };
        assert!((done.latency().as_nanos() - 200.0).abs() < 1e-9);
        // Queueing delay (issue - arrival) plus service (finish - issue).
        let parts = (done.issued - done.request.arrival) + (done.finished - done.issued);
        assert!((parts - done.latency()).as_nanos().abs() < 1e-9);
    }

    #[test]
    fn request_records_stay_small() {
        // A field that inlines a line payload again (128 B of capacity)
        // must fail here, not only slow the benchmark down.
        assert!(std::mem::size_of::<MemRequest>() <= 48);
        assert!(std::mem::size_of::<CompletedRequest>() <= 64);
    }

    #[test]
    fn op_display() {
        assert_eq!(MemOp::Read.to_string(), "R");
        assert_eq!(MemOp::Write.to_string(), "W");
        assert!(MemOp::Read.is_read());
        assert!(!MemOp::Write.is_read());
    }
}
