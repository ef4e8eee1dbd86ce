//! NVMain-style text trace I/O.
//!
//! The paper drives its evaluation with SPEC memory traces through NVMain
//! 2.0. NVMain's text format is `<cycle> <R|W> <hex-address> [data...]`;
//! this module reads and writes the timing-relevant subset
//! (`cycle op address`) so externally captured traces can be replayed and
//! synthetic traces can be exported.

use crate::request::{MemOp, MemRequest};
use comet_units::{ByteCount, Time};
use std::fmt;
use std::io::{self, BufRead, Write};

/// CPU clock used to convert trace cycles to wall time (NVMain traces are
/// CPU-cycle-stamped; 2 GHz is its common default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceClock {
    /// Cycle period.
    pub period: Time,
}

impl TraceClock {
    /// A 2 GHz CPU clock.
    pub fn two_ghz() -> Self {
        TraceClock {
            period: Time::from_nanos(0.5),
        }
    }

    /// Converts a cycle stamp to time.
    pub fn time_of(&self, cycle: u64) -> Time {
        self.period * cycle as f64
    }

    /// Converts a time back to cycles, rounding to nearest. Rounding (not
    /// truncation) makes quantization idempotent — `cycle_of(time_of(c)) ==
    /// c` despite the period not being a dyadic float — so a
    /// write→read→write round trip of a trace file is byte-identical.
    pub fn cycle_of(&self, t: Time) -> u64 {
        (t.as_seconds() / self.period.as_seconds()).round() as u64
    }
}

impl Default for TraceClock {
    fn default() -> Self {
        Self::two_ghz()
    }
}

/// A parse failure with line context.
#[derive(Debug)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl From<ParseTraceError> for io::Error {
    fn from(e: ParseTraceError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Parses an NVMain-style text trace into requests.
///
/// Lines are `<cycle> <R|W> <hex address>`; `#`-prefixed lines and blank
/// lines are skipped; any extra whitespace-separated fields (data payload,
/// thread id) are ignored.
///
/// # Errors
///
/// Returns [`ParseTraceError`] (wrapped in `io::Error`) on malformed lines,
/// or the underlying I/O error.
///
/// # Examples
///
/// ```
/// use memsim::{read_trace, TraceClock};
///
/// let text = "0 R 1000\n10 W 1040 deadbeef 0\n# comment\n20 R 1080\n";
/// let reqs = read_trace(text.as_bytes(), TraceClock::two_ghz(), 64)?;
/// assert_eq!(reqs.len(), 3);
/// assert_eq!(reqs[1].address, 0x1040);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn read_trace<R: BufRead>(
    reader: R,
    clock: TraceClock,
    line_bytes: u64,
) -> io::Result<Vec<MemRequest>> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let err = |message: String| ParseTraceError {
            line: lineno + 1,
            message,
        };
        let cycle: u64 = fields
            .next()
            .ok_or_else(|| err("missing cycle".into()))?
            .parse()
            .map_err(|e| err(format!("bad cycle: {e}")))?;
        let op = match fields.next() {
            Some("R") | Some("r") => MemOp::Read,
            Some("W") | Some("w") => MemOp::Write,
            other => return Err(err(format!("bad op {other:?}")).into()),
        };
        let addr_str = fields.next().ok_or_else(|| err("missing address".into()))?;
        let addr_str = addr_str.trim_start_matches("0x");
        let address =
            u64::from_str_radix(addr_str, 16).map_err(|e| err(format!("bad address: {e}")))?;
        out.push(MemRequest::new(
            out.len() as u64,
            clock.time_of(cycle),
            op,
            address,
            ByteCount::new(line_bytes),
        ));
    }
    Ok(out)
}

/// Writes requests as an NVMain-style text trace.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(
    mut writer: W,
    requests: &[MemRequest],
    clock: TraceClock,
) -> io::Result<()> {
    for r in requests {
        writeln!(
            writer,
            "{} {} {:x}",
            clock.cycle_of(r.arrival),
            r.op,
            r.address
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let clock = TraceClock::two_ghz();
        let reqs = vec![
            MemRequest::new(0, clock.time_of(0), MemOp::Read, 0x1000, ByteCount::new(64)),
            MemRequest::new(
                1,
                clock.time_of(100),
                MemOp::Write,
                0xdead40,
                ByteCount::new(64),
            ),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &reqs, clock).unwrap();
        let back = read_trace(buf.as_slice(), clock, 64).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].address, 0x1000);
        assert_eq!(back[1].op, MemOp::Write);
        assert_eq!(back[1].address, 0xdead40);
        assert_eq!(clock.cycle_of(back[1].arrival), 100);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n0 R 40\n\n# trailer\n";
        let reqs = read_trace(text.as_bytes(), TraceClock::default(), 64).unwrap();
        assert_eq!(reqs.len(), 1);
    }

    #[test]
    fn accepts_extra_fields_and_0x_prefix() {
        let text = "5 W 0xff80 cafebabe 3\n";
        let reqs = read_trace(text.as_bytes(), TraceClock::default(), 64).unwrap();
        assert_eq!(reqs[0].address, 0xff80);
        assert_eq!(reqs[0].op, MemOp::Write);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["x R 40\n", "0 Q 40\n", "0 R zz\n", "0 R\n"] {
            let err = read_trace(bad.as_bytes(), TraceClock::default(), 64);
            assert!(err.is_err(), "{bad:?} should fail");
            let msg = format!("{}", err.unwrap_err());
            assert!(msg.contains("line 1"), "error should cite the line: {msg}");
        }
    }

    #[test]
    fn clock_conversion() {
        let clock = TraceClock::two_ghz();
        assert!((clock.time_of(1000).as_nanos() - 500.0).abs() < 1e-9);
        assert_eq!(clock.cycle_of(Time::from_nanos(500.0)), 1000);
    }

    #[test]
    fn cycle_quantization_is_idempotent() {
        // Regression: truncating cycle_of dropped cycles whose period
        // product rounded slightly low (31 -> 30 at 2 GHz), so re-writing a
        // read trace changed its bytes.
        let clock = TraceClock::two_ghz();
        for cycle in [0u64, 1, 31, 62, 124, 241, 1_000_003, (1 << 40) + 31] {
            assert_eq!(clock.cycle_of(clock.time_of(cycle)), cycle, "{cycle}");
        }
    }
}
