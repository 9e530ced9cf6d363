//! Fault-wrapping [`Read`]/[`Write`] adapters.
//!
//! [`FaultRead`] and [`FaultWrite`] sit between a consumer and any
//! byte stream and apply the **byte-unit** faults of a
//! [`FaultPlan`](crate::FaultPlan) at exact offsets:
//!
//! * `error byte N` — bytes before `N` flow normally, then the next
//!   op fails with an injected [`std::io::Error`] whose message embeds
//!   the fault's plan line;
//! * `truncate byte N` — a torn stream: reads hit end-of-file at `N`,
//!   writes silently drop everything from `N` on (a torn final write —
//!   the write *reports* success, exactly like a crash after the
//!   page-cache accepted the bytes). The consumer side is what the
//!   chaos suite probes: readers must detect the tear from framing
//!   (manifest row counts, CSV expected-row checks) rather than trust
//!   stream length;
//! * `short byte N cap C` — from offset `N` on, every op moves at most
//!   `C` bytes. Benign: `write_all`/`read_exact` loops still move every
//!   byte, only the op boundaries change;
//! * `latency byte N ms M` — one injected sleep when offset `N` is
//!   crossed.
//!
//! Ops are clipped so fault anchors are hit exactly: a read spanning an
//! `error byte 100` anchor first returns the bytes up to offset 100,
//! and only the *next* op fails.

use crate::plan::{Fault, FaultKind, FaultPlan, Unit};
use std::io::{self, Read, Write};
use std::time::Duration;

/// The shared byte-offset fault engine behind [`FaultRead`] and
/// [`FaultWrite`].
#[derive(Debug)]
struct ByteFaults {
    /// Byte-unit faults, sorted by anchor.
    faults: Vec<Fault>,
    /// Fired flags, parallel to `faults` (latency fires once;
    /// error/truncate latch).
    fired: Vec<bool>,
    offset: u64,
}

/// What the engine decides for the next op at the current offset.
enum Gate {
    /// Proceed, moving at most this many bytes.
    Allow(usize),
    /// The stream is torn here: reads see EOF, writes drop bytes.
    Torn,
    /// Fail with this injected error.
    Fail(io::Error),
}

impl ByteFaults {
    fn new(plan: &FaultPlan) -> Self {
        let faults = plan.in_unit(Unit::Byte);
        let fired = vec![false; faults.len()];
        ByteFaults { faults, fired, offset: 0 }
    }

    /// Run the schedule against an op of `want` bytes at the current
    /// offset: fire due latencies, stop at due error/truncate anchors,
    /// clip to the nearest upcoming anchor and the tightest active
    /// `short` cap.
    fn gate(&mut self, want: usize) -> Gate {
        let mut allow = want as u64;
        let mut cap = u64::MAX;
        for i in 0..self.faults.len() {
            let at = self.faults[i].at;
            match self.faults[i].kind {
                FaultKind::Latency(ms) => {
                    if at <= self.offset && !self.fired[i] {
                        self.fired[i] = true;
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                FaultKind::Short(c) => {
                    if at <= self.offset {
                        cap = cap.min(c.max(1));
                    } else {
                        // Clip so the cap binds exactly from its anchor.
                        allow = allow.min(at - self.offset);
                    }
                }
                FaultKind::Error => {
                    if at <= self.offset {
                        return Gate::Fail(injected_io(&self.faults[i], self.offset));
                    }
                    allow = allow.min(at - self.offset);
                }
                FaultKind::Truncate => {
                    if at <= self.offset {
                        return Gate::Torn;
                    }
                    allow = allow.min(at - self.offset);
                }
            }
        }
        Gate::Allow(allow.min(cap).min(want as u64) as usize)
    }
}

/// The error an `error` fault injects: its message embeds the fault's
/// plan line and the exact offset, so a failing run names its cause.
fn injected_io(fault: &Fault, offset: u64) -> io::Error {
    io::Error::other(format!("injected fault: {fault} (offset {offset})"))
}

/// A [`Read`] wrapper applying a plan's byte-unit faults. See the
/// crate-level docs.
#[derive(Debug)]
pub struct FaultRead<R> {
    inner: R,
    faults: ByteFaults,
}

impl<R: Read> FaultRead<R> {
    /// Wrap `inner`, scheduling the byte-unit faults of `plan`.
    pub fn new(inner: R, plan: &FaultPlan) -> Self {
        FaultRead { inner, faults: ByteFaults::new(plan) }
    }

    /// Bytes delivered so far.
    pub fn offset(&self) -> u64 {
        self.faults.offset
    }

    /// Unwrap, discarding the schedule.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let allow = match self.faults.gate(buf.len()) {
            Gate::Allow(n) => n,
            Gate::Torn => return Ok(0),
            Gate::Fail(e) => return Err(e),
        };
        let n = self.inner.read(&mut buf[..allow])?;
        self.faults.offset += n as u64;
        Ok(n)
    }
}

/// A [`Write`] wrapper applying a plan's byte-unit faults. See the
/// crate-level docs — `truncate` here is the torn-final-write
/// simulator: bytes past the anchor are acknowledged but never reach
/// the underlying writer.
#[derive(Debug)]
pub struct FaultWrite<W> {
    inner: W,
    faults: ByteFaults,
}

impl<W: Write> FaultWrite<W> {
    /// Wrap `inner`, scheduling the byte-unit faults of `plan`.
    pub fn new(inner: W, plan: &FaultPlan) -> Self {
        FaultWrite { inner, faults: ByteFaults::new(plan) }
    }

    /// Bytes accepted so far (torn-dropped bytes included — the writer
    /// believed they landed).
    pub fn offset(&self) -> u64 {
        self.faults.offset
    }

    /// Unwrap, discarding the schedule.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let allow = match self.faults.gate(buf.len()) {
            Gate::Allow(n) => n,
            Gate::Torn => {
                // Torn write: acknowledge without persisting.
                self.faults.offset += buf.len() as u64;
                return Ok(buf.len());
            }
            Gate::Fail(e) => return Err(e),
        };
        let n = self.inner.write(&buf[..allow])?;
        self.faults.offset += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan of one fault.
    fn plan(kind: FaultKind, unit: Unit, at: u64) -> FaultPlan {
        FaultPlan::new(vec![Fault { kind, unit, at }])
    }

    #[test]
    fn error_fault_delivers_prefix_then_fails_at_exact_offset() {
        let data = [7u8; 100];
        let mut r = FaultRead::new(&data[..], &plan(FaultKind::Error, Unit::Byte, 40));
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(out, vec![7u8; 40], "bytes before the anchor must flow");
        let msg = err.to_string();
        assert!(msg.contains("injected fault: error byte 40"), "{msg}");
        assert!(msg.contains("offset 40"), "{msg}");
    }

    #[test]
    fn truncate_fault_is_early_eof_on_read_and_torn_on_write() {
        let data = [3u8; 64];
        let mut r = FaultRead::new(&data[..], &plan(FaultKind::Truncate, Unit::Byte, 10));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 10);

        let mut w = FaultWrite::new(Vec::new(), &plan(FaultKind::Truncate, Unit::Byte, 10));
        w.write_all(&[9u8; 64]).unwrap(); // reports success...
        w.flush().unwrap();
        assert_eq!(w.offset(), 64);
        assert_eq!(w.into_inner(), vec![9u8; 10], "...but only the prefix landed");
    }

    #[test]
    fn short_faults_are_byte_identical_with_smaller_ops() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut r = FaultRead::new(&data[..], &plan(FaultKind::Short(3), Unit::Byte, 17));
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(r.offset() <= 17 || n <= 3, "cap must bind past the anchor (got {n})");
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, data, "short reads must not lose or reorder bytes");

        let mut w = FaultWrite::new(Vec::new(), &plan(FaultKind::Short(5), Unit::Byte, 0));
        w.write_all(&data).unwrap();
        assert_eq!(w.into_inner(), data);
    }

    #[test]
    fn empty_plan_is_a_transparent_wrapper() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut out = Vec::new();
        FaultRead::new(&data[..], &FaultPlan::none()).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        let mut w = FaultWrite::new(Vec::new(), &FaultPlan::none());
        w.write_all(&data).unwrap();
        assert_eq!(w.into_inner(), data);
    }

    #[test]
    fn write_error_fault_preserves_prefix() {
        let mut w = FaultWrite::new(Vec::new(), &plan(FaultKind::Error, Unit::Byte, 8));
        let err = w.write_all(&[1u8; 32]).unwrap_err();
        assert!(err.to_string().contains("error byte 8"), "{err}");
        assert_eq!(w.into_inner(), vec![1u8; 8]);
    }
}
