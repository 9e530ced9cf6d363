//! [`FaultSource`]: fault injection for any
//! [`BatchSource`](dq_table::BatchSource) pipeline stage.
//!
//! Wraps a source and applies the **batch-unit** faults of a
//! [`FaultPlan`](crate::FaultPlan), anchored on *emitted* batch
//! indices (what the downstream stage observes):
//!
//! * `error batch N` — the call that would emit batch `N` returns an
//!   injected [`TableError::Io`] naming the fault and the global row
//!   offset, then the source fuses;
//! * `truncate batch N` — a torn backing store: batch `N` is cut to
//!   its first half (when non-empty), and the *next* call reports the
//!   injected, located error. Per the `BatchSource` contract a tear is
//!   always loud — `Err`, never a silently shorter relation — which is
//!   exactly what lets `dq detect` flush the report over the rows
//!   before the tear and still mark the scan partial;
//! * `short batch N cap C` — from batch `N` on, emitted batches carry
//!   at most `C` rows (the inner batch is re-chunked; the remainder is
//!   emitted next). Benign: the concatenated row stream is identical,
//!   only the batch boundaries move — chaos for every consumer that
//!   does offset arithmetic;
//! * `latency batch N ms M` — one injected sleep before batch `N`.
//!
//! With an empty plan the wrapper is a pure pass-through; that
//! zero-fault identity is pinned byte-for-byte in
//! `tests/stream_equivalence.rs`.

use crate::plan::{Fault, FaultKind, FaultPlan, Unit};
use dq_table::{BatchSource, Schema, Table, TableError};
use std::sync::Arc;
use std::time::Duration;

/// A [`BatchSource`] wrapper injecting a plan's batch-unit faults.
/// See the crate docs for per-fault semantics.
#[derive(Debug)]
pub struct FaultSource<S> {
    inner: S,
    /// Batch-unit faults, sorted by anchor.
    faults: Vec<Fault>,
    fired: Vec<bool>,
    /// Index of the next batch to emit (downstream view).
    next_index: u64,
    rows_emitted: usize,
    /// Remainder of an inner batch being re-chunked by a `short` cap.
    pending: Option<Table>,
    /// Error to deliver on the next call (a tear's second half).
    deferred: Option<TableError>,
    done: bool,
}

impl<S: BatchSource> FaultSource<S> {
    /// Wrap `inner`, scheduling the batch-unit faults of `plan`.
    pub fn new(inner: S, plan: &FaultPlan) -> Self {
        let faults = plan.in_unit(Unit::Batch);
        let fired = vec![false; faults.len()];
        FaultSource {
            inner,
            faults,
            fired,
            next_index: 0,
            rows_emitted: 0,
            pending: None,
            deferred: None,
            done: false,
        }
    }

    /// Unwrap, discarding the schedule.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The injected-error payload: embeds the fault's plan line plus
    /// the batch index and global row offset where it fired.
    fn injected(&self, fault: &Fault, note: &str) -> TableError {
        TableError::Io(format!(
            "injected fault: {fault}{note} (batch {}, row offset {})",
            self.next_index, self.rows_emitted
        ))
    }

    /// Pull the next rows to emit: the re-chunk remainder first, then
    /// the inner source.
    fn pull(&mut self) -> Result<Option<Table>, TableError> {
        if let Some(rest) = self.pending.take() {
            return Ok(Some(rest));
        }
        self.inner.next_batch()
    }
}

impl<S: BatchSource> BatchSource for FaultSource<S> {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        if self.done {
            return Ok(None);
        }
        if let Some(err) = self.deferred.take() {
            self.done = true;
            return Err(err);
        }
        // Fire the faults due at this emitted-batch index.
        let mut cap: Option<usize> = None;
        for i in 0..self.faults.len() {
            let fault = self.faults[i].clone();
            if fault.at > self.next_index {
                continue;
            }
            match fault.kind {
                FaultKind::Latency(ms) => {
                    if !self.fired[i] {
                        self.fired[i] = true;
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                FaultKind::Short(c) => {
                    let c = c.max(1) as usize;
                    cap = Some(cap.map_or(c, |prev| prev.min(c)));
                }
                FaultKind::Error => {
                    self.done = true;
                    return Err(self.injected(&fault, ""));
                }
                FaultKind::Truncate => {
                    if self.fired[i] {
                        continue;
                    }
                    self.fired[i] = true;
                    // Tear the batch: emit the first half (when any),
                    // then report the located error on the next call.
                    let batch = match self.pull() {
                        Ok(Some(b)) => b,
                        Ok(None) => {
                            self.done = true;
                            return Err(self.injected(&fault, " at end of stream"));
                        }
                        Err(e) => {
                            self.done = true;
                            return Err(e);
                        }
                    };
                    let keep = batch.n_rows() / 2;
                    let err = self.injected(&fault, " — stream torn");
                    if keep == 0 {
                        self.done = true;
                        return Err(err);
                    }
                    let head = batch.slice_rows(0, keep)?;
                    self.deferred = Some(err);
                    self.rows_emitted += head.n_rows();
                    self.next_index += 1;
                    return Ok(Some(head));
                }
            }
        }
        let batch = match self.pull() {
            Ok(Some(b)) => b,
            Ok(None) => {
                self.done = true;
                return Ok(None);
            }
            Err(e) => {
                self.done = true;
                return Err(e);
            }
        };
        let batch = match cap {
            Some(cap) if batch.n_rows() > cap => {
                let head = batch.slice_rows(0, cap)?;
                self.pending = Some(batch.slice_rows(cap, batch.n_rows())?);
                head
            }
            _ => batch,
        };
        self.rows_emitted += batch.n_rows();
        self.next_index += 1;
        Ok(Some(batch))
    }

    fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }

    fn row_count_hint(&self) -> Option<usize> {
        // A hint only (never correctness): pass it through even though
        // a disruptive plan may cut the stream short.
        self.inner.row_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::{SchemaBuilder, Value};

    fn table(rows: usize) -> Table {
        let schema = SchemaBuilder::new()
            .nominal("c", ["x", "y"])
            .numeric("n", 0.0, 1000.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..rows {
            t.push_row(&[Value::Nominal((i % 2) as u32), Value::Number(i as f64)]).unwrap();
        }
        t
    }

    /// A plan of one fault.
    fn plan(kind: FaultKind, unit: Unit, at: u64) -> FaultPlan {
        FaultPlan::new(vec![Fault { kind, unit, at }])
    }

    /// Drain, asserting the BatchSource contract along the way.
    fn drain<S: BatchSource>(mut src: S) -> (Vec<Table>, Option<TableError>) {
        let mut out = Vec::new();
        loop {
            assert_eq!(src.rows_emitted(), out.iter().map(Table::n_rows).sum::<usize>());
            match src.next_batch() {
                Ok(Some(b)) => {
                    assert!(!b.is_empty(), "batches must never be empty");
                    out.push(b);
                }
                Ok(None) => {
                    assert!(matches!(src.next_batch(), Ok(None)), "must fuse");
                    return (out, None);
                }
                Err(e) => {
                    assert!(matches!(src.next_batch(), Ok(None)), "must fuse after error");
                    return (out, Some(e));
                }
            }
        }
    }

    fn rows(batches: &[Table]) -> usize {
        batches.iter().map(Table::n_rows).sum()
    }

    #[test]
    fn empty_plan_is_identity() {
        let t = table(23);
        let (batches, err) = drain(FaultSource::new(t.batches(7), &FaultPlan::none()));
        assert!(err.is_none());
        assert_eq!(rows(&batches), 23);
        let mut row = 0;
        for b in &batches {
            for r in 0..b.n_rows() {
                assert_eq!(b.row(r), t.row(row));
                row += 1;
            }
        }
    }

    #[test]
    fn error_fault_fires_at_emitted_index_with_location() {
        let t = table(40);
        let (batches, err) =
            drain(FaultSource::new(t.batches(10), &plan(FaultKind::Error, Unit::Batch, 2)));
        assert_eq!(batches.len(), 2, "two batches precede the fault");
        let msg = err.expect("must error").to_string();
        assert!(msg.contains("injected fault: error batch 2"), "{msg}");
        assert!(msg.contains("row offset 20"), "{msg}");
    }

    #[test]
    fn truncate_emits_half_batch_then_located_error() {
        let t = table(40);
        let (batches, err) =
            drain(FaultSource::new(t.batches(10), &plan(FaultKind::Truncate, Unit::Batch, 1)));
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].n_rows(), 5, "the torn batch is cut to its first half");
        let msg = err.expect("a tear must be loud").to_string();
        assert!(msg.contains("truncate batch 1") && msg.contains("torn"), "{msg}");
        // The rows that did flow are the true prefix.
        let mut row = 0;
        for b in &batches {
            for r in 0..b.n_rows() {
                assert_eq!(b.row(r), t.row(row));
                row += 1;
            }
        }
    }

    #[test]
    fn short_fault_rechunks_but_preserves_every_row() {
        let t = table(40);
        let (batches, err) =
            drain(FaultSource::new(t.batches(10), &plan(FaultKind::Short(3), Unit::Batch, 1)));
        assert!(err.is_none());
        assert_eq!(rows(&batches), 40, "short is benign: all rows flow");
        assert_eq!(batches[0].n_rows(), 10, "before the anchor: untouched");
        for b in &batches[1..] {
            assert!(b.n_rows() <= 3, "past the anchor: capped at 3, got {}", b.n_rows());
        }
        let mut row = 0;
        for b in &batches {
            for r in 0..b.n_rows() {
                assert_eq!(b.row(r), t.row(row));
                row += 1;
            }
        }
    }

    #[test]
    fn truncate_past_the_end_reports_end_of_stream() {
        let t = table(5);
        let (batches, err) =
            drain(FaultSource::new(t.batches(10), &plan(FaultKind::Truncate, Unit::Batch, 9)));
        assert_eq!(rows(&batches), 5, "the whole stream precedes the anchor");
        // Anchor never reached: the stream ended first, cleanly.
        assert!(err.is_none());

        // Anchor exactly at the end-of-stream call: loud, located.
        let (batches, err) =
            drain(FaultSource::new(t.batches(5), &plan(FaultKind::Truncate, Unit::Batch, 1)));
        assert_eq!(rows(&batches), 5);
        let msg = err.expect("anchor on the final call is a tear").to_string();
        assert!(msg.contains("at end of stream"), "{msg}");
    }

    #[test]
    fn latency_is_benign_and_fires_once() {
        let t = table(12);
        let t0 = std::time::Instant::now();
        let (batches, err) =
            drain(FaultSource::new(t.batches(4), &plan(FaultKind::Latency(20), Unit::Batch, 1)));
        assert!(err.is_none());
        assert_eq!(rows(&batches), 12);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }
}
