//! [`BatchSource`]: the one streaming-table abstraction of the
//! workspace.
//!
//! Every stage of the audit pipeline — generation, pollution, CSV
//! ingest, deviation detection — consumes or produces tables a bounded
//! batch at a time. Before this trait each stage had its own ad-hoc
//! shape (`Table::chunks` row slices, `CsvChunkReader`'s iterator,
//! bespoke `Iterator<Item = Result<Table, TableError>>` bounds); a
//! `BatchSource` is the single contract they all share:
//!
//! * batches arrive in row order and concatenate to exactly the
//!   source's logical relation;
//! * every batch is a [`Table`] over the *same* schema ([`BatchSource::schema`]);
//! * the item is fallible — a torn CSV stream or failed read
//!   surfaces as a [`TableError`], after which the source is fused
//!   (keeps returning `Ok(None)`);
//! * [`BatchSource::rows_emitted`] is the global row offset of the
//!   *next* batch, so per-batch findings (audit rows, pollution-log
//!   rows) merge by plain offset addition.
//!
//! The two canonical implementations are [`TableBatches`] (an
//! in-memory table re-chunked) and [`crate::CsvChunkReader`] (a CSV
//! stream, the out-of-core reader); the generator and polluter crates
//! add streaming producers on top.
//!
//! ## Implementor guide
//!
//! A conforming implementation needs three things:
//!
//! 1. hold the schema in an `Arc<Schema>` and return batches built
//!    over that same `Arc` (consumers may assume `Arc` pointer
//!    equality or fingerprint equality across batches);
//! 2. fuse after the end or an error: once `next_batch` has returned
//!    `Ok(None)` or `Err(_)`, every later call must return `Ok(None)`;
//! 3. never return an empty batch — return `Ok(None)` instead, so
//!    `while let Some(batch) = src.next_batch()?` loops terminate.
//!
//! [`rows_emitted`](BatchSource::rows_emitted) must equal the sum of
//! `n_rows()` over all batches returned so far. `row_count_hint` is
//! optional and only used for progress/pre-allocation, never for
//! correctness.

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use std::sync::Arc;

/// A fallible, schema-checked stream of [`Table`] batches — the data
/// plane every pipeline stage speaks. See the [module
/// docs](self) for the contract and an implementor guide.
pub trait BatchSource {
    /// The schema every batch is built over.
    fn schema(&self) -> &Arc<Schema>;

    /// The next batch, `Ok(None)` at the end of the stream. After an
    /// `Err` or the first `Ok(None)` the source is fused: all later
    /// calls return `Ok(None)`. Batches are never empty.
    fn next_batch(&mut self) -> Result<Option<Table>, TableError>;

    /// Rows emitted so far — the global row offset of the next batch's
    /// first row. Starts at 0 and grows by `batch.n_rows()` per batch.
    fn rows_emitted(&self) -> usize;

    /// Total rows this source will emit, when known up front (an
    /// in-memory table, a generator's row budget). `None` for open
    /// streams.
    /// A hint only: consumers must not rely on it for correctness.
    fn row_count_hint(&self) -> Option<usize> {
        None
    }
}

/// A `&mut` to a source is itself a source, so adapters can borrow
/// without taking ownership.
impl<S: BatchSource + ?Sized> BatchSource for &mut S {
    fn schema(&self) -> &Arc<Schema> {
        (**self).schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        (**self).next_batch()
    }

    fn rows_emitted(&self) -> usize {
        (**self).rows_emitted()
    }

    fn row_count_hint(&self) -> Option<usize> {
        (**self).row_count_hint()
    }
}

impl<S: BatchSource + ?Sized> BatchSource for Box<S> {
    fn schema(&self) -> &Arc<Schema> {
        (**self).schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        (**self).next_batch()
    }

    fn rows_emitted(&self) -> usize {
        (**self).rows_emitted()
    }

    fn row_count_hint(&self) -> Option<usize> {
        (**self).row_count_hint()
    }
}

/// An in-memory [`Table`] viewed as a [`BatchSource`] of
/// `chunk_rows`-row batches (the last batch may be shorter). Produced
/// by [`Table::batches`]; batches are columnar range copies.
#[derive(Debug)]
pub struct TableBatches<'a> {
    table: &'a Table,
    chunk_rows: usize,
    next_row: usize,
}

impl<'a> TableBatches<'a> {
    pub(crate) fn new(table: &'a Table, chunk_rows: usize) -> Self {
        TableBatches { table, chunk_rows: chunk_rows.max(1), next_row: 0 }
    }
}

impl BatchSource for TableBatches<'_> {
    fn schema(&self) -> &Arc<Schema> {
        self.table.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        if self.next_row >= self.table.n_rows() {
            return Ok(None);
        }
        let end = (self.next_row + self.chunk_rows).min(self.table.n_rows());
        let batch = self.table.slice_rows(self.next_row, end)?;
        self.next_row = end;
        Ok(Some(batch))
    }

    fn rows_emitted(&self) -> usize {
        self.next_row
    }

    fn row_count_hint(&self) -> Option<usize> {
        Some(self.table.n_rows())
    }
}

/// Pre-built batches (or planted errors) replayed as a
/// [`BatchSource`] — the adapter tests and in-process callers use to
/// feed hand-made batch sequences to stream consumers.
#[derive(Debug)]
pub struct ReplaySource {
    schema: Arc<Schema>,
    batches: std::vec::IntoIter<Result<Table, TableError>>,
    rows_emitted: usize,
    done: bool,
}

impl ReplaySource {
    /// Wrap an explicit batch sequence. The `schema` must be the one
    /// the `Ok` batches are built over.
    pub fn new(schema: Arc<Schema>, batches: Vec<Result<Table, TableError>>) -> Self {
        ReplaySource { schema, batches: batches.into_iter(), rows_emitted: 0, done: false }
    }
}

impl BatchSource for ReplaySource {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Table>, TableError> {
        if self.done {
            return Ok(None);
        }
        match self.batches.next() {
            Some(Ok(batch)) => {
                self.rows_emitted += batch.n_rows();
                Ok(Some(batch))
            }
            Some(Err(e)) => {
                self.done = true;
                Err(e)
            }
            None => {
                self.done = true;
                Ok(None)
            }
        }
    }

    fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::value::Value;

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

    /// Drain a source, checking the offset bookkeeping along the way.
    fn drain(mut src: impl BatchSource) -> (Vec<Table>, Option<TableError>) {
        let mut out = Vec::new();
        loop {
            assert_eq!(
                src.rows_emitted(),
                out.iter().map(Table::n_rows).sum::<usize>(),
                "rows_emitted must track the batches"
            );
            match src.next_batch() {
                Ok(Some(b)) => {
                    assert!(!b.is_empty(), "batches must never be empty");
                    out.push(b);
                }
                Ok(None) => {
                    // Fused: stays Ok(None).
                    assert!(matches!(src.next_batch(), Ok(None)));
                    return (out, None);
                }
                Err(e) => {
                    assert!(matches!(src.next_batch(), Ok(None)), "must fuse after an error");
                    return (out, Some(e));
                }
            }
        }
    }

    #[test]
    fn table_batches_cover_the_table_in_order() {
        let t = table(23);
        for chunk_rows in [1, 2, 7, 23, 100] {
            let (batches, err) = drain(t.batches(chunk_rows));
            assert!(err.is_none());
            let mut row = 0;
            for b in &batches {
                for r in 0..b.n_rows() {
                    assert_eq!(b.row(r), t.row(row), "chunk_rows={chunk_rows}, row {row}");
                    row += 1;
                }
            }
            assert_eq!(row, t.n_rows());
            for b in &batches[..batches.len() - 1] {
                assert_eq!(b.n_rows(), chunk_rows);
            }
        }
    }

    #[test]
    fn table_batches_edge_cases() {
        let empty = table(0);
        let (batches, err) = drain(empty.batches(4));
        assert!(batches.is_empty() && err.is_none());
        // chunk_rows = 0 clamps to 1.
        let t = table(3);
        let src = t.batches(0);
        assert_eq!(src.row_count_hint(), Some(3));
        let (batches, _) = drain(src);
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn replay_source_replays_and_fuses_on_error() {
        let t = table(5);
        let schema = t.schema().clone();
        let b1 = t.slice_rows(0, 3).unwrap();
        let b2 = t.slice_rows(3, 5).unwrap();
        let (batches, err) = drain(ReplaySource::new(
            schema.clone(),
            vec![Ok(b1.clone()), Err(TableError::Csv("torn".into())), Ok(b2)],
        ));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].n_rows(), 3);
        assert!(matches!(err, Some(TableError::Csv(_))));
        // A clean replay covers everything.
        let (batches, err) =
            drain(ReplaySource::new(schema, vec![Ok(b1), Ok(t.slice_rows(3, 5).unwrap())]));
        assert_eq!(batches.iter().map(Table::n_rows).sum::<usize>(), 5);
        assert!(err.is_none());
    }

    #[test]
    fn mut_ref_and_box_are_sources_too() {
        fn pull(mut source: impl BatchSource) -> Table {
            source.next_batch().unwrap().unwrap()
        }
        let t = table(4);
        let mut src = t.batches(2);
        // `&mut src` goes through the blanket `&mut S` impl.
        let first = pull(&mut src);
        assert_eq!(first.n_rows(), 2);
        let mut boxed: Box<dyn BatchSource + '_> = Box::new(src);
        assert_eq!(boxed.rows_emitted(), 2);
        assert_eq!(boxed.next_batch().unwrap().unwrap().n_rows(), 2);
        assert!(boxed.next_batch().unwrap().is_none());
    }
}
