//! The [`Table`]: a schema plus columnar data.

use crate::column::Column;
use crate::error::TableError;
use crate::schema::Schema;
use crate::value::Value;
use crate::{AttrIdx, RowIdx};
use std::sync::Arc;

/// A single relation: shared schema + columnar storage.
///
/// All mutation is by full record push, by single-cell [`Table::set`]
/// (what the polluters use), or by row duplication / deletion (what the
/// duplicator polluter uses). Cell kinds are enforced; domain membership
/// is not (dirty data must be representable).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// An empty table over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let columns = schema.attributes().iter().map(|a| Column::for_type(&a.ty)).collect();
        Table { schema, columns, n_rows: 0 }
    }

    /// Assemble a table from columns filled outside it (the CSV
    /// reader's typed per-batch columns). Every column must match its attribute's
    /// kind and hold exactly `n_rows` cells.
    pub(crate) fn from_parts(
        schema: Arc<Schema>,
        columns: Vec<Column>,
        n_rows: usize,
    ) -> Result<Self, TableError> {
        if columns.len() != schema.len() {
            return Err(TableError::ArityMismatch { expected: schema.len(), got: columns.len() });
        }
        for (attr, col) in schema.attributes().iter().zip(&columns) {
            let kind_ok = matches!(
                (&attr.ty, col),
                (crate::schema::AttrType::Nominal { .. }, Column::Nominal(_))
                    | (crate::schema::AttrType::Numeric { .. }, Column::Number(_))
                    | (crate::schema::AttrType::Date { .. }, Column::Date(_))
            );
            if !kind_ok || col.len() != n_rows {
                return Err(TableError::TypeMismatch {
                    attribute: attr.name.clone(),
                    value: format!("{} column of {} cells", col.kind_name(), col.len()),
                });
            }
        }
        Ok(Table { schema, columns, n_rows })
    }

    /// An empty table with row capacity pre-reserved.
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        let mut t = Table::new(schema);
        for c in &mut t.columns {
            c.reserve(rows);
        }
        t
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (= schema width).
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Append a record after validating it against the schema.
    pub fn push_row(&mut self, record: &[Value]) -> Result<RowIdx, TableError> {
        self.schema.validate_record(record)?;
        for (col, v) in self.columns.iter_mut().zip(record) {
            col.push(*v);
        }
        self.n_rows += 1;
        Ok(self.n_rows - 1)
    }

    /// Append a record checking only arity and cell *kinds*, not
    /// nominal code ranges — the door through which polluted records
    /// enter a table ("dirty data must be representable"); see also
    /// [`Table::set`], which is equally lenient.
    pub fn push_row_lenient(&mut self, record: &[Value]) -> Result<RowIdx, TableError> {
        if record.len() != self.n_cols() {
            return Err(TableError::ArityMismatch { expected: self.n_cols(), got: record.len() });
        }
        for (v, attr) in record.iter().zip(self.schema.attributes()) {
            if !attr.ty.kind_matches(v) {
                return Err(TableError::TypeMismatch {
                    attribute: attr.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        for (col, v) in self.columns.iter_mut().zip(record) {
            col.push(*v);
        }
        self.n_rows += 1;
        Ok(self.n_rows - 1)
    }

    /// The value at (`row`, `col`); panics if out of range.
    #[inline]
    pub fn get(&self, row: RowIdx, col: AttrIdx) -> Value {
        self.columns[col].get(row)
    }

    /// Overwrite the cell at (`row`, `col`), checking bounds and kind.
    pub fn set(&mut self, row: RowIdx, col: AttrIdx, value: Value) -> Result<(), TableError> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfRange(row));
        }
        let attr = self.schema.attr(col);
        if !attr.ty.kind_matches(&value) {
            return Err(TableError::TypeMismatch {
                attribute: attr.name.clone(),
                value: value.to_string(),
            });
        }
        self.columns[col].set(row, value);
        Ok(())
    }

    /// Copy a full row out as a record.
    pub fn row(&self, row: RowIdx) -> Vec<Value> {
        (0..self.n_cols()).map(|c| self.get(row, c)).collect()
    }

    /// Copy a full row into a caller-provided buffer (no allocation when
    /// iterating many rows with a workhorse buffer).
    pub fn row_into(&self, row: RowIdx, buf: &mut Vec<Value>) {
        buf.clear();
        buf.extend((0..self.n_cols()).map(|c| self.get(row, c)));
    }

    /// Copy a full row into a caller-provided buffer of
    /// [`TypedCell`](crate::column::TypedCell)s — the typed-slice
    /// sibling of [`Table::row_into`] for scans that never need
    /// `Value`s (one enum match per cell, dates pre-widened to their
    /// day number).
    pub fn typed_row_into(&self, row: RowIdx, buf: &mut Vec<crate::column::TypedCell>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.typed_cell(row)));
    }

    /// Iterate over all rows as records (allocates one `Vec` per row;
    /// prefer [`Table::row_into`] in hot loops).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows).map(move |r| self.row(r))
    }

    /// Duplicate `row`, appending the copy as the last row; returns the
    /// new row's index.
    pub fn duplicate_row(&mut self, row: RowIdx) -> Result<RowIdx, TableError> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfRange(row));
        }
        for col in &mut self.columns {
            col.push_copy_of(row);
        }
        self.n_rows += 1;
        Ok(self.n_rows - 1)
    }

    /// Delete `row`, shifting all later rows up by one (order-
    /// preserving; O(n · columns)).
    pub fn delete_row(&mut self, row: RowIdx) -> Result<(), TableError> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfRange(row));
        }
        for col in &mut self.columns {
            col.remove(row);
        }
        self.n_rows -= 1;
        Ok(())
    }

    /// Borrow a column.
    pub fn column(&self, col: AttrIdx) -> &Column {
        &self.columns[col]
    }

    /// Append all rows of `other` by columnar bulk copy — how sharded
    /// generators stitch their chunks back together without going
    /// through per-row `Value` records.
    ///
    /// The schemas must agree under the canonical
    /// [`Schema::fingerprint`], not merely per-index: two schemas whose
    /// attributes are permutations of each other can have coinciding
    /// column kinds at every index (so the columnar copy would
    /// *succeed* and silently scramble attribute meanings), which is
    /// exactly what the fingerprint comparison rejects with a typed
    /// [`TableError::SchemaFingerprint`]. Chunks built over the same
    /// `Arc<Schema>` skip the check entirely.
    pub fn append_rows(&mut self, other: &Table) -> Result<(), TableError> {
        if !Arc::ptr_eq(&self.schema, &other.schema) {
            let (expected, got) = (self.schema.fingerprint(), other.schema.fingerprint());
            if expected != got {
                return Err(TableError::SchemaFingerprint { expected, got });
            }
        }
        for (col, o) in self.columns.iter_mut().zip(&other.columns) {
            col.append_from(o);
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// Append a copy of row `row` of `other` by columnar copy, with no
    /// per-cell `Value` records or kind checks — how pollution emits a
    /// row no polluter touched. The schemas must agree as for
    /// [`Table::append_rows`]. Returns the new row's index.
    pub fn push_row_from(&mut self, other: &Table, row: RowIdx) -> Result<RowIdx, TableError> {
        if row >= other.n_rows {
            return Err(TableError::RowOutOfRange(row));
        }
        if !Arc::ptr_eq(&self.schema, &other.schema) {
            let (expected, got) = (self.schema.fingerprint(), other.schema.fingerprint());
            if expected != got {
                return Err(TableError::SchemaFingerprint { expected, got });
            }
        }
        for (col, o) in self.columns.iter_mut().zip(&other.columns) {
            col.push_from(o, row);
        }
        self.n_rows += 1;
        Ok(self.n_rows - 1)
    }

    /// A copy of the contiguous row range `start..end` as a new table
    /// over the same `Arc<Schema>` (columnar bulk copy, no per-row
    /// `Value` records). An empty range yields an empty table.
    pub fn slice_rows(&self, start: RowIdx, end: RowIdx) -> Result<Table, TableError> {
        if start > end || end > self.n_rows {
            return Err(TableError::RowOutOfRange(end));
        }
        let mut out = Table::with_capacity(self.schema.clone(), end - start);
        for (col, o) in out.columns.iter_mut().zip(&self.columns) {
            col.append_range_from(o, start, end);
        }
        out.n_rows = end - start;
        Ok(out)
    }

    /// View this table as a [`BatchSource`](crate::BatchSource) of
    /// `chunk_rows`-row batches — the in-memory canonical
    /// implementation of the trait. `chunk_rows` is clamped to at
    /// least 1; the last batch may be shorter.
    pub fn batches(&self, chunk_rows: usize) -> crate::batch::TableBatches<'_> {
        crate::batch::TableBatches::new(self, chunk_rows)
    }

    /// Count rows whose cell in `col` satisfies `pred`.
    pub fn count_where<F: FnMut(Value) -> bool>(&self, col: AttrIdx, mut pred: F) -> usize {
        (0..self.n_rows).filter(|&r| pred(self.get(r, col))).count()
    }

    /// A new table containing only the rows selected by `keep`
    /// (indices must be in range; order and multiplicity respected).
    pub fn select_rows(&self, keep: &[RowIdx]) -> Result<Table, TableError> {
        let mut out = Table::with_capacity(self.schema.clone(), keep.len());
        let mut buf = Vec::with_capacity(self.n_cols());
        for &r in keep {
            if r >= self.n_rows {
                return Err(TableError::RowOutOfRange(r));
            }
            self.row_into(r, &mut buf);
            for (col, v) in out.columns.iter_mut().zip(&buf) {
                col.push(*v);
            }
            out.n_rows += 1;
        }
        Ok(out)
    }

    /// Split the row range into `n` contiguous, balanced chunks — the
    /// sharding substrate for parallel record scans. Chunk sizes differ
    /// by at most one row; concatenating the chunks' row ranges always
    /// reproduces `0..n_rows` exactly, so a sharded scan visits every
    /// row once and in order. `n` is clamped to at least 1 and at most
    /// `n_rows` (an empty table yields no chunks).
    pub fn chunks(&self, n: usize) -> Vec<RowSlice<'_>> {
        let n = n.clamp(1, self.n_rows.max(1));
        if self.n_rows == 0 {
            return Vec::new();
        }
        let base = self.n_rows / n;
        let extra = self.n_rows % n;
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            out.push(RowSlice { table: self, start, end: start + len });
            start += len;
        }
        debug_assert_eq!(start, self.n_rows);
        out
    }

    /// Report the positions of all cells whose value lies *outside* the
    /// declared attribute domain (NULLs are never reported). This is the
    /// trivial schema-based scrub the paper contrasts data auditing
    /// against: it can only catch errors that leave the domain.
    pub fn domain_violations(&self) -> Vec<(RowIdx, AttrIdx)> {
        let mut out = Vec::new();
        for (c, attr) in self.schema.attributes().iter().enumerate() {
            for r in 0..self.n_rows {
                let v = self.get(r, c);
                if !v.is_null() && !attr.ty.contains(&v) {
                    out.push((r, c));
                }
            }
        }
        out
    }
}

/// A borrowed view of a contiguous row range of a [`Table`], produced
/// by [`Table::chunks`]. Row indices are **global** table indices, so a
/// per-chunk worker reports findings that merge without translation.
#[derive(Debug, Clone, Copy)]
pub struct RowSlice<'a> {
    table: &'a Table,
    start: RowIdx,
    end: RowIdx,
}

impl<'a> RowSlice<'a> {
    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// First (global) row index covered by this chunk.
    pub fn start(&self) -> RowIdx {
        self.start
    }

    /// One past the last (global) row index covered by this chunk.
    pub fn end(&self) -> RowIdx {
        self.end
    }

    /// Number of rows in this chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the chunk covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The chunk's global row indices, in order.
    pub fn rows(&self) -> std::ops::Range<RowIdx> {
        self.start..self.end
    }

    /// The value at (global `row`, `col`); panics if `row` lies outside
    /// this chunk.
    pub fn get(&self, row: RowIdx, col: AttrIdx) -> Value {
        assert!(self.rows().contains(&row), "row {row} outside chunk {}..{}", self.start, self.end);
        self.table.get(row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Attribute};

    fn small_schema() -> Arc<Schema> {
        Schema::shared(vec![
            Attribute::new(
                "color",
                AttrType::Nominal { labels: vec!["red".into(), "green".into()] },
            ),
            Attribute::new("size", AttrType::Numeric { min: 0.0, max: 100.0, integer: false }),
            Attribute::new("built", AttrType::Date { min: 0, max: 20000 }),
        ])
        .unwrap()
    }

    fn small_table() -> Table {
        let mut t = Table::new(small_schema());
        t.push_row(&[Value::Nominal(0), Value::Number(10.0), Value::Date(100)]).unwrap();
        t.push_row(&[Value::Nominal(1), Value::Null, Value::Date(200)]).unwrap();
        t.push_row(&[Value::Null, Value::Number(30.0), Value::Null]).unwrap();
        t
    }

    #[test]
    fn push_and_get() {
        let t = small_table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.get(0, 0), Value::Nominal(0));
        assert_eq!(t.get(1, 1), Value::Null);
        assert_eq!(t.get(2, 2), Value::Null);
    }

    #[test]
    fn push_rejects_bad_records() {
        let mut t = small_table();
        assert!(t.push_row(&[Value::Nominal(0), Value::Number(1.0)]).is_err());
        assert!(t.push_row(&[Value::Number(0.0), Value::Number(1.0), Value::Date(0)]).is_err());
    }

    #[test]
    fn set_checks_bounds_and_kind() {
        let mut t = small_table();
        t.set(0, 1, Value::Number(99.0)).unwrap();
        assert_eq!(t.get(0, 1), Value::Number(99.0));
        assert!(matches!(t.set(9, 0, Value::Null), Err(TableError::RowOutOfRange(9))));
        assert!(matches!(t.set(0, 0, Value::Number(1.0)), Err(TableError::TypeMismatch { .. })));
    }

    #[test]
    fn set_allows_out_of_domain_values() {
        // Polluters must be able to write values the domain forbids.
        let mut t = small_table();
        t.set(0, 1, Value::Number(1e9)).unwrap();
        t.set(0, 0, Value::Nominal(77)).unwrap();
        assert_eq!(t.get(0, 1), Value::Number(1e9));
        let viols = t.domain_violations();
        assert!(viols.contains(&(0, 0)));
        assert!(viols.contains(&(0, 1)));
        assert_eq!(viols.len(), 2);
    }

    #[test]
    fn lenient_push_allows_out_of_domain_codes() {
        let mut t = small_table();
        // Out-of-domain nominal code: rejected strictly, accepted leniently.
        assert!(t.push_row(&[Value::Nominal(9), Value::Null, Value::Null]).is_err());
        let r = t.push_row_lenient(&[Value::Nominal(9), Value::Null, Value::Null]).unwrap();
        assert_eq!(t.get(r, 0), Value::Nominal(9));
        // Kind mismatches stay rejected.
        assert!(t.push_row_lenient(&[Value::Number(1.0), Value::Null, Value::Null]).is_err());
        assert!(t.push_row_lenient(&[Value::Null]).is_err());
    }

    #[test]
    fn duplicate_and_delete() {
        let mut t = small_table();
        let new = t.duplicate_row(1).unwrap();
        assert_eq!(new, 3);
        assert_eq!(t.row(3), t.row(1));
        t.delete_row(0).unwrap();
        assert_eq!(t.n_rows(), 3);
        // Former row 1 moved up to index 0.
        assert_eq!(t.get(0, 0), Value::Nominal(1));
        assert!(t.delete_row(10).is_err());
    }

    #[test]
    fn select_rows_respects_order_and_multiplicity() {
        let t = small_table();
        let s = t.select_rows(&[2, 0, 0]).unwrap();
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.row(0), t.row(2));
        assert_eq!(s.row(1), t.row(0));
        assert_eq!(s.row(2), t.row(0));
        assert!(t.select_rows(&[99]).is_err());
    }

    #[test]
    fn row_into_reuses_buffer() {
        let t = small_table();
        let mut buf = Vec::new();
        t.row_into(1, &mut buf);
        assert_eq!(buf, t.row(1));
        t.row_into(0, &mut buf);
        assert_eq!(buf, t.row(0));
    }

    #[test]
    fn typed_rows_mirror_value_rows() {
        let t = small_table();
        let mut buf = Vec::new();
        for r in 0..t.n_rows() {
            t.typed_row_into(r, &mut buf);
            assert_eq!(buf.len(), t.n_cols());
            for (c, cell) in buf.iter().enumerate() {
                let v = t.get(r, c);
                assert_eq!(cell.as_nominal(), v.as_nominal(), "({r},{c})");
                assert_eq!(cell.as_numeric(), v.as_numeric(), "({r},{c})");
            }
        }
    }

    #[test]
    fn chunks_partition_the_row_range() {
        let mut t = small_table();
        while t.n_rows() < 10 {
            t.duplicate_row(0).unwrap();
        }
        for n in [1, 2, 3, 4, 7, 10, 11, 100] {
            let chunks = t.chunks(n);
            assert!(chunks.len() <= t.n_rows(), "n={n}");
            let all: Vec<usize> = chunks.iter().flat_map(|c| c.rows()).collect();
            assert_eq!(all, (0..t.n_rows()).collect::<Vec<_>>(), "n={n}");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n}, sizes {sizes:?}");
        }
    }

    #[test]
    fn chunks_edge_cases() {
        let empty = Table::new(small_schema());
        assert!(empty.chunks(4).is_empty());
        assert!(empty.chunks(0).is_empty());
        let t = small_table(); // 3 rows
        let chunks = t.chunks(0); // clamps to 1
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].rows(), 0..3);
        let wide = t.chunks(99); // clamps to n_rows singleton chunks
        assert_eq!(wide.len(), 3);
        assert!(wide.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn row_slice_reads_through_to_the_table() {
        let t = small_table();
        let chunks = t.chunks(2);
        assert_eq!(chunks[0].table().n_rows(), 3);
        assert_eq!(chunks[0].start(), 0);
        assert_eq!(chunks[0].end(), 2);
        assert!(!chunks[0].is_empty());
        assert_eq!(chunks[0].get(1, 0), t.get(1, 0));
        assert_eq!(chunks[1].get(2, 2), t.get(2, 2));
    }

    #[test]
    #[should_panic(expected = "outside chunk")]
    fn row_slice_rejects_out_of_chunk_rows() {
        let t = small_table();
        let chunks = t.chunks(2);
        let _ = chunks[0].get(2, 0);
    }

    #[test]
    fn append_rows_rejects_permuted_but_kind_compatible_schemas() {
        // Two schemas that are attribute permutations of each other:
        // per-index column kinds coincide (both nominal, then numeric),
        // so the raw columnar copy would succeed and scramble the
        // attribute meanings. The canonical fingerprint must refuse.
        let a = Schema::shared(vec![
            Attribute::new("first", AttrType::Nominal { labels: vec!["x".into(), "y".into()] }),
            Attribute::new("second", AttrType::Nominal { labels: vec!["p".into(), "q".into()] }),
            Attribute::new("size", AttrType::Numeric { min: 0.0, max: 1.0, integer: false }),
        ])
        .unwrap();
        let b = Schema::shared(vec![
            Attribute::new("second", AttrType::Nominal { labels: vec!["p".into(), "q".into()] }),
            Attribute::new("first", AttrType::Nominal { labels: vec!["x".into(), "y".into()] }),
            Attribute::new("size", AttrType::Numeric { min: 0.0, max: 1.0, integer: false }),
        ])
        .unwrap();
        let mut into = Table::new(a.clone());
        let mut from = Table::new(b.clone());
        from.push_row(&[Value::Nominal(0), Value::Nominal(1), Value::Number(0.5)]).unwrap();
        match into.append_rows(&from) {
            Err(TableError::SchemaFingerprint { expected, got }) => {
                assert_eq!(expected, a.fingerprint());
                assert_eq!(got, b.fingerprint());
            }
            other => panic!("expected SchemaFingerprint, got {other:?}"),
        }
        assert_eq!(into.n_rows(), 0, "a rejected append must not grow the table");
        // Equal-fingerprint schemas append fine even through distinct Arcs.
        let a2 = Schema::shared(a.attributes().to_vec()).unwrap();
        let mut twin = Table::new(a2);
        let mut source = Table::new(a);
        source.push_row(&[Value::Nominal(1), Value::Nominal(0), Value::Number(0.25)]).unwrap();
        twin.append_rows(&source).unwrap();
        assert_eq!(twin.n_rows(), 1);
    }

    #[test]
    fn slice_rows_copies_ranges() {
        let t = small_table();
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), t.row(1));
        assert_eq!(s.row(1), t.row(2));
        assert!(Arc::ptr_eq(s.schema(), t.schema()));
        assert!(t.slice_rows(1, 1).unwrap().is_empty());
        assert!(t.slice_rows(0, 4).is_err());
        assert!(t.slice_rows(2, 1).is_err());
    }

    #[test]
    fn count_where_counts() {
        let t = small_table();
        assert_eq!(t.count_where(1, |v| v.is_null()), 1);
        assert_eq!(t.count_where(0, |v| v == Value::Nominal(0)), 1);
    }
}
