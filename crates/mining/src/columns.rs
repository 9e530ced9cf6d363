//! Dense columnar view of a [`TrainingSet`] — the induction hot path's
//! data layout.
//!
//! The paper's premise that "only data mining algorithms that scale
//! well with the size of training sets can be employed" (sec. 5) makes
//! the inner loops of C4.5 induction the single hottest code in the
//! workspace. The row-at-a-time [`dq_table::Table::get`] path
//! constructs a [`dq_table::Value`] enum per cell access; over the
//! `O(attributes × rows × depth)` accesses of a tree induction that
//! dominates the runtime. A [`TableCache`] is built **once** per table
//! and a [`ColumnarTraining`] once per training set; together they
//! replace every cell access with a read of one of two structures:
//!
//! * a **row-major byte block** with one byte per table attribute and
//!   row (`row_codes[row * stride + attr]`), so everything the node
//!   loops need of a row sits in adjacent bytes, and the whole block
//!   of an eight-attribute table at 200k rows (1.6 MB) fits in L2. A
//!   nominal attribute's byte is its code when the code is below
//!   [`ESCAPE`]; [`ESCAPE`] stands for NULL and for every code of 255
//!   or more, which is missing for an attribute of at most 255 labels
//!   and is read from the table's `u32` code otherwise. An ordered
//!   attribute's byte is 1 for a known value and 0 for NULL. One loop
//!   thus serves every label count: no schema is refused, and wide
//!   attributes pay one table read per escaped cell only;
//! * per ordered (numeric/date) base attribute, a `Vec<f64>` of
//!   widened payloads shared with the cache, and a **presorted row
//!   index** (rows with known values, stably sorted by value) that the
//!   SLIQ/SPRINT-style induction threads down the recursion instead of
//!   re-sorting at every node. The index is a stable filter of the
//!   cache's full-table sort: a subsequence of a stably sorted sequence
//!   is exactly the stable sort of the subset (training rows are
//!   ascending), so the order, and every float downstream, equals a
//!   per-training-set sort.
//!
//! The payloads, and the class codes of [`TrainingSet::class_codes`],
//! are read once, when the recursion's root is built; below it, class
//! codes ride in the node-local instance records.
//!
//! Row indices are stored as `u32` (half the footprint of `usize` on
//! 64-bit targets, and the arrays here are what the induction streams
//! through); tables beyond `u32::MAX` rows are rejected at build time.

use crate::dataset::TrainingSet;
use dq_table::AttrType;
use std::sync::Arc;

/// The byte of [`ColumnarTraining::row_codes`] that stands for NULL or
/// a nominal code of 255 or more: missing for an attribute of at most
/// 255 labels, otherwise to be read from the table's `u32` code.
pub const ESCAPE: u8 = u8::MAX;

/// One base attribute's induction data.
#[derive(Debug, Clone)]
pub enum BaseColumn {
    /// A nominal attribute; its codes live in the row-major byte block.
    Nominal {
        /// Number of declared labels; codes at or past it (and NULLs)
        /// are treated as missing by the induction.
        card: usize,
    },
    /// An ordered (numeric or date) attribute, widened to `f64` like
    /// [`dq_table::Value::as_numeric`] widens it; its known/NULL flags
    /// live in the row-major byte block.
    Ordered {
        /// Per-row payloads, behind `Arc` so a shared [`TableCache`]
        /// hands the same allocation to every per-class-attribute
        /// induction (entries of NULL cells are never read).
        values: Arc<Vec<f64>>,
        /// The training rows with known values, sorted by
        /// `(value, row)` — the one-off presort that replaces the
        /// per-node `sort_by` of the legacy induction.
        sorted_rows: Vec<u32>,
    },
}

/// One ordered attribute's table-level data, shared by every
/// per-class-attribute induction over the same table.
#[derive(Debug, Clone)]
struct OrderedCache {
    values: Arc<Vec<f64>>,
    /// All rows with known values, sorted by `(value, row)`.
    sorted_all: Vec<u32>,
}

/// A table-level column cache: the row-major byte block, and the
/// widened payloads and full-table presort of every ordered attribute.
/// The multiple classification / regression auditor induces one tree
/// per attribute over the *same* table — with this cache the block
/// and the expensive per-attribute sorts are built once per table
/// instead of once per class attribute (each
/// [`ColumnarTraining::build`] then derives its training-row presort by
/// a stable filter, which preserves the byte-exact order a direct
/// stable sort would produce).
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    /// Per table attribute; `None` for nominal attributes.
    ordered: Vec<Option<OrderedCache>>,
    /// `n_rows × n_cols` bytes, row-major (see the module docs).
    row_codes: Arc<Vec<u8>>,
}

impl TableCache {
    /// Build the cache: one pass per attribute of `table`, plus one
    /// stable sort per ordered attribute.
    pub fn build(table: &dq_table::Table) -> TableCache {
        let n_rows = table.n_rows();
        assert!(
            u32::try_from(n_rows).is_ok(),
            "columnar induction supports at most u32::MAX rows, got {n_rows}"
        );
        let stride = table.n_cols();
        let mut row_codes = vec![0u8; n_rows * stride];
        let ordered = (0..stride)
            .map(|a| {
                let bytes = row_codes.iter_mut().skip(a).step_by(stride);
                match &table.schema().attr(a).ty {
                    AttrType::Nominal { .. } => {
                        let src = table
                            .column(a)
                            .as_nominal()
                            .expect("nominal attribute, nominal column");
                        for (byte, code) in bytes.zip(src) {
                            *byte = match *code {
                                Some(c) if c < u32::from(ESCAPE) => c as u8,
                                _ => ESCAPE,
                            };
                        }
                        None
                    }
                    AttrType::Numeric { .. } | AttrType::Date { .. } => {
                        let (values, known) = widen_ordered(table, a);
                        for (byte, &k) in bytes.zip(&known) {
                            *byte = u8::from(k);
                        }
                        let mut sorted_all: Vec<u32> =
                            (0..n_rows as u32).filter(|&r| known[r as usize]).collect();
                        sorted_all
                            .sort_by(|&x, &y| values[x as usize].total_cmp(&values[y as usize]));
                        Some(OrderedCache { values: Arc::new(values), sorted_all })
                    }
                }
            })
            .collect();
        TableCache { ordered, row_codes: Arc::new(row_codes) }
    }
}

/// Widen one ordered column to dense `f64` payloads plus a null mask.
fn widen_ordered(table: &dq_table::Table, attr: usize) -> (Vec<f64>, Vec<bool>) {
    let n_rows = table.n_rows();
    let column = table.column(attr);
    let mut values = vec![0.0f64; n_rows];
    let mut known = vec![false; n_rows];
    match (column.as_number(), column.as_date()) {
        (Some(xs), _) => {
            for (r, x) in xs.iter().enumerate() {
                if let Some(x) = x {
                    values[r] = *x;
                    known[r] = true;
                }
            }
        }
        (_, Some(ds)) => {
            for (r, d) in ds.iter().enumerate() {
                if let Some(d) = d {
                    values[r] = *d as f64;
                    known[r] = true;
                }
            }
        }
        _ => unreachable!("ordered attribute, ordered column"),
    }
    (values, known)
}

/// The dense columnar cache of one [`TrainingSet`].
#[derive(Debug, Clone)]
pub struct ColumnarTraining {
    /// One entry per base attribute, parallel to
    /// `TrainingSet::base_attrs`.
    pub attrs: Vec<BaseColumn>,
    /// The table's row-major byte block, shared with the
    /// [`TableCache`]: one byte per table attribute and row, at
    /// `row * stride + attr` (see the module docs for the encoding).
    pub row_codes: Arc<Vec<u8>>,
    /// Bytes per row of `row_codes`: the table's attribute count.
    pub stride: usize,
}

impl ColumnarTraining {
    /// Materialize the training set's columns against `cache`, a
    /// [`TableCache`] of `train.table`: the byte block and ordered
    /// payloads are shared with the cache, and each training-row
    /// presort is a stable filter of the cached full-table sort. After
    /// this, induction never touches `Table::get` or `Value` again.
    pub fn build(train: &TrainingSet<'_>, cache: &TableCache) -> ColumnarTraining {
        let n_rows = train.table.n_rows();
        assert!(
            u32::try_from(n_rows).is_ok(),
            "columnar induction supports at most u32::MAX rows, got {n_rows}"
        );
        let attrs = train
            .base_attrs
            .iter()
            .map(|&a| match &train.table.schema().attr(a).ty {
                AttrType::Nominal { labels } => BaseColumn::Nominal { card: labels.len() },
                AttrType::Numeric { .. } | AttrType::Date { .. } => {
                    let cached = cache.ordered[a].as_ref().expect("cache of the training table");
                    let sorted_rows = cached
                        .sorted_all
                        .iter()
                        .copied()
                        .filter(|&r| train.class_codes[r as usize].is_some())
                        .collect();
                    BaseColumn::Ordered { values: Arc::clone(&cached.values), sorted_rows }
                }
            })
            .collect();
        ColumnarTraining {
            attrs,
            row_codes: Arc::clone(&cache.row_codes),
            stride: train.table.n_cols(),
        }
    }

    /// The bytes of `row`, one per table attribute.
    #[inline]
    pub fn row(&self, row: u32) -> &[u8] {
        let start = row as usize * self.stride;
        &self.row_codes[start..start + self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::{SchemaBuilder, Table, Value};

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("c", ["a", "b"])
            .nominal("n", ["x", "y", "z"])
            .numeric("v", 0.0, 100.0)
            .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        let rows = [
            [Value::Nominal(0), Value::Nominal(2), Value::Number(5.0), Value::Date(11000)],
            [Value::Nominal(1), Value::Null, Value::Number(5.0), Value::Null],
            [Value::Null, Value::Nominal(0), Value::Null, Value::Date(11500)],
            [Value::Nominal(0), Value::Nominal(1), Value::Number(2.0), Value::Date(10950)],
        ];
        for r in rows {
            t.push_row_lenient(&r).unwrap();
        }
        t
    }

    #[test]
    fn dense_codes_and_masks_mirror_the_table() {
        let t = table();
        let train = TrainingSet::full(&t, 0, 4).unwrap();
        let cols = ColumnarTraining::build(&train, &TableCache::build(&t));
        // One byte per attribute and row: nominal codes (ESCAPE for
        // NULL), then known flags of `v` and `d`.
        assert_eq!(cols.stride, 4);
        assert_eq!(cols.row(0), &[0, 2, 1, 1]);
        assert_eq!(cols.row(1), &[1, ESCAPE, 1, 0]);
        assert_eq!(cols.row(2), &[ESCAPE, 0, 0, 1]);
        assert_eq!(cols.row(3), &[0, 1, 1, 1]);
        assert!(matches!(cols.attrs[0], BaseColumn::Nominal { card: 3 }));
        // Ordered base attribute `v`: training rows are 0, 1, 3 (row 2
        // has a NULL class); row 2's value is NULL anyway.
        match &cols.attrs[1] {
            BaseColumn::Ordered { values, sorted_rows } => {
                assert_eq!(values[0], 5.0);
                // (2.0, row 3) < (5.0, row 0) < (5.0, row 1): stable on ties.
                assert_eq!(sorted_rows, &vec![3, 0, 1]);
            }
            other => panic!("expected ordered column, got {other:?}"),
        }
        // Date attribute widens to day numbers.
        match &cols.attrs[2] {
            BaseColumn::Ordered { values, sorted_rows } => {
                assert_eq!(values[0], 11000.0);
                assert_eq!(sorted_rows, &vec![3, 0]); // row 2 not a training row
            }
            other => panic!("expected ordered column, got {other:?}"),
        }
    }

    #[test]
    fn out_of_domain_codes_survive_verbatim() {
        // A code below 255 keeps its byte; past a 3-label list it reads
        // as missing.
        let mut t = table();
        t.set(0, 1, Value::Nominal(99)).unwrap();
        let train = TrainingSet::full(&t, 0, 4).unwrap();
        let cols = ColumnarTraining::build(&train, &TableCache::build(&t));
        assert_eq!(cols.row(0)[1], 99);
        // Codes from 255 up escape; the table keeps them verbatim
        // for attributes with more than 255 labels.
        let schema = SchemaBuilder::new().nominal_sized("w", 300).build().unwrap();
        let mut t = Table::new(schema);
        for code in [0, 254, 255, 299, 400] {
            t.push_row_lenient(&[Value::Nominal(code)]).unwrap();
        }
        t.push_row(&[Value::Null]).unwrap();
        let cache = TableCache::build(&t);
        assert_eq!(cache.row_codes.as_slice(), &[0, 254, ESCAPE, ESCAPE, ESCAPE, ESCAPE]);
        assert_eq!(t.get(3, 0), Value::Nominal(299));
        assert_eq!(t.get(4, 0), Value::Nominal(400));
    }
}
