//! Dense columnar view of a [`TrainingSet`] — the induction hot path's
//! data layout.
//!
//! The paper's premise that "only data mining algorithms that scale
//! well with the size of training sets can be employed" (sec. 5) makes
//! the inner loops of C4.5 induction the single hottest code in the
//! workspace. The row-at-a-time [`dq_table::Table::get`] path
//! constructs a [`dq_table::Value`] enum per cell access; over the
//! `O(attributes × rows × depth)` accesses of a tree induction that
//! dominates the runtime. [`ColumnarTraining`] is built **once** per
//! training set, from a table-level [`TableCache`], and replaces every
//! cell access with a dense typed array read:
//!
//! * nominal base attributes become a `Vec<u32>` of codes
//!   ([`NULL_CODE`] marks NULL — out-of-domain codes keep their value,
//!   since the induction treats any code past the label list exactly
//!   like a missing value);
//! * ordered (numeric/date) base attributes become a `Vec<f64>` of
//!   widened payloads plus a `Vec<bool>` null mask, shared with the
//!   cache, and a **presorted row index** (rows with known values,
//!   stably sorted by value) that the SLIQ/SPRINT-style induction
//!   threads down the recursion instead of re-sorting at every node.
//!   The index is a stable filter of the cache's full-table sort: a
//!   subsequence of a stably sorted sequence is exactly the stable
//!   sort of the subset (training rows are ascending), so the order,
//!   and every float downstream, equals a per-training-set sort;
//! * the class column becomes dense pre-validated `u32` codes, so the
//!   recursion never re-unwraps `Option<u32>` per instance.
//!
//! Row indices are stored as `u32` (half the footprint of `usize` on
//! 64-bit targets, and the arrays here are what the induction streams
//! through); tables beyond `u32::MAX` rows are rejected at build time.

use crate::dataset::TrainingSet;
use dq_table::AttrType;
use std::sync::Arc;

/// Sentinel code marking a NULL nominal cell (never a valid label code:
/// label lists are bounded far below `u32::MAX`, and every consumer
/// checks `code < card` before use).
pub const NULL_CODE: u32 = u32::MAX;

/// One base attribute's dense column.
#[derive(Debug, Clone)]
pub enum BaseColumn {
    /// A nominal attribute: raw codes, [`NULL_CODE`] for NULL.
    Nominal {
        /// Per-row codes (dense over the whole table).
        codes: Vec<u32>,
        /// Number of declared labels; codes at or past it (including
        /// [`NULL_CODE`]) are treated as missing by the induction.
        card: usize,
    },
    /// An ordered (numeric or date) attribute, widened to `f64` like
    /// [`dq_table::Value::as_numeric`] widens it. The payload arrays
    /// are behind `Arc` so a shared [`TableCache`] hands the same
    /// allocation to every per-class-attribute induction.
    Ordered {
        /// Per-row payloads (dense; entries under a `false` mask bit
        /// are never read).
        values: Arc<Vec<f64>>,
        /// `known[r]` is `true` iff row `r` carries a non-NULL value.
        known: Arc<Vec<bool>>,
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
    known: Arc<Vec<bool>>,
    /// All rows with known values, sorted by `(value, row)`.
    sorted_all: Vec<u32>,
}

/// A table-level column cache: the widened payloads, null masks and
/// full-table presort of every ordered attribute. The multiple
/// classification / regression auditor induces one tree per attribute
/// over the *same* table — with this cache the expensive per-attribute
/// sorts run once per table instead of once per class attribute
/// (each [`ColumnarTraining::build`] then derives its training-row
/// presort by a stable filter, which preserves the byte-exact order a
/// direct stable sort would produce).
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    /// Per table attribute; `None` for nominal attributes.
    ordered: Vec<Option<OrderedCache>>,
}

impl TableCache {
    /// Build the cache: one pass plus one stable sort per ordered
    /// attribute of `table`.
    pub fn build(table: &dq_table::Table) -> TableCache {
        let n_rows = table.n_rows();
        assert!(
            u32::try_from(n_rows).is_ok(),
            "columnar induction supports at most u32::MAX rows, got {n_rows}"
        );
        let ordered = (0..table.n_cols())
            .map(|a| match &table.schema().attr(a).ty {
                AttrType::Nominal { .. } => None,
                AttrType::Numeric { .. } | AttrType::Date { .. } => {
                    let (values, known) = widen_ordered(table, a);
                    let mut sorted_all: Vec<u32> =
                        (0..n_rows as u32).filter(|&r| known[r as usize]).collect();
                    sorted_all.sort_by(|&x, &y| values[x as usize].total_cmp(&values[y as usize]));
                    Some(OrderedCache {
                        values: Arc::new(values),
                        known: Arc::new(known),
                        sorted_all,
                    })
                }
            })
            .collect();
        TableCache { ordered }
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
    /// Class code per table row; [`NULL_CODE`] for rows with a NULL
    /// class (those never appear in the training instance set).
    pub class_codes: Vec<u32>,
    /// One dense column per base attribute, parallel to
    /// `TrainingSet::base_attrs`.
    pub attrs: Vec<BaseColumn>,
}

impl ColumnarTraining {
    /// Materialize the training set's columns against `cache`, a
    /// [`TableCache`] of `train.table`: nominal codes are copied,
    /// ordered payloads are shared with the cache, and each
    /// training-row presort is a stable filter of the cached
    /// full-table sort. After this, induction never touches
    /// `Table::get` or `Value` again.
    pub fn build(train: &TrainingSet<'_>, cache: &TableCache) -> ColumnarTraining {
        let n_rows = train.table.n_rows();
        assert!(
            u32::try_from(n_rows).is_ok(),
            "columnar induction supports at most u32::MAX rows, got {n_rows}"
        );
        let mut class_codes = vec![NULL_CODE; n_rows];
        for (&r, &c) in train.rows.iter().zip(&train.codes) {
            class_codes[r] = c;
        }
        let attrs = train
            .base_attrs
            .iter()
            .map(|&a| {
                let column = train.table.column(a);
                match &train.table.schema().attr(a).ty {
                    AttrType::Nominal { labels } => {
                        let src = column.as_nominal().expect("nominal attribute, nominal column");
                        BaseColumn::Nominal {
                            codes: src.iter().map(|c| c.unwrap_or(NULL_CODE)).collect(),
                            card: labels.len(),
                        }
                    }
                    AttrType::Numeric { .. } | AttrType::Date { .. } => {
                        let cached =
                            cache.ordered[a].as_ref().expect("cache of the training table");
                        let sorted_rows = cached
                            .sorted_all
                            .iter()
                            .copied()
                            .filter(|&r| class_codes[r as usize] != NULL_CODE)
                            .collect();
                        BaseColumn::Ordered {
                            values: Arc::clone(&cached.values),
                            known: Arc::clone(&cached.known),
                            sorted_rows,
                        }
                    }
                }
            })
            .collect();
        ColumnarTraining { class_codes, attrs }
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
        // Class codes: row 2 has a NULL class.
        assert_eq!(cols.class_codes, vec![0, 1, NULL_CODE, 0]);
        // Nominal base attribute `n`.
        match &cols.attrs[0] {
            BaseColumn::Nominal { codes, card } => {
                assert_eq!(*card, 3);
                assert_eq!(codes, &vec![2, NULL_CODE, 0, 1]);
            }
            other => panic!("expected nominal column, got {other:?}"),
        }
        // Ordered base attribute `v`: training rows are 0, 1, 3 (row 2
        // has a NULL class); row 2's value is NULL anyway.
        match &cols.attrs[1] {
            BaseColumn::Ordered { values, known, sorted_rows } => {
                assert_eq!(known.as_slice(), &[true, true, false, true]);
                assert_eq!(values[0], 5.0);
                // (2.0, row 3) < (5.0, row 0) < (5.0, row 1): stable on ties.
                assert_eq!(sorted_rows, &vec![3, 0, 1]);
            }
            other => panic!("expected ordered column, got {other:?}"),
        }
        // Date attribute widens to day numbers.
        match &cols.attrs[2] {
            BaseColumn::Ordered { values, known, sorted_rows } => {
                assert_eq!(values[0], 11000.0);
                assert!(!known[1]);
                assert_eq!(sorted_rows, &vec![3, 0]); // row 2 not a training row
            }
            other => panic!("expected ordered column, got {other:?}"),
        }
    }

    #[test]
    fn out_of_domain_codes_survive_verbatim() {
        let t = table();
        let mut t = t;
        t.set(0, 1, Value::Nominal(99)).unwrap(); // past the 3-label list
        let train = TrainingSet::full(&t, 0, 4).unwrap();
        let cols = ColumnarTraining::build(&train, &TableCache::build(&t));
        match &cols.attrs[0] {
            BaseColumn::Nominal { codes, card } => {
                assert_eq!(codes[0], 99);
                assert!(codes[0] as usize >= *card, "treated as missing by `< card` checks");
            }
            other => panic!("expected nominal column, got {other:?}"),
        }
    }
}
