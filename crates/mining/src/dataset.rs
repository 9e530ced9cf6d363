//! Training-set views: one class attribute against base attributes.
//!
//! "For each attribute in the relation to be audited, a classifier is
//! induced that describes the dependency of this class attribute from
//! the other attributes (called base attributes)" (sec. 5). Numeric
//! and date class attributes are "discretized into equal frequency
//! bins before the induction process" — [`ClassSpec`] carries that
//! binning so predictions can be mapped back to value ranges.

use crate::error::MiningError;
use dq_table::{discretize_equal_frequency, AttrIdx, AttrType, Binning, RowIdx, Table, Value};

/// How the class attribute's codes relate to its raw values.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassSpec {
    /// Nominal class: codes are the attribute's own label codes.
    Nominal {
        /// Number of labels.
        card: u32,
    },
    /// Ordered (numeric/date) class: codes are equal-frequency bins.
    Binned {
        /// The fitted binning.
        binning: Binning,
    },
}

impl ClassSpec {
    /// Number of class codes.
    pub fn card(&self) -> u32 {
        match self {
            ClassSpec::Nominal { card } => *card,
            ClassSpec::Binned { binning } => binning.n_bins as u32,
        }
    }

    /// Class code of a raw cell value (`None` for NULL, and for NaN in
    /// a binned class, which no bin orders).
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        match self {
            ClassSpec::Nominal { card } => match v {
                Value::Nominal(c) if c < card => Some(*c),
                // Out-of-domain codes (possible after pollution) are
                // clamped into the last class so they stay visible to
                // deviation detection rather than vanishing.
                Value::Nominal(_) => Some(card.saturating_sub(1)),
                _ => None,
            },
            ClassSpec::Binned { binning } => binned_code(binning, v.as_numeric()),
        }
    }

    /// Class code of a typed cell — exactly [`ClassSpec::code_of`] on
    /// the cell's `Value`, minus the enum round-trip (the detection
    /// scan codes the observed class straight off a cached typed row).
    #[inline]
    pub fn code_of_cell(&self, cell: dq_table::TypedCell) -> Option<u32> {
        match self {
            ClassSpec::Nominal { card } => match cell.as_nominal() {
                Some(c) if c < *card => Some(c),
                // Out-of-domain codes are clamped into the last class,
                // like `code_of` clamps them.
                Some(_) => Some(card.saturating_sub(1)),
                None => None,
            },
            ClassSpec::Binned { binning } => binned_code(binning, cell.as_numeric()),
        }
    }

    /// Human-readable label of a class code under `schema`.
    pub fn label_of(&self, schema: &dq_table::Schema, attr: AttrIdx, code: u32) -> String {
        match self {
            ClassSpec::Nominal { .. } => schema
                .attr(attr)
                .label(code)
                .map(str::to_string)
                .unwrap_or_else(|| format!("#{code}")),
            ClassSpec::Binned { binning } => binning.label_of(code),
        }
    }
}

/// The bin of an ordered cell; NULL and NaN have none.
#[inline]
fn binned_code(binning: &Binning, x: Option<f64>) -> Option<u32> {
    x.filter(|x| !x.is_nan()).map(|x| binning.bin_of(x))
}

/// A classifier's view of a table: the class column coded as `u32`
/// class codes, plus the base attribute list.
#[derive(Debug, Clone)]
pub struct TrainingSet<'a> {
    /// The underlying table.
    pub table: &'a Table,
    /// The class attribute.
    pub class_attr: AttrIdx,
    /// The base attributes (never contains `class_attr`).
    pub base_attrs: Vec<AttrIdx>,
    /// Class-code mapping.
    pub spec: ClassSpec,
    /// Per-row class codes (`None` = NULL class, excluded from
    /// training).
    pub class_codes: Vec<Option<u32>>,
    /// Rows usable for training (non-NULL class).
    pub rows: Vec<RowIdx>,
    /// Dense, pre-validated class codes, parallel to [`TrainingSet::rows`]
    /// — `codes[i]` is the class code of `rows[i]`. Hot loops index this
    /// instead of re-unwrapping [`TrainingSet::class_codes`].
    pub codes: Vec<u32>,
}

impl<'a> TrainingSet<'a> {
    /// Build a training set for `class_attr` with all other attributes
    /// as base attributes.
    pub fn full(table: &'a Table, class_attr: AttrIdx, bins: usize) -> Result<Self, MiningError> {
        let base: Vec<AttrIdx> = (0..table.n_cols()).filter(|&a| a != class_attr).collect();
        Self::new(table, class_attr, base, bins)
    }

    /// Build a training set with an explicit base attribute list —
    /// the hook for domain knowledge: "if it is known that an
    /// attribute does not influence the value of a class attribute, it
    /// can be removed from the set of base attributes".
    pub fn new(
        table: &'a Table,
        class_attr: AttrIdx,
        base_attrs: Vec<AttrIdx>,
        bins: usize,
    ) -> Result<Self, MiningError> {
        if class_attr >= table.n_cols() {
            return Err(MiningError::UnknownAttribute(class_attr));
        }
        for &a in &base_attrs {
            if a >= table.n_cols() {
                return Err(MiningError::UnknownAttribute(a));
            }
            if a == class_attr {
                return Err(MiningError::ClassInBaseSet);
            }
        }
        let spec = match &table.schema().attr(class_attr).ty {
            AttrType::Nominal { labels } => ClassSpec::Nominal { card: labels.len() as u32 },
            _ => ClassSpec::Binned { binning: discretize_equal_frequency(table, class_attr, bins) },
        };
        let mut class_codes = Vec::with_capacity(table.n_rows());
        let mut rows = Vec::new();
        let mut codes = Vec::new();
        for r in 0..table.n_rows() {
            let code = spec.code_of(&table.get(r, class_attr));
            if let Some(c) = code {
                rows.push(r);
                codes.push(c);
            }
            class_codes.push(code);
        }
        if rows.is_empty() {
            return Err(MiningError::EmptyTrainingSet);
        }
        Ok(TrainingSet { table, class_attr, base_attrs, spec, class_codes, rows, codes })
    }

    /// Number of class codes.
    pub fn class_card(&self) -> u32 {
        self.spec.card()
    }

    /// Class counts over the training rows (weighted 1 each).
    pub fn class_counts(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.class_card() as usize];
        for &c in &self.codes {
            counts[c as usize] += 1.0;
        }
        counts
    }

    /// Code mappings for all base attributes (nominal attributes keep
    /// their label codes, ordered ones get `bins` equal-frequency bins).
    /// Used by the inducers that need a fully discrete view (naive
    /// Bayes, OneR, Apriori).
    pub fn base_coders(&self, bins: usize) -> Vec<ClassSpec> {
        self.base_attrs
            .iter()
            .map(|&a| match &self.table.schema().attr(a).ty {
                AttrType::Nominal { labels } => ClassSpec::Nominal { card: labels.len() as u32 },
                _ => ClassSpec::Binned { binning: discretize_equal_frequency(self.table, a, bins) },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_table::SchemaBuilder;

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .nominal("c", ["a", "b", "z"])
            .numeric("x", 0.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..12 {
            let c = if i % 3 == 0 { Value::Null } else { Value::Nominal((i % 2) as u32) };
            t.push_row(&[c, Value::Number(i as f64)]).unwrap();
        }
        t
    }

    #[test]
    fn nominal_class_excludes_nulls() {
        let t = table();
        let ts = TrainingSet::full(&t, 0, 4).unwrap();
        assert_eq!(ts.class_card(), 3);
        assert_eq!(ts.rows.len(), 8); // 12 minus 4 NULLs
        assert_eq!(ts.base_attrs, vec![1]);
        let counts = ts.class_counts();
        assert_eq!(counts.iter().sum::<f64>(), 8.0);
    }

    #[test]
    fn numeric_class_is_binned() {
        let t = table();
        let ts = TrainingSet::full(&t, 1, 3).unwrap();
        match &ts.spec {
            ClassSpec::Binned { binning } => assert_eq!(binning.n_bins, 3),
            other => panic!("expected binned class, got {other:?}"),
        }
        assert_eq!(ts.class_card(), 3);
        assert_eq!(ts.rows.len(), 12);
        // Codes are monotone in the raw value.
        assert!(ts.class_codes[0].unwrap() <= ts.class_codes[11].unwrap());
    }

    #[test]
    fn dense_codes_parallel_the_training_rows() {
        let t = table();
        let ts = TrainingSet::full(&t, 0, 4).unwrap();
        assert_eq!(ts.codes.len(), ts.rows.len());
        for (&r, &c) in ts.rows.iter().zip(&ts.codes) {
            assert_eq!(ts.class_codes[r], Some(c));
        }
    }

    #[test]
    fn out_of_domain_nominal_codes_are_clamped() {
        let spec = ClassSpec::Nominal { card: 3 };
        assert_eq!(spec.code_of(&Value::Nominal(1)), Some(1));
        assert_eq!(spec.code_of(&Value::Nominal(9)), Some(2));
        assert_eq!(spec.code_of(&Value::Null), None);
    }

    #[test]
    fn cell_coding_matches_value_coding() {
        let t = table();
        for class_attr in [0usize, 1] {
            let ts = TrainingSet::full(&t, class_attr, 3).unwrap();
            let mut cells = Vec::new();
            for r in 0..t.n_rows() {
                t.typed_row_into(r, &mut cells);
                assert_eq!(
                    ts.spec.code_of_cell(cells[class_attr]),
                    ts.spec.code_of(&t.get(r, class_attr)),
                    "row {r}, class {class_attr}"
                );
            }
        }
        // Clamping applies to cells too.
        let spec = ClassSpec::Nominal { card: 3 };
        assert_eq!(spec.code_of_cell(dq_table::TypedCell::Nominal(Some(9))), Some(2));
        assert_eq!(spec.code_of_cell(dq_table::TypedCell::Nominal(None)), None);
    }

    #[test]
    fn rejects_bad_configurations() {
        let t = table();
        assert!(matches!(TrainingSet::full(&t, 9, 4), Err(MiningError::UnknownAttribute(9))));
        assert!(matches!(TrainingSet::new(&t, 0, vec![0], 4), Err(MiningError::ClassInBaseSet)));
        assert!(matches!(
            TrainingSet::new(&t, 0, vec![7], 4),
            Err(MiningError::UnknownAttribute(7))
        ));
        // All-NULL class column.
        let schema = SchemaBuilder::new().nominal("c", ["a"]).nominal("d", ["x"]).build().unwrap();
        let mut empty = Table::new(schema);
        empty.push_row(&[Value::Null, Value::Nominal(0)]).unwrap();
        assert!(matches!(TrainingSet::full(&empty, 0, 4), Err(MiningError::EmptyTrainingSet)));
    }

    #[test]
    fn class_labels() {
        let t = table();
        let ts = TrainingSet::full(&t, 0, 4).unwrap();
        assert_eq!(ts.spec.label_of(t.schema(), 0, 1), "b");
        let ts = TrainingSet::full(&t, 1, 3).unwrap();
        let label = ts.spec.label_of(t.schema(), 1, 0);
        assert!(label.starts_with("(-inf"), "got {label}");
    }
}
