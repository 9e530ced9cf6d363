//! Discretization of ordered (numeric/date) columns into nominal bins.
//!
//! The auditing tool of the paper handles numeric *class* attributes by
//! discretizing them "into equal frequency bins before the induction
//! process" (sec. 5). [`discretize_equal_frequency`] implements exactly
//! that; [`discretize_equal_width`] is provided as the obvious
//! alternative for ablation experiments.

use crate::column::Column;
use crate::table::Table;
use crate::AttrIdx;

/// A fitted binning of an ordered column: `edges[i]` is the inclusive
/// upper edge of bin `i`; the last bin is unbounded above. A value `x`
/// falls into the first bin whose edge is `>= x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Binning {
    /// Inclusive upper edges of all bins except the last.
    pub edges: Vec<f64>,
    /// Total number of bins (`edges.len() + 1`).
    pub n_bins: usize,
}

impl Binning {
    /// Bin index of a value.
    #[inline]
    pub fn bin_of(&self, x: f64) -> u32 {
        // Bins are few (typically < 32); a linear scan beats binary
        // search at these sizes and is branch-predictable.
        for (i, e) in self.edges.iter().enumerate() {
            if x <= *e {
                return i as u32;
            }
        }
        self.edges.len() as u32
    }

    /// Human-readable label of a bin, for findings and reports.
    pub fn label_of(&self, bin: u32) -> String {
        let bin = bin as usize;
        match (bin, self.edges.len()) {
            (0, 0) => "(-inf, +inf)".to_string(),
            (0, _) => format!("(-inf, {}]", self.edges[0]),
            (b, n) if b >= n => format!("({}, +inf)", self.edges[n - 1]),
            (b, _) => format!("({}, {}]", self.edges[b - 1], self.edges[b]),
        }
    }

    /// A representative value for a bin — used when a proposed
    /// correction must be materialized as a concrete numeric value. The
    /// midpoint of interior bins; the edge itself for the unbounded
    /// outer bins.
    pub fn representative(&self, bin: u32) -> f64 {
        let bin = bin as usize;
        if self.edges.is_empty() {
            return 0.0;
        }
        if bin == 0 {
            self.edges[0]
        } else if bin >= self.edges.len() {
            self.edges[self.edges.len() - 1]
        } else {
            (self.edges[bin - 1] + self.edges[bin]) / 2.0
        }
    }
}

/// Fit an equal-frequency binning on the non-NULL values of column
/// `col` and return it. At most `n_bins` bins are produced; duplicate
/// candidate edges are merged, so heavily tied columns yield fewer
/// bins. NULLs and NaNs are ignored (they stay missing after mapping:
/// a NaN has no place in the order the bins cut).
pub fn discretize_equal_frequency(table: &Table, col: AttrIdx, n_bins: usize) -> Binning {
    let mut values = ordered_values(table.column(col));
    values.sort_by(|a, b| a.partial_cmp(b).expect("non-finite value in ordered column"));
    if values.is_empty() || n_bins <= 1 {
        return Binning { edges: Vec::new(), n_bins: 1 };
    }
    let n = values.len();
    let mut edges = Vec::with_capacity(n_bins - 1);
    for k in 1..n_bins {
        let idx = (k * n) / n_bins;
        if idx == 0 || idx >= n {
            continue;
        }
        let edge = values[idx - 1];
        // Only cut between distinct values, otherwise the bin would be
        // empty or the same value would straddle two bins.
        if values[idx] > edge && edges.last().is_none_or(|&e| edge > e) {
            edges.push(edge);
        }
    }
    let n_bins = edges.len() + 1;
    Binning { edges, n_bins }
}

/// Fit an equal-width binning over the observed min/max of column `col`.
pub fn discretize_equal_width(table: &Table, col: AttrIdx, n_bins: usize) -> Binning {
    let values = ordered_values(table.column(col));
    if values.is_empty() || n_bins <= 1 {
        return Binning { edges: Vec::new(), n_bins: 1 };
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo >= hi {
        return Binning { edges: Vec::new(), n_bins: 1 };
    }
    let width = (hi - lo) / n_bins as f64;
    let edges: Vec<f64> = (1..n_bins).map(|k| lo + width * k as f64).collect();
    let n_bins = edges.len() + 1;
    Binning { edges, n_bins }
}

fn ordered_values(column: &Column) -> Vec<f64> {
    match column {
        Column::Number(v) => v.iter().flatten().copied().filter(|x| !x.is_nan()).collect(),
        Column::Date(v) => v.iter().flatten().map(|&d| d as f64).collect(),
        Column::Nominal(_) => {
            panic!("discretization applies to numeric/date columns only")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::value::Value;

    fn numeric_table(values: &[Option<f64>]) -> Table {
        let schema = SchemaBuilder::new().numeric("x", -1e9, 1e9).build().unwrap();
        let mut t = Table::new(schema);
        for v in values {
            t.push_row(&[v.map_or(Value::Null, Value::Number)]).unwrap();
        }
        t
    }

    #[test]
    fn equal_frequency_splits_evenly() {
        let t = numeric_table(&(1..=12).map(|i| Some(i as f64)).collect::<Vec<_>>());
        let b = discretize_equal_frequency(&t, 0, 3);
        assert_eq!(b.n_bins, 3);
        assert_eq!(b.edges, vec![4.0, 8.0]);
        assert_eq!(b.bin_of(1.0), 0);
        assert_eq!(b.bin_of(4.0), 0);
        assert_eq!(b.bin_of(4.5), 1);
        assert_eq!(b.bin_of(8.1), 2);
        assert_eq!(b.bin_of(1e6), 2);
    }

    #[test]
    fn equal_frequency_merges_ties() {
        // Nine copies of one value + three others: cannot produce four
        // non-degenerate bins.
        let mut vals = vec![Some(5.0); 9];
        vals.extend([Some(1.0), Some(2.0), Some(9.0)]);
        let t = numeric_table(&vals);
        let b = discretize_equal_frequency(&t, 0, 4);
        assert!(b.n_bins <= 4);
        for w in b.edges.windows(2) {
            assert!(w[0] < w[1], "edges must be strictly increasing");
        }
    }

    #[test]
    fn equal_frequency_ignores_nulls_and_handles_empty() {
        let t = numeric_table(&[None, None]);
        let b = discretize_equal_frequency(&t, 0, 4);
        assert_eq!(b.n_bins, 1);
        assert_eq!(b.bin_of(123.0), 0);
    }

    #[test]
    fn nan_is_ignored_like_null() {
        let vals: Vec<_> = (1..=12).map(|i| Some(i as f64)).collect();
        let mut with_nan = vals.clone();
        with_nan.extend([Some(f64::NAN), Some(-f64::NAN)]);
        let (plain, nan) = (numeric_table(&vals), numeric_table(&with_nan));
        for fit in [discretize_equal_frequency, discretize_equal_width] {
            assert_eq!(fit(&nan, 0, 3), fit(&plain, 0, 3));
        }
    }

    #[test]
    fn equal_width_covers_range() {
        let t = numeric_table(&[Some(0.0), Some(10.0)]);
        let b = discretize_equal_width(&t, 0, 5);
        assert_eq!(b.edges, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(b.bin_of(0.0), 0);
        assert_eq!(b.bin_of(9.9), 4);
    }

    #[test]
    fn equal_width_degenerate_range() {
        let t = numeric_table(&[Some(3.0), Some(3.0)]);
        let b = discretize_equal_width(&t, 0, 5);
        assert_eq!(b.n_bins, 1);
    }

    #[test]
    fn labels_and_representatives() {
        let b = Binning { edges: vec![2.0, 4.0], n_bins: 3 };
        assert_eq!(b.label_of(0), "(-inf, 2]");
        assert_eq!(b.label_of(1), "(2, 4]");
        assert_eq!(b.label_of(2), "(4, +inf)");
        assert_eq!(b.representative(1), 3.0);
        assert_eq!(b.representative(0), 2.0);
        assert_eq!(b.representative(2), 4.0);
    }

    #[test]
    fn date_columns_discretize_via_day_numbers() {
        let schema =
            SchemaBuilder::new().date_ymd("d", (2000, 1, 1), (2010, 1, 1)).build().unwrap();
        let mut t = Table::new(schema);
        for d in [0i64, 100, 200, 300].iter() {
            t.push_row(&[Value::Date(crate::date::days_from_civil(2001, 1, 1) + d)]).unwrap();
        }
        let b = discretize_equal_frequency(&t, 0, 2);
        assert_eq!(b.n_bins, 2);
    }

    #[test]
    #[should_panic(expected = "numeric/date columns only")]
    fn nominal_columns_are_rejected() {
        let schema = SchemaBuilder::new().nominal("c", ["a"]).build().unwrap();
        let t = Table::new(schema);
        discretize_equal_frequency(&t, 0, 2);
    }
}
