//! Property-based checks of the table substrate: CSV round-trips,
//! discretization invariants and row-surgery accounting.

use dq_table::{
    discretize_equal_frequency, discretize_equal_width, read_csv, write_csv, BatchSource,
    CsvChunkReader, Schema, SchemaBuilder, Table, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fully random schema + table pair, derived deterministically from a
/// seed (the shim has no dependent generation): 2-6 attributes of
/// random kinds, 0-40 rows of in-domain values, NULLs and — the dirty
/// case — out-of-label nominal codes, pushed leniently the way the
/// polluters write them.
fn random_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_attrs = 2 + (rng.gen::<u64>() % 5) as usize;
    let mut b = SchemaBuilder::new();
    for i in 0..n_attrs {
        b = match rng.gen::<u64>() % 4 {
            0 => b.nominal_sized(&format!("a{i}"), 1 + (rng.gen::<u64>() % 5) as usize),
            1 => b.numeric(&format!("a{i}"), -1e4, 1e4),
            2 => b.integer(&format!("a{i}"), 0.0, 50.0),
            _ => b.date_ymd(&format!("a{i}"), (1995, 1, 1), (2005, 12, 31)),
        };
    }
    let schema = b.build().unwrap();
    let mut t = Table::new(schema.clone());
    let n_rows = (rng.gen::<u64>() % 41) as usize;
    let mut record = Vec::with_capacity(n_attrs);
    for _ in 0..n_rows {
        record.clear();
        for attr in schema.attributes() {
            let roll = rng.gen::<f64>();
            let v = if roll < 0.15 {
                Value::Null
            } else {
                match &attr.ty {
                    dq_table::AttrType::Nominal { labels } => {
                        if roll > 0.9 {
                            // Out-of-label code, as the switcher writes.
                            Value::Nominal(labels.len() as u32 + (rng.gen::<u64>() % 7) as u32)
                        } else {
                            Value::Nominal((rng.gen::<u64>() as usize % labels.len()) as u32)
                        }
                    }
                    dq_table::AttrType::Numeric { min, max, integer: true } => {
                        let span = (*max - *min) as i64;
                        Value::Number(*min + (rng.gen::<u64>() % (span as u64 + 1)) as f64)
                    }
                    dq_table::AttrType::Numeric { min, max, .. } => {
                        // Arbitrary finite doubles round-trip through
                        // the shortest-representation formatting.
                        Value::Number(min + (max - min) * rng.gen::<f64>())
                    }
                    dq_table::AttrType::Date { min, max } => {
                        Value::Date(min + (rng.gen::<u64>() % (*max - *min + 1) as u64) as i64)
                    }
                }
            };
            record.push(v);
        }
        t.push_row_lenient(&record).unwrap();
    }
    t
}

fn schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .nominal("color", ["red", "green", "blue"])
        .numeric("x", -50.0, 50.0)
        .integer("k", 0.0, 20.0)
        .date_ymd("d", (1999, 1, 1), (2001, 12, 31))
        .build()
        .unwrap()
}

fn cell(attr: usize) -> BoxedStrategy<Value> {
    match attr {
        0 => prop_oneof![Just(Value::Null), (0u32..3).prop_map(Value::Nominal)].boxed(),
        1 => prop_oneof![
            Just(Value::Null),
            // Values that survive decimal text round-trips exactly.
            (-5000i64..=5000).prop_map(|m| Value::Number(m as f64 / 100.0)),
        ]
        .boxed(),
        2 => prop_oneof![Just(Value::Null), (0i64..=20).prop_map(|k| Value::Number(k as f64))]
            .boxed(),
        _ => prop_oneof![Just(Value::Null), (10_592i64..11_688).prop_map(Value::Date)].boxed(),
    }
}

fn record() -> impl Strategy<Value = Vec<Value>> {
    (cell(0), cell(1), cell(2), cell(3)).prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

fn table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec(record(), 0..60).prop_map(|rows| {
        let mut t = Table::new(schema());
        for r in rows {
            t.push_row(&r).unwrap();
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// CSV write → read reproduces the table cell-for-cell.
    #[test]
    fn csv_round_trip(t in table_strategy()) {
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(t.schema().clone(), buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_rows(), t.n_rows());
        for r in 0..t.n_rows() {
            prop_assert_eq!(back.row(r), t.row(r), "row {}", r);
        }
    }

    /// Equal-frequency binning: edges strictly increase, every value
    /// maps into a valid bin, and bin codes are monotone in the value.
    #[test]
    fn equal_frequency_binning_invariants(
        t in table_strategy(),
        n_bins in 2usize..10,
    ) {
        let b = discretize_equal_frequency(&t, 1, n_bins);
        prop_assert_eq!(b.n_bins, b.edges.len() + 1);
        prop_assert!(b.n_bins <= n_bins);
        for w in b.edges.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        let mut prev: Option<(f64, u32)> = None;
        for r in 0..t.n_rows() {
            if let Some(x) = t.get(r, 1).as_numeric() {
                let bin = b.bin_of(x);
                prop_assert!((bin as usize) < b.n_bins);
                if let Some((px, pb)) = prev {
                    if x >= px {
                        prop_assert!(bin >= pb || x == px);
                    }
                }
                if prev.is_none_or(|(px, _)| x > px) {
                    prev = Some((x, bin));
                }
            }
        }
    }

    /// Equal-width binning covers the observed range.
    #[test]
    fn equal_width_binning_covers_range(t in table_strategy(), n_bins in 2usize..10) {
        let b = discretize_equal_width(&t, 1, n_bins);
        for r in 0..t.n_rows() {
            if let Some(x) = t.get(r, 1).as_numeric() {
                prop_assert!((b.bin_of(x) as usize) < b.n_bins);
            }
        }
    }

    /// Duplication and deletion keep row accounting exact.
    #[test]
    fn row_surgery_accounting(t in table_strategy(), ops in proptest::collection::vec(0usize..100, 0..20)) {
        let mut t = t;
        for op in ops {
            if t.is_empty() {
                break;
            }
            let row = op % t.n_rows();
            let before = t.n_rows();
            if op % 2 == 0 {
                let copy = t.duplicate_row(row).unwrap();
                prop_assert_eq!(copy, before);
                prop_assert_eq!(t.row(copy), t.row(row));
                prop_assert_eq!(t.n_rows(), before + 1);
            } else {
                t.delete_row(row).unwrap();
                prop_assert_eq!(t.n_rows(), before - 1);
            }
        }
    }

    /// `select_rows` preserves content, order and multiplicity.
    #[test]
    fn select_rows_is_exact(t in table_strategy(), picks in proptest::collection::vec(0usize..100, 0..30)) {
        prop_assume!(!t.is_empty());
        let keep: Vec<usize> = picks.iter().map(|p| p % t.n_rows()).collect();
        let s = t.select_rows(&keep).unwrap();
        prop_assert_eq!(s.n_rows(), keep.len());
        for (i, &src) in keep.iter().enumerate() {
            prop_assert_eq!(s.row(i), t.row(src));
        }
    }

    /// `Table::chunks(n)` partitions the row range: the concatenated
    /// chunk row-indices equal `0..n_rows` for arbitrary chunk counts —
    /// including `n > n_rows`, `n = 0` and empty tables — and chunk
    /// sizes stay balanced to within one row.
    #[test]
    fn chunks_partition_rows_exactly(t in table_strategy(), n in 0usize..90) {
        let chunks = t.chunks(n);
        let concatenated: Vec<usize> = chunks.iter().flat_map(|c| c.rows()).collect();
        prop_assert_eq!(concatenated, (0..t.n_rows()).collect::<Vec<usize>>());
        if t.is_empty() {
            prop_assert!(chunks.is_empty());
        } else {
            prop_assert_eq!(chunks.len(), n.clamp(1, t.n_rows()));
            let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            let lo = *sizes.iter().min().unwrap();
            let hi = *sizes.iter().max().unwrap();
            prop_assert!(hi - lo <= 1, "unbalanced chunks: {:?}", sizes);
            prop_assert!(chunks.iter().all(|c| !c.is_empty()));
            // Chunk reads pass through to the underlying table.
            for c in &chunks {
                for r in c.rows() {
                    prop_assert_eq!(c.get(r, 0), t.get(r, 0));
                }
            }
        }
    }

    /// Any workspace-generated table — random schema, NULLs, dirty
    /// out-of-label codes included — round-trips through CSV exactly,
    /// and the chunked reader reassembles the identical table for any
    /// chunk size ≥ 1.
    #[test]
    fn csv_round_trip_any_generated_table(seed in 0u64..u64::MAX, chunk in 1usize..64) {
        let t = random_table(seed);
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(t.schema().clone(), buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_rows(), t.n_rows());
        for r in 0..t.n_rows() {
            prop_assert_eq!(back.row(r), t.row(r), "row {} differs (seed {})", r, seed);
        }
        // Chunked read ≡ full read, at any batch size.
        let mut reader = CsvChunkReader::new(t.schema().clone(), buf.as_slice(), chunk).unwrap();
        let mut row = 0usize;
        while let Some(batch) = reader.next_batch().unwrap() {
            prop_assert!(batch.n_rows() <= chunk);
            for r in 0..batch.n_rows() {
                prop_assert_eq!(batch.row(r), t.row(row), "chunked row {} (seed {})", row, seed);
                row += 1;
            }
        }
        prop_assert_eq!(row, t.n_rows());
    }

    /// Pushed records validate; domain violations only report non-NULL
    /// out-of-domain cells.
    #[test]
    fn domain_violation_reporting(t in table_strategy()) {
        // The generated cells are all in-domain.
        prop_assert!(t.domain_violations().is_empty());
        let mut t = t;
        if t.n_rows() > 0 {
            t.set(0, 1, Value::Number(1e9)).unwrap();
            let v = t.domain_violations();
            prop_assert!(v.contains(&(0, 1)));
        }
    }
}
