//! Property-based checks of the table substrate: CSV round-trips,
//! discretization invariants and row-surgery accounting.

use dq_table::date::{civil_from_days, days_from_civil};
use dq_table::{
    discretize_equal_frequency, discretize_equal_width, read_csv, write_csv, AttrType, BatchSource,
    CsvChunkReader, CsvWriter, Schema, SchemaBuilder, Table, TableError, Value,
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

/// A random table over a random schema whose cells include values the
/// generators never produce: signed zeros, subnormals, huge and
/// non-finite doubles, integers at and past 2^53, dates in years 0,
/// 9999, 10000 and before year 0, out-of-label codes up to `u32::MAX`,
/// and all-NULL rows.
fn edge_table(seed: u64) -> Table {
    const NUMBERS: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -1.1125369292536007e-308,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        f64::MAX,
        9007199254740992.0,
        9007199254740994.0,
        1.8446744073709552e19,
        0.1,
        f64::INFINITY,
        f64::NAN,
    ];
    let days = [
        days_from_civil(0, 1, 1),
        days_from_civil(0, 12, 31),
        days_from_civil(9999, 12, 31),
        days_from_civil(10000, 1, 1),
        days_from_civil(-1, 12, 31),
        days_from_civil(-4713, 11, 24),
        days_from_civil(1970, 1, 1),
        -1,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let n_attrs = 1 + (rng.gen::<u64>() % 6) as usize;
    let mut b = SchemaBuilder::new();
    for i in 0..n_attrs {
        b = match rng.gen::<u64>() % 3 {
            0 => b.nominal_sized(&format!("a{i}"), 1 + (rng.gen::<u64>() % 5) as usize),
            1 => b.numeric(&format!("a{i}"), -1.0, 1.0),
            _ => b.date_ymd(&format!("a{i}"), (2000, 1, 1), (2000, 12, 31)),
        };
    }
    let schema = b.build().unwrap();
    let mut t = Table::new(schema.clone());
    let mut record = Vec::with_capacity(n_attrs);
    for _ in 0..(rng.gen::<u64>() % 30) {
        record.clear();
        let all_null = rng.gen::<u64>() % 6 == 0;
        for attr in schema.attributes() {
            let pick = rng.gen::<u64>();
            let v = match &attr.ty {
                _ if all_null || pick % 7 == 0 => Value::Null,
                dq_table::AttrType::Nominal { labels } => Value::Nominal(match pick % 4 {
                    0 => u32::MAX - (pick >> 40) as u32 % 3,
                    1 => labels.len() as u32 + (pick >> 40) as u32 % 1000,
                    _ => ((pick >> 8) % labels.len() as u64) as u32,
                }),
                dq_table::AttrType::Numeric { .. } => Value::Number(match pick % 3 {
                    0 => NUMBERS[(pick >> 8) as usize % NUMBERS.len()],
                    // Any bit pattern: every sign, exponent and mantissa.
                    1 => f64::from_bits(rng.gen::<u64>()),
                    _ => ((pick >> 8) % 20_000) as f64 / 8.0 - 1250.0,
                }),
                dq_table::AttrType::Date { .. } => Value::Date(match pick % 3 {
                    0 => days[(pick >> 8) as usize % days.len()],
                    // Years from about -27000 to +31000.
                    _ => ((pick >> 8) % 21_000_000) as i64 - 10_500_000,
                }),
            };
            record.push(v);
        }
        t.push_row_lenient(&record).unwrap();
    }
    t
}

/// The CSV bytes of `t`, built independently of the writer: labels or
/// `#code` for nominal cells, `Value`'s `Display` for numbers, dates
/// from their civil fields, the empty string for NULL.
fn csv_oracle(t: &Table) -> Vec<u8> {
    let schema = t.schema();
    let names: Vec<&str> = schema.attributes().iter().map(|a| a.name.as_str()).collect();
    let mut out = format!("{}\n", names.join(","));
    for r in 0..t.n_rows() {
        let cells: Vec<String> = (0..t.n_cols())
            .map(|c| match t.get(r, c) {
                Value::Null => String::new(),
                Value::Nominal(code) => {
                    schema.attr(c).label(code).map_or_else(|| format!("#{code}"), str::to_string)
                }
                Value::Date(d) => {
                    let (y, m, day) = civil_from_days(d);
                    format!("{y:04}-{m:02}-{day:02}")
                }
                v => v.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out.into_bytes()
}

/// A random schema whose nominal domains may repeat a label, and a
/// random CSV text over it: good rows, rows with one bad cell (the last
/// column included), rows too short or too long, blank lines and CRLF
/// endings. Cells come from pools of the tricky spellings each kind's
/// parser must agree on, plus random `YYYY-MM-DD` strings around the
/// valid month and day ranges.
fn dirty_csv(seed: u64) -> (Arc<Schema>, String) {
    const NUMBERS: [&str; 26] = [
        "1",
        "-0.0",
        "0",
        "2.5",
        "+7",
        ".5",
        "5.",
        "1e308",
        "1e309",
        "-1e-320",
        "inf",
        "-inf",
        "NaN",
        "nan",
        "infinity",
        "1_000",
        "0x10",
        "abc",
        " 1",
        "1,5",
        "007",
        "1e400",
        "123456789012345",
        "1234567890123456",
        "12345678901234567",
        "-NaN",
    ];
    const DATES: [&str; 20] = [
        "2000-01-01",
        "+2000-01-01",
        "2000-1-1",
        "02000-01-01",
        "2000-02-30",
        "-001-01-01",
        "2000-02-29",
        "1900-02-29",
        "9999-12-31",
        "0000-01-01",
        "10000-01-01",
        "2000-13-01",
        "2000-00-10",
        "2000/01/01",
        "2000-01-01x",
        "2000-01-+1",
        "20000101",
        "2000-01-1 ",
        "２000-01-01",
        "-",
    ];
    const ESCAPES: [&str; 9] =
        ["#0", "#7", "#4294967295", "#4294967296", "#x", "#", "#-1", "#+3", "mauve"];
    let mut rng = StdRng::seed_from_u64(seed);
    let n_attrs = 1 + (rng.gen::<u64>() % 5) as usize;
    let mut b = SchemaBuilder::new();
    for i in 0..n_attrs {
        b = match rng.gen::<u64>() % 3 {
            0 => {
                let pool = ["red", "green", "blue", "red", "Red", "green"];
                let n = 1 + (rng.gen::<u64>() % pool.len() as u64) as usize;
                b.nominal(&format!("a{i}"), pool[..n].iter().copied())
            }
            1 => b.numeric(&format!("a{i}"), -1e4, 1e4),
            _ => b.date_ymd(&format!("a{i}"), (1995, 1, 1), (2005, 12, 31)),
        };
    }
    let schema = b.build().unwrap();
    let pick =
        |rng: &mut StdRng, pool: &[&str]| pool[rng.gen::<u64>() as usize % pool.len()].to_string();
    let cell = |rng: &mut StdRng, attr: &dq_table::Attribute, dirty: bool| -> String {
        let roll = rng.gen::<u64>() % 8;
        if roll == 0 {
            return String::new();
        }
        match &attr.ty {
            AttrType::Nominal { .. } if dirty || roll == 1 => pick(rng, &ESCAPES),
            AttrType::Nominal { labels } => {
                labels[rng.gen::<u64>() as usize % labels.len()].clone()
            }
            AttrType::Numeric { .. } if dirty || roll == 1 => pick(rng, &NUMBERS),
            AttrType::Numeric { .. } => (rng.gen::<f64>() * 2e4 - 1e4).to_string(),
            AttrType::Date { .. } if dirty || roll == 1 => pick(rng, &DATES),
            AttrType::Date { .. } => {
                // Every other year is a century, where leap rules bite.
                let y = rng.gen::<u64>() % 10_000;
                let y = if y % 2 == 0 { y % 100 * 100 } else { y };
                let m = if rng.gen::<u64>() % 3 == 0 { 2 } else { rng.gen::<u64>() % 14 };
                let d = rng.gen::<u64>() % 33;
                format!("{y:04}-{m:02}-{d:02}")
            }
        }
    };
    let names: Vec<&str> = schema.attributes().iter().map(|a| a.name.as_str()).collect();
    let mut text = format!("{}\n", names.join(","));
    for _ in 0..(rng.gen::<u64>() % 60) {
        let shape = rng.gen::<u64>() % 10;
        let mut cells: Vec<String> = if shape == 0 {
            Vec::new() // a blank line
        } else {
            let bad = if shape == 1 { Some(rng.gen::<u64>() as usize % n_attrs) } else { None };
            let attrs = schema.attributes();
            (0..n_attrs).map(|c| cell(&mut rng, &attrs[c], bad == Some(c))).collect()
        };
        match shape {
            2 => cells.truncate(rng.gen::<u64>() as usize % n_attrs),
            3 => cells.push(pick(&mut rng, &["", "x", "1"])),
            _ => {}
        }
        text.push_str(&cells.join(","));
        text.push_str(if rng.gen::<u64>() % 5 == 0 { "\r\n" } else { "\n" });
    }
    (schema, text)
}

/// One cell, numbers by bit pattern so `-0.0` and NaN compare exactly.
#[derive(Debug, PartialEq)]
enum Cell {
    Null,
    Nominal(u32),
    Number(u64),
    Date(i64),
}

/// What a read produced: the batches' cells, the quarantined rows as
/// `(line, error, raw)`, and the error that ended the stream, if any.
#[derive(Debug, PartialEq)]
struct ReadOutcome {
    batches: Vec<Vec<Vec<Cell>>>,
    quarantined: Vec<(usize, TableError, String)>,
    error: Option<TableError>,
}

fn cells(t: &Table) -> Vec<Vec<Cell>> {
    (0..t.n_rows())
        .map(|r| {
            (0..t.n_cols())
                .map(|c| match t.get(r, c) {
                    Value::Null => Cell::Null,
                    Value::Nominal(code) => Cell::Nominal(code),
                    Value::Number(x) => Cell::Number(x.to_bits()),
                    Value::Date(d) => Cell::Date(d),
                })
                .collect()
        })
        .collect()
}

/// The date parser as it was before the byte-level fast path: three
/// `-`-separated `str::parse` fields and a round trip.
fn oracle_date(s: &str) -> Option<i64> {
    let mut parts = s.splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let days = days_from_civil(y, m, d);
    (civil_from_days(days) == (y, m, d)).then_some(days)
}

/// A naive reader of a header-valid CSV text: split lines and cells
/// with `str::split`, parse each cell with `str::parse` or
/// [`oracle_date`] (refusing numbers that parse to NaN or ±inf), stage
/// each row as `Value`s and push it through
/// `push_row_lenient`; cut batches of `chunk` rows, quarantine up to
/// `budget` malformed rows, and stop at the first error, dropping the
/// unfinished batch.
fn oracle_read(
    schema: &Arc<Schema>,
    text: &str,
    chunk: usize,
    budget: Option<usize>,
) -> ReadOutcome {
    let mut out = ReadOutcome { batches: Vec::new(), quarantined: Vec::new(), error: None };
    let mut batch = Table::new(schema.clone());
    for (i, line) in text.split_inclusive('\n').enumerate().skip(1) {
        let line_no = i + 1;
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        let parsed = (|| {
            let raw: Vec<&str> = line.split(',').collect();
            if raw.len() != schema.len() {
                return Err(TableError::Csv(format!(
                    "line {line_no}: {} cells, schema has {}",
                    raw.len(),
                    schema.len()
                )));
            }
            let mut record = Vec::new();
            for (cell, attr) in raw.iter().zip(schema.attributes()) {
                let bad = |what: &str| TableError::CsvCell {
                    line: line_no,
                    column: attr.name.clone(),
                    message: format!("`{cell}` is not {what}"),
                };
                record.push(match &attr.ty {
                    _ if cell.is_empty() => Value::Null,
                    AttrType::Nominal { .. } if cell.starts_with('#') => {
                        Value::Nominal(cell[1..].parse().map_err(|_| bad("a `#<code>` escape"))?)
                    }
                    AttrType::Nominal { .. } => {
                        Value::Nominal(attr.code(cell).ok_or_else(|| bad("a label of the domain"))?)
                    }
                    AttrType::Numeric { .. } => {
                        let x: f64 = cell.parse().map_err(|_| bad("a number"))?;
                        Value::Number(if x.is_finite() { x } else { Err(bad("a finite number"))? })
                    }
                    AttrType::Date { .. } => {
                        Value::Date(oracle_date(cell).ok_or_else(|| bad("an ISO date"))?)
                    }
                });
            }
            Ok(record)
        })();
        match (parsed, budget) {
            (Ok(record), _) => {
                batch.push_row_lenient(&record).unwrap();
                if batch.n_rows() == chunk {
                    out.batches.push(cells(&batch));
                    batch = Table::new(schema.clone());
                }
            }
            (Err(e), Some(budget)) if out.quarantined.len() < budget => {
                out.quarantined.push((line_no, e, line.to_string()));
            }
            (Err(_), Some(budget)) => {
                out.error =
                    Some(TableError::QuarantineBudget { max_bad_rows: budget, line: line_no });
                return out;
            }
            (Err(e), None) => {
                out.error = Some(e);
                return out;
            }
        }
    }
    if !batch.is_empty() {
        out.batches.push(cells(&batch));
    }
    out
}

/// The product reader's outcome on the same input.
fn product_read(
    schema: &Arc<Schema>,
    text: &str,
    chunk: usize,
    budget: Option<usize>,
) -> ReadOutcome {
    let mut reader = CsvChunkReader::new(schema.clone(), text.as_bytes(), chunk).unwrap();
    if let Some(budget) = budget {
        reader = reader.with_quarantine(budget);
    }
    let mut out = ReadOutcome { batches: Vec::new(), quarantined: Vec::new(), error: None };
    loop {
        match reader.next_batch() {
            Ok(Some(batch)) => out.batches.push(cells(&batch)),
            Ok(None) => break,
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    assert!(matches!(reader.next_batch(), Ok(None)), "the reader must stay fused");
    out.quarantined =
        reader.take_quarantined().into_iter().map(|q| (q.line, q.error, q.raw)).collect();
    out
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

    /// Every write path renders exactly the oracle's bytes: the whole
    /// table through `write_csv`, arbitrary batch splits through one
    /// `CsvWriter`, and a header-less `CsvWriter::append` resuming after
    /// a prefix. `Value`'s `Display` renders dates as the oracle does.
    #[test]
    fn csv_writer_matches_an_independent_oracle(seed in 0u64..u64::MAX, cut in 0usize..31) {
        let t = edge_table(seed);
        let expected = csv_oracle(&t);
        let mut whole = Vec::new();
        write_csv(&t, &mut whole).unwrap();
        prop_assert_eq!(String::from_utf8_lossy(&whole), String::from_utf8_lossy(&expected));

        let cut = cut.min(t.n_rows());
        let mut batched = Vec::new();
        let mut w = CsvWriter::new(t.schema().clone(), &mut batched).unwrap();
        for (start, end) in [(0, cut / 2), (cut / 2, cut), (cut, cut), (cut, t.n_rows())] {
            w.write_batch(&t.slice_rows(start, end).unwrap()).unwrap();
        }
        w.finish().unwrap();
        prop_assert_eq!(&batched, &expected);

        let mut resumed = Vec::new();
        let mut w = CsvWriter::new(t.schema().clone(), &mut resumed).unwrap();
        w.write_batch(&t.slice_rows(0, cut).unwrap()).unwrap();
        w.finish().unwrap();
        let mut w = CsvWriter::append(t.schema().clone(), &mut resumed);
        w.write_batch(&t.slice_rows(cut, t.n_rows()).unwrap()).unwrap();
        w.finish().unwrap();
        prop_assert_eq!(&resumed, &expected);

        let day = ((seed >> 8) % 21_000_000) as i64 - 10_500_000;
        let (y, m, d) = civil_from_days(day);
        prop_assert_eq!(Value::Date(day).to_string(), format!("{y:04}-{m:02}-{d:02}"));
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The reader agrees with a naive staged-record oracle on dirty
    /// text: every cell (floats bit for bit), every batch boundary,
    /// every quarantined row and every error, in fatal mode and under
    /// a quarantine budget; `read_csv` is the one-batch fatal read.
    #[test]
    fn csv_reader_matches_a_naive_oracle(seed in 0u64..u64::MAX, budget in 0usize..6) {
        let (schema, text) = dirty_csv(seed);
        for chunk in [1, 7, 4096] {
            for budget in [None, Some(budget)] {
                let expected = oracle_read(&schema, &text, chunk, budget);
                let got = product_read(&schema, &text, chunk, budget);
                prop_assert_eq!(
                    got, expected, "chunk {}, budget {:?}, seed {}", chunk, budget, seed
                );
            }
        }
        let expected = oracle_read(&schema, &text, usize::MAX, None);
        match read_csv(schema.clone(), text.as_bytes()) {
            Ok(t) => {
                prop_assert!(expected.error.is_none(), "seed {}", seed);
                let rows: Vec<_> = expected.batches.into_iter().flatten().collect();
                prop_assert_eq!(cells(&t), rows, "seed {}", seed);
            }
            Err(e) => prop_assert_eq!(Some(e), expected.error, "seed {}", seed),
        }
    }
}
