//! The train-once / audit-forever round-trip guarantee.
//!
//! For any workspace-generated dataset, `induce → save → load →
//! AuditEngine::detect` over a CSV stream — at any chunk size ≥ 1 and
//! any thread count — must produce a report **byte-identical** to the
//! in-memory `induce → detect` path. The comparison is literal: the
//! rendered report CSV and corrections CSV bytes, plus the exact `f64`
//! finding lists.
//! CI runs this suite twice (default parallelism and `DQ_THREADS=1`),
//! so the guarantee is pinned on both scheduling regimes.

use data_audit::prelude::*;
use dq_quis::{generate_quis, QuisConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Workspace-generated fixtures: a mixed-type TDG benchmark, a QUIS
/// excerpt, and a numeric/date-heavy table.
fn fixtures() -> Vec<(&'static str, Table)> {
    let mixed = SchemaBuilder::new()
        .nominal("color", ["red", "green", "blue", "grey"])
        .nominal("shape", ["disc", "drum", "vent"])
        .numeric("size", 0.0, 100.0)
        .date_ymd("built", (1999, 1, 1), (2003, 12, 31))
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(91);
    let tdg = TestDataGenerator::new(mixed, 10, 1800).generate(&mut rng);
    let (tdg_dirty, _) = pollute(&tdg.clean, &PollutionConfig::standard(), &mut rng);

    let quis = generate_quis(&QuisConfig::default().with_rows(4000), &mut rng);

    let ordered = SchemaBuilder::new()
        .nominal("x", ["lo", "hi"])
        .numeric("n", 0.0, 100.0)
        .date_ymd("d", (2000, 1, 1), (2010, 1, 1))
        .build()
        .unwrap();
    let base = dq_table::date::days_from_civil(2001, 1, 1);
    let mut t = Table::new(ordered);
    for i in 0..1200 {
        let (x, n) =
            if i % 2 == 0 { (0, 10.0 + (i % 9) as f64) } else { (1, 80.0 + (i % 9) as f64) };
        let d = if i % 13 == 0 { Value::Null } else { Value::Date(base + (i % 40) as i64) };
        t.push_row(&[Value::Nominal(x), Value::Number(n), d]).unwrap();
    }
    t.push_row(&[Value::Nominal(0), Value::Number(97.0), Value::Date(base)]).unwrap();

    vec![("tdg-mixed", tdg_dirty), ("quis", quis.dirty), ("ordered", t)]
}

/// Stream CSV bytes through `engine` in `chunk_rows`-row batches.
fn stream_report(engine: &AuditEngine, csv: &[u8], chunk_rows: usize) -> AuditReport {
    let reader =
        CsvChunkReader::new(engine.schema().clone(), csv, chunk_rows).expect("valid header");
    engine.detect(reader).expect("stream detection succeeds")
}

/// A resident engine over `model`, at `threads` workers per request.
fn engine(model: StructureModel, schema: &Arc<Schema>, threads: Option<usize>) -> AuditEngine {
    AuditEngine::new(model, schema.clone()).with_threads(threads)
}

#[test]
fn save_load_detect_stream_is_byte_identical_to_in_memory() {
    for (name, table) in fixtures() {
        let auditor = Auditor::default();
        let model = auditor.induce(&table).unwrap();
        let in_memory = auditor.detect(&model, &table);
        let reference_report = in_memory.to_csv(table.schema());
        let reference_corrections =
            corrections_to_csv(&propose_corrections(&in_memory), table.schema());

        // Persist the model and the data.
        let mut model_bytes = Vec::new();
        model.save(table.schema(), &mut model_bytes).unwrap();
        let mut csv = Vec::new();
        write_csv(&table, &mut csv).unwrap();

        for threads in [Some(1), Some(2), Some(5), None] {
            let streaming = AuditEngine::load(table.schema().clone(), model_bytes.as_slice())
                .unwrap()
                .with_threads(threads);
            for chunk_rows in [1, 7, 113, table.n_rows().max(1), usize::MAX / 2] {
                let report = stream_report(&streaming, &csv, chunk_rows);
                assert_eq!(
                    report.to_csv(table.schema()),
                    reference_report,
                    "{name}: report differs at chunk_rows={chunk_rows}, threads={threads:?}"
                );
                assert_eq!(
                    corrections_to_csv(&propose_corrections(&report), table.schema()),
                    reference_corrections,
                    "{name}: corrections differ at chunk_rows={chunk_rows}, threads={threads:?}"
                );
                // Beyond the rendering: the exact floats, flags and
                // row count.
                assert_eq!(report, in_memory, "{name}");
            }
        }
    }
}

#[test]
fn save_load_save_is_byte_stable_for_all_fixtures() {
    for (name, table) in fixtures() {
        let model = Auditor::default().induce(&table).unwrap();
        let first = dq_core::render_model(&model, table.schema()).unwrap();
        let loaded = StructureModel::load(table.schema(), first.as_bytes()).unwrap();
        let second = dq_core::render_model(&loaded, table.schema()).unwrap();
        assert_eq!(first, second, "{name}: model file must be a fixed point of save → load");
        assert_eq!(loaded.render(table.schema()), model.render(table.schema()), "{name}");
    }
}

#[test]
fn detect_stream_on_in_memory_batches_matches_detect() {
    // Streamed detection is not tied to CSV: hand it the table's own
    // chunks as owned batches and the merged report must still be
    // identical.
    let (_, table) = fixtures().remove(2);
    let auditor = Auditor::default();
    let model = auditor.induce(&table).unwrap();
    let reference = auditor.detect(&model, &table);
    let engine = engine(model, table.schema(), None);
    for n_batches in [1, 3, 8] {
        let batches: Vec<Result<Table, dq_table::TableError>> = table
            .chunks(n_batches)
            .into_iter()
            .map(|c| table.select_rows(&c.rows().collect::<Vec<_>>()))
            .collect();
        let source = ReplaySource::new(table.schema().clone(), batches);
        let report = engine.detect(source).unwrap();
        assert_eq!(report, reference, "n_batches={n_batches}");
    }
}

#[test]
fn detect_stream_zero_batches_matches_detect_on_empty_table() {
    // A stream that yields no batches at all (an empty CSV body, a
    // drained queue) must land exactly where the in-memory path lands
    // on a zero-row table: an empty, well-formed report.
    let (_, table) = fixtures().remove(2);
    for threads in [Some(1), Some(4), None] {
        let auditor =
            Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
        let model = auditor.induce(&table).unwrap();
        let empty = Table::new(table.schema().clone());
        let in_memory = auditor.detect(&model, &empty);
        let engine = engine(model, table.schema(), threads);
        let streamed =
            engine.detect(ReplaySource::new(table.schema().clone(), Vec::new())).unwrap();
        assert_eq!(streamed, in_memory);
        assert_eq!(streamed.n_rows(), 0);
        assert_eq!(streamed.n_suspicious(), 0);
        assert_eq!(streamed.to_csv(table.schema()), in_memory.to_csv(table.schema()));
        // Header-only CSV input is the same case through the reader.
        let mut csv = Vec::new();
        write_csv(&empty, &mut csv).unwrap();
        let reader = CsvChunkReader::new(table.schema().clone(), csv.as_slice(), 64).unwrap();
        let from_csv = engine.detect(reader).unwrap();
        assert_eq!(from_csv.to_csv(table.schema()), in_memory.to_csv(table.schema()));
    }
}

#[test]
fn mid_stream_errors_carry_the_physical_line() {
    // A malformed cell in the *middle* of the stream — batches before
    // it already consumed, batches after it never read — must abort
    // with the 1-based physical CSV line of the bad row (header is
    // line 1), not a batch-relative index.
    let (_, table) = fixtures().remove(2);
    let model = Auditor::default().induce(&table).unwrap();
    let mut buf = Vec::new();
    write_csv(&table, &mut buf).unwrap();
    let csv = String::from_utf8(buf).unwrap();
    let mut lines: Vec<&str> = csv.lines().collect();
    // Splice the bad row after 150 data rows: with chunk_rows = 64 it
    // sits in the third batch.
    let bad_at = 151; // 0-based index into `lines`; header is lines[0]
    lines.insert(bad_at, "hi,not-a-number,2001-01-01");
    let spliced = lines.join("\n") + "\n";
    let reader = CsvChunkReader::new(table.schema().clone(), spliced.as_bytes(), 64).unwrap();
    let err = engine(model, table.schema(), None).detect(reader).unwrap_err();
    let shown = err.to_string();
    assert!(shown.contains("column `n`"), "got {shown}");
    // Physical line = 0-based position in `lines` + 1.
    assert!(shown.contains(&format!("line {}", bad_at + 1)), "got {shown}");
}

#[test]
fn stream_errors_surface_with_location() {
    let (_, table) = fixtures().remove(2);
    let model = Auditor::default().induce(&table).unwrap();
    let mut csv = String::new();
    {
        let mut buf = Vec::new();
        write_csv(&table, &mut buf).unwrap();
        csv.push_str(std::str::from_utf8(&buf).unwrap());
    }
    csv.push_str("hi,not-a-number,2001-01-01\n");
    let reader = CsvChunkReader::new(table.schema().clone(), csv.as_bytes(), 64).unwrap();
    let err = engine(model, table.schema(), None).detect(reader).unwrap_err();
    let shown = err.to_string();
    assert!(shown.contains("column `n`"), "got {shown}");
    assert!(shown.contains(&format!("line {}", table.n_rows() + 2)), "got {shown}");
}

#[test]
fn garbled_model_files_fail_typed_and_never_panic() {
    // The numeric fixture induces threshold splits, so every tree-line
    // shape the format can carry is present in its rendering.
    let (_, table) = fixtures().remove(2);
    let schema = table.schema().clone();
    let model = Auditor::default().induce(&table).unwrap();
    let text = dq_core::render_model(&model, &schema).unwrap();
    let load = |s: &str| StructureModel::load(&schema, s.as_bytes());
    let persistence = |s: &str, tag: &str| match load(s) {
        Err(dq_core::AuditError::Persistence(m)) => m,
        other => panic!("{tag}: expected AuditError::Persistence, got {other:?}"),
    };

    // Truncations: the header cut mid-line, the file cut mid-model,
    // the trailing `end` gone. All typed, none panic (a wrong-arity
    // count vector reaching the flat-tree compiler would).
    for cut in [0, 7, text.len() / 3, text.len() / 2, text.len() - 5] {
        persistence(&text[..cut], &format!("cut at byte {cut}"));
    }

    // Mutate the first line matching `pred`, leaving the rest intact.
    let mutate = |pred: &dyn Fn(&str) -> bool, edit: &dyn Fn(&str) -> String| -> String {
        let mut done = false;
        let mut out = String::new();
        for line in text.lines() {
            if !done && pred(line) {
                out.push_str(&edit(line));
                done = true;
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert!(done, "fixture rendering lacks the line shape under test");
        out
    };

    // A leaf whose count vector has one entry too many.
    let fat_leaf = mutate(&|l| l.starts_with("tree = L"), &|l| l.replacen(" e=", ",0 e=", 1));
    let msg = persistence(&fat_leaf, "fat leaf");
    assert!(msg.contains("count vector"), "{msg}");

    // A leaf whose count vector lost its last entry.
    let thin_leaf = mutate(&|l| l.starts_with("tree = L"), &|l| {
        let cut = l.rfind(',').unwrap();
        format!("{}{}", &l[..cut], &l[l.find(" e=").unwrap()..])
    });
    persistence(&thin_leaf, "thin leaf");

    // A split node whose count vector grew an entry (`c=` is last on
    // the line).
    let fat_split = mutate(&|l| l.starts_with("tree = S"), &|l| format!("{l},0"));
    let msg = persistence(&fat_split, "fat split");
    assert!(msg.contains("count vector"), "{msg}");

    // A threshold split claiming three children (with a third fraction
    // spliced in so the child/fraction consistency check passes and the
    // threshold-arity check itself is what trips).
    let wide_threshold = mutate(&|l| l.starts_with("tree = S") && l.contains("k=t:"), &|l| {
        l.replacen("n=2", "n=3", 1).replacen(" c=", ",0 c=", 1)
    });
    let msg = persistence(&wide_threshold, "3-way threshold");
    assert!(msg.contains("must be exactly 2"), "{msg}");

    // The untouched rendering still loads, so every failure above came
    // from the mutation, not the fixture.
    load(&text).expect("the unmutated rendering loads");
}
