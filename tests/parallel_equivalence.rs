//! Serial/parallel equivalence of the audit pipeline.
//!
//! Determinism is a paper-level requirement: the evaluation scores
//! detections against the ground-truth pollution log, so the parallel
//! engine must produce *exactly* the results of the legacy serial
//! path — identical structure-model rules and byte-identical audit
//! reports (detections, confidences, corrections) at every thread
//! count. These tests pin that contract on several generated and
//! polluted tables.

use data_audit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A generated, polluted table of the given shape.
fn dirty_table(schema: Arc<Schema>, n_rules: usize, n_rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let benchmark = TestDataGenerator::new(schema, n_rules, n_rows).generate(&mut rng);
    let (dirty, _log) = pollute(&benchmark.clean, &PollutionConfig::standard(), &mut rng);
    dirty
}

/// The benchmark shapes the suite sweeps: nominal-only, mixed
/// nominal/numeric/date, and a near-degenerate two-column table.
fn fixtures() -> Vec<Table> {
    let nominal = SchemaBuilder::new()
        .nominal("a", ["v1", "v2", "v3", "v4"])
        .nominal("b", ["w1", "w2", "w3"])
        .nominal("c", ["x1", "x2", "x3", "x4", "x5"])
        .build()
        .unwrap();
    let mixed = SchemaBuilder::new()
        .nominal("color", ["red", "green", "blue", "grey"])
        .nominal("shape", ["disc", "drum", "vent"])
        .numeric("size", 0.0, 100.0)
        .date_ymd("built", (1999, 1, 1), (2003, 12, 31))
        .build()
        .unwrap();
    let narrow = SchemaBuilder::new()
        .nominal("k", ["on", "off"])
        .nominal("v", ["hi", "lo", "mid"])
        .build()
        .unwrap();
    vec![
        dirty_table(nominal, 8, 1500, 31),
        dirty_table(mixed, 12, 2000, 32),
        dirty_table(narrow, 3, 900, 33),
    ]
}

fn auditor_with(threads: impl Into<dq_exec::Parallelism>) -> Auditor {
    Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() })
}

/// The per-row overall error confidences of `model` over `table`, as
/// one `scan_batch` at `threads` workers returns them.
fn row_confidences(
    model: StructureModel,
    table: &Table,
    threads: impl Into<dq_exec::Parallelism>,
) -> Vec<f64> {
    AuditEngine::new(model, table.schema().clone()).with_threads(threads).scan_batch(table, 0).1
}

/// Byte-level equality for f64 sequences (`==` would also accept
/// -0.0/0.0 confusions; the contract is *byte-identical*).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: index {i} ({x} vs {y})");
    }
}

#[test]
fn structure_models_are_identical_across_thread_counts() {
    for (i, table) in fixtures().iter().enumerate() {
        let serial_model = auditor_with(Some(1)).induce(table).unwrap();
        for threads in [2, 4] {
            let parallel_model = auditor_with(Some(threads)).induce(table).unwrap();
            assert_eq!(
                parallel_model.models.len(),
                serial_model.models.len(),
                "fixture {i}, threads {threads}"
            );
            assert_eq!(parallel_model.min_inst, serial_model.min_inst);
            for (mp, ms) in parallel_model.models.iter().zip(&serial_model.models) {
                assert_eq!(mp.class_attr, ms.class_attr);
                assert_eq!(mp.rules, ms.rules, "fixture {i}, attr {}", ms.class_attr);
                assert_eq!(mp.deleted_rules, ms.deleted_rules);
                assert_eq!(mp.classifier.describe(), ms.classifier.describe());
            }
            // The rendered probabilistic integrity constraints agree
            // byte for byte.
            assert_eq!(parallel_model.render(table.schema()), serial_model.render(table.schema()));
        }
    }
}

#[test]
fn audit_reports_are_byte_identical_across_thread_counts() {
    for (i, table) in fixtures().iter().enumerate() {
        let (serial_model, serial_report) = auditor_with(Some(1)).run(table).unwrap();
        for threads in [2, 4] {
            let report = auditor_with(Some(threads)).detect(&serial_model, table);
            assert_eq!(report.findings.len(), serial_report.findings.len(), "fixture {i}");
            for (fp, fs) in report.findings.iter().zip(&serial_report.findings) {
                assert_eq!((fp.row, fp.attr), (fs.row, fs.attr), "fixture {i}");
                assert_eq!(fp.observed, fs.observed);
                assert_eq!(fp.proposed, fs.proposed);
                assert_eq!(fp.confidence.to_bits(), fs.confidence.to_bits());
                assert_eq!(fp.support.to_bits(), fs.support.to_bits());
            }
            assert_eq!(report, serial_report, "fixture {i}, threads {threads}");
            // Proposed corrections derive from the findings and agree too.
            let serial_fixes = propose_corrections(&serial_report);
            let parallel_fixes = propose_corrections(&report);
            assert_eq!(parallel_fixes, serial_fixes, "fixture {i}, threads {threads}");
        }
        let mut engine = AuditEngine::new(serial_model, table.schema().clone());
        let serial = engine.scan_batch(table, 0).1;
        for threads in [2, 4] {
            engine = engine.with_threads(threads);
            let what = format!("fixture {i}, threads {threads}");
            assert_bits_eq(&engine.scan_batch(table, 0).1, &serial, &what);
        }
    }
}

#[test]
fn full_parallel_run_equals_full_serial_run() {
    // End to end: parallel induction feeding parallel detection equals
    // the all-serial pipeline (not just mixed combinations).
    for table in fixtures() {
        let (serial_model, serial_report) = auditor_with(Some(1)).run(&table).unwrap();
        let (parallel_model, parallel_report) = auditor_with(Some(4)).run(&table).unwrap();
        assert_eq!(parallel_report, serial_report);
        assert_bits_eq(
            &row_confidences(parallel_model, &table, 4),
            &row_confidences(serial_model, &table, 1),
            "full run",
        );
    }
}

#[test]
fn default_thread_resolution_matches_serial_results() {
    // Whatever `None` resolves to on this machine (hardware threads or
    // `DQ_THREADS`), the results must equal the serial path — the
    // guarantee CI exercises by running the suite under both settings.
    let table = &fixtures()[1];
    let (serial_model, serial) = auditor_with(Some(1)).run(table).unwrap();
    let (auto_model, auto) = auditor_with(None).run(table).unwrap();
    assert_eq!(auto, serial);
    assert_bits_eq(
        &row_confidences(auto_model, table, None),
        &row_confidences(serial_model, table, 1),
        "auto threads",
    );
}
