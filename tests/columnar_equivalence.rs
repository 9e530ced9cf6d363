//! Byte-identity of the columnar hot paths against the reference
//! implementations.
//!
//! PR 4 rewrote both audit hot paths — presorted columnar C4.5
//! induction and flattened-tree columnar detection — under the
//! contract that **only the data layout changed**: every float is
//! produced by the same operations in the same order as the
//! row-at-a-time reference paths, which are retained as
//! [`Auditor::induce_reference`] / [`Auditor::detect_reference`]. This
//! property suite pins that contract on randomly generated, polluted
//! tables:
//!
//! * structure models compared through their canonical
//!   `dq-structure-model v1` rendering (the same byte surface the
//!   persistence round-trip guarantees);
//! * audit reports compared through `AuditReport::to_csv` *and* the
//!   exact `f64` bit patterns of findings and per-record confidences;
//! * both at the default thread count and pinned to one thread (CI
//!   additionally re-runs the whole suite under `DQ_THREADS=1`).

use data_audit::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn schema_with(nominal_cards: &[usize], with_numeric: bool, with_date: bool) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    for (i, &card) in nominal_cards.iter().enumerate() {
        b = b.nominal_sized(&format!("n{i}"), card);
    }
    if with_numeric {
        b = b.numeric("x", 0.0, 100.0);
    }
    if with_date {
        b = b.date_ymd("d", (1999, 1, 1), (2003, 12, 31));
    }
    b.build().unwrap()
}

/// A generated, polluted table (pollution injects NULLs, out-of-domain
/// codes and domain-crossing values — the messy cases the columnar
/// cache must encode exactly like `Value` semantics).
fn dirty_table(schema: Arc<Schema>, n_rules: usize, n_rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let benchmark = TestDataGenerator::new(schema, n_rules, n_rows).generate(&mut rng);
    let (dirty, _log) = pollute(&benchmark.clean, &PollutionConfig::standard(), &mut rng);
    dirty
}

fn assert_equivalent(table: &Table, threads: impl Into<dq_exec::Parallelism>) {
    let auditor = Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
    let model = auditor.induce(table).expect("columnar induction succeeds");
    let reference_model = auditor.induce_reference(table).expect("reference induction succeeds");

    // Trees and provenance compared through the canonical model text.
    let rendered = dq_core::render_model(&model, table.schema()).unwrap();
    let reference_rendered = dq_core::render_model(&reference_model, table.schema()).unwrap();
    assert_eq!(rendered, reference_rendered, "dq-structure-model v1 rendering must not drift");

    // Reports compared through the CSV byte surface and the raw bits.
    let report = auditor.detect(&model, table);
    let (reference_report, reference_confidences) =
        auditor.detect_reference(&reference_model, table);
    assert_eq!(report.to_csv(table.schema()), reference_report.to_csv(table.schema()));
    assert_eq!(report.findings.len(), reference_report.findings.len());
    for (a, b) in report.findings.iter().zip(&reference_report.findings) {
        assert_eq!(
            (a.row, a.attr, a.observed, a.proposed),
            (b.row, b.attr, b.observed, b.proposed)
        );
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.support.to_bits(), b.support.to_bits());
    }
    assert_eq!(report, reference_report);
    let engine = AuditEngine::new(model, table.schema().clone());
    let (_, confidences) = engine.scan_batch(table, 0);
    assert_eq!(confidences.len(), reference_confidences.len());
    for (i, (a, b)) in confidences.iter().zip(&reference_confidences).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "record confidence, row {i}");
    }

    // Corrections derive from the findings and must agree too.
    assert_eq!(propose_corrections(&report), propose_corrections(&reference_report));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Presorted induction and flat detection are byte-identical to the
    /// reference paths on random polluted tables of random shapes.
    #[test]
    fn columnar_paths_match_reference_on_random_tables(
        seed in 0u64..10_000,
        n_rules in 0usize..10,
        rows in 80usize..600,
        card in 2usize..6,
        shape in 0usize..4,
    ) {
        let (with_numeric, with_date) = (shape & 1 != 0, shape & 2 != 0);
        let schema = schema_with(&[card, card + 1, 3], with_numeric, with_date);
        let table = dirty_table(schema, n_rules, rows, seed);
        assert_equivalent(&table, None);
    }

    /// The same contract pinned to the exact serial path (`threads =
    /// Some(1)`), so the equivalence cannot hide behind chunk merging.
    #[test]
    fn columnar_paths_match_reference_single_threaded(
        seed in 0u64..10_000,
        rows in 80usize..400,
    ) {
        let schema = schema_with(&[4, 3], true, true);
        let table = dirty_table(schema, 6, rows, seed);
        assert_equivalent(&table, Some(1));
    }
}

/// A deterministic large-ish mixed fixture on top of the random sweep:
/// ties in ordered values, heavy NULLs and an out-of-domain code, at a
/// size where the presorted recursion actually recurses several levels.
#[test]
fn columnar_paths_match_reference_on_adversarial_fixture() {
    let schema = schema_with(&[5, 2, 3], true, true);
    let mut table = Table::new(schema);
    for i in 0..3000usize {
        let n0 = if i % 17 == 0 { Value::Null } else { Value::Nominal((i % 5) as u32) };
        let n1 = Value::Nominal(u32::from(i % 10 < 5));
        let n2 = Value::Nominal((i % 3) as u32);
        // Few distinct numeric values => many ties for the stable sort.
        let x = if i % 7 == 0 { Value::Null } else { Value::Number((i % 4) as f64 * 10.0) };
        let d = if i % 11 == 0 {
            Value::Null
        } else {
            Value::Date(dq_table::date::days_from_civil(2000, 1, 1) + (i % 6) as i64)
        };
        table.push_row(&[n0, n1, n2, x, d]).unwrap();
    }
    table
        .push_row_lenient(&[
            Value::Nominal(99),
            Value::Nominal(0),
            Value::Nominal(1),
            Value::Number(30.0),
            Value::Null,
        ])
        .unwrap();
    assert_equivalent(&table, None);
    assert_equivalent(&table, Some(1));
}
