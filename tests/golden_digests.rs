//! Frozen byte digests of structure induction and deviation detection.
//!
//! Induction and detection each have one implementation; this suite
//! pins their bytes across commits. Every classifier line of the
//! snapshot was last confirmed while a row-at-a-time reference inducer
//! and a boxed-tree reference scan were checked to produce the same
//! bytes, so a change that moves a line changes what the auditor
//! computes. For every C4.5 configuration below it records
//!
//! * FNV-1a of the persisted model (`StructureModel::save`), and
//! * FNV-1a of the report CSV (`AuditReport::to_csv`) followed by the
//!   little-endian bit patterns of every per-record confidence that
//!   `AuditEngine::scan_batch` returns batch by batch,
//!
//! and checks the in-memory and streamed detection paths land on the
//! same report as the per-batch scan, flagging exactly the rows whose
//! confidence reaches the threshold. The configurations are QUIS at
//! two seeds and sizes; generated, polluted tables of every mix of
//! nominal, numeric and date attributes; and a fixture of value ties,
//! heavy NULLs and an out-of-domain code, which flags no row at the
//! default minimal confidence and so runs again at 0.3, where it does.
//! Naive Bayes, OneR and ZeroR,
//! which have no flat tree and no persisted form, are pinned by their
//! report digests on QUIS. Every configuration runs at threads 1 and 2.
//! It pins the association auditor by the report CSV followed by the
//! flagged rows of `AssociationAuditor::detect` on a polluted sec. 6.1
//! baseline table with injected NULLs and out-of-label codes, per
//! seed, scoring and thread count. The snapshot lives in
//! `tests/golden/audit_digests.txt`; regenerate it after an
//! *intentional* change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_digests
//! ```

use data_audit::prelude::*;
use dq_core::{AssociationAuditConfig, AssociationAuditor, AssociationScoring, AuditEngine};
use dq_eval::Baseline;
use dq_job::fnv1a;
use dq_quis::{generate_quis, QuisConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const SEEDS: [u64; 2] = [7, 2003];
const ROWS: [usize; 2] = [4_000, 20_000];
const THREADS: [usize; 2] = [1, 2];
/// Deliberately not a divisor of any row count, so batches straddle
/// the detection shards.
const STREAM_BATCH_ROWS: usize = 997;
/// Rows and rules of the association auditor's baseline table.
const ASSOCIATION_ROWS: usize = 3_000;
const ASSOCIATION_RULES: usize = 20;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/audit_digests.txt")
}

/// FNV-1a of the report CSV followed by the little-endian bytes of
/// each of `words`.
fn digest(report: &AuditReport, schema: &Schema, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = report.to_csv(schema).into_bytes();
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The sec. 6.1 baseline, generated and polluted by the standard
/// suite, then roughed up with NULL cells and out-of-label nominal
/// codes that no generator emits.
fn polluted_baseline(seed: u64) -> Table {
    let baseline = Baseline::new(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let benchmark = baseline.generator(ASSOCIATION_RULES, ASSOCIATION_ROWS).generate(&mut rng);
    let (mut dirty, _) = pollute(&benchmark.clean, &baseline.pollution, &mut rng);
    let n = dirty.n_rows();
    for _ in 0..60 {
        let (row, col) = (rng.gen_range(0..n), rng.gen_range(0..dirty.n_cols()));
        dirty.set(row, col, Value::Null).unwrap();
    }
    // The first six attributes are nominal with at most 12 labels.
    for _ in 0..40 {
        let (row, col) = (rng.gen_range(0..n), rng.gen_range(0..6usize));
        dirty.set(row, col, Value::Nominal(20 + rng.gen_range(0..5) as u32)).unwrap();
    }
    dirty
}

/// One snapshot line per (seed, scoring, threads) configuration of the
/// association auditor.
fn render_association(out: &mut String) {
    out.push_str("# association seed scoring threads report_fnv1a\n");
    for seed in SEEDS {
        let table = polluted_baseline(seed);
        let (miner, _) = AssociationAuditor::new(AssociationAuditConfig::default())
            .run(&table)
            .expect("the baseline table mines");
        for scoring in [AssociationScoring::Sum, AssociationScoring::Max] {
            for threads in THREADS {
                let auditor = AssociationAuditor::new(AssociationAuditConfig {
                    scoring,
                    threads: threads.into(),
                    ..AssociationAuditConfig::default()
                });
                let report = auditor.detect(&miner, &table);
                assert!(report.n_suspicious() > 0, "the digest must cover flagged records");
                let flagged = (0..report.n_rows()).filter(|&row| report.is_flagged(row));
                let report = digest(&report, table.schema(), flagged.map(|row| row as u64));
                let _ = writeln!(out, "{seed} {scoring:?} {threads} {report:016x}");
            }
        }
    }
}

/// Induce with `auditor` on `table`, detect in memory, streamed and
/// batch by batch, check the three reports agree and flag exactly the
/// rows whose confidence reaches the threshold, and return the model's
/// FNV-1a (`None` for a classifier family that does not persist) and
/// the report digest over the per-row confidence bits.
fn audit_digests(auditor: &Auditor, table: &Table, threads: usize) -> (Option<u64>, u64) {
    let (model, report, _) = audit_digests_flagged(auditor, table, threads);
    (model, report)
}

/// [`audit_digests`], plus the number of flagged rows.
fn audit_digests_flagged(
    auditor: &Auditor,
    table: &Table,
    threads: usize,
) -> (Option<u64>, u64, usize) {
    let schema = table.schema();
    let model = auditor.induce(table).expect("induction succeeds");
    let saved = matches!(auditor.config.inducer, InducerKind::C45(_)).then(|| {
        let mut saved = Vec::new();
        model.save(schema, &mut saved).expect("model renders");
        fnv1a(&saved)
    });

    let in_memory = auditor.detect(&model, table);
    let engine = AuditEngine::new(model, schema.clone()).with_threads(threads);
    let streamed =
        engine.detect(table.batches(STREAM_BATCH_ROWS)).expect("in-memory batches never fail");

    let (mut findings, mut confidences) = (Vec::new(), Vec::new());
    let mut batches = table.batches(STREAM_BATCH_ROWS);
    while let Some(batch) = batches.next_batch().expect("in-memory batch") {
        let (f, c) = engine.scan_batch(&batch, confidences.len());
        findings.extend(f);
        confidences.extend(c);
    }
    let per_batch = engine.report(findings, confidences.len());
    assert_eq!(in_memory, per_batch, "in-memory detect drifted");
    assert_eq!(streamed, per_batch, "streamed detect drifted");
    for (row, c) in confidences.iter().enumerate() {
        assert_eq!(per_batch.is_flagged(row), *c >= per_batch.min_confidence);
    }
    let flagged = per_batch.n_suspicious();
    (saved, digest(&per_batch, schema, confidences.iter().map(|c| c.to_bits())), flagged)
}

fn c45_auditor(threads: usize) -> Auditor {
    Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() })
}

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

/// A generated table after the standard pollution, which injects
/// NULLs, out-of-domain codes and domain-crossing values.
fn dirty_table(schema: Arc<Schema>, n_rules: usize, n_rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let benchmark = TestDataGenerator::new(schema, n_rules, n_rows).generate(&mut rng);
    let (dirty, _log) = pollute(&benchmark.clean, &PollutionConfig::standard(), &mut rng);
    dirty
}

/// Ties in ordered values, heavy NULLs and an out-of-domain code, at a
/// size where the induction recurses several levels.
fn adversarial_table() -> Table {
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
    table
}

/// Snapshot lines for mixed-kind polluted tables (every combination of
/// a numeric and a date attribute next to nominal ones), the
/// adversarial fixture, and the classifier families without a flat
/// tree on QUIS.
fn render_mixed_and_families(out: &mut String) {
    out.push_str("# shape numeric date seed threads model_fnv1a report_fnv1a\n");
    for (with_numeric, with_date) in [(false, false), (true, false), (false, true), (true, true)] {
        for seed in SEEDS {
            let table = dirty_table(schema_with(&[3, 4, 3], with_numeric, with_date), 6, 600, seed);
            for threads in THREADS {
                let (model, report) = audit_digests(&c45_auditor(threads), &table, threads);
                let model = model.expect("C4.5 models persist");
                let _ = writeln!(
                    out,
                    "shape {with_numeric} {with_date} {seed} {threads} {model:016x} {report:016x}"
                );
            }
        }
    }
    out.push_str("# adversarial threads model_fnv1a report_fnv1a\n");
    let table = adversarial_table();
    for threads in THREADS {
        let (model, report) = audit_digests(&c45_auditor(threads), &table, threads);
        let model = model.expect("C4.5 models persist");
        let _ = writeln!(out, "adversarial {threads} {model:016x} {report:016x}");
    }
    out.push_str("# family seed rows threads report_fnv1a\n");
    for seed in SEEDS {
        let quis = generate_quis(
            &QuisConfig::default().with_rows(ROWS[0]),
            &mut StdRng::seed_from_u64(seed),
        );
        for inducer in [InducerKind::NaiveBayes, InducerKind::OneR, InducerKind::ZeroR] {
            for threads in THREADS {
                let name = inducer.name();
                let auditor = Auditor::new(AuditConfig {
                    inducer: inducer.clone(),
                    threads: threads.into(),
                    ..AuditConfig::default()
                });
                let (_, report) = audit_digests(&auditor, &quis.dirty, threads);
                let _ = writeln!(out, "{name} {seed} {} {threads} {report:016x}", ROWS[0]);
            }
        }
    }
}

/// The adversarial fixture flags nothing at the default minimal
/// confidence of 0.8, so it is pinned again at 0.3, the highest tenth
/// at which it flags rows.
fn render_adversarial_flagging(out: &mut String) {
    const MIN_CONFIDENCE: f64 = 0.3;
    out.push_str(
        "# adversarial-flagging min_confidence threads flagged model_fnv1a report_fnv1a\n",
    );
    let table = adversarial_table();
    for threads in THREADS {
        let auditor = Auditor::new(AuditConfig {
            min_confidence: MIN_CONFIDENCE,
            threads: threads.into(),
            ..AuditConfig::default()
        });
        let (model, report, flagged) = audit_digests_flagged(&auditor, &table, threads);
        assert!(flagged > 0, "the digest must cover flagged records");
        let model = model.expect("C4.5 models persist");
        let _ = writeln!(
            out,
            "adversarial-flagging {MIN_CONFIDENCE} {threads} {flagged} {model:016x} {report:016x}"
        );
    }
}

/// ZeroR on QUIS flags nothing at the default minimal confidence of
/// 0.8, so it is pinned again at 0.3, the highest tenth at which it
/// flags rows on both seeds. These lines pin the findings of the scan
/// branch that classifies whole records instead of walking a flat tree.
fn render_zeror_flagging(out: &mut String) {
    const MIN_CONFIDENCE: f64 = 0.3;
    out.push_str("# zeror-flagging min_confidence seed rows threads flagged report_fnv1a\n");
    for seed in SEEDS {
        let quis = generate_quis(
            &QuisConfig::default().with_rows(ROWS[0]),
            &mut StdRng::seed_from_u64(seed),
        );
        for threads in THREADS {
            let auditor = Auditor::new(AuditConfig {
                inducer: InducerKind::ZeroR,
                min_confidence: MIN_CONFIDENCE,
                threads: threads.into(),
                ..AuditConfig::default()
            });
            let (_, report, flagged) = audit_digests_flagged(&auditor, &quis.dirty, threads);
            assert!(flagged > 0, "the digest must cover flagged records");
            let _ = writeln!(
                out,
                "zeror-flagging {MIN_CONFIDENCE} {seed} {} {threads} {flagged} {report:016x}",
                ROWS[0]
            );
        }
    }
}

/// One snapshot line per (seed, rows, threads) configuration.
fn render_snapshot() -> String {
    let mut out = String::from("# seed rows threads model_fnv1a report_fnv1a\n");
    for seed in SEEDS {
        for rows in ROWS {
            let quis = generate_quis(
                &QuisConfig::default().with_rows(rows),
                &mut StdRng::seed_from_u64(seed),
            );
            for threads in THREADS {
                let (model, report) = audit_digests(&c45_auditor(threads), &quis.dirty, threads);
                let model = model.expect("C4.5 models persist");
                let _ = writeln!(out, "{seed} {rows} {threads} {model:016x} {report:016x}");
            }
        }
    }
    render_association(&mut out);
    render_mixed_and_families(&mut out);
    render_adversarial_flagging(&mut out);
    render_zeror_flagging(&mut out);
    out
}

#[test]
fn induction_and_detection_bytes_match_the_frozen_digests() {
    let actual = render_snapshot();
    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden drift at line {} of {}", i + 1, path.display());
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden snapshot length changed");
}
