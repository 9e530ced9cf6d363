//! Frozen byte digests of structure induction and deviation detection.
//!
//! The equivalence suites compare today's fast paths against today's
//! `*_reference` code; this suite pins the bytes across commits
//! instead, so a reference path can one day be deleted without losing
//! the guarantee. For every QUIS configuration below it records
//!
//! * FNV-1a of the persisted model (`StructureModel::save`), and
//! * FNV-1a of the report CSV (`AuditReport::to_csv`) followed by the
//!   little-endian bit patterns of every per-record confidence,
//!
//! and checks the in-memory, streamed and per-batch detection paths
//! all land on the same report digest. It pins the association
//! auditor the same way: the report digest of
//! `AssociationAuditor::detect` on a polluted sec. 6.1 baseline table
//! with injected NULLs and out-of-label codes, per seed, scoring and
//! thread count. The snapshot lives in
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

fn report_digest(report: &AuditReport, schema: &Schema) -> u64 {
    let mut bytes = report.to_csv(schema).into_bytes();
    for c in &report.record_confidence {
        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
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
                let report = report_digest(&report, table.schema());
                let _ = writeln!(out, "{seed} {scoring:?} {threads} {report:016x}");
            }
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
            let table = &quis.dirty;
            let schema = table.schema();
            for threads in THREADS {
                let auditor =
                    Auditor::new(AuditConfig { threads: threads.into(), ..AuditConfig::default() });
                let model = auditor.induce(table).expect("QUIS induction succeeds");
                let mut saved = Vec::new();
                model.save(schema, &mut saved).expect("model renders");

                let report = report_digest(&auditor.detect(&model, table), schema);
                let engine = AuditEngine::new(model, schema.clone()).with_threads(threads);
                let streamed = engine
                    .detect(table.batches(STREAM_BATCH_ROWS))
                    .expect("in-memory batches never fail");
                assert_eq!(report_digest(&streamed, schema), report, "streamed detect drifted");

                let (mut findings, mut confidences) = (Vec::new(), Vec::new());
                let mut offset = 0;
                let mut batches = table.batches(STREAM_BATCH_ROWS);
                while let Some(batch) = batches.next_batch().expect("in-memory batch") {
                    let (f, c) = engine.scan_batch(&batch, offset);
                    offset += batch.n_rows();
                    findings.extend(f);
                    confidences.extend(c);
                }
                let parts = engine.report_from_parts(findings, confidences);
                assert_eq!(report_digest(&parts, schema), report, "per-batch scan drifted");

                let _ =
                    writeln!(out, "{seed} {rows} {threads} {:016x} {report:016x}", fnv1a(&saved));
            }
        }
    }
    render_association(&mut out);
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
