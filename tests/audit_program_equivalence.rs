//! Audit-side compiled-program equivalence.
//!
//! The association auditor lowers its mined rules onto
//! `dq_logic::program` violation programs. That compiled scan must be
//! **byte-identical** to its retained interpreted `detect_reference`
//! on randomly polluted tables (NULL cells and out-of-label `#<code>`
//! nominal codes included), at every thread count. The comparison is
//! literal: the rendered report CSV, the exact finding lists, and
//! bit-equal `f64` record confidences.

use data_audit::prelude::*;
use dq_core::{AssociationAuditConfig, AssociationAuditor, AssociationScoring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A rule-bearing nominal/numeric benchmark, polluted by the standard
/// suite and then roughed up further: random NULLs and out-of-label
/// nominal codes (rendered `#<code>` in CSV) that no generator emits
/// but real dirty data contains.
fn messy_benchmark(seed: u64) -> Table {
    let schema = SchemaBuilder::new()
        .nominal("brv", ["404", "501", "610"])
        .nominal("gbm", ["901", "911", "921"])
        .nominal("flag", ["y", "n"])
        .numeric("load", 0.0, 50.0)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let benchmark = TestDataGenerator::new(schema, 12, 1500).generate(&mut rng);
    let (mut dirty, _) = pollute(&benchmark.clean, &PollutionConfig::standard(), &mut rng);
    let n = dirty.n_rows();
    for _ in 0..40 {
        let row = rng.gen_range(0..n);
        let col = rng.gen_range(0..3usize);
        dirty.set(row, col, Value::Null).unwrap();
    }
    for _ in 0..25 {
        let row = rng.gen_range(0..n);
        let col = rng.gen_range(0..3usize);
        // Cardinalities are 2-3; codes 7.. are firmly out of label.
        dirty.set(row, col, Value::Nominal(7 + rng.gen_range(0..5) as u32)).unwrap();
    }
    dirty
}

/// Bit-level view of the per-record confidences (plain `==` on f64
/// would already accept -0.0 / 0.0 and reject NaN).
fn bits(confidences: &[f64]) -> Vec<u64> {
    confidences.iter().map(|c| c.to_bits()).collect()
}

#[test]
fn association_audit_matches_reference_at_every_thread_count() {
    for seed in [11u64, 77] {
        let table = messy_benchmark(seed);
        for scoring in [AssociationScoring::Sum, AssociationScoring::Max] {
            let serial = AssociationAuditor::new(AssociationAuditConfig {
                scoring,
                threads: 1.into(),
                ..AssociationAuditConfig::default()
            });
            let (miner, _) = serial.run(&table).unwrap();
            let reference = serial.detect_reference(&miner, &table);
            for threads in [1usize, 2, 4] {
                let auditor = AssociationAuditor::new(AssociationAuditConfig {
                    scoring,
                    threads: threads.into(),
                    ..AssociationAuditConfig::default()
                });
                let report = auditor.detect(&miner, &table);
                assert_eq!(
                    report.to_csv(table.schema()),
                    reference.to_csv(table.schema()),
                    "seed {seed}, {scoring:?}, {threads} threads"
                );
                assert_eq!(report.findings, reference.findings);
                assert_eq!(bits(&report.record_confidence), bits(&reference.record_confidence));
                assert_eq!(report.n_suspicious(), reference.n_suspicious());
            }
        }
    }
}
