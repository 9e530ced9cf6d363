//! Association-audit thread-count equivalence.
//!
//! `AssociationAuditor::detect` shards its record scan into row chunks.
//! On randomly polluted tables (NULL cells and out-of-label `#<code>`
//! nominal codes included) the report at 2 and 4 threads must be
//! **byte-identical** to the serial one. The comparison is literal:
//! the rendered report CSV, the exact finding lists with bit-equal
//! `f64` confidences, and the flagged row set.

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
            let (miner, reference) = serial.run(&table).unwrap();
            assert!(reference.n_suspicious() > 0, "seed {seed} flags nothing");
            for threads in [2usize, 4] {
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
                // Bit-level: plain `==` on f64 would accept -0.0 / 0.0.
                let bits = |r: &AuditReport| {
                    r.findings.iter().map(|f| f.confidence.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&report), bits(&reference));
                // Findings, flagged rows and row count.
                assert_eq!(report, reference);
            }
        }
    }
}
